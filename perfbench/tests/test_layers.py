"""The traced run's wrappers and the per-layer figures derived from them."""

import warnings

import pytest

import repro
from repro.engine import ensemble as ensemble_module
from repro.engine.batch import BatchedEnsembleSimulator
from repro.errors import BackendFallbackWarning
from perfbench.layers import PER_LAYER, instrument, layer_metrics
from perfbench.spans import Span, SpanRecorder
from perfbench.workloads.factories import scheduler_factory, uniform_start


def traced_ensemble(protocol, n, seeds):
    rec = SpanRecorder()
    population = repro.Population(n, protocol.requires_leader)
    with instrument(rec), rec.span("request", "bench"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BackendFallbackWarning)
            ens = ensemble_module.run_ensemble(
                protocol, population, scheduler_factory,
                uniform_start(protocol), repro.NamingProblem(), seeds,
            )
    start = min(s.start for s in rec.spans)
    end = max(s.end for s in rec.spans)
    return rec, ens, layer_metrics(rec.spans, (start, end), threads=1)


def test_instrument_restores_every_entry_point():
    originals = (
        ensemble_module.run_ensemble,
        repro.run_ensemble,
        BatchedEnsembleSimulator.__dict__["run_replicates"],
    )
    with instrument(SpanRecorder()):
        assert ensemble_module.run_ensemble is not originals[0]
        assert repro.run_ensemble is not originals[1]
    assert (
        ensemble_module.run_ensemble,
        repro.run_ensemble,
        BatchedEnsembleSimulator.__dict__["run_replicates"],
    ) == originals


def test_batch_cell_runs_on_the_batch_kernel():
    rec, ens, m = traced_ensemble(repro.AsymmetricNamingProtocol(6), 6,
                                  range(8))
    names = {s.name for s in rec.spans}
    assert {"run_ensemble", "BatchedEnsembleSimulator.run_replicates"} <= names
    assert m["ensemble.backend_ran.batch"] == 8
    assert m["ensemble.backend_ran.reference"] == 0
    interactions = sum(r.interactions for r in ens.results)
    non_null = sum(r.non_null_interactions for r in ens.results)
    assert m["batch.useful_ratio"] == pytest.approx(non_null / interactions)
    assert m["trace.accounted_ratio"] == pytest.approx(1.0, abs=1e-6)


def test_fallbacks_are_credited_to_the_backend_that_ran():
    # Protocol 2's leader space exceeds the compile limit at P = 8, so
    # every replicate falls down the ladder to the reference simulator.
    _, _, m = traced_ensemble(repro.SelfStabilizingNamingProtocol(8), 4,
                              range(3))
    assert m["ensemble.backend_ran.reference"] == 3
    assert m["ensemble.backend_ran.batch"] == 0
    assert m["ensemble.fallbacks"] >= 3
    assert m["fast.compile_failures"] >= 1


def test_every_per_layer_metric_is_derived_or_filled_by_the_runner():
    _, _, m = traced_ensemble(repro.AsymmetricNamingProtocol(4), 4, range(2))
    missing = {name for name, _ in PER_LAYER} - set(m)
    assert missing == {"trace.overhead_s", "trace.overhead_ratio"}


def served_jobs(count, call_s=0.010, check_s=0.005):
    """Spans of ``count`` serve requests one after another: submit and
    result take ``call_s`` together, the output check ``check_s``."""
    spans, ids, t = [], iter(range(10**6)), 0.0
    for _ in range(count):
        root = Span(next(ids), "job", "bench", t, t + call_s + check_s)
        root.request = root.span_id
        spans.append(root)
        for name, layer, start, end in (
            ("ServePool.submit", "pool", t, t + 0.001),
            ("JobHandle.result", "pool", t + 0.001, t + call_s),
            ("check_output", "bench", t + call_s, t + call_s + check_s),
        ):
            spans.append(Span(next(ids), name, layer, start, end,
                              parent=root.span_id, request=root.span_id))
        t += call_s + check_s
    return spans, (0.0, t)


def test_job_p90_excludes_the_benchmark_output_check():
    spans, window = served_jobs(100)
    m = layer_metrics(spans, window, threads=1)
    assert m["pool.job_p90_ms"] == pytest.approx(10.0)


def test_job_p90_is_refused_not_raised_below_one_hundred_jobs():
    spans, window = served_jobs(42)
    m = layer_metrics(spans, window, threads=1)
    assert m["pool.job_p90_ms"] == (
        "refused (p90 needs at least 100 samples, got 42)"
    )
