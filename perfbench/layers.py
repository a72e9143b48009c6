"""Per-layer instrumentation: which public entry points the traced run
wraps, and how the per-layer metrics are derived from the spans.

Every layer is a ``src/repro`` module, measured from outside by timing
calls into its public functions and methods.  Nothing under ``src``
knows it is being traced: :func:`instrument` swaps each entry point for
a span-recording wrapper and restores the original on exit.
"""

from __future__ import annotations

import importlib
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from perfbench.spans import Span, SpanRecorder, self_times
from perfbench.stats import TooFewSamples, median, percentile

#: Simulation backends, in the order ``backend_ran`` reports them.
BACKENDS = ("reference", "fast", "counts", "batch", "leap", "bleap", "fluid")

#: Additive counters attached to kernel spans.
_KERNEL_COUNTERS = (
    "results",
    "interactions",
    "non_null",
    "leaps",
    "tau_weight",
    "repairs",
    "ssa_rows",
    "ode_steps",
    "handoff_sum",
    "fluid_runs",
)


def _count_results(span: Span, result) -> None:
    """Counters of a kernel call returning one result or a list."""
    results = result if isinstance(result, list) else [result]
    c = dict.fromkeys(_KERNEL_COUNTERS, 0)
    c["results"] = len(results)
    for r in results:
        c["interactions"] += r.interactions
        c["non_null"] += r.non_null_interactions
        st = r.stats
        if st is None:
            continue
        if st.leaps is not None:
            c["leaps"] += st.leaps
            c["tau_weight"] += st.mean_tau * st.leaps
            c["repairs"] += st.repairs or 0
            c["ssa_rows"] += st.ssa_fallback_rows or 0
        if st.ode_steps is not None:
            c["ode_steps"] += st.ode_steps
            c["handoff_sum"] += st.handoff_time or 0.0
            c["fluid_runs"] += 1
    span.counters.update(c)


def _count_compile(span: Span, table) -> None:
    span.counters["failed"] = int(table is None)


def _count_hit(span: Span, value) -> None:
    span.counters["hit"] = int(value is not None)


def _count_job(span: Span, ensemble) -> None:
    stats = ensemble.stats
    if stats is not None and stats.shm_bytes is not None:
        span.counters["shm_bytes"] = stats.shm_bytes
        span.counters["copy_bytes_saved"] = stats.copy_bytes_saved or 0


def _count_nodes(span: Span, reach_set) -> None:
    span.counters["nodes"] = reach_set.n_nodes


def _count_verdict(span: Span, verdict) -> None:
    span.counters["prop"] = verdict.prop


@dataclass(frozen=True)
class EntryPoint:
    """One public function or method the traced run wraps."""

    layer: str
    module: str
    #: ``"function"`` or ``"Class.method"``.
    target: str
    #: The simulation backend a kernel entry point runs; ``None`` elsewhere.
    backend: str | None = None
    count: Callable[[Span, object], None] | None = None


ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("ensemble", "repro.engine.ensemble", "run_ensemble"),
    EntryPoint("ensemble", "repro.engine.fast", "warn_fallback"),
    EntryPoint("fast", "repro.engine.fast", "compile_table",
               count=_count_compile),
    EntryPoint("fast", "repro.engine.fast", "FastSimulator.run",
               backend="fast", count=_count_results),
    EntryPoint("simulator", "repro.engine.simulator", "Simulator.run",
               backend="reference", count=_count_results),
    EntryPoint("counts", "repro.engine.counts", "CountSimulator.run",
               backend="counts", count=_count_results),
    EntryPoint("batch", "repro.engine.batch",
               "BatchedEnsembleSimulator.run_replicates",
               backend="batch", count=_count_results),
    EntryPoint("leap", "repro.engine.leap", "LeapSimulator.run",
               backend="leap", count=_count_results),
    EntryPoint("bleap", "repro.engine.bleap",
               "BatchedLeapSimulator.run_replicates",
               backend="bleap", count=_count_results),
    EntryPoint("fluid", "repro.engine.fluid", "FluidSimulator.run",
               backend="fluid", count=_count_results),
    EntryPoint("pool", "repro.serve.pool", "ServePool.submit"),
    EntryPoint("pool", "repro.serve.pool", "JobHandle.result",
               count=_count_job),
    EntryPoint("memo", "repro.serve.memo", "ResultMemo.lookup",
               count=_count_hit),
    EntryPoint("memo", "repro.serve.memo", "ResultMemo.store"),
    EntryPoint("cache", "repro.serve.cache", "ArtifactCache.get",
               count=_count_hit),
    EntryPoint("cache", "repro.serve.cache", "ArtifactCache.put"),
    EntryPoint("check", "repro.analysis.check", "cached_check",
               count=_count_verdict),
    EntryPoint("symbolic", "repro.analysis.symbolic", "check_reach"),
    EntryPoint("symbolic", "repro.analysis.symbolic", "check_sinks"),
    EntryPoint("symbolic", "repro.analysis.symbolic", "check_liveness"),
    EntryPoint("symbolic", "repro.analysis.symbolic", "reach",
               count=_count_nodes),
    EntryPoint("symbolic", "repro.analysis.symbolic", "symbolic_sccs"),
    EntryPoint("symbolic", "repro.analysis.symbolic", "replay_witness"),
)


def _guarded(recorder: SpanRecorder, entry: EntryPoint, original):
    """The recording wrapper, passing straight through in forked
    worker processes (their spans could never be collected)."""
    traced = recorder.wrap(original, entry.target, entry.layer, entry.count)
    pid = os.getpid()

    def wrapper(*args, **kwargs):
        if os.getpid() != pid:
            return original(*args, **kwargs)
        return traced(*args, **kwargs)

    wrapper.__wrapped__ = original
    return wrapper


def _replace_function(original, wrapper, undo: list) -> None:
    """Rebind every reference to ``original`` held by a ``repro`` module,
    as a module attribute or a value of a module-level dict (dispatch
    tables), so callers that imported it by name see the wrapper."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (
            mod_name == "repro" or mod_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                undo.append((setattr, module, attr, original))
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper
                        undo.append((dict.__setitem__, value, key, original))


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[None]:
    """Record a span for every call into :data:`ENTRY_POINTS` while the
    ``with`` block runs; restore the originals afterwards."""
    undo: list = []
    try:
        for entry in ENTRY_POINTS:
            module = importlib.import_module(entry.module)
            if "." in entry.target:
                cls_name, meth = entry.target.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, _guarded(recorder, entry, original))
                undo.append((setattr, cls, meth, original))
            else:
                original = getattr(module, entry.target)
                _replace_function(
                    original, _guarded(recorder, entry, original), undo
                )
        yield
    finally:
        for restore, owner, key, original in reversed(undo):
            restore(owner, key, original)


#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("fast.compile_s", "s"),
    ("fast.compile_failures", "count"),
    ("fast.busy_s", "s"),
    ("ensemble.busy_s", "s"),
    ("ensemble.fallbacks", "count"),
    *((f"ensemble.backend_ran.{b}", "count") for b in BACKENDS),
    ("batch.busy_s", "s"),
    ("batch.interactions_per_s", "1/s"),
    ("batch.useful_ratio", "ratio"),
    ("simulator.busy_s", "s"),
    ("simulator.interactions_per_s", "1/s"),
    ("counts.busy_s", "s"),
    ("leap.busy_s", "s"),
    ("bleap.busy_s", "s"),
    ("bleap.leaps", "count"),
    ("bleap.mean_tau", "interactions"),
    ("bleap.ssa_fallback_rows", "count"),
    ("bleap.repairs", "count"),
    ("fluid.busy_s", "s"),
    ("fluid.ode_steps", "count"),
    ("fluid.handoff_time", "interactions"),
    ("parallel.shm_bytes", "B"),
    ("parallel.copy_bytes_saved", "B"),
    ("pool.busy_s", "s"),
    ("pool.submit_ms", "ms"),
    ("pool.wait_ms", "ms"),
    ("pool.job_p90_ms", "ms"),
    ("pool.worker_crashes", "count"),
    ("memo.busy_s", "s"),
    ("memo.hit_ratio", "ratio"),
    ("memo.hit_p50_ms", "ms"),
    ("cache.busy_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("check.busy_s", "s"),
    ("check.reach_s", "s"),
    ("check.sinks_s", "s"),
    ("check.liveness_s", "s"),
    ("symbolic.busy_s", "s"),
    ("symbolic.reach_s", "s"),
    ("symbolic.nodes_per_s", "1/s"),
    ("symbolic.sccs_s", "s"),
    ("symbolic.liveness_self_s", "s"),
    ("symbolic.replay_s", "s"),
    ("bench.busy_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.accounted_ratio", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)

#: Layers with a ``<layer>.busy_s`` metric; their self times, summed,
#: account for the traced window's wall time.
BUSY_LAYERS = tuple(
    name[: -len(".busy_s")] for name, _ in PER_LAYER if name.endswith(".busy_s")
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _own_counters(span: Span, kids: list[Span]) -> dict[str, float]:
    """A kernel span's counters minus those its kernel children produced
    (a fallback's results are the delegate's, not the caller's)."""
    own = {}
    for key in _KERNEL_COUNTERS:
        own[key] = span.counters.get(key, 0) - sum(
            k.counters.get(key, 0) for k in kids
        )
    return own


def layer_metrics(
    spans: list[Span],
    window: tuple[float, float],
    threads: int,
    worker_crashes: int = 0,
) -> dict[str, float | str]:
    """Derive :data:`PER_LAYER` (bar the ``trace.overhead_*`` pair,
    which needs the untraced run) from the recorded spans.

    A percentile with too few samples to report is a string saying
    why it was refused, not a number.

    Compile metrics cover every span, set-up included; everything else
    covers the traced window ``(start, end)`` only.  ``threads`` is the
    number of client threads, so ``trace.accounted_ratio`` is the share
    of ``wall x threads`` that the layers' self times explain.
    """
    backend_of = {e.target: e.backend for e in ENTRY_POINTS if e.backend}
    start, end = window
    wall = end - start
    selfs = self_times(spans)
    by_id = {s.span_id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    live = [s for s in spans if s.start >= start and s.end <= end]

    def under_ensemble(s: Span) -> bool:
        parent = s.parent
        while parent is not None:
            p = by_id[parent]
            if p.name == "run_ensemble":
                return True
            parent = p.parent
        return False

    m: dict[str, float | str] = {}
    compiles = [s for s in spans if s.name == "compile_table"]
    m["fast.compile_s"] = sum(s.duration for s in compiles)
    m["fast.compile_failures"] = sum(s.counters["failed"] for s in compiles)

    busy: dict[str, float] = defaultdict(float)
    for s in live:
        busy[s.layer] += selfs[s.span_id]
    for layer in BUSY_LAYERS:
        m[f"{layer}.busy_s"] = busy[layer]

    own: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    ran = dict.fromkeys(BACKENDS, 0)
    for s in live:
        if s.name not in backend_of:
            continue
        kids = [k for k in children[s.span_id] if k.name in backend_of]
        counters = _own_counters(s, kids)
        for key, value in counters.items():
            own[s.layer][key] += value
        if under_ensemble(s):
            ran[backend_of[s.name]] += counters["results"]
    m["ensemble.fallbacks"] = sum(1 for s in live if s.name == "warn_fallback")
    for backend in BACKENDS:
        m[f"ensemble.backend_ran.{backend}"] = ran[backend]

    batch = own["batch"]
    m["batch.interactions_per_s"] = _ratio(
        batch["interactions"], busy["batch"]
    )
    m["batch.useful_ratio"] = _ratio(batch["non_null"], batch["interactions"])
    m["simulator.interactions_per_s"] = _ratio(
        own["simulator"]["interactions"], busy["simulator"]
    )
    bleap = own["bleap"]
    m["bleap.leaps"] = bleap["leaps"]
    m["bleap.mean_tau"] = _ratio(bleap["tau_weight"], bleap["leaps"])
    m["bleap.ssa_fallback_rows"] = bleap["ssa_rows"]
    m["bleap.repairs"] = bleap["repairs"]
    fluid = own["fluid"]
    m["fluid.ode_steps"] = fluid["ode_steps"]
    m["fluid.handoff_time"] = _ratio(fluid["handoff_sum"], fluid["fluid_runs"])

    # Serving: requests are the benchmark's root spans that submitted.
    submits = [s for s in live if s.name == "ServePool.submit"]
    results = [s for s in live if s.name == "JobHandle.result"]
    lookups = [s for s in live if s.name == "ResultMemo.lookup"]
    gets = [s for s in live if s.name == "ArtifactCache.get"]
    hit_requests = {s.request for s in lookups if s.counters["hit"]}
    job_requests = {s.request for s in submits}
    # A request's latency is its root span less the benchmark's own
    # output check, as the untraced run times it.
    checking: dict[int, float] = defaultdict(float)
    for s in live:
        if s.name == "check_output" and s.parent is not None:
            checking[s.parent] += s.duration
    roots = {s.span_id: s for s in live if s.parent is None}

    def latency(request: int) -> float:
        return roots[request].duration - checking[request]

    job_latency = [latency(r) for r in job_requests if r in roots]
    shm = [s for s in results if "shm_bytes" in s.counters]
    m["parallel.shm_bytes"] = _ratio(
        sum(s.counters["shm_bytes"] for s in shm), len(shm)
    )
    m["parallel.copy_bytes_saved"] = _ratio(
        sum(s.counters["copy_bytes_saved"] for s in shm), len(shm)
    )
    m["pool.submit_ms"] = (
        median([s.duration for s in submits]) * 1e3 if submits else 0.0
    )
    waits = [s.duration for s in results if s.request not in hit_requests]
    m["pool.wait_ms"] = median(waits) * 1e3 if waits else 0.0
    try:
        m["pool.job_p90_ms"] = (
            percentile(job_latency, 90) * 1e3 if job_latency else 0.0
        )
    except TooFewSamples as exc:
        m["pool.job_p90_ms"] = f"refused ({exc})"
    m["pool.worker_crashes"] = worker_crashes
    m["memo.hit_ratio"] = _ratio(
        sum(s.counters["hit"] for s in lookups), len(lookups)
    )
    hit_latency = [latency(r) for r in hit_requests if r in roots]
    m["memo.hit_p50_ms"] = median(hit_latency) * 1e3 if hit_latency else 0.0
    m["cache.hit_ratio"] = _ratio(
        sum(s.counters["hit"] for s in gets), len(gets)
    )

    checks = [s for s in live if s.name == "cached_check"]
    for prop in ("reach", "sinks", "liveness"):
        m[f"check.{prop}_s"] = sum(
            s.duration for s in checks if s.counters.get("prop") == prop
        )
    reaches = [s for s in live if s.name == "reach"]
    m["symbolic.reach_s"] = sum(selfs[s.span_id] for s in reaches)
    m["symbolic.nodes_per_s"] = _ratio(
        sum(s.counters["nodes"] for s in reaches), m["symbolic.reach_s"]
    )
    m["symbolic.sccs_s"] = sum(
        selfs[s.span_id] for s in live if s.name == "symbolic_sccs"
    )
    m["symbolic.liveness_self_s"] = sum(
        selfs[s.span_id] for s in live if s.name == "check_liveness"
    )
    m["symbolic.replay_s"] = sum(
        s.duration for s in live if s.name == "replay_witness"
    )

    m["trace.wall_s"] = wall
    m["trace.accounted_ratio"] = _ratio(
        sum(selfs[s.span_id] for s in live), wall * threads
    )
    m["trace.spans"] = len(live)
    return m
