"""Tests for the simulation-tier benchmark's cell table and gate path."""

import json
from dataclasses import replace

import pytest

import repro.experiments.bench as bench
from repro.engine.fast import compile_table
from repro.errors import SimulationError
from repro.experiments.bench import (
    PARALLEL_MIN_CORES,
    REFERENCE_MAX_N,
    SECTIONS,
    TABLE,
    Cell,
    ChurnProtocol,
    Gate,
    Measurement,
    _safe_rate,
    check_gate,
    environment,
    main,
    measure_runs,
    metric,
    parse_gate,
    render,
    run_section,
    speedups,
    write_json,
)


def point(backend, n=10, r=1, work=100, seconds=1.0, workload="naming",
          **detail):
    return Measurement(workload, backend, n, r, 0, work, seconds,
                       detail=detail)


def payload_of(tmp_path, **results):
    out = tmp_path / "bench.json"
    write_json(str(out), results, {name: 1.0 for name in results}, seed=1)
    return json.loads(out.read_text())


def smoke(name):
    return run_section(TABLE[name], smoke=True, seed=1)


def run_main(tmp_path, *argv):
    out = tmp_path / "bench.json"
    code = main([*argv, "--out", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None)


class TestChurnProtocol:
    def test_every_interaction_is_non_null(self):
        protocol = ChurnProtocol()
        for p in protocol.mobile_state_space():
            for q in protocol.mobile_state_space():
                assert protocol.transition(p, q) != (p, q)

    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            ChurnProtocol(8)

    def test_compiles_for_the_fast_backend(self):
        assert compile_table(ChurnProtocol()) is not None


class TestRunBench:
    def test_smoke_run_produces_all_cells(self):
        # The smoke sizes exceed the naming bound (8), so the spread
        # start never converges and every backend runs its whole budget.
        points = smoke("backends")
        assert len(points) == len(TABLE["backends"].smoke) * 3
        assert all(p.work > 0 and p.seconds >= 0 for p in points)
        ratios = speedups(TABLE["backends"], points)
        assert set(ratios) == {"fast/reference", "counts/fast"}
        for cells in ratios.values():
            assert len(cells) == len(TABLE["backends"].smoke)
            assert all(v > 0 for v in cells.values())

    def test_reference_backend_skipped_above_cap(self):
        cell = Cell("naming", REFERENCE_MAX_N + 1, budget=2_000)
        points = measure_runs(cell, 1, ("counts", "fast", "reference"))
        assert {p.backend for p in points} == {"fast", "counts"}
        # Only the counts/fast pair is reportable without a reference.
        assert set(speedups(TABLE["backends"], points)) == {"counts/fast"}

    def test_floor_rate_reads_largest_naming_cell(self):
        points = smoke("backends")
        largest = max(c.n for c in TABLE["backends"].smoke)
        expected = [
            p for p in points
            if p.workload == "naming" and p.backend == "counts"
            and p.n_mobile == largest
        ]
        assert metric(TABLE["backends"], points, "counts") == expected[0].rate
        assert metric(TABLE["backends"], [], "counts") is None

    def test_json_payload_round_trips(self, tmp_path):
        points = smoke("backends")
        payload = payload_of(tmp_path, backends=points)
        assert payload["benchmark"] == "simulator"
        section = payload["backends"]
        assert len(section["points"]) == len(points)
        assert set(section["speedup"]) == {"fast/reference", "counts/fast"}
        assert section["metrics"]["counts"] > 0

    def test_json_payload_records_environment(self, tmp_path):
        env = payload_of(tmp_path, backends=[point("counts")])["environment"]
        # Perf regressions must be attributable: the report says which
        # NumPy, how many CPUs and which revision produced the numbers.
        assert set(env) == {"numpy", "cpu_count", "git_revision"}
        assert env["numpy"]
        assert env["cpu_count"] is None or env["cpu_count"] >= 1

    def test_environment_fields_present(self):
        env = environment()
        assert set(env) == {"numpy", "cpu_count", "git_revision"}

    def test_fast_reference_divergence_aborts_the_run(
        self, tmp_path, monkeypatch
    ):
        # Swap the fast backend for counts (its own randomness): the
        # run-time differential check must abort before any JSON exists.
        real = bench.make_simulator
        monkeypatch.setattr(
            bench, "make_simulator",
            lambda backend, *a, **k: real(
                "counts" if backend == "fast" else backend, *a, **k
            ),
        )
        with pytest.raises(SimulationError, match="divergence"):
            run_main(tmp_path, "--smoke", "--sections", "backends")
        assert not (tmp_path / "bench.json").exists()


class TestSafeRate:
    """Regression tests for the ``seconds == 0`` sentinel: a run that
    finishes inside one timer tick must read as infinitely *fast*, not
    infinitely slow (rate 0.0 would spuriously trip the gates)."""

    def test_zero_seconds_with_work_is_infinite(self):
        assert _safe_rate(100, 0.0) == float("inf")

    def test_zero_seconds_without_work_is_zero(self):
        assert _safe_rate(0, 0.0) == 0.0

    def test_positive_seconds_divides(self):
        assert _safe_rate(100, 2.0) == 50.0

    def test_bench_point_rate_never_raises(self):
        assert point("counts", work=1_000, seconds=0.0).rate == float("inf")

    def test_ensemble_point_runs_per_second_never_raises(self):
        cell = point("batch", r=8, work=1_000, seconds=0.0)
        assert cell.runs_per_second == float("inf")
        assert cell.rate == float("inf")

    def test_zero_time_cell_passes_floor_gate(self, capsys):
        # The point of the sentinel: an instantaneous batch cell must
        # satisfy any floor, not fail every floor.
        cell = point("batch", r=8, work=1_000, seconds=0.0)
        assert metric(TABLE["ensemble"], [cell], "batch") >= 1e12
        assert check_gate(Gate("ensemble", "batch", 1e12), [cell])


class TestEnsembleBench:
    def test_smoke_run_produces_both_engines_per_cell(self):
        points = smoke("ensemble")
        # counts and batch per (N, R) cell
        assert len(points) == 2 * len(TABLE["ensemble"].smoke)
        assert {p.backend for p in points} == {"counts", "batch"}
        assert all(p.work > 0 and p.seconds >= 0 for p in points)
        assert all(p.runs_per_second > 0 for p in points)
        ratios = speedups(TABLE["ensemble"], points)["batch/counts"]
        assert set(ratios) == {"naming N=12 R=4", "naming N=12 R=8"}
        assert all(v > 0 for v in ratios.values())

    def test_ensemble_floor_rate_reads_widest_batch_cell(self):
        points = [
            point("counts", r=4, work=100),
            point("batch", r=4, work=300),
            point("counts", r=8, work=100),
            point("batch", r=8, work=700),
        ]
        section = TABLE["ensemble"]
        # Most replicates wins at the (shared) largest population.
        assert metric(section, points, "batch") == 700.0
        assert metric(section, points, "batch/counts") == 7.0
        assert metric(section, [points[0]], "batch") is None
        assert metric(section, [], "batch") is None

    def test_render_marks_batch_speedup(self):
        table = render(TABLE["ensemble"], smoke("ensemble"))
        assert "ensemble throughput" in table
        assert "x vs counts" in table

    def test_json_payload_includes_ensemble_section(self, tmp_path):
        points = smoke("ensemble")
        section = payload_of(tmp_path, ensemble=points)["ensemble"]
        assert len(section["points"]) == len(points)
        assert {p["replicates"] for p in section["points"]} == {4, 8}
        assert set(section["speedup"]) == {"batch/counts"}
        assert set(section["metrics"]) == {"batch", "batch/counts"}


class TestLeapBench:
    def test_smoke_run_produces_both_backends(self):
        points = smoke("leap")
        assert [p.backend for p in points] == ["counts", "leap"]
        assert all(p.work > 0 and p.seconds >= 0 for p in points)
        leap = points[1].detail
        # The leap cell reports its window statistics.
        assert leap["leaps"] > 0
        assert leap["mean_tau"] > 0
        assert leap["repairs"] >= 0
        # The counts baseline has no window statistics.
        assert "leaps" not in points[0].detail

    def test_leap_speedup_requires_both_cells(self):
        section = TABLE["leap"]
        pair = [point("counts", work=100), point("leap", work=700)]
        assert metric(section, pair, "leap/counts") == 7.0
        assert metric(section, pair[:1], "leap/counts") is None
        assert metric(section, [], "leap/counts") is None

    def test_render_marks_leap_speedup(self):
        table = render(TABLE["leap"], smoke("leap"))
        assert "leap throughput" in table
        assert "leaps" in table
        assert "x vs counts" in table

    def test_json_payload_includes_leap_section(self, tmp_path):
        section = payload_of(tmp_path, leap=smoke("leap"))["leap"]
        assert len(section["points"]) == 2
        assert section["metrics"]["leap/counts"] > 0
        leap = [p for p in section["points"] if p["backend"] == "leap"][0]
        assert leap["leaps"] > 0


class TestFluidBench:
    def test_smoke_run_produces_both_backends(self):
        points = smoke("fluid")
        assert [p.backend for p in points] == ["leap", "fluid"]
        assert all(p.work > 0 and p.seconds >= 0 for p in points)
        fluid = points[1].detail
        # The fluid cell reports its ODE/handoff statistics; the
        # stochastic leap baseline has none.
        assert fluid["ode_steps"] > 0
        assert fluid["handoff_backend"] == "leap"
        assert "ode_steps" not in points[0].detail

    def test_fluid_speedup_requires_both_cells(self):
        # A wall-clock ratio: same horizon, the fluid claim is finishing
        # it sooner.
        section = TABLE["fluid"]
        pair = [point("leap", seconds=6.0), point("fluid", seconds=2.0)]
        assert metric(section, pair, "fluid/leap") == 3.0
        assert metric(section, pair[:1], "fluid/leap") is None
        assert metric(section, [], "fluid/leap") is None

    def test_render_marks_fluid_speedup(self):
        table = render(TABLE["fluid"], smoke("fluid"))
        assert "fluid fast-forward" in table
        assert "ode_steps" in table
        assert "x vs leap" in table

    def test_json_payload_includes_fluid_section(self, tmp_path):
        section = payload_of(tmp_path, fluid=smoke("fluid"))["fluid"]
        assert len(section["points"]) == 2
        assert section["metrics"]["fluid/leap"] > 0
        fluid = [p for p in section["points"] if p["backend"] == "fluid"][0]
        assert fluid["ode_steps"] > 0
        assert fluid["handoff_backend"] == "leap"


class TestSectionsSelector:
    def test_sections_selector_runs_only_selected(self, tmp_path, capsys):
        code, payload = run_main(tmp_path, "--smoke", "--sections", "leap")
        assert code == 0
        assert "leap" in payload
        for omitted in set(SECTIONS) - {"leap"}:
            assert omitted not in payload
        assert set(payload["section_seconds"]) == {"leap"}
        shown = capsys.readouterr().out
        assert "leap throughput" in shown
        assert "ensemble throughput" not in shown

    def test_all_sections_named(self):
        assert SECTIONS == (
            "backends", "ensemble", "leap", "bleap", "fluid", "parallel",
            "serve",
        )

    def test_unknown_section_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--sections", "nope"])
        assert exc.value.code == 2
        assert "unknown section" in capsys.readouterr().err

    def test_floor_for_deselected_section_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--sections", "leap", "--gate", "fluid.fluid/leap>=1"])
        assert exc.value.code == 2
        assert "deselected" in capsys.readouterr().err

    def test_fluid_floor_gate_passes_on_tiny_ratio(self, tmp_path, capsys):
        code, _ = run_main(
            tmp_path, "--smoke", "--sections", "fluid",
            "--gate", "fluid.fluid/leap>=0.0001",
        )
        assert code == 0
        assert "gate fluid.fluid/leap" in capsys.readouterr().out


class TestParallelBench:
    def test_smoke_run_produces_all_four_cells(self):
        points = smoke("parallel")
        assert {(p.workload, p.backend) for p in points} == {
            ("lockstep", "serial"),
            ("lockstep", "sharded"),
            ("frontier", "serial"),
            ("frontier", "sharded"),
        }
        assert all(p.work > 0 and p.seconds >= 0 for p in points)
        # Serial and sharded cells are seed-identical runs of the same
        # workload, so they must report identical work.
        for kind in ("lockstep", "frontier"):
            work = {p.work for p in points if p.workload == kind}
            assert len(work) == 1
        ratios = speedups(TABLE["parallel"], points)["sharded/serial"]
        assert len(ratios) == 2
        assert all(v > 0 for v in ratios.values())

    def test_sharded_lockstep_cell_reports_shm_transport(self):
        from repro.engine.parallel import shm_available

        points = smoke("parallel")
        cells = {
            p.backend: p.detail for p in points if p.workload == "lockstep"
        }
        if shm_available()[0]:
            assert cells["sharded"]["shards"] == cells["sharded"]["jobs"]
            assert cells["sharded"]["shm_bytes"] > 0
            assert cells["sharded"]["copy_bytes_saved"] > 0
        assert "shards" not in cells["serial"]

    def test_render_marks_speedup_and_transport(self):
        points = [
            point("serial", 100, 8, 800, 0.2, "lockstep", jobs=1),
            point("sharded", 100, 8, 800, 0.1, "lockstep", jobs=4,
                  shards=4, shm_bytes=4096, copy_bytes_saved=2048),
        ]
        table = render(TABLE["parallel"], points)
        assert "shared-memory sharding" in table
        assert "2.00x vs serial" in table
        assert "shards 4" in table
        assert "copy_bytes_saved 2,048" in table

    def test_json_payload_includes_parallel_section(self, tmp_path):
        section = payload_of(tmp_path, parallel=smoke("parallel"))["parallel"]
        assert len(section["points"]) == 4
        assert {p["unit"] for p in section["points"]} == {
            "interactions", "nodes"
        }
        for cell in section["points"]:
            assert cell["seconds"] >= 0
            assert cell["work"] > 0

    def test_json_payload_records_section_wall_clock(self, tmp_path):
        # Every section that ran reports its wall-clock cost and the
        # payload totals them.
        code, payload = run_main(
            tmp_path, "--smoke", "--sections", "parallel,leap"
        )
        assert code == 0
        assert set(payload["section_seconds"]) == {"parallel", "leap"}
        assert all(v > 0 for v in payload["section_seconds"].values())
        assert payload["total_seconds"] == pytest.approx(
            sum(payload["section_seconds"].values()), abs=1e-5
        )

    def test_floor_gate_skips_below_core_floor(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("os.cpu_count", lambda: PARALLEL_MIN_CORES - 1)
        code, _ = run_main(
            tmp_path, "--smoke", "--sections", "parallel",
            "--gate", "parallel.sharded/serial>=1000",
        )
        # An absurd floor cannot fail the run on a small host: the
        # gate is reported but skipped below the core floor.
        assert code == 0
        assert "skipped" in capsys.readouterr().out

    def test_floor_gate_enforced_at_or_above_core_floor(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("os.cpu_count", lambda: PARALLEL_MIN_CORES)
        code, _ = run_main(
            tmp_path, "--smoke", "--sections", "parallel",
            "--gate", "parallel.sharded/serial>=0.0001",
            "--gate", "parallel.sharded/serial>=1000",
        )
        assert code == 1
        shown = capsys.readouterr().out
        assert "gate parallel.sharded/serial >= 0.00" in shown
        assert "-> ok" in shown and "-> FAIL" in shown
        assert "skipped" not in shown


class TestServeBench:
    def test_smoke_run_produces_three_verified_passes(self):
        points = smoke("serve")
        assert [p.backend for p in points] == ["cold", "warm", "memo"]
        jobs = TABLE["serve"].smoke[0].replicates // bench.SERVE_SEEDS_PER_JOB
        assert all(p.work == jobs and p.unit == "jobs" for p in points)
        # The memo pass is served entirely from the result memo.
        assert points[2].detail["memo_hits"] == jobs
        ratios = speedups(TABLE["serve"], points)
        assert set(ratios) == {"warm/cold", "memo/cold"}

    def test_warm_cold_mismatch_aborts_the_run(self, tmp_path, monkeypatch):
        # Corrupt the cold baseline: the warm pass no longer matches it,
        # and the bench must refuse to report a speedup.
        real = bench.run_ensemble

        def skewed(*args, **kwargs):
            ensemble = real(*args, **kwargs)
            ensemble.results.pop()
            return ensemble

        monkeypatch.setattr(bench, "run_ensemble", skewed)
        with pytest.raises(RuntimeError, match="differential check failed"):
            run_main(tmp_path, "--smoke", "--sections", "serve")
        assert not (tmp_path / "bench.json").exists()

    @pytest.mark.parametrize(
        "threshold, code, verdict", [("0.0001", 0, "ok"), ("1e9", 1, "FAIL")]
    )
    def test_gate(self, tmp_path, capsys, threshold, code, verdict):
        got, payload = run_main(
            tmp_path, "--smoke", "--sections", "serve",
            "--gate", f"serve.warm/cold>={threshold}",
        )
        assert got == code
        assert f"-> {verdict}" in capsys.readouterr().out
        assert payload["serve"]["metrics"]["warm/cold"] > 0


class TestGateParsing:
    def test_parses_section_metric_threshold(self):
        assert parse_gate("leap.leap/counts>=10") == Gate(
            "leap", "leap/counts", 10.0
        )
        assert parse_gate("backends.counts>=1e6").threshold == 1e6

    @pytest.mark.parametrize(
        "gate, message",
        [
            ("backends.counts", "malformed gate"),
            ("backends.counts>=fast", "malformed gate"),
            ("backends.counts<=1", "malformed gate"),
            ("counts>=1", "malformed gate"),
            ("backends.nope>=1", "unknown metric"),
            ("nope.counts>=1", "unknown section"),
            ("fluid.fluid/leap>=1", "deselected"),
        ],
    )
    def test_bad_gate_is_a_usage_error(self, capsys, gate, message):
        with pytest.raises(SystemExit) as exc:
            main(["--sections", "backends", "--gate", gate])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", SECTIONS)
class TestTable:
    """Behaviours every row of the table shares."""

    def test_row_is_well_formed(self, name):
        section = TABLE[name]
        assert section.full and section.smoke
        # The headline workload (the first cell's) is the same in both
        # columns, so gates read the same kind of cell in either.
        assert section.full[0].workload == section.smoke[0].workload
        mentioned = {b for pair in section.pairs for b in pair.split("/")}
        for m in section.metrics:
            assert set(m.split("/")) <= mentioned

    def test_metrics_read_largest_n_then_widest_r(self, name):
        # Synthetic points over the full cells, scored N + R on the
        # headline workload and hugely elsewhere: only the largest-N,
        # widest-R headline cell yields the expected value.
        section = TABLE[name]
        headline = section.full[0].workload
        best = max(
            (c for c in section.full if c.workload == headline),
            key=lambda c: (c.n, c.replicates),
        )
        for m in section.metrics:
            candidate, *baseline = m.split("/")
            points = []
            for cell in section.full:
                k = cell.n + cell.replicates
                if cell.workload != headline:
                    k = 10**12
                at = (cell.n, cell.replicates, 100, 1.0, cell.workload)
                points += [point(b, *at) for b in baseline]
                points.append(point(candidate, cell.n, cell.replicates,
                                    100, 1.0 / k, cell.workload))
            k = best.n + best.replicates
            want = k if baseline else 100 * k
            assert metric(section, points, m) == pytest.approx(want)

    def test_zero_time_cell_passes_every_gate(self, name):
        section = TABLE[name]
        workload = section.full[0].workload
        for m in section.metrics:
            candidate, *baseline = m.split("/")
            points = [point(b, workload=workload) for b in baseline]
            points.append(point(candidate, workload=workload, seconds=0.0))
            assert metric(section, points, m) == float("inf")

    def test_smoke_cells_run_and_report(self, name, tmp_path):
        section = TABLE[name]
        points = smoke(name)
        assert all(p.work > 0 and p.seconds >= 0 for p in points)
        assert {(p.workload, p.n_mobile, p.replicates) for p in points} == {
            (c.workload, c.n, c.replicates) for c in section.smoke
        }
        assert set(speedups(section, points)) == set(section.pairs)
        payload = payload_of(tmp_path, **{name: points})
        assert set(payload[name]["metrics"]) == set(section.metrics)
        assert all(v > 0 for v in payload[name]["metrics"].values())

    def test_scale_multiplies_stated_budgets(self, name):
        section = TABLE[name]
        seen = []
        recording = replace(section, measure=lambda c, s: seen.append(c) or [])
        run_section(recording, smoke=True, scale=0.5)
        assert [(c.n, c.replicates) for c in seen] == [
            (c.n, c.replicates) for c in section.smoke
        ]
        assert [c.budget for c in seen] == [
            max(1, int(c.budget * 0.5)) if c.budget else 0
            for c in section.smoke
        ]
