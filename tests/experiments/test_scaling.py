"""Tests for the exact-verification scaling experiment."""

import pytest

from repro.experiments.scaling import (
    COUNTS_MAX_N,
    FAST_MAX_N,
    FLUID_MIN_N,
    LEAP_MAX_N,
    SIMULATION_SIZES,
    ScalePoint,
    SimulationScalePoint,
    render_points,
    render_simulation_points,
    run_scaling,
    run_simulation_scaling,
)


@pytest.fixture(scope="module")
def points():
    return run_scaling(max_quotient_n=5)


class TestScaling:
    def test_all_instances_verify(self, points):
        assert points and all(p.solves for p in points)

    def test_quotient_explores_fewer_nodes(self, points):
        by_key = {}
        for p in points:
            by_key.setdefault((p.protocol, p.n_mobile), {})[p.technique] = p
        compared = 0
        for techniques in by_key.values():
            labelled = techniques.get("global (labelled)")
            symbolic = techniques.get("global (symbolic)")
            if labelled and symbolic:
                assert symbolic.nodes <= labelled.nodes
                compared += 1
        assert compared >= 3

    def test_covers_the_simulation_unreachable_instance(self, points):
        protocol3_n5 = [
            p
            for p in points
            if p.protocol == "Protocol 3" and p.n_mobile == 5
        ]
        assert protocol3_n5 and protocol3_n5[0].solves

    def test_nodes_grow_with_population(self, points):
        prop13 = sorted(
            (
                p
                for p in points
                if p.protocol == "Prop. 13"
                and p.technique == "global (symbolic)"
            ),
            key=lambda p: p.n_mobile,
        )
        sizes = [p.nodes for p in prop13]
        assert sizes == sorted(sizes)

    def test_render(self, points):
        text = render_points(points)
        assert "technique" in text
        assert "symbolic" in text
        assert "FAILS" not in text


class TestParallelScaling:
    def test_parallel_jobs_match_serial_verdicts(self):
        serial = run_scaling(max_quotient_n=3)
        parallel = run_scaling(max_quotient_n=3, n_jobs=2)
        strip = lambda pts: [
            (p.protocol, p.n_mobile, p.technique, p.nodes, p.solves)
            for p in pts
        ]
        assert strip(parallel) == strip(serial)


class TestSimulationScaling:
    def test_small_sweep_measures_all_backends(self):
        points = run_simulation_scaling(max_n=10**4, seed=7)
        cells = {(p.backend, p.n_mobile) for p in points}
        assert cells == {
            ("fast", 10**3),
            ("counts", 10**3),
            ("leap", 10**3),
            ("fast", 10**4),
            ("counts", 10**4),
            ("leap", 10**4),
        }
        assert all(p.interactions > 0 for p in points)
        assert all(p.rate > 0 for p in points)

    def test_backend_ladder_caps(self):
        # FAST_MAX_N and COUNTS_MAX_N bound the exact backends,
        # LEAP_MAX_N bounds the agent-vector windowed backend; only the
        # counts-native fluid backend reaches the top sizes, which is
        # the point of the extended sweep.
        assert FAST_MAX_N < 10**6
        assert COUNTS_MAX_N < LEAP_MAX_N
        assert LEAP_MAX_N < max(SIMULATION_SIZES)
        assert FLUID_MIN_N <= LEAP_MAX_N
        assert max(SIMULATION_SIZES) == 10**10

    def test_fluid_cells_start_at_fluid_min_n(self):
        specs = {
            (p.backend, p.n_mobile)
            for p in run_simulation_scaling(
                max_n=FLUID_MIN_N, seed=7, backends=("fluid",)
            )
        }
        assert specs == {("fluid", FLUID_MIN_N)}

    def test_backend_filter_restricts_cells(self):
        points = run_simulation_scaling(
            max_n=10**4, seed=7, backends=("counts",)
        )
        assert {p.backend for p in points} == {"counts"}
        assert len(points) == 2

    def test_empty_sweep_below_smallest_size(self):
        assert run_simulation_scaling(max_n=10**2, seed=7) == []

    def test_render_simulation_table(self):
        points = run_simulation_scaling(max_n=10**3, seed=7)
        text = render_simulation_points(points)
        assert "backend" in text
        assert "counts" in text
        assert "fast" in text


class TestRenderEdgeCases:
    def test_simulation_rate_zero_duration(self):
        # A cell too fast for the clock must report rate 0.0, not raise
        # ZeroDivisionError (the JSON/table sentinel for "unmeasurable").
        point = SimulationScalePoint(
            backend="fluid",
            n_mobile=10**9,
            interactions=10**10,
            non_null_interactions=10**9,
            seconds=0.0,
        )
        assert point.rate == 0.0

    def test_render_simulation_points_empty(self):
        text = render_simulation_points([])
        assert "simulation scaling" in text

    def test_render_simulation_points_zero_duration_row(self):
        point = SimulationScalePoint(
            backend="leap",
            n_mobile=10**6,
            interactions=0,
            non_null_interactions=0,
            seconds=0.0,
        )
        text = render_simulation_points([point])
        assert "0 ms" in text
        assert "0/s" in text

    def test_render_points_empty(self):
        text = render_points([])
        assert "exact-verification scaling" in text

    def test_render_points_failure_verdict(self):
        point = ScalePoint(
            protocol="Prop. 13",
            n_mobile=3,
            bound=3,
            technique="global (symbolic)",
            nodes=17,
            seconds=0.0,
            solves=False,
        )
        text = render_points([point])
        assert "FAILS" in text
