"""Benchmark ``repro bench``: one cell table, one measure -> gate path.

Every simulation tier exists to make the paper's naming protocols
cheaper to run; this bench is where each tier shows its measured win.
It is a table of *sections* (:data:`TABLE`).  A section row names its
measurement function, its cells - workload, N, R and interaction budget
for the full run and for ``--smoke`` - the ``candidate/baseline`` pairs
it reports, and the headline metrics it exposes to gates:

* ``backends`` - reference vs fast vs counts per-run throughput on the
  paper's asymmetric naming protocol (Proposition 12) and on an
  always-active ``churn`` stress protocol.  Fast and reference consume
  the same scheduler stream, so their results must be *equal* or the
  run aborts (the counts backend draws its own randomness and is
  validated statistically in the test suite).  The reference backend is
  skipped above :data:`REFERENCE_MAX_N` agents.
* ``ensemble`` - the lockstep batch engine vs chunked per-run counts
  dispatch at R replicates (best of three).
* ``leap`` - the multinomial leap backend vs exact counts at N = 10^6.
* ``bleap`` - the batched tau-leaping ensemble engine vs chunked counts
  at N = 10^5, R = 256 (best of two).
* ``fluid`` - the mean-field fluid tier vs leap over the full ``10 N``
  horizon at N = 10^8, timed end to end from the uniform all-zero start
  (the leap cell pays its O(N) agent-vector round-trip; the fluid cell
  runs counts-native), compared by wall-clock.
* ``parallel`` - the shared-memory sharding layer: the bleap engine
  serial vs sharded over :data:`PARALLEL_JOBS` workers, and the
  symbolic checker's frontier expansion serial vs sharded.  Its gates
  report but skip on hosts with fewer than :data:`PARALLEL_MIN_CORES`
  cores, where the ratio measures oversubscription.
* ``serve`` - a burst of small naming-ensemble jobs: cold per-call
  ``run_ensemble`` vs a warm :class:`~repro.serve.pool.ServePool` vs
  memo replay.  Warm and memoized ensembles must be bit-identical to
  the cold ones or the run aborts.

Per-run workloads start from a *spread* configuration (states dealt
round-robin), so the null/non-null mix is stationary from the first
interaction and the numbers measure per-interaction engine overhead.

Every measurement is one :class:`Measurement`; one renderer prints each
section and one writer records them all in ``BENCH_simulator.json``,
with an ``environment`` block (NumPy version, CPU count, git revision)
and the wall-clock of each section that ran.  ``--gate
section.metric>=x`` (repeatable) fails the run (exit 1) when a metric
misses its threshold.  A metric named after a backend is its rate at
the section's headline cell - the largest N, then the widest R, of the
section's first workload; a ``candidate/baseline`` metric is their
ratio at that cell.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy

from repro.analysis.symbolic import CountsSystem, reach
from repro.core.asymmetric import AsymmetricNamingProtocol
from repro.engine.configuration import Configuration
from repro.engine.ensemble import run_ensemble
from repro.engine.fast import make_simulator
from repro.engine.fluid import FluidSimulator
from repro.engine.population import Population
from repro.engine.problems import NamingProblem
from repro.engine.protocol import PopulationProtocol
from repro.engine.state import State
from repro.errors import SimulationError
from repro.experiments.report import render_table
from repro.schedulers.random_pair import RandomPairScheduler
from repro.serve.pool import ServePool
from repro.serve.spec import JobSpec

#: Default scheduler seed (the paper's year, as elsewhere in the harness).
DEFAULT_SEED = 2018

#: Default output file, relative to the working directory.
DEFAULT_OUT = "BENCH_simulator.json"

#: Name bound of the naming workload.
NAMING_BOUND = 8

#: Largest population the O(N)-per-interaction reference backend is
#: timed at; beyond this it is skipped (the fast/counts cells remain).
REFERENCE_MAX_N = 2_000

#: Cores below which the parallel section's gates report and skip: a
#: sharded run cannot beat serial without cores to shard across.
PARALLEL_MIN_CORES = 4

#: Worker count of the sharded cells: the core count, clamped to [2, 8]
#: so the sharded path is exercised even on small machines.
PARALLEL_JOBS = max(2, min(os.cpu_count() or 1, 8))

#: Serving burst: pool width, seeds per job and the bounds jobs cycle
#: through.  Jobs are small, so per-call setup dominates - the regime
#: the serving layer exists for.
SERVE_WORKERS = 2
SERVE_SEEDS_PER_JOB = 6
SERVE_BOUNDS = (4, 6, 8)

#: :class:`~repro.engine.simulator.RunStats` fields a measurement
#: records when its backend populates them.
STAT_FIELDS = (
    "leaps", "mean_tau", "repairs", "ssa_fallback_rows", "ode_steps",
    "handoff_time", "handoff_backend", "shards", "shm_bytes",
    "copy_bytes_saved",
)


class ChurnProtocol(PopulationProtocol):
    """Always-active stress protocol: ``(p, q) -> (q + 1, p + 1) mod m``.

    With an odd modulus no interaction is ever null, so every step forces
    the reference simulator's O(N) configuration rebuild - the cost the
    fast backend's mutable state array eliminates.  Not a naming protocol;
    it exists purely to measure per-interaction engine overhead.
    """

    display_name = "churn stress"
    symmetric = False
    requires_leader = False

    def __init__(self, modulus: int = 9) -> None:
        if modulus < 3 or modulus % 2 == 0:
            raise ValueError(
                f"modulus must be odd and >= 3 to keep every interaction "
                f"non-null, got {modulus}"
            )
        self._modulus = modulus
        self._states = frozenset(range(modulus))

    def transition(self, p: State, q: State) -> tuple[State, State]:
        """Rotate both agents; never null for odd moduli."""
        m = self._modulus
        return (q + 1) % m, (p + 1) % m

    def mobile_state_space(self) -> frozenset[State]:
        """States ``{0, ..., modulus - 1}``."""
        return self._states


@dataclass(frozen=True)
class Cell:
    """One row of a section's cell table.

    ``replicates`` is the ensemble width (1 for per-run cells; for the
    serving burst, the seeds summed over its jobs), ``budget`` the
    interaction budget per run, ``bound`` the naming protocol's name
    bound.
    """

    workload: str
    n: int
    replicates: int = 1
    budget: int = 0
    bound: int = NAMING_BOUND


def _safe_rate(work: float, seconds: float) -> float:
    """``work / seconds`` with the zero-time edge cases pinned down.

    ``seconds == 0`` happens when a run finishes inside one timer tick.
    Returning ``0.0`` would make an *infinitely fast* run read as
    infinitely slow and spuriously trip a gate, so the sentinel is
    ``inf`` when work was done in zero measured time, and ``0.0`` only
    when no work was done at all.
    """
    if seconds > 0:
        return work / seconds
    return float("inf") if work > 0 else 0.0


@dataclass(frozen=True)
class Measurement:
    """One timed (workload, backend, N, R) cell of any section.

    ``work`` counts ``unit`` (interactions, checker nodes or served
    jobs); ``detail`` carries the backend's own statistics (leap
    windows, ODE steps, shared-memory transport, pool counters).
    """

    workload: str
    backend: str
    n_mobile: int
    replicates: int
    budget: int
    work: int
    seconds: float
    unit: str = "interactions"
    detail: dict = field(default_factory=dict)

    @property
    def rate(self) -> float:
        """Work units per second (zero-time sentinel: :func:`_safe_rate`)."""
        return _safe_rate(self.work, self.seconds)

    @property
    def runs_per_second(self) -> float:
        """Replicate runs per second (zero-time sentinel as for rate)."""
        return _safe_rate(self.replicates, self.seconds)


def _timed(run: Callable[[], object], repeats: int = 1) -> tuple:
    """``(result, best wall-clock of repeats)`` of calling ``run()``.

    Repeats are seed-identical, so the fastest one is the same
    computation with the least machine noise - what ratio gates need.
    """
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return result, best


def _measured(
    cell: Cell, backend: str, results: list, seconds: float, stats=None,
    **detail,
) -> Measurement:
    """A :class:`Measurement` over one cell's simulation results."""
    detail["non_null_interactions"] = sum(
        r.non_null_interactions for r in results
    )
    for name in STAT_FIELDS:
        value = getattr(stats, name, None)
        if value is not None:
            detail[name] = value
    return Measurement(
        cell.workload, backend, cell.n, cell.replicates, cell.budget,
        work=sum(r.interactions for r in results), seconds=seconds,
        detail=detail,
    )


def _protocol(cell: Cell) -> PopulationProtocol:
    if cell.workload == "churn":
        return ChurnProtocol()
    return AsymmetricNamingProtocol(cell.bound)


def _spread_initial(
    protocol: PopulationProtocol, population: Population
) -> Configuration:
    """Deal the protocol's mobile states round-robin over the agents."""
    space = sorted(protocol.mobile_state_space())
    states = tuple(space[i % len(space)] for i in range(population.size))
    return Configuration(states, None)


def _bench_scheduler(population: Population, seed: int):
    """Module-level (picklable) scheduler factory."""
    return RandomPairScheduler(population, seed=seed)


class _SpreadInitialFactory:
    """Seed-independent spread initial, built once per population size.

    Building it per replicate would charge O(R * N) pure-Python tuple
    construction to every engine and drown the quantity under
    measurement.
    """

    def __init__(self, protocol: PopulationProtocol) -> None:
        self.protocol = protocol
        self._cache: dict[int, Configuration] = {}

    def __call__(self, population: Population, seed: int) -> Configuration:
        config = self._cache.get(population.size)
        if config is None:
            config = _spread_initial(self.protocol, population)
            self._cache[population.size] = config
        return config


def _uniform_initial(population: Population, seed: int) -> Configuration:
    """Module-level (picklable) all-zero initial factory."""
    return Configuration.uniform(population, 0)


def measure_runs(
    cell: Cell, seed: int, backends: tuple[str, ...]
) -> list[Measurement]:
    """Single runs of ``backends`` on one shared spread start.

    Fast and reference consume the same scheduler stream, so when both
    ran their results must be equal - a run-time differential check
    that aborts the bench with :class:`~repro.errors.SimulationError`.
    """
    protocol = _protocol(cell)
    population = Population(cell.n)
    initial = _spread_initial(protocol, population)
    points, outcomes = [], {}
    for backend in backends:
        if backend == "reference" and cell.n > REFERENCE_MAX_N:
            continue  # O(N) per interaction: prohibitive here
        simulator = make_simulator(
            backend, protocol, population,
            RandomPairScheduler(population, seed=seed), NamingProblem(),
        )
        result, seconds = _timed(
            lambda: simulator.run(initial, max_interactions=cell.budget)
        )
        outcomes[backend] = result
        points.append(
            _measured(cell, backend, [result], seconds, result.stats)
        )
    if "reference" in outcomes and outcomes["fast"] != outcomes["reference"]:
        raise SimulationError(
            f"backend divergence on workload {cell.workload!r} at "
            f"N={cell.n}, seed={seed}: fast and reference results differ"
        )
    return points


def measure_ensembles(
    cell: Cell,
    seed: int,
    runs: tuple[tuple[str, str, int], ...],
    repeats: int = 1,
) -> list[Measurement]:
    """``run_ensemble`` per ``(label, backend, n_jobs)``, baseline first.

    Every run uses the same seeds, spread initial and per-replicate
    budget, so the ratios isolate the engines (or the transport).
    """
    protocol = _protocol(cell)
    population = Population(cell.n)
    initial = _SpreadInitialFactory(protocol)
    seeds = range(seed, seed + cell.replicates)
    points = []
    for label, backend, n_jobs in runs:
        ensemble, seconds = _timed(
            lambda: run_ensemble(
                protocol, population, _bench_scheduler, initial,
                NamingProblem(), seeds=seeds,
                max_interactions=cell.budget, backend=backend,
                n_jobs=n_jobs,
            ),
            repeats,
        )
        points.append(
            _measured(
                cell, label, ensemble.results, seconds, ensemble.stats,
                jobs=n_jobs,
            )
        )
    return points


def measure_fluid(cell: Cell, seed: int) -> list[Measurement]:
    """Leap vs fluid over one horizon from the all-zero start, end to end.

    The uniform start is the protocol's genuine transient, so the ODE
    has a cascade to fast-forward.  The leap cell's timing includes
    building its O(N) agent vector; the fluid cell runs counts-native.
    """
    protocol = _protocol(cell)
    population = Population(cell.n)
    zero = min(protocol.mobile_state_space())
    leap = make_simulator(
        "leap", protocol, population,
        RandomPairScheduler(population, seed=seed), NamingProblem(),
    )
    fluid = FluidSimulator(
        protocol, population, RandomPairScheduler(population, seed=seed),
        problem=NamingProblem(),
    )
    result, leap_seconds = _timed(
        lambda: leap.run(
            Configuration((zero,) * cell.n, None),
            max_interactions=cell.budget,
        )
    )
    points = [_measured(cell, "leap", [result], leap_seconds, result.stats)]
    result, seconds = _timed(
        lambda: fluid.run_counts({zero: cell.n}, max_interactions=cell.budget)
    )
    points.append(_measured(cell, "fluid", [result], seconds, result.stats))
    return points


def measure_parallel(cell: Cell, seed: int) -> list[Measurement]:
    """Serial vs sharded: a bleap ensemble, or the checker's frontier."""
    if cell.workload == "lockstep":
        return measure_ensembles(
            cell, seed,
            (("serial", "bleap", 1), ("sharded", "bleap", PARALLEL_JOBS)),
        )
    points = []
    for mode, n_jobs in (("serial", 1), ("sharded", PARALLEL_JOBS)):
        system = CountsSystem(AsymmetricNamingProtocol(cell.bound))
        roots = system.root_matrix(cell.n, "auto", None, None)
        reached, seconds = _timed(
            lambda: reach(system, roots, n_jobs=n_jobs)
        )
        points.append(
            Measurement(
                cell.workload, mode, cell.n, 1, 0, reached.n_nodes,
                seconds, unit="nodes",
                detail={"bound": cell.bound, "jobs": n_jobs},
            )
        )
    return points


def _serve_jobs(cell: Cell, seed: int) -> list[JobSpec]:
    """The burst: jobs cycling through :data:`SERVE_BOUNDS`.

    Jobs carry *distinct* seed sets, so the warm pass cannot shortcut
    through the result memo - it measures the pool, the artifact cache
    and hash shipping, nothing else.
    """
    return [
        JobSpec(
            protocol=AsymmetricNamingProtocol(
                SERVE_BOUNDS[j % len(SERVE_BOUNDS)]
            ),
            population=Population(cell.n),
            scheduler_factory=_bench_scheduler,
            initial_factory=_uniform_initial,
            problem=NamingProblem(),
            seeds=tuple(
                seed + 1_000 * j + r for r in range(SERVE_SEEDS_PER_JOB)
            ),
            max_interactions=cell.budget,
            backend="batch",
        )
        for j in range(cell.replicates // SERVE_SEEDS_PER_JOB)
    ]


def measure_serve(cell: Cell, seed: int) -> list[Measurement]:
    """Cold per-call ``run_ensemble`` vs a warm pool vs memo replay.

    Cold pays a fresh executor (at the pool's width) and per-task
    protocol pickling per job; warm submits the whole burst to a warmed
    :class:`~repro.serve.pool.ServePool`; memo resubmits it.  Aborts
    (``RuntimeError``) unless every warm and memoized ensemble is
    bit-identical to its cold counterpart.
    """
    jobs = _serve_jobs(cell, seed)

    def cold() -> list:
        return [
            run_ensemble(
                spec.protocol, spec.population, spec.scheduler_factory,
                spec.initial_factory, spec.problem, list(spec.seeds),
                max_interactions=spec.max_interactions,
                backend=spec.backend, n_jobs=SERVE_WORKERS,
            )
            for spec in jobs
        ]

    def burst() -> list:
        handles = [pool.submit(spec) for spec in jobs]  # all up front
        return [handle.result() for handle in handles]

    cold_results, cold_seconds = _timed(cold)
    with ServePool(max_workers=SERVE_WORKERS) as pool:
        pool.warm()
        warm_results, warm_seconds = _timed(burst)
        warm_hits = pool.memo_hits
        memo_results, memo_seconds = _timed(burst)
        stats = pool.stats()
    if warm_hits:
        raise RuntimeError(
            "serve bench warm pass hit the result memo; jobs must carry "
            "distinct seed sets"
        )
    for name, results in (("warm", warm_results), ("memo", memo_results)):
        for j, (got, want) in enumerate(zip(results, cold_results)):
            if got.results != want.results or got.seeds != want.seeds:
                raise RuntimeError(
                    f"serve bench differential check failed: {name} job "
                    f"{j} differs from the cold run_ensemble baseline"
                )
    return [
        Measurement(
            cell.workload, name, cell.n, cell.replicates, cell.budget,
            len(jobs), seconds, unit="jobs",
            detail={"workers": SERVE_WORKERS, **extra},
        )
        for name, seconds, extra in (
            ("cold", cold_seconds, {}),
            ("warm", warm_seconds, {}),
            ("memo", memo_seconds, stats),
        )
    ]


@dataclass(frozen=True)
class Section:
    """One row of the bench table.

    ``pairs`` are the ``candidate/baseline`` ratios reported per cell
    (wall-clock ratios when ``by_time``, rate ratios otherwise);
    ``metrics`` the names ``--gate`` may read; gates on a section with
    ``min_cores`` report but skip on hosts with fewer cores.
    """

    name: str
    title: str
    measure: Callable[[Cell, int], list[Measurement]]
    full: tuple[Cell, ...]
    smoke: tuple[Cell, ...]
    pairs: tuple[str, ...]
    metrics: tuple[str, ...]
    by_time: bool = False
    min_cores: int = 0


def _grid(workloads, sizes, widths=(1,)) -> tuple[Cell, ...]:
    """Cells over ``workloads x ((N, budget), ...) x widths``."""
    return tuple(
        Cell(w, n, r, budget)
        for w in workloads for n, budget in sizes for r in widths
    )


#: The bench, one row per section, in run order.
TABLE = {s.name: s for s in (
    Section(
        "backends",
        "simulator backend throughput (uniform random scheduler)",
        partial(measure_runs, backends=("counts", "fast", "reference")),
        full=_grid(
            ("naming", "churn"),
            ((10, 200_000), (100, 50_000), (1_000, 50_000),
             (100_000, 1_000_000)),
        ),
        smoke=_grid(("naming", "churn"), ((12, 4_000), (25, 2_000))),
        pairs=("fast/reference", "counts/fast"),
        metrics=("counts", "fast", "counts/fast", "fast/reference"),
    ),
    Section(
        "ensemble",
        "ensemble throughput (naming workload, n_jobs=1)",
        partial(
            measure_ensembles,
            runs=(("counts", "counts", 1), ("batch", "batch", 1)),
            repeats=3,
        ),
        full=_grid(
            ("naming",), ((1_000, 20_000), (100_000, 20_000)), (64, 256)
        ),
        smoke=_grid(("naming",), ((12, 1_000),), (4, 8)),
        pairs=("batch/counts",),
        metrics=("batch", "batch/counts"),
    ),
    Section(
        "leap",
        "leap throughput (naming workload, counts vs leap)",
        partial(measure_runs, backends=("counts", "leap")),
        full=(Cell("naming", 1_000_000, budget=10_000_000),),
        smoke=(Cell("naming", 50_000, budget=200_000),),
        pairs=("leap/counts",),
        metrics=("leap", "leap/counts"),
    ),
    Section(
        "bleap",
        "bleap throughput (naming ensembles, counts vs bleap)",
        partial(
            measure_ensembles,
            runs=(("counts", "counts", 1), ("bleap", "bleap", 1)),
            repeats=2,
        ),
        full=(Cell("naming", 100_000, 256, 200_000),),
        smoke=(Cell("naming", 20_000, 8, 4_000),),
        pairs=("bleap/counts",),
        metrics=("bleap", "bleap/counts"),
    ),
    Section(
        "fluid",
        "fluid fast-forward (naming workload, leap vs fluid, end to end)",
        measure_fluid,
        full=(Cell("naming", 100_000_000, budget=1_000_000_000),),
        smoke=(Cell("naming", 20_000, budget=100_000),),
        pairs=("fluid/leap",),
        metrics=("fluid/leap",),
        by_time=True,
    ),
    Section(
        "parallel",
        "parallel execution (shared-memory sharding vs serial)",
        measure_parallel,
        full=(
            Cell("lockstep", 100_000, 1_024, 200_000),
            Cell("frontier", 12, bound=10),
        ),
        smoke=(
            Cell("lockstep", 50_000, 64, 50_000),
            Cell("frontier", 9, bound=6),
        ),
        pairs=("sharded/serial",),
        metrics=("sharded/serial",),
        min_cores=PARALLEL_MIN_CORES,
    ),
    Section(
        "serve",
        "serving layer (naming-job burst: cold calls vs warm pool vs memo)",
        measure_serve,
        full=(Cell("burst", 100, 16 * SERVE_SEEDS_PER_JOB, 2_500),),
        smoke=(Cell("burst", 100, 3 * SERVE_SEEDS_PER_JOB, 2_000),),
        pairs=("warm/cold", "memo/cold"),
        metrics=("warm/cold", "memo/cold"),
        by_time=True,
    ),
)}

#: The section names, in run order.
SECTIONS = tuple(TABLE)


def run_section(
    section: Section,
    smoke: bool = False,
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
) -> list[Measurement]:
    """Measure every cell of ``section``; ``scale`` multiplies budgets."""
    points: list[Measurement] = []
    for cell in section.smoke if smoke else section.full:
        if cell.budget:
            cell = replace(cell, budget=max(1, int(cell.budget * scale)))
        points.extend(section.measure(cell, seed))
    return points


def _cells(points: list[Measurement]) -> dict[tuple, dict[str, Measurement]]:
    """``{(workload, N, R): {backend: measurement}}``."""
    out: dict[tuple, dict[str, Measurement]] = {}
    for p in points:
        out.setdefault((p.workload, p.n_mobile, p.replicates), {})[
            p.backend
        ] = p
    return out


def _ratio(section: Section, pair: str, by_backend: dict) -> float | None:
    """``candidate/baseline`` at one cell, or ``None`` unless both sides
    did work (zero-time sentinel as for :func:`_safe_rate`)."""
    candidate, baseline = (by_backend.get(b) for b in pair.split("/"))
    if not (candidate and baseline and candidate.work and baseline.work):
        return None
    if section.by_time:
        return _safe_rate(baseline.seconds, candidate.seconds)
    return _safe_rate(candidate.rate, baseline.rate)


def speedups(
    section: Section, points: list[Measurement]
) -> dict[str, dict[str, float]]:
    """``{pair: {"workload N=n R=r": ratio}}`` over every complete cell."""
    out: dict[str, dict[str, float]] = {}
    for (workload, n, r), by_backend in _cells(points).items():
        for pair in section.pairs:
            ratio = _ratio(section, pair, by_backend)
            if ratio is not None:
                out.setdefault(pair, {})[f"{workload} N={n} R={r}"] = ratio
    return out


def metric(
    section: Section, points: list[Measurement], name: str
) -> float | None:
    """The gateable number ``name`` at the section's headline cell.

    The headline cell is the largest N, then the widest R, among the
    cells of the section's first workload that measured every backend
    ``name`` mentions.  A backend name reads its rate there, a pair its
    ratio.  ``None`` when no such cell was measured.
    """
    headline = section.full[0].workload
    backends = name.split("/")
    cells = [
        (key, by_backend)
        for key, by_backend in _cells(points).items()
        if key[0] == headline and all(b in by_backend for b in backends)
    ]
    if not cells:
        return None
    _, by_backend = max(cells, key=lambda item: item[0][1:])
    if len(backends) == 1:
        return by_backend[name].rate
    return _ratio(section, name, by_backend)


def _shown(value: object) -> str:
    if isinstance(value, float):
        return f"{value:,.1f}"
    return f"{value:,}" if isinstance(value, int) else str(value)


def render(section: Section, points: list[Measurement]) -> str:
    """Render one section's measurements as an aligned text table."""
    ratios = speedups(section, points)
    rows = []
    for p in points:
        label = f"{p.workload} N={p.n_mobile} R={p.replicates}"
        shown = "; ".join(
            f"{ratios[pair][label]:.2f}x vs {pair.split('/')[1]}"
            for pair in section.pairs
            if pair.startswith(p.backend + "/")
            and label in ratios.get(pair, {})
        )
        detail = ", ".join(
            f"{k} {_shown(v)}" for k, v in p.detail.items()
            if k != "non_null_interactions"
        )
        rows.append((
            p.workload, p.n_mobile, p.replicates, p.backend,
            f"{p.work:,} {p.unit}", f"{p.seconds * 1000:.0f} ms",
            f"{p.rate:,.0f}/s", detail, shown,
        ))
    return render_table(
        ("workload", "N", "R", "backend", "work", "time", "rate",
         "detail", "speedup"),
        rows,
        title=section.title,
    )


def environment() -> dict[str, object]:
    """Provenance of a bench run: did the code change, or the machine?

    ``git_revision`` is ``None`` outside a git checkout.
    """
    try:
        revision: str | None = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        revision = None
    return {
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "git_revision": revision,
    }


def write_json(
    path: str,
    results: dict[str, list[Measurement]],
    section_seconds: dict[str, float],
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
    smoke: bool = False,
) -> None:
    """Write every section that ran, with provenance, as a JSON report."""
    payload: dict[str, object] = {
        "benchmark": "simulator",
        "scheduler": "uniform random pairs",
        "seed": seed,
        "scale": scale,
        "smoke": smoke,
        "environment": environment(),
        "section_seconds": {
            name: round(value, 6) for name, value in section_seconds.items()
        },
        "total_seconds": round(sum(section_seconds.values()), 6),
    }
    for name, points in results.items():
        section = TABLE[name]
        payload[name] = {
            "title": section.title,
            "points": [
                {
                    "workload": p.workload,
                    "backend": p.backend,
                    "n_mobile": p.n_mobile,
                    "replicates": p.replicates,
                    "budget": p.budget,
                    "work": p.work,
                    "unit": p.unit,
                    "seconds": round(p.seconds, 6),
                    "rate": round(p.rate, 1),
                    "runs_per_sec": round(p.runs_per_second, 2),
                    **p.detail,
                }
                for p in points
            ],
            "speedup": speedups(section, points),
            "metrics": {m: metric(section, points, m) for m in section.metrics},
        }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


@dataclass(frozen=True)
class Gate:
    """``section.metric >= threshold``, as given to ``--gate``."""

    section: str
    metric: str
    threshold: float


def parse_gate(text: str) -> Gate:
    """Parse ``section.metric>=x``; argparse turns errors into usage."""
    match = re.fullmatch(r"\s*(\w+)\.([\w/]+)\s*>=\s*(\S+)\s*", text)
    try:
        return Gate(match[1], match[2], float(match[3]))  # type: ignore
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(
            f"malformed gate {text!r} (expected SECTION.METRIC>=NUMBER)"
        ) from None


def check_gate(gate: Gate, points: list[Measurement]) -> bool:
    """Print one gate's verdict; ``False`` means the run fails."""
    section = TABLE[gate.section]
    value = metric(section, points, gate.metric)
    label = f"gate {gate.section}.{gate.metric} >= {gate.threshold:,.2f}"
    if value is None:
        print(f"{label}: no cell measured -> FAIL")
        return False
    cores = os.cpu_count() or 1
    if cores < section.min_cores:
        print(
            f"{label}: {value:,.2f} on {cores} core(s) -> skipped "
            f"(gates only on >= {section.min_cores} cores)"
        )
        return True
    verdict = "ok" if value >= gate.threshold else "FAIL"
    print(f"{label}: {value:,.2f} -> {verdict}")
    return value >= gate.threshold


def main(argv: list[str] | None = None) -> int:
    """Run the bench from the command line."""
    parser = argparse.ArgumentParser(
        description="Simulation-tier benchmark: one cell table, one gate."
    )
    parser.add_argument(
        "--sections",
        default=",".join(SECTIONS),
        metavar="NAMES",
        help=f"comma-separated subset of {', '.join(SECTIONS)} (default: all)",
    )
    parser.add_argument(
        "--gate",
        action="append",
        default=[],
        type=parse_gate,
        metavar="SECTION.METRIC>=X",
        help=(
            "fail (exit 1) unless the metric reaches X; repeatable.  "
            "Metrics: "
            + "; ".join(f"{s.name}: {', '.join(s.metrics)}" for s in
                        TABLE.values())
        ),
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run each section's smoke cells instead of its full cells",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every cell's interaction budget by this factor",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", default=DEFAULT_OUT, metavar="PATH")
    args = parser.parse_args(argv)
    names = {n.strip() for n in args.sections.split(",") if n.strip()}
    unknown = sorted(names - set(SECTIONS))
    if unknown:
        parser.error(
            f"unknown section(s) {', '.join(unknown)} "
            f"(choices: {', '.join(SECTIONS)})"
        )
    for gate in args.gate:
        if gate.section not in TABLE:
            parser.error(f"--gate names unknown section {gate.section!r}")
        if gate.metric not in TABLE[gate.section].metrics:
            parser.error(
                f"--gate names unknown metric {gate.metric!r} of section "
                f"{gate.section!r} (choices: "
                f"{', '.join(TABLE[gate.section].metrics)})"
            )
        if gate.section not in names:
            parser.error(
                f"--gate reads the {gate.section!r} section, but "
                f"--sections deselected it"
            )
    results: dict[str, list[Measurement]] = {}
    section_seconds: dict[str, float] = {}
    for section in TABLE.values():
        if section.name in names:
            results[section.name], section_seconds[section.name] = _timed(
                partial(run_section, section, args.smoke, args.scale,
                        args.seed)
            )
            print(render(section, results[section.name]), end="\n\n")
    write_json(args.out, results, section_seconds, seed=args.seed,
               scale=args.scale, smoke=args.smoke)
    print(f"JSON written to {args.out}")
    verdicts = [check_gate(g, results[g.section]) for g in args.gate]
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    raise SystemExit(main())
