"""``scale``: one caller runs ``run_ensemble(backend="auto")`` to a
fixed 10N horizon with no convergence check.

Asymmetric naming at P = 64 on N = 1e5 runs on bleap two ways: from
arbitrary starts every row leaps in one window, while from the uniform
start every row ends on the exact-SSA fallback.  Uniform initialization
is one of the paper's four model parameters, so both belong here.  The
N = 1e7 cell runs on fluid, then hands off to leap, and loads the O(N)
interning and materialization phases.

The arbitrary starts are drawn once per run and reused cyclically by a
picklable factory: drawing one 1e7-agent start costs more than the run
it feeds, and it is the benchmark's work, not the program's.
"""

from __future__ import annotations

import random

from perfbench.checks import check_horizon
from perfbench.workloads.base import Request, Workload
from perfbench.workloads.factories import (
    PresetStarts,
    UniformStart,
    scheduler_factory,
)

BOUND = 64
#: (population N, replicates R, start) per cell.
CELLS = (
    (100_000, 256, "arbitrary"),
    (100_000, 32, "uniform"),
    (10_000_000, 2, "uniform"),
)
#: Arbitrary starts drawn per arbitrary cell.
STARTS = 4
HORIZON_PER_AGENT = 10


class Scale(Workload):
    name = "scale"
    why = (
        "large N to a 10N horizon: bleap from arbitrary and uniform starts "
        "at N=1e5, fluid then leap at N=1e7"
    )

    def setup(self) -> None:
        import repro
        from repro.engine import ensemble
        from repro.engine.fast import compile_table

        self._ensemble = ensemble
        self.protocol = repro.AsymmetricNamingProtocol(BOUND)
        compile_table(self.protocol)
        self.space = frozenset(self.protocol.mobile_state_space())
        self.populations = [repro.Population(n) for n, _, _ in CELLS]

    def make_inputs(self, seed: int, seconds: float) -> None:
        import numpy as np

        rng = random.Random(f"scale:{seed}")
        states = sorted(self.space)
        draw = np.random.default_rng(rng.randrange(1 << 63))
        self.factories = []
        for n, _, start in CELLS:
            if start == "uniform":
                self.factories.append(UniformStart(states[0]))
                continue
            picks = draw.integers(0, len(states), size=(STARTS, n))
            self.factories.append(PresetStarts(tuple(
                tuple(states[i] for i in row.tolist()) for row in picks
            )))
        self.seed_bases = [rng.randrange(1 << 40) for _ in CELLS]

    def pass_requests(self, k: int):
        for (n, r, start), population, factory, base in zip(
            CELLS, self.populations, self.factories, self.seed_bases
        ):
            seeds = range(base + k * r, base + (k + 1) * r)
            horizon = HORIZON_PER_AGENT * n
            yield Request(
                name=f"N={n:.0e} R={r} {start}",
                call=lambda pop=population, f=factory, seeds=seeds,
                horizon=horizon: self._ensemble.run_ensemble(
                    self.protocol, pop, scheduler_factory, f, None, seeds,
                    max_interactions=horizon, backend="auto",
                ),
                check=lambda ens, r=r, n=n, horizon=horizon: check_horizon(
                    ens, r, n, horizon, self.space
                ),
            )
