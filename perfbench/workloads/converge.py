"""``converge``: the exp-s1 convergence study.

One caller runs ``run_ensemble(backend="auto")`` to certified
convergence, R = 64 replicates per cell, from the uniform start.  The
two leaderless cells run on the lockstep batch kernel; the two leader
cells' state spaces (2,570 and 10,449 leader states) exceed the
compile limit, so ``auto`` falls from batch through counts and fast to
the reference simulator.  Protocol 3 stays at N < P: at N = P = 5 it
needs far more interactions than a run can afford.
"""

from __future__ import annotations

import random

from perfbench.checks import check_converged_names
from perfbench.workloads.base import Request, Workload
from perfbench.workloads.factories import scheduler_factory, uniform_start

REPLICATES = 64
#: (protocol class, bound P, population N) per cell.
CELLS = (
    ("AsymmetricNamingProtocol", 150, 150),
    ("SymmetricGlobalNamingProtocol", 32, 24),
    ("SelfStabilizingNamingProtocol", 8, 8),
    ("GlobalNamingProtocol", 8, 7),
)
BUDGET = 50_000_000


class Converge(Workload):
    name = "converge"
    why = (
        "exp-s1 convergence study: leaderless cells on the batch kernel, "
        "leader cells fall back to the reference simulator"
    )

    def setup(self) -> None:
        import repro
        from repro.engine import ensemble
        from repro.engine.fast import compile_table

        self._ensemble = ensemble
        self.cells = []
        for cls_name, bound, n in CELLS:
            protocol = getattr(repro, cls_name)(bound)
            population = repro.Population(n, protocol.requires_leader)
            compile_table(protocol)
            self.cells.append(
                (protocol, population, uniform_start(protocol),
                 repro.NamingProblem())
            )

    def make_inputs(self, seed: int, seconds: float) -> None:
        rng = random.Random(f"converge:{seed}")
        self.seed_bases = [rng.randrange(1 << 40) for _ in self.cells]

    def pass_requests(self, k: int):
        for (protocol, population, start, problem), base in zip(
            self.cells, self.seed_bases
        ):
            seeds = range(base + k * REPLICATES, base + (k + 1) * REPLICATES)
            yield Request(
                name=protocol.display_name,
                call=lambda p=protocol, pop=population, s=start, pr=problem,
                seeds=seeds: self._ensemble.run_ensemble(
                    p, pop, scheduler_factory, s, pr, seeds,
                    max_interactions=BUDGET, backend="auto",
                ),
                check=lambda ens: check_converged_names(ens, REPLICATES),
            )
