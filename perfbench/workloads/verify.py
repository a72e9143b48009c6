"""``verify``: one caller sweeps the symbolic checker over Table 1.

Every feasible cell at P = 10, N = 4 is checked (``cached_check`` with
no cache) for the properties the cell claims, by the rule ``repro
check`` follows: ``reach`` and ``sinks`` everywhere, ``liveness`` under
weak fairness as well.
The global-fairness cells served by the symmetric leaderless protocol
(Prop. 13, alone or beside an idle leader) also get an expected-FAIL
``liveness`` check: by Prop. 1 no symmetric protocol that ignores its
leader can name under weak fairness, and the livelock witness must
replay on the reference simulator.  Protocol 2's non-initialized-leader
cell is checked once more over its full leader space at P = 5, N = 3.

No simulation kernel runs here except the witness replays, so a kernel
optimization should leave this workload unchanged.
"""

from __future__ import annotations

import random

from perfbench.checks import check_verdict
from perfbench.workloads.base import Measurement, Request, Workload

BOUND = 10
N_MOBILE = 4
FULL_LEADER_BOUND = 5
FULL_LEADER_N = 3


class Verify(Workload):
    name = "verify"
    why = (
        "symbolic checker sweep over every feasible Table 1 cell with "
        "expected-FAIL liveness witnesses; no simulation kernel"
    )

    def setup(self) -> None:
        from repro.analysis import check
        from repro.core.registry import protocol_for
        from repro.core.spec import (
            Fairness,
            LeaderKind,
            MobileInit,
            ModelSpec,
            Symmetry,
            all_specs,
            table1_cell,
        )

        self._check = check
        #: (label, protocol, prop, n, mode, leader roots, expected holds)
        self.checks = []
        for spec in all_specs():
            cell = table1_cell(spec)
            if not cell.feasible:
                continue
            protocol = protocol_for(spec, BOUND)
            mode = (
                "uniform"
                if spec.mobile_init is MobileInit.UNIFORM
                else "arbitrary"
            )
            leaders = (
                [protocol.initial_leader_state()]
                if protocol.requires_leader
                else None
            )
            claimed = ["reach", "sinks"]
            if spec.fairness is Fairness.WEAK:
                claimed.append("liveness")
            label = spec.describe()
            for prop in claimed:
                self.checks.append(
                    (label, protocol, prop, N_MOBILE, mode, leaders, True)
                )
            if (
                spec.fairness is Fairness.GLOBAL
                and cell.protocol_ref == "Proposition 13"
            ):
                self.checks.append(
                    (label, protocol, "liveness", N_MOBILE, mode, leaders,
                     False)
                )
        spec = ModelSpec(
            Fairness.WEAK,
            Symmetry.SYMMETRIC,
            LeaderKind.NON_INITIALIZED,
            MobileInit.ARBITRARY,
        )
        protocol = protocol_for(spec, FULL_LEADER_BOUND)
        for prop in ("reach", "sinks", "liveness"):
            self.checks.append(
                (f"{spec.describe()}, full leader space", protocol, prop,
                 FULL_LEADER_N, "arbitrary", None, True)
            )

    def make_inputs(self, seed: int, seconds: float) -> None:
        self.order = list(range(len(self.checks)))
        random.Random(f"verify:{seed}").shuffle(self.order)

    def pass_requests(self, k: int):
        for i in self.order:
            label, protocol, prop, n, mode, leaders, expected = self.checks[i]
            yield Request(
                name=f"{prop}: {label}",
                call=lambda p=protocol, prop=prop, n=n, mode=mode,
                leaders=leaders: self._check.cached_check(
                    p, prop, n, mobile_mode=mode, leader_states=leaders
                ),
                check=lambda v, expected=expected: check_verdict(v, expected),
            )

    def headlines(self, record: Measurement) -> list[tuple[str, str, str]]:
        """``verify_s``: a sweep costs each check's median latency."""
        seen = len({d.name for d in record.done})
        sweep = f"{seen / self.rates(record).jobs_per_s:.4f}"
        if seen < len(self.checks):
            sweep += f" (partial: {seen} of {len(self.checks)} checks)"
        return [("verify_s", sweep, "s")]
