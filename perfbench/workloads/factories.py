"""Picklable factories the workloads hand to ``run_ensemble`` and
``JobSpec``: module-level, so worker processes can unpickle them, and
dataclasses, whose value-based ``repr`` keeps the serving layer's memo
keys equal across equal specs."""

from __future__ import annotations

from dataclasses import dataclass


def scheduler_factory(population, seed):
    """Picklable scheduler factory: the randomized scheduler."""
    from repro import RandomPairScheduler

    return RandomPairScheduler(population, seed=seed)


@dataclass(frozen=True)
class UniformStart:
    """Picklable initial factory: every mobile agent in one state."""

    mobile: object
    leader: object = None

    def __call__(self, population, seed):
        from repro import Configuration

        return Configuration.uniform(population, self.mobile, self.leader)


def uniform_start(protocol) -> UniformStart:
    """The protocol's designated uniform start (its smallest mobile
    state when it has none), with its designated leader state."""
    mobile = protocol.initial_mobile_state()
    if mobile is None:
        mobile = min(protocol.mobile_state_space())
    leader = (
        protocol.initial_leader_state() if protocol.requires_leader else None
    )
    return UniformStart(mobile, leader)


@dataclass(frozen=True)
class PresetStarts:
    """Picklable initial factory cycling through pre-drawn mobile states;
    each call builds a fresh configuration, as a caller would."""

    starts: tuple

    def __call__(self, population, seed):
        from repro import Configuration

        return Configuration.from_states(
            population, self.starts[seed % len(self.starts)]
        )
