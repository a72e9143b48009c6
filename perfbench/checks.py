"""Output checks.  Every request's output passes one of these before it
counts; a failed check counts the request as failed.

Each check returns the request's ``(samples, interactions)`` - the
checked outputs it delivered and the simulated interactions behind
them - or raises :class:`CheckFailed`.
"""

from __future__ import annotations

import hashlib
import pickle


class CheckFailed(AssertionError):
    """A program output is wrong."""


def _final_tally(result) -> dict:
    if result.final_configuration is None:
        return dict(result.final_counts)
    return dict(result.final_configuration.state_tally())


def check_converged_names(ensemble, replicates: int) -> tuple[int, int]:
    """Every replicate converged, with pairwise-distinct names."""
    if len(ensemble.results) != replicates:
        raise CheckFailed(
            f"expected {replicates} replicates, got {len(ensemble.results)}"
        )
    for seed, r in zip(ensemble.seeds, ensemble.results):
        if not r.converged:
            raise CheckFailed(f"seed {seed} did not converge")
        if not r.final_configuration.names_distinct():
            raise CheckFailed(f"seed {seed} converged with duplicate names")
    return replicates, sum(r.interactions for r in ensemble.results)


def check_horizon(
    ensemble, replicates: int, size: int, horizon: int, space
) -> tuple[int, int]:
    """Every replicate ran to ``horizon``, conserved the population size
    and ended with states inside the protocol's ``space``."""
    if len(ensemble.results) != replicates:
        raise CheckFailed(
            f"expected {replicates} replicates, got {len(ensemble.results)}"
        )
    for seed, r in zip(ensemble.seeds, ensemble.results):
        if r.interactions != horizon:
            raise CheckFailed(
                f"seed {seed} stopped at {r.interactions} interactions, "
                f"not the {horizon} horizon"
            )
        tally = _final_tally(r)
        if sum(tally.values()) != size:
            raise CheckFailed(
                f"seed {seed} ended with {sum(tally.values())} agents, "
                f"not {size}"
            )
        stray = {s for s, n in tally.items() if n and s not in space}
        if stray:
            raise CheckFailed(
                f"seed {seed} ended in states outside the protocol: "
                f"{sorted(map(repr, stray))[:3]}"
            )
    return replicates, horizon * replicates


def result_digest(ensemble) -> str:
    """sha256 over everything a replicate result reports bar its timings
    (the same fields ``SimulationResult`` equality compares)."""
    rows = []
    for seed, r in zip(ensemble.seeds, ensemble.results):
        final = (
            r.final_configuration.states,
            r.final_configuration.leader_index,
        ) if r.final_configuration is not None else sorted(
            r.final_counts.items(), key=repr
        )
        rows.append((
            seed,
            r.converged,
            r.interactions,
            r.non_null_interactions,
            r.convergence_interaction,
            r.faults_injected,
            tuple(r.notes),
            final,
        ))
    return hashlib.sha256(pickle.dumps(rows, protocol=4)).hexdigest()


def check_repeat(first_digest: str, again) -> None:
    """A repeated job equals its first submission bit for bit."""
    if result_digest(again) != first_digest:
        raise CheckFailed("repeated job differs from its first submission")


def check_reference(served, reference) -> None:
    """A served job equals an in-process ``run_ensemble`` of its spec."""
    if served.seeds != reference.seeds or served.results != reference.results:
        raise CheckFailed("served job differs from in-process run_ensemble")


def check_verdict(verdict, expected: bool) -> tuple[int, int]:
    """A verdict matches the paper's claim; an expected FAIL carries a
    witness that replayed on the reference simulator."""
    if verdict.holds != expected:
        raise CheckFailed(
            f"{verdict.protocol} {verdict.prop} (N={verdict.n_mobile}): "
            f"{'PASS' if verdict.holds else 'FAIL'}, paper claims "
            f"{'PASS' if expected else 'FAIL'}"
        )
    if expected:
        return 1, 0
    if verdict.witness is None or verdict.replay_validated is not True:
        raise CheckFailed(
            f"{verdict.protocol} {verdict.prop}: FAIL without a "
            "replay-validated witness"
        )
    return 1, len(verdict.witness.meetings)
