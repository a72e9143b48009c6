"""Each output check accepts a correct result and rejects a corrupted one."""

import dataclasses

import pytest

from perfbench.checks import (
    CheckFailed,
    check_converged_names,
    check_horizon,
    check_reference,
    check_repeat,
    check_verdict,
    result_digest,
)
from repro import (
    AsymmetricNamingProtocol,
    Configuration,
    NamingProblem,
    Population,
    SymmetricGlobalNamingProtocol,
    run_ensemble,
)
from repro.analysis import symbolic
from perfbench.workloads.factories import UniformStart, scheduler_factory

P = 4


@pytest.fixture(scope="module")
def ensemble():
    protocol = AsymmetricNamingProtocol(P)
    return run_ensemble(
        protocol, Population(P), scheduler_factory, UniformStart(0),
        NamingProblem(), seeds=range(4),
    )


def corrupted(ensemble, index, **changes):
    results = list(ensemble.results)
    results[index] = dataclasses.replace(results[index], **changes)
    return dataclasses.replace(ensemble, results=results)


def test_converged_names_accepts_a_correct_ensemble(ensemble):
    samples, interactions = check_converged_names(ensemble, 4)
    assert samples == 4
    assert interactions == sum(r.interactions for r in ensemble.results)


def test_converged_names_rejects_a_duplicated_name(ensemble):
    twin = Configuration.from_states(Population(P), (0, 0, 1, 2))
    bad = corrupted(ensemble, 2, final_configuration=twin)
    with pytest.raises(CheckFailed, match="duplicate names"):
        check_converged_names(bad, 4)


def test_converged_names_rejects_a_run_that_did_not_converge(ensemble):
    with pytest.raises(CheckFailed, match="did not converge"):
        check_converged_names(corrupted(ensemble, 0, converged=False), 4)


def test_converged_names_rejects_missing_replicates(ensemble):
    with pytest.raises(CheckFailed, match="expected 5"):
        check_converged_names(ensemble, 5)


@pytest.fixture(scope="module")
def horizon_run():
    protocol = AsymmetricNamingProtocol(P)
    population = Population(20)
    ens = run_ensemble(
        protocol, population, scheduler_factory, UniformStart(0), None,
        seeds=range(3), max_interactions=200,
    )
    return ens, frozenset(protocol.mobile_state_space())


def test_horizon_accepts_a_correct_ensemble(horizon_run):
    ens, space = horizon_run
    assert check_horizon(ens, 3, 20, 200, space) == (3, 600)


def test_horizon_rejects_a_short_run(horizon_run):
    ens, space = horizon_run
    with pytest.raises(CheckFailed, match="horizon"):
        check_horizon(corrupted(ens, 1, interactions=199), 3, 20, 200, space)


def test_horizon_rejects_lost_agents_and_stray_states(horizon_run):
    ens, space = horizon_run
    small = Configuration.uniform(Population(19), 0)
    with pytest.raises(CheckFailed, match="19 agents"):
        check_horizon(
            corrupted(ens, 0, final_configuration=small), 3, 20, 200, space
        )
    stray = Configuration.uniform(Population(20), 99)
    with pytest.raises(CheckFailed, match="outside the protocol"):
        check_horizon(
            corrupted(ens, 0, final_configuration=stray), 3, 20, 200, space
        )


def test_repeat_rejects_a_memo_replay_mismatch(ensemble):
    digest = result_digest(ensemble)
    check_repeat(digest, ensemble)
    last = ensemble.results[-1]
    bad = corrupted(
        ensemble, 3, non_null_interactions=last.non_null_interactions + 1
    )
    with pytest.raises(CheckFailed, match="differs"):
        check_repeat(digest, bad)


def test_digest_ignores_timings_only(ensemble):
    retimed = corrupted(ensemble, 0, stats=None)
    assert result_digest(retimed) == result_digest(ensemble)


def test_reference_rejects_a_different_result(ensemble):
    check_reference(ensemble, ensemble)
    with pytest.raises(CheckFailed):
        check_reference(ensemble, corrupted(ensemble, 1, interactions=1))


def test_verdict_rejects_a_flipped_verdict():
    verdict = symbolic.check_reach(
        AsymmetricNamingProtocol(3), 2, mobile_mode="arbitrary"
    )
    assert check_verdict(verdict, True) == (1, 0)
    with pytest.raises(CheckFailed, match="paper claims FAIL"):
        check_verdict(verdict, False)
    flipped = dataclasses.replace(verdict, holds=False)
    with pytest.raises(CheckFailed, match="paper claims PASS"):
        check_verdict(flipped, True)


def test_expected_fail_needs_a_replayed_witness():
    verdict = symbolic.check_liveness(
        SymmetricGlobalNamingProtocol(3), 3, mobile_mode="arbitrary"
    )
    samples, interactions = check_verdict(verdict, False)
    assert samples == 1 and interactions == len(verdict.witness.meetings)
    unreplayed = dataclasses.replace(verdict, replay_validated=None)
    with pytest.raises(CheckFailed, match="replay-validated"):
        check_verdict(unreplayed, False)
