"""Exact expected convergence times via absorbing Markov chains.

Under the uniform-random scheduler, an execution is a Markov chain on
configurations.  Because protocols are uniform and agents anonymous, the
chain *lumps* onto the quotient (multiset) space: the probability of
moving between multiset classes is the same from every labelled
configuration of a class - it depends only on state counts.  The lumped
chain is tiny, so the expected number of interactions to reach a solved
configuration can be computed **exactly** by solving the absorbing-chain
linear system ``(I - Q) t = 1`` - no simulation variance, no budget.

This turns the supplementary time measurements into checkable numbers:
the simulated means of exp-s1 must agree with the linear-algebra answer,
and quantities far beyond simulation (Protocol 3's ``N = P`` sweep
expectation) become computable.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterable

import numpy

from repro.analysis.model_checker import strongly_connected_components
from repro.engine.protocol import PopulationProtocol
from repro.errors import VerificationError

#: A lumped-chain node: (sorted tuple of mobile states, leader state or
#: None).
QuotientNode = tuple


@dataclass(frozen=True)
class ExpectedTime:
    """Exact expected interactions to absorption from one start."""

    start: QuotientNode
    expected_interactions: float


def _transition_distribution(
    protocol: PopulationProtocol,
    node: QuotientNode,
    has_leader: bool,
) -> dict[QuotientNode, float]:
    """Outgoing one-interaction distribution of the lumped chain.

    The scheduler draws an ordered pair of distinct agents uniformly:
    ``A (A - 1)`` equally likely draws for ``A`` agents.  A draw's effect
    depends only on the states involved, so draws aggregate by state
    counts.  Null meetings contribute self-loop probability.
    """
    mobile, leader = node
    counts = Counter(mobile)
    n_mobile = len(mobile)
    total_agents = n_mobile + (1 if has_leader else 0)
    draws = total_agents * (total_agents - 1)
    if draws == 0:
        return {node: 1.0}

    def moved(remove: tuple, add: tuple) -> tuple:
        updated = counts.copy()
        for s in remove:
            updated[s] -= 1
        for s in add:
            updated[s] += 1
        return tuple(
            sorted(
                (s for s, c in updated.items() for _ in range(c)), key=repr
            )
        )

    distribution: dict[QuotientNode, float] = {}

    def put(target: QuotientNode, weight: float) -> None:
        distribution[target] = distribution.get(target, 0.0) + weight

    # Mobile-mobile ordered draws.
    for p, q in permutations(counts, 2):
        weight = counts[p] * counts[q] / draws
        p2, q2 = protocol.transition(p, q)
        if (p2, q2) == (p, q):
            put(node, weight)
        else:
            put((moved((p, q), (p2, q2)), leader), weight)
    for p, c in counts.items():
        if c >= 2:
            weight = c * (c - 1) / draws
            p2, q2 = protocol.transition(p, p)
            if (p2, q2) == (p, p):
                put(node, weight)
            else:
                put((moved((p, p), (p2, q2)), leader), weight)

    # Leader-mobile draws, both orientations.
    if has_leader:
        for s, c in counts.items():
            for order in ("leader_first", "mobile_first"):
                weight = c / draws
                if order == "leader_first":
                    l2, s2 = protocol.transition(leader, s)
                else:
                    s2, l2 = protocol.transition(s, leader)
                if (l2, s2) == (leader, s):
                    put(node, weight)
                else:
                    put((moved((s,), (s2,)), l2), weight)
    return distribution


def _explore_chain(
    protocol: PopulationProtocol,
    initial: Iterable[QuotientNode],
    is_absorbing: Callable[[QuotientNode], bool],
    max_nodes: int,
) -> tuple[
    list[QuotientNode],
    dict[QuotientNode, int],
    list[dict[QuotientNode, float]],
]:
    """Breadth-first walk of the lumped chain from ``initial``.

    Returns the nodes in discovery order, their indices, and each node's
    outgoing distribution (empty for absorbing nodes, which are not
    expanded).
    """
    has_leader = protocol.requires_leader
    nodes: list[QuotientNode] = []
    index: dict[QuotientNode, int] = {}
    rows: list[dict[QuotientNode, float]] = []
    queue: deque[QuotientNode] = deque()
    for node in initial:
        if node not in index:
            index[node] = len(nodes)
            nodes.append(node)
            queue.append(node)
    if not nodes:
        raise VerificationError("no initial quotient nodes supplied")
    while queue:
        node = queue.popleft()
        if is_absorbing(node):
            rows.append({})
            continue
        distribution = _transition_distribution(protocol, node, has_leader)
        rows.append(distribution)
        for target in distribution:
            if target not in index:
                if len(nodes) >= max_nodes:
                    raise VerificationError(
                        f"lumped chain exceeded {max_nodes} nodes"
                    )
                index[target] = len(nodes)
                nodes.append(target)
                queue.append(target)
    return nodes, index, rows


def expected_convergence_time(
    protocol: PopulationProtocol,
    initial: Iterable[QuotientNode],
    is_absorbing: Callable[[QuotientNode], bool],
    max_nodes: int = 20_000,
) -> dict[QuotientNode, float]:
    """Exact expected interactions to absorption for every reachable node.

    ``is_absorbing`` marks the solved classes (e.g. duplicate-free,
    silent multisets).  Raises :class:`VerificationError` when some
    reachable node cannot reach an absorbing one (infinite expectation).
    """
    nodes, index, rows = _explore_chain(
        protocol, initial, is_absorbing, max_nodes
    )

    transient = [i for i, node in enumerate(nodes) if not is_absorbing(node)]
    if not transient:
        return {node: 0.0 for node in nodes}
    position = {i: k for k, i in enumerate(transient)}
    size = len(transient)
    q_matrix = numpy.zeros((size, size))
    for i in transient:
        for target, weight in rows[i].items():
            j = index[target]
            if j in position:
                q_matrix[position[i], position[j]] = (
                    q_matrix[position[i], position[j]] + weight
                )
    system = numpy.eye(size) - q_matrix
    try:
        times = numpy.linalg.solve(system, numpy.ones(size))
    except numpy.linalg.LinAlgError as exc:
        raise VerificationError(
            "the chain has unreachable absorption (infinite expected "
            "time) or is ill-conditioned"
        ) from exc
    if numpy.any(times < -1e-9) or not numpy.all(numpy.isfinite(times)):
        raise VerificationError(
            "absorption is not certain from every reachable class"
        )
    result = {node: 0.0 for node in nodes}
    for i in transient:
        result[nodes[i]] = float(times[position[i]])
    return result


def absorption_probability(
    protocol: PopulationProtocol,
    initial: Iterable[QuotientNode],
    is_absorbing: Callable[[QuotientNode], bool],
    max_nodes: int = 20_000,
) -> dict[QuotientNode, float]:
    """Exact probability of *ever* reaching an absorbing class.

    The quantitative companion to the model checkers: a correct protocol
    has probability 1 everywhere; a failing one reveals *how* it fails -
    e.g. Proposition 13's two-agent cycle has probability 0, while a
    protocol with a reachable livelock trap has probability strictly
    between 0 and 1 from the trap's basin boundary.

    Method: closed recurrent non-absorbing classes (sink SCCs of the
    lumped graph that contain no absorbing node) can never absorb, so
    their probability is 0; removing them leaves a substochastic system
    ``(I - Q') p = r`` with a unique solution - the minimal non-negative
    one, i.e. the true probabilities.
    """
    nodes, index, rows = _explore_chain(
        protocol, initial, is_absorbing, max_nodes
    )

    result = {
        node: (1.0 if is_absorbing(node) else 0.0) for node in nodes
    }

    # Doomed nodes: sink SCCs of non-absorbing nodes never absorb.
    components = strongly_connected_components(
        nodes, lambda node: rows[index[node]]
    )
    doomed: set[QuotientNode] = set()
    for component in components:
        members = set(component)
        if any(is_absorbing(node) for node in component):
            continue
        leaves = any(
            target not in members
            for node in component
            for target in rows[index[node]]
        )
        if not leaves:
            doomed.update(members)

    solvable = [
        i
        for i, node in enumerate(nodes)
        if not is_absorbing(node) and node not in doomed
    ]
    if not solvable:
        return result
    position = {i: k for k, i in enumerate(solvable)}
    size = len(solvable)
    q_matrix = numpy.zeros((size, size))
    into_absorbing = numpy.zeros(size)
    for i in solvable:
        for target, weight in rows[i].items():
            j = index[target]
            if j in position:
                q_matrix[position[i], position[j]] += weight
            elif is_absorbing(target):
                into_absorbing[position[i]] += weight
            # weight into doomed nodes contributes nothing.
    system = numpy.eye(size) - q_matrix
    solution = numpy.linalg.solve(system, into_absorbing)
    probabilities = numpy.clip(solution, 0.0, 1.0)
    for i in solvable:
        result[nodes[i]] = float(probabilities[position[i]])
    return result


def naming_absorbing(
    protocol: PopulationProtocol,
) -> Callable[[QuotientNode], bool]:
    """The solved predicate for naming: the class is duplicate-free AND
    silent (no realizable meeting changes anything) - a distinct-name
    class with pending renames (Protocol 3 mid-sweep, a Prop. 13 reset
    agent) is *not* absorbed yet."""

    def absorbing(node: QuotientNode) -> bool:
        mobile, leader = node
        if len(set(mobile)) != len(mobile):
            return False
        counts = Counter(mobile)
        for p, q in permutations(counts, 2):
            if protocol.transition(p, q) != (p, q):
                return False
        for p, c in counts.items():
            if c >= 2 and protocol.transition(p, p) != (p, p):
                return False
        if leader is not None:
            for s in counts:
                if protocol.transition(leader, s) != (leader, s):
                    return False
                if protocol.transition(s, leader) != (s, leader):
                    return False
        return True

    return absorbing
