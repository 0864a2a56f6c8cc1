"""Unreachability certificates for strongly normed machines.

A regular set M separates L from a backward-closed view of K when it
contains K, misses L, and is closed under one-step predecessors.  The
decider interleaves a positive search (explicit exploration from small
members of L) with two negative strategies: iterating the predecessor
operator on K until it converges, and a canonical enumeration of candidate
separators built from small complete per-stack automata."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .model import Configuration, Mpda, StackSymbol, Verdict, all_configurations
from .oracle import OracleBudget, reach_regset
from .regsets import (
    Component,
    RegSet,
    StackNfa,
    TooLarge,
    complement,
    enumerate_members,
    intersect,
    is_empty,
    is_subset,
    member,
    pre_image,
    union,
)


@dataclass(frozen=True)
class CheckFailure:
    reason: str  # "misses-target" | "touches-source" | "not-backward-closed"
    example: Configuration


def check_separator(m: Mpda, L: RegSet, K: RegSet, M: RegSet) -> CheckFailure | None:
    """None when M certifies that no member of L reaches K; otherwise the
    failed condition with a counterexample."""
    co = complement(M, m)
    outside = intersect(K, co)
    if not is_empty(outside):
        return CheckFailure("misses-target", _small_member(outside))
    meet = intersect(L, M)
    if not is_empty(meet):
        return CheckFailure("touches-source", _small_member(meet))
    outside = intersect(pre_image(m, M), co)
    if not is_empty(outside):
        return CheckFailure("not-backward-closed", _small_member(outside))
    return None


def _small_member(S: RegSet) -> Configuration:
    """A member of the nonempty set S: the first of size <= 4, or else one
    shortest word per stack into an accepting tuple that all stacks reach."""
    small = next(iter(enumerate_members(S, 4)), None)
    if small is not None:
        return small
    for state, comp in sorted(S.components.items()):
        words = [_shortest_words(nfa) for nfa in comp.nfas]
        for tup in sorted(comp.accept, key=str):
            if all(f in w for f, w in zip(tup, words)):
                return Configuration(state, tuple(w[f] for f, w in zip(tup, words)))
    raise ValueError("the set has no member")


def _shortest_words(nfa: StackNfa) -> dict:
    """A shortest word from an initial state to each reachable state."""
    succ: dict = {}
    for src, sym, dst in sorted(nfa.edges, key=lambda e: (e[1].name, str(e[2]))):
        succ.setdefault(src, []).append((sym, dst))
    order = sorted(nfa.initials, key=str)
    words = dict.fromkeys(order, ())
    for q in order:  # breadth first: the loop takes the states it appends
        for sym, dst in succ.get(q, ()):
            if dst not in words:
                words[dst] = words[q] + (sym,)
                order.append(dst)
    return words


@dataclass(frozen=True)
class FixpointResult:
    converged: bool
    result: RegSet
    rounds: int


def backward_fixpoint(m: Mpda, K: RegSet, max_rounds: int = 6) -> FixpointResult:
    """Iterate M <- M + pre(M) starting from K; converged when a round adds
    nothing new (then M is exactly the set of configurations reaching K)."""
    cur = K
    for rnd in range(1, max_rounds + 1):
        pre = pre_image(m, cur)
        if is_subset(pre, cur):
            return FixpointResult(True, cur, rnd)
        cur = union(cur, pre)
    return FixpointResult(False, cur, max_rounds)


# ----------------------------------------------------- candidate enumeration

def _complete_dfas(alphabet: tuple[StackSymbol, ...], n: int) -> Iterator[StackNfa]:
    keys = [(s, a) for s in range(n) for a in alphabet]
    for targets in itertools.product(range(n), repeat=len(keys)):
        edges = frozenset((s, a, t) for (s, a), t in zip(keys, targets))
        yield StackNfa(tuple(range(n)), frozenset({0}), edges)


def _components_of_size(m: Mpda, n: int) -> Iterator[Component | None]:
    yield None  # no component: the state contributes nothing
    tuples = list(itertools.product(range(n), repeat=m.stack_count))
    for nfas in itertools.product(*(_complete_dfas(alpha, n) for alpha in m.alphabets)):
        for k in range(1, len(tuples) + 1):
            for accept in itertools.combinations(tuples, k):
                yield Component(tuple(nfas), frozenset(accept))


def candidate_separators(m: Mpda, signature_size: int = 3) -> Iterator[RegSet]:
    """Candidate regular sets in canonical order: growing automaton size,
    then transition tables and accepting tuples lexicographically.
    Candidates that agree on all configurations of size <= signature_size
    with an earlier candidate are skipped."""
    seen_signatures: set[tuple[bool, ...]] = set()
    probe = list(all_configurations(m, signature_size))
    for n in itertools.count(1):
        for assignment in itertools.product(*(_components_of_size(m, n) for _ in m.states)):
            comps = {q: comp for q, comp in zip(m.states, assignment) if comp is not None}
            cand = RegSet(m, comps)
            sig = tuple(member(cand, c) for c in probe)
            if sig in seen_signatures:
                continue
            seen_signatures.add(sig)
            yield cand


# ----------------------------------------------------------------- decider

# rounds of the decider; each explores more sources with more nodes and
# then either runs the predecessor fixpoint (first round) or checks more
# candidate separators
ROUNDS = 6
FIXPOINT_ROUNDS = 6
CANDIDATES_PER_ROUND = 64
EXPLORED_PER_ROUND = 2000


def decide_separator(m: Mpda, L: RegSet, K: RegSet) -> Verdict:
    """Semi-decider for L -->* K on strongly normed machines.

    Interleaves positive rounds (oracle runs from ever-larger members of L
    with growing budgets) with negative rounds (predecessor fixpoint first,
    then canonical candidate separators).  An "unreachable" verdict carries
    the separating `RegSet` as its `certificate`; the verdict is "unknown",
    with budget "rounds", when the last round ends undecided."""
    base_size = 1
    for comp in K.components.values():
        base_size = max(base_size, max((len(n.states) for n in comp.nfas), default=1))
    tried_sources: set[Configuration] = set()
    candidates = candidate_separators(m)
    for rnd in range(1, ROUNDS + 1):
        # positive: explore from small members of L
        src_cap = rnd + 1
        oracle_budget = OracleBudget(
            max_config_size=src_cap + base_size + rnd,
            max_explored=EXPLORED_PER_ROUND * rnd,
        )
        for s in enumerate_members(L, src_cap):
            if s in tried_sources:
                continue
            verdict = reach_regset(m, s, K, oracle_budget)
            if verdict.reachable:
                return Verdict("reachable", witness=verdict.witness)
            if verdict.complete and not verdict.truncated:
                tried_sources.add(s)  # settled for good; retry the rest with bigger budgets
        # negative: fixpoint once, then candidate separators
        try:
            if rnd == 1:
                fp = backward_fixpoint(m, K, FIXPOINT_ROUNDS)
                if fp.converged and is_empty(intersect(L, fp.result)):
                    return Verdict("unreachable", certificate=fp.result)
            else:
                for cand in itertools.islice(candidates, CANDIDATES_PER_ROUND):
                    if check_separator(m, L, K, cand) is None:
                        return Verdict("unreachable", certificate=cand)
        except TooLarge:
            pass  # negative side stalled; keep trying the positive side
    return Verdict("unknown", budget="rounds")
