"""Explicit breadth-first exploration, used both as a decision procedure on
small instances and as an independent cross-check for the other deciders."""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    Configuration,
    Mpda,
    OccurrenceId,
    Verdict,
    Witness,
    descendant_forest,
    expand,
    occurrences_of,
    parent_map,
    relevant_occurrences,
    search,
)
from .regsets import RegSet, member


class SourceNotInL(Exception):
    pass


@dataclass(frozen=True)
class OracleBudget:
    max_config_size: int
    max_explored: int = 100_000


def bfs_reach(m: Mpda, source: Configuration, target: Configuration | RegSet, budget: OracleBudget) -> Verdict:
    """Breadth-first search from `source` to a configuration or into a
    regular set, returning a shortest witness.

    The search runs on the compiled machine's nodes: a configuration target
    is encoded once and compared as codes; for a regular-set target each
    admitted node is decoded for `member`.  Configurations larger than the
    size cap are generated and tested against the target but never
    expanded, and `truncated` records whether that shaped the search space.
    The search says "unknown" when the exploration cap cut a node, and
    "unreachable" otherwise."""
    cm = m.compiled()
    truncated = False

    def expand(node: tuple):
        nonlocal truncated
        if cm.size(node) > budget.max_config_size:
            truncated = truncated or cm.enabled(node)
            return ()
        return cm.successors(node)

    if isinstance(target, Configuration):
        goal = cm.encode(target)
        is_target = goal.__eq__  # nodes are tuples, so never NotImplemented
    else:
        def is_target(node: tuple) -> bool:
            return member(target, cm.decode(node))

    res = search(((cm.encode(source),),), expand, is_target, max_nodes=budget.max_explored)
    if res.path:
        return Verdict("reachable", Witness(source, res.labels), res.explored, truncated)
    if res.cut:
        return Verdict("unknown", None, res.explored, truncated, budget="max-explored")
    return Verdict("unreachable", None, res.explored, truncated)


def reach_config(m: Mpda, source: Configuration, target: Configuration, budget: OracleBudget) -> Verdict:
    return bfs_reach(m, source, target, budget)


def reach_regset(m: Mpda, source: Configuration, K: RegSet, budget: OracleBudget) -> Verdict:
    return bfs_reach(m, source, K, budget)


def shortest_path_length(
    m: Mpda,
    source: Configuration,
    target: Configuration,
    budget: OracleBudget,
) -> int | Verdict:
    """Length of a shortest rule sequence from source to target, or the
    (unreachable) verdict."""
    verdict = reach_config(m, source, target, budget)
    if verdict.reachable:
        assert verdict.witness is not None
        return len(verdict.witness.steps)
    return verdict


def is_fully_active(m: Mpda, w: Witness) -> bool:
    """Every occurrence of the start configuration has a descendant that is
    consumed by some step of the flat witness `expand(w)`."""
    w = expand(w)
    forest = descendant_forest(m, w)
    parents = parent_map(forest)
    active_roots: set[OccurrenceId] = set()
    for t, rule in enumerate(w.steps):
        occ = OccurrenceId(t, rule.pop.stack, 0)
        while occ in parents:
            occ = parents[occ]
        active_roots.add(occ)
    return set(occurrences_of(w.start, 0)) <= active_roots


def shrink_source(m: Mpda, w: Witness, L: RegSet) -> Configuration:
    """Remove irrelevant material from the start of a witness while staying
    inside L.

    Positions whose occurrences are irrelevant to the witness can be deleted
    without breaking reachability of the final configuration; deletions are
    chosen by pumping between repeated per-stack NFA state-set labels, and
    membership in L is re-checked after every deletion.  A macro witness
    gives the same answer as its flat run, since `relevant_occurrences`
    works on `expand(w)`."""
    if not member(L, w.start):
        raise SourceNotInL(f"{w.start} is not in the given set")
    relevant = relevant_occurrences(m, w)
    comp = L.components[w.start.state]
    stacks: list[list[tuple[object, bool]]] = [
        [(sym, OccurrenceId(0, i, d) in relevant) for d, sym in enumerate(word)]
        for i, word in enumerate(w.start.stacks)
    ]

    def as_config() -> Configuration:
        return Configuration(w.start.state, tuple(tuple(sym for sym, _ in st) for st in stacks))

    changed = True
    while changed:
        changed = False
        for i, st in enumerate(stacks):
            nfa = comp.nfas[i]
            labels = [frozenset(nfa.initials)]
            for sym, _ in st:
                labels.append(nfa.step_set(labels[-1], sym))
            # delete a label-repeating infix made of irrelevant positions only
            done = False
            for a in range(len(st)):
                for b in range(a + 1, len(st) + 1):
                    if labels[a] != labels[b]:
                        continue
                    if any(rel for _, rel in st[a:b]):
                        continue
                    saved = st[a:b]
                    del st[a:b]
                    if member(L, as_config()):
                        changed = True
                    else:
                        st[a:a] = saved  # defensive; label equality should preserve membership
                        continue
                    done = True
                    break
                if done:
                    break
    return as_config()
