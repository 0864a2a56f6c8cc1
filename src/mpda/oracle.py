"""Explicit breadth-first exploration, used both as a decision procedure on
small instances and as an independent cross-check for the other deciders."""

from __future__ import annotations

from dataclasses import dataclass

from .model import Configuration, Mpda, Verdict, Witness, search, start_occurrences
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


def is_fully_active(m: Mpda, w: Witness) -> bool:
    """Every occurrence of the start configuration has a descendant that
    some step of w pops (its flat run, for a macro witness)."""
    _, popped = start_occurrences(m, w)
    return len(popped) == w.start.size  # popped holds start occurrences only


def shrink_source(m: Mpda, w: Witness, L: RegSet) -> Configuration:
    """Remove irrelevant material from the start of a witness while staying
    inside L.

    Positions whose occurrences are irrelevant to the witness can be deleted
    without breaking reachability of the final configuration; deletions are
    chosen by pumping between repeated per-stack NFA state-set labels, and
    membership in L is re-checked after every deletion.  Relevance comes
    from `start_occurrences`, one pass over w as written, so a macro
    witness gives the same answer as its flat run without expanding it."""
    if not member(L, w.start):
        raise SourceNotInL(f"{w.start} is not in the given set")
    relevant, _ = start_occurrences(m, w)
    comp = L.components[w.start.state]
    stacks: list[list[tuple[object, bool]]] = [
        [(sym, (i, d) in relevant) for d, sym in enumerate(word)]
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
