"""Reachability of a single target in weak machines, via colored exploration.

Configurations carry a color bit per symbol occurrence.  Colored occurrences
stand for material that is irrelevant to the target and may be dropped by the
embedding order; the number of uncolored occurrences stays below
|states| + size(target), which makes the order a well-quasi-order and the
depth-first search finite.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .classify import require_weak
from .model import (
    AnnotatedConfiguration,
    Configuration,
    Mpda,
    TransitionRule,
    Verdict,
    Witness,
    annotate,
    search,
    successors,
)


def colored_leq(a: AnnotatedConfiguration, b: AnnotatedConfiguration) -> bool:
    """a is b with some colored occurrences removed.  Greedy per-stack check:
    skipped positions of b must be colored, matched positions must agree on
    both symbol and color.  So a and b share their `uncolored_projection`."""
    if a.state != b.state:
        return False
    for wa, wb in zip(a.stacks, b.stacks):
        i = 0
        for entry in wb:
            if i < len(wa) and entry == wa[i]:
                i += 1
            elif not entry[1]:
                return False
        if i < len(wa):
            return False
    return True


def colored_successors(
    m: Mpda,
    r: AnnotatedConfiguration,
    uncolored_limit: int | None = None,
) -> list[AnnotatedConfiguration]:
    """One colored step.

    Popping a colored occurrence pushes everything colored and is only
    allowed for state-preserving rules: the occurrence consumed by a
    state-changing step always carries relevance, so it can never be a
    colored one.  Popping an uncolored occurrence allows any coloring of the
    pushed symbols, except that a state-preserving rule must leave at least
    one push uncolored; in particular a state-preserving rule that pushes
    nothing has no uncolored-pop variant."""
    out = []
    uncolored = r.uncolored_count
    for w in r.stacks:
        if not w:
            continue
        top_sym, top_col = w[0]
        left = uncolored if top_col else uncolored - 1
        for rule, variants in m.variants(_push_colorings, r.state, top_sym, top_col):
            for pushes, pushed_uncolored in variants:
                if uncolored_limit is None or left + pushed_uncolored < uncolored_limit:
                    out.append(r.apply(rule, pushes))
    return out


def _push_colorings(rule: TransitionRule, colored_pop: bool, stack_count: int) -> tuple:
    """The colored pushes of `rule` for a pop of the given color, each with
    its number of uncolored symbols, in the order `colored_successors`
    tries them."""
    if colored_pop:
        if rule.changes_state:
            return ()
        return ((tuple(tuple((s, True) for s in w) for w in rule.push), 0),)
    positions = [(j, p) for j in range(stack_count) for p in range(len(rule.push[j]))]
    # a state-preserving rule keeps at least one push uncolored
    most_colored = len(positions) if rule.changes_state else len(positions) - 1
    out = []
    for k in range(most_colored + 1):
        for colored in map(set, itertools.combinations(positions, k)):
            pushes = tuple(
                tuple((s, (j, p) in colored) for p, s in enumerate(rule.push[j]))
                for j in range(stack_count)
            )
            out.append((pushes, len(positions) - k))
    return tuple(out)


def source_colorings(s: Configuration, uncolored_limit: int):
    """All colorings of s with fewer than uncolored_limit uncolored symbols."""
    positions = [(i, p) for i, w in enumerate(s.stacks) for p in range(len(w))]
    for k in range(min(len(positions), uncolored_limit - 1) + 1):
        for kept in map(set, itertools.combinations(positions, k)):
            yield AnnotatedConfiguration(
                s.state,
                tuple(tuple((sym, (i, p) not in kept) for p, sym in enumerate(w)) for i, w in enumerate(s.stacks)),
            )


class _Embeddings:
    """Admitted colored configurations, bucketed by `uncolored_projection`:
    `c in index` holds when some admitted v has colored_leq(v, c), and
    colored_leq only relates configurations of one bucket."""

    def __init__(self) -> None:
        self.buckets: dict[tuple, list[AnnotatedConfiguration]] = {}

    def __contains__(self, c: AnnotatedConfiguration) -> bool:
        return any(colored_leq(v, c) for v in self.buckets.get(c.uncolored_projection, ()))

    def add(self, c: AnnotatedConfiguration) -> None:
        self.buckets.setdefault(c.uncolored_projection, []).append(c)


def reach_wqo(m: Mpda, sources: Iterable[Configuration], t: Configuration, max_nodes: int | None = None) -> Verdict:
    """Exact reachability of a single target t from some of `sources` for a
    weak machine, with a witness from the first source that reaches t:
    "unknown" when more than `max_nodes` colored configurations would be
    admitted, otherwise exact.

    One depth-first search over colored configurations, which draws the
    sources lazily; a new node is skipped when some already admitted node
    embeds into it (anything it could contribute is then reachable from the
    smaller node as well).  Every colored step fires a concrete rule, so the
    colored path with its colors dropped is a run from a source to t."""
    require_weak(m)
    limit = len(m.states) + t.size
    target = annotate(t, colored=False)
    res = search(
        (c for s in sources for c in source_colorings(s, limit)),
        lambda c: ((None, nxt) for nxt in colored_successors(m, c, uncolored_limit=limit)),
        lambda c: c == target,
        depth_first=True,
        covered=_Embeddings(),
        max_nodes=max_nodes,
    )
    if res.cut:
        return Verdict("unknown", explored=res.explored, budget="max-explored")
    if res.path is None:
        return Verdict("unreachable", explored=res.explored)
    run = [c.plain for c in res.path]
    steps = tuple(next(r for r, nxt in successors(m, a) if nxt == b) for a, b in zip(run, run[1:]))
    return Verdict("reachable", Witness(run[0], steps), explored=res.explored)


def decide_wqo(m: Mpda, s: Configuration, t: Configuration) -> bool:
    """Exact reachability s -->* t for a weak machine and a single target."""
    return reach_wqo(m, (s,), t).reachable


def default_src_cap(L, t: Configuration) -> int:
    """Size bound on candidate sources drawn from a regular set."""
    n_states = len(L.mpda.states)
    n_l = max((len(nfa.states) for comp in L.components.values() for nfa in comp.nfas), default=0)
    return (t.size + n_states) * (n_l + 1) + n_l * L.mpda.stack_count
