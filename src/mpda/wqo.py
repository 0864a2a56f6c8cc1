"""Reachability of a single target in weak machines, via colored exploration.

Configurations carry a color bit per symbol occurrence.  Colored occurrences
stand for material that is irrelevant to the target and may be dropped by the
embedding order; the number of uncolored occurrences stays below
|states| + size(target), which makes the order a well-quasi-order and the
breadth-first search finite.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .classify import require_weak
from .model import (
    CompiledMpda,
    Configuration,
    Mpda,
    TransitionRule,
    Verdict,
    Witness,
    annotate,
    annotated_machine,
    search,
)


def colored_machine(m: Mpda) -> CompiledMpda:
    """The colored abstraction of m: each rule fires with every coloring of
    its pushes that `_push_colorings` allows, labeled with the rule.

    Popping a colored occurrence pushes everything colored and is only
    allowed for state-preserving rules: the occurrence consumed by a
    state-changing step always carries relevance, so it can never be a
    colored one.  Popping an uncolored occurrence allows any coloring of the
    pushed symbols, except that a state-preserving rule must leave at least
    one push uncolored; in particular a state-preserving rule that pushes
    nothing has no uncolored-pop variant."""
    k = m.stack_count
    return annotated_machine(m, lambda rule, bit: ((rule, pushes) for pushes in _push_colorings(rule, bit, k)))


def colored_leq(cm: CompiledMpda, a: tuple, b: tuple) -> bool:
    """Node a of `cm`, a colored machine, is node b with some colored
    occurrences removed.  Greedy per-stack check: skipped positions of b
    must be colored, matched positions must agree on both symbol and color.
    So a and b share their uncolored projection.  Equal word ids are equal
    words, which embed."""
    if a[0] != b[0]:
        return False
    words = cm.words
    for x, y in zip(a, b):
        if x == y:
            continue
        wa, wb = words[x], words[y]
        i = 0
        for entry in wb:
            if i < len(wa) and entry == wa[i]:
                i += 1
            elif not entry & 1:
                return False
        if i < len(wa):
            return False
    return True


def _uncolored_projection(cm: CompiledMpda, node: tuple) -> tuple:
    """The state and the uncolored entries of each stack of a node of `cm`."""
    words = cm.words
    return node[0], tuple([tuple([c for c in words[w] if not c & 1]) for w in node[1:]])


def colored_successors(m: Mpda, node: tuple, uncolored_limit: int | None = None) -> list[tuple[TransitionRule, tuple]]:
    """One colored step from a node of `colored_machine(m)`: each rule fired
    with its result node, keeping those with fewer than `uncolored_limit`
    uncolored occurrences when a limit is given."""
    cm = m.compiled(colored_machine)
    out = cm.successors(node)
    if uncolored_limit is None:
        return out
    words = cm.words
    return [(rule, nxt) for rule, nxt in out if sum(1 for w in nxt[1:] for c in words[w] if not c & 1) < uncolored_limit]


def _push_colorings(rule: TransitionRule, colored_pop: bool, stack_count: int) -> tuple:
    """The colored pushes of `rule` for a pop of the given color, in the
    order `colored_successors` tries them."""
    if colored_pop:
        if rule.changes_state:
            return ()
        return (tuple(tuple((s, True) for s in w) for w in rule.push),)
    positions = [(j, p) for j in range(stack_count) for p in range(len(rule.push[j]))]
    # a state-preserving rule keeps at least one push uncolored
    most_colored = len(positions) if rule.changes_state else len(positions) - 1
    out = []
    for k in range(most_colored + 1):
        for colored in map(set, itertools.combinations(positions, k)):
            out.append(tuple(
                tuple((s, (j, p) in colored) for p, s in enumerate(rule.push[j]))
                for j in range(stack_count)
            ))
    return tuple(out)


def source_colorings(m: Mpda, s: Configuration, uncolored_limit: int):
    """All colorings of s with fewer than uncolored_limit uncolored symbols,
    as nodes of `colored_machine(m)`."""
    own, cm = m.compiled(), m.compiled(colored_machine)
    state, *ids = own.encode(s)
    stacks = [own.words[w] for w in ids]
    positions = [(i, p) for i, w in enumerate(stacks) for p in range(len(w))]
    for k in range(min(len(positions), uncolored_limit - 1) + 1):
        for kept in map(set, itertools.combinations(positions, k)):
            yield (state, *[cm.word_id([2 * c + ((i, p) not in kept) for p, c in enumerate(w)]) for i, w in enumerate(stacks)])


class _Embeddings:
    """Admitted nodes of a colored machine, bucketed by uncolored
    projection: `node in index` holds when some admitted v has
    colored_leq(cm, v, node), and colored_leq only relates nodes of one
    bucket."""

    def __init__(self, cm: CompiledMpda) -> None:
        self.cm = cm
        self.buckets: dict[tuple, list[tuple]] = {}

    def __contains__(self, node: tuple) -> bool:
        cm = self.cm
        return any(colored_leq(cm, v, node) for v in self.buckets.get(_uncolored_projection(cm, node), ()))

    def add(self, node: tuple) -> None:
        self.buckets.setdefault(_uncolored_projection(self.cm, node), []).append(node)


def reach_wqo(m: Mpda, sources: Iterable[Configuration], t: Configuration, max_nodes: int | None = None) -> Verdict:
    """Exact reachability of a single target t from some of `sources` for a
    weak machine, with a witness from the first source that reaches t:
    "unknown" when more than `max_nodes` colored configurations would be
    admitted, otherwise exact.

    One breadth-first search over the nodes of `colored_machine(m)`, which
    draws the sources lazily: one root group per source, its colorings, so
    each source is searched to the end before the next is drawn.  A new node
    is skipped when some already admitted node embeds into it (anything it
    could contribute is then reachable from the smaller node as well).
    Every colored step fires a concrete rule, so the colored path with its
    colors dropped is a run from a source to t, and the rules are its
    steps."""
    require_weak(m)
    limit = len(m.states) + t.size
    cm = m.compiled(colored_machine)
    res = search(
        (source_colorings(m, s, limit) for s in sources),
        lambda node: colored_successors(m, node, uncolored_limit=limit),
        cm.encode(annotate(t)).__eq__,
        covered=_Embeddings(cm),
        max_nodes=max_nodes,
    )
    if res.cut:
        return Verdict("unknown", explored=res.explored, budget="max-explored")
    if res.path is None:
        return Verdict("unreachable", explored=res.explored)
    start = cm.decode(res.path[0])
    start = Configuration(start.state, tuple(tuple([e.base for e in w]) for w in start.stacks))
    return Verdict("reachable", Witness(start, res.labels), explored=res.explored)


def decide_wqo(m: Mpda, s: Configuration, t: Configuration) -> bool:
    """Exact reachability s -->* t for a weak machine and a single target."""
    return reach_wqo(m, (s,), t).reachable


def default_src_cap(L, t: Configuration) -> int:
    """Size bound on candidate sources drawn from a regular set."""
    n_states = len(L.mpda.states)
    n_l = max((len(nfa.states) for comp in L.components.values() for nfa in comp.nfas), default=0)
    return (t.size + n_states) * (n_l + 1) + n_l * L.mpda.stack_count
