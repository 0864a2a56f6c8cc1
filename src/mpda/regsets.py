"""Regular sets of configurations.

A set is given per control state as one NFA per stack plus a set of accepting
state tuples.  The per-stack NFAs carry no acceptance of their own: a
configuration belongs to the set when, for some accepting tuple, every stack
word can drive its NFA from an initial state to the tuple's entry.

NFA states keep the names they were given (parsed sets, gadgets and
`singleton` use strings), but every automaton that a set operation builds
(`union`, `intersect`, `complement`, `pre_image`) has the states
0, 1, ..., n-1, and is built once, without renaming passes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .model import (
    Configuration,
    InputError,
    Mpda,
    StackSymbol,
    Word,
    _compositions,
)


class TooLarge(Exception):
    """A determinization exceeded the configured state budget."""


DEFAULT_DET_BUDGET = 4096

NfaState = str | int
# one stack of a component about to be numbered: (states, initials, edges)
_Part = tuple[tuple, Iterable, Iterable[tuple]]


@dataclass(frozen=True)
class StackNfa:
    """Nondeterministic automaton over one stack alphabet, without acceptance."""

    states: tuple[NfaState, ...]
    initials: frozenset[NfaState]
    edges: frozenset[tuple[NfaState, StackSymbol, NfaState]]

    def __post_init__(self):
        known = set(self.states)
        assert self.initials <= known
        assert all(s in known and t in known for s, _, t in self.edges)

    @cached_property
    def _delta(self) -> dict[tuple[NfaState, StackSymbol], set[NfaState]]:
        by_src: dict[tuple[NfaState, StackSymbol], set[NfaState]] = {}
        for s, a, t in self.edges:
            by_src.setdefault((s, a), set()).add(t)
        return by_src

    def step_set(self, source: frozenset[NfaState], sym: StackSymbol) -> frozenset[NfaState]:
        delta = self._delta
        out: set[NfaState] = set()
        for s in source:
            out |= delta.get((s, sym), set())
        return frozenset(out)

    def read(self, source: frozenset[NfaState], word: Word) -> frozenset[NfaState]:
        cur = source
        for sym in word:
            cur = self.step_set(cur, sym)
            if not cur:
                break
        return cur

    def coreachable(self) -> frozenset[NfaState]:
        """States reachable from the initials by any word."""
        succ: dict[NfaState, set[NfaState]] = {}
        for s, _, t in self.edges:
            succ.setdefault(s, set()).add(t)
        return frozenset(_closure(succ, self.initials))


def _closure(succ: dict, seeds: Iterable) -> set:
    """The nodes that `succ` (node -> its successors) leads to from `seeds`,
    the seeds included."""
    seen = set(seeds)
    todo = list(seen)
    while todo:
        for t in succ.get(todo.pop(), ()):
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


@dataclass(frozen=True)
class Component:
    nfas: tuple[StackNfa, ...]
    accept: frozenset[tuple[NfaState, ...]]


@dataclass
class RegSet:
    mpda: Mpda
    components: dict[str, Component]

    def __post_init__(self):
        for state, comp in self.components.items():
            if state not in self.mpda.states:
                raise InputError(f"component for unknown state {state!r}")
            if len(comp.nfas) != self.mpda.stack_count:
                raise InputError(f"component at {state!r} has {len(comp.nfas)} nfas")
            for tup in comp.accept:
                if len(tup) != self.mpda.stack_count:
                    raise InputError(f"accepting tuple {tup} has wrong arity")


def member(L: RegSet, c: Configuration) -> bool:
    comp = L.components.get(c.state)
    if comp is None:
        return False
    reached = [nfa.read(nfa.initials, w) for nfa, w in zip(comp.nfas, c.stacks)]
    return any(all(f in reached[i] for i, f in enumerate(tup)) for tup in comp.accept)


def singleton(m: Mpda, c: Configuration) -> RegSet:
    """The one-configuration set {c}, built from per-stack line automata."""
    nfas = []
    accept_entry = []
    for w in c.stacks:
        names = tuple(f"s{j}" for j in range(len(w) + 1))
        edges = frozenset((names[j], w[j], names[j + 1]) for j in range(len(w)))
        nfas.append(StackNfa(names, frozenset({names[0]}), edges))
        accept_entry.append(names[-1])
    comp = Component(tuple(nfas), frozenset({tuple(accept_entry)}))
    return RegSet(m, {c.state: comp})


def _parts(comp: Component) -> tuple[list[_Part], frozenset[tuple]]:
    return [(nfa.states, nfa.initials, nfa.edges) for nfa in comp.nfas], comp.accept


def _union_components(summands: list[tuple[list[_Part], Iterable[tuple]]]) -> Component:
    """Disjoint union of components given as per-stack (states, initials,
    edges) parts plus accepting tuples.  Each summand's states are numbered
    in order, after the states of the summands before it."""
    k = len(summands[0][0])
    sizes = [0] * k
    initials: list[set[int]] = [set() for _ in range(k)]
    edges: list[set[tuple[int, StackSymbol, int]]] = [set() for _ in range(k)]
    accept: set[tuple[int, ...]] = set()
    for parts, tuples in summands:
        pos = []
        for j, (states, inits, es) in enumerate(parts):
            p = {s: sizes[j] + i for i, s in enumerate(states)}
            initials[j].update(p[s] for s in inits)
            edges[j].update((p[s], a, p[t]) for s, a, t in es)
            sizes[j] += len(states)
            pos.append(p)
        accept.update(tuple(pos[j][f] for j, f in enumerate(tup)) for tup in tuples)
    nfas = tuple(StackNfa(tuple(range(n)), frozenset(i), frozenset(e)) for n, i, e in zip(sizes, initials, edges))
    return Component(nfas, frozenset(accept))


def union(L: RegSet, M: RegSet) -> RegSet:
    if L.mpda is not M.mpda and L.mpda != M.mpda:
        raise ValueError("regular sets over different machines")
    out = dict(L.components)
    for state, b in M.components.items():
        a = out.get(state)
        out[state] = b if a is None else _union_components([_parts(a), _parts(b)])
    return RegSet(L.mpda, out)


def _product(na: StackNfa, nb: StackNfa, alphabet: tuple[StackSymbol, ...]) -> tuple[StackNfa, dict[tuple, int]]:
    """The product of two automata over the pairs of states reachable from
    the initial pairs, numbered breadth-first (ties in state order, so the
    numbering does not depend on set iteration order), and that numbering."""
    pa = {s: i for i, s in enumerate(na.states)}
    pb = {t: j for j, t in enumerate(nb.states)}

    def key(pair: tuple) -> tuple[int, int]:
        return pa[pair[0]], pb[pair[1]]

    order = sorted(itertools.product(na.initials, nb.initials), key=key)
    number = {pair: i for i, pair in enumerate(order)}
    edges = set()
    for s, t in order:  # grows while it is walked
        src = number[(s, t)]
        for sym in alphabet:
            for nxt in sorted(itertools.product(na._delta.get((s, sym), ()), nb._delta.get((t, sym), ())), key=key):
                if nxt not in number:
                    number[nxt] = len(order)
                    order.append(nxt)
                edges.add((src, sym, number[nxt]))
    initials = frozenset(range(len(na.initials) * len(nb.initials)))
    return StackNfa(tuple(range(len(order))), initials, frozenset(edges)), number


def intersect(L: RegSet, M: RegSet) -> RegSet:
    if L.mpda is not M.mpda and L.mpda != M.mpda:
        raise ValueError("regular sets over different machines")
    out: dict[str, Component] = {}
    for state in L.components.keys() & M.components.keys():
        a = L.components[state]
        b = M.components[state]
        nfas, numbers = zip(*(_product(na, nb, alpha) for na, nb, alpha in zip(a.nfas, b.nfas, L.mpda.alphabets)))
        accept = set()
        for ta in a.accept:
            for tb in b.accept:
                tup = tuple(number.get(pair) for number, pair in zip(numbers, zip(ta, tb)))
                if None not in tup:  # a pair no word reaches accepts nothing
                    accept.add(tup)
        out[state] = Component(nfas, frozenset(accept))
    return RegSet(L.mpda, out)


def _reached_pairs(na: StackNfa, nb: StackNfa, alphabet: tuple[StackSymbol, ...]) -> set[tuple]:
    """The pairs of states of two automata that some word leads to from an
    initial pair: the states of their `_product`, unnumbered."""
    da, db = na._delta, nb._delta
    seen = set(itertools.product(na.initials, nb.initials))
    todo = list(seen)
    while todo:
        s, t = todo.pop()
        for sym in alphabet:
            for pair in itertools.product(da.get((s, sym), ()), db.get((t, sym), ())):
                if pair not in seen:
                    seen.add(pair)
                    todo.append(pair)
    return seen


def meets(L: RegSet, M: RegSet) -> bool:
    """Whether L and M share a member: `not is_empty(intersect(L, M))`,
    without numbering or building the product automata."""
    if L.mpda is not M.mpda and L.mpda != M.mpda:
        raise ValueError("regular sets over different machines")
    for state in L.components.keys() & M.components.keys():
        a = L.components[state]
        b = M.components[state]
        if not a.accept or not b.accept:  # as complements often are at some states
            continue
        reached = [_reached_pairs(na, nb, alpha) for na, nb, alpha in zip(a.nfas, b.nfas, L.mpda.alphabets)]
        for ta in a.accept:
            for tb in b.accept:
                if all(pair in pairs for pairs, pair in zip(reached, zip(ta, tb))):
                    return True
    return False


def _determinize(nfa: StackNfa, alphabet: tuple[StackSymbol, ...], budget: int) -> tuple[StackNfa, list[frozenset[NfaState]]]:
    """Complete subset automaton whose states are the subset indices; the
    returned list maps each index to its subset (0 is the initial subset)."""
    subsets: list[frozenset[NfaState]] = [frozenset(nfa.initials)]
    index = {subsets[0]: 0}
    edges = set()
    todo = [subsets[0]]
    while todo:
        cur = todo.pop()
        for sym in alphabet:
            nxt = nfa.step_set(cur, sym)
            if nxt not in index:
                if len(subsets) >= budget:
                    raise TooLarge(f"determinization exceeds budget of {budget} states")
                index[nxt] = len(subsets)
                subsets.append(nxt)
                todo.append(nxt)
            edges.add((index[cur], sym, index[nxt]))
    return StackNfa(tuple(range(len(subsets))), frozenset({0}), frozenset(edges)), subsets


def complement(L: RegSet, m: Mpda | None = None, budget: int = DEFAULT_DET_BUDGET) -> RegSet:
    m = m if m is not None else L.mpda
    out: dict[str, Component] = {}
    for state in m.states:
        comp = L.components.get(state)
        if comp is None:
            # everything at this state is in the complement
            nfas = tuple(StackNfa((0,), frozenset({0}), frozenset((0, sym, 0) for sym in alpha)) for alpha in m.alphabets)
            out[state] = Component(nfas, frozenset({(0,) * m.stack_count}))
            continue
        dets, subset_lists = zip(*(_determinize(nfa, alpha, budget) for nfa, alpha in zip(comp.nfas, m.alphabets)))
        if math.prod(map(len, subset_lists)) > budget * budget:
            raise TooLarge("accepting-tuple table of the complement is too large")
        accept = set()
        for combo in itertools.product(*(range(len(s)) for s in subset_lists)):
            covered = any(
                all(tup[i] in subset_lists[i][combo[i]] for i in range(len(combo)))
                for tup in comp.accept
            )
            if not covered:
                accept.add(combo)
        out[state] = Component(dets, frozenset(accept))
    return RegSet(m, out)


def is_empty(L: RegSet) -> bool:
    for comp in L.components.values():
        reach = [nfa.coreachable() for nfa in comp.nfas]
        for tup in comp.accept:
            if all(f in reach[i] for i, f in enumerate(tup)):
                return False
    return True


def is_subset(L: RegSet, M: RegSet, budget: int = DEFAULT_DET_BUDGET) -> bool:
    return not meets(L, complement(M, L.mpda, budget))


def enumerate_members(L: RegSet, max_size: int) -> Iterator[Configuration]:
    """Members of size at most max_size, ordered by (state, size, stack words).

    Walks the stack automata directly, so sparse sets stay cheap even for
    large size bounds: a prefix is abandoned once its reachable state set
    can no longer hit any accepting projection.
    """
    m = L.mpda
    for state in sorted(L.components):
        comp = L.components[state]
        # per stack: words grouped by length, each with its reachable set;
        # the words of length n are built when the sizes reach n
        live: list[list[list[tuple[Word, frozenset[NfaState]]]]] = []
        useful: list[set[NfaState]] = []
        for j, nfa in enumerate(comp.nfas):
            pred: dict[NfaState, set[NfaState]] = {}
            for s, _, t in nfa.edges:
                pred.setdefault(t, set()).add(s)
            useful.append(_closure(pred, {tup[j] for tup in comp.accept}))
            live.append([[((), nfa.initials)]] if nfa.initials & useful[j] else [[]])
        for total in range(max_size + 1):
            if total:
                for j, (nfa, layers) in enumerate(zip(comp.nfas, live)):
                    layers.append([(word + (sym,), after) for word, cur in layers[-1] for sym in m.alphabets[j]
                                   if (after := nfa.step_set(cur, sym)) & useful[j]])
            batch = []
            for lens in _compositions(total, m.stack_count):
                for picks in itertools.product(*(live[j][lens[j]] for j in range(m.stack_count))):
                    reached = [cur for _, cur in picks]
                    if any(all(f in reached[i] for i, f in enumerate(tup)) for tup in comp.accept):
                        batch.append(Configuration(state, tuple(w for w, _ in picks)))
            batch.sort()
            yield from batch


def pre_image(m: Mpda, M: RegSet) -> RegSet:
    """The set of configurations with some one-step successor in M: the
    union of its `_pre_summands` at each state."""
    summands: dict[str, list[tuple[list[_Part], frozenset[tuple]]]] = {}
    for state, parts, accept in _pre_summands(m, M):
        summands.setdefault(state, []).append((parts, accept))
    return RegSet(m, {state: _union_components(summed) for state, summed in summands.items()})


def _pre_summands(m: Mpda, M: RegSet) -> Iterator[tuple[str, list[_Part], frozenset[tuple]]]:
    """The summands of `pre_image(m, M)`, as `(state, parts, accepting
    tuples)` for `_union_components`.  Each rule into a component of M gives
    one, at its source state, unless a pushed word leads nowhere: the popped
    stack's automaton gets a new initial state `None` (number n after the n
    old ones once numbered) with an edge reading the popped symbol to
    wherever the pushed word leads, and every other stack starts where its
    pushed word leads."""
    for rule in m.rules:
        comp = M.components.get(rule.dst)
        if comp is None:
            continue
        parts: list[_Part] = []
        for j, nfa in enumerate(comp.nfas):
            after_push = nfa.read(nfa.initials, rule.push[j])
            if not after_push:
                # no nfa state survives reading the pushed word: the summand
                # accepts nothing (the popped stack only reaches states via it)
                break
            if j == rule.pop.stack:
                new = None  # names are strings or numbers, so this one is fresh
                parts.append((nfa.states + (new,), (new,), itertools.chain(nfa.edges, [(new, rule.pop, t) for t in after_push])))
            else:
                parts.append((nfa.states, after_push, nfa.edges))
        else:  # every stack survived its pushed word
            yield rule.src, parts, comp.accept
