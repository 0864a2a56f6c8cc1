"""Regular sets of configurations.

A set is given per control state as one NFA per stack plus a set of accepting
state tuples.  The per-stack NFAs carry no acceptance of their own: a
configuration belongs to the set when, for some accepting tuple, every stack
word can drive its NFA from an initial state to the tuple's entry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

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


@dataclass(frozen=True)
class StackNfa:
    """Nondeterministic automaton over one stack alphabet, without acceptance."""

    states: tuple[str, ...]
    initials: frozenset[str]
    edges: frozenset[tuple[str, StackSymbol, str]]

    def __post_init__(self):
        known = set(self.states)
        assert self.initials <= known
        assert all(s in known and t in known for s, _, t in self.edges)
        by_src: dict[tuple[str, StackSymbol], set[str]] = {}
        for s, a, t in self.edges:
            by_src.setdefault((s, a), set()).add(t)
        object.__setattr__(self, "_delta", by_src)

    def step_set(self, source: frozenset[str], sym: StackSymbol) -> frozenset[str]:
        delta = self._delta  # type: ignore[attr-defined]
        out: set[str] = set()
        for s in source:
            out |= delta.get((s, sym), set())
        return frozenset(out)

    def read(self, source: frozenset[str], word: Word) -> frozenset[str]:
        cur = source
        for sym in word:
            cur = self.step_set(cur, sym)
            if not cur:
                break
        return cur

    def coreachable(self) -> frozenset[str]:
        """States reachable from the initials by any word."""
        seen = set(self.initials)
        todo = list(seen)
        succ: dict[str, set[str]] = {}
        for s, _, t in self.edges:
            succ.setdefault(s, set()).add(t)
        while todo:
            s = todo.pop()
            for t in succ.get(s, ()):
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        return frozenset(seen)


@dataclass(frozen=True)
class Component:
    nfas: tuple[StackNfa, ...]
    accept: frozenset[tuple[str, ...]]


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


def empty_regset(m: Mpda) -> RegSet:
    return RegSet(m, {})


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


def _rename(nfa: StackNfa, tag: str) -> tuple[StackNfa, dict[str, str]]:
    fmap = {s: f"{tag}{i}" for i, s in enumerate(nfa.states)}
    renamed = StackNfa(
        tuple(fmap[s] for s in nfa.states),
        frozenset(fmap[s] for s in nfa.initials),
        frozenset((fmap[s], a, fmap[t]) for s, a, t in nfa.edges),
    )
    return renamed, fmap


def _canonical(comp: Component) -> Component:
    nfas = []
    maps = []
    for nfa in comp.nfas:
        renamed, fmap = _rename(nfa, "s")
        nfas.append(renamed)
        maps.append(fmap)
    accept = frozenset(tuple(maps[i][f] for i, f in enumerate(tup)) for tup in comp.accept)
    return Component(tuple(nfas), accept)


def _union_components(a: Component, b: Component) -> Component:
    nfas = []
    amaps = []
    bmaps = []
    for na, nb in zip(a.nfas, b.nfas):
        ra, ma = _rename(na, "a")
        rb, mb = _rename(nb, "b")
        nfas.append(StackNfa(ra.states + rb.states, ra.initials | rb.initials, ra.edges | rb.edges))
        amaps.append(ma)
        bmaps.append(mb)
    accept = frozenset(tuple(amaps[i][f] for i, f in enumerate(t)) for t in a.accept)
    accept |= frozenset(tuple(bmaps[i][f] for i, f in enumerate(t)) for t in b.accept)
    return _canonical(Component(tuple(nfas), accept))


def union(L: RegSet, M: RegSet) -> RegSet:
    if L.mpda is not M.mpda and L.mpda != M.mpda:
        raise ValueError("regular sets over different machines")
    out: dict[str, Component] = {}
    for state in set(L.components) | set(M.components):
        a = L.components.get(state)
        b = M.components.get(state)
        if a is None:
            out[state] = _canonical(b)  # type: ignore[arg-type]
        elif b is None:
            out[state] = _canonical(a)
        else:
            out[state] = _union_components(a, b)
    return RegSet(L.mpda, out)


def intersect(L: RegSet, M: RegSet) -> RegSet:
    if L.mpda is not M.mpda and L.mpda != M.mpda:
        raise ValueError("regular sets over different machines")
    out: dict[str, Component] = {}
    for state in set(L.components) & set(M.components):
        a = L.components[state]
        b = M.components[state]
        nfas = []
        for na, nb in zip(a.nfas, b.nfas):
            pairs = [(s, t) for s in na.states for t in nb.states]
            name = {p: f"{p[0]}*{p[1]}" for p in pairs}
            edges = set()
            for s1, sym, t1 in na.edges:
                for s2, sym2, t2 in nb.edges:
                    if sym == sym2:
                        edges.add((name[(s1, s2)], sym, name[(t1, t2)]))
            nfas.append(StackNfa(
                tuple(name[p] for p in pairs),
                frozenset(name[(s, t)] for s in na.initials for t in nb.initials),
                frozenset(edges),
            ))
        accept = frozenset(
            tuple(f"{ta[i]}*{tb[i]}" for i in range(len(ta)))
            for ta in a.accept
            for tb in b.accept
        )
        out[state] = _canonical(Component(tuple(nfas), accept))
    return RegSet(L.mpda, out)


def _determinize(nfa: StackNfa, alphabet: tuple[StackSymbol, ...], budget: int) -> tuple[StackNfa, list[frozenset[str]]]:
    """Complete subset automaton; the returned list maps new state index to
    the corresponding subset (index 0 is the initial subset)."""
    subsets: list[frozenset[str]] = [frozenset(nfa.initials)]
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
            edges.add((f"d{index[cur]}", sym, f"d{index[nxt]}"))
    det = StackNfa(
        tuple(f"d{i}" for i in range(len(subsets))),
        frozenset({"d0"}),
        frozenset(edges),
    )
    return det, subsets


def complement(L: RegSet, m: Mpda | None = None, budget: int = DEFAULT_DET_BUDGET) -> RegSet:
    m = m if m is not None else L.mpda
    out: dict[str, Component] = {}
    for state in m.states:
        comp = L.components.get(state)
        if comp is None:
            # everything at this state is in the complement
            nfas = []
            for i, alpha in enumerate(m.alphabets):
                edges = frozenset(("u", sym, "u") for sym in alpha)
                nfas.append(StackNfa(("u",), frozenset({"u"}), edges))
            out[state] = Component(tuple(nfas), frozenset({tuple("u" for _ in m.alphabets)}))
            continue
        dets = []
        subset_lists = []
        for i, nfa in enumerate(comp.nfas):
            det, subsets = _determinize(nfa, m.alphabets[i], budget)
            dets.append(det)
            subset_lists.append(subsets)
        if _product_size(subset_lists) > budget * budget:
            raise TooLarge("accepting-tuple table of the complement is too large")
        accept = set()
        for combo in itertools.product(*(range(len(s)) for s in subset_lists)):
            covered = any(
                all(tup[i] in subset_lists[i][combo[i]] for i in range(len(combo)))
                for tup in comp.accept
            )
            if not covered:
                accept.add(tuple(f"d{j}" for j in combo))
        out[state] = Component(tuple(dets), frozenset(accept))
    return RegSet(m, out)


def _product_size(lists) -> int:
    n = 1
    for s in lists:
        n *= len(s)
    return n


def is_empty(L: RegSet) -> bool:
    for comp in L.components.values():
        reach = [nfa.coreachable() for nfa in comp.nfas]
        for tup in comp.accept:
            if all(f in reach[i] for i, f in enumerate(tup)):
                return False
    return True


def is_subset(L: RegSet, M: RegSet, budget: int = DEFAULT_DET_BUDGET) -> bool:
    return is_empty(intersect(L, complement(M, L.mpda, budget)))


def enumerate_members(L: RegSet, max_size: int) -> Iterator[Configuration]:
    """Members of size at most max_size, ordered by (state, size, stack words).

    Walks the stack automata directly, so sparse sets stay cheap even for
    large size bounds: a prefix is abandoned once its reachable state set
    can no longer hit any accepting projection.
    """
    m = L.mpda
    for state in sorted(L.components):
        comp = L.components[state]
        # per stack: words grouped by length, each with its reachable set
        live: list[list[list[tuple[Word, frozenset[str]]]]] = []
        for j, nfa in enumerate(comp.nfas):
            pred: dict[str, set[str]] = {}
            for s, _, t in nfa.edges:
                pred.setdefault(t, set()).add(s)
            useful = set(tup[j] for tup in comp.accept)
            todo = list(useful)
            while todo:
                t = todo.pop()
                for s in pred.get(t, ()):
                    if s not in useful:
                        useful.add(s)
                        todo.append(s)
            layers = [[((), nfa.initials)]] if nfa.initials & useful else [[]]
            for _ in range(max_size):
                nxt = []
                for word, cur in layers[-1]:
                    for sym in m.alphabets[j]:
                        after = nfa.step_set(cur, sym)
                        if after & useful:
                            nxt.append((word + (sym,), after))
                layers.append(nxt)
            live.append(layers)
        for total in range(max_size + 1):
            batch = []
            for lens in _compositions(total, m.stack_count):
                for picks in itertools.product(*(live[j][lens[j]] for j in range(m.stack_count))):
                    reached = [cur for _, cur in picks]
                    if any(all(f in reached[i] for i, f in enumerate(tup)) for tup in comp.accept):
                        batch.append(Configuration(state, tuple(w for w, _ in picks)))
            batch.sort(key=lambda c: tuple(tuple(s.name for s in w) for w in c.stacks))
            yield from batch


def pre_image(m: Mpda, M: RegSet, budget: int = DEFAULT_DET_BUDGET) -> RegSet:
    """The set of configurations with some one-step successor in M."""
    summands: dict[str, list[Component]] = {}
    for rule in m.rules:
        comp = M.components.get(rule.dst)
        if comp is None:
            continue
        i0 = rule.pop.stack
        nfas: list[StackNfa] = []
        dead = False
        for j, nfa in enumerate(comp.nfas):
            after_push = nfa.read(nfa.initials, rule.push[j])
            if not after_push:
                # no nfa state survives reading the pushed word: the summand
                # accepts nothing (the popped stack only reaches states via it)
                dead = True
                break
            if j == i0:
                fresh = "pre"
                while fresh in nfa.states:
                    fresh += "_"
                edges = set(nfa.edges)
                edges |= {(fresh, rule.pop, t) for t in after_push}
                nfas.append(StackNfa((fresh,) + nfa.states, frozenset({fresh}), frozenset(edges)))
            else:
                nfas.append(StackNfa(nfa.states, after_push, nfa.edges))
        if dead:
            continue
        summands.setdefault(rule.src, []).append(_canonical(Component(tuple(nfas), comp.accept)))
    out: dict[str, Component] = {}
    for state, comps in summands.items():
        acc = comps[0]
        for other in comps[1:]:
            acc = _union_components(acc, other)
        out[state] = acc
    return RegSet(m, out)
