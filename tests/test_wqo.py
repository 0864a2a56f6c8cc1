import itertools
import random

import pytest

from mpda.classify import NotWeak
from mpda.formats import parse_configuration, parse_mpda
from mpda.gadgets import anbncn, expo, nonreg_forward
from mpda.model import AnnotatedSymbol, Configuration, Mpda, StackSymbol, TransitionRule, Witness, annotate, replay, search
from mpda.oracle import OracleBudget, reach_config
from mpda.wqo import (
    _push_colorings,
    colored_leq,
    colored_machine,
    colored_successors,
    decide_wqo,
    default_src_cap,
    reach_wqo,
    source_colorings,
)
from mpda.regsets import enumerate_members, member, singleton

from helpers import fire, random_configuration, random_regset, random_weak_mpda


def cc(m, state, *stacks):
    """'~X B' -> the node of ((X, True), (B, False)) in the colored machine"""
    def word(w):
        out = []
        for tok in w.split():
            col = tok.startswith("~")
            out.append((m.symbol(tok.lstrip("~")), col))
        return tuple(out)

    return m.compiled(colored_machine).encode(Configuration(state, tuple(word(w) for w in stacks)))


def shown(m, node):
    """A node as its colored configuration."""
    return m.compiled(colored_machine).decode(node)


def leq(m, a, b):
    return colored_leq(m.compiled(colored_machine), a, b)


def size(m, node):
    return shown(m, node).size


def uncolored_count(c):
    """The uncolored entries of a colored configuration."""
    return sum(1 for w in c.stacks for _, bit in w if not bit)


def plain(c):
    return Configuration(c.state, tuple(tuple(sym for sym, _ in w) for w in c.stacks))


def children(m, node, uncolored_limit=None):
    return [nxt for _, nxt in colored_successors(m, node, uncolored_limit)]


@pytest.fixture
def m():
    return anbncn().mpda


class TestColoredLeq:
    def test_reflexive(self, m):
        a = cc(m, "q1", "X ~B D", "~C")
        assert leq(m, a, a)

    def test_removing_colored_entries(self, m):
        big = cc(m, "q1", "X ~B ~B D", "~C")
        assert leq(m, cc(m, "q1", "X ~B D", "~C"), big)
        assert leq(m, cc(m, "q1", "X D", ""), big)

    def test_uncolored_entries_may_not_be_dropped(self, m):
        big = cc(m, "q1", "X B D", "")
        assert not leq(m, cc(m, "q1", "X D", ""), big)

    def test_colors_must_agree_on_matches(self, m):
        assert not leq(m, cc(m, "q1", "~X", ""), cc(m, "q1", "X", ""))
        assert not leq(m, cc(m, "q1", "X", ""), cc(m, "q1", "~X", ""))

    def test_state_must_agree(self, m):
        assert not leq(m, cc(m, "q1", "", ""), cc(m, "q2", "", ""))

    def test_order_matters(self, m):
        big = cc(m, "q1", "~B X", "")
        assert leq(m, cc(m, "q1", "X", ""), big)
        assert not leq(m, cc(m, "q1", "X ~B", ""), big)


class TestColoredSuccessors:
    def test_colored_pop_pushes_all_colored(self, m):
        # X -> X B | C fired on a colored X: single variant, all colored
        r = cc(m, "q1", "~X", "")
        got = [c for c in children(m, r) if size(m, c) == 3]
        assert got == [cc(m, "q1", "~X ~B", "~C")]

    def test_uncolored_pop_enumerates_push_colorings(self, m):
        r = cc(m, "q1", "X", "")
        got = {str(shown(m, c)) for c in children(m, r) if size(m, c) == 3}
        # X -> X B | C is state-preserving: the all-colored variant is absent
        assert got == {
            "q1 : X B | C",
            "q1 : ~X B | C",
            "q1 : X ~B | C",
            "q1 : X B | ~C",
            "q1 : ~X ~B | C",
            "q1 : ~X B | ~C",
            "q1 : X ~B | ~C",
        }

    def test_state_preserving_eraser_has_no_uncolored_pop_variant(self):
        a = StackSymbol("A", 0)
        m = Mpda(("q",), ((a,),), (TransitionRule("q", a, "q", ((),)),))
        assert children(m, cc(m, "q", "A")) == []
        # a colored pop is still fine
        assert children(m, cc(m, "q", "~A")) == [cc(m, "q", "")]

    def test_state_changing_eraser_is_unrestricted(self, m):
        got = children(m, cc(m, "q1", "D", ""))
        assert got == [cc(m, "q2", "", "")]

    def test_no_colored_pop_for_state_changing_rules(self, m):
        # a state-changing step always consumes a relevance-carrying
        # occurrence, so a colored top cannot feed it
        assert children(m, cc(m, "q1", "~D", "")) == []

    def test_uncolored_limit_filters(self, m):
        r = cc(m, "q1", "X", "")
        got = children(m, r, uncolored_limit=2)
        assert got and all(uncolored_count(shown(m, c)) < 2 for c in got)


class TestSourceColorings:
    def test_counts_and_limit(self, m):
        s = Configuration("q1", ((m.symbol("X"), m.symbol("D")), ()))
        all_of_them = list(source_colorings(m, s, 3))
        assert len(all_of_them) == 4  # any subset of {X, D} uncolored
        capped = list(source_colorings(m, s, 1))
        assert capped == [cc(m, "q1", "~X ~D", "")]

    def test_underlying_configuration_is_preserved(self, m):
        s = Configuration("q1", ((m.symbol("X"),), (m.symbol("C"),)))
        for c in (shown(m, n) for n in source_colorings(m, s, 5)):
            assert tuple(tuple(sym for sym, _ in w) for w in c.stacks) == s.stacks


class TestDecide:
    def test_anbncn_final_state(self, m):
        src = Configuration("q1", ((m.symbol("X"), m.symbol("D")), ()))
        assert decide_wqo(m, src, Configuration("q2", ((), ())))
        assert not decide_wqo(m, src, Configuration("q2", ((m.symbol("X"),), ())))

    def test_nonreg_balance_law(self):
        inst = nonreg_forward()
        m = inst.mpda
        x, a, b = m.symbol("X"), m.symbol("A"), m.symbol("B")
        for k in range(3):
            for l in range(3):
                tgt = Configuration("q", ((x,) + (a,) * k, (b,) * l))
                assert decide_wqo(m, inst.source, tgt) == (k >= l)

    def test_expo_target(self):
        inst = expo(4)
        tgt = Configuration("q", ((inst.mpda.symbol("X4"),),))
        assert decide_wqo(inst.mpda, inst.source, tgt)
        bad = Configuration("q", ((inst.mpda.symbol("X1"), inst.mpda.symbol("X1")),))
        assert not decide_wqo(inst.mpda, inst.source, bad)

    def test_requires_weak(self):
        a = StackSymbol("A", 0)
        m = Mpda(
            ("p", "q"),
            ((a,),),
            (TransitionRule("p", a, "q", ((a,),)), TransitionRule("q", a, "p", ((a,),))),
        )
        with pytest.raises(NotWeak):
            decide_wqo(m, Configuration("p", ((a,),)), Configuration("q", ((a,),)))

    def test_agrees_with_complete_oracle(self):
        # size-nonincreasing rules keep the plain search complete at the
        # source size, so the oracle verdict is exact
        rng = random.Random(31)
        for _ in range(60):
            m = random_weak_mpda(rng, size_nonincreasing=True)
            s = random_configuration(rng, m, 3)
            t = random_configuration(rng, m, 3)
            v = reach_config(m, s, t, OracleBudget(max_config_size=s.size))
            assert v.status in ("reachable", "unreachable")
            assert decide_wqo(m, s, t) == v.reachable, f"{s} -> {t} on {m.rules}"


class TestWitness:
    def test_witnesses_replay_into_the_target(self):
        rng = random.Random(7)
        found = 0
        for _ in range(80):
            m = random_weak_mpda(rng)
            s = random_configuration(rng, m, 3)
            t = random_configuration(rng, m, 3)
            w = reach_wqo(m, (s,), t).witness
            assert (w is not None) == decide_wqo(m, s, t)
            if w is not None:
                found += 1
                assert w.start == s
                assert replay(m, w) == t, f"{s} -> {t} on {m.rules}"
        assert found > 10


class TestShortWitnesses:
    """Reachable instances with short runs on which a depth-first order
    dives past the witness: both were still undecided after 5,000 nodes."""

    @pytest.mark.parametrize("states, rules, source, target, steps", [
        pytest.param(
            "q0",
            ("q0 B1 -> q0 : A0 A1 |", "q0 B0 -> q0 : |", "q0 A1 -> q0 : | B1 B1", "q0 A0 -> q0 : | B1 B0",
             "q0 B0 -> q0 : | B0", "q0 B0 -> q0 : A1 | B0", "q0 A0 -> q0 : A1 |"),
            "q0 : A0 |", "q0 : A1 | B1 B1", 5, id="one-state"),
        pytest.param(
            "q0 q1",
            ("q0 B0 -> q1 : A1 |", "q1 A0 -> q1 : | B1 B1", "q1 B0 -> q1 : | B0", "q1 B1 -> q1 : A1 |",
             "q1 A1 -> q1 : A1 A0 |", "q1 A1 -> q1 : | B1"),
            "q0 : A0 | B0 B1", "q1 : A1 A0 A0 | B1", 2, id="two-state"),
    ])
    def test_found_within_a_small_budget(self, states, rules, source, target, steps):
        m = parse_mpda(
            f"mpda {{\n  states: {states}\n  stacks: 2\n  alphabet 1: A0 A1\n  alphabet 2: B0 B1\n"
            + "".join(f"  rule {r}\n" for r in rules) + "}\n"
        )
        s, t = parse_configuration(source, m), parse_configuration(target, m)
        v = reach_wqo(m, (s,), t, max_nodes=1000)
        assert v.status == "reachable" and len(v.witness.steps) == steps
        assert v.witness.start == s and replay(m, v.witness) == t


class TestRegToOne:
    def test_singleton_source(self):
        inst = nonreg_forward()
        m = inst.mpda
        L = singleton(m, inst.source)
        t = Configuration("q", ((), ()))
        v = reach_wqo(m, enumerate_members(L, default_src_cap(L, t)), t)
        assert v.reachable and v.witness.start == inst.source

    def test_unreachable_reports_cap(self, m):
        L = singleton(m, anbncn().source)
        t = Configuration("q2", ((m.symbol("X"),), ()))
        cap = default_src_cap(L, t)
        v = reach_wqo(m, enumerate_members(L, cap), t)
        assert v.status == "unreachable" and v.witness is None
        assert cap > 0 and v.explored > 0

    def test_annotate_round_trip(self, m):
        s = Configuration("q1", ((m.symbol("X"),), (m.symbol("C"),)))
        assert uncolored_count(annotate(s)) == 2
        assert uncolored_count(annotate(s, colored=True)) == 0
        assert plain(annotate(s)) == s

    def test_one_search_over_all_sources(self):
        # one search with one embedding index over every member of L
        # answers like a search from each member, and its witness starts at
        # the first member (in enumeration order) that reaches t
        rng = random.Random(21)
        reached = 0
        for _ in range(60):
            m = random_weak_mpda(rng)
            L = random_regset(rng, m)
            t = random_configuration(rng, m, 3)
            v = reach_wqo(m, enumerate_members(L, 2), t)
            first = next((s for s in enumerate_members(L, 2) if decide_wqo(m, s, t)), None)
            assert v.reachable == (first is not None), f"{t} on {m.rules}"
            assert v.status in ("reachable", "unreachable")
            if v.reachable:
                reached += 1
                assert v.witness.start == first
                assert member(L, v.witness.start)
                assert replay(m, v.witness) == t, f"{first} -> {t} on {m.rules}"
        assert reached > 10


# ------------------------------------------- the object-level reference search

def reference_leq(a, b):
    """colored_leq on configurations of (symbol, color) entries."""
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


class ReferenceEmbeddings:
    def __init__(self):
        self.buckets = {}

    @staticmethod
    def key(c):
        return c.state, tuple(tuple(sym for sym, bit in w if not bit) for w in c.stacks)

    def __contains__(self, c):
        return any(reference_leq(v, c) for v in self.buckets.get(self.key(c), ()))

    def add(self, c):
        self.buckets.setdefault(self.key(c), []).append(c)


def reference_source_colorings(s, limit):
    positions = [(i, p) for i, w in enumerate(s.stacks) for p in range(len(w))]
    for k in range(min(len(positions), limit - 1) + 1):
        for kept in map(set, itertools.combinations(positions, k)):
            yield Configuration(s.state, tuple(
                tuple(AnnotatedSymbol(sym, (i, p) not in kept) for p, sym in enumerate(w)) for i, w in enumerate(s.stacks)))


def reference_reach_wqo(m, sources, t, max_nodes=None):
    """The colored search over configurations of (symbol, color) entries:
    stack by stack, the rules popping the top in declaration order, each
    with its `_push_colorings` in order; every step is labeled with the
    rule it fired.  Returns (status, explored, witness)."""
    limit = len(m.states) + t.size
    target = annotate(t)

    def expand(c):
        for w in c.stacks:
            if not w:
                continue
            top, bit = w[0]
            for rule in m.rules:
                if rule.src == c.state and rule.pop == top:
                    for pushes in _push_colorings(rule, bit, m.stack_count):
                        nxt = fire(c, rule, pushes)
                        if uncolored_count(nxt) < limit:
                            yield rule, nxt

    res = search((reference_source_colorings(s, limit) for s in sources), expand, lambda c: c == target,
                 covered=ReferenceEmbeddings(), max_nodes=max_nodes)
    if res.cut:
        return "unknown", res.explored, None
    if res.path is None:
        return "unreachable", res.explored, None
    return "reachable", res.explored, Witness(plain(res.path[0]), res.labels)


class TestColoredMachine:
    def test_search_matches_the_object_level_reference(self):
        rng = random.Random(707)
        seen = set()
        for _ in range(220):
            m = random_weak_mpda(rng)
            t = random_configuration(rng, m, 3)
            if rng.random() < 0.25:
                sources = list(enumerate_members(random_regset(rng, m), 2))
            else:
                sources = [random_configuration(rng, m, 3)]
            for cap in (None, 1, 5, 30):
                v = reach_wqo(m, sources, t, max_nodes=cap)
                want = reference_reach_wqo(m, sources, t, max_nodes=cap)
                assert (v.status, v.explored, v.witness) == want, f"{sources} -> {t} on {m.rules}, cap {cap}"
                seen.add(v.status)
        assert seen == {"reachable", "unreachable", "unknown"}
