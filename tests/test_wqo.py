import random

import pytest

from mpda.classify import NotWeak
from mpda.gadgets import anbncn, expo, nonreg_forward
from mpda.model import AnnotatedConfiguration, Configuration, Mpda, StackSymbol, TransitionRule, annotate, replay
from mpda.oracle import OracleBudget, reach_config
from mpda.wqo import (
    colored_leq,
    colored_successors,
    decide_wqo,
    default_src_cap,
    reach_wqo,
    source_colorings,
)
from mpda.regsets import enumerate_members, member, singleton

from helpers import random_configuration, random_regset, random_weak_mpda


def cc(m, state, *stacks):
    """'~X B' -> ((X, True), (B, False))"""
    def word(w):
        out = []
        for tok in w.split():
            col = tok.startswith("~")
            out.append((m.symbol(tok.lstrip("~")), col))
        return tuple(out)

    return AnnotatedConfiguration(state, tuple(word(w) for w in stacks))


@pytest.fixture
def m():
    return anbncn().mpda


class TestColoredLeq:
    def test_reflexive(self, m):
        a = cc(m, "q1", "X ~B D", "~C")
        assert colored_leq(a, a)

    def test_removing_colored_entries(self, m):
        big = cc(m, "q1", "X ~B ~B D", "~C")
        assert colored_leq(cc(m, "q1", "X ~B D", "~C"), big)
        assert colored_leq(cc(m, "q1", "X D", ""), big)

    def test_uncolored_entries_may_not_be_dropped(self, m):
        big = cc(m, "q1", "X B D", "")
        assert not colored_leq(cc(m, "q1", "X D", ""), big)

    def test_colors_must_agree_on_matches(self, m):
        assert not colored_leq(cc(m, "q1", "~X", ""), cc(m, "q1", "X", ""))
        assert not colored_leq(cc(m, "q1", "X", ""), cc(m, "q1", "~X", ""))

    def test_state_must_agree(self, m):
        assert not colored_leq(cc(m, "q1", "", ""), cc(m, "q2", "", ""))

    def test_order_matters(self, m):
        big = cc(m, "q1", "~B X", "")
        assert colored_leq(cc(m, "q1", "X", ""), big)
        assert not colored_leq(cc(m, "q1", "X ~B", ""), big)


class TestColoredSuccessors:
    def test_colored_pop_pushes_all_colored(self, m):
        # X -> X B | C fired on a colored X: single variant, all colored
        r = cc(m, "q1", "~X", "")
        got = [c for c in colored_successors(m, r) if c.size == 3]
        assert got == [cc(m, "q1", "~X ~B", "~C")]

    def test_uncolored_pop_enumerates_push_colorings(self, m):
        r = cc(m, "q1", "X", "")
        got = {str(c) for c in colored_successors(m, r) if c.size == 3}
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
        assert colored_successors(m, cc(m, "q", "A")) == []
        # a colored pop is still fine
        assert colored_successors(m, cc(m, "q", "~A")) == [cc(m, "q", "")]

    def test_state_changing_eraser_is_unrestricted(self, m):
        got = colored_successors(m, cc(m, "q1", "D", ""))
        assert got == [cc(m, "q2", "", "")]

    def test_no_colored_pop_for_state_changing_rules(self, m):
        # a state-changing step always consumes a relevance-carrying
        # occurrence, so a colored top cannot feed it
        assert colored_successors(m, cc(m, "q1", "~D", "")) == []

    def test_uncolored_limit_filters(self, m):
        r = cc(m, "q1", "X", "")
        got = colored_successors(m, r, uncolored_limit=2)
        assert got and all(c.uncolored_count < 2 for c in got)


class TestSourceColorings:
    def test_counts_and_limit(self, m):
        s = Configuration("q1", ((m.symbol("X"), m.symbol("D")), ()))
        all_of_them = list(source_colorings(s, 3))
        assert len(all_of_them) == 4  # any subset of {X, D} uncolored
        capped = list(source_colorings(s, 1))
        assert capped == [cc(m, "q1", "~X ~D", "")]

    def test_underlying_configuration_is_preserved(self, m):
        s = Configuration("q1", ((m.symbol("X"),), (m.symbol("C"),)))
        for c in source_colorings(s, 5):
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
        assert annotate(s).uncolored_count == 2
        assert annotate(s, colored=True).uncolored_count == 0
        assert annotate(s).plain == s

    def test_one_search_over_all_sources(self):
        # one DFS with one embedding index over every member of L answers
        # like a search from each member, and its witness starts at the
        # first member (in enumeration order) that reaches t
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
