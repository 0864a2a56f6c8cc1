import itertools
import random

import pytest

from mpda.formats import parse_regset, serialize_regset
from mpda.gadgets import anbncn, expo
from mpda.model import Configuration, Mpda, StackSymbol, successors
from mpda.regsets import (
    Component,
    RegSet,
    StackNfa,
    TooLarge,
    complement,
    enumerate_members,
    intersect,
    is_empty,
    is_subset,
    meets,
    member,
    pre_image,
    singleton,
    union,
)

from helpers import all_configurations, empty_regset, random_configuration, random_regset, random_weak_mpda


@pytest.fixture
def m():
    return anbncn().mpda


def cfg(m, state, *stacks):
    return Configuration(state, tuple(tuple(m.symbol(n) for n in w.split()) for w in stacks))


def odd_or_even_set(m):
    """At q1: stack-1 length odd and stack-2 top is C, or stack-1 length even
    and stack-2 length odd.  Exercises the accepting-tuple coupling."""
    x, b, d, c = m.symbol("X"), m.symbol("B"), m.symbol("D"), m.symbol("C")
    parity = StackNfa(
        ("e", "o"),
        frozenset({"e"}),
        frozenset((s, a, t) for a in (x, b, d) for s, t in (("e", "o"), ("o", "e"))),
    )
    # stack 2: u0 -C-> top_seen, then anything; separately track parity
    top = StackNfa(
        ("u0", "u1", "e2", "o2"),
        frozenset({"u0", "e2"}),
        frozenset({("u0", c, "u1"), ("u1", c, "u1"), ("e2", c, "o2"), ("o2", c, "e2")}),
    )
    comp = Component((parity, top), frozenset({("o", "u1"), ("e", "o2")}))
    return RegSet(m, {"q1": comp})


class TestMember:
    def test_tuple_coupling(self, m):
        L = odd_or_even_set(m)
        assert member(L, cfg(m, "q1", "X", "C C"))       # odd & top C
        assert member(L, cfg(m, "q1", "X B", "C"))       # even & odd
        assert not member(L, cfg(m, "q1", "X B", "C C"))
        assert not member(L, cfg(m, "q1", "X", ""))      # odd but no top C
        assert not member(L, cfg(m, "q2", "X", "C"))     # no component at q2

    def test_singleton(self, m):
        c = cfg(m, "q1", "X D", "C")
        L = singleton(m, c)
        assert member(L, c)
        for other in itertools.islice(all_configurations(m, 3), 500):
            assert member(L, other) == (other == c)

    def test_empty(self, m):
        assert is_empty(empty_regset(m))
        assert not is_empty(singleton(m, cfg(m, "q1", "", "")))


class TestEnumerate:
    def test_order_and_content(self, m):
        # A*X-like set on stack 1: any number of B below a single X? use X B*
        x, b = m.symbol("X"), m.symbol("B")
        nfa1 = StackNfa(("a", "z"), frozenset({"a"}), frozenset({("a", x, "z"), ("z", b, "z")}))
        nfa2 = StackNfa(("i",), frozenset({"i"}), frozenset())
        L = RegSet(m, {"q1": Component((nfa1, nfa2), frozenset({("z", "i")}))})
        got = list(enumerate_members(L, 2))
        assert got == [cfg(m, "q1", "X", ""), cfg(m, "q1", "X B", "")]

    def test_builds_words_only_as_far_as_it_yields(self, monkeypatch):
        # all words over two symbols: 2^17 - 2 nonempty ones up to size 16,
        # and the first member, the empty stack, needs none of them
        a, b = StackSymbol("A", 0), StackSymbol("B", 0)
        m = Mpda(("q",), ((a, b),), ())
        nfa = StackNfa((0,), frozenset({0}), frozenset({(0, a, 0), (0, b, 0)}))
        L = RegSet(m, {"q": Component((nfa,), frozenset({(0,)}))})
        calls = 0
        step_set = StackNfa.step_set

        def counted(self, *args):
            nonlocal calls
            calls += 1
            return step_set(self, *args)

        monkeypatch.setattr(StackNfa, "step_set", counted)
        members = enumerate_members(L, 16)
        assert next(members) == Configuration("q", ((),))
        assert calls == 0
        assert next(members) == Configuration("q", ((a,),))
        assert calls == 2


class TestAlgebraAgainstEnumeration:
    def check_pair(self, m, L, M, probe):
        u = union(L, M)
        n = intersect(L, M)
        for c in probe:
            assert member(u, c) == (member(L, c) or member(M, c))
            assert member(n, c) == (member(L, c) and member(M, c))
        cl = complement(L, m)
        for c in probe:
            assert member(cl, c) != member(L, c)
        # involution on membership
        cc = complement(cl, m)
        for c in probe:
            assert member(cc, c) == member(L, c)
        assert is_subset(n, L) and is_subset(n, M)
        assert is_subset(L, u) and is_subset(M, u)

    def test_random_pairs(self):
        rng = random.Random(777)
        for _ in range(15):
            m = random_weak_mpda(rng)
            probe = list(all_configurations(m, 3))
            L = random_regset(rng, m)
            M = random_regset(rng, m)
            self.check_pair(m, L, M, probe)

    def test_subset_decided_exactly(self, m):
        L = odd_or_even_set(m)
        assert is_subset(L, L)
        assert is_subset(empty_regset(m), L)
        assert not is_subset(L, singleton(m, cfg(m, "q1", "X", "C")))


class TestMeets:
    def test_agrees_with_the_built_intersection(self):
        rng = random.Random(4242)
        seen = set()
        for n in range(400):
            m = random_weak_mpda(rng, stacks=1 + n % 3)
            L = random_regset(rng, m, max_nfa_states=1 + n % 4)
            M = random_regset(rng, m, max_nfa_states=1 + n % 4)
            got = meets(L, M)
            assert got == (not is_empty(intersect(L, M))), n
            assert meets(M, L) == got
            seen.add(got)
        assert seen == {True, False}

    def test_coupled_tuples(self, m):
        L = odd_or_even_set(m)
        assert meets(L, L)
        assert meets(L, singleton(m, cfg(m, "q1", "X", "C")))
        assert not meets(L, singleton(m, cfg(m, "q1", "X", "")))
        assert not meets(L, empty_regset(m))

    def test_sets_over_different_machines(self, m):
        with pytest.raises(ValueError):
            meets(empty_regset(m), empty_regset(expo(2).mpda))


class TestComplementBudget:
    def test_too_large(self, m):
        L = odd_or_even_set(m)
        with pytest.raises(TooLarge):
            complement(L, m, budget=2)

    def test_absent_state_complemented_to_everything(self, m):
        L = odd_or_even_set(m)
        cl = complement(L, m)
        assert member(cl, cfg(m, "q2", "X B D", "C"))


class TestPreImage:
    def test_pointwise_on_fixture(self):
        inst = anbncn()
        P = pre_image(inst.mpda, inst.target)
        for s in all_configurations(inst.mpda, 3):
            want = any(member(inst.target, nc) for _, nc in successors(inst.mpda, s))
            assert member(P, s) == want, str(s)

    def test_pointwise_random(self):
        rng = random.Random(2024)
        for _ in range(25):
            m = random_weak_mpda(rng)
            M = random_regset(rng, m)
            P = pre_image(m, M)
            for s in all_configurations(m, 3):
                want = any(member(M, nc) for _, nc in successors(m, s))
                assert member(P, s) == want, f"{s} on {m.rules}"

    def test_requires_pop_on_top(self, m):
        # predecessors of the empty q2 configuration must pop D or C
        tgt = singleton(m, cfg(m, "q2", "", ""))
        P = pre_image(m, tgt)
        assert member(P, cfg(m, "q1", "D", ""))
        assert member(P, cfg(m, "q2", "", "C"))
        assert not member(P, cfg(m, "q1", "X D", ""))  # needs two steps


class TestNumberedResults:
    def test_results_survive_a_text_round_trip(self):
        rng = random.Random(31)
        for _ in range(20):
            m = random_weak_mpda(rng)
            probe = list(all_configurations(m, 3))
            L, M = random_regset(rng, m), random_regset(rng, m)
            same = union(L, L), intersect(L, L)
            results = (*same, union(L, M), intersect(L, M), complement(L, m), pre_image(m, M))
            for R in results:
                back = parse_regset(serialize_regset(R), m)
                for c in probe:
                    assert member(back, c) == member(R, c), f"{c} in\n{serialize_regset(R)}"
            for R in same:
                for c in probe:
                    assert member(R, c) == member(L, c)

    def test_operations_number_their_states(self):
        rng = random.Random(32)
        for _ in range(20):
            m = random_weak_mpda(rng)
            L, M = random_regset(rng, m), random_regset(rng, m)
            for R in (union(L, L), intersect(L, M), complement(L, m), pre_image(m, M)):
                for comp in R.components.values():
                    for nfa in comp.nfas:
                        assert nfa.states == tuple(range(len(nfa.states)))
