import random

import pytest

from mpda.gadgets import anbncn, comm_free_counters, expo, nonreg_forward
from mpda.model import Cancel, Configuration, InvalidWitness, Mpda, StackSymbol, TransitionRule, Witness, replay
from mpda.oracle import (
    OracleBudget,
    SourceNotInL,
    bfs_reach,
    is_fully_active,
    reach_config,
    shrink_source,
)
from mpda.regsets import Component, RegSet, StackNfa, member, singleton, union
from mpda.wqo import decide_wqo

from helpers import (
    ReferenceResult, macro_example, random_configuration, random_regset, random_walk, random_weak_mpda, reference_bfs, rule_steps,
    shortest_path_length,
)


def cfg(m, state, *stacks):
    return Configuration(state, tuple(tuple(m.symbol(n) for n in w.split()) for w in stacks))


class TestBfs:
    def test_reachable_with_shortest_witness(self):
        inst = anbncn()
        v = reach_config(inst.mpda, inst.source, cfg(inst.mpda, "q2", "", ""), OracleBudget(6))
        assert v.reachable
        assert replay(inst.mpda, v.witness) == cfg(inst.mpda, "q2", "", "")
        assert len(v.witness.steps) == 2  # X -> eps, then D -> q2

    def test_unreachable_complete_under_size_cap(self):
        inst = anbncn()
        v = reach_config(inst.mpda, inst.source, cfg(inst.mpda, "q2", "X", ""), OracleBudget(6))
        assert v.status == "unreachable"
        assert v.truncated  # the size cap did cut growing configurations

    def test_source_already_target(self):
        inst = anbncn()
        v = reach_config(inst.mpda, inst.source, inst.source, OracleBudget(6))
        assert v.reachable and len(v.witness.steps) == 0

    def test_explored_budget_gives_unknown(self):
        inst = expo(5)
        tgt = cfg(inst.mpda, "q", "X5")
        v = reach_config(inst.mpda, inst.source, tgt, OracleBudget(max_config_size=40, max_explored=5))
        assert v.status == "unknown" and v.budget == "max-explored"

    def test_regset_target(self):
        inst = anbncn()
        v = bfs_reach(inst.mpda, (inst.source,), inst.target, OracleBudget(6))
        assert v.reachable

    def test_no_truncation_when_sizes_shrink(self):
        # every rule of this walk-down fragment has rhs_size <= 1
        rng = random.Random(3)
        for _ in range(10):
            m = random_weak_mpda(rng, size_nonincreasing=True)
            s = random_configuration(rng, m, 3)
            t = random_configuration(rng, m, 3)
            v = reach_config(m, s, t, OracleBudget(max_config_size=s.size))
            assert not v.truncated
            assert v.status in ("reachable", "unreachable")


class TestSources:
    """`bfs_reach` from several sources, drawn one at a time."""

    @staticmethod
    def machine():
        # a : A pops A; b : A goes to r; no rule reads a : B
        x, y = StackSymbol("A", 0), StackSymbol("B", 0)
        return Mpda(("a", "b", "r"), ((x, y),), (TransitionRule("a", x, "a", ((),)), TransitionRule("b", x, "r", ((),))))

    def test_witness_from_the_first_source_that_reaches(self):
        m = self.machine()

        def sources():
            yield cfg(m, "a", "B A")
            yield cfg(m, "b", "A B")
            yield cfg(m, "b", "A")
            raise AssertionError("drawn past the source that reaches")

        v = bfs_reach(m, sources(), cfg(m, "r", "B"), OracleBudget(4))
        assert v.reachable and v.explored == 3
        assert v.witness.start == cfg(m, "b", "A B") and len(v.witness.steps) == 1
        assert replay(m, v.witness) == cfg(m, "r", "B")

    def test_sources_share_the_admitted_nodes_and_the_cap(self):
        m = self.machine()
        sources = [cfg(m, "a", "A" + " A" * n) for n in range(4)]  # each reaches the ones before it
        v = bfs_reach(m, sources, cfg(m, "r", ""), OracleBudget(8))
        assert (v.status, v.explored) == ("unreachable", 5)  # a : A^4 down to a : eps, each node once
        for cap in range(5):
            v = bfs_reach(m, sources, cfg(m, "r", ""), OracleBudget(8, max_explored=cap))
            assert v.explored <= cap and v.status == "unknown"

    def test_no_sources(self):
        m = self.machine()
        v = bfs_reach(m, (), cfg(m, "r", ""), OracleBudget(8))
        assert (v.status, v.explored, v.truncated) == ("unreachable", 0, False)


def counter_ring(rng, k):
    """k counters: a ring that moves one token to the next counter, one
    random chord, and one rule that turns a token of the last counter into
    two of the first."""
    rules = [(i + 1, tuple(1 if j == (i + 1) % k else 0 for j in range(k))) for i in range(k)]
    i, j = rng.sample(range(k), 2)
    rules.append((i + 1, tuple(1 if x == j else 0 for x in range(k))))
    rules.append((k, tuple(2 if x == 0 else 0 for x in range(k))))
    return comm_free_counters(tuple(rules), (0,) * k, (0,) * k).mpda


class TestEquivalence:
    """`bfs_reach` runs on the compiled machine; it must answer exactly as
    `reference_bfs` over configurations, which fires every rule with `step`
    in declaration order and expands nothing above the size cap."""

    @staticmethod
    def same(m, source, target, budget):
        is_target = target.__eq__ if isinstance(target, Configuration) else (lambda c: member(target, c))
        want = reference_bfs((source,), lambda c: rule_steps(m, c), is_target, budget.max_config_size, budget.max_explored)
        v = bfs_reach(m, (source,), target, budget)
        w = v.witness
        got = ReferenceResult(v.status, v.explored, v.truncated, w and w.start, w.steps if w else ())
        assert got == want, (m, source, target, budget)
        return v

    def test_random_weak_machines(self):
        rng = random.Random(2026)
        statuses, truncated = set(), set()
        for n in range(240):
            m = random_weak_mpda(rng, max_states=2, stacks=rng.choice((1, 2, 3)), max_rules=rng.randint(3, 10))
            s = random_configuration(rng, m, 5)
            budget = OracleBudget(max_config_size=s.size + rng.randint(-1, 4),
                                  max_explored=rng.choice((0, 1, 5, 30, 100_000, 100_000, 100_000)))
            if n % 4 == 3:
                target = random_regset(rng, m)
            elif n % 4 == 2:
                target = replay(m, random_walk(rng, m, s, rng.randint(0, 5)))
            else:
                target = random_configuration(rng, m, 4)
            v = self.same(m, s, target, budget)
            statuses.add(v.status)
            truncated.add(v.truncated)
        assert statuses == {"reachable", "unreachable", "unknown"}
        assert truncated == {True, False}

    def test_counter_rings(self):
        rng = random.Random(7)
        for k in (3, 4, 4):
            m = counter_ring(rng, k)
            s = random_configuration(rng, m, 5)
            for target in (replay(m, random_walk(rng, m, s, 6)), random_configuration(rng, m, 6)):
                for budget in (OracleBudget(s.size + 1), OracleBudget(s.size + 2, max_explored=40)):
                    self.same(m, s, target, budget)

    def test_token_ring(self):
        # four counters in a ring, 16 tokens: every one of the 969
        # distributions of 16 tokens is reachable, and none of 17
        m = comm_free_counters(((1, (0, 1, 0, 0)), (2, (0, 0, 1, 0)), (3, (0, 0, 0, 1)), (4, (1, 0, 0, 0))),
                               (4, 4, 4, 4), (4, 4, 4, 4)).mpda
        c1, c2, c3, c4 = (alpha[0] for alpha in m.alphabets)
        s = Configuration("q", ((c1,) * 4, (c2,) * 4, (c3,) * 4, (c4,) * 4))
        budget = OracleBudget(s.size)
        v = self.same(m, s, Configuration("q", ((c1,) * 4, (c2,) * 4, (c3,) * 4, (c4,) * 5)), budget)
        assert (v.status, v.explored, v.truncated) == ("unreachable", 969, False)
        v = self.same(m, s, Configuration("q", ((), (), (), (c4,) * 16)), budget)
        assert (v.status, v.explored, len(v.witness.steps)) == ("reachable", 966, 24)
        v = self.same(m, s, Configuration("q", ((c1,) * 4, (c2,) * 4, (c3,) * 4, (c4,) * 5)), OracleBudget(s.size, 500))
        assert (v.status, v.explored) == ("unknown", 500)


class TestShortestPath:
    def test_expo_lengths(self):
        for n, want in ((2, 2), (3, 6), (4, 14)):
            inst = expo(n)
            tgt = cfg(inst.mpda, "q", f"X{n}")
            got = shortest_path_length(inst.mpda, inst.source, tgt, OracleBudget(2 ** n, max_explored=10 ** 6))
            assert got == want

    def test_returns_verdict_when_unreachable(self):
        inst = anbncn()
        got = shortest_path_length(inst.mpda, inst.source, cfg(inst.mpda, "q2", "X", ""), OracleBudget(6))
        assert not isinstance(got, int)
        assert got.status == "unreachable"


class TestFullyActive:
    def test_all_consumed(self):
        inst = anbncn()
        m = inst.mpda
        w = Witness(cfg(m, "q1", "X D", ""), (m.rules[1], m.rules[3]))
        assert is_fully_active(m, w)

    def test_survivor_is_not_active(self):
        inst = anbncn()
        m = inst.mpda
        w = Witness(cfg(m, "q1", "X D", ""), (m.rules[1],))  # D survives untouched
        assert not is_fully_active(m, w)

    def test_descendant_consumption_counts(self):
        # X is popped; the C it pushed earlier is consumed later
        inst = anbncn()
        m = inst.mpda
        w = Witness(cfg(m, "q1", "X D", ""), (m.rules[0], m.rules[1], m.rules[2], m.rules[3], m.rules[4]))
        assert is_fully_active(m, w)


class TestBrokenMacroWitness:
    def test_the_error_names_the_step_as_written(self):
        # the second `cancel q A` finds B on top; its flat index would be 4
        m, w = macro_example()
        broken = Witness(w.start, (Cancel("q", m.symbol("A")),) * 2, w.fragments)
        with pytest.raises(InvalidWitness) as want:
            replay(m, broken)
        assert want.value.index == 1
        for check in (is_fully_active, lambda m, w: shrink_source(m, w, singleton(m, w.start))):
            with pytest.raises(InvalidWitness) as got:
                check(m, broken)
            assert (got.value.index, str(got.value)) == (1, str(want.value))


class TestShrink:
    def make_padded_set(self, m):
        """All configurations at q1 whose stack 1 ends in D, stack 2 free."""
        x, b, d, c = m.symbol("X"), m.symbol("B"), m.symbol("D"), m.symbol("C")
        nfa1 = StackNfa(
            ("p", "f"),
            frozenset({"p"}),
            frozenset({("p", x, "p"), ("p", b, "p"), ("p", d, "p"), ("p", d, "f")}),
        )
        nfa2 = StackNfa(("u",), frozenset({"u"}), frozenset({("u", c, "u")}))
        return RegSet(m, {"q1": Component((nfa1, nfa2), frozenset({("f", "u")}))})

    def test_irrelevant_padding_removed(self):
        inst = anbncn()
        m = inst.mpda
        L = self.make_padded_set(m)
        # padded source: the B's and the C are never needed for the final state
        w = Witness(cfg(m, "q1", "X B B D", "C"), (m.rules[1], m.rules[2], m.rules[2], m.rules[3]))
        assert replay(m, w) == cfg(m, "q2", "", "C")
        shrunk = shrink_source(m, w, L)
        assert member(L, shrunk)
        assert shrunk.size < w.start.size
        # the shrunken source still reaches the same final configuration
        v = reach_config(m, shrunk, replay(m, w), OracleBudget(8))
        assert v.reachable

    def test_relevant_material_kept(self):
        inst = anbncn()
        m = inst.mpda
        L = self.make_padded_set(m)
        w = Witness(cfg(m, "q1", "X D", ""), (m.rules[1], m.rules[3]))
        shrunk = shrink_source(m, w, L)
        # X is popped in-state leaving nothing, so it is irrelevant and goes;
        # D drives the state change and must stay
        assert shrunk == cfg(m, "q1", "D", "")
        v = reach_config(m, shrunk, replay(m, w), OracleBudget(6))
        assert v.reachable

    def test_source_not_in_set(self):
        inst = anbncn()
        m = inst.mpda
        L = self.make_padded_set(m)
        w = Witness(cfg(m, "q2", "", "C"), ())
        with pytest.raises(SourceNotInL):
            shrink_source(m, w, L)

    def test_random_yes_instances(self):
        rng = random.Random(42)
        done = 0
        while done < 40:
            m = random_weak_mpda(rng, strongly_normed=True)
            s = random_configuration(rng, m, 4)
            w = random_walk(rng, m, s, 6)
            if not w.steps:
                continue
            L = union(singleton(m, s), random_regset(rng, m))
            shrunk = shrink_source(m, w, L)
            assert member(L, shrunk)
            assert decide_wqo(m, shrunk, replay(m, w))
            done += 1
