import random

import pytest

from mpda.classify import (
    NormResult,
    NotStronglyNormed,
    NotWeak,
    WeaknessResult,
    cancel_table,
    is_normed,
    is_strongly_normed,
    is_weak,
)
from mpda.gadgets import anbncn, expo, nonreg_forward
from mpda.model import Cancel, Configuration, Mpda, StackSymbol, TransitionRule, Witness, expand

from helpers import check_cancel_table, pinned_machines, random_weak_mpda


def eager_fragments(table):
    """Every canceling sequence flattened up front: the rule for (q, X), then
    the fragment of each symbol it pushes, stack by stack, top first."""
    fragments = {}

    def fragment(key):
        if key in fragments:
            return fragments[key]
        r = table[key]
        frag = [r]
        for w in r.push:
            for sym in w:
                frag.extend(fragment((key[0], sym)))
        fragments[key] = tuple(frag)
        return fragments[key]

    for key in table:
        fragment(key)
    return fragments


def expansion(m, table, q, sym):
    """The flat steps of `cancel q X` on a lone X, under the whole table."""
    lone = Configuration(q, tuple((sym,) if i == sym.stack else () for i in range(m.stack_count)))
    return expand(Witness(lone, (Cancel(q, sym),), tuple(table.values()))).steps


def simple(rules_desc, states=("q0", "q1")):
    a = StackSymbol("A", 0)
    b = StackSymbol("B", 0)
    rules = tuple(
        TransitionRule(src, {"A": a, "B": b}[pop], dst, (tuple({"A": a, "B": b}[x] for x in push),))
        for src, pop, dst, push in rules_desc
    )
    return Mpda(tuple(states), ((a, b),), rules)


class TestWeakness:
    def test_anbncn_is_weak_with_order(self):
        res = is_weak(anbncn().mpda)
        assert res.weak
        assert res.order == ("q1", "q2")
        assert res.cycle is None

    def test_cycle_detected(self):
        m = simple([("q0", "A", "q1", ""), ("q1", "A", "q0", "")])
        res = is_weak(m)
        assert not res.weak
        assert res.order is None
        # the reported cycle closes up and only uses state-changing rules
        assert res.cycle[0] == res.cycle[-1]
        assert len(res.cycle) >= 2

    def test_cycle_found_past_a_state_below_it(self):
        # q lies below the cycle p -> r -> p and leads nowhere
        m = simple([("p", "A", "q", ""), ("p", "A", "r", ""), ("r", "A", "p", "")], states=("p", "q", "r"))
        assert is_weak(m) == WeaknessResult(False, None, ("p", "r", "p"))

    def test_reported_cycles_use_state_changing_rules(self):
        rng = random.Random(8)
        for _ in range(300):
            states = tuple(f"s{i}" for i in rng.sample(range(6), rng.randint(2, 6)))
            m = simple([(rng.choice(states), "A", rng.choice(states), "") for _ in range(rng.randint(1, 9))], states)
            res = is_weak(m)
            if res.weak:
                continue
            steps = {(r.src, r.dst) for r in m.rules if r.changes_state}
            assert res.cycle[0] == res.cycle[-1] and len(set(res.cycle)) == len(res.cycle) - 1
            assert all(step in steps for step in zip(res.cycle, res.cycle[1:])), m.rules

    def test_self_loops_do_not_matter(self):
        m = simple([("q0", "A", "q0", "AA"), ("q0", "A", "q1", "")])
        assert is_weak(m).weak

    def test_order_descends_every_rule(self):
        rng = random.Random(5)
        for _ in range(20):
            m = random_weak_mpda(rng)
            res = is_weak(m)
            assert res.weak
            pos = {q: i for i, q in enumerate(res.order)}
            for r in m.rules:
                assert pos[r.src] <= pos[r.dst]


class TestStrongNormedness:
    def test_expo_is_strongly_normed(self):
        res = is_strongly_normed(expo(5).mpda)
        assert res.strongly_normed
        check_cancel_table(expo(5).mpda, res.cancel)

    def test_anbncn_is_not(self):
        res = is_strongly_normed(anbncn().mpda)
        assert not res.strongly_normed
        q, sym = res.failure
        assert (q, sym.name) in {("q1", "D"), ("q1", "C"), ("q2", "X"), ("q2", "B"), ("q2", "D")}

    def test_cancel_fragments_erase_in_context(self):
        # canceling a symbol in the middle of a bigger configuration leaves
        # the remaining material untouched
        from mpda.model import Witness, replay

        inst = expo(4)
        m = inst.mpda
        x1, x2 = m.symbol("X1"), m.symbol("X2")
        start = Configuration("q", ((x1, x2),))
        end = replay(m, Witness(start, expansion(m, cancel_table(m), "q", x1)))
        assert end == Configuration("q", ((x2,),))

    def test_table_holds_one_erasing_rule_per_pair(self):
        for m in pinned_machines():
            table = cancel_table(m)
            assert set(table) == {(q, sym) for q in m.states for alpha in m.alphabets for sym in alpha}
            for (q, sym), rule in table.items():
                assert isinstance(rule, TransitionRule)
                assert rule.src == rule.dst == q and rule.pop == sym

    def test_expansion_matches_eager_flattening(self):
        nested = 0
        for m in pinned_machines():
            table = cancel_table(m)
            reference = eager_fragments(table)
            for q, sym in table:
                assert expansion(m, table, q, sym) == reference[(q, sym)]
            check_cancel_table(m, table)
            nested += sum(len(set(w)) > 1 for rule in table.values() for w in rule.push)
        assert nested > 0  # some chosen rule pushes two distinct symbols on one stack

    def test_cancel_table_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(30):
            m = random_weak_mpda(rng, strongly_normed=True)
            res = is_strongly_normed(m)
            assert res.strongly_normed
            check_cancel_table(m, res.cancel)

    def test_cancel_table_raises_when_not(self):
        with pytest.raises(NotStronglyNormed):
            cancel_table(anbncn().mpda)


class TestNormedness:
    def test_strongly_normed_runs_no_search(self, monkeypatch):
        import mpda.wqo

        calls = []
        monkeypatch.setattr(mpda.wqo, "decide_wqo", lambda *a: calls.append(a) or True)
        rng = random.Random(13)
        machines = [expo(5).mpda] + [random_weak_mpda(rng, strongly_normed=True) for _ in range(20)]
        for m in machines:
            assert is_normed(m) == NormResult(True, None)
        assert calls == []

    def test_anbncn_not_normed(self):
        res = is_normed(anbncn().mpda)
        assert not res.normed
        q, sym = res.failure
        # C is stuck at q1 (no rule) and X/B/D are stuck at q2
        assert (q, sym.name) in {("q1", "C"), ("q2", "X"), ("q2", "B"), ("q2", "D")}

    def test_nonreg_forward_is_normed(self):
        assert is_normed(nonreg_forward().mpda).normed

    def test_normed_via_state_change_only(self):
        # A can only be erased by moving to q1: normed but not strongly normed
        m = simple([("q0", "A", "q1", ""), ("q1", "A", "q1", ""), ("q1", "B", "q1", ""), ("q0", "B", "q0", "")])
        assert not is_strongly_normed(m).strongly_normed
        assert is_normed(m).normed

    def test_requires_weak(self):
        m = simple([("q0", "A", "q1", ""), ("q1", "A", "q0", "")])
        with pytest.raises(NotWeak):
            is_normed(m)
