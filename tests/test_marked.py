import random
from pathlib import Path

import pytest

from mpda.classify import NotStronglyNormed, NotWeak, cancel_table
from mpda.gadgets import anbncn, expo, nonreg_forward
from mpda.marked import (
    decide_marked,
    decide_regreg,
    marked_subconfigurations,
    mk_subwords,
    reach_marked,
    reconstruct,
    subtransitions_for,
)
from mpda.formats import serialize_witness
from mpda.model import AnnotatedSymbol, Cancel, Configuration, Mpda, StackSymbol, TransitionRule, annotate, expand, flat_length, replay, step
from mpda.oracle import OracleBudget, reach_config
from mpda.regsets import singleton
from mpda.wqo import reach_wqo

from helpers import fire, nested_eraser_machines, random_configuration, random_walk, random_weak_mpda, reference_bfs


def render(w):
    return "".join(("~" if ms.marked else "") + ms.base.name for ms in w)


def mk_subtransitions(m):
    """Every marked variant of every rule of m."""
    out = []
    for rule in m.rules:
        for lhs_marked in (False, True):
            out.extend(subtransitions_for(rule, lhs_marked, m.stack_count))
    return tuple(out)


def marked_trace(res):
    """The marked configurations along a marked path, origin first."""
    assert res.origin is not None
    out = [res.origin]
    for st in res.steps:
        out.append(fire(out[-1], st.origin, st.pushes))
    return out


class TestMkSubwords:
    def test_fixture_with_fixed_deletions(self):
        a, b, c = StackSymbol("A", 0), StackSymbol("B", 0), StackSymbol("C", 0)
        word = (a, a, c, a, b, b, c, b, c, b, c)
        got = {render(w) for w in mk_subwords(word, colored=frozenset({1, 2, 4, 5, 7}))}
        assert got == {"~A~A~CCBC", "~A~A~C~CBC", "~A~A~C~C~BC", "~A~A~C~C~B~C"}

    def test_empty_word(self):
        assert mk_subwords(()) == {()}

    def test_single_letter(self):
        a = StackSymbol("A", 0)
        got = {render(w) for w in mk_subwords((a,))}
        assert got == {"", "A", "~A"}

    def test_marks_form_a_prefix_of_the_kept_word(self):
        a, b = StackSymbol("A", 0), StackSymbol("B", 0)
        for w in mk_subwords((a, b, a, b)):
            flags = [ms.marked for ms in w]
            assert flags == sorted(flags, reverse=True)

    def test_deleted_positions_force_marks_before_them(self):
        # dropping the last position never forces marks; dropping the first does
        a, b = StackSymbol("A", 0), StackSymbol("B", 0)
        got = {render(w) for w in mk_subwords((a, b), colored=frozenset({0}))}
        assert got == {"B", "~B"}
        got = {render(w) for w in mk_subwords((a, b), colored=frozenset({1}))}
        assert got == {"~A"}


class TestSubtransitions:
    def rule_for_fixture(self):
        a, b, c = StackSymbol("A", 0), StackSymbol("B", 0), StackSymbol("C", 0)
        d, e = StackSymbol("D", 1), StackSymbol("E", 1)
        push1 = (a, a, c, a, b, b, c, b, c, b, c)
        push2 = (d, d, e, d)
        return TransitionRule("q", a, "q", (push1, push2)), (a, b, c, d, e)

    def test_marked_pop_forces_marked_pushes_on_its_stack(self):
        rule, _ = self.rule_for_fixture()
        for st in subtransitions_for(rule, True, 2):
            assert all(ms.marked for ms in st.pushes[0])

    def test_fixture_variants(self):
        # with the fixed stack-1 selection ~A~A~C~C~B~C and stack-2 deletions
        # {1,2}, the marked-pop variants are exactly two
        rule, (a, b, c, d, e) = self.rule_for_fixture()
        want1 = tuple(AnnotatedSymbol(s, True) for s in (a, a, c, c, b, c))
        stack2_opts = mk_subwords(rule.push[1], colored=frozenset({1, 2}))
        assert {render(w) for w in stack2_opts} == {"~DD", "~D~D"}
        got = [
            st for st in subtransitions_for(rule, True, 2)
            if st.pushes[0] == want1 and st.pushes[1] in stack2_opts
        ]
        assert len(got) == 2

    def test_state_preserving_needs_a_push(self):
        a = StackSymbol("A", 0)
        eraser = TransitionRule("q", a, "q", ((),))
        assert subtransitions_for(eraser, False, 1) == ()
        assert subtransitions_for(eraser, True, 1) == ()

    def test_state_changing_may_push_nothing(self):
        a = StackSymbol("A", 0)
        hop = TransitionRule("q", a, "p", ((),))
        assert len(subtransitions_for(hop, False, 1)) == 1
        assert len(subtransitions_for(hop, True, 1)) == 1

    def test_enumeration_covers_both_marks(self):
        inst = expo(3)
        kinds = {(st.origin, st.lhs_marked) for st in mk_subtransitions(inst.mpda)}
        # erasers contribute nothing; doubling rules appear with both marks
        assert len(kinds) == 2 * (len(inst.mpda.rules) - 1)


class TestDecideMarked:
    def test_expo_short_abstract_path(self):
        inst = expo(8)
        tgt = Configuration("q", ((inst.mpda.symbol("X8"),),))
        res = decide_marked(inst.mpda, inst.source, tgt)
        assert res.reachable
        assert len(res.steps) == 7  # one doubling rule per level, everything else deleted

    def test_size_discipline_along_marked_paths(self):
        inst = expo(6)
        tgt = Configuration("q", ((inst.mpda.symbol("X6"),),))
        res = decide_marked(inst.mpda, inst.source, tgt)
        tr = marked_trace(res)
        for prev, st, nxt in zip(tr, res.steps, tr[1:]):
            if st.origin.changes_state:
                assert nxt.size >= prev.size - 1
            else:
                assert nxt.size >= prev.size

    def test_identity(self):
        inst = expo(3)
        res = decide_marked(inst.mpda, inst.source, inst.source)
        assert res.reachable and res.steps == ()
        assert res.origin == annotate(inst.source)

    def test_unreachable(self):
        inst = expo(3)
        m = inst.mpda
        bigger = Configuration("q", ((m.symbol("X1"), m.symbol("X1")),))
        assert not decide_marked(m, inst.source, bigger).reachable

    def test_preconditions(self):
        with pytest.raises(NotStronglyNormed):
            decide_marked(anbncn().mpda, anbncn().source, Configuration("q2", ((), ())))

    def test_agrees_with_oracle_on_small_instances(self):
        rng = random.Random(1234)
        for _ in range(40):
            m = random_weak_mpda(rng, strongly_normed=True)
            s = random_configuration(rng, m, 3)
            t = random_configuration(rng, m, 3)
            res = decide_marked(m, s, t)
            v = reach_config(m, s, t, OracleBudget(max_config_size=t.size + len(m.states) + 4, max_explored=200_000))
            if v.status == "unknown" or v.truncated and not v.reachable:
                continue
            assert res.reachable == v.reachable, f"{s} -> {t} on {m.rules}"


def reference_decide_marked(m, s, t):
    """The marked search as `reference_bfs` over configurations of
    `AnnotatedSymbol` entries: stack by stack, the rules popping the top in
    declaration order, each with its `subtransitions_for` in order, fired
    by `step` as a rule that pops the annotated top and pushes the
    subtransition's words.  Children above the size bound are dropped.
    Returns the result and whether the bound dropped any child."""
    bound = t.size + len(m.states)
    capped = False

    def expand(c):
        nonlocal capped
        for w in c.stacks:
            if not w:
                continue
            top = w[0]
            for rule in m.rules:
                if rule.src == c.state and rule.pop == top.base:
                    for st in subtransitions_for(rule, top.marked, m.stack_count):
                        nxt = step(m, c, TransitionRule(rule.src, top, rule.dst, st.pushes))
                        if nxt.size <= bound:
                            yield st, nxt
                        else:
                            capped = True

    res = reference_bfs(marked_subconfigurations(s, bound), expand, annotate(t).__eq__)
    return res, capped


def marked_machine_matches_reference(m, s, t):
    """decide_marked against `reference_decide_marked`: the same status,
    admitted count, origin and steps.  Returns (reachable, capped)."""
    res = decide_marked(m, s, t)
    ref, capped = reference_decide_marked(m, s, t)
    status = "reachable" if res.reachable else "unreachable"
    assert (status, res.explored, res.origin, res.steps) == (ref.status, ref.explored, ref.start, ref.steps), f"{s} -> {t} on {m.rules}"
    return res.reachable, capped


class TestMarkedMachine:
    def test_search_matches_the_object_level_reference(self):
        rng = random.Random(606)
        seen = []
        for _ in range(220):
            m = random_weak_mpda(rng, strongly_normed=True, max_rules=9)
            s = random_configuration(rng, m, 4)
            t = random_configuration(rng, m, 4)
            seen.append(marked_machine_matches_reference(m, s, t))
        assert sum(reachable for reachable, _ in seen) > 40
        # reachable and not, with and without children above the bound
        assert set(seen) == {(True, True), (True, False), (False, True), (False, False)}

    def test_counter_ring_matches_the_reference(self):
        # a strongly normed 4-counter ring: each counter also drops a token
        k = 4
        c = [StackSymbol(f"c{i}", i) for i in range(k)]
        rules = [TransitionRule("q", c[i], "q", tuple((c[j],) if j == (i + 1) % k else () for j in range(k))) for i in range(k)]
        rules += [TransitionRule("q", c[i], "q", ((),) * k) for i in range(k)]
        m = Mpda(("q",), tuple((sym,) for sym in c), tuple(rules))
        s = Configuration("q", ((c[0],) * 2, (c[1],) * 2, (c[2],), (c[3],)))
        for t in (Configuration("q", ((), (), (), (c[3],) * 3)), Configuration("q", ((c[0],) * 7, (), (), ()))):
            marked_machine_matches_reference(m, s, t)


class TestReconstruct:
    def test_replays_to_target(self):
        rng = random.Random(99)
        done = 0
        while done < 25:
            m = random_weak_mpda(rng, strongly_normed=True)
            s = random_configuration(rng, m, 3)
            t = random_configuration(rng, m, 3)
            res = decide_marked(m, s, t)
            if not res.reachable:
                continue
            w = reconstruct(m, s, res)
            assert w.start == s
            assert replay(m, w) == t
            done += 1

    def test_nested_cancel_tables(self):
        """On machines whose erasing rules push, every walk's end is
        reachable, every witness and its expansion replay into the target,
        and a small wqo search agrees wherever it decides."""
        rng = random.Random(31)
        reachable = nested = decided = 0
        for m in nested_eraser_machines():
            for walk_target in (True, False):
                s = random_configuration(rng, m, 3)
                t = replay(m, random_walk(rng, m, s, 6)) if walk_target else random_configuration(rng, m, 3)
                v = reach_marked(m, s, t)
                assert v.reachable or (v.complete and not walk_target), f"{s} -> {t} on {m.rules}"
                if v.reachable:
                    reachable += 1
                    assert replay(m, v.witness) == t and replay(m, expand(v.witness)) == t
                    nested += any(r.rhs_size for r in v.witness.fragments)
                other = reach_wqo(m, (s,), t, max_nodes=300)  # a larger budget can run for minutes
                if other.status != "unknown":
                    decided += 1
                    assert other.status == v.status, f"{s} -> {t} on {m.rules}"
        assert 4 * nested >= reachable > 50 and decided > 80

    def test_expo_expands_to_exponential_witness(self):
        inst = expo(6)
        tgt = Configuration("q", ((inst.mpda.symbol("X6"),),))
        res = decide_marked(inst.mpda, inst.source, tgt)
        w = reconstruct(inst.mpda, inst.source, res)
        assert replay(inst.mpda, w) == tgt
        assert len(expand(w).steps) == 2 ** 6 - 2

    def test_expo_expands_to_the_golden_flat_witness(self):
        inst = expo(4)
        tgt = Configuration("q", ((inst.mpda.symbol("X4"),),))
        w = reach_marked(inst.mpda, inst.source, tgt).witness
        golden = (Path(__file__).parent / "golden" / "expo4-flat.witness").read_text()
        assert serialize_witness(expand(w)) == golden

    def test_expo_flat_length_without_expanding(self, monkeypatch):
        import mpda.model

        def no_expand(w):
            raise AssertionError("expanded")

        monkeypatch.setattr(mpda.model, "expand", no_expand)
        for n in range(3, 21):
            inst = expo(n)
            tgt = Configuration("q", ((inst.mpda.symbol(f"X{n}"),),))
            w = reach_marked(inst.mpda, inst.source, tgt).witness
            # the marked path of n - 1 doubling rules, and a cancel after each
            assert len(w.steps) == 2 * (n - 1) and len(w.fragments) == n - 1
            assert all(isinstance(step, Cancel) for step in w.steps[1::2])
            assert flat_length(w) == 2 ** n - 2
            assert replay(inst.mpda, w) == tgt

    def test_cancel_table_computed_once_per_machine(self, monkeypatch):
        import mpda.classify

        calls = []
        real = mpda.classify.is_strongly_normed
        monkeypatch.setattr(mpda.classify, "is_strongly_normed", lambda m: calls.append(m) or real(m))
        rng = random.Random(41)
        machines = reached = 0
        while reached < 20:
            m = random_weak_mpda(rng, strongly_normed=True)
            machines += 1
            for _ in range(3):
                s, t = random_configuration(rng, m, 3), random_configuration(rng, m, 3)
                reached += reach_marked(m, s, t).reachable
        L = singleton(m, s)
        decide_regreg(m, L, L)
        assert len(calls) == machines


class TestMarkedSubconfigurations:
    def test_bounded(self):
        inst = expo(3)
        m = inst.mpda
        c = Configuration("q", ((m.symbol("X1"), m.symbol("X2"), m.symbol("X3")),))
        for mc in marked_subconfigurations(c, 2):
            assert mc.size <= 2


class TestRegReg:
    def test_nonreg_forward_to_empty(self):
        inst = nonreg_forward()
        m = inst.mpda
        L = singleton(m, inst.source)
        res = decide_regreg(m, L, inst.target)
        assert res.reachable
        assert res.witness.start == inst.source
        assert replay(m, res.witness) == Configuration("q", ((), ()))

    def test_unreachable_up_to_caps(self):
        inst = expo(3)
        m = inst.mpda
        L = singleton(m, inst.source)
        x1 = m.symbol("X1")
        K = singleton(m, Configuration("q", ((x1, x1),)))
        res = decide_regreg(m, L, K)
        assert not res.reachable
        assert res.detail["src_cap"] > 0 and res.detail["tgt_cap"] > 0
