import random
from collections import Counter

import pytest

from helpers import all_configurations, empty_regset, random_configuration, random_regset, random_weak_mpda
from mpda.gadgets import expo, nonreg_forward
from mpda.marked import decide_regreg, reach_marked
from mpda.model import Configuration, Mpda, StackSymbol, TransitionRule, replay
from mpda.oracle import OracleBudget, reach_regset
from mpda.regsets import (
    Component,
    RegSet,
    StackNfa,
    complement,
    intersect,
    is_empty,
    is_subset,
    member,
    pre_image,
    singleton,
    union,
)
from mpda.separator import CheckFailure, _small_member, backward_fixpoint, check_separator, decide_separator


@pytest.fixture
def frozen():
    """Two stacks, no rules: nothing moves, so distinct singletons separate."""
    a = StackSymbol("A", 0)
    b = StackSymbol("B", 1)
    return Mpda(("q",), ((a,), (b,)), ())


def cfg(m, state, *stacks):
    return Configuration(state, tuple(tuple(m.symbol(n) for n in w.split()) for w in stacks))


class TestCheckSeparator:
    def test_accepts_a_good_separator(self, frozen):
        L = singleton(frozen, cfg(frozen, "q", "A", ""))
        K = singleton(frozen, cfg(frozen, "q", "", "B"))
        assert check_separator(frozen, L, K, K) is None

    def test_misses_target(self, frozen):
        L = singleton(frozen, cfg(frozen, "q", "A", ""))
        K = singleton(frozen, cfg(frozen, "q", "", "B"))
        M = singleton(frozen, cfg(frozen, "q", "", ""))
        failure = check_separator(frozen, L, K, M)
        assert failure.reason == "misses-target"
        assert failure.example == cfg(frozen, "q", "", "B")

    def test_touches_source(self, frozen):
        L = singleton(frozen, cfg(frozen, "q", "A", ""))
        K = singleton(frozen, cfg(frozen, "q", "", "B"))
        M = union(K, L)
        failure = check_separator(frozen, L, K, M)
        assert failure.reason == "touches-source"
        assert failure.example == cfg(frozen, "q", "A", "")

    def test_not_backward_closed(self):
        # one rule A -> eps; M = {empty} misses its predecessor (q : A)
        a = StackSymbol("A", 0)
        m = Mpda(("p", "q"), ((a,),), (TransitionRule("p", a, "q", ((),)),))
        L = singleton(m, Configuration("p", ((a, a),)))
        K = singleton(m, Configuration("q", ((),)))
        failure = check_separator(m, L, K, K)
        assert failure.reason == "not-backward-closed"
        assert failure.example == Configuration("p", ((a,),))


    def test_example_beyond_size_four(self):
        # the only configuration outside M is larger than the small-member search
        inst = expo(3)
        m = inst.mpda
        far = Configuration("q", ((m.symbol("X1"),) * 6,))
        failure = check_separator(m, singleton(m, inst.source), singleton(m, far), empty_regset(m))
        assert failure.reason == "misses-target"
        assert failure.example == far


class TestBackwardFixpoint:
    def test_frozen_machine_converges_immediately(self, frozen):
        K = singleton(frozen, cfg(frozen, "q", "", "B"))
        stats = {}
        res = backward_fixpoint(frozen, K, stats)
        assert is_subset(res, K) and is_subset(K, res)
        assert stats == {"nodes": 3, "edges": 1, "contexts": 1, "passes": 0}

    def test_chain_of_erasures(self):
        # pre* of {q : eps} under A -> eps is q : A*, reached in finitely many steps
        a = StackSymbol("A", 0)
        m = Mpda(("q",), ((a,),), (TransitionRule("q", a, "q", ((),)),))
        K = singleton(m, Configuration("q", ((),)))
        res = backward_fixpoint(m, K)
        a_star = RegSet(m, {"q": Component((StackNfa((0,), frozenset({0}), frozenset({(0, a, 0)})),), frozenset({(0,)}))})
        assert is_subset(res, a_star) and is_subset(a_star, res)

    def test_result_contains_k(self, frozen):
        K = union(
            singleton(frozen, cfg(frozen, "q", "", "B")),
            singleton(frozen, cfg(frozen, "q", "", "")),
        )
        res = backward_fixpoint(frozen, K)
        assert member(res, cfg(frozen, "q", "", ""))
        assert not member(res, cfg(frozen, "q", "A", ""))

    def test_pushes_read_through_the_added_edges(self):
        # p A -> q : B pops A and pushes B, and q B -> r erases B: p : A reaches r
        a, b = StackSymbol("A", 0), StackSymbol("B", 0)
        m = Mpda(("p", "q", "r"), ((a, b),), (TransitionRule("p", a, "q", ((b,),)), TransitionRule("q", b, "r", ((),))))
        res = backward_fixpoint(m, singleton(m, Configuration("r", ((),))))
        assert member(res, Configuration("p", ((a,),)))
        assert member(res, Configuration("q", ((b,),)))
        assert not member(res, Configuration("p", ((b,),)))
        assert not member(res, Configuration("q", ((a,),)))

    def test_reads_see_edges_added_later(self):
        # a : Z W V runs through b, c, d and e back to d.  The read of Y X for
        # a Z -> b goes through the nu node of c X -> d, whose edge to the
        # context of d W -> e appears only after that read: the worklist
        # must redo the rules into every state that reaches c, not only
        # the rules into c
        syms = {n: StackSymbol(n, 0) for n in "XYZWV"}
        x, y, z, w, v = syms.values()
        m = Mpda(("a", "b", "c", "d", "e"), (tuple(syms.values()),), (
            TransitionRule("a", z, "b", ((y, x),)),
            TransitionRule("b", y, "c", ((),)),
            TransitionRule("c", x, "d", ((),)),
            TransitionRule("d", w, "e", ((),)),
            TransitionRule("e", v, "d", ((),)),
        ))
        res = backward_fixpoint(m, singleton(m, Configuration("d", ((),))))
        assert member(res, Configuration("a", ((z, w, v),)))
        assert not member(res, Configuration("a", ((z, w),)))


class TestSaturationProperties:
    """Seeded strongly normed weak machines from `tests/helpers.py`, half with
    one stack, with one-to-one and regular endpoints."""

    @staticmethod
    def instances(seed, count=200):
        rng = random.Random(seed)
        for n in range(count):
            m = random_weak_mpda(rng, stacks=1 + n % 2, strongly_normed=True)
            if n % 4 < 2:
                s, t = random_configuration(rng, m, 3), random_configuration(rng, m, 3)
                yield m, (s, t), singleton(m, s), singleton(m, t)
            else:
                yield m, None, random_regset(rng, m), random_regset(rng, m)

    def test_contains_k_and_is_closed_under_pre(self):
        for m, _, _, K in self.instances(2024):
            M = backward_fixpoint(m, K)
            assert is_subset(K, M)
            assert is_subset(pre_image(m, M), M), m.rules

    def test_exact_on_one_stack(self):
        # pre*(K) up to size 4 against the oracle; a size cap of 10 cuts no
        # run that these machines need
        budget = OracleBudget(max_config_size=10, max_explored=20_000)
        checked = 0
        for m, _, _, K in self.instances(2024):
            if m.stack_count != 1:
                continue
            M = backward_fixpoint(m, K)
            for c in all_configurations(m, 4):
                assert member(M, c) == reach_regset(m, c, K, budget).reachable, (m.rules, c)
                checked += 1
        assert checked > 3000

    def test_unreachable_verdicts_agree_and_certify(self):
        seen = Counter()
        for m, ends, L, K in self.instances(99):
            res = decide_separator(m, L, K)
            seen[res.status] += 1
            if res.status != "unreachable":
                continue
            assert check_separator(m, L, K, res.certificate) is None
            if ends is not None:
                assert reach_marked(m, *ends).status == "unreachable"
            else:  # small caps: "unknown" is allowed, "reachable" is not
                assert decide_regreg(m, L, K, src_cap=3, tgt_cap=3).status != "reachable"
        assert seen["unreachable"] >= 50 and seen["reachable"] >= 50


def check_by_products(m, L, K, M):
    """`check_separator` as it was written before `meets`: each condition
    builds its intersection and tests it for emptiness."""
    co = complement(M, m)
    for reason, meet in (
        ("misses-target", lambda: intersect(K, co)),
        ("touches-source", lambda: intersect(L, M)),
        ("not-backward-closed", lambda: intersect(pre_image(m, M), co)),
    ):
        built = meet()
        if not is_empty(built):
            return CheckFailure(reason, _small_member(built))
    return None


class TestCheckAgainstProducts:
    def test_certificates_and_their_mutations(self):
        reasons = Counter()
        for m, _, L, K in TestSaturationProperties.instances(99):
            M = decide_separator(m, L, K).certificate
            for args in ((L, K, M), (K, L, M), (L, K, L), (L, K, K)):
                if args[2] is None:
                    continue
                got = check_separator(m, *args)
                assert got == check_by_products(m, *args), m.rules
                reasons[got and got.reason] += 1
        assert set(reasons) == {None, "misses-target", "touches-source", "not-backward-closed"}, reasons


class TestDecide:
    def test_unreachable_with_certificate(self, frozen):
        L = singleton(frozen, cfg(frozen, "q", "A", ""))
        K = singleton(frozen, cfg(frozen, "q", "", "B"))
        res = decide_separator(frozen, L, K)
        assert res.status == "unreachable"
        assert check_separator(frozen, L, K, res.certificate) is None

    def test_reachable_with_witness(self):
        inst = nonreg_forward()
        m = inst.mpda
        L = singleton(m, inst.source)
        res = decide_separator(m, L, inst.target)
        assert res.status == "reachable"
        assert member(inst.target, replay(m, res.witness))
        assert member(L, res.witness.start)

    def test_certificate_verify_rejects_wrong_set(self, frozen):
        L = singleton(frozen, cfg(frozen, "q", "A", ""))
        K = singleton(frozen, cfg(frozen, "q", "", "B"))
        assert check_separator(frozen, L, K, L) is not None
