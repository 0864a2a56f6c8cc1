import itertools

import pytest

from mpda.gadgets import expo, nonreg_forward
from mpda.model import Configuration, Mpda, StackSymbol, TransitionRule, replay
from mpda.regsets import empty_regset, member, singleton, union
from mpda.separator import (
    backward_fixpoint,
    candidate_separators,
    check_separator,
    decide_separator,
)


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
        res = backward_fixpoint(frozen, K)
        assert res.converged and res.rounds == 1
        assert member(res.result, cfg(frozen, "q", "", "B"))

    def test_chain_of_erasures(self):
        a = StackSymbol("A", 0)
        m = Mpda(("q",), ((a,),), (TransitionRule("q", a, "q", ((),)),))
        K = singleton(m, Configuration("q", ((),)))
        res = backward_fixpoint(m, K, max_rounds=10)
        # one new layer per round: A, AA, ... never converges in 10 rounds
        assert not res.converged
        for n in range(10):
            assert member(res.result, Configuration("q", ((a,) * n,)))

    def test_result_contains_k(self, frozen):
        K = union(
            singleton(frozen, cfg(frozen, "q", "", "B")),
            singleton(frozen, cfg(frozen, "q", "", "")),
        )
        res = backward_fixpoint(frozen, K)
        assert res.converged
        assert member(res.result, cfg(frozen, "q", "", ""))


class TestCandidates:
    def test_yields_distinct_behaviours(self, frozen):
        from mpda.model import all_configurations

        cands = list(itertools.islice(candidate_separators(frozen), 10))
        assert len(cands) == 10
        probe = list(all_configurations(frozen, 3))
        sigs = {tuple(member(c, x) for x in probe) for c in cands}
        assert len(sigs) == 10  # signature deduplication left only fresh ones

    def test_includes_the_empty_set(self, frozen):
        first = next(iter(candidate_separators(frozen)))
        assert first.components == {}


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
