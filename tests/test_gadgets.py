import pytest

from mpda.classify import is_strongly_normed, is_weak
from mpda.gadgets import (
    BadGrammar,
    Grammar,
    anbncn,
    cfg_intersection,
    comm_free_counters,
    expo,
    nonreg_forward,
    parse_grammar,
)
from mpda.model import Configuration, replay
from mpda.oracle import OracleBudget, reach_regset
from mpda.regsets import member, singleton


class TestFamilies:
    def test_anbncn_shape(self):
        inst = anbncn()
        assert is_weak(inst.mpda).weak
        assert not is_strongly_normed(inst.mpda).strongly_normed
        v = reach_regset(inst.mpda, inst.source, inst.target, OracleBudget(6))
        assert v.reachable

    def test_expo_validation(self):
        with pytest.raises(ValueError):
            expo(1)

    def test_expo_is_strongly_normed(self):
        inst = expo(4)
        assert is_strongly_normed(inst.mpda).strongly_normed
        assert member(inst.target, Configuration("q", ((inst.mpda.symbol("X4"),),)))

    def test_nonreg_forward_small_law(self):
        inst = nonreg_forward()
        m = inst.mpda
        x, a, b = m.symbol("X"), m.symbol("A"), m.symbol("B")
        for k in range(3):
            for l in range(3):
                tgt = Configuration("q", ((x,) + (a,) * k, (b,) * l))
                v = reach_regset(m, inst.source, singleton(m, tgt), OracleBudget(2 * (k + l) + 4))
                assert v.reachable == (k >= l), (k, l)


class TestCommFreeCounters:
    def test_token_shuffle(self):
        # one rule moves a token from counter 1 to counter 2
        inst = comm_free_counters(((1, (0, 1)),), (2, 0), (0, 2))
        v = reach_regset(inst.mpda, inst.source, inst.target, OracleBudget(4))
        assert v.reachable
        assert len(v.witness.steps) == 2

    def test_unreachable_count(self):
        inst = comm_free_counters(((1, (0, 1)),), (2, 0), (2, 1))
        v = reach_regset(inst.mpda, inst.source, inst.target, OracleBudget(4))
        assert v.status == "unreachable"

    def test_validation(self):
        with pytest.raises(ValueError):
            comm_free_counters(((3, (0, 0)),), (1, 0), (0, 0))  # no counter 3
        with pytest.raises(ValueError):
            comm_free_counters(((1, (0,)),), (1, 0), (0, 0))  # arity mismatch
        with pytest.raises(ValueError):
            comm_free_counters((), (1, 0), (0, 0, 0))


GRAMMAR_TEXT = """\
# a^n b, n >= 0
terminals: a b
nonterminals: S T
start: S
S -> a S
S -> b
T -> a
"""


class TestGrammars:
    def test_parse_round(self):
        g = parse_grammar(GRAMMAR_TEXT)
        assert g.start == "S"
        assert g.terminals == ("a", "b")
        assert ("S", "a", ("S",)) in g.productions
        assert ("S", "b", ()) in g.productions

    def test_parse_errors(self):
        with pytest.raises(BadGrammar, match="needs"):
            parse_grammar("start: S\nS -> a")
        with pytest.raises(BadGrammar, match="empty production"):
            parse_grammar("terminals: a\nnonterminals: S\nstart: S\nS ->")
        with pytest.raises(BadGrammar, match="unrecognized"):
            parse_grammar("terminals: a\nnonterminals: S\nstart: S\nwhat is this")

    def test_grammar_validation(self):
        with pytest.raises(BadGrammar):
            Grammar(("S",), ("a", "S"), "S", ())  # name on both sides
        with pytest.raises(BadGrammar):
            Grammar(("S",), ("a",), "T", ())  # unknown start
        with pytest.raises(BadGrammar):
            Grammar(("S",), ("a",), "S", (("S", "a", ("U",)),))  # unknown tail


class TestCfgIntersection:
    def g(self, text):
        return parse_grammar(text)

    def test_terminals_must_match(self):
        g1 = self.g("terminals: a\nnonterminals: S\nstart: S\nS -> a")
        g2 = self.g("terminals: b\nnonterminals: S\nstart: S\nS -> b")
        with pytest.raises(BadGrammar):
            cfg_intersection(g1, g2)

    def test_nonempty_intersection_is_reachable(self):
        # both grammars generate exactly {ab}
        g1 = self.g("terminals: a b\nnonterminals: S T\nstart: S\nS -> a T\nT -> b")
        g2 = self.g("terminals: a b\nnonterminals: U V\nstart: U\nU -> a V\nV -> b")
        inst = cfg_intersection(g1, g2)
        v = reach_regset(inst.mpda, inst.source, inst.target, OracleBudget(8))
        assert v.reachable
        assert member(inst.target, replay(inst.mpda, v.witness))

    def test_empty_intersection_is_unreachable(self):
        g1 = self.g("terminals: a b\nnonterminals: S\nstart: S\nS -> a")
        g2 = self.g("terminals: a b\nnonterminals: T\nstart: T\nT -> b")
        inst = cfg_intersection(g1, g2)
        v = reach_regset(inst.mpda, inst.source, inst.target, OracleBudget(6))
        assert v.status == "unreachable"

    def test_longer_common_word(self):
        # g1 = a^n b (n >= 0), g2 = a a b: intersection {aab}
        g1 = self.g("terminals: a b\nnonterminals: S\nstart: S\nS -> a S\nS -> b")
        g2 = self.g("terminals: a b\nnonterminals: U V W\nstart: U\nU -> a V\nV -> a W\nW -> b")
        inst = cfg_intersection(g1, g2)
        v = reach_regset(inst.mpda, inst.source, inst.target, OracleBudget(10, max_explored=200_000))
        assert v.reachable
