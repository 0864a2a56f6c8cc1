"""Benchmark families: small machines with known reachability behaviour."""

from __future__ import annotations

from dataclasses import dataclass

from .model import Configuration, InputError, Mpda, StackSymbol, TransitionRule
from .regsets import Component, RegSet, StackNfa, singleton


class BadGrammar(Exception):
    pass


@dataclass(frozen=True)
class GadgetInstance:
    name: str
    mpda: Mpda
    source: Configuration
    target: RegSet


def anbncn() -> GadgetInstance:
    """Two stacks; the first counts letters still to produce, the second the
    c-obligations.  (q1 : X D | eps) reaches (q2 : eps | eps) exactly along
    runs that balance the three letter blocks."""
    x = StackSymbol("X", 0)
    b = StackSymbol("B", 0)
    d = StackSymbol("D", 0)
    c = StackSymbol("C", 1)
    m = Mpda(
        ("q1", "q2"),
        ((x, b, d), (c,)),
        (
            TransitionRule("q1", x, "q1", ((x, b), (c,))),
            TransitionRule("q1", x, "q1", ((), ())),
            TransitionRule("q1", b, "q1", ((), ())),
            TransitionRule("q1", d, "q2", ((), ())),
            TransitionRule("q2", c, "q2", ((), ())),
        ),
    )
    source = Configuration("q1", ((x, d), ()))
    target = singleton(m, Configuration("q2", ((), ())))
    return GadgetInstance("anbncn", m, source, target)


def expo(n: int) -> GadgetInstance:
    """One stack, symbols X1..Xn, each Xi doubling into Xi+1; the shortest
    run from X1 to a lone Xn has length 2^n - 2."""
    if n < 2:
        raise InputError("expo needs n >= 2")
    syms = tuple(StackSymbol(f"X{i}", 0) for i in range(1, n + 1))
    rules = [
        TransitionRule("q", syms[i], "q", ((syms[i + 1], syms[i + 1]),))
        for i in range(n - 1)
    ]
    rules.append(TransitionRule("q", syms[-1], "q", ((),)))
    m = Mpda(("q",), (syms,), tuple(rules))
    source = Configuration("q", ((syms[0],),))
    target = singleton(m, Configuration("q", ((syms[-1],),)))
    return GadgetInstance(f"expo:{n}", m, source, target)


def nonreg_forward() -> GadgetInstance:
    """A machine whose forward reachability set from (q : X | eps) is not
    regular: it contains (X A^k | B^l) exactly when k >= l."""
    x = StackSymbol("X", 0)
    a = StackSymbol("A", 0)
    b = StackSymbol("B", 1)
    m = Mpda(
        ("q",),
        ((x, a), (b,)),
        (
            TransitionRule("q", x, "q", ((x, a), (b,))),
            TransitionRule("q", x, "q", ((), ())),
            TransitionRule("q", a, "q", ((), ())),
            TransitionRule("q", b, "q", ((), ())),
        ),
    )
    source = Configuration("q", ((x,), ()))
    target = singleton(m, Configuration("q", ((), ())))
    return GadgetInstance("nonreg-forward", m, source, target)


def comm_free_counters(
    rules_spec: tuple[tuple[int, tuple[int, ...]], ...],
    source_counts: tuple[int, ...],
    target_counts: tuple[int, ...],
) -> GadgetInstance:
    """Counters as singleton-alphabet stacks.  Each rule (i, adds) consumes
    one token of counter i (1-based) and adds adds[j] tokens to counter j."""
    k = len(source_counts)
    if len(target_counts) != k:
        raise InputError("source and target have different arities")
    syms = tuple(StackSymbol(f"c{i + 1}", i) for i in range(k))
    rules = []
    for idx, (pop_i, adds) in enumerate(rules_spec):
        if not 1 <= pop_i <= k or len(adds) != k or any(a < 0 for a in adds):
            raise InputError(f"bad counter rule #{idx + 1}")
        push = tuple(tuple(syms[j] for _ in range(adds[j])) for j in range(k))
        rules.append(TransitionRule("q", syms[pop_i - 1], "q", push))
    m = Mpda(("q",), tuple((s,) for s in syms), tuple(rules))
    source = Configuration("q", tuple(tuple(syms[i] for _ in range(source_counts[i])) for i in range(k)))
    target_c = Configuration("q", tuple(tuple(syms[i] for _ in range(target_counts[i])) for i in range(k)))
    return GadgetInstance("comm-free", m, source, singleton(m, target_c))


@dataclass(frozen=True)
class Grammar:
    """A context-free grammar in Greibach form: every production rewrites a
    nonterminal into one terminal followed by nonterminals."""

    nonterminals: tuple[str, ...]
    terminals: tuple[str, ...]
    start: str
    productions: tuple[tuple[str, str, tuple[str, ...]], ...]

    def __post_init__(self):
        nts = set(self.nonterminals)
        ts = set(self.terminals)
        if nts & ts:
            raise BadGrammar("a name is both terminal and nonterminal")
        if self.start not in nts:
            raise BadGrammar(f"start symbol {self.start!r} is not a nonterminal")
        for lhs, term, rhs in self.productions:
            if lhs not in nts:
                raise BadGrammar(f"production head {lhs!r} is not a nonterminal")
            if term not in ts:
                raise BadGrammar(f"production for {lhs!r} does not start with a terminal")
            for x in rhs:
                if x not in nts:
                    raise BadGrammar(f"production tail symbol {x!r} is not a nonterminal")


def parse_grammar(text: str) -> Grammar:
    """Lines: 'terminals: ...', 'nonterminals: ...', 'start: S' and
    productions 'X -> a Y Z'.  '#' comments allowed."""
    terminals: list[str] | None = None
    nonterminals: list[str] | None = None
    start: str | None = None
    productions = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("terminals:"):
            terminals = line.split(":", 1)[1].split()
        elif line.startswith("nonterminals:"):
            nonterminals = line.split(":", 1)[1].split()
        elif line.startswith("start:"):
            parts = line.split(":", 1)[1].split()
            if len(parts) != 1:
                raise BadGrammar(f"line {lineno}: bad start line")
            start = parts[0]
        elif "->" in line:
            lhs, rhs = line.split("->", 1)
            lhs = lhs.strip()
            toks = rhs.split()
            if not toks:
                raise BadGrammar(f"line {lineno}: empty production body (Greibach form needs a leading terminal)")
            productions.append((lhs, toks[0], tuple(toks[1:])))
        else:
            raise BadGrammar(f"line {lineno}: unrecognized line")
    if terminals is None or nonterminals is None or start is None:
        raise BadGrammar("grammar needs 'terminals:', 'nonterminals:' and 'start:' lines")
    return Grammar(tuple(nonterminals), tuple(terminals), start, tuple(productions))


def cfg_intersection(g1: Grammar, g2: Grammar) -> GadgetInstance:
    """Reachability encodes emptiness of the intersection of two grammars.

    Stacks 1 and 2 run leftmost derivations of g1 and g2 (nonterminals
    tagged .1/.2); every produced letter is logged on stack 3 as a.1 or a.2.
    The target asks for both derivations finished and the log in
    {a.1 a.2 : a terminal}*, which forces the two letter sequences to agree."""
    if set(g1.terminals) != set(g2.terminals):
        raise BadGrammar("the two grammars must share their terminal alphabet")
    nts1 = {x: StackSymbol(f"{x}.1", 0) for x in g1.nonterminals}
    nts2 = {x: StackSymbol(f"{x}.2", 1) for x in g2.nonterminals}
    log1 = {a: StackSymbol(f"{a}.1", 2) for a in g1.terminals}
    log2 = {a: StackSymbol(f"{a}.2", 2) for a in g1.terminals}
    alpha3 = tuple(s for a in g1.terminals for s in (log1[a], log2[a]))
    rules = []
    for lhs, term, rhs in g1.productions:
        rules.append(TransitionRule(
            "q", nts1[lhs], "q",
            (tuple(nts1[x] for x in rhs), (), (log1[term],)),
        ))
    for lhs, term, rhs in g2.productions:
        rules.append(TransitionRule(
            "q", nts2[lhs], "q",
            ((), tuple(nts2[x] for x in rhs), (log2[term],)),
        ))
    m = Mpda(
        ("q",),
        (tuple(nts1[x] for x in g1.nonterminals), tuple(nts2[x] for x in g2.nonterminals), alpha3),
        tuple(rules),
    )
    source = Configuration("q", ((nts1[g1.start],), (nts2[g2.start],), ()))
    # log automaton: from t0, read some a.1 then the matching a.2, repeat
    states = ("t0",) + tuple(f"t_{a}" for a in g1.terminals)
    edges = set()
    for a in g1.terminals:
        edges.add(("t0", log1[a], f"t_{a}"))
        edges.add((f"t_{a}", log2[a], "t0"))
    nfa3 = StackNfa(states, frozenset({"t0"}), frozenset(edges))
    empty1 = StackNfa(("e",), frozenset({"e"}), frozenset())
    empty2 = StackNfa(("e",), frozenset({"e"}), frozenset())
    comp = Component((empty1, empty2, nfa3), frozenset({("e", "e", "t0")}))
    target = RegSet(m, {"q": comp})
    return GadgetInstance("cfg-intersection", m, source, target)
