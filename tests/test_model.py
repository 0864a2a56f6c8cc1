import random

import pytest
from hypothesis import given, strategies as st

from mpda.model import (
    AnnotatedSymbol,
    Cancel,
    Configuration,
    InputError,
    InvalidFragment,
    InvalidWitness,
    Mpda,
    MpdaError,
    NotEnabled,
    StackSymbol,
    TransitionRule,
    Witness,
    annotated_machine,
    expand,
    flat_length,
    replay,
    start_occurrences,
    step,
    successors,
)
from mpda.formats import parse_configuration, parse_witness, serialize_witness
from mpda.gadgets import anbncn, expo
from mpda.marked import reach_marked
from mpda.oracle import is_fully_active

from helpers import (
    all_configurations,
    bf_higman_leq,
    descendant_forest,
    forest_fully_active,
    forest_relevant,
    higman_leq,
    macro_example,
    nested_eraser_machines,
    random_configuration,
    random_walk,
    random_weak_mpda,
    rule_steps,
    trace,
)


@pytest.fixture
def ab():
    return anbncn()


def sym(m, name):
    return m.symbol(name)


def cfg(m, state, *stacks):
    return Configuration(state, tuple(tuple(m.symbol(n) for n in w.split()) for w in stacks))


class TestStep:
    def test_push_prepends_on_every_stack(self, ab):
        m = ab.mpda
        r = m.rules[0]  # q1, X -> q1 : X B | C
        out = step(m, cfg(m, "q1", "X D", ""), r)
        assert out == cfg(m, "q1", "X B D", "C")

    def test_not_enabled_wrong_top(self, ab):
        m = ab.mpda
        with pytest.raises(NotEnabled):
            step(m, cfg(m, "q1", "B X D", "C"), m.rules[0])
        with pytest.raises(NotEnabled):
            step(m, cfg(m, "q2", "X", ""), m.rules[0])

    def test_not_enabled_empty_stack(self, ab):
        m = ab.mpda
        with pytest.raises(NotEnabled):
            step(m, cfg(m, "q1", "", "C"), m.rules[0])

    def test_successors_in_rule_order(self, ab):
        m = ab.mpda
        succ = successors(m, cfg(m, "q1", "X D", ""))
        assert [r for r, _ in succ] == [m.rules[0], m.rules[1]]


class TestReplay:
    def test_canonical_run(self, ab):
        m = ab.mpda
        w = Witness(cfg(m, "q1", "X D", ""), (m.rules[0], m.rules[1], m.rules[2], m.rules[3], m.rules[4]))
        assert replay(m, w) == cfg(m, "q2", "", "")
        assert len(trace(m, w)) == 6

    def test_invalid_witness_reports_index(self, ab):
        m = ab.mpda
        w = Witness(cfg(m, "q1", "X D", ""), (m.rules[1], m.rules[1]))
        with pytest.raises(InvalidWitness) as ei:
            replay(m, w)
        assert ei.value.index == 1


class TestReplayOnLists:
    """`replay` keeps its own stacks; `step` and `trace` are the reference."""

    @pytest.mark.parametrize("steps, index, reason", [
        ((1, 3, 1), 2, "state q2 != q1"),  # X popped at q2
        ((1, 1), 1, "X is not on top of stack 1"),  # D is on top
        ((1, 3, 4), 2, "C is not on top of stack 2"),  # stack 2 is empty
    ])
    def test_broken_step_reports_index_and_reason(self, ab, steps, index, reason):
        m = ab.mpda
        w = Witness(cfg(m, "q1", "X D", ""), tuple(m.rules[i] for i in steps))
        with pytest.raises(InvalidWitness) as ei:
            replay(m, w)
        assert ei.value.index == index
        assert str(ei.value) == f"witness step {index} is not enabled: {reason}"
        before = replay(m, Witness(w.start, w.steps[:index]))
        with pytest.raises(NotEnabled, match=f"^{reason}$"):
            step(m, before, w.steps[index])

    def test_symbols_equal_but_not_identical(self, ab):
        m = ab.mpda
        start = Configuration("q1", ((StackSymbol("X", 0), StackSymbol("D", 0)), ()))
        assert start.stacks[0][0] is not m.symbol("X")
        w = Witness(start, (m.rules[0], m.rules[1], m.rules[2], m.rules[3], m.rules[4]))
        assert replay(m, w) == cfg(m, "q2", "", "")

    def test_matches_trace_and_survives_the_text_format(self):
        rng = random.Random(11)
        for _ in range(150):
            m = random_weak_mpda(rng, stacks=rng.choice((1, 2, 3)), max_rules=8)
            w = random_walk(rng, m, random_configuration(rng, m, 4), rng.randint(0, 12))
            end = replay(m, w)
            assert end == trace(m, w)[-1]
            parsed = parse_witness(serialize_witness(w), m)
            assert parsed == w
            assert replay(m, parsed) == end


class TestMacroWitness:
    """A witness with macro steps `cancel q X`: replay checks the fragments
    once and fires each macro step as one pop; `expand` gives the flat run."""

    def test_macro_replay_matches_the_flat_run(self):
        m, w = macro_example()
        r = m.rules
        flat = expand(w)
        assert flat == Witness(w.start, (r[0], r[1], r[1], r[2], r[1]))
        assert flat_length(w) == len(flat.steps) == 5
        assert replay(m, w) == replay(m, flat) == trace(m, w)[-1] == cfg(m, "q", "", "")
        assert expand(flat) is flat and flat_length(flat) == 5

    def test_occurrence_functions_take_either_form(self):
        m, w = macro_example()
        flat = expand(w)
        assert trace(m, w) == trace(m, flat)
        assert descendant_forest(m, w) == descendant_forest(m, flat)
        assert forest_relevant(m, w) == forest_relevant(m, flat)
        assert start_occurrences(m, w) == start_occurrences(m, flat) == (set(), {(0, 0), (0, 1)})
        assert is_fully_active(m, w) == is_fully_active(m, flat) == forest_fully_active(m, flat)

    @pytest.mark.parametrize("fragments, index, reason", [
        ((3, 1, 2), 0, "changes state"),  # q A -> p
        ((4, 1, 2), 1, "a second definition for cancel q B"),  # A's rule edited to pop B
        ((0, 1), 0, "pushes C, which no fragment defines in state q"),
        ((0, 4, 2), 0, "in a cycle"),  # A pushes B, B pushes A
    ])
    def test_broken_fragments(self, fragments, index, reason):
        m, w = macro_example()
        w = Witness(w.start, w.steps, tuple(m.rules[i] for i in fragments))
        for check in (replay, lambda m, w: expand(w), lambda m, w: flat_length(w)):
            with pytest.raises(InvalidFragment, match=reason) as ei:
                check(m, w)
            assert ei.value.index == index
            assert isinstance(ei.value, InvalidWitness)

    @pytest.mark.parametrize("steps, index, reason", [  # a name is `cancel q <name>`, a number a rule
        (("B",), 0, "B is not on top of stack 1"),  # A is on top
        ((3, "B"), 1, "state p != q"),
        (("C",), 0, "C is not on top of stack 2"),
    ])
    def test_broken_macro_steps(self, steps, index, reason):
        m, w = macro_example()
        steps = tuple(Cancel("q", m.symbol(s)) if isinstance(s, str) else m.rules[s] for s in steps)
        with pytest.raises(InvalidWitness) as ei:
            replay(m, Witness(w.start, steps, w.fragments))
        assert ei.value.index == index
        assert str(ei.value) == f"witness step {index} is not enabled: {reason}"

    def test_cancel_without_fragment(self):
        m, w = macro_example()
        bare = Witness(w.start, w.steps, w.fragments[1:])  # only B and C defined
        for check in (replay, lambda m, w: expand(w), lambda m, w: flat_length(w)):
            with pytest.raises(InvalidWitness, match="no fragment defines cancel q A") as ei:
                check(m, bare)
            assert ei.value.index == 0

    def test_text_round_trip(self):
        m, w = macro_example()
        text = serialize_witness(w)
        assert text.splitlines()[1:4] == ["define rule q A -> q : B B | C", "define rule q B -> q :  | ", "define rule q C -> q :  | "]
        assert text.splitlines()[4] == "cancel q A"
        assert parse_witness(text, m) == w


class TestValueSemantics:
    """Symbols, rules and configurations are plain values; the compiled
    machine holds the one numbering of symbols."""

    def test_symbols_compare_by_name_and_stack(self):
        assert StackSymbol("A", 0) != StackSymbol("A", 1)
        assert StackSymbol("A", 0) == StackSymbol("A", 0)
        assert len({StackSymbol("A", 0), StackSymbol("A", 1), StackSymbol("A", 0)}) == 2
        syms = [StackSymbol("B", 0), StackSymbol("A", 1), StackSymbol("C", 0), StackSymbol("A", 0)]
        assert sorted(syms) == [StackSymbol("A", 0), StackSymbol("A", 1), StackSymbol("B", 0), StackSymbol("C", 0)]
        assert repr(StackSymbol("A", 0)) == "StackSymbol(name='A', stack=0)"

    def test_compiled_numbering_follows_declaration(self, ab):
        m = ab.mpda
        declared = [s for alpha in m.alphabets for s in alpha]
        own = m.compiled()
        assert list(own.symbols) == declared
        assert own.symbol_id == {s: i for i, s in enumerate(declared)}
        assert own.state_id == {q: i for i, q in enumerate(m.states)}

    def test_annotated_numbering_doubles_the_own(self, ab):
        m = ab.mpda
        own = m.compiled()
        annotated = annotated_machine(m, lambda rule, bit: [(rule, tuple(tuple((s, bit) for s in w) for w in rule.push))])
        assert len(annotated.symbols) == 2 * len(own.symbols)
        for i, s in enumerate(own.symbols):
            for b in (False, True):
                assert annotated.symbols[2 * i + b] == AnnotatedSymbol(s, b)
                assert annotated.symbol_id[AnnotatedSymbol(s, b)] == 2 * i + b

    def test_reparsed_configurations_and_rules_are_equal(self):
        rng = random.Random(23)
        for _ in range(50):
            m = random_weak_mpda(rng, stacks=rng.choice((1, 2, 3)))
            c = random_configuration(rng, m, 5)
            again = parse_configuration(str(c), m)
            assert again == c and hash(again) == hash(c)
            for r in m.rules:
                copy = TransitionRule(r.src, StackSymbol(r.pop.name, r.pop.stack), r.dst, tuple(tuple(w) for w in r.push))
                assert copy == r and hash(copy) == hash(r)
                assert (copy.rhs_size, copy.changes_state) == (r.rhs_size, r.changes_state)


class TestCompiledMachine:
    """A compiled machine interns stack words: a node is the state id and
    one word id per stack."""

    def test_successors_follow_rule_declaration(self):
        # random walks over `successors`, and so every generated benchmark
        # instance, depend on this order
        a, b = StackSymbol("A", 0), StackSymbol("B", 1)
        rules = (TransitionRule("q", b, "q", ((a,), ())), TransitionRule("q", a, "q", ((), (b, b))),
                 TransitionRule("q", b, "p", ((), ())), TransitionRule("q", a, "q", ((), ())))
        m = Mpda(("q", "p"), ((a,), (b,)), rules)
        c = Configuration("q", ((a,), (b,)))
        assert [r for r, _ in successors(m, c)] == list(rules)
        rng = random.Random(31)
        for _ in range(100):
            m = random_weak_mpda(rng, stacks=rng.choice((1, 2, 3)), max_rules=8)
            for _ in range(5):
                c = random_configuration(rng, m, 5)
                assert successors(m, c) == rule_steps(m, c)

    def test_one_id_per_word(self, ab):
        m = ab.mpda
        cm = m.compiled()
        c = cfg(m, "q1", "X B B D", "C")
        node = cm.encode(c)
        assert len(node) == 1 + m.stack_count and all(type(x) is int for x in node)
        assert cm.decode(node) == c
        assert cm.encode(cfg(m, "q1", "X B B D", "C")) == node
        assert cm.encode(cfg(m, "q1", "", ""))[1:] == (0, 0)
        w = node[1]
        assert cm.words[w] == tuple(cm.symbol_id[s] for s in c.stacks[0])
        assert (cm.top[w], cm.length[w]) == (cm.symbol_id[sym(m, "X")], 4)
        assert cm.words[cm.rest[w]] == cm.words[w][1:]
        assert cm.size(node) == c.size
        # a pushed word reaches the same id as the word encoded whole
        for _, child in cm.successors(node):
            assert child == cm.encode(cm.decode(child))

    def test_room_keeps_the_children_that_fit(self):
        rng = random.Random(37)
        for _ in range(100):
            m = random_weak_mpda(rng, stacks=rng.choice((1, 2)), max_rules=8, rhs_cap=3)
            cm = m.compiled()
            node = cm.encode(random_configuration(rng, m, 4))
            for room in range(8):
                assert cm.successors(node, room) == [(r, n) for r, n in cm.successors(node) if cm.size(n) <= room]


class TestValidation:
    def test_symbol_on_two_stacks_rejected(self):
        a1 = StackSymbol("A", 0)
        a2 = StackSymbol("A", 1)
        with pytest.raises(MpdaError):
            Mpda(("q",), ((a1,), (a2,)), ())

    def test_rule_pushing_on_wrong_stack_rejected(self):
        a = StackSymbol("A", 0)
        b = StackSymbol("B", 1)
        bad = TransitionRule("q", a, "q", ((b,), ()))
        with pytest.raises(MpdaError):
            Mpda(("q",), ((a,), (b,)), (bad,))

    def test_no_symbols_rejected(self):
        with pytest.raises(MpdaError):
            Mpda(("q",), ((), ()), ())

    def test_configuration_off_the_machine_rejected(self, ab):
        m = ab.mpda
        for c in (Configuration("q9", ((), ())), Configuration("q1", ((StackSymbol("Z", 0),), ()))):
            with pytest.raises(InputError, match="is not declared by the machine"):
                successors(m, c)


class TestDescendantForest:
    @pytest.fixture
    def run(self):
        # two stacks; first rule replaces A by BB and logs D, second turns D into A and D
        a = StackSymbol("A", 0)
        b = StackSymbol("B", 0)
        d = StackSymbol("D", 1)
        c = StackSymbol("C", 1)
        r1 = TransitionRule("q", a, "q", ((b, b), (d,)))
        r2 = TransitionRule("q", d, "q", ((a,), (d,)))
        m = Mpda(("q",), ((a, b), (d, c)), (r1, r2))
        w = Witness(Configuration("q", ((a, a), (c,))), (r1, r2))
        return m, w

    def _numbered(self, m, w):
        forest = descendant_forest(m, w)
        cfgs = trace(m, w)
        num = {}
        i = 1
        for t in range(len(cfgs)):
            for stk in range(m.stack_count):
                for occ in sorted((o for o in forest if o.config_index == t and o.stack == stk), key=lambda o: o.depth):
                    num[occ] = f"{cfgs[t].stacks[stk][occ.depth].name}{i}"
                    i += 1
        return forest, num

    def test_fourteen_nodes_edge_for_edge(self, run):
        m, w = run
        forest, num = self._numbered(m, w)
        assert len(forest) == 14
        edges = {(num[p], num[c]) for p, cs in forest.items() for c in cs}
        assert edges == {
            ("A1", "B4"), ("A1", "B5"), ("A1", "D7"),
            ("D7", "A9"), ("D7", "D13"),
            ("C3", "C8"), ("C8", "C14"),
            ("A2", "A6"), ("A6", "A12"),
            ("B4", "B10"), ("B5", "B11"),
        }

    def test_all_occurrences_relevant_here(self, run):
        m, w = run
        assert len(forest_relevant(m, w)) == 14
        assert start_occurrences(m, w) == ({(0, 0), (0, 1), (1, 0)}, {(0, 0)})


class TestRelevance:
    def test_irrelevant_material_below_is_dropped(self, ab):
        # pop X then D; the surviving C occurrences never reach the target
        m = ab.mpda
        w = Witness(cfg(m, "q1", "X B D", "C"), (m.rules[1], m.rules[2], m.rules[3]))
        assert replay(m, w) == cfg(m, "q2", "", "C")
        rel, popped = start_occurrences(m, w)
        # B is popped without changing state and leaves nothing: irrelevant
        assert (0, 1) not in rel
        # X is popped by a state-preserving rule too, and leaves nothing
        assert (0, 0) not in rel
        # D drives the state change, C survives into the final configuration
        assert rel == {(0, 2), (1, 0)}
        # C is never popped
        assert popped == {(0, 0), (0, 1), (0, 2)}


class TestStartOccurrences:
    """`start_occurrences`, one pass over a witness as written, equals the
    descendant forest of its flat run (`helpers.forest_relevant` and
    `helpers.forest_fully_active`) on the start occurrences."""

    @staticmethod
    def agree(m, w) -> bool:
        relevant, _ = start_occurrences(m, w)
        assert relevant == {(o.stack, o.depth) for o in forest_relevant(m, w) if o.config_index == 0}
        active = is_fully_active(m, w)
        assert active == forest_fully_active(m, w)
        return active

    def test_random_walks(self):
        rng = random.Random(2203)
        active = 0
        for _ in range(300):
            m = random_weak_mpda(rng, stacks=rng.randint(1, 3), max_rules=8)
            w = random_walk(rng, m, random_configuration(rng, m, 5), rng.randint(0, 12))
            active += self.agree(m, w)
        assert 30 < active < 270

    def test_marked_macro_witnesses(self):
        rng = random.Random(2204)
        macro = 0
        for m in nested_eraser_machines():
            s = random_configuration(rng, m, 3)
            w = reach_marked(m, s, replay(m, random_walk(rng, m, s, 5))).witness
            macro += any(r.__class__ is Cancel for r in w.steps)
            self.agree(m, w)
        assert macro > 20

    def test_expo(self):
        # the top X1 is canceled whole; the X1 below it grows into Xn
        for n in range(2, 11):
            m = expo(n).mpda
            x1, xn = m.symbol("X1"), m.symbol(f"X{n}")
            w = reach_marked(m, Configuration("q", ((x1, x1),)), Configuration("q", ((xn,),))).witness
            assert flat_length(w) == 2 ** (n + 1) - 3
            assert self.agree(m, w)
            assert start_occurrences(m, w) == ({(0, 1)}, {(0, 0), (0, 1)})


syms = st.sampled_from([StackSymbol(n, 0) for n in "AB"])
words = st.lists(syms, max_size=6).map(tuple)


class TestHigman:
    @given(words, words)
    def test_greedy_matches_bruteforce(self, u, v):
        def brute(u, v):
            if not u:
                return True
            return any(brute(u[1:], v[i + 1:]) for i in range(len(v)) if v[i] == u[0])

        assert higman_leq(u, v) == brute(u, v)

    @given(words)
    def test_reflexive(self, u):
        assert higman_leq(u, u)

    @given(words, words, words)
    def test_transitive(self, u, v, w):
        if higman_leq(u, v) and higman_leq(v, w):
            assert higman_leq(u, w)


class TestBottomFixedHigman:
    def test_requires_equal_bottom(self, ab):
        m = ab.mpda
        assert bf_higman_leq(cfg(m, "q1", "D", ""), cfg(m, "q1", "X D", ""))
        assert not bf_higman_leq(cfg(m, "q1", "D", ""), cfg(m, "q1", "D X", ""))
        assert not bf_higman_leq(cfg(m, "q1", "D", ""), cfg(m, "q2", "X D", ""))

    def test_empty_vs_nonempty(self, ab):
        m = ab.mpda
        assert not bf_higman_leq(cfg(m, "q1", "", ""), cfg(m, "q1", "X", ""))
        assert bf_higman_leq(cfg(m, "q1", "", "C"), cfg(m, "q1", "", "C C"))

    def test_implies_plain_embedding_with_more_material(self, ab):
        m = ab.mpda
        assert bf_higman_leq(cfg(m, "q1", "B D", "C"), cfg(m, "q1", "X B B D", "C C"))


class TestEnumeration:
    def test_ordered_by_state_size_then_words(self, ab):
        m = ab.mpda
        got = list(all_configurations(m, 1))
        assert got[0] == cfg(m, "q1", "", "")
        sizes = [c.size for c in got if c.state == "q1"]
        assert sizes == sorted(sizes)

    def test_count_matches_formula(self, ab):
        m = ab.mpda
        # sizes 0..2 over alphabets of 3 and 1 symbols: 1 + 4 + 13 per state
        assert len(list(all_configurations(m, 2))) == 2 * (1 + 4 + 13)
