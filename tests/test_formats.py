import random
import re

import pytest

from mpda import formats
from mpda.formats import ParseError
from mpda.gadgets import anbncn, expo, nonreg_forward
from mpda.model import (
    PUNCTUATION, Cancel, Configuration, Mpda, MpdaError, StackSymbol, TransitionRule, Witness, check_token,
)
from mpda.regsets import singleton

from helpers import macro_example, random_configuration, random_regset, random_walk, random_weak_mpda

MACHINE = """\
# the three-block counter machine
mpda {
  states: q1 q2
  stacks: 2
  alphabet 1: X B D
  alphabet 2: C
  rule q1 X -> q1 : X B | C
  rule q1 X -> q1 : |
  rule q1 B -> q1 : |
  rule q1 D -> q2 : |
  rule q2 C -> q2 : |
}
"""


class TestMpdaFormat:
    def test_parse_fixture(self):
        m = formats.parse_mpda(MACHINE)
        assert m == anbncn().mpda

    def test_roundtrip_fixture(self):
        m = formats.parse_mpda(MACHINE)
        text = formats.serialize_mpda(m)
        assert formats.parse_mpda(text) == m
        assert formats.serialize_mpda(formats.parse_mpda(text)) == text

    def test_rule_label_is_ignored(self):
        text = MACHINE.replace("rule q1 X -> q1 : X B | C", "rule q1 X -a-> q1 : X B | C")
        assert formats.parse_mpda(text) == anbncn().mpda

    @pytest.mark.parametrize("bad,line", [
        (MACHINE.replace("rule q1 B -> q1 : |", "rule q1 B => q1 : |"), 9),
        (MACHINE.replace("alphabet 2: C", "alphabet two: C"), 6),
        (MACHINE.replace("rule q2 C -> q2 : |", "rule q2 C -> q2 : C"), 11),
        (MACHINE.replace("rule q2 C -> q2 : |", "rule q2 C -> q9 : |"), 11),
        (MACHINE.replace("states: q1 q2", "states: q1 q1"), 3),
        (MACHINE.replace("alphabet 2: C", "alphabet 2: C X"), 6),
    ])
    def test_errors_carry_line_numbers(self, bad, line):
        with pytest.raises(ParseError) as ei:
            formats.parse_mpda(bad)
        assert ei.value.line == line

    def test_missing_brace(self):
        with pytest.raises(ParseError):
            formats.parse_mpda(MACHINE.replace("}", ""))

    def test_wrong_push_arity(self):
        with pytest.raises(ParseError):
            formats.parse_mpda(MACHINE.replace("rule q1 B -> q1 : |", "rule q1 B -> q1 :"))


class TestConfigurationFormat:
    def test_parse(self):
        m = anbncn().mpda
        c = formats.parse_configuration("q1 : X D |  # a comment", m)
        assert c == anbncn().source

    def test_roundtrip(self):
        c = anbncn().source
        m = anbncn().mpda
        assert formats.parse_configuration(formats.serialize_configuration(c), m) == c

    @pytest.mark.parametrize("bad", [
        "q3 : X |",          # unknown state
        "q1 : X",            # missing a stack
        "q1 : C | C",        # symbol on the wrong stack
        "q1 : X | C | C",    # too many stacks
        "q1 X |",            # no colon
    ])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            formats.parse_configuration(bad, anbncn().mpda)


class TestWitnessFormat:
    def test_roundtrip(self):
        inst = anbncn()
        m = inst.mpda
        w = Witness(inst.source, (m.rules[0], m.rules[1], m.rules[2], m.rules[3], m.rules[4]))
        text = formats.serialize_witness(w)
        assert formats.parse_witness(text, m) == w

    def test_undeclared_rule_rejected(self):
        inst = anbncn()
        text = "q1 : X D |\nrule q1 D -> q1 : |\n"
        with pytest.raises(ParseError) as ei:
            formats.parse_witness(text, inst.mpda)
        assert ei.value.line == 2

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError):
            formats.parse_witness("# nothing\n", anbncn().mpda)

    def test_steps_are_the_machines_rule_objects(self):
        inst = anbncn()
        m = inst.mpda
        w = Witness(inst.source, (m.rules[0], m.rules[1], m.rules[2], m.rules[3], m.rules[4]))
        text = formats.serialize_witness(w)
        # the same rules written another way: a labeled arrow, extra blanks, a comment
        text += "rule  q1 X -lbl-> q1 :  X B | C   # again\n" + "rule q1 X -> q1 : X B | C\n"
        got = formats.parse_witness(text, m)
        assert got.steps == w.steps + (m.rules[0], m.rules[0])
        assert all(any(step is r for r in m.rules) for step in got.steps)
        with pytest.raises(ParseError) as ei:
            formats.parse_witness(text + "rule q1 D -> q1 : |\n", m)
        assert ei.value.line == 9


# the spellings of a rule line: ':' and '|' with or without spaces around them
SPACINGS = [
    lambda line: re.sub(r" *\| *", "|", line),  # rule q A -> q : B|C
    lambda line: re.sub(r" *:", ":", line),  # rule q A -> q: B | C
    lambda line: re.sub(r" *([:|]) *", r"\1", line),  # rule q A -> q:B|C
]
SPACING_IDS = ["bar", "colon", "both"]


def respace(text, spacing):
    """text with `spacing` applied to its rule and `define` lines."""
    return "".join(spacing(line) if line.lstrip().startswith(("rule", "define")) else line
                   for line in text.splitlines(keepends=True))


class TestRuleLineSpacing:
    @pytest.mark.parametrize("spacing", SPACINGS, ids=SPACING_IDS)
    def test_machine(self, spacing):
        text = respace(MACHINE, spacing)
        assert text != MACHINE
        assert formats.parse_mpda(text) == anbncn().mpda

    @pytest.mark.parametrize("spacing", SPACINGS, ids=SPACING_IDS)
    def test_witness_steps(self, spacing):
        inst = anbncn()
        m = inst.mpda
        w = Witness(inst.source, (m.rules[0], m.rules[1], m.rules[2], m.rules[3], m.rules[4]))
        text = respace(formats.serialize_witness(w), spacing)
        assert text != formats.serialize_witness(w)
        got = formats.parse_witness(text, m)
        assert got == w
        assert all(any(step is r for r in m.rules) for step in got.steps)

    @pytest.mark.parametrize("spacing", SPACINGS, ids=SPACING_IDS)
    def test_witness_definitions(self, spacing):
        m, w = macro_example()
        text = respace(formats.serialize_witness(w), spacing)
        assert text != formats.serialize_witness(w)
        assert formats.parse_witness(text, m) == w
        assert formats.parse_mpda(respace(formats.serialize_mpda(m), spacing)) == m


class TestMacroWitnessFormat:
    """`define <rule line>` and `cancel <state> <symbol>` lines."""

    @pytest.mark.parametrize("edit, line, message", [
        (("define rule q C -> q :  | ", "define rule q C -> q : | C"), 4, "rule not declared by the machine"),
        (("define rule q C -> q :  | ", "define rule q B -> q : A |"), 4, "a second definition for cancel q B"),
        (("define rule q A -> q : B B | C\n", ""), 4, "no definition for cancel q A"),
        (("cancel q A", "cancel p A\ncancel q A"), 5, "no definition for cancel p A"),
        (("cancel q A", "cancel r A"), 5, "unknown state 'r'"),
        (("cancel q A", "cancel q A A"), 5, "expected 'cancel <state> <symbol>'"),
    ])
    def test_rejects(self, edit, line, message):
        m, w = macro_example()
        text = formats.serialize_witness(w)
        assert edit[0] in text
        with pytest.raises(ParseError, match=message) as ei:
            formats.parse_witness(text.replace(edit[0], edit[1], 1), m)
        assert ei.value.line == line

    def test_definitions_after_their_use(self):
        m, w = macro_example()
        lines = formats.serialize_witness(w).splitlines()
        moved = "\n".join(lines[:1] + lines[4:] + lines[1:4]) + "\n"
        assert formats.parse_witness(moved, m) == w


class TestRegsetFormat:
    def test_roundtrip_fixture(self):
        inst = anbncn()
        text = formats.serialize_regset(inst.target)
        again = formats.parse_regset(text, inst.mpda)
        assert again == inst.target
        assert formats.serialize_regset(again) == text

    def test_relaxed_sets_rejected_with_pointer(self):
        inst = anbncn()
        with pytest.raises(ParseError) as ei:
            formats.parse_regset("relaxed-regset { }", inst.mpda)
        assert "undecidable" in str(ei.value)

    def test_accept_arity_checked(self):
        inst = anbncn()
        text = formats.serialize_regset(inst.target).replace("(s0 s0)", "(s0)")
        with pytest.raises(ParseError):
            formats.parse_regset(text, inst.mpda)

    def test_unknown_nfa_state_in_accept(self):
        inst = anbncn()
        text = formats.serialize_regset(inst.target).replace("(s0 s0)", "(zz s0)")
        with pytest.raises(ParseError):
            formats.parse_regset(text, inst.mpda)


class TestRandomRoundTrips:
    def test_machines_and_sets(self):
        rng = random.Random(4821)
        for _ in range(30):
            m = random_weak_mpda(rng)
            assert formats.parse_mpda(formats.serialize_mpda(m)) == m
            L = random_regset(rng, m)
            assert formats.parse_regset(formats.serialize_regset(L), m) == L

    def test_witnesses(self):
        rng = random.Random(91)
        for _ in range(20):
            m = random_weak_mpda(rng, strongly_normed=True)
            w = random_walk(rng, m, random_configuration(rng, m, 3), 5)
            assert formats.parse_witness(formats.serialize_witness(w), m) == w

    def test_gadget_machines(self):
        for inst in (anbncn(), expo(4), nonreg_forward()):
            assert formats.parse_mpda(formats.serialize_mpda(inst.mpda)) == inst.mpda
            assert formats.parse_regset(formats.serialize_regset(inst.target), inst.mpda) == inst.target


# every printable character that may occur in a name
NAME_CHARS = [ch for ch in map(chr, range(33, 127)) if ch not in PUNCTUATION + "#"]


def odd_names(rng, count):
    """`count` distinct names of one to four characters drawn from NAME_CHARS,
    such as '->', '-a->', 'x.1' or '@'."""
    names = set()
    while len(names) < count:
        name = "".join(rng.choice(NAME_CHARS) for _ in range(rng.randint(1, 4)))
        if not name.startswith("~"):
            names.add(name)
    return sorted(names)


def renamed(m, rng):
    """m with every state and symbol renamed to an odd name, and the renaming
    of a witness on m."""
    olds = list(m.states) + [s.name for alpha in m.alphabets for s in alpha]
    new = dict(zip(olds, odd_names(rng, len(olds))))
    sym = {s: StackSymbol(new[s.name], s.stack) for alpha in m.alphabets for s in alpha}
    rule = {r: TransitionRule(new[r.src], sym[r.pop], new[r.dst], tuple(tuple(sym[s] for s in w) for w in r.push))
            for r in m.rules}
    m2 = Mpda(tuple(new[q] for q in m.states), tuple(tuple(sym[s] for s in alpha) for alpha in m.alphabets),
              tuple(rule[r] for r in m.rules))

    def witness(w):
        def config(c):
            return Configuration(new[c.state], tuple(tuple(sym[s] for s in st) for st in c.stacks))
        steps = tuple(Cancel(new[s.src], sym[s.pop]) if isinstance(s, Cancel) else rule[s] for s in w.steps)
        return Witness(config(w.start), steps, tuple(rule[r] for r in w.fragments))

    return m2, witness


class TestLexicalLayer:
    """One punctuation set: the lexer splits at each of its characters, and
    no name may hold one, so every file the toolkit writes parses back."""

    @pytest.mark.parametrize("ch", list(PUNCTUATION + " \t#\n"))
    def test_no_name_holds_a_character_the_lexer_splits_at(self, ch):
        with pytest.raises(MpdaError):
            check_token(f"a{ch}b")

    @pytest.mark.parametrize("ch", list(PUNCTUATION))
    def test_each_punctuation_character_is_a_token(self, ch):
        assert formats._tokens(f"a{ch}b {ch}{ch}c  # d{ch}e") == ["a", ch, "b", ch, ch, "c"]

    @pytest.mark.parametrize("old, new, line, ch", [
        ("states: q1 q2", "states: q{0} q2", 3, "{"),
        ("states: q1 q2", "states: q1 q2}", 3, "}"),
        ("alphabet 1: X B D", "alphabet 1: X B D A;1", 5, ";"),
        ("alphabet 2: C", "alphabet 2: C (C)", 6, "("),
    ])
    def test_names_with_punctuation_are_rejected(self, old, new, line, ch):
        with pytest.raises(ParseError) as ei:
            formats.parse_mpda(MACHINE.replace(old, new))
        assert (ei.value.line, str(ei.value)) == (line, f"line {line}: names may not contain {ch!r}")

    def test_a_machine_with_punctuation_in_names_is_rejected(self):
        with pytest.raises(MpdaError, match=re.escape("bad identifier 'q{0}'")):
            Mpda(("q{0}",), ((StackSymbol("A", 0),),), ())
        with pytest.raises(MpdaError, match=re.escape("bad identifier 'A;1'")):
            Mpda(("q",), ((StackSymbol("A;1", 0),),), ())

    def test_keywords_may_be_names(self):
        m = formats.parse_mpda(
            "mpda {\n  states: rule states\n  stacks: 2\n  alphabet 1: cancel define\n  alphabet 2: -> mpda\n"
            "  rule rule cancel -> states : define | ->\n  rule states define -> states : |\n}\n"
        )
        assert formats.parse_mpda(formats.serialize_mpda(m)) == m
        w = Witness(formats.parse_configuration("rule : cancel | ->", m), m.rules)
        assert formats.parse_witness(formats.serialize_witness(w), m) == w
        L = singleton(m, w.start)
        assert formats.parse_regset(formats.serialize_regset(L), m) == L

    def test_odd_names_round_trip(self):
        rng = random.Random(733)
        for _ in range(30):
            m, _ = renamed(random_weak_mpda(rng, strongly_normed=rng.random() < 0.5), rng)
            text = formats.serialize_mpda(m)
            assert formats.parse_mpda(text) == m and formats.serialize_mpda(formats.parse_mpda(text)) == text
            c = random_configuration(rng, m, 4)
            assert formats.parse_configuration(formats.serialize_configuration(c), m) == c
            L = random_regset(rng, m)
            assert formats.parse_regset(formats.serialize_regset(L), m) == L
            w = random_walk(rng, m, c, 5)
            assert formats.parse_witness(formats.serialize_witness(w), m) == w
        m, w = macro_example()
        m2, rename = renamed(m, rng)
        assert formats.parse_witness(formats.serialize_witness(rename(w)), m2) == rename(w)
