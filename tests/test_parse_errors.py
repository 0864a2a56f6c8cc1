"""One table of malformed inputs for every text format: each row pins the
exact `ParseError` message and its line number."""

import pytest

from mpda import formats
from mpda.formats import ParseError

MACHINE = """\
mpda {
  states: p q
  stacks: 2
  alphabet 1: A B
  alphabet 2: C
  rule p A -> q : B | C
  rule q B -> q : |
}
"""

# a machine with a macro witness: `cancel q B` by the fragment `q B -> q`
WITNESS = """\
p : A |
define rule q B -> q :  |
rule p A -> q : B | C
cancel q B
"""

REGSET = """\
regset {
  state p {
    nfa 1 { states: s t ; initial: s ; edge s A t }
    nfa 2 { states: s ; initial: s }
    accept: (t s)
  }
}
"""


def edit(text, old, new):
    assert old in text, old
    return text.replace(old, new, 1)


def machine(old, new):
    return edit(MACHINE, old, new)


def witness(old, new):
    return edit(WITNESS, old, new)


def regset(old, new):
    return edit(REGSET, old, new)


MACHINE_ERRORS = [
    # the header
    ("", 1, "expected 'mpda {'"),
    ("# only a comment\n\n", 2, "expected 'mpda {'"),
    (machine("mpda {", "mpda"), 1, "expected 'mpda {'"),
    (machine("mpda {", "machine {"), 1, "expected 'mpda {'"),
    (machine("mpda {", "mpda { states: p"), 1, "expected 'mpda {'"),
    (MACHINE + "  states: r\n", 9, "content after closing '}'"),
    (MACHINE + "}\n", 9, "content after closing '}'"),
    (machine("  stacks: 2", "  stacks: 2\n  states: r"), 4, "duplicate 'states:' line"),
    (machine("states: p q", "states:"), 2, "empty state list"),
    (machine("states: p q", "states: p q p"), 2, "duplicate state"),
    (machine("states: p q", "states p q"), 2, "unrecognized line 'states'"),
    (machine("  stacks: 2", "  stacks: 2\n  stacks: 2"), 4, "duplicate 'stacks:' line"),
    (machine("stacks: 2", "stacks: two"), 3, "bad stack count 'two'"),
    (machine("stacks: 2", "stacks:"), 3, "bad stack count ''"),
    (machine("stacks: 2", "stacks: 0"), 3, "stack count must be positive"),
    (machine("stacks: 2", "stacks: -1"), 3, "stack count must be positive"),
    (machine("stacks: 2", "stacks 2"), 3, "unrecognized line 'stacks'"),
    (machine("alphabet 1: A B", "alphabet: A B"), 4, "expected 'alphabet <index>: ...'"),
    (machine("alphabet 1: A B", "alphabet 1 A B"), 4, "expected 'alphabet <index>: ...'"),
    (machine("alphabet 1: A B", "alphabet one: A B"), 4, "bad stack index 'one'"),
    (machine("alphabet 2: C", "alphabet 1: C"), 5, "duplicate alphabet for stack 1"),
    (machine("alphabet 2: C", "alphabet 3: C"), 1, "need alphabets for stacks 1..2, got [1, 3]"),
    (machine("  alphabet 2: C\n", ""), 1, "need alphabets for stacks 1..2, got [1]"),
    (machine("alphabet 2: C", "alphabet 2: C A"), 5, "symbol 'A' already declared on stack 1"),
    (machine("  rule q B", "  frobnicate 3\n  rule q B"), 7, "unrecognized line 'frobnicate'"),
    (machine("}", ""), 8, "missing closing '}'"),
    (machine("  states: p q\n", ""), 1, "missing 'states:' line"),
    (machine("  stacks: 2\n", ""), 1, "missing 'stacks:' line"),
    # the machine itself, checked once the whole file is read
    (machine("states: p q", "states: p q ~r"), 1, "identifiers may not start with '~': '~r'"),
    # rules
    (machine("rule q B -> q : |", "rule q B -> q"), 7, "malformed rule line"),
    (machine("rule q B -> q : |", "rule q B => q : |"), 7, "expected '->', got '=>'"),
    (machine("rule q B -> q : |", "rule q B -> q | |"), 7, "expected ':' after target state"),
    (machine("rule q B -> q : |", "rule q B -> q : B"), 7, "rule pushes on 1 stacks, expected 2"),
    (machine("rule q B -> q : |", "rule q B -> q : | |"), 7, "rule pushes on 3 stacks, expected 2"),
    (machine("rule q B -> q : |", "rule q Z -> q : |"), 7, "unknown symbol 'Z'"),
    (machine("rule q B -> q : |", "rule q B -> q : Z |"), 7, "unknown symbol 'Z'"),
    (machine("rule q B -> q : |", "rule q B -> q : C |"), 7, "symbol 'C' pushed on stack 1 but belongs to stack 2"),
    (machine("rule q B -> q : |", "rule q B -> q : | A"), 7, "symbol 'A' pushed on stack 2 but belongs to stack 1"),
    (machine("rule q B -> q : |", "rule r B -> q : |"), 7, "rule references undeclared state 'r'"),
    (machine("rule q B -> q : |", "rule q B -> r : |"), 7, "rule references undeclared state 'r'"),
    # the check order: the stack count before the popped symbol, and that
    # before the pushed symbols
    (machine("rule q B -> q : |", "rule q Z -> q : Z"), 7, "rule pushes on 1 stacks, expected 2"),
    (machine("rule q B -> q : |", "rule q Z -> q : Y |"), 7, "unknown symbol 'Z'"),
]


@pytest.mark.parametrize("text, line, message", MACHINE_ERRORS)
def test_machine_errors(text, line, message):
    with pytest.raises(ParseError) as ei:
        formats.parse_mpda(text)
    assert (ei.value.line, str(ei.value)) == (line, f"line {line}: {message}")


CONFIGURATION_ERRORS = [
    ("p A |", "expected '<state> : <stacks>'"),
    ("", "expected '<state> : <stacks>'"),
    ("p q : A |", "bad state field 'p q'"),
    (": A |", "bad state field ''"),
    ("r : A |", "unknown state 'r'"),
    ("p : A", "configuration has 1 stacks, expected 2"),
    ("p : A | C | C", "configuration has 3 stacks, expected 2"),
    ("p : Z |", "unknown symbol 'Z'"),
    ("p : A : B |", "unknown symbol ':'"),
    ("p : C |", "symbol 'C' listed on stack 1 but belongs to stack 2"),
    ("p : | B", "symbol 'B' listed on stack 2 but belongs to stack 1"),
    # the check order: the stack count, the state, then the symbols
    ("r : Z", "configuration has 1 stacks, expected 2"),
    ("r : Z |", "unknown state 'r'"),
]


@pytest.mark.parametrize("text, message", CONFIGURATION_ERRORS)
def test_configuration_errors(text, message):
    m = formats.parse_mpda(MACHINE)
    for lineno in (1, 5):
        with pytest.raises(ParseError) as ei:
            formats.parse_configuration(text + "  # a comment", m, lineno)
        assert (ei.value.line, str(ei.value)) == (lineno, f"line {lineno}: {message}")


WITNESS_ERRORS = [
    ("# nothing\n\n", 1, "empty witness file"),
    ("# the start\n\np A |\n", 3, "expected '<state> : <stacks>'"),
    (witness("cancel q B", "cancel q Z"), 4, "unknown symbol 'Z'"),
    (witness("cancel q B", "cancel r B"), 4, "unknown state 'r'"),
    (witness("cancel q B", "cancel q"), 4, "expected 'cancel <state> <symbol>'"),
    (witness("cancel q B", "cancel p B"), 4, "no definition for cancel p B"),
    (witness("define rule q B -> q :  |\n", ""), 3, "no definition for cancel q B"),
    (witness("cancel q B", "cancel q B\ndefine rule q B -> q : |"), 5, "a second definition for cancel q B"),
    (witness("rule p A -> q : B | C", "rule p A -> p : B | C"), 3,
     "rule not declared by the machine: rule p A -> p : B | C"),
    (witness("define rule q B -> q :  |", "define rule q B -> q : B |"), 2,
     "rule not declared by the machine: rule q B -> q : B | "),
    (witness("rule p A -> q : B | C", "rule p A -> q"), 3, "malformed rule line"),
    (witness("rule p A -> q : B | C", "rule p A -> q : B"), 3, "rule pushes on 1 stacks, expected 2"),
    (witness("rule p A -> q : B | C", "rule p A -> q : B | Z"), 3, "unknown symbol 'Z'"),
    (witness("rule p A -> q : B | C", "frobnicate"), 3, "malformed rule line"),
]


@pytest.mark.parametrize("text, line, message", WITNESS_ERRORS)
def test_witness_errors(text, line, message):
    m = formats.parse_mpda(MACHINE)
    with pytest.raises(ParseError) as ei:
        formats.parse_witness(text, m)
    assert (ei.value.line, str(ei.value)) == (line, f"line {line}: {message}")


RELAXED = ("relaxed regular sets over the padded product alphabet are not supported: reachability "
           "from them is undecidable; use per-stack 'regset { ... }' blocks")

# The regset parser reports the line of the token a check is about: a check
# made after a closing ')' or '}' names the line of that token, and one
# deferred to the end of a block names the line of the entry it rejects.
REGSET_ERRORS = [
    ("relaxed-regset { }", 1, RELAXED),
    ("\nrelaxed { }", 2, RELAXED),
    ("", 1, "unexpected end of input, expected 'regset'"),
    ("set {\n}", 1, "expected 'regset', got 'set'"),
    ("regset\n", 1, "unexpected end of input, expected '{'"),
    (REGSET + "regset", 8, "trailing input starting at 'regset'"),
    (regset("state p {", "state r {"), 2, "unknown state 'r'"),
    (regset("  }\n}", "  }\n  state p {\n  }\n}"), 7, "duplicate component for state 'p'"),
    (regset("state p {", "state p"), 3, "expected '{', got 'nfa'"),
    (regset("state p {", "place p {"), 2, "expected 'state', got 'place'"),
    (regset("nfa 1 {", "nfa one {"), 3, "bad stack index 'one'"),
    (regset("nfa 2 {", "nfa 3 {"), 4, "stack index 3 out of range 1..2"),
    (regset("nfa 2 {", "nfa 0 {"), 4, "stack index 0 out of range 1..2"),
    (regset("nfa 2 {", "nfa 1 {"), 4, "duplicate nfa for stack 1"),
    (regset("accept: (t s)", "reject: (t s)"), 5, "expected 'nfa' or 'accept', got 'reject'"),
    (regset("accept: (t s)", "accept (t s)"), 5, "expected ':', got '('"),
    (regset("accept: (t s)", "accept: (t)"), 5, "accepting tuple has 1 entries, expected 2"),
    (regset("accept: (t s)", "accept: (t s s)"), 5, "accepting tuple has 3 entries, expected 2"),
    (regset("accept: (t s)", "accept: (z s)"), 5, "accepting tuple uses unknown nfa state 'z'"),
    (regset("accept: (t s)", "accept: (~t s)"), 5, "identifiers may not start with '~': '~t'"),
    (regset("    nfa 2 { states: s ; initial: s }\n", ""), 5, "component needs nfas for stacks 1..2"),
    (regset("    accept: (t s)\n", ""), 5, "component is missing an 'accept:' clause"),
    (regset("initial: s ; edge", "initial: s ; arc"), 3, "expected 'states', 'initial' or 'edge', got 'arc'"),
    (regset("edge s A t", "edge s Z t"), 3, "unknown symbol 'Z'"),
    (regset("edge s A t", "edge s C t"), 3, "symbol 'C' belongs to stack 2, not 1"),
    (regset("edge s A t", "edge s A u"), 3, "edge uses undeclared nfa state"),
    (regset("states: s t ; initial: s ;", "initial: s ;"), 3, "nfa is missing a 'states:' clause"),
    (regset("states: s t ; initial: s ;", "states: s t ;"), 3, "nfa is missing an 'initial:' clause"),
    (regset("states: s t ;", "states: s t s ;"), 3, "duplicate nfa state"),
    (regset("initial: s ;", "initial: u ;"), 3, "initial state 'u' not declared"),
    (regset("states: s t ;", "states ;"), 3, "expected ':', got ';'"),
    # entries on lines of their own
    (regset("accept: (t s)", "accept: (t s)\n      (z s)"), 6, "accepting tuple uses unknown nfa state 'z'"),
    (regset("edge s A t }", "edge s A t ;\n      edge t A u\n    }"), 4, "edge uses undeclared nfa state"),
    (regset("initial: s ;", "initial:\n      s\n      u ;"), 5, "initial state 'u' not declared"),
    (regset("states: s t ;", "states:\n      s t\n      s ;"), 5, "duplicate nfa state"),
    # an early end of input names what the parser expected, on the last line
    ("regset {\n  state p {\n    nfa 1 {", 3, "unexpected end of input, expected 'states', 'initial' or 'edge'"),
    ("regset {\n  state p {\n", 2, "unexpected end of input, expected 'nfa' or 'accept'"),
    ("regset {\n  state", 2, "unexpected end of input, expected state name"),
    ("regset {\n  state p {\n    nfa", 3, "unexpected end of input, expected stack index"),
    ("regset {\n  state p {\n    nfa 1 { edge s", 3, "unexpected end of input, expected symbol"),
]


@pytest.mark.parametrize("text, line, message", REGSET_ERRORS)
def test_regset_errors(text, line, message):
    m = formats.parse_mpda(MACHINE)
    with pytest.raises(ParseError) as ei:
        formats.parse_regset(text, m)
    assert (ei.value.line, str(ei.value)) == (line, f"line {line}: {message}")


def test_the_fixtures_parse():
    m = formats.parse_mpda(MACHINE)
    w = formats.parse_witness(WITNESS, m)
    assert len(w.steps) == 2 and len(w.fragments) == 1
    assert len(formats.parse_regset(REGSET, m).components) == 1
