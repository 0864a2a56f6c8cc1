"""Plain-text formats for machines, configurations, witnesses and regular sets.

All formats share one lexical layer, `_tokens`: '#' starts a comment that
runs to the end of the line, each character of `model.PUNCTUATION`
('{', '}', '(', ')', ';', ':' and '|') is a token of its own, and the rest
of the line splits at whitespace.  No name may hold punctuation, whitespace
or '#' (`model.check_token`), so every file written here parses back.
Parse errors carry 1-based line numbers.
"""

from __future__ import annotations

from typing import Collection

from .model import (
    PUNCTUATION,
    Cancel,
    Configuration,
    Mpda,
    StackSymbol,
    TransitionRule,
    Witness,
    Word,
    check_token,
    MpdaError,
)
from .regsets import Component, RegSet, StackNfa


class ParseError(Exception):
    def __init__(self, line: int, msg: str):
        self.line = line
        super().__init__(f"line {line}: {msg}")


_SPACED = tuple((ch, f" {ch} ") for ch in PUNCTUATION)


def _tokens(line: str) -> list[str]:
    """The tokens of one line, its comment stripped."""
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    for ch, spaced in _SPACED:
        line = line.replace(ch, spaced)
    return line.split()


class _Tokens:
    def __init__(self, text: str):
        self.toks = [(tok, lineno) for lineno, line in enumerate(text.splitlines(), start=1) for tok in _tokens(line)]
        self.pos = 0

    @property
    def line(self) -> int:
        """The line of the last token read, or of the first before any is read."""
        return self.toks[max(self.pos - 1, 0)][1] if self.toks else 1

    def peek(self) -> str | None:
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def next(self, what: str = "token") -> str:
        if self.pos >= len(self.toks):
            raise ParseError(self.line, f"unexpected end of input, expected {what}")
        tok, _ = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next(repr(tok))
        if got != tok:
            raise ParseError(self.line, f"expected {tok!r}, got {got!r}")

    def done(self) -> None:
        if self.pos < len(self.toks):
            tok, lineno = self.toks[self.pos]
            raise ParseError(lineno, f"trailing input starting at {tok!r}")


_LONE = frozenset(PUNCTUATION)


def _ident(ts: _Tokens, what: str) -> str:
    tok = ts.next(what)
    # `_tokens` leaves no whitespace or '#' in a token, and punctuation only
    # alone, so only these can fail `check_token`, which words the error
    if tok in _LONE or tok[0] == "~" or not tok.isprintable():
        try:
            check_token(tok)
        except MpdaError as e:
            raise ParseError(ts.line, str(e)) from None
    return tok


def _is_arrow(tok: str) -> bool:
    # a rule arrow is '->', optionally carrying an ignored label: '-lbl->'
    return tok == "->" or (tok.startswith("-") and tok.endswith("->") and len(tok) > 3)


def _stacks(toks: list[str], lineno: int, symbols: dict[str, StackSymbol], stack_count: int,
            head: tuple[str, str, Collection[str]], wording: tuple[str, str]) -> tuple[Word, ...]:
    """The words of `w1 | w2 | ... | wk`, top first: a rule's pushes or a
    configuration's stacks.  It checks the stack count, then `head`, the
    (kind, name, known names) of the rule's popped symbol or the
    configuration's state, then each symbol.  `wording` words the count and
    the wrong-stack errors."""
    count = toks.count("|") + 1
    if count != stack_count:
        raise ParseError(lineno, f"{wording[0]} {count} stacks, expected {stack_count}")
    kind, name, known = head
    if name not in known:
        raise ParseError(lineno, f"unknown {kind} {name!r}")
    words: list[Word] = []
    word: list[StackSymbol] = []
    for tok in toks:
        if tok == "|":
            words.append(tuple(word))
            word = []
            continue
        sym = symbols.get(tok)
        if sym is None:
            raise ParseError(lineno, f"unknown symbol {tok!r}")
        if sym.stack != len(words):
            raise ParseError(lineno, f"symbol {tok!r} {wording[1]} stack {len(words) + 1} but belongs to stack {sym.stack + 1}")
        word.append(sym)
    words.append(tuple(word))
    return tuple(words)


# ---------------------------------------------------------------- machines

def parse_mpda(text: str) -> Mpda:
    lines = text.splitlines()
    states: list[str] | None = None
    stack_count: int | None = None
    alphabets: dict[int, tuple[int, list[str]]] = {}  # stack index -> (line, names)
    rule_lines: list[tuple[int, list[str]]] = []
    opened = closed = False
    for lineno, raw in enumerate(lines, start=1):
        toks = _tokens(raw)
        if not toks:
            continue
        if not opened:
            if toks != ["mpda", "{"]:
                raise ParseError(lineno, "expected 'mpda {'")
            opened = True
            continue
        if closed:
            raise ParseError(lineno, "content after closing '}'")
        if toks == ["}"]:
            closed = True
            continue
        if toks[0] == "rule":
            rule_lines.append((lineno, toks))
            continue
        # a header line: `key: names`, the key being what precedes the first ':'
        colon = toks.index(":") if ":" in toks else len(toks)
        key, rest = toks[:colon], toks[colon + 1:]
        if key == ["states"]:
            if states is not None:
                raise ParseError(lineno, "duplicate 'states:' line")
            states = _names(rest, lineno)
            if not states:
                raise ParseError(lineno, "empty state list")
            if len(set(states)) != len(states):
                raise ParseError(lineno, "duplicate state")
        elif key == ["stacks"]:
            if stack_count is not None:
                raise ParseError(lineno, "duplicate 'stacks:' line")
            count = " ".join(rest)
            try:
                stack_count = int(count)
            except ValueError:
                raise ParseError(lineno, f"bad stack count {count!r}") from None
            if stack_count < 1:
                raise ParseError(lineno, "stack count must be positive")
        elif key[:1] == ["alphabet"]:
            if len(key) != 2:
                raise ParseError(lineno, "expected 'alphabet <index>: ...'")
            try:
                idx = int(key[1])
            except ValueError:
                raise ParseError(lineno, f"bad stack index {key[1]!r}") from None
            if idx in alphabets:
                raise ParseError(lineno, f"duplicate alphabet for stack {idx}")
            alphabets[idx] = (lineno, _names(rest, lineno))
        else:
            raise ParseError(lineno, f"unrecognized line {toks[0]!r}")
    if not opened:
        raise ParseError(len(lines) or 1, "expected 'mpda {'")
    if not closed:
        raise ParseError(len(lines) or 1, "missing closing '}'")
    if states is None:
        raise ParseError(1, "missing 'states:' line")
    if stack_count is None:
        raise ParseError(1, "missing 'stacks:' line")
    if set(alphabets) != set(range(1, stack_count + 1)):
        raise ParseError(1, f"need alphabets for stacks 1..{stack_count}, got {sorted(alphabets)}")
    sym_by_name: dict[str, StackSymbol] = {}
    for idx, (lineno, names) in sorted(alphabets.items(), key=lambda item: item[1][0]):
        for name in names:
            if name in sym_by_name:
                raise ParseError(lineno, f"symbol {name!r} already declared on stack {sym_by_name[name].stack + 1}")
            sym_by_name[name] = StackSymbol(name, idx - 1)
    alpha = tuple(tuple(sym_by_name[name] for name in alphabets[i + 1][1]) for i in range(stack_count))
    declared = set(states)
    rules = []
    for lineno, toks in rule_lines:
        rule = _parse_rule_tokens(toks, lineno, stack_count, sym_by_name)
        for state in (rule.src, rule.dst):
            if state not in declared:
                raise ParseError(lineno, f"rule references undeclared state {state!r}")
        rules.append(rule)
    try:
        return Mpda(tuple(states), alpha, tuple(rules))
    except MpdaError as e:
        raise ParseError(1, str(e)) from None


def _names(toks: list[str], lineno: int) -> list[str]:
    """The names of a `states:` or `alphabet` line; a punctuation token there
    is a character that the lexer split off a name."""
    for tok in toks:
        if tok in PUNCTUATION:
            raise ParseError(lineno, f"names may not contain {tok!r}")
    return toks


def _parse_rule_tokens(toks: list[str], lineno: int, stack_count: int,
                       sym_by_name: dict[str, StackSymbol]) -> TransitionRule:
    # rule <src> <pop> -> <dst> : w1 | w2 | ... | wk
    if len(toks) < 6 or toks[0] != "rule":
        raise ParseError(lineno, "malformed rule line")
    src, pop_name = toks[1], toks[2]
    if not _is_arrow(toks[3]):
        raise ParseError(lineno, f"expected '->', got {toks[3]!r}")
    dst = toks[4]
    if toks[5] != ":":
        raise ParseError(lineno, "expected ':' after target state")
    head = ("symbol", pop_name, sym_by_name)
    push = _stacks(toks[6:], lineno, sym_by_name, stack_count, head, ("rule pushes on", "pushed on"))
    return TransitionRule(src, sym_by_name[pop_name], dst, push)


def serialize_mpda(m: Mpda) -> str:
    lines = ["mpda {"]
    lines.append("  states: " + " ".join(m.states))
    lines.append(f"  stacks: {m.stack_count}")
    for i, alpha in enumerate(m.alphabets):
        lines.append(f"  alphabet {i + 1}: " + " ".join(s.name for s in alpha))
    for r in m.rules:
        lines.append("  " + str(r))
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------- configurations

def parse_configuration(text: str, m: Mpda, lineno: int = 1) -> Configuration:
    """Parse a literal like 'q1 : X D |' (one '|' between adjacent stacks)."""
    toks = _tokens(text)
    if toks[1:2] != [":"]:
        if ":" not in toks:
            raise ParseError(lineno, "expected '<state> : <stacks>'")
        raise ParseError(lineno, f"bad state field {' '.join(toks[:toks.index(':')])!r}")
    head = ("state", toks[0], m.states)
    stacks = _stacks(toks[2:], lineno, m.symbols_by_name, m.stack_count, head, ("configuration has", "listed on"))
    return Configuration(toks[0], stacks)


def serialize_configuration(c: Configuration) -> str:
    return str(c)


# ---------------------------------------------------------------- witnesses

def parse_witness(text: str, m: Mpda) -> Witness:
    """A witness file: a configuration literal, then one line per fragment
    definition, `define <rule line>`, and per step: a rule line or a macro
    step `cancel <state> <symbol>`.  Checks that every rule is declared by
    the machine, that no (state, symbol) is defined twice and that every
    `cancel` has a definition; `replay` checks the rest."""
    start: Configuration | None = None
    steps: list[TransitionRule | Cancel] = []
    fragments: dict[tuple[str, StackSymbol], TransitionRule] = {}
    cancels: dict[Cancel, int] = {}  # the line of each macro step's first use
    own = {r: r for r in m.rules}  # the machine's own rule objects
    by_line: dict[str, TransitionRule] = {}  # the rule steps so far, by their text: each is parsed once
    sym_by_name = m.symbols_by_name

    def declared(toks: list[str], lineno: int) -> TransitionRule:
        parsed = _parse_rule_tokens(toks, lineno, m.stack_count, sym_by_name)
        rule = own.get(parsed)
        if rule is None:
            raise ParseError(lineno, f"rule not declared by the machine: {parsed}")
        return rule

    for lineno, raw in enumerate(text.splitlines(), start=1):
        rule = by_line.get(raw)
        if rule is not None:
            steps.append(rule)
            continue
        toks = _tokens(raw)
        if not toks:
            continue
        if start is None:
            start = parse_configuration(raw, m, lineno)
        elif toks[0] == "define":
            rule = declared(toks[1:], lineno)
            if (rule.src, rule.pop) in fragments:
                raise ParseError(lineno, f"a second definition for cancel {rule.src} {rule.pop.name}")
            fragments[(rule.src, rule.pop)] = rule
        elif toks[0] == "cancel":
            if len(toks) != 3:
                raise ParseError(lineno, "expected 'cancel <state> <symbol>'")
            if toks[1] not in m.states:
                raise ParseError(lineno, f"unknown state {toks[1]!r}")
            if toks[2] not in sym_by_name:
                raise ParseError(lineno, f"unknown symbol {toks[2]!r}")
            step = Cancel(toks[1], sym_by_name[toks[2]])
            cancels.setdefault(step, lineno)
            steps.append(step)
        else:
            rule = by_line[raw] = declared(toks, lineno)
            steps.append(rule)
    if start is None:
        raise ParseError(1, "empty witness file")
    for step, lineno in cancels.items():
        if step not in fragments:
            raise ParseError(lineno, f"no definition for {step}")
    return Witness(start, tuple(steps), tuple(fragments.values()))


def serialize_witness(w: Witness) -> str:
    lines = [serialize_configuration(w.start)]
    lines += [f"define {r}" for r in w.fragments]
    # each distinct step is rendered once; keyed by identity, since the steps
    # repeat a few rule objects and a rule's own hash walks all its fields
    rendered: dict[int, str] = {}
    for r in w.steps:
        text = rendered.get(id(r))
        if text is None:
            text = rendered[id(r)] = str(r)
        lines.append(text)
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- regular sets

def parse_regset(text: str, m: Mpda) -> RegSet:
    ts = _Tokens(text)
    head = ts.peek()
    if head in ("relaxed", "relaxed-regset"):
        raise ParseError(
            ts.line,
            "relaxed regular sets over the padded product alphabet are not "
            "supported: reachability from them is undecidable; use per-stack "
            "'regset { ... }' blocks",
        )
    ts.expect("regset")
    ts.expect("{")
    components: dict[str, Component] = {}
    while ts.peek() != "}":
        ts.expect("state")
        state = _ident(ts, "state name")
        if state not in m.states:
            raise ParseError(ts.line, f"unknown state {state!r}")
        if state in components:
            raise ParseError(ts.line, f"duplicate component for state {state!r}")
        components[state] = _parse_component(ts, m)
    ts.expect("}")
    ts.done()
    return RegSet(m, components)


def _parse_component(ts: _Tokens, m: Mpda) -> Component:
    ts.expect("{")
    nfas: dict[int, StackNfa] = {}
    accept: dict[tuple[str, ...], int] = {}  # each accepting tuple and its line
    saw_accept = False
    while ts.peek() != "}":
        tok = ts.next("'nfa' or 'accept'")
        if tok == "nfa":
            idx_tok = ts.next("stack index")
            try:
                idx = int(idx_tok)
            except ValueError:
                raise ParseError(ts.line, f"bad stack index {idx_tok!r}") from None
            if not 1 <= idx <= m.stack_count:
                raise ParseError(ts.line, f"stack index {idx} out of range 1..{m.stack_count}")
            if idx in nfas:
                raise ParseError(ts.line, f"duplicate nfa for stack {idx}")
            nfas[idx] = _parse_nfa(ts, m, idx - 1)
        elif tok == "accept":
            ts.expect(":")
            saw_accept = True
            while ts.peek() == "(":
                ts.expect("(")
                tup = []
                while ts.peek() != ")":
                    tup.append(_ident(ts, "nfa state"))
                ts.expect(")")
                if len(tup) != m.stack_count:
                    raise ParseError(ts.line, f"accepting tuple has {len(tup)} entries, expected {m.stack_count}")
                accept.setdefault(tuple(tup), ts.line)
        else:
            raise ParseError(ts.line, f"expected 'nfa' or 'accept', got {tok!r}")
    ts.expect("}")
    if set(nfas) != set(range(1, m.stack_count + 1)):
        raise ParseError(ts.line, f"component needs nfas for stacks 1..{m.stack_count}")
    if not saw_accept:
        raise ParseError(ts.line, "component is missing an 'accept:' clause")
    ordered = tuple(nfas[i + 1] for i in range(m.stack_count))
    for tup, lineno in accept.items():
        for i, st in enumerate(tup):
            if st not in ordered[i].states:
                raise ParseError(lineno, f"accepting tuple uses unknown nfa state {st!r}")
    return Component(ordered, frozenset(accept))


def _parse_nfa(ts: _Tokens, m: Mpda, stack: int) -> StackNfa:
    ts.expect("{")
    states: list[str] | None = None
    # the initial states and the edges, each with its line
    initials: dict[str, int] | None = None
    edges: dict[tuple[str, StackSymbol, str], int] = {}
    while ts.peek() != "}":
        tok = ts.next("'states', 'initial' or 'edge'")
        if tok == "states":
            ts.expect(":")
            states = []
            while ts.peek() not in (";", "}"):
                state = _ident(ts, "nfa state")
                if state in states:
                    raise ParseError(ts.line, "duplicate nfa state")
                states.append(state)
        elif tok == "initial":
            ts.expect(":")
            initials = {}
            while ts.peek() not in (";", "}"):
                initials.setdefault(_ident(ts, "nfa state"), ts.line)
        elif tok == "edge":
            src = _ident(ts, "nfa state")
            sym_name = _ident(ts, "symbol")
            sym = m.symbols_by_name.get(sym_name)
            if sym is None:
                raise ParseError(ts.line, f"unknown symbol {sym_name!r}")
            if sym.stack != stack:
                raise ParseError(ts.line, f"symbol {sym_name!r} belongs to stack {sym.stack + 1}, not {stack + 1}")
            edges.setdefault((src, sym, _ident(ts, "nfa state")), ts.line)
        else:
            raise ParseError(ts.line, f"expected 'states', 'initial' or 'edge', got {tok!r}")
        if ts.peek() == ";":
            ts.next()
    ts.expect("}")
    if states is None:
        raise ParseError(ts.line, "nfa is missing a 'states:' clause")
    if initials is None:
        raise ParseError(ts.line, "nfa is missing an 'initial:' clause")
    known = set(states)
    for s, lineno in initials.items():
        if s not in known:
            raise ParseError(lineno, f"initial state {s!r} not declared")
    for (src, _, dst), lineno in edges.items():
        if src not in known or dst not in known:
            raise ParseError(lineno, "edge uses undeclared nfa state")
    return StackNfa(tuple(states), frozenset(initials), frozenset(edges))


def serialize_regset(L: RegSet) -> str:
    lines = ["regset {"]
    for state in sorted(L.components):
        comp = L.components[state]
        lines.append(f"  state {state} {{")
        for i, nfa in enumerate(comp.nfas):
            parts = ["states: " + " ".join(map(str, nfa.states))]
            parts.append("initial: " + " ".join(map(str, sorted(nfa.initials))))
            for src, sym, dst in sorted(nfa.edges):
                parts.append(f"edge {src} {sym.name} {dst}")
            lines.append(f"    nfa {i + 1} {{ " + " ; ".join(parts) + " }")
        tuples = " ".join("(" + " ".join(map(str, t)) + ")" for t in sorted(comp.accept))
        lines.append("    accept: " + tuples)
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
