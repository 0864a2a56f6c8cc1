"""Core model of multi-pushdown systems.

A machine has a finite control, k stacks with pairwise-disjoint alphabets,
and rules that pop one symbol from one stack and push a word on every stack.
Stacks are stored top-first: index 0 of a stack word is the top symbol.
"""

from __future__ import annotations

import operator
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator, NamedTuple, TypeVar

_Form = TypeVar("_Form")


class MpdaError(Exception):
    pass


class InputError(MpdaError, ValueError):
    """A value given to the library breaks a documented requirement."""


class NotEnabled(MpdaError):
    """The rule does not fire at the given configuration."""


class InvalidWitness(MpdaError):
    """A witness step that does not fire; `index` counts steps."""

    what = "step {} is not enabled"

    def __init__(self, index: int, reason: str = ""):
        self.index = index
        super().__init__("witness " + self.what.format(index) + (f": {reason}" if reason else ""))


class InvalidFragment(InvalidWitness):
    """A fragment definition that `replay` rejects; `index` counts fragments."""

    what = "fragment {} is invalid"


# Every text format splits a line at these characters, each a token of its
# own.  No name may hold one, nor whitespace or '#', which starts a comment.
PUNCTUATION = "{}();:|"
_FORBIDDEN = frozenset(PUNCTUATION + " \t#")


def check_token(tok: str) -> str:
    if not tok or any(ch in _FORBIDDEN for ch in tok) or not tok.isprintable():
        raise MpdaError(f"bad identifier {tok!r}")
    if tok.startswith("~"):
        raise MpdaError(f"identifiers may not start with '~': {tok!r}")
    return tok


class StackSymbol(NamedTuple):
    """A stack symbol, equal to the plain `(name, stack)` pair: symbols of
    different stacks never compare equal, and symbols sort by (name, stack)."""

    name: str
    stack: int

    def __str__(self) -> str:
        return self.name


Word = tuple[StackSymbol, ...]


class TransitionRule(NamedTuple):
    src: str
    pop: StackSymbol
    dst: str
    push: tuple[Word, ...]

    @property
    def rhs_size(self) -> int:
        return sum(len(w) for w in self.push)

    @property
    def changes_state(self) -> bool:
        return self.src != self.dst

    def __str__(self) -> str:
        parts = " | ".join(" ".join(s.name for s in w) for w in self.push)
        return f"rule {self.src} {self.pop.name} -> {self.dst} : {parts}"


@dataclass(frozen=True)
class Mpda:
    states: tuple[str, ...]
    alphabets: tuple[tuple[StackSymbol, ...], ...]
    rules: tuple[TransitionRule, ...]
    symbols_by_name: dict[str, StackSymbol] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.states) < 1:
            raise MpdaError("at least one state required")
        if len(self.alphabets) < 1:
            raise MpdaError("at least one stack required")
        if len(set(self.states)) != len(self.states):
            raise MpdaError("duplicate state")
        seen: dict[str, StackSymbol] = {}
        for i, alpha in enumerate(self.alphabets):
            for sym in alpha:
                check_token(sym.name)
                if sym.stack != i:
                    raise MpdaError(f"symbol {sym.name} declared on stack {i + 1} but indexed {sym.stack + 1}")
                if sym.name in seen:
                    raise MpdaError(f"symbol {sym.name} declared on two stacks")
                seen[sym.name] = sym
        if not any(self.alphabets):
            raise MpdaError("all stack alphabets are empty")
        for st in self.states:
            check_token(st)
        states = set(self.states)
        symbols = set(seen.values())
        for r in self.rules:
            if r.src not in states or r.dst not in states:
                raise MpdaError(f"rule references undeclared state: {r}")
            if r.pop not in symbols:
                raise MpdaError(f"rule pops undeclared symbol: {r}")
            if len(r.push) != self.stack_count:
                raise MpdaError(f"rule pushes on {len(r.push)} stacks, expected {self.stack_count}: {r}")
            for i, w in enumerate(r.push):
                for sym in w:
                    if sym.stack != i or sym not in symbols:
                        raise MpdaError(f"rule pushes {sym.name} on wrong stack: {r}")
        object.__setattr__(self, "symbols_by_name", seen)
        object.__setattr__(self, "_compiled", {})

    @property
    def stack_count(self) -> int:
        return len(self.alphabets)

    def symbol(self, name: str) -> StackSymbol:
        try:
            return self.symbols_by_name[name]
        except KeyError:
            raise MpdaError(f"unknown symbol {name!r}") from None

    def compiled(self, abstraction: Callable[["Mpda"], _Form] | None = None) -> "CompiledMpda | _Form":
        """The machine over integer ids, or `abstraction(self)` when given.
        Built on first use and kept with the machine, so repeated searches on
        one machine share it."""
        table = self._compiled  # type: ignore[attr-defined]
        if abstraction not in table:
            table[abstraction] = _own_form(self) if abstraction is None else abstraction(self)
        return table[abstraction]

    def empty_configuration(self, state: str) -> "Configuration":
        return Configuration(state, tuple(() for _ in range(self.stack_count)))


class CompiledMpda:
    """A machine over integer ids.  States and symbols are numbered in the
    order given, and stack words are interned: each distinct word of symbol
    ids has one word id, 0 for the empty word.  For word id w, `words[w]` is
    its symbols, top first, `top[w]` its top symbol, `rest[w]` the id of
    the word below that top and `length[w]` its length.  A node
    `(state id, w_1, ..., w_k)` is a configuration with word w_i on stack
    i, so nodes are flat tuples of ints that hash and compare in C.

    `variants(state, top)` yields `(order, label, dst, push)` for each way a
    node in `state` with `top` on one of its stacks steps: pop that top, go
    to `dst` and push the word `push[i]` on stack i.  It runs once per pair,
    on first use.  Pushing a word maps word ids to word ids by a table of
    its own, filled on first use.  All tables live on the compiled machine
    and grow with the words its searches meet."""

    def __init__(self, states: Iterable[str], symbols: Iterable[Any], variants: Callable[[int, int], Iterable[tuple]]):
        self.states = tuple(states)
        self.symbols = tuple(symbols)
        self.state_id = {q: i for i, q in enumerate(self.states)}
        self.symbol_id = {sym: i for i, sym in enumerate(self.symbols)}
        self._variants = variants
        self.rows = [_Row(self, q) for q in range(len(self.states))]
        self.words: list[tuple[int, ...]] = [()]
        self.top: list[int] = [-1]
        self.rest: list[int] = [0]
        self.length: list[int] = [0]
        self._cons: dict[int, int] = {}  # rest * |symbols| + top -> word id
        self._pushes: dict[tuple[int, ...], _Push] = {}  # word -> its push table

    def word_id(self, word: Iterable[int]) -> int:
        """The id of a word of symbol ids, top first."""
        return self._pushed(0, tuple(word)[::-1])

    def _pushed(self, w: int, reversed_word: tuple[int, ...]) -> int:
        """The id of word w with the symbols of `reversed_word` pushed on
        it, first to last.  Each word in between is interned too, as `rest`
        needs it."""
        cons, words, top, rest, length, n = self._cons, self.words, self.top, self.rest, self.length, len(self.symbols)
        for sym in reversed_word:
            key = w * n + sym
            got = cons.get(key)
            if got is None:
                got = cons[key] = len(words)
                words.append((sym,) + words[w])
                top.append(sym)
                rest.append(w)
                length.append(length[w] + 1)
            w = got
        return w

    def encode(self, c: Configuration) -> tuple:
        try:
            return (self.state_id[c.state], *[self.word_id([self.symbol_id[sym] for sym in w]) for w in c.stacks])
        except KeyError as e:
            raise InputError(f"{e.args[0]} is not declared by the machine") from None

    def decode(self, node: tuple) -> Configuration:
        syms, words = self.symbols, self.words
        return Configuration(self.states[node[0]], tuple(tuple([syms[s] for s in words[w]]) for w in node[1:]))

    def size(self, node: tuple) -> int:
        return sum(map(self.length.__getitem__, node[1:]))

    def enabled(self, node: tuple) -> bool:
        row, top = self.rows[node[0]], self.top
        return any(row[top[w]] for w in node[1:] if w)

    def successors(self, node: tuple, room: int | None = None) -> list[tuple[Any, tuple]]:
        """The label and result node of every variant that fires at `node`,
        by `order`; with `room` given, only those of size at most `room`."""
        row, top, stacks = self.rows[node[0]], self.top, node[1:]
        fired: list = []
        for w in stacks:
            if w:
                fired += row[top[w]]
        fired.sort()  # orders are distinct, so labels are never compared
        if room is None:
            room = sys.maxsize
        else:
            room -= self.size(node)
        rest = self.rest
        out = []
        for _, label, dst, i, pushes, growth in fired:
            if growth > room:
                continue
            child = list(node)
            child[0] = dst
            child[i] = rest[child[i]]
            for j, table in pushes:
                child[j] = table[child[j]]
            out.append((label, tuple(child)))
        return out

    def _push_table(self, word: tuple[int, ...]) -> "_Push":
        table = self._pushes.get(word)
        if table is None:
            table = self._pushes[word] = _Push()
            table.cm, table.reversed_word = self, word[::-1]
        return table


class _Push(dict):
    """Word id -> the id of `reversed_word`, reversed, pushed on it, filled
    on first use."""

    __slots__ = ("cm", "reversed_word")

    def __missing__(self, w: int) -> int:
        got = self[w] = self.cm._pushed(w, self.reversed_word)
        return got


class _Row(dict):
    """The cells of one state of a compiled machine: top symbol id -> the
    variants that pop it, built on first use.  A variant is `(order, label,
    dst, i, pushes, growth)`: it pops node entry i (stack i - 1), then
    pushes with the `(j, push table)` pairs of `pushes` on the node entries
    j whose words are not empty, and it changes the size by `growth`."""

    def __init__(self, cm: CompiledMpda, state: int):
        self.cm = cm
        self.state = state

    def __missing__(self, top: int) -> tuple:
        cm = self.cm
        i = cm.symbols[top].stack + 1
        cell = self[top] = tuple([
            (order, label, dst, i, tuple([(j, cm._push_table(w)) for j, w in enumerate(push, 1) if w]), sum(map(len, push)) - 1)
            for order, label, dst, push in cm._variants(self.state, top)])
        return cell


def _own_form(m: Mpda) -> CompiledMpda:
    """m over integer ids: a variant is a rule, its order the declaration
    index."""
    by_pop: dict[tuple[int, int], list[tuple]] = {}
    cm = CompiledMpda(m.states, (sym for alpha in m.alphabets for sym in alpha), lambda state, top: by_pop.get((state, top), ()))
    state_id, symbol_id = cm.state_id, cm.symbol_id
    for idx, r in enumerate(m.rules):
        by_pop.setdefault((state_id[r.src], symbol_id[r.pop]), []).append(
            (idx, r, state_id[r.dst], tuple([tuple([symbol_id[sym] for sym in w]) for w in r.push])))
    return cm


def annotated_machine(m: Mpda, variants_of: Callable[[TransitionRule, bool], Iterable[tuple[Any, tuple]]]) -> CompiledMpda:
    """An abstraction of m whose stack entries carry one bit: symbol 2i + b
    is `AnnotatedSymbol(symbol i of m, b)`.  The variants of a rule popping
    an entry with bit b are the `(label, pushes)` pairs of
    `variants_of(rule, b)`, where `pushes` holds `(symbol, bit)` entries.
    Their order is (stack, declaration index, variant index): successors go
    stack by stack, rules in declaration order."""
    own = m.compiled()
    symbol_id = own.symbol_id

    def annotated_variants(state: int, top: int) -> Iterator[tuple]:
        for idx, rule, dst, _ in own._variants(state, top >> 1):
            for v, (label, pushes) in enumerate(variants_of(rule, bool(top & 1))):
                yield (rule.pop.stack, idx, v), label, dst, tuple([tuple([2 * symbol_id[sym] + bit for sym, bit in w]) for w in pushes])

    return CompiledMpda(m.states, (AnnotatedSymbol(sym, bit) for sym in own.symbols for bit in (False, True)), annotated_variants)


class Configuration(NamedTuple):
    """Control state plus one word per stack; stacks[i][0] is the top of stack i."""

    state: str
    stacks: tuple[Word, ...]

    @property
    def size(self) -> int:
        return sum(len(w) for w in self.stacks)

    def __str__(self) -> str:
        return f"{self.state} : " + " | ".join(" ".join(map(str, w)) for w in self.stacks)


class AnnotatedSymbol(NamedTuple):
    """A stack entry with one bit: the mark of the marked abstraction, or the
    color of the wqo search.  Equal to the plain `(symbol, bit)` pair."""

    base: StackSymbol
    marked: bool

    @property
    def stack(self) -> int:
        return self.base.stack

    def __str__(self) -> str:
        return ("~" if self.marked else "") + self.base.name


def annotate(c: Configuration, colored: bool = False) -> Configuration:
    """c with the same bit on every entry."""
    return Configuration(c.state, tuple(tuple(AnnotatedSymbol(s, colored) for s in w) for w in c.stacks))


class Cancel(NamedTuple):
    """The macro step `cancel q X`: erase a topmost X in state q together with
    all it spawns, by the fragment a witness defines for (q, X).  Equal to the
    key `(q, X)`.  Its net effect is the erasing rule `q X -> q` that `src`,
    `pop`, `dst` and `push` spell, so `replay` fires it as that rule."""

    src: str
    pop: StackSymbol

    @property
    def dst(self) -> str:
        return self.src

    @property
    def push(self) -> tuple:
        return ()

    def __str__(self) -> str:
        return f"cancel {self.src} {self.pop.name}"


@dataclass(frozen=True)
class Witness:
    """A replayable path: a start configuration and the steps fired, in
    order.  A step is a rule or a macro step `Cancel(q, X)`; `fragments`
    defines the macro steps, one state-preserving rule popping X per (q, X).
    Expanding `cancel q X` fires that rule, then the expansion of each
    symbol it pushes, stack by stack, top first (`expand`)."""

    start: Configuration
    steps: tuple[TransitionRule | Cancel, ...]
    fragments: tuple[TransitionRule, ...] = ()


def step(m: Mpda, c: Configuration, r: TransitionRule) -> Configuration:
    """Fire rule r at c, or raise NotEnabled."""
    if c.state != r.src:
        raise NotEnabled(f"state {c.state} != {r.src}")
    i = r.pop.stack
    if not c.stacks[i] or c.stacks[i][0] != r.pop:
        raise NotEnabled(f"{r.pop.name} is not on top of stack {i + 1}")
    stacks = list(c.stacks)
    stacks[i] = stacks[i][1:]
    return Configuration(r.dst, tuple(map(operator.add, r.push, stacks)))


def successors(m: Mpda, c: Configuration) -> list[tuple[TransitionRule, Configuration]]:
    """All enabled rules with their results, in rule declaration order."""
    cm = m.compiled()
    return [(r, cm.decode(node)) for r, node in cm.successors(cm.encode(c))]


@dataclass(frozen=True)
class Verdict:
    """The answer of every reachability decider: "reachable" with a
    `witness`, "unreachable" (a separator's with the separating `RegSet` as
    its `certificate`), or "unknown" with the `budget` that ran out.
    Searches count the nodes they admit in `explored`; `truncated` says a
    size cap left configurations unexpanded, so an "unreachable" holds only
    below that cap.  `detail` holds the record fields of one decider."""

    status: str  # "reachable" | "unreachable" | "unknown"
    witness: Witness | None = None
    explored: int | None = None
    truncated: bool = False
    certificate: Any = None
    budget: str | None = None
    detail: dict = field(default_factory=dict)

    @property
    def reachable(self) -> bool:
        return self.status == "reachable"

    @property
    def complete(self) -> bool:
        return self.status == "unreachable"


class SearchResult(NamedTuple):
    path: tuple | None  # the nodes from a root to the target; None when not found
    labels: tuple  # the labels of the path's steps
    explored: int  # nodes admitted
    cut: bool  # the node cap left a node out


def search(root_groups: Iterable[Iterable[Hashable]], expand: Callable[[Any], Iterable[tuple[Any, Hashable]]],
           is_target: Callable[[Any], bool], covered: Any = None, max_nodes: int | None = None) -> SearchResult:
    """Breadth-first search from the roots to the first node that
    `is_target` accepts.

    The roots come in groups, each drawn only when the search from the
    groups before it has ended: a group's roots are admitted first, then
    its frontier is expanded until it is empty.  `expand(node)` yields
    `(label, child)` pairs.  A root or child is admitted unless it is
    covered: by an admitted equal node, or, when a `covered` index (`in`
    and `add`) is given, by whatever the index says subsumes it.  Admitted
    nodes are tested against the target at once and keep a parent pointer,
    which gives the path and its labels.  At most `max_nodes` nodes are
    admitted; `cut` says whether that cap left a node out."""
    parent: dict[Any, tuple[Any, Any] | None] = {}
    seen: Any = parent if covered is None else covered
    frontier: deque[Any] = deque()

    def admit(node, via: tuple[Any, Any] | None) -> bool:
        parent[node] = via
        if covered is not None:
            covered.add(node)
        frontier.append(node)
        return is_target(node)

    def found(node) -> SearchResult:
        nodes, labels = [node], []
        while (via := parent[node]) is not None:
            node, label = via
            nodes.append(node)
            labels.append(label)
        return SearchResult(tuple(reversed(nodes)), tuple(reversed(labels)), len(parent), False)

    for roots in root_groups:
        for root in roots:
            if root in seen:
                continue
            if max_nodes is not None and len(parent) >= max_nodes:
                return SearchResult(None, (), len(parent), True)
            if admit(root, None):
                return found(root)
        while frontier:
            node = frontier.popleft()
            for label, child in expand(node):
                if child in seen:
                    continue
                if max_nodes is not None and len(parent) >= max_nodes:
                    return SearchResult(None, (), len(parent), True)
                if admit(child, (node, label)):
                    return found(child)
    return SearchResult(None, (), len(parent), False)


def _fragments(w: Witness) -> dict[tuple[str, StackSymbol], TransitionRule]:
    """The fragments of w by (q, X), each after the fragments of the symbols
    it pushes.  InvalidFragment unless each is a rule with src == dst, no
    (q, X) is defined twice, every symbol a fragment pushes has a fragment
    in its state, and no fragment depends on itself through the symbols it
    pushes.  Linear in the size of the fragments."""
    by_key: dict[tuple[str, StackSymbol], TransitionRule] = {}
    for i, r in enumerate(w.fragments):
        if r.changes_state:
            raise InvalidFragment(i, f"{r} changes state")
        if (r.src, r.pop) in by_key:
            raise InvalidFragment(i, f"a second definition for cancel {r.src} {r.pop.name}")
        by_key[(r.src, r.pop)] = r
    # Kahn's order: a fragment is ready once the fragments of all it pushes are
    users: dict[tuple[str, StackSymbol], list] = {key: [] for key in by_key}
    waiting = {}
    for i, (key, r) in enumerate(by_key.items()):
        for word in r.push:
            for sym in word:
                if (r.src, sym) not in users:
                    raise InvalidFragment(i, f"{r} pushes {sym.name}, which no fragment defines in state {r.src}")
                users[(r.src, sym)].append(key)
        waiting[key] = r.rhs_size
    ready = [key for key, n in waiting.items() if n == 0]
    ordered = {}
    while ready:
        key = ready.pop()
        ordered[key] = by_key[key]
        for user in users[key]:
            waiting[user] -= 1
            if not waiting[user]:
                ready.append(user)
    if len(ordered) < len(by_key):
        i = next(i for i, key in enumerate(by_key) if key not in ordered)
        raise InvalidFragment(i, "the fragments depend on each other in a cycle")
    return ordered


def _defined(i: int, step: Cancel, defined: dict) -> None:
    if step not in defined:
        raise InvalidWitness(i, f"no fragment defines {step}")


def replay(m: Mpda, w: Witness) -> Configuration:
    """The end of the witness, or InvalidWitness at the first step that is
    not enabled.  The fragments are checked once (InvalidFragment, see
    `_fragments`), then a `cancel q X` fires as one pop of a topmost X in
    state q.  That is sound by induction over the acyclic fragments: the
    fragment's rule pops X and keeps q, and the expansion of each symbol it
    pushes, taken top first, pops exactly the material that symbol spawned,
    so the flat run fires step by step and ends where the pop does.  The
    stacks are lists with the top at the end."""
    defined = _fragments(w)
    state = w.start.state
    stacks = [list(reversed(word)) for word in w.start.stacks]
    for i, r in enumerate(w.steps):
        if r.__class__ is Cancel:
            _defined(i, r, defined)
        pop = r.pop
        if state != r.src:
            raise InvalidWitness(i, f"state {state} != {r.src}")
        stack = stacks[pop.stack]
        if not stack or stack[-1] != pop:
            raise InvalidWitness(i, f"{pop.name} is not on top of stack {pop.stack + 1}")
        stack.pop()
        for pushed_on, word in zip(stacks, r.push):
            if word:
                pushed_on += word[::-1]
        state = r.dst
    return Configuration(state, tuple(tuple(reversed(stack)) for stack in stacks))


def expand(w: Witness) -> Witness:
    """The flat witness of w: every `cancel q X` replaced by the rule its
    fragment defines, then the expansion of each symbol that rule pushes,
    stack by stack, top first.  A flat witness is returned as it is."""
    if not w.fragments and not any(r.__class__ is Cancel for r in w.steps):
        return w
    flat: dict[tuple[str, StackSymbol], list[TransitionRule]] = {}
    for key, r in _fragments(w).items():
        seq = [r]
        for word in r.push:
            for sym in word:
                seq += flat[(r.src, sym)]
        flat[key] = seq
    steps: list[TransitionRule] = []
    for i, r in enumerate(w.steps):
        if r.__class__ is Cancel:
            _defined(i, r, flat)
            steps += flat[r]
        else:
            steps.append(r)
    return Witness(w.start, tuple(steps))


def flat_length(w: Witness) -> int:
    """The number of steps of `expand(w)`, counted without expanding."""
    length: dict[tuple[str, StackSymbol], int] = {}
    for key, r in _fragments(w).items():
        length[key] = 1 + sum(length[(r.src, sym)] for word in r.push for sym in word)
    total = 0
    for i, r in enumerate(w.steps):
        if r.__class__ is Cancel:
            _defined(i, r, length)
            total += length[r]
        else:
            total += 1
    return total


def start_occurrences(m: Mpda, w: Witness) -> tuple[set[tuple[int, int]], set[tuple[int, int]]]:
    """The occurrences `(stack, depth)` of w's start that are relevant, and
    those that are popped: relevant when a descendant is in the end
    configuration or popped by a state-changing step, popped when some step
    of the flat run pops a descendant.  One pass over w as written, after
    `replay` has checked it, on stacks whose entries are the start
    occurrence they descend from.  A rule pops an entry and pushes copies
    of it; a `cancel q X` only pops, since its expansion keeps the state and
    erases all it pushes (see `replay`)."""
    replay(m, w)
    stacks = [[(i, d) for d in reversed(range(len(word)))] for i, word in enumerate(w.start.stacks)]
    relevant, popped = set(), set()
    for r in w.steps:
        root = stacks[r.pop.stack].pop()
        popped.add(root)
        if r.src != r.dst:
            relevant.add(root)
        for stack, word in zip(stacks, r.push):
            stack += [root] * len(word)
    for stack in stacks:
        relevant.update(stack)
    return relevant, popped


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail
