"""Reachability for strongly normed weak machines via marked abstraction.

A marked subword of a pushed word is obtained by deleting a set of positions
and marking every earlier position; marks flag symbols that are buried under
deleted material and must themselves disappear later.  Searching over marked
configurations of bounded size is complete because sizes never decrease along
state-preserving marked steps and drop by at most one at state changes.
Deleted symbols come back as macro steps `cancel q X` when a witness is
rebuilt, defined by the cancel table.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .classify import CancelTable, cancel_table, require_weak
from .model import (
    AnnotatedSymbol,
    Cancel,
    CompiledMpda,
    Configuration,
    Mpda,
    TransitionRule,
    Verdict,
    Witness,
    Word,
    annotate,
    annotated_machine,
    replay,
    search,
)
from .regsets import enumerate_members
from .wqo import default_src_cap


class ReconstructionFailed(Exception):
    pass


MWord = tuple[AnnotatedSymbol, ...]


@dataclass(frozen=True)
class MarkedSubtransition:
    origin: TransitionRule
    lhs_marked: bool
    pushes: tuple[MWord, ...]


def mk_subwords(word: Word, colored: frozenset[int] | None = None) -> set[MWord]:
    """All marked subwords of a pushed word.

    A choice deletes a position set D and picks a prefix that covers every
    position followed by a deleted one; prefix positions outside D come out
    marked, the rest unmarked.  With `colored` given, only D = colored is
    considered (the paper-and-pencil view of one fixed deletion set)."""
    n = len(word)
    entries = [(AnnotatedSymbol(sym, False), AnnotatedSymbol(sym, True)) for sym in word]
    out: set[MWord] = set()
    deletions = [colored] if colored is not None else [frozenset(c) for k in range(n + 1) for c in itertools.combinations(range(n), k)]
    for d in deletions:
        min_prefix = (max(d) + 1) if d else 0
        kept = [j for j in range(n) if j not in d]
        for p in range(min_prefix, n + 1):
            out.add(tuple([entries[j][j < p] for j in kept]))
    return out


def subtransitions_for(rule: TransitionRule, lhs_marked: bool, stack_count: int) -> tuple[MarkedSubtransition, ...]:
    """All marked variants of one rule for a fixed mark on the popped symbol.

    A marked pop forces every push on the popped stack to come out marked;
    a state-preserving variant must push at least one symbol somewhere."""
    per_stack: list[list[MWord]] = []
    for j in range(stack_count):
        options = mk_subwords(rule.push[j])
        if lhs_marked and j == rule.pop.stack:
            options = {w for w in options if all(ms.marked for ms in w)}
        per_stack.append(sorted(options))
    out = []
    for combo in itertools.product(*per_stack):
        if not rule.changes_state and sum(len(w) for w in combo) == 0:
            continue
        out.append(MarkedSubtransition(rule, lhs_marked, tuple(combo)))
    return tuple(out)


class MarkedMachine(NamedTuple):
    """The marked abstraction of a machine, with the machine's cancel table,
    which defines the macro steps of the witnesses rebuilt from it."""

    machine: CompiledMpda
    cancel: CancelTable


def marked_machine(m: Mpda) -> MarkedMachine:
    """The marked abstraction of m: a rule popping an entry with mark b
    fires as each of its `subtransitions_for(rule, b)`, labeled with that
    subtransition.  Raises NotWeak or NotStronglyNormed for machines the
    abstraction is not complete for."""
    require_weak(m)
    table = cancel_table(m)  # raises NotStronglyNormed
    k = m.stack_count
    cm = annotated_machine(m, lambda rule, bit: ((st, st.pushes) for st in subtransitions_for(rule, bit, k)))
    return MarkedMachine(cm, table)


def marked_subconfigurations(c: Configuration, max_size: int):
    """Marked subconfigurations of c, of size at most max_size."""
    per_stack = [sorted(mk_subwords(w)) for w in c.stacks]
    for combo in itertools.product(*per_stack):
        if sum(len(w) for w in combo) <= max_size:
            yield Configuration(c.state, tuple(combo))


@dataclass(frozen=True)
class MarkedSearchResult:
    reachable: bool
    origin: Configuration | None = None  # of AnnotatedSymbol entries
    steps: tuple[MarkedSubtransition, ...] = ()
    size_bound: int = 0
    explored: int = 0  # marked configurations admitted


def decide_marked(m: Mpda, s: Configuration, t: Configuration) -> MarkedSearchResult:
    """Exact reachability s -->* t for a strongly normed weak machine.

    Breadth-first search over the nodes of `marked_machine(m)` of size at
    most size(t) + |states|, seeded with every marked subconfiguration of s."""
    cm = m.compiled(marked_machine).machine
    bound = t.size + len(m.states)
    res = search((map(cm.encode, marked_subconfigurations(s, bound)),), lambda node: cm.successors(node, bound),
                 cm.encode(annotate(t)).__eq__)
    if res.path is None:
        return MarkedSearchResult(False, size_bound=bound, explored=res.explored)
    return MarkedSearchResult(True, cm.decode(res.path[0]), res.labels, bound, res.explored)


# ------------------------------------------------------------ reconstruction

def _coloring_for(word: Word, target: MWord) -> frozenset[int]:
    """A deletion set under which the marking of `word` yields `target`."""
    for d in map(frozenset, itertools.combinations(range(len(word)), len(word) - len(target))):
        if target in mk_subwords(word, colored=d):
            return d
    raise ReconstructionFailed(f"{target} is not a marked subword of {word}")


def reconstruct(m: Mpda, s: Configuration, result: MarkedSearchResult) -> Witness:
    """Turn a marked path from s into a concrete witness.

    Deleted symbols are kept as colored occurrences of the running concrete
    configuration.  Whenever one surfaces as a top X in state q, the witness
    takes the macro step `cancel q X`, and its fragments are the cancel
    table's rules for those steps and, transitively, for all they push, in
    the table's order.  The stacks are lists of entries with the top at the
    end."""
    if not result.reachable or result.origin is None:
        raise ReconstructionFailed("no marked path to expand")
    table = m.compiled(marked_machine).cancel

    def colored(words: tuple[Word, ...], marked: tuple[MWord, ...]) -> tuple[MWord, ...]:
        """`words` with the positions that their marked subwords delete colored."""
        deleted = map(_coloring_for, words, marked)
        return tuple(tuple(AnnotatedSymbol(sym, p in d) for p, sym in enumerate(w)) for w, d in zip(words, deleted))

    state = s.state
    stacks = [list(reversed(w)) for w in colored(s.stacks, result.origin.stacks)]
    fired: list[TransitionRule | Cancel] = []
    # each round erases one colored top or fires one marked step, so it ends
    queue = deque(result.steps)
    while True:
        colored_top = next((w[-1].base for w in stacks if w and w[-1].marked), None)
        if colored_top is not None:
            stacks[colored_top.stack].pop()
            fired.append(Cancel(state, colored_top))
            continue
        if not queue:
            break
        st = queue.popleft()
        rule = st.origin
        stack = stacks[rule.pop.stack]
        if state != rule.src or not stack or stack[-1].base != rule.pop:
            raise ReconstructionFailed(f"rule not enabled while expanding: {rule}")
        stack.pop()
        for pushed_on, word in zip(stacks, colored(rule.push, st.pushes)):
            pushed_on += reversed(word)
        state = rule.dst
        fired.append(rule)

    if any(e.marked for w in stacks for e in w):
        raise ReconstructionFailed("colored material left buried at the end")
    end = Configuration(state, tuple(tuple(e.base for e in reversed(w)) for w in stacks))
    # the fixpoint chose each rule after the rules of all it pushes, so one
    # pass against the table's order closes `needed` under pushing
    needed = {step for step in fired if step.__class__ is Cancel}
    for q, sym in reversed(table):
        if (q, sym) in needed:
            needed.update((q, pushed) for w in table[(q, sym)].push for pushed in w)
    witness = Witness(s, tuple(fired), tuple(r for key, r in table.items() if key in needed))
    if replay(m, witness) != end:
        raise ReconstructionFailed("witness does not replay")
    return witness


def reach_marked(m: Mpda, s: Configuration, t: Configuration) -> Verdict:
    """`decide_marked` as a verdict, with its path expanded into a witness."""
    res = decide_marked(m, s, t)
    witness = reconstruct(m, s, res) if res.reachable else None
    return Verdict("reachable" if res.reachable else "unreachable", witness, detail={"size_bound": res.size_bound})


# ------------------------------------------------------- regular endpoints

def default_tgt_cap(K) -> int:
    n_k = max((len(nfa.states) for comp in K.components.values() for nfa in comp.nfas), default=0)
    max_rhs = max((r.rhs_size for r in K.mpda.rules), default=0)
    return (n_k + 1) ** 2 * (len(K.mpda.states) + max_rhs)


def decide_regreg(
    m: Mpda,
    L,
    K,
    src_cap: int | None = None,
    tgt_cap: int | None = None,
) -> Verdict:
    """Reachability between two regular sets for strongly normed weak
    machines, by trying endpoint pairs up to size caps, which `detail`
    reports.  "unreachable" holds when the caps are at least the default
    ones (`default_tgt_cap(K)`, and `default_src_cap(L, t)` for each target
    t); a cap below its default gives "unknown" with the budget "tgt-cap" or
    "src-cap" instead."""
    m.compiled(marked_machine)  # raises NotWeak or NotStronglyNormed before any pair is tried
    tcap = tgt_cap if tgt_cap is not None else default_tgt_cap(K)
    used_scap = 0
    src_cut = False
    for t in enumerate_members(K, tcap):
        needed = default_src_cap(L, t)
        scap = src_cap if src_cap is not None else needed
        used_scap = max(used_scap, scap)
        src_cut = src_cut or scap < needed
        for s in enumerate_members(L, scap):
            res = decide_marked(m, s, t)
            if res.reachable:
                witness = reconstruct(m, s, res)
                return Verdict("reachable", witness, detail={"src_cap": scap, "tgt_cap": tcap})
    budget = "tgt-cap" if tcap < default_tgt_cap(K) else "src-cap" if src_cut else None
    return Verdict("unknown" if budget else "unreachable", budget=budget, detail={"src_cap": used_scap, "tgt_cap": tcap})
