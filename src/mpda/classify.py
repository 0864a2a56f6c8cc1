"""Structural classification of a machine.

weak            control states admit a partial order that every rule descends
normed          every configuration can be emptied (possibly changing state)
strongly normed every configuration can be emptied without changing state

Strong normedness comes with a cancel table, one erasing rule per state and
symbol: the fragments of the macro steps `cancel q X` of a witness, which
remove a topmost X in place together with everything it spawns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Configuration, Mpda, StackSymbol, TransitionRule


class NotWeak(Exception):
    pass


class NotStronglyNormed(Exception):
    pass


@dataclass(frozen=True)
class WeaknessResult:
    weak: bool
    # weak: states listed from top to bottom, so every rule goes rightwards
    order: tuple[str, ...] | None
    # not weak: a cycle of states through state-changing rules
    cycle: tuple[str, ...] | None


def is_weak(m: Mpda) -> WeaknessResult:
    """Check that the graph of state-changing rules is acyclic."""
    succ: dict[str, set[str]] = {q: set() for q in m.states}
    for r in m.rules:
        if r.changes_state:
            succ[r.src].add(r.dst)
    indeg = {q: 0 for q in m.states}
    for q, outs in succ.items():
        for t in outs:
            indeg[t] += 1
    order = []
    ready = [q for q in m.states if indeg[q] == 0]
    while ready:
        q = ready.pop(0)
        order.append(q)
        for t in sorted(succ[q]):
            indeg[t] -= 1
            if indeg[t] == 0:
                ready.append(t)
    if len(order) == len(m.states):
        return WeaknessResult(True, tuple(order), None)
    # the states left after the sort lie on a cycle or below one; drop those
    # that lead to no state left until every state left leads to one, so a
    # walk forward from any of them closes a cycle
    left = {q for q in m.states if indeg[q] > 0}
    while dead := {q for q in left if not succ[q] & left}:
        left -= dead
    cur = next(q for q in m.states if q in left)
    path = []
    while cur not in path:
        path.append(cur)
        cur = next(t for t in sorted(succ[cur]) if t in left)
    return WeaknessResult(False, None, tuple(path[path.index(cur):] + [cur]))


def require_weak(m: Mpda) -> None:
    wk = is_weak(m)
    if not wk.weak:
        raise NotWeak(f"state cycle: {' -> '.join(wk.cycle or ())}")


CancelTable = dict[tuple[str, StackSymbol], TransitionRule]


@dataclass(frozen=True)
class StrongNormResult:
    strongly_normed: bool
    cancel: CancelTable | None
    # not strongly normed: a (state, symbol) pair that cannot be erased in place
    failure: tuple[str, StackSymbol] | None


def is_strongly_normed(m: Mpda) -> StrongNormResult:
    """Least fixpoint of in-state erasability.  A pair gets a state-preserving
    rule popping it that pushes only symbols chosen before it."""
    chosen: CancelTable = {}
    changed = True
    while changed:
        changed = False
        for r in m.rules:
            if r.changes_state:
                continue
            key = (r.src, r.pop)
            if key in chosen:
                continue
            if all((r.src, s) in chosen for w in r.push for s in w):
                chosen[key] = r
                changed = True
    for q in m.states:
        for alpha in m.alphabets:
            for sym in alpha:
                if (q, sym) not in chosen:
                    return StrongNormResult(False, None, (q, sym))
    return StrongNormResult(True, chosen, None)


def cancel_table(m: Mpda) -> CancelTable:
    res = is_strongly_normed(m)
    if not res.strongly_normed:
        q, sym = res.failure  # type: ignore[misc]
        raise NotStronglyNormed(f"symbol {sym.name} cannot be erased in state {q}")
    assert res.cancel is not None
    return res.cancel


@dataclass(frozen=True)
class NormResult:
    normed: bool
    failure: tuple[str, StackSymbol] | None


def is_normed(m: Mpda) -> NormResult:
    """A weak machine is normed when every lone symbol can be erased, allowing
    state changes.  Raises NotWeak otherwise."""
    from .wqo import decide_wqo

    require_weak(m)
    if is_strongly_normed(m).strongly_normed:
        return NormResult(True, None)  # every lone symbol erases in place
    for q in m.states:
        for alpha in m.alphabets:
            for sym in alpha:
                stacks = tuple((sym,) if i == sym.stack else () for i in range(m.stack_count))
                start = Configuration(q, stacks)
                if not any(decide_wqo(m, start, m.empty_configuration(p)) for p in m.states):
                    return NormResult(False, (q, sym))
    return NormResult(True, None)
