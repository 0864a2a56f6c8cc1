"""Deterministic random instance generators shared by the test modules."""

import itertools
import random
from collections import deque
from typing import Callable, Iterable, Iterator, NamedTuple

from mpda.classify import CancelTable
from mpda.formats import parse_configuration, parse_mpda
from mpda.gadgets import expo
from mpda.model import (
    Cancel, Configuration, InvalidWitness, Mpda, NotEnabled, StackSymbol, TransitionRule, Verdict, Witness, Word,
    _compositions, expand, replay, step, successors,
)
from mpda.oracle import OracleBudget, reach_config
from mpda.regsets import Component, RegSet, StackNfa


def random_weak_mpda(
    rng: random.Random,
    max_states: int = 3,
    stacks: int = 2,
    max_syms: int = 2,
    max_rules: int = 6,
    rhs_cap: int = 2,
    strongly_normed: bool = False,
    size_nonincreasing: bool = False,
) -> Mpda:
    """A random weak machine.  States are totally ordered and rules never go
    upward.  With strongly_normed=True every (state, symbol) pair gets an
    in-state eraser rule first, which caps how many states/symbols fit into
    the rule budget."""
    while True:
        n_states = rng.randint(1, max_states)
        counts = [rng.randint(0, max_syms) for _ in range(stacks)]
        if not any(counts):
            continue
        if strongly_normed and n_states * sum(counts) > max_rules:
            continue
        break
    states = tuple(f"q{i}" for i in range(n_states))
    alphabets = tuple(
        tuple(StackSymbol(f"{chr(ord('A') + i)}{j}", i) for j in range(counts[i]))
        for i in range(stacks)
    )
    symbols = [s for alpha in alphabets for s in alpha]
    rules: list[TransitionRule] = []
    if strongly_normed:
        for q in states:
            for sym in symbols:
                rules.append(TransitionRule(q, sym, q, tuple(() for _ in range(stacks))))
    cap = 1 if size_nonincreasing else rhs_cap
    attempts = 0
    while len(rules) < max_rules and attempts < 40:
        attempts += 1
        si = rng.randrange(n_states)
        di = rng.randrange(si, n_states)  # weak: never upward
        pop = rng.choice(symbols)
        rhs_total = rng.randint(0, cap)
        push: list[list[StackSymbol]] = [[] for _ in range(stacks)]
        for _ in range(rhs_total):
            sym = rng.choice(symbols)
            push[sym.stack].append(sym)
        rule = TransitionRule(states[si], pop, states[di], tuple(tuple(w) for w in push))
        if rule not in rules:
            rules.append(rule)
    return Mpda(states, alphabets, tuple(rules))


def pinned_machines():
    """expo:2..12, then the machines of `nested_eraser_machines`."""
    yield from (expo(n).mpda for n in range(2, 13))
    yield from nested_eraser_machines()


def nested_eraser_machines():
    """50 seeded strongly normed machines with 1-3 stacks.  Each in-place
    eraser the generator adds, except those of the first declared symbol, is
    made to push one to three symbols declared before the symbol it pops,
    and the rules are shuffled, so the chosen erasing rules push words whose
    order matters."""
    rng = random.Random(2027)
    for _ in range(50):
        m = random_weak_mpda(rng, stacks=rng.randint(1, 3), rhs_cap=3, strongly_normed=True)
        symbols = [sym for alpha in m.alphabets for sym in alpha]
        rules = []
        for r in m.rules:
            below = symbols[:symbols.index(r.pop)]
            if not r.changes_state and r.rhs_size == 0 and below:
                push = [[] for _ in m.alphabets]
                for sym in rng.choices(below, k=rng.randint(1, 3)):
                    push[sym.stack].append(sym)
                r = TransitionRule(r.src, r.pop, r.dst, tuple(map(tuple, push)))
            if r not in rules:
                rules.append(r)
        rng.shuffle(rules)
        yield Mpda(m.states, m.alphabets, tuple(rules))


def random_configuration(rng: random.Random, m: Mpda, max_size: int, state: str | None = None) -> Configuration:
    if state is None:
        state = rng.choice(m.states)
    total = rng.randint(0, max_size)
    stacks: list[list[StackSymbol]] = [[] for _ in range(m.stack_count)]
    nonempty = [i for i in range(m.stack_count) if m.alphabets[i]]
    for _ in range(total):
        i = rng.choice(nonempty)
        stacks[i].append(rng.choice(m.alphabets[i]))
    return Configuration(state, tuple(tuple(w) for w in stacks))


def all_configurations(m: Mpda, max_size: int) -> Iterator[Configuration]:
    """Every configuration of size at most max_size, ordered by
    (state, size, stack words)."""
    for state in sorted(m.states):
        for total in range(max_size + 1):
            batch = []
            for lens in _compositions(total, m.stack_count):
                for words in itertools.product(*(itertools.product(alpha, repeat=n) for alpha, n in zip(m.alphabets, lens))):
                    batch.append(Configuration(state, words))
            batch.sort(key=lambda c: tuple(tuple(s.name for s in w) for w in c.stacks))
            yield from batch


def random_stack_nfa(rng: random.Random, m: Mpda, stack: int, max_states: int = 2) -> StackNfa:
    n = rng.randint(1, max_states)
    names = tuple(f"n{j}" for j in range(n))
    edges = set()
    for s in names:
        for sym in m.alphabets[stack]:
            for t in names:
                if rng.random() < 0.4:
                    edges.add((s, sym, t))
    k = rng.randint(1, n)
    initials = frozenset(rng.sample(names, k))
    return StackNfa(names, initials, frozenset(edges))


def random_regset(rng: random.Random, m: Mpda, max_nfa_states: int = 2) -> RegSet:
    comps = {}
    for state in m.states:
        if rng.random() < 0.3:
            continue
        nfas = tuple(random_stack_nfa(rng, m, i, max_nfa_states) for i in range(m.stack_count))
        tuples = set()
        for _ in range(rng.randint(1, 3)):
            tuples.add(tuple(rng.choice(nfa.states) for nfa in nfas))
        comps[state] = Component(nfas, frozenset(tuples))
    return RegSet(m, comps)


def fire(c: Configuration, rule: TransitionRule, pushes: tuple) -> Configuration:
    """`rule` fired on the top of its stack of c, with `pushes` pushed in
    place of `rule.push`: the object-level step of an abstraction."""
    stacks = list(c.stacks)
    stacks[rule.pop.stack] = stacks[rule.pop.stack][1:]
    return Configuration(rule.dst, tuple(p + w for p, w in zip(pushes, stacks)))


def rule_steps(m: Mpda, c: Configuration) -> list[tuple[TransitionRule, Configuration]]:
    """`(rule, step(m, c, rule))` for every rule enabled at c, in declaration
    order."""
    out = []
    for rule in m.rules:
        try:
            out.append((rule, step(m, c, rule)))
        except NotEnabled:
            pass
    return out


class ReferenceResult(NamedTuple):
    status: str  # "reachable" | "unreachable" | "unknown"
    explored: int
    truncated: bool  # a configuration above `max_size` had children
    start: Configuration | None  # the root of the path found
    steps: tuple  # the labels of its steps


def reference_bfs(roots: Iterable[Configuration], expand: Callable[[Configuration], Iterable[tuple]],
                  is_target: Callable[[Configuration], bool], max_size: int | None = None,
                  max_explored: int | None = None) -> ReferenceResult:
    """A breadth-first search over configurations, written apart from
    `model.search` to check the deciders against.  The roots are admitted in
    order, then each admitted configuration is expanded in turn:
    `expand(c)` gives `(label, child)` pairs, and a child is admitted
    unless it was admitted before.  A configuration is tested when it is
    admitted.  One larger than `max_size` is not expanded.  The search says
    "unknown" when admitting one more would exceed `max_explored`."""
    parent: dict = {}
    truncated = False
    frontier: deque = deque()

    def admit(c: Configuration, via) -> ReferenceResult | None:
        if max_explored is not None and len(parent) >= max_explored:
            return ReferenceResult("unknown", len(parent), truncated, None, ())
        parent[c] = via
        frontier.append(c)
        if not is_target(c):
            return None
        steps = []
        while parent[c] is not None:
            c, label = parent[c]
            steps.append(label)
        return ReferenceResult("reachable", len(parent), truncated, c, tuple(reversed(steps)))

    for root in roots:
        if root not in parent and (done := admit(root, None)):
            return done
    while frontier:
        c = frontier.popleft()
        children = list(expand(c))
        if max_size is not None and c.size > max_size:
            truncated = truncated or bool(children)
            continue
        for label, child in children:
            if child not in parent and (done := admit(child, (c, label))):
                return done
    return ReferenceResult("unreachable", len(parent), truncated, None, ())


def random_walk(rng: random.Random, m: Mpda, start: Configuration, max_steps: int) -> Witness:
    steps = []
    cur = start
    for _ in range(max_steps):
        succ = successors(m, cur)
        if not succ:
            break
        rule, cur = rng.choice(succ)
        steps.append(rule)
    return Witness(start, tuple(steps))


MACRO_MACHINE = """\
mpda {
  states: q p
  stacks: 2
  alphabet 1: A B
  alphabet 2: C
  rule q A -> q : B B | C
  rule q B -> q : |
  rule q C -> q : |
  rule q A -> p : |
  rule q B -> q : A |
  rule p A -> p : |
}
"""


def macro_example():
    """A two-state machine (`MACRO_MACHINE`) and a macro witness on it: from
    `q : A B |`, `cancel q A` by the fragment `q A -> q : B B | C`, whose
    pushed B and C have fragments of their own, then `q B -> q`.  Its flat
    run has five steps."""
    m = parse_mpda(MACRO_MACHINE)
    r = m.rules
    a = m.symbol("A")
    return m, Witness(parse_configuration("q : A B |", m), (Cancel("q", a), r[1]), (r[0], r[1], r[2]))


def higman_leq(u: Word, v: Word) -> bool:
    """True iff u is a (scattered) subsequence of v."""
    it = iter(v)
    return all(x in it for x in u)


def bf_higman_leq(c1: Configuration, c2: Configuration) -> bool:
    """Bottom-fixed embedding: states equal; per stack, equal bottom symbols
    and the remaining prefixes embed, or both stacks empty."""
    if c1.state != c2.state:
        return False
    for w1, w2 in zip(c1.stacks, c2.stacks):
        if not w1 and not w2:
            continue
        if not w1 or not w2 or w1[-1] != w2[-1]:
            return False
        if not higman_leq(w1[:-1], w2[:-1]):
            return False
    return True


def empty_regset(m: Mpda) -> RegSet:
    return RegSet(m, {})


def shortest_path_length(m: Mpda, source: Configuration, target: Configuration, budget: OracleBudget) -> int | Verdict:
    """Length of a shortest rule sequence from source to target, or the
    (unreachable) verdict."""
    verdict = reach_config(m, source, target, budget)
    if verdict.reachable:
        assert verdict.witness is not None
        return len(verdict.witness.steps)
    return verdict


def check_cancel_table(m: Mpda, table: CancelTable) -> None:
    """Replay the flat expansion of each `cancel q X` on a lone X; require an
    empty end."""
    fragments = tuple(table.values())
    for q, sym in table:
        stacks = tuple((sym,) if i == sym.stack else () for i in range(m.stack_count))
        flat = expand(Witness(Configuration(q, stacks), (Cancel(q, sym),), fragments))
        end = replay(m, flat)
        if end != m.empty_configuration(q):
            raise AssertionError(f"canceling sequence for ({q}, {sym.name}) does not erase: ends at {end}")


# The descendant forest: the reference that `model.start_occurrences` is
# checked against.  It builds every configuration of the flat run and one
# node per symbol occurrence in each.

class OccurrenceId(NamedTuple):
    """One symbol occurrence in one configuration of a replayed witness."""

    config_index: int
    stack: int
    depth: int


def trace(m: Mpda, w: Witness) -> list[Configuration]:
    """All configurations visited by the flat witness of w, start included."""
    w = expand(w)
    cs = [w.start]
    for i, r in enumerate(w.steps):
        try:
            cs.append(step(m, cs[-1], r))
        except NotEnabled as e:
            raise InvalidWitness(i, str(e)) from None
    return cs


def occurrences_of(c: Configuration, config_index: int) -> list[OccurrenceId]:
    return [OccurrenceId(config_index, i, d) for i, w in enumerate(c.stacks) for d in range(len(w))]


def descendant_forest(m: Mpda, w: Witness) -> dict[OccurrenceId, tuple[OccurrenceId, ...]]:
    """Parent-to-children map over all symbol occurrences along the witness.

    The occurrence popped at step t parents all fresh occurrences of the next
    configuration; every surviving occurrence parents its shifted copy.
    Roots are exactly the occurrences of the start configuration.  Steps are
    those of the flat witness `expand(w)`.
    """
    w = expand(w)
    configs = trace(m, w)
    children: dict[OccurrenceId, list[OccurrenceId]] = {}
    for t, c in enumerate(configs):
        for occ in occurrences_of(c, t):
            children[occ] = []
    for t, r in enumerate(w.steps):
        c = configs[t]
        i = r.pop.stack
        involved = OccurrenceId(t, i, 0)
        for j in range(m.stack_count):
            for d in range(len(r.push[j])):
                children[involved].append(OccurrenceId(t + 1, j, d))
        for j in range(m.stack_count):
            shift = len(r.push[j])
            first = 1 if j == i else 0
            for d in range(first, len(c.stacks[j])):
                children[OccurrenceId(t, j, d)].append(OccurrenceId(t + 1, j, d - first + shift))
    return {occ: tuple(cs) for occ, cs in children.items()}


def parent_map(forest: dict[OccurrenceId, tuple[OccurrenceId, ...]]) -> dict[OccurrenceId, OccurrenceId]:
    return {child: p for p, cs in forest.items() for child in cs}


def forest_relevant(m: Mpda, w: Witness) -> set[OccurrenceId]:
    """Occurrences of `expand(w)` with a descendant in the final
    configuration or in a state-changing step.  Closed under the ancestor
    relation by construction."""
    w = expand(w)
    parents = parent_map(descendant_forest(m, w))
    base: list[OccurrenceId] = occurrences_of(replay(m, w), len(w.steps))
    for t, r in enumerate(w.steps):
        if r.changes_state:
            base.append(OccurrenceId(t, r.pop.stack, 0))
    relevant: set[OccurrenceId] = set()
    todo = list(base)
    while todo:
        occ = todo.pop()
        if occ in relevant:
            continue
        relevant.add(occ)
        if occ in parents:
            todo.append(parents[occ])
    return relevant


def forest_fully_active(m: Mpda, w: Witness) -> bool:
    """Every occurrence of the start configuration has a descendant that is
    consumed by some step of the flat witness `expand(w)`."""
    w = expand(w)
    parents = parent_map(descendant_forest(m, w))
    active_roots: set[OccurrenceId] = set()
    for t, rule in enumerate(w.steps):
        occ = OccurrenceId(t, rule.pop.stack, 0)
        while occ in parents:
            occ = parents[occ]
        active_roots.add(occ)
    return set(occurrences_of(w.start, 0)) <= active_roots
