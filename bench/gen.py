"""Seeded instance generators owned by the benchmark.

These are copies of the random generators the test suite uses, kept here so
that a change to the tests cannot change the benchmark's inputs.  Every
function draws only from the `random.Random` it is given, so one seed always
gives the same instances.
"""

from __future__ import annotations

import random

from mpda.model import Configuration, Mpda, StackSymbol, TransitionRule, Witness, successors
from mpda.regsets import Component, RegSet, StackNfa


def random_weak_mpda(
    rng: random.Random,
    max_states: int = 3,
    stacks: int = 2,
    max_syms: int = 2,
    max_rules: int = 6,
    rhs_cap: int = 2,
    strongly_normed: bool = False,
) -> Mpda:
    """A random weak machine: states are totally ordered and no rule goes
    upward.  With strongly_normed=True every (state, symbol) pair first gets
    an in-state eraser rule."""
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
    attempts = 0
    while len(rules) < max_rules and attempts < 40:
        attempts += 1
        si = rng.randrange(n_states)
        di = rng.randrange(si, n_states)
        pop = rng.choice(symbols)
        push: list[list[StackSymbol]] = [[] for _ in range(stacks)]
        for _ in range(rng.randint(0, rhs_cap)):
            sym = rng.choice(symbols)
            push[sym.stack].append(sym)
        rule = TransitionRule(states[si], pop, states[di], tuple(tuple(w) for w in push))
        if rule not in rules:
            rules.append(rule)
    return Mpda(states, alphabets, tuple(rules))


def random_configuration(rng: random.Random, m: Mpda, max_size: int) -> Configuration:
    state = rng.choice(m.states)
    stacks: list[list[StackSymbol]] = [[] for _ in range(m.stack_count)]
    nonempty = [i for i in range(m.stack_count) if m.alphabets[i]]
    for _ in range(rng.randint(0, max_size)):
        i = rng.choice(nonempty)
        stacks[i].append(rng.choice(m.alphabets[i]))
    return Configuration(state, tuple(tuple(w) for w in stacks))


def random_stack_nfa(rng: random.Random, m: Mpda, stack: int, max_states: int = 2) -> StackNfa:
    names = tuple(f"n{j}" for j in range(rng.randint(1, max_states)))
    edges = set()
    for s in names:
        for sym in m.alphabets[stack]:
            for t in names:
                if rng.random() < 0.4:
                    edges.add((s, sym, t))
    initials = frozenset(rng.sample(names, rng.randint(1, len(names))))
    return StackNfa(names, initials, frozenset(edges))


def random_regset(rng: random.Random, m: Mpda, max_nfa_states: int = 2) -> RegSet:
    comps = {}
    for state in m.states:
        if rng.random() < 0.3:
            continue
        nfas = tuple(random_stack_nfa(rng, m, i, max_nfa_states) for i in range(m.stack_count))
        tuples = {tuple(rng.choice(nfa.states) for nfa in nfas) for _ in range(rng.randint(1, 3))}
        comps[state] = Component(nfas, frozenset(tuples))
    return RegSet(m, comps)


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


def random_composition(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    """`total` tokens dropped one by one into `parts` counters."""
    counts = [0] * parts
    for _ in range(total):
        counts[rng.randrange(parts)] += 1
    return tuple(counts)


def counter_ring(rng: random.Random, k: int, chords: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Token-conserving counter rules: the ring i -> i+1 (mod k), which makes
    every distribution of the same total reachable, plus random chords.
    Each rule moves exactly one token, so the total is conserved."""

    def move(i: int, j: int) -> tuple[int, tuple[int, ...]]:
        return (i + 1, tuple(1 if x == j else 0 for x in range(k)))

    rules = [move(i, (i + 1) % k) for i in range(k)]
    for _ in range(chords):
        i, j = rng.sample(range(k), 2)
        if move(i, j) not in rules:
            rules.append(move(i, j))
    return tuple(rules)
