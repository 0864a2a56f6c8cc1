"""Unreachability certificates for strongly normed machines.

A regular set M separates L from K when it contains K, misses L, and is
closed under one-step predecessors (`check_separator`).  The decider puts
two oracle searches from small members of L around one negative step:
`backward_fixpoint`, a pre* saturation of K in the manner of Bouajjani,
Esparza & Maler (CONCUR 1997) and Schwoon (PhD thesis, TU Munich 2002).
The saturation adds edges to one shared automaton per stack until nothing
changes, so it always ends; its result contains K and is closed under
predecessors, and it is exactly pre*(K) on one stack."""

from __future__ import annotations

from dataclasses import dataclass

from .model import Configuration, Mpda, StackSymbol, Verdict
from .oracle import OracleBudget, bfs_reach
from .regsets import (
    Component,
    RegSet,
    StackNfa,
    _closure,
    _pre_summands,
    _union_components,
    complement,
    enumerate_members,
    intersect,
    meets,
    member,
    pre_image,
)


@dataclass(frozen=True)
class CheckFailure:
    reason: str  # "misses-target" | "touches-source" | "not-backward-closed"
    example: Configuration


def check_separator(m: Mpda, L: RegSet, K: RegSet, M: RegSet) -> CheckFailure | None:
    """None when M certifies that no member of L reaches K; otherwise the
    failed condition with a counterexample."""
    co = complement(M, m)
    if meets(K, co):
        return CheckFailure("misses-target", _small_member(intersect(K, co)))
    if meets(L, M):
        return CheckFailure("touches-source", _small_member(intersect(L, M)))
    # pre(M) meets co when one of its summands does, so no union is numbered
    # unless a counterexample is drawn
    for state, parts, accept in _pre_summands(m, M):
        nfas = tuple(StackNfa(states, frozenset(initials), frozenset(edges)) for states, initials, edges in parts)
        if meets(RegSet(m, {state: Component(nfas, accept)}), co):
            return CheckFailure("not-backward-closed", _small_member(intersect(pre_image(m, M), co)))
    return None


def _small_member(S: RegSet) -> Configuration:
    """A member of the nonempty set S: the first of size <= 4, or else one
    shortest word per stack into an accepting tuple that all stacks reach."""
    small = next(iter(enumerate_members(S, 4)), None)
    if small is not None:
        return small
    for state, comp in sorted(S.components.items()):
        words = [_shortest_words(nfa) for nfa in comp.nfas]
        for tup in sorted(comp.accept, key=str):
            if all(f in w for f, w in zip(tup, words)):
                return Configuration(state, tuple(w[f] for f, w in zip(tup, words)))
    raise ValueError("the set has no member")


def _shortest_words(nfa: StackNfa) -> dict:
    """A shortest word from an initial state to each reachable state."""
    succ: dict = {}
    for src, sym, dst in sorted(nfa.edges, key=lambda e: (e[1].name, str(e[2]))):
        succ.setdefault(src, []).append((sym, dst))
    order = sorted(nfa.initials, key=str)
    words = dict.fromkeys(order, ())
    for q in order:  # breadth first: the loop takes the states it appends
        for sym, dst in succ.get(q, ()):
            if dst not in words:
                words[dst] = words[q] + (sym,)
                order.append(dst)
    return words


# ----------------------------------------------------------------- pre* saturation

def backward_fixpoint(m: Mpda, K: RegSet, stats: dict | None = None) -> RegSet:
    """pre*(K) on one stack, and on more a superset that contains K and is
    closed under `pre_image`, by saturation.  Each stack has one automaton:
    K's nodes plus a node nu_r per rule r.  A state q has contexts, each with
    a start set per stack (K's component at q, and one per rule from q), and
    accepting tuples T_q.  A rule r from q to q' popping X from stack i fires
    when each pushed w_j leads from the start sets at q' to a nonempty R_j:
    context r then starts at R_j on each stack j != i and at nu_r on stack
    i, with edges nu_r -X-> R_i, and T_q takes in T_q'.  Rules fire from a
    worklist until nothing changes; no node is copied and nothing is
    determinized.  Each context, trimmed, is one summand of the result.
    `stats` receives the node, edge and context counts and the passes."""
    k = m.stack_count
    sizes = [0] * k  # nodes per stack
    delta: list[dict[tuple[int, StackSymbol], set[int]]] = [{} for _ in range(k)]  # (node, symbol) -> nodes
    contexts: dict[str, list[list[set[int]]]] = {q: [] for q in m.states}
    accept: dict[str, set[tuple[int, ...]]] = {q: set() for q in m.states}
    for q, comp in K.components.items():
        pos = [{s: sizes[j] + n for n, s in enumerate(nfa.states)} for j, nfa in enumerate(comp.nfas)]
        for j, (p, nfa) in enumerate(zip(pos, comp.nfas)):
            sizes[j] += len(p)
            for s, a, t in nfa.edges:
                delta[j].setdefault((p[s], a), set()).add(p[t])
        contexts[q].append([{p[s] for s in nfa.initials} for p, nfa in zip(pos, comp.nfas)])
        accept[q] = {tuple(p[f] for p, f in zip(pos, tup)) for tup in comp.accept}
    reaches = {q: {q} for q in m.states}
    for _ in m.states:
        for r in m.rules:
            reaches[r.src] |= reaches[r.dst]
    # a change at q alters the reads from every state that reaches q
    upstream = {q: [n for n, r in enumerate(m.rules) if q in reaches[r.dst]] for q in m.states}
    fired: dict[int, tuple[int, list[set[int]]]] = {}  # rule -> (nu_r, context r)
    pending, passes = set(range(len(m.rules))), 0
    while pending:
        batch, pending, passes = sorted(pending), set(), passes + 1
        for n in batch:
            r, i = m.rules[n], m.rules[n].pop.stack
            reads = []
            for j, w in enumerate(r.push):
                nodes = set().union(*(c[j] for c in contexts[r.dst]))
                for a in w:
                    nodes = {t for s in nodes for t in delta[j].get((s, a), ())}
                reads.append(nodes)
            if not all(reads):
                continue
            changed = n not in fired
            if changed:
                fired[n] = sizes[i], [{sizes[i]} if j == i else set() for j in range(k)]
                contexts[r.src].append(fired[n][1])
                sizes[i] += 1
            nu, ctx = fired[n]
            for j, got in enumerate(reads):
                have = delta[i].setdefault((nu, r.pop), set()) if j == i else ctx[j]
                changed = changed or not got <= have
                have |= got
            changed = changed or not accept[r.dst] <= accept[r.src]
            accept[r.src] |= accept[r.dst]
            if changed:
                pending.update(upstream[r.src])
    edges = [[(s, a, t) for (s, a), ts in d.items() for t in ts] for d in delta]
    if stats is not None:
        stats.update(nodes=sum(sizes), edges=sum(map(len, edges)), contexts=sum(map(len, contexts.values())), passes=passes)
    fwd: list[dict[int, set[int]]] = [{} for _ in range(k)]
    bwd: list[dict[int, set[int]]] = [{} for _ in range(k)]
    for es, f, b in zip(edges, fwd, bwd):
        for s, _, t in es:
            f.setdefault(s, set()).add(t)
            b.setdefault(t, set()).add(s)
    comps = {}
    for q, ctxs in contexts.items():
        summands = []
        for starts in ctxs:  # trimmed to the nodes between its start sets and the tuples they reach
            ahead = [_closure(f, start) for f, start in zip(fwd, starts)]
            kept = [tup for tup in accept[q] if all(map(set.__contains__, ahead, tup))]
            if kept:
                live = [seen & _closure(b, {tup[j] for tup in kept}) for j, (seen, b) in enumerate(zip(ahead, bwd))]
                summands.append(([(tuple(sorted(nodes)), start & nodes, [(s, a, t) for s, a, t in es if s in nodes and t in nodes])
                                  for nodes, start, es in zip(live, starts, edges)], kept))
        if summands:
            comps[q] = _union_components(summands)
    return RegSet(m, comps)


# ----------------------------------------------------------------- decider

def decide_separator(m: Mpda, L: RegSet, K: RegSet) -> Verdict:
    """Semi-decider for L -->* K on strongly normed machines, in three steps.

    A short oracle search from the members of L up to size 2 runs first.
    Then the saturation M = `backward_fixpoint(m, K)` is the certificate
    when it misses L.  Otherwise a longer search runs from the members of L
    up to size 7 that M keeps: M contains pre*(K), so the members outside it
    cannot reach K.  A "reachable" verdict's `detail` names `"strategy":
    "search"` and its `round` (1 or 2), an "unreachable" one `"strategy":
    "saturation"`; once the saturation has run, `detail` also holds its
    counts under `"saturation"`.  The verdict is "unknown", with budget
    "rounds", when the longer search finds no witness."""
    base_size = max([1, *(len(n.states) for comp in K.components.values() for n in comp.nfas)])
    verdict = bfs_reach(m, enumerate_members(L, 2), K, OracleBudget(base_size + 3, 2000))
    if verdict.reachable:
        return Verdict("reachable", witness=verdict.witness, detail={"strategy": "search", "round": 1})
    detail: dict = {"saturation": {}}
    M = backward_fixpoint(m, K, detail["saturation"])
    if not meets(L, M):
        return Verdict("unreachable", certificate=M, detail={"strategy": "saturation", **detail})
    verdict = bfs_reach(m, (s for s in enumerate_members(L, 7) if member(M, s)), K, OracleBudget(base_size + 13, 12_000))
    if verdict.reachable:
        return Verdict("reachable", witness=verdict.witness, detail={"strategy": "search", "round": 2, **detail})
    return Verdict("unknown", budget="rounds", detail=detail)
