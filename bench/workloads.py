"""The three workloads: seeded instance streams, the `mpda reach` operations
run on them, and the check that scores each verdict.

A workload is an endless stream of units drawn from one `random.Random`.  A
unit is one instance: its files are written when the unit is drawn, and it
yields one operation per method run on it.  Each operation carries a check
that is run outside the timed span and returns a failure reason, None for
a verdict it confirmed, or UNCHECKED for a verdict it could neither confirm
nor refute.

Why each workload exists, and which per-layer numbers it should move, is in
bench/README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from mpda import formats, gadgets
from mpda.model import Configuration, Mpda, replay
from mpda.oracle import OracleBudget, reach_config
from mpda.regsets import RegSet, member, singleton
from mpda.separator import check_separator

import gen


@dataclass
class Outcome:
    """What one `mpda reach` call returned."""

    status: str  # reachable | unreachable | unknown | timeout | error
    elapsed: float
    record: dict = field(default_factory=dict)
    error: str = ""


@dataclass
class Op:
    """One `mpda reach` call on one instance."""

    name: str
    argv: list[str]
    check: Callable[[Outcome], str | None]
    sizes: dict[str, int]
    outputs: tuple[Path, ...] = ()


@dataclass
class Unit:
    ops: list[Op]


UNCHECKED = "unchecked"  # returned by a check that could not settle the verdict


class Files:
    """Instance files of one stream, under one directory."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = self.root / name
        path.write_text(text)
        return str(path)

    def path(self, name: str) -> Path:
        return self.root / name


def _lands(m: Mpda, path: Path, start_in: Callable[[Configuration], bool], target: RegSet) -> str | None:
    """Replay a witness file; None when it starts in the source set and ends
    in the target set."""
    w = formats.parse_witness(path.read_text(), m)
    if not start_in(w.start):
        return f"witness starts at {w.start}, outside the source"
    end = replay(m, w)
    if not member(target, end):
        return f"witness ends at {end}, outside the target"
    return None


def _bounded_check(m: Mpda, src: Configuration, tgt: Configuration, method: str, status: str) -> str | None:
    """Check a verdict without a witness by a bounded breadth-first search.
    A search that reaches the target refutes `unreachable`; one that ends
    with neither the size cap nor the node budget cutting it refutes
    `reachable`.  Anything else leaves the verdict UNCHECKED."""
    v = reach_config(m, src, tgt, OracleBudget(max(src.size, tgt.size) + 3, 3000))
    if v.reachable:
        return f"{method} says unreachable, but a bounded search reaches the target" if status == "unreachable" else None
    if v.complete and not v.truncated:
        return f"{method} says reachable, but an exhaustive search does not reach the target" if status == "reachable" else None
    return UNCHECKED


def _sizes(m: Mpda, **ends: int) -> dict[str, int]:
    return {"states": len(m.states), "rules": len(m.rules), **ends}


# ------------------------------------------------------------ single-target

def single_target(rng: random.Random, files: Files, tag: str) -> Iterator[Unit]:
    """Random weak machines, every other one strongly normed; one source and
    one target configuration.  In every other pair of units the target is the
    end of a random walk from the source, so it is known to be reachable."""
    i = 0
    while True:
        strongly_normed = i % 2 == 0
        walk_target = i % 4 < 2
        m = gen.random_weak_mpda(rng, strongly_normed=strongly_normed)
        src = gen.random_configuration(rng, m, 3)
        if walk_target:
            tgt = replay(m, gen.random_walk(rng, m, src, 6))
        else:
            tgt = gen.random_configuration(rng, m, 3)
        text = formats.serialize_mpda(m)
        name = f"{tag}{i:05d}"
        mfile = files.write(f"{name}.mpda", text)
        ends = ["--from", str(src), "--to", str(tgt)]
        sizes = _sizes(m, source=src.size, target=tgt.size)
        target_set = singleton(m, tgt)
        decided: dict[str, str] = {}

        def check_wqo(out: Outcome, m=m, src=src, tgt=tgt, walk_target=walk_target, decided=decided):
            decided["wqo"] = out.status
            if walk_target:
                return None if out.status == "reachable" else "wqo says unreachable, but the target is the end of a walk"
            return _bounded_check(m, src, tgt, "wqo", out.status)

        ops = [Op(f"{name}.wqo", ["reach", mfile, *ends, "--method", "wqo"], check_wqo, sizes)]
        if strongly_normed:
            wfile = files.path(f"{name}.witness")

            def check_marked(out: Outcome, m=m, src=src, tgt=tgt, target_set=target_set, wfile=wfile,
                             walk_target=walk_target, decided=decided):
                other = decided.get("wqo")
                if other in ("reachable", "unreachable") and other != out.status:
                    return f"marked says {out.status}, wqo says {other}"
                if walk_target and out.status != "reachable":
                    return "marked says unreachable, but the target is the end of a walk"
                if out.status == "reachable":
                    return _lands(m, wfile, lambda c: c == src, target_set)
                if other == "unreachable":
                    return None
                return _bounded_check(m, src, tgt, "marked", out.status)

            ops.append(Op(f"{name}.marked", ["reach", mfile, *ends, "--method", "marked", "--witness", str(wfile)],
                          check_marked, sizes, (wfile,)))
        yield Unit(ops)
        i += 1


# ----------------------------------------------------------------- families

def _rounds(rng: random.Random, items) -> Iterator:
    """Every item once per round, each round in a fresh random order.  The
    costs of these instances differ by orders of magnitude, so drawing them
    independently would make the mix, and the timings, jump between seeds."""
    while True:
        batch = list(items)
        rng.shuffle(batch)
        yield from batch


def families(rng: random.Random, files: Files, tag: str,
             heavy_n: int = 16, light_n: tuple[int, ...] = (12, 13, 14, 15)) -> Iterator[Unit]:
    """Gadget instances with known answers, in blocks of six units: expo:n
    for n = `heavy_n`, expo:n for the next n of `light_n`, three
    token-conserving counter rings with a reachable and an unreachable
    target each, and one nonreg-forward target.

    The block fixes where the reported percentiles fall.  The heavy expo runs
    are the slowest operations, one in nine, so `solve_tail_s` (p95) lands
    inside that group.  Fewer than half of the
    operations are cheaper than the unreachable ring searches, which all
    explore the same number of configurations, and fewer than half are
    dearer, so `solve_p50_s` lands inside that group."""
    lights = _rounds(rng, light_n)
    nonregs = _rounds(rng, [(k, l) for k in range(NONREG_MAX + 1) for l in range(NONREG_MAX + 1)])
    checked: set[tuple[int, str]] = set()
    i = 0
    while True:
        name = f"{tag}{i:05d}"
        slot = i % 6
        if slot == 0:
            yield _expo_unit(heavy_n, files, name, checked)
        elif slot == 1:
            yield _expo_unit(next(lights), files, name, checked)
        elif slot < 5:
            yield _ring_unit(rng, files, name)
        else:
            yield _nonreg_unit(next(nonregs), files, name)
        i += 1


def _expo_unit(n: int, files: Files, name: str, checked: set[tuple[int, str]]) -> Unit:
    """expo:n from a lone X1 to a lone Xn.  It has one witness, so a witness
    text already in `checked` is not parsed and replayed again (that takes
    longer than producing it)."""
    inst = gadgets.expo(n)
    m = inst.mpda
    text = formats.serialize_mpda(m)
    mfile = files.write(f"{name}.mpda", text)
    wfile = files.path(f"{name}.witness")
    tgt = Configuration("q", ((m.symbol(f"X{n}"),),))

    def check(out: Outcome):
        if out.status != "reachable":
            return f"expo:{n} is reachable, got {out.status}"
        if out.record.get("witness_length") != 2 ** n - 2:
            return f"expo:{n} witnesses have 2^n - 2 steps, got {out.record.get('witness_length')}"
        key = (n, wfile.read_text())
        if key in checked:
            return None
        failure = _lands(m, wfile, lambda c: c == inst.source, inst.target)
        if failure is None:
            checked.add(key)
        return failure

    argv = ["reach", mfile, "--from", str(inst.source), "--to", str(tgt), "--method", "marked", "--witness", str(wfile)]
    op = Op(f"{name}.expo{n}", argv, check, _sizes(m, source=1, target=1, expo_n=n), (wfile,))
    return Unit([op])


# every distribution of the tokens over the counters is reachable: 969 configurations
RING_COUNTERS, RING_TOKENS = 4, 16


RING_WALK = 8


def _ring_unit(rng: random.Random, files: Files, name: str) -> Unit:
    """A counter ring with two targets: the end of a short random walk from
    the source (a near target, so the search for it stays cheap) and a
    distribution of one token more than the source holds (unreachable, since
    every rule conserves the total, so the search exhausts all 969
    configurations of the source's total)."""
    k, total = RING_COUNTERS, RING_TOKENS
    rules = gen.counter_ring(rng, k, rng.randint(0, 2))
    source = gen.random_composition(rng, total, k)
    unreachable = gen.random_composition(rng, total + 1, k)
    m = gadgets.comm_free_counters(rules, source, source).mpda

    def config(counts: tuple[int, ...]) -> Configuration:
        return Configuration("q", tuple(tuple(m.alphabets[i][0] for _ in range(c)) for i, c in enumerate(counts)))

    src, unreach_tgt = config(source), config(unreachable)
    reach_tgt = replay(m, gen.random_walk(rng, m, src, RING_WALK))
    text = formats.serialize_mpda(m)
    mfile = files.write(f"{name}.mpda", text)
    wfile = files.path(f"{name}.witness")

    def check_reachable(out: Outcome):
        if out.status != "reachable":
            return f"the target ends a walk from the source, got {out.status}"
        return _lands(m, wfile, lambda c: c == src, singleton(m, reach_tgt))

    def check_unreachable(out: Outcome):
        if out.status != "unreachable":
            return f"ring total {total} is conserved and the target has {total + 1}, got {out.status}"
        return None

    sizes = _sizes(m, source=total, counters=k)
    ops = [
        Op(f"{name}.ring-reach", ["reach", mfile, "--from", str(src), "--to", str(reach_tgt),
                                  "--method", "oracle", "--witness", str(wfile)], check_reachable, sizes, (wfile,)),
        Op(f"{name}.ring-unreach", ["reach", mfile, "--from", str(src), "--to", str(unreach_tgt),
                                    "--method", "oracle"], check_unreachable, sizes),
    ]
    return Unit(ops)


NONREG_MAX = 4


def _nonreg_unit(balance: tuple[int, int], files: Files, name: str) -> Unit:
    inst = gadgets.nonreg_forward()
    m = inst.mpda
    x, a, b = m.symbol("X"), m.symbol("A"), m.symbol("B")
    k, l = balance
    tgt = Configuration("q", ((x,) + (a,) * k, (b,) * l))
    text = formats.serialize_mpda(m)
    mfile = files.write(f"{name}.mpda", text)
    wfile = files.path(f"{name}.witness")
    expected = "reachable" if k >= l else "unreachable"

    def check(out: Outcome):
        if out.status != expected:
            return f"nonreg-forward X A^{k} | B^{l} is {expected} (k >= l law), got {out.status}"
        if out.status == "reachable":
            return _lands(m, wfile, lambda c: c == inst.source, singleton(m, tgt))
        return None

    argv = ["reach", mfile, "--from", str(inst.source), "--to", str(tgt), "--method", "marked", "--witness", str(wfile)]
    op = Op(f"{name}.nonreg", argv, check, _sizes(m, source=1, target=tgt.size), (wfile,))
    return Unit([op])


# ---------------------------------------------------------------- separator

def separator(rng: random.Random, files: Files, tag: str) -> Iterator[Unit]:
    """Random strongly normed machines; every fourth instance goes from one
    configuration to one configuration, the rest between random regular
    sets.  Most one-to-one instances end at the time limit, so a larger share
    of them would put the median operation on the edge between the fast
    verdicts and the timeouts, where it jumps from run to run."""
    i = 0
    while True:
        name = f"{tag}{i:05d}"
        m = gen.random_weak_mpda(rng, strongly_normed=True)
        text = formats.serialize_mpda(m)
        mfile = files.write(f"{name}.mpda", text)
        if i % 4 == 0:
            s, t = gen.random_configuration(rng, m, 3), gen.random_configuration(rng, m, 3)
            L, K = singleton(m, s), singleton(m, t)
            ends = ["--from", str(s), "--to", str(t)]
            kind = "one-to-one"
            sizes = _sizes(m, source=s.size, target=t.size)
        else:
            L, K = gen.random_regset(rng, m), gen.random_regset(rng, m)
            ltext, ktext = formats.serialize_regset(L), formats.serialize_regset(K)
            ends = ["--from", "@" + files.write(f"{name}.L.regset", ltext),
                    "--to", "@" + files.write(f"{name}.K.regset", ktext)]
            kind = "regular"
            sizes = _sizes(m, source_nfa_states=_nfa_states(L), target_nfa_states=_nfa_states(K))
        wfile, cfile = files.path(f"{name}.witness"), files.path(f"{name}.cert")

        def check(out: Outcome, m=m, L=L, K=K, wfile=wfile, cfile=cfile):
            if out.status == "reachable":
                return _lands(m, wfile, lambda c: member(L, c), K)
            if not cfile.exists():
                return "unreachable without a certificate"
            failure = check_separator(m, L, K, formats.parse_regset(cfile.read_text(), m))
            if failure is not None:
                return f"check_separator rejects the certificate: {failure.reason} ({failure.example})"
            return None

        argv = ["reach", mfile, *ends, "--method", "separator", "--witness", str(wfile), "--certificate", str(cfile)]
        yield Unit([Op(f"{name}.{kind}", argv, check, sizes, (wfile, cfile))])
        i += 1


def _nfa_states(L: RegSet) -> int:
    return sum(len(nfa.states) for comp in L.components.values() for nfa in comp.nfas)


STREAMS = {"single-target": single_target, "families": families, "separator": separator}
