"""Command line front end.

Every command prints one JSON record (machine-readable run report) followed
by a short human summary.  Exit codes for `reach`: 0 reachable,
1 unreachable, 2 unknown / out of budget; for every command: 3 usage or
input error, 4 internal error (with a traceback on stderr), 141 (quietly)
when the reader closed stdout early, as `| head` does: the shell's code for
a process that SIGPIPE killed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

from . import classify as cls
from . import formats, gadgets, marked, oracle, regsets, separator, wqo
from .model import Configuration, Mpda, MpdaError, Verdict, flat_length, replay


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors raise `CliError` (exit 3 with the JSON error record)
    rather than exiting 2, the code `reach` gives an unknown verdict."""

    def error(self, message: str):
        raise CliError(f"{self.prog}: {message} (see '{self.prog} --help')")


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from None


def _count(text: str) -> int:
    """`text` as a non-negative integer: the argparse type of every budget
    and cap, whose usage error names the flag."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _int(text: str, what: str) -> int:
    """`_count` for a field that `what` names."""
    try:
        return _count(text)
    except argparse.ArgumentTypeError as e:
        raise CliError(f"{what}: {e}") from None


def _load_mpda(path: str) -> Mpda:
    return formats.parse_mpda(_read(path))


def _endpoint(spec: str, m: Mpda):
    """A reachability endpoint: '@file.regset' or an inline configuration."""
    if spec.startswith("@"):
        return formats.parse_regset(_read(spec[1:]), m)
    return formats.parse_configuration(spec, m)


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise CliError(f"cannot write {path}: {e}") from None


def _report(record: dict, summary: str) -> None:
    print(json.dumps(record, sort_keys=True))
    print(summary)


def _emit_regset(args, R) -> int:
    """Write R to --out with a report, or print it."""
    text = formats.serialize_regset(R)
    if not args.out:
        print(text, end="")
        return 0
    _write(args.out, text)
    record = {"command": args.cmd, "out": args.out}
    if args.cmd == "regset":
        record["op"] = args.op
    _report(record, f"wrote {args.out}")
    return 0


# ----------------------------------------------------------------- classify

def cmd_classify(args) -> int:
    m = _load_mpda(args.machine)
    wk = cls.is_weak(m)
    sn = cls.is_strongly_normed(m)
    record = {
        "command": "classify",
        "weak": wk.weak,
        "strongly_normed": sn.strongly_normed,
    }
    lines = []
    if wk.weak:
        lines.append("weak: yes (state order: " + " >= ".join(wk.order or ()) + ")")
        record["state_order"] = list(wk.order or ())
    else:
        lines.append("weak: no (cycle: " + " -> ".join(wk.cycle or ()) + ")")
        record["cycle"] = list(wk.cycle or ())
    if sn.strongly_normed:
        lines.append("strongly normed: yes")
    else:
        q, sym = sn.failure  # type: ignore[misc]
        lines.append(f"strongly normed: no ({sym.name} cannot be erased in state {q})")
        record["strong_norm_failure"] = [q, sym.name]
    if wk.weak:
        nm = cls.is_normed(m)
        record["normed"] = nm.normed
        if nm.normed:
            lines.append("normed: yes")
        else:
            q, sym = nm.failure  # type: ignore[misc]
            lines.append(f"normed: no ({sym.name} stuck in state {q})")
            record["norm_failure"] = [q, sym.name]
    else:
        record["normed"] = None
        lines.append("normed: not checked (machine is not weak)")
    _report(record, "\n".join(lines))
    return 0


# -------------------------------------------------------------------- reach

def _pick_method(m: Mpda, src, tgt) -> str:
    weak = cls.is_weak(m).weak
    strongly = cls.is_strongly_normed(m).strongly_normed
    if strongly and weak:
        return "marked"
    if weak and isinstance(tgt, Configuration):
        return "wqo"
    if strongly:
        return "separator"
    return "oracle"


def _as_set(m: Mpda, endpoint) -> regsets.RegSet:
    return regsets.singleton(m, endpoint) if isinstance(endpoint, Configuration) else endpoint


def _decide(args, m: Mpda, method: str, src, tgt) -> Verdict:
    """The verdict of `method` on src -->* tgt."""
    if method == "oracle":
        if not isinstance(src, Configuration):
            raise CliError("the oracle needs a single source configuration (use --method marked or separator)")
        budget = oracle.OracleBudget(
            max_config_size=args.max_size if args.max_size is not None else src.size + 6,
            max_explored=args.max_explored,
        )
        return oracle.bfs_reach(m, (src,), tgt, budget)
    if method == "marked":
        if isinstance(src, Configuration) and isinstance(tgt, Configuration):
            return marked.reach_marked(m, src, tgt)
        return marked.decide_regreg(m, _as_set(m, src), _as_set(m, tgt), src_cap=args.src_cap, tgt_cap=args.tgt_cap)
    if method == "wqo":
        if not isinstance(tgt, Configuration):
            raise CliError("--method wqo needs a single target configuration")
        if isinstance(src, Configuration):
            return wqo.reach_wqo(m, (src,), tgt, max_nodes=args.max_explored)
        needed = wqo.default_src_cap(src, tgt)
        cap = args.src_cap if args.src_cap is not None else needed
        verdict = wqo.reach_wqo(m, regsets.enumerate_members(src, cap), tgt, max_nodes=args.max_explored)
        if verdict.complete and cap < needed:  # a source beyond the cap may reach tgt
            verdict = replace(verdict, status="unknown", budget="src-cap")
        return replace(verdict, detail={"src_cap": cap})
    return separator.decide_separator(m, _as_set(m, src), _as_set(m, tgt))


def cmd_reach(args) -> int:
    m = _load_mpda(args.machine)
    src = _endpoint(args.src, m)
    tgt = _endpoint(args.to, m)
    method = args.method
    if method == "auto":
        method = _pick_method(m, src, tgt)
    started = time.perf_counter()
    verdict = _decide(args, m, method, src, tgt)
    elapsed = time.perf_counter() - started
    status, budget = verdict.status, verdict.budget
    if status == "unreachable" and verdict.truncated:
        # unreachable only when no cap cut the search, the size cap included
        status, budget = "unknown", "max-size"
    record = {
        "command": "reach",
        "method": method,
        "status": status,
        "wall_time": round(elapsed, 4),
        **verdict.detail,
    }
    summary = f"{status} (method {method}, {elapsed:.2f}s)"
    if verdict.explored is not None:
        record.update(explored=verdict.explored, truncated=verdict.truncated)
    if status == "unknown" and budget is not None:
        record["budget"] = budget
        summary += f"; {budget} budget ran out"
    if verdict.witness is not None:
        # the length of the flat run; a marked witness writes fewer steps
        record["witness_length"] = flat_length(verdict.witness)
        record["witness_steps"] = len(verdict.witness.steps)
        summary += f"; witness of length {record['witness_length']}"
        if not isinstance(src, Configuration):
            record["source"] = str(verdict.witness.start)
        if args.witness:
            _write(args.witness, formats.serialize_witness(verdict.witness))
            record["witness_file"] = args.witness
    if verdict.certificate is not None and args.certificate:
        _write(args.certificate, formats.serialize_regset(verdict.certificate))
        record["certificate_file"] = args.certificate
    _report(record, summary)
    return {"reachable": 0, "unreachable": 1, "unknown": 2}[status]


# ---------------------------------------------------------------------- gen

def cmd_gen(args) -> int:
    fam = args.family
    if fam == "anbncn":
        inst = gadgets.anbncn()
    elif fam.startswith("expo:"):
        inst = gadgets.expo(_int(fam.split(":", 1)[1], "expo:N"))
    elif fam == "nonreg-forward":
        inst = gadgets.nonreg_forward()
    elif fam == "cfg-intersection":
        if not args.grammar1 or not args.grammar2:
            raise CliError("cfg-intersection needs --grammar1 and --grammar2")
        g1 = gadgets.parse_grammar(_read(args.grammar1))
        g2 = gadgets.parse_grammar(_read(args.grammar2))
        inst = gadgets.cfg_intersection(g1, g2)
    elif fam == "comm-free":
        if not args.spec:
            raise CliError("comm-free needs --spec")
        inst = _comm_free_from_spec(_read(args.spec))
    else:
        raise CliError(f"unknown family {fam!r} (try anbncn, expo:N, nonreg-forward, cfg-intersection, comm-free)")
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise CliError(f"cannot create {out}: {e}") from None
    _write(str(out / "machine.mpda"), formats.serialize_mpda(inst.mpda))
    _write(str(out / "source.cfg"), formats.serialize_configuration(inst.source) + "\n")
    _write(str(out / "target.regset"), formats.serialize_regset(inst.target))
    _report(
        {"command": "gen", "family": inst.name, "out": str(out)},
        f"wrote machine.mpda, source.cfg, target.regset for {inst.name} to {out}",
    )
    return 0


def _comm_free_from_spec(text: str) -> gadgets.GadgetInstance:
    """Spec lines: 'source: n1 ... nk', 'target: n1 ... nk' and counter rules
    'rule i : a1 ... ak' (consume one token of counter i, add aj to counter j)."""
    source = target = None
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"counter spec line {lineno}"
        if line.startswith("source:"):
            source = tuple(_int(x, where) for x in line.split(":", 1)[1].split())
        elif line.startswith("target:"):
            target = tuple(_int(x, where) for x in line.split(":", 1)[1].split())
        elif line.startswith("rule"):
            head, _, body = line.partition(":")
            rules.append((_int(head[len("rule"):], where), tuple(_int(x, where) for x in body.split())))
        else:
            raise CliError(f"counter spec line {lineno}: unrecognized line")
    if source is None or target is None:
        raise CliError("counter spec needs 'source:' and 'target:' lines")
    return gadgets.comm_free_counters(tuple(rules), source, target)


# ------------------------------------------------------------------- regset

def cmd_regset(args) -> int:
    m = _load_mpda(args.machine)
    op = args.op
    arity = {"member": 2, "union": 2, "intersect": 2, "complement": 1, "is-empty": 1, "is-subset": 2, "enumerate": 2}[op]
    if len(args.args) != arity:
        raise CliError(f"regset {op} takes {arity} argument(s), got {len(args.args)}")

    def load(path: str):
        return formats.parse_regset(_read(path), m)

    if op == "member":
        L = load(args.args[0])
        c = formats.parse_configuration(args.args[1], m)
        res = regsets.member(L, c)
        _report({"command": "regset", "op": op, "member": res}, "member" if res else "not a member")
        return 0
    if op in ("union", "intersect"):
        L, M = load(args.args[0]), load(args.args[1])
        return _emit_regset(args, regsets.union(L, M) if op == "union" else regsets.intersect(L, M))
    if op == "complement":
        return _emit_regset(args, regsets.complement(load(args.args[0]), m, budget=args.budget))
    if op == "is-empty":
        res = regsets.is_empty(load(args.args[0]))
        _report({"command": "regset", "op": op, "empty": res}, "empty" if res else "nonempty")
        return 0
    if op == "is-subset":
        res = regsets.is_subset(load(args.args[0]), load(args.args[1]), budget=args.budget)
        _report({"command": "regset", "op": op, "subset": res}, "subset" if res else "not a subset")
        return 0
    L = load(args.args[0])  # enumerate
    max_size = _int(args.args[1], "size bound")
    members = [str(c) for c in regsets.enumerate_members(L, max_size)]
    _report({"command": "regset", "op": op, "members": members}, "\n".join(members) or "(no members)")
    return 0


# ---------------------------------------------------------------------- pre

def cmd_pre(args) -> int:
    m = _load_mpda(args.machine)
    M = formats.parse_regset(_read(args.set), m)
    return _emit_regset(args, regsets.pre_image(m, M))


# ------------------------------------------------------------------- shrink

def cmd_shrink(args) -> int:
    m = _load_mpda(args.machine)
    w = formats.parse_witness(_read(args.witness), m)
    L = formats.parse_regset(_read(args.set), m)
    replay(m, w)  # validate before shrinking
    shrunk = oracle.shrink_source(m, w, L)
    record = {
        "command": "shrink",
        "before": str(w.start),
        "after": str(shrunk),
        "removed": w.start.size - shrunk.size,
    }
    _report(record, f"{w.start}  =>  {shrunk}  ({record['removed']} symbols removed)")
    return 0


# --------------------------------------------------------------------- main

def _classify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("machine")


def _reach_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("machine")
    p.add_argument("--from", dest="src", required=True, help="configuration literal or @file.regset")
    p.add_argument("--to", required=True, help="configuration literal or @file.regset")
    p.add_argument("--method", choices=("oracle", "marked", "wqo", "separator", "auto"), default="auto")
    p.add_argument("--max-size", type=_count, default=None, help="oracle size cap")
    p.add_argument("--max-explored", type=_count, default=100_000)
    p.add_argument("--src-cap", type=_count, default=None)
    p.add_argument("--tgt-cap", type=_count, default=None)
    p.add_argument("--witness", help="write the witness to this file")
    p.add_argument("--certificate", help="write a separator certificate to this file")


def _gen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", help="anbncn | expo:N | nonreg-forward | cfg-intersection | comm-free")
    p.add_argument("--out", required=True)
    p.add_argument("--grammar1")
    p.add_argument("--grammar2")
    p.add_argument("--spec")


def _regset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("machine")
    p.add_argument("op", choices=("member", "union", "intersect", "complement", "is-empty", "is-subset", "enumerate"))
    p.add_argument("args", nargs="*")
    p.add_argument("--out")
    p.add_argument("--budget", type=_count, default=regsets.DEFAULT_DET_BUDGET)


def _pre_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("machine")
    p.add_argument("set")
    p.add_argument("--out")


def _shrink_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("machine")
    p.add_argument("--witness", required=True)
    p.add_argument("--set", required=True, help="regular set the source must stay in")


# each command: its help line, the function that declares its arguments,
# and the function that runs it
_COMMANDS = {
    "classify": ("check weakness and normedness", _classify_args, cmd_classify),
    "reach": ("decide reachability between endpoints", _reach_args, cmd_reach),
    "gen": ("generate a benchmark family instance", _gen_args, cmd_gen),
    "regset": ("operations on regular configuration sets", _regset_args, cmd_regset),
    "pre": ("one-step predecessor set", _pre_args, cmd_pre),
    "shrink": ("drop irrelevant source material of a witness", _shrink_args, cmd_shrink),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one command, `mpda <command>`, which parses the
    arguments after the command name; without a command, the full `mpda`
    parser, whose subparsers are built by the same functions (building all
    six costs about a millisecond)."""
    if command is not None:
        _, add_arguments, run = _COMMANDS[command]
        p = _Parser(prog=f"mpda {command}")
        add_arguments(p)
        p.set_defaults(cmd=command, fn=run)
        return p
    p = _Parser(prog="mpda", description="multi-pushdown reachability toolkit")
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, (help_line, add_arguments, run) in _COMMANDS.items():
        c = sub.add_parser(name, help=help_line)
        add_arguments(c)
        c.set_defaults(fn=run)
    return p


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """A known command gets only its own parser; help and unknown commands
    get the full one, for its list of commands."""
    if not argv or argv[0] not in _COMMANDS:
        return build_parser().parse_args(argv)
    args, extra = build_parser(argv[0]).parse_known_args(argv[1:])
    if extra:  # worded as the full parser words it
        _Parser(prog="mpda").error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: list[str] | None = None) -> int:
    cmd = None
    try:
        if argv is None:
            argv = sys.argv[1:]
        args = _parse_args(argv)
        cmd = args.cmd
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone; the interpreter's last flush goes to devnull
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # stdout is not a file descriptor
            return 141
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 141
    except (CliError, formats.ParseError, MpdaError, cls.NotWeak, cls.NotStronglyNormed,
            regsets.TooLarge, oracle.SourceNotInL, gadgets.BadGrammar) as e:
        print(json.dumps({"command": cmd, "error": str(e)}), file=sys.stderr)
        print(f"error: {e}", file=sys.stderr)
        return 3
    except Exception as e:
        print(json.dumps({"command": cmd, "internal_error": f"{type(e).__name__}: {e}"}), file=sys.stderr)
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
