"""Per-layer tracing of the `mpda` package from outside it.

`Tracer` replaces each public module-level function of every `mpda` module
with a wrapper, in every `mpda` namespace that holds the function (so
`mpda.cli.replay` and `mpda.oracle.successors` are wrapped as well as
`mpda.model.replay`).  A wrapper records a span: its name, its parent span,
the operation it belongs to, and its start and end.  Spans stay in memory
until `write` puts them into a gzipped JSON-lines file.

Functions called once per search node, rule or symbol are hot leaves: their
wrappers only count calls, because a span around each of them would cost
more than the work it measures.  Their time is part of the self time of the
span that calls them.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "formats", "classify", "model", "oracle", "marked", "wqo", "regsets", "separator", "gadgets")

LEAVES = frozenset({
    "model.step", "model.enabled", "model.successors", "model.check_token", "model.higman_leq",
    "model.words_over",
    "wqo.colored_leq", "wqo.colored_successors", "wqo.color_all",
    "regsets.member",
    "marked.apply_subtransition", "marked.subtransitions_for", "marked.mk_subwords",
})


def _count_oracle_verdict(counts: Counter, verdict) -> None:
    counts["oracle.nodes"] += verdict.explored
    counts["oracle.truncated"] += bool(verdict.truncated)


def _count_witness(counts: Counter, witness) -> None:
    counts["marked.witness_steps"] += len(witness.steps)


def _count_check(counts: Counter, failure) -> None:
    counts["separator.certified"] += failure is None


def _count_leq(counts: Counter, holds: bool) -> None:
    counts["wqo.leq_true"] += holds


# what a few functions' results add to the counters
ON_RESULT = {
    "oracle.bfs_reach": _count_oracle_verdict,
    "marked.reconstruct": _count_witness,
    "separator.check_separator": _count_check,
    "wqo.colored_leq": _count_leq,
}


class Tracer:
    """Wrappers for the public functions of the `mpda` modules, and the spans
    and counts they record while installed."""

    def __init__(self) -> None:
        # (span id, parent id, operation, name, start, end, exception name)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op: object = None
        self._stack = [0]
        self._next_id = 0
        self._patches: list[tuple[object, str, object, object]] = []
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"mpda.{layer}")
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "mpda" and not modname.startswith("mpda."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patches.append((mod, attr, val, wrappers[val]))

    # -------------------------------------------------------------- wrappers

    def _wrap(self, name: str, fn):
        on_result = ON_RESULT.get(name)
        counts = self.counts
        if name in LEAVES:
            if on_result is None:
                def leaf(*args, **kwargs):
                    counts[name] += 1
                    return fn(*args, **kwargs)
                return leaf

            def counted_leaf(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                on_result(counts, result)
                return result
            return counted_leaf

        clock = time.perf_counter
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # each resume of the generator is one span of the consumer
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        sid, parent = tracer._open()
                        err = None
                        start = clock()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        except BaseException as e:
                            err = type(e).__name__
                            raise
                        finally:
                            tracer._close(sid, parent, name, start, clock(), err)
                        yield item
                finally:
                    it.close()
            return generator

        def spanned(*args, **kwargs):
            sid, parent = tracer._open()
            err = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                err = type(e).__name__
                raise
            finally:
                tracer._close(sid, parent, name, start, clock(), err)
            if on_result is not None:
                on_result(counts, result)
            return result
        return spanned

    def _open(self) -> tuple[int, int]:
        self._next_id += 1
        sid = self._next_id
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end, err) -> None:
        stack = self._stack
        # an interrupt between _open and the wrapper's try leaves spans open
        while len(stack) > 1 and stack[-1] != sid:
            stack.pop()
        if len(stack) > 1:
            stack.pop()
        self.spans.append((sid, parent, self.op, name, start, end, err))

    # ------------------------------------------------------------ lifecycle

    def install(self, op: object) -> None:
        self.op = op
        self._stack = [0]
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)
        self.op = None
        self._stack = [0]

    def write(self, path) -> None:
        with gzip.open(path, "wt") as out:
            for sid, parent, op, name, start, end, err in self.spans:
                out.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                      "start": start, "end": end, "error": err}) + "\n")


# ---------------------------------------------------------------- analysis

def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer, ops: set, setup_ops: list, slowdown: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of the traced operations `ops`,
    normalised per operation, plus the gadget build time of each set-up
    round in `setup_ops` (median over rounds).  Times are divided by the
    machine's `slowdown`, which turns them into reference seconds."""
    names = {sid: name for sid, _, _, name, _, _, _ in tracer.spans}
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, op, _, start, end, _ in tracer.spans:
        child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    outer: dict[str, float] = defaultdict(float)      # outermost span of each layer, inclusive
    by_name: dict[str, float] = defaultdict(float)    # outermost span of each name, inclusive
    calls: Counter = Counter()        # outermost spans of each name
    outer_calls: Counter = Counter()  # outermost spans of each layer
    under_separator = 0.0
    too_large = 0
    gadgets_by_round: dict[object, float] = {op: 0.0 for op in setup_ops}
    for sid, parent, op, name, start, end, err in tracer.spans:
        dur = end - start
        layer = _layer(name)
        parent_name = names.get(parent, "")
        outermost_in_layer = _layer(parent_name) != layer
        if op in gadgets_by_round:
            if layer == "gadgets" and outermost_in_layer:
                gadgets_by_round[op] += dur
            continue
        if op not in ops:
            continue
        self_s[layer] += dur - child_time[sid]
        if outermost_in_layer:
            outer[layer] += dur
            outer_calls[layer] += 1
            if layer == "oracle" and _layer(parent_name) == "separator":
                under_separator += dur
            if err == "TooLarge" and layer == "regsets":
                too_large += 1
        if parent_name != name:
            by_name[name] += dur
            calls[name] += 1

    c = tracer.counts
    n = max(len(ops), 1)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_op_s(v: float) -> tuple[float, str]:
        return (v / n, "s/op")

    def per_op(v: float) -> tuple[float, str]:
        return (v / n, "count/op")

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_op_s(self_s[layer])
    parse_s = sum(v for k, v in by_name.items() if k.startswith("formats.parse_"))
    serialize_s = sum(v for k, v in by_name.items() if k.startswith("formats.serialize_"))
    out.update({
        "formats.parse_s": per_op_s(parse_s),
        "formats.serialize_s": per_op_s(serialize_s),
        "classify.s": per_op_s(outer["classify"]),
        "classify.calls": per_op(outer_calls["classify"]),
        "model.step_calls": per_op(c["model.step"]),
        "model.successors_calls": per_op(c["model.successors"]),
        "model.replay_s": per_op_s(by_name["model.replay"]),
        "oracle.s": per_op_s(outer["oracle"]),
        "oracle.nodes": per_op(c["oracle.nodes"]),
        "oracle.us_per_node": (ratio(outer["oracle"], c["oracle.nodes"]) * 1e6, "us"),
        "oracle.truncated": per_op(c["oracle.truncated"]),
        "marked.decide_s": per_op_s(by_name["marked.decide_marked"]),
        "marked.reconstruct_s": per_op_s(by_name["marked.reconstruct"]),
        "marked.witness_steps": per_op(c["marked.witness_steps"]),
        "wqo.s": per_op_s(outer["wqo"]),
        "wqo.expanded": per_op(c["wqo.colored_successors"]),
        "wqo.leq_calls": per_op(c["wqo.colored_leq"]),
        "wqo.leq_hit_ratio": (ratio(c["wqo.leq_true"], c["wqo.colored_leq"]), "ratio"),
        "wqo.us_per_expanded": (ratio(outer["wqo"], c["wqo.colored_successors"]) * 1e6, "us"),
        "regsets.member_calls": per_op(c["regsets.member"]),
        "regsets.pre_image_s": per_op_s(by_name["regsets.pre_image"]),
        "regsets.is_subset_s": per_op_s(by_name["regsets.is_subset"]),
        "regsets.is_subset_calls": per_op(calls["regsets.is_subset"]),
        "regsets.too_large": per_op(too_large),
        "regsets.enumerate_s": per_op_s(by_name["regsets.enumerate_members"]),
        "separator.s": per_op_s(outer["separator"]),
        "separator.positive_s": per_op_s(under_separator),
        "separator.fixpoint_s": per_op_s(by_name["separator.backward_fixpoint"]),
        "separator.candidates_checked": per_op(calls["separator.check_separator"]),
        "separator.certified_ratio": (ratio(c["separator.certified"], calls["separator.check_separator"]), "ratio"),
        "gadgets.build_s": (statistics.median(gadgets_by_round.values()) if gadgets_by_round else 0.0, "s"),
    })
    return {name: (value / slowdown if unit in ("s", "s/op", "us") else value, unit)
            for name, (value, unit) in out.items()}
