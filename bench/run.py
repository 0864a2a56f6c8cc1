"""Benchmark of `mpda reach`: time to verdict on three instance workloads.

    python3 bench/run.py --workload single-target --seed 1 --seconds 25 --trace 0

Run from the repository root.  The benchmark imports `mpda` from `src/`,
generates the workload's instances from the seed, writes them to files under
bench/_work/, and calls `mpda.cli.main` on them in process, one operation at
a time (a closed loop with one client).  Every verdict is checked outside the
timed span.  With --trace 1 the public functions of every `mpda` module are
wrapped and the run reports per-layer numbers instead of end-to-end ones; the
spans go to bench/_out/.

Times are reported in reference seconds; see `Speed`.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"

SETUP_ROUNDS = 15
PROBE_EVERY_S = 0.1  # measured time between two speed probes


class Workload:
    def __init__(self, limit_s: float, tail_pct: float, pool_units: int, warmup_units: int,
                 warmup_args: dict | None = None):
        self.limit_s = limit_s              # per-operation time limit, in reference seconds
        self.tail_pct = tail_pct            # the percentile `solve_tail_s` reports
        self.pool_units = pool_units        # instances generated during set-up
        self.warmup_units = warmup_units
        self.warmup_args = warmup_args or {}


# Each tail percentile has more than ten operations beyond it in a run and
# lies inside a dense group of them: p95 inside the expo:16 runs of
# `families`, p90 below the sparse slowest tenth of the separator verdicts.
WORKLOADS = {
    "single-target": Workload(limit_s=0.05, tail_pct=95, pool_units=20, warmup_units=10),
    "families": Workload(limit_s=10.0, tail_pct=95, pool_units=6, warmup_units=3,
                         warmup_args={"heavy_n": 10, "light_n": (8, 9)}),
    "separator": Workload(limit_s=0.05, tail_pct=90, pool_units=10, warmup_units=4),
}


# ------------------------------------------------------------ machine speed

REF_PROBE_S = 0.004


def probe(probe_file: Path) -> float:
    """Seconds taken by a fixed task made of the kinds of work a `reach` call
    does: tuple and dict work, then writing, reading, splitting and
    JSON-encoding a small text file.  It shares no code with the program,
    so it measures the machine, not the program."""
    t0 = time.perf_counter()
    seen: dict = {}
    word = tuple(range(12))
    for i in range(3000):
        c = (i % 50, word[i % 7:] + word[:i % 7])
        if c not in seen:
            seen[c] = len(seen)
    probe_file.write_text("\n".join(f"rule q{i % 3} A{i % 5} -> q{(i + 1) % 3} : A{i % 2} B{i % 3} | C{i % 4}"
                                  for i in range(300)))
    counts: dict = {}
    for line in probe_file.read_text().splitlines():
        toks = line.replace(":", " : ").split()
        key = (toks[1], toks[2], tuple(toks[5:]))
        counts[key] = counts.get(key, 0) + 1
    json.dumps({"keys": [list(k[:2]) for k in counts]})
    return time.perf_counter() - t0


class Speed:
    """How slow the machine runs right now, relative to a reference machine
    on which `probe` takes REF_PROBE_S.

    The machine this benchmark was built on (2 virtual cores shared with
    other tenants) changes speed by up to 2x within a minute.  Dividing a
    time by the factor of the probes taken around it turns it into reference
    seconds, which move only when the program does.  The probe's two halves
    follow the two kinds of operation: its tuple and dict half tracked long
    searches and witness reconstruction, its text and file half the short
    calls whose time is mostly parsing and file access.  The detail line
    keeps the raw times and the factors."""

    WINDOW = 5

    def __init__(self, probe_file: Path) -> None:
        self.probe_file = probe_file
        self.samples: list[float] = []

    def sample(self, n: int = 1) -> None:
        self.samples.extend(probe(self.probe_file) for _ in range(n))

    def factor(self, window: int = WINDOW) -> float:
        """Slowdown now: the median of the latest probes over the reference."""
        return statistics.median(self.samples[-window:]) / REF_PROBE_S


def clear_caches() -> None:
    """Empty the program's module-level caches (dicts named `*_cache`, such
    as `marked._subtrans_cache`, and `functools` caches), so that every
    operation starts as cold as in a fresh `mpda reach` process."""
    for name, mod in list(sys.modules.items()):
        if name != "mpda" and not name.startswith("mpda."):
            continue
        for attr, value in list(vars(mod).items()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif attr.endswith("_cache") and isinstance(value, dict):
                value.clear()


# ------------------------------------------------------------------- timer

class OpTimeout(BaseException):
    """Raised by the per-operation timer.  A BaseException, so that no
    `except Exception` in the program can swallow it."""


class Timer:
    def __init__(self) -> None:
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame) -> None:
        if self.armed:
            self.armed = False
            raise OpTimeout()

    def start(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def stop(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def fail_setup(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "mpda" / "__init__.py").is_file():
        return fail_setup(f"no mpda sources under {SRC}")

    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    sys.path.insert(0, str(SRC))
    import mpda
    from mpda import cli
    if Path(mpda.__file__).resolve().parent != SRC / "mpda":
        return fail_setup(f"imported mpda from {mpda.__file__}, not from {SRC}")
    import workloads
    from tracing import Tracer, layer_metrics
    bench = Bench(args, cli, workloads, Tracer() if args.trace else None, work, Speed(work / "probe.txt"))
    return bench.run(layer_metrics)


def reimport() -> None:
    """Import `mpda.cli` into a module table without `mpda`, as a fresh
    process would.  The modules imported before are put back afterwards, so
    every reference the benchmark holds stays valid."""
    def ours() -> list[str]:
        return [k for k in sys.modules if k == "mpda" or k.startswith("mpda.")]
    saved = {k: sys.modules.pop(k) for k in ours()}
    importlib.import_module("mpda.cli")
    for k in ours():
        del sys.modules[k]
    sys.modules.update(saved)


class Bench:
    def __init__(self, args, cli, workloads, tracer, work: Path, speed: Speed):
        self.args = args
        self.cli = cli
        self.wl = workloads
        self.spec = WORKLOADS[args.workload]
        self.stream_fn = workloads.STREAMS[args.workload]
        self.tracer = tracer
        self.work = work
        self.speed = speed
        self.timer = Timer()

    # ------------------------------------------------------------ one call

    @staticmethod
    def prepare(op) -> None:
        """Housekeeping before an operation, outside its measured time."""
        for path in op.outputs:
            path.unlink(missing_ok=True)
        clear_caches()
        # each call starts from an empty young generation, as in a fresh process
        gc.collect()

    def execute(self, op, traced: bool, op_id: int):
        """Run one operation through `cli.main` under the time limit, scaled
        to the machine's current speed."""
        out, err = io.StringIO(), io.StringIO()
        rc = None
        error = ""
        saved = sys.stdout, sys.stderr
        limit = self.spec.limit_s * self.speed.factor()
        if traced:
            self.tracer.install(op_id)
        t0 = time.perf_counter()
        try:
            try:
                self.timer.start(limit)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(op.argv)
            finally:
                # an alarm due while this runs ends the call as a timeout; none comes after it
                self.timer.stop()
        except OpTimeout:
            pass
        except SystemExit as e:
            error = f"exit {e.code}: {err.getvalue().strip()}"
        except Exception as e:  # the program's failure is the benchmark's datum
            error = f"{type(e).__name__}: {e}"
        finally:
            elapsed = time.perf_counter() - t0
            sys.stdout, sys.stderr = saved  # in case the timer fired inside a redirect's exit
            if traced:
                self.tracer.uninstall()
        if error:
            return self.wl.Outcome("error", elapsed, error=error)
        if rc is None:
            return self.wl.Outcome("timeout", elapsed)
        if rc not in (0, 1, 2):
            return self.wl.Outcome("error", elapsed, error=f"exit {rc}: {err.getvalue().strip()}")
        try:
            record = json.loads(out.getvalue().splitlines()[0])
            status = record["status"]
        except (IndexError, ValueError, KeyError, TypeError):
            return self.wl.Outcome("error", elapsed, error=f"exit {rc} without a reach record on stdout")
        if record.get("truncated") and status == "unreachable":
            # the CLI maps a search cut by the size cap to unreachable; not credited
            status = "unknown"
        return self.wl.Outcome(status, elapsed, record)

    def score(self, op, outcome) -> str | None:
        """The failure reason, None, or `UNCHECKED`; checks run outside the
        timed span."""
        if outcome.status == "error":
            return outcome.error
        if outcome.status not in ("reachable", "unreachable"):
            return None
        try:
            try:
                self.timer.start(60.0)
                return op.check(outcome)
            finally:
                self.timer.stop()
        except OpTimeout:
            return "the check of this verdict did not finish within 60 s"
        except Exception as e:
            return f"the check raised {type(e).__name__}: {e}"

    # ---------------------------------------------------------------- setup

    def setup_round(self, r: int):
        """One set-up: import `mpda`, generate the pool and write its files,
        then warm up on instances of a fixed seed that differs from every
        measured one.  Returns the round's time in seconds, the slowdown
        factor of the probes around it, the pool, and the stream it was
        drawn from."""
        name, seed = self.args.workload, self.args.seed
        round_dir = self.work / f"round{r}"
        self.speed.sample(Speed.WINDOW)
        t0 = time.perf_counter()
        reimport()
        if self.tracer:
            counts = self.tracer.counts.copy()  # count only the measured operations
            self.tracer.install(f"setup:{r}")
        warm = self.stream_fn(random.Random(f"mpda-bench:{name}:warmup"),
                              self.wl.Files(round_dir / "warmup"), "w", **self.spec.warmup_args)
        warm_ops = [op for _ in range(self.spec.warmup_units) for op in next(warm).ops]
        stream = self.stream_fn(random.Random(f"mpda-bench:{name}:{seed}"), self.wl.Files(round_dir / "measured"), "m")
        pool = [op for _ in range(self.spec.pool_units) for op in next(stream).ops]
        if self.tracer:
            self.tracer.uninstall()
            self.tracer.counts.clear()
            self.tracer.counts.update(counts)
        housekeeping_s = 0.0
        for op in warm_ops:
            t1 = time.perf_counter()
            self.prepare(op)
            housekeeping_s += time.perf_counter() - t1
            self.execute(op, False, -1)
        elapsed = time.perf_counter() - t0 - housekeeping_s
        self.speed.sample(Speed.WINDOW)
        return elapsed, self.speed.factor(2 * Speed.WINDOW), pool, stream

    # ------------------------------------------------------------------ run

    def run(self, layer_metrics) -> int:
        round_s, round_raw_s = [], []

        def another_setup_round():
            """A set-up round whose instances are not used: set-up is timed
            several times, at moments spread over the run, since the
            machine's speed drifts over seconds."""
            r = len(round_s)
            gc.collect()
            elapsed, factor, _, _ = self.setup_round(r)
            shutil.rmtree(self.work / f"round{r}", ignore_errors=True)
            round_raw_s.append(elapsed)
            round_s.append(elapsed / factor)

        elapsed, factor, pool, stream = self.setup_round(0)
        round_raw_s.append(elapsed)
        round_s.append(elapsed / factor)
        # the pool first; past it, instances are drawn outside the measured phase
        ops = itertools.chain(pool, (op for unit in stream for op in unit.ops))
        # the benchmark's own objects stay out of the collector's way, as
        # they would be absent from a one-shot `mpda reach` process
        gc.collect()
        gc.freeze()

        times, untraced_times, traced_ids, factors = [], [], set(), []
        ended = []  # times of the operations that ended within the limit
        raw_s = wall_ref_s = 0.0
        decided = failed = 0
        failures, sizes, statuses, by_kind, unchecked = [], {}, {}, {}, {}
        index = 0
        phase_start = time.perf_counter()
        paused = 0.0  # probes, housekeeping, checks and instance generation: outside the measured phase
        next_probe = 0.0
        setup_every = self.args.seconds / SETUP_ROUNDS
        while (measured := time.perf_counter() - phase_start - paused) < self.args.seconds:
            t0 = time.perf_counter()
            if measured >= len(round_s) * setup_every:
                another_setup_round()
            if measured >= next_probe:
                self.speed.sample()
                next_probe = measured + PROBE_EVERY_S
            op = next(ops)
            paused += time.perf_counter() - t0
            # traced runs alternate which copy goes first, so that what the
            # first copy leaves warm (the file cache) favours neither side
            plan = [False] if not self.tracer else ([False, True] if index % 2 == 0 else [True, False])
            for traced in plan:
                op_id = len(times) + len(untraced_times)
                t0 = time.perf_counter()
                self.prepare(op)
                factor = self.speed.factor()
                t1 = time.perf_counter()
                outcome = self.execute(op, traced, op_id)
                wall_ref_s += (time.perf_counter() - t1) / factor
                paused += t1 - t0
                raw_s += outcome.elapsed
                factors.append(factor)
                ref_s = outcome.elapsed / factor
                if self.tracer and not traced:
                    untraced_times.append(ref_s)
                else:
                    times.append(ref_s)
                    if traced:
                        traced_ids.add(op_id)
                    elif outcome.status != "timeout":
                        ended.append(ref_s)
                statuses[outcome.status] = statuses.get(outcome.status, 0) + 1
                by_kind.setdefault(op.name.split(".", 1)[1], []).append(ref_s)
                t0 = time.perf_counter()
                reason = self.score(op, outcome)
                paused += time.perf_counter() - t0
                if reason == self.wl.UNCHECKED:
                    key = f"{op.name.split('.', 1)[1]} {outcome.status}"
                    unchecked[key] = unchecked.get(key, 0) + 1
                    decided += 1
                elif reason is not None:
                    failed += 1
                    failures.append(f"{op.name}: {reason}")
                elif outcome.status in ("reachable", "unreachable"):
                    decided += 1
                for key, value in op.sizes.items():
                    lo, hi, total, n = sizes.get(key, (value, value, 0, 0))
                    sizes[key] = (min(lo, value), max(hi, value), total + value, n + 1)
            index += 1

        while len(round_s) < SETUP_ROUNDS:
            another_setup_round()
        setup_s = statistics.median(round_s)
        attempted = sum(statuses.values())
        detail = {
            "workload": self.args.workload, "seed": self.args.seed, "seconds": self.args.seconds,
            "trace": self.args.trace, "limit_ref_s": self.spec.limit_s, "operations": attempted,
            "statuses": statuses, "pool_operations": len(pool), "generated_late": max(index - len(pool), 0),
            "unchecked": unchecked,
            "input_sizes": {k: {"min": lo, "max": hi, "mean": round(t / n, 3)} for k, (lo, hi, t, n) in sizes.items()},
            "failed_share": failed / attempted, "failures": failures,
            "speed_factor": {"measured_median": statistics.median(factors),
                             "measured_min": min(factors), "measured_max": max(factors)},
            "setup_rounds_ref_s": round_s,
            "raw": {"setup_rounds_s": round_raw_s, "cli_main_s": raw_s, "ops_per_cli_main_s": attempted / raw_s},
            "by_kind_ref_s": {k: {"operations": len(v), "total": sum(v), "median": statistics.median(v)}
                              for k, v in sorted(by_kind.items())},
        }
        if self.tracer:
            p50 = statistics.median(times)
            untraced_p50 = statistics.median(untraced_times)
            metrics = layer_metrics(self.tracer, traced_ids, [f"setup:{r}" for r in range(SETUP_ROUNDS)],
                                    statistics.median(factors))
            metrics.update({
                "trace.solve_p50_s": (p50, "s"),
                "trace.untraced_solve_p50_s": (untraced_p50, "s"),
                "trace.overhead_ratio": (p50 / untraced_p50, "ratio"),
            })
            out_dir = BENCH / "_out"
            out_dir.mkdir(exist_ok=True)
            span_file = out_dir / f"spans-{self.args.workload}.jsonl.gz"
            self.tracer.write(span_file)
            detail["spans"] = len(self.tracer.spans)
            detail["span_file"] = str(span_file.relative_to(ROOT))
        else:
            # nearest rank: the smallest time with at least tail_pct % of the ended operations at or below it
            tail_rank = max(math.ceil(self.spec.tail_pct / 100 * len(ended)), 1)
            detail.update({"tail_percentile": self.spec.tail_pct, "tail_samples": len(ended),
                           "tail_beyond": len(ended) - tail_rank})
            metrics = {
                "solve_p50_s": (statistics.median(times), "s"),
                "solve_tail_s": (sorted(ended)[tail_rank - 1] if ended else self.spec.limit_s, "s"),
                "instances_per_s": (attempted / wall_ref_s, "1/s"),
                "decided_share": (decided / attempted, "share"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }

        print(f"mpda bench: workload {self.args.workload}, seed {self.args.seed}, "
              f"{self.args.seconds:g} s, trace {self.args.trace}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:32s} {value:.6g} {unit}")
        print(f"  {'failed_share':32s} {failed / attempted:.6g} share ({failed} of {attempted} operations)")
        if not self.tracer:
            print(f"  solve_tail_s is p{self.spec.tail_pct:g} of the {len(ended)} operations that ended "
                  f"within the limit; {len(ended) - tail_rank} are beyond it")
            print(f"  {sum(unchecked.values())} of {decided} decided verdicts left unchecked: {unchecked}")
        for line in failures:
            print(f"  FAILED {line}")
        print("detail: " + json.dumps(detail, sort_keys=True))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }))
        return 0


if __name__ == "__main__":
    sys.exit(main())
