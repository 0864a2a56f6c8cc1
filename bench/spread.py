"""Run the benchmark once per seed and workload; print every run's report and,
per workload, each metric's median and quartile spread (the distance between
the first and the third quartile, as a share of the median).

    python3 bench/spread.py --seeds 1-10 [--workloads families,separator] [--seconds 25] [--trace 1] [--json out.json]

Runs are sequential, one process at a time, from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

RUN = Path(run.__file__).resolve()


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "unit": first["unit"]}
    return summary


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(run.WORKLOADS))
    p.add_argument("--seeds", default="1", help="first-last, e.g. 1-10")
    p.add_argument("--seconds", default="25")
    p.add_argument("--trace", default="0")
    p.add_argument("--json", help="also write every run's result and the summaries here")
    args = p.parse_args()
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True, cwd=RUN.parent.parent,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            print("\n".join(line for line in lines[:-1] if not line.startswith("detail: ")), flush=True)
            runs.append({"seed": seed, **json.loads(lines[-1])})
        summary = summarize(runs)
        print(f"{workload}: {len(runs)} runs")
        for name, s in summary.items():
            print(f"  {name:30s} median {s['median']:.6g} {s['unit']:9s} spread {s['spread']:.4f}")
        report[workload] = {"runs": runs, "summary": summary}
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
