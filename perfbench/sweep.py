"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workloads learn-exact,pac-label --seeds 1-10 \
        --out .perfbench_out/base.jsonl

Each run is ``perfbench/run.py`` in its own process, one after another, for
``run_seconds`` from BENCHMARK.json.
Every run's last output line is appended to ``--out`` as
``{"workload", "seed", "trace", "result"}``; ``compare.py`` reads such
files.  The report gives, per workload and metric, the median, the
quartiles and the spread (interquartile distance over the median) next to
the bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def by_metric(rows, workload: str, trace: int) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for row in rows:
        if row["workload"] == workload and row["trace"] == trace:
            for name, m in row["result"]["metrics"].items():
                out.setdefault(name, []).append(m["value"])
    return out


def report(rows, spec) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in dict.fromkeys(r["workload"] for r in rows):
        for trace in sorted({r["trace"] for r in rows if r["workload"] == w}):
            runs = [r for r in rows if r["workload"] == w and r["trace"] == trace]
            bad = sum(not r["result"]["correct"] for r in runs)
            print(f"\n{w} trace={trace}: {len(runs)} runs, {bad} not correct")
            print(f"  {'metric':38s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
            for name, values in by_metric(rows, w, trace).items():
                q1, q2, q3 = quartiles(values)
                bound = bounds.get(name)
                flag = ""
                if bound is not None and spread(values) >= bound / 3:
                    flag = "  >= bound/3" if spread(values) < bound else "  >= BOUND"
                b = f"{bound:6.2f}" if bound is not None else "     -"
                print(f"  {name:38s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread(values):7.3f} {b}{flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="JSONL file the results are appended to")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    for seed in seeds(args.seeds):
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                print(f"{w} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}",
                      file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            print(f"{w} seed {seed}: exit {proc.returncode} correct={result['correct']}",
                  file=sys.stderr)
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": w, "seed": seed, "trace": args.trace,
                                     "result": result}) + "\n")
    report(load(args.out), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
