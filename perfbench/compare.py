"""Compare two result sets written by sweep.py.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For each workload and metric: each side's median and quartiles, and a
verdict.  Runs are paired by seed.

* ``better``: the new side wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the base side's
  interquartile distance.
* ``WORSE``: an end-to-end metric whose new median is worse than the base
  median by more than its bound in BENCHMARK.json.
* ``unresolved``: the base side's spread is wider than the bound, unless
  every new run reads better than every base run.
* ``within bound`` / ``no change shown``: none of the above.

``mq_count`` and ``eq_count`` are deterministic for a seed, so any rise in a
pair is a hard failure (``RISE``); equal counts on every seed read
``identical``.  The exit code is 1 when any metric is
``WORSE`` or ``RISE``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from sweep import load, quartiles

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ("mq_count", "eq_count")


def values(rows, workload, trace, metric) -> dict[int, float]:
    return {
        r["seed"]: r["result"]["metrics"][metric]["value"]
        for r in rows
        if r["workload"] == workload and r["trace"] == trace and metric in r["result"]["metrics"]
    }


def verdict(base: dict, new: dict, better: str, bound) -> str:
    sign = 1 if better == "higher" else -1
    seeds = sorted(base.keys() & new.keys())
    if not seeds:
        return "no common seeds"
    b = [base[s] for s in seeds]
    n = [new[s] for s in seeds]
    b1, b2, b3 = quartiles(b)
    _, n2, _ = quartiles(n)
    wins = sum(sign * (y - x) > 0 for x, y in zip(b, n))
    if wins >= 0.9 * len(seeds) and abs(n2 - b2) > b3 - b1:
        return "better"
    if bound is None:
        losses = sum(sign * (y - x) < 0 for x, y in zip(b, n))
        if losses >= 0.9 * len(seeds) and abs(n2 - b2) > b3 - b1:
            return "worse"
        return "no change shown"
    if sign * (n2 - b2) < -bound * abs(b2):
        return "WORSE"
    if b2 and (b3 - b1) / abs(b2) > bound:
        if all(sign * (y - x) > 0 for x in b for y in n):
            return "better"
        return "unresolved"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m, 0) for m in spec["end_to_end"]] + [(m, 1) for m in spec["per_layer"]]
    base, new = load(args.base), load(args.new)
    failed = False
    for w in [w["name"] for w in spec["workloads"]]:
        print(f"\n{w}")
        print(f"  {'metric':38s} {'base median [q1, q3]':>36s} {'new median [q1, q3]':>36s}  verdict")
        for m, trace in metrics:
            name = m["name"]
            b, n = values(base, w, trace, name), values(new, w, trace, name)
            if not b or not n:
                continue
            if name in COUNTS:
                common = b.keys() & n.keys()
                rises = sorted(s for s in common if n[s] > b[s])
                if rises:
                    v = f"RISE on seeds {rises}"
                elif all(n[s] == b[s] for s in common):
                    v = "identical"
                else:
                    v = verdict(b, n, m["better"], None)
                failed |= bool(rises)
            else:
                v = verdict(b, n, m["better"], m.get("bound"))
                failed |= v == "WORSE"
            bq, nq = quartiles(list(b.values())), quartiles(list(n.values()))
            fmt = "{1:.6g} [{0:.6g}, {2:.6g}]"
            print(f"  {name:38s} {fmt.format(*bq):>36s} {fmt.format(*nq):>36s}  {v}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
