"""Compare two sets of benchmark results, parent against change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the JSON lines that `bench/run.py --record FILE` appends.
Runs are paired in the order they were recorded, so record them alternating
between the two commits. For every end-to-end metric of BENCHMARK.json, each
workload in its own row, this prints both sides' median and quartiles, the
pairs the change won, and a verdict:

  improved    the change wins at least nine tenths of the pairs (ties count
              for neither) and the medians differ by more than the parent's
              interquartile spread;
  unresolved  the parent's spread, as a share of its median, exceeds the
              metric's bound, unless every change run beats every parent run;
  worse       the change's median is worse than the parent's by more than
              the bound;
  no worse    otherwise.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """workload -> metric -> values, in recorded order (untraced runs only)."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"]:
                continue
            metrics = out.setdefault(rec["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _fmt(q) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def verdict(parent, change, better: str, bound: float):
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    spread = p3 - p1
    gain = sign * (cmed - pmed)
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if pairs and wins >= 0.9 * len(pairs) and gain > spread:
        if spread <= bound * abs(pmed) or all_better:
            return wins, len(pairs), "improved"
    if spread > bound * abs(pmed) and not all_better:
        return wins, len(pairs), "unresolved"
    if -gain > bound * abs(pmed):
        return wins, len(pairs), "worse"
    return wins, len(pairs), "no worse"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parent, change = load(argv[0]), load(argv[1])
    header = (f"{'workload':<10} {'metric':<16} {'unit':<6} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'won':>7}  verdict")
    print(header)
    print("-" * len(header))
    worse = 0
    for workload in sorted(set(parent) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = parent[workload].get(name)
            c = change[workload].get(name)
            if not p or not c:
                continue
            wins, pairs, outcome = verdict(p, c, metric["better"], metric["bound"])
            worse += outcome == "worse"
            print(f"{workload:<10} {name:<16} {metric['unit']:<6} {_fmt(quartiles(p)):>34} "
                  f"{_fmt(quartiles(c)):>34} {wins:>3}/{pairs:<3}  {outcome}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
