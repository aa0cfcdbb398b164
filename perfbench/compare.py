"""Compare two sets of benchmark results, end-to-end metric by metric.

    python3 perfbench/compare.py SET_A SET_B

Each set is a directory of results files written by run.py (--results);
untraced runs are compared, per workload.  For each end-to-end metric the
command prints both sets' median and quartiles and a verdict, using the
bounds in BENCHMARK.json:

  within bound  B's median is no worse than A's by more than the bound
  worse         B's median is worse than A's by more than the bound
  unresolved    a set's quartile spread exceeds the bound (unless every run
                of B is better than every run of A)

It also reports each set's share of failed operations and its runs with
failed checks.  Exit code 1 when any verdict is "worse" or "unresolved",
the failed shares differ, or a run failed a check.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(directory: Path) -> dict:
    """workload -> {"metrics": {name: [values]}, "failed": n, "attempted": n}"""
    sets: dict = defaultdict(lambda: {"metrics": defaultdict(list),
                                      "failed": 0, "attempted": 0,
                                      "incorrect": 0})
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if not isinstance(record, dict) or record.get("trace") != 0:
            continue
        entry = sets[record["workload"]]
        res = record["result"]
        entry["failed"] += res["failed"]
        entry["attempted"] += res["attempted"]
        entry["incorrect"] += not res["correct"]
        for name, m in res["metrics"].items():
            entry["metrics"][name].append(m["value"])
    return sets


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], bound: float,
            lower_better: bool) -> str:
    qa, qb = quartiles(a), quartiles(b)
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    worse = (qb[1] - qa[1]) / qa[1] * (1 if lower_better else -1)
    b_always_better = (max(b) < min(a)) if lower_better else (min(b) > max(a))
    if spread > bound:
        return "within bound" if b_always_better else "unresolved"
    return "worse" if worse > bound else "within bound"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    a, b = load(Path(argv[0])), load(Path(argv[1]))
    bad = False
    for workload in sorted(set(a) | set(b)):
        if workload not in a or workload not in b:
            print(f"{workload}: results in only one set")
            bad = True
            continue
        print(f"== {workload} ({len(a[workload]['metrics']['pass_s'])} vs "
              f"{len(b[workload]['metrics']['pass_s'])} runs)")
        for m in spec["end_to_end"]:
            va = a[workload]["metrics"][m["name"]]
            vb = b[workload]["metrics"][m["name"]]
            qa, qb = quartiles(va), quartiles(vb)
            v = verdict(va, vb, m["bound"], m["better"] == "lower")
            bad |= v != "within bound"
            change = (qb[1] - qa[1]) / qa[1]
            print(f"  {m['name']:<12} A {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]"
                  f"  B {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] {m['unit']}"
                  f"  {change:+.1%} (bound {m['bound']:.0%}): {v}")
        fa, fb = a[workload], b[workload]
        same = fa["failed"] * fb["attempted"] == fb["failed"] * fa["attempted"]
        bad |= not same or fa["incorrect"] > 0 or fb["incorrect"] > 0
        print(f"  incorrect    A {fa['incorrect']}  B {fb['incorrect']} runs")
        print(f"  failed       A {fa['failed']}/{fa['attempted']}"
              f"  B {fb['failed']}/{fb['attempted']}: "
              f"{'same share' if same else 'shares differ'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
