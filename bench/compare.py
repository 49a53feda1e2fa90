#!/usr/bin/env python3
"""Compare two sets of benchmark runs under the BENCHMARK.json bounds.

    python3 bench/compare.py BASE.json NEW.json

Each file is written by ``bench/run.py --out`` (use ``--runs K`` for
several seeds).  Only untraced runs count.  For every workload and
end-to-end metric it prints each side's median and quartiles and one
verdict, where ``change`` is NEW's median relative to BASE's, signed so
that positive is worse:

``unresolved``    a side's quartile spread exceeds the bound, and the
                  runs do not separate (every NEW run better, or worse,
                  than every BASE run: then ``better`` / ``worse``);
``worse``         change > bound;
``better``        change < -bound;
``within bound``  otherwise.

It also compares the failure ratio (failed / attempted) per workload.
Exits 1 when any metric is worse or NEW fails a larger share.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from common import load_spec


def quartiles(values: List[float]) -> List[float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them, with a one-run fallback."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def load_runs(path: str) -> Dict[str, List[Dict[str, Any]]]:
    with open(path) as fp:
        runs = json.load(fp)["runs"]
    by_workload: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for run in runs:
        if not run["trace"]:
            by_workload[run["workload"]].append(run)
    return by_workload


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base: List[float], new: List[float], bound: float,
            lower_is_better: bool) -> Tuple[str, float]:
    sign = 1.0 if lower_is_better else -1.0
    b_med, n_med = statistics.median(base), statistics.median(new)
    change = sign * (n_med - b_med) / b_med if b_med else 0.0
    if max(spread(base), spread(new)) > bound:
        if all(sign * n < sign * b for n in new for b in base):
            return "better", change
        if all(sign * n > sign * b for n in new for b in base):
            return "worse", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "within bound", change


def fmt(values: List[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    base, new = load_runs(argv[0]), load_runs(argv[1])
    regressed = False
    print(f"{'workload':<14} {'metric':<16} {'base median [q1, q3]':<30} "
          f"{'new median [q1, q3]':<30} {'change':>8}  verdict")
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in b_runs]
            n = [r["metrics"][name]["value"] for r in n_runs]
            label, change = verdict(b, n, metric["bound"],
                                    metric["better"] == "lower")
            regressed |= label == "worse"
            print(f"{workload:<14} {name:<16} {fmt(b):<30} {fmt(n):<30} "
                  f"{change:>+8.1%}  {label}")
        b_fail = (sum(r["failed"] for r in b_runs)
                  / sum(r["attempted"] for r in b_runs))
        n_fail = (sum(r["failed"] for r in n_runs)
                  / sum(r["attempted"] for r in n_runs))
        label = "worse" if n_fail > b_fail else "within bound"
        regressed |= n_fail > b_fail
        print(f"{workload:<14} {'fail_ratio':<16} {b_fail:<30.4g} "
              f"{n_fail:<30.4g} {'':>8}  {label}")
    missing = sorted(set(base) ^ set(new))
    if missing:
        print(f"workloads on one side only: {', '.join(missing)}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
