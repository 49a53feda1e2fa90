#!/usr/bin/env python3
"""The repository benchmark.

    python3 bench/run.py [--workload W] [--seed N] [--runs K] [--seconds S]
                         [--trace 0|1] [--trace-out FILE] [--smoke]
                         [--out results.json]

Runs each workload (all four without ``--workload``) in its own fresh
interpreter (``bench/worker.py``) with inherited ``REPRO_*`` variables
removed, checks the answers, prints every metric by name with its unit,
and ends with one JSON line::

    {"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports the per-layer ones and writes one trace document
per operation as JSONL (``--trace-out``, default
``.bench_work/trace.jsonl``).  ``--runs K`` repeats with seeds
N..N+K-1.
``--out`` writes every run, with host and commit provenance, as one
JSON file that ``bench/compare.py`` reads.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from common import (
    BENCH_DIR,
    ROOT,
    SRC,
    WORK,
    WORKLOADS,
    expected_metrics,
    load_spec,
)

#: A run must end within 180 s; the worker gets what is left of that.
RUN_LIMIT_S = 175.0


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance() -> Dict[str, Any]:
    # Only a repository rooted here counts; a checkout nested inside some
    # other repository has no commit of its own.
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.realpath(top) == str(ROOT)
    status = _git("status", "--porcelain") if in_repo else None
    return {
        "commit": _git("rev-parse", "HEAD") if in_repo else None,
        "dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def worker_env(seed: int) -> Dict[str, Any]:
    """The worker's environment, with what was removed and what was set."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    # A fixed hash seed per benchmark seed: same seed, same set orders.
    # sqlite spills and temporary files stay inside the checkout.
    set_vars = {"PYTHONPATH": str(SRC),
                "PYTHONHASHSEED": str(seed % 2**32),
                "TMPDIR": str(WORK / "tmp"), "SQLITE_TMPDIR": str(WORK / "tmp")}
    env.update(set_vars)
    return {"env": env, "scrubbed": scrubbed, "set": set_vars}


def run_worker(workload: str, seed: int, seconds: float, trace: bool,
               smoke: bool, trace_out: Optional[str]) -> Dict[str, Any]:
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    result_path = WORK / f"result-{workload}.json"
    if result_path.exists():
        result_path.unlink()
    env = worker_env(seed)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(int(trace)),
           "--result", str(result_path)]
    if trace_out is not None:
        cmd += ["--trace-out", trace_out]
    if smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    # Own process group, so a timeout also stops the server and any
    # forked workers the worker started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env["env"], stdout=2,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload}: worker exceeded {RUN_LIMIT_S:.0f} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the worker and everything it started have ended
        proc.wait()
    if code != 0:
        raise RuntimeError(f"{workload}: worker exited with {code}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    result.update({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": int(trace), "smoke": smoke,
                   "wall_s": time.perf_counter() - t0,
                   "env_scrubbed": env["scrubbed"], "env_set": env["set"]})
    return result


def attach_units(run: Dict[str, Any], units: Dict[str, str]) -> None:
    values, samples = run.pop("values"), run.pop("samples")
    run["metrics"] = {}
    for name, unit in units.items():
        value = values.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise RuntimeError(f"{run['workload']}: {name} = {value!r}")
        run["metrics"][name] = {"value": value, "unit": unit,
                                "samples": samples.get(name)}
    run["correct"] = run["failed"] == 0


def print_run(run: Dict[str, Any]) -> None:
    print(f"{run['workload']}  seed={run['seed']}  trace={run['trace']}  "
          f"attempted={run['attempted']} failed={run['failed']}  "
          f"correct={run['correct']}")
    for name, m in run["metrics"].items():
        print(f"  {name:<38} {m['value']:>14.4f} {m['unit']:<9} "
              f"(n={m['samples']})")


def summary_line(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    line: Dict[str, Any] = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }
    if len(runs) == 1:
        line["metrics"] = {name: {"value": m["value"], "unit": m["unit"]}
                           for name, m in runs[0]["metrics"].items()}
        return line
    # Several runs: the median per workload and metric.
    metrics: Dict[str, Any] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        for name, m in mine[0]["metrics"].items():
            metrics[f"{workload}.{name}"] = {
                "value": statistics.median(r["metrics"][name]["value"]
                                           for r in mine),
                "unit": m["unit"]}
    line["metrics"] = metrics
    return line


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one set-up: same code paths")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    units = expected_metrics(spec, bool(args.trace))
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    trace_out = None
    if args.trace:
        # Every traced run appends its documents to this one file.
        WORK.mkdir(exist_ok=True)
        trace_out = os.path.abspath(args.trace_out or WORK / "trace.jsonl")
        open(trace_out, "w").close()
    runs = []
    try:
        for seed in range(args.seed, args.seed + args.runs):
            for workload in workloads:
                run = run_worker(workload, seed, seconds, bool(args.trace),
                                 args.smoke, trace_out)
                attach_units(run, units)
                print_run(run)
                runs.append(run)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fp:
            json.dump({"provenance": provenance(), "runs": runs}, fp,
                      indent=1)
            fp.write("\n")
    print(json.dumps(summary_line(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
