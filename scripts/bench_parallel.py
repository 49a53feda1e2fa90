#!/usr/bin/env python3
"""Regenerate BENCH_parallel.json: serial vs sharded-parallel answers.

Usage:  PYTHONPATH=src python scripts/bench_parallel.py [output_path] [--smoke]

Times the serial ``compiled`` strategy against the sharded parallel
executor (``method="parallel"``) for the certain answers of
``poll_qa`` with free ``(p)``, on the high-mass poll workload
(``towns=8, likes_per_person=8, conflict_rate=0.6``) at increasing
sizes, with a ``jobs in {2, 4, 8}`` grid.

Methodology
-----------
* The shard layout is held fixed across the jobs grid
  (``jobs * shard_factor = 64`` shards), so the grid isolates the
  worker count; 64 shards is where the per-shard working set becomes
  cache-resident on the benchmark host (see docs/PERFORMANCE.md).
* Serial and parallel executions are timed in the *same process* and
  *interleaved* round-robin (serial, jobs=2, jobs=4, jobs=8, repeat),
  then reduced by min-of-rounds: the host shows between-phase clock
  drift larger than the effect under test, and interleaving exposes
  every method to every phase.
* Pools and shard layouts are warmed before timing — steady-state
  latency is the quantity of interest; the one-time partition cost is
  reported separately per size.
* Every parallel answer set is asserted equal to the serial one, and
  the canonical byte rendering (sorted reprs) is hashed so the JSON
  itself witnesses that parallel answers are byte-identical to serial
  answers on every configuration.

``--smoke`` shrinks the grid to CI sizes (two small databases,
``jobs=2``, two rounds); every point still asserts parallel == serial.

The JSON is committed so CI and future sessions can compare against a
known-good baseline.
"""

import hashlib
import json
import os
import pathlib
import random
import sys
import time

from repro.core.terms import Variable
from repro.cqa.certain_answers import OpenQuery, certain_answers
from repro.obs import reset_metrics
from repro.parallel import (
    parallel_certain_answers,
    parallel_stats,
    shutdown_pools,
)
from repro.workloads.poll import random_poll_database
from repro.workloads.queries import poll_qa

SIZES = [50_000, 200_000, 500_000]
JOBS_GRID = [2, 4, 8]
N_SHARDS = 64
ROUNDS = 3

SMOKE_SIZES = [2_000, 5_000]
SMOKE_JOBS_GRID = [2]
SMOKE_ROUNDS = 2


def answers_digest(answers) -> str:
    """SHA-256 of the canonical rendering (sorted reprs) of an answer set."""
    blob = "\n".join(sorted(map(repr, answers))).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def bench_size(open_query, n_people, jobs_grid, rounds):
    db = random_poll_database(
        n_people, 8, likes_per_person=8, conflict_rate=0.6,
        rng=random.Random(7),
    )
    serial, _ = timed(certain_answers, open_query, db, "compiled")  # warm
    digest = answers_digest(serial)

    jobs_grid = [j for j in jobs_grid if N_SHARDS % j == 0]
    reset_metrics()
    partition_s = 0.0
    for jobs in jobs_grid:  # warm pools; first config pays the partition
        par, _ = timed(
            parallel_certain_answers, open_query, db,
            jobs=jobs, min_facts=0, shard_factor=N_SHARDS // jobs,
        )
        assert par == serial, f"jobs={jobs} disagrees at {n_people}"
    partition_s = parallel_stats()["partition_ms"] / 1e3

    serial_times = []
    parallel_times = {jobs: [] for jobs in jobs_grid}
    for _ in range(rounds):
        got, t = timed(certain_answers, open_query, db, "compiled")
        assert got == serial
        serial_times.append(t)
        for jobs in jobs_grid:
            par, t = timed(
                parallel_certain_answers, open_query, db,
                jobs=jobs, min_facts=0, shard_factor=N_SHARDS // jobs,
            )
            assert par == serial, f"jobs={jobs} disagrees at {n_people}"
            assert answers_digest(par) == digest
            parallel_times[jobs].append(t)

    serial_s = min(serial_times)
    row = {
        "people": n_people,
        "facts": db.size(),
        "answers": len(serial),
        "n_shards": N_SHARDS,
        "answers_sha256": digest,
        "partition_s": round(partition_s, 3),
        "serial_s": round(serial_s, 4),
        "parallel": {},
    }
    for jobs in jobs_grid:
        t = min(parallel_times[jobs])
        row["parallel"][f"jobs={jobs}"] = {
            "seconds": round(t, 4),
            "speedup": round(serial_s / t, 2) if t else None,
            "identical_to_serial": True,
        }
    shutdown_pools()
    return row


def main(argv):
    args = [a for a in argv[1:] if a != "--smoke"]
    smoke = "--smoke" in argv[1:]
    out_path = pathlib.Path(args[0]) if args else (
        pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_parallel.json"
    )
    sizes = SMOKE_SIZES if smoke else SIZES
    jobs_grid = SMOKE_JOBS_GRID if smoke else JOBS_GRID
    rounds = SMOKE_ROUNDS if smoke else ROUNDS
    open_query = OpenQuery(poll_qa(), [Variable("p")])
    grid = [bench_size(open_query, n, jobs_grid, rounds) for n in sizes]
    largest = grid[-1]
    report = {
        "query": "{Lives(p|t), not Born(p|t), not Likes(p,t|)} with free (p)",
        "workload": "random_poll_database(n, towns=8, likes_per_person=8, "
                    "conflict_rate=0.6, seed=7)",
        "host_cpus": os.cpu_count(),
        "methodology": (
            "serial compiled vs sharded parallel, 64 shards for every "
            "jobs value, interleaved rounds in one process, min over "
            f"{rounds} rounds; parallel answer sets asserted equal to "
            "serial and sha256 of their sorted reprs recorded per point"
        ),
        "grid": grid,
    }
    if not smoke:
        best = largest["parallel"].get("jobs=4", {}).get("speedup")
        report["largest_size_jobs4_speedup"] = best
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    for row in grid:
        line = ", ".join(
            f"{k} {v['speedup']}x" for k, v in row["parallel"].items()
        )
        print(f"people={row['people']:>7} facts={row['facts']:>8} "
              f"serial={row['serial_s']}s  {line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
