"""One workload in a fresh interpreter; ``run.py`` starts it.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1
                            --result FILE [--trace-out FILE] [--smoke]

Writes the workload's measurements as JSON to ``--result``.  With
``--trace 1`` it also writes one ``docs/trace.schema.json`` document per
timed operation to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import SRC, WORK, WORKLOADS, expected_metrics, load_spec

sys.path.insert(0, str(SRC))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    import serveload
    import tracing
    import workloads

    WORK.mkdir(exist_ok=True)
    trace = bool(args.trace)
    if args.workload == "serve-open":
        result = serveload.run_serve(args.seed, args.seconds, trace,
                                     args.smoke, WORK)
    else:
        result = workloads.run_closed(args.workload, args.seed, args.seconds,
                                      trace, args.smoke, WORK)
    docs = result.pop("trace_docs", None)
    if trace:
        tracing.append_jsonl(args.trace_out, docs)
        result["trace_ops"] = len(docs)

    # Layers a workload does not exercise read 0; any other metric the
    # spec names but the run did not measure is an error, not a zero.
    idle = tuple(result.pop("idle_prefixes"))
    values = result["values"]
    names = expected_metrics(load_spec(), trace)
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    for name in names:
        if name not in values:
            if not name.startswith(idle):
                raise RuntimeError(f"{args.workload}: {name} not measured")
            values[name] = 0.0
            result["samples"][name] = 0
    with open(args.result, "w") as fp:
        json.dump(result, fp)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
