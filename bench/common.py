"""Paths, quantiles and the metric table shared by the benchmark files."""

from __future__ import annotations

import json
import math
import pathlib
from typing import Dict, Sequence

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
TRACE_SCHEMA_PATH = ROOT / "docs" / "trace.schema.json"
#: Scratch space for stores, server logs and traces (git-ignored).
WORK = ROOT / ".bench_work"

WORKLOADS = ("answers-warm", "queries-cold", "ingest-views", "serve-open")


def load_spec() -> Dict:
    return json.loads(SPEC_PATH.read_text())


def expected_metrics(spec: Dict, trace: bool) -> Dict[str, str]:
    """Metric name -> unit for one mode of a run."""
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def quantile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile (0 <= q <= 1) of a sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
