"""Smoke test of the benchmark: ``pytest bench/`` (well under 30 s).

Every workload runs through ``run.py --smoke`` in both modes: tiny
inputs and one set-up, but the same code paths as a full run.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from common import (  # noqa: E402
    ROOT,
    SPEC_PATH,
    SRC,
    TRACE_SCHEMA_PATH,
    WORKLOADS,
    load_spec,
)

sys.path.insert(0, str(SRC))

from repro.core.parser import parse_query, query_to_text  # noqa: E402
from repro.obs.schema import validate  # noqa: E402
from repro.workloads.generators import QueryParams, random_query  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    out = {"trace_path": tmp / "trace.jsonl"}
    for trace in (0, 1):
        results = tmp / f"results-{trace}.json"
        proc = _bench("--smoke", "--seconds", "0.5", "--trace", str(trace),
                      "--trace-out", str(out["trace_path"]),
                      "--out", str(results))
        assert proc.returncode == 0, proc.stderr[-3000:]
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        out[trace] = (line, json.loads(results.read_text()))
    return out


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_appears_with_its_unit(smoke, trace):
    section = load_spec()["per_layer" if trace else "end_to_end"]
    runs = smoke[trace][1]["runs"]
    assert sorted(run["workload"] for run in runs) == sorted(WORKLOADS)
    for run in runs:
        assert set(run["metrics"]) == {m["name"] for m in section}
        for metric in section:
            got = run["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("trace", [0, 1])
def test_fail_ratio_is_zero(smoke, trace):
    line, results = smoke[trace]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    for run in results["runs"]:
        assert run["failed"] == 0 and run["attempted"] > 0


def test_end_to_end_metrics_are_never_zero(smoke):
    for run in smoke[0][1]["runs"]:
        for name, metric in run["metrics"].items():
            assert metric["value"] > 0, (run["workload"], name)


def test_trace_jsonl_validates(smoke):
    schema = json.loads(TRACE_SCHEMA_PATH.read_text())
    docs = [json.loads(line)
            for line in smoke["trace_path"].read_text().splitlines()]
    assert docs
    for doc in docs:
        assert validate(doc, schema) == []


def test_query_text_round_trips():
    rng = random.Random(0)
    for _ in range(500):
        query = random_query(QueryParams(), rng)
        assert parse_query(query_to_text(query)) == query


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "answers-warm", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
