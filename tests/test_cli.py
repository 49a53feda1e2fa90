"""Tests for the command-line interface."""

import json
import random

import pytest

from repro.cli import main
from repro.columnar.executor import COLUMNAR_MIN_FACTS
from repro.core.parser import parse_query
from repro.core.terms import Variable
from repro.cqa.certain_answers import OpenQuery, _guarded_open_rewriting
from repro.db.io import save_database
from repro.fo.compile import plan_cache
from repro.fo.plan import plan_nodes
from repro.obs import reset_metrics
from repro.storage import storage_stats
from repro.workloads.poll import (
    paper_flavoured_poll_database,
    random_poll_database,
)

from conftest import db_from

QA = "Lives(p | t), not Born(p | t), not Likes(p, t)"
Q1 = "R(x | y), not S(y | x)"
Q3 = "P(x | y), not N('c' | y)"


@pytest.fixture
def poll_file(tmp_path):
    path = tmp_path / "poll.json"
    save_database(paper_flavoured_poll_database(), path)
    return str(path)


class TestClassify:
    def test_cyclic(self, capsys):
        assert main(["classify", Q1]) == 0
        out = capsys.readouterr().out
        assert "not in FO" in out
        assert "NL-hard" in out

    def test_acyclic(self, capsys):
        assert main(["classify", Q3]) == 0
        out = capsys.readouterr().out
        assert "in FO" in out
        assert "N->P" in out

    def test_parse_error_exits(self):
        with pytest.raises(SystemExit):
            main(["classify", "R(x | y"])


class TestRewrite:
    def test_prints_formula(self, capsys):
        assert main(["rewrite", Q3]) == 0
        out = capsys.readouterr().out
        assert "rewriting size" in out

    def test_pretty_and_sql(self, capsys):
        assert main(["rewrite", Q3, "--pretty", "--sql"]) == 0
        out = capsys.readouterr().out
        assert "forall" in out
        assert "WITH adom" in out

    def test_cyclic_fails_gracefully(self, capsys):
        assert main(["rewrite", Q1]) == 1
        assert "no consistent first-order rewriting" in capsys.readouterr().err


class TestCertain:
    def test_default_method(self, capsys, poll_file):
        assert main(["certain", QA, "--db", poll_file]) == 0
        out = capsys.readouterr().out
        assert "CERTAINTY = " in out

    @pytest.mark.parametrize("method", ["brute", "interpreted",
                                        "rewriting", "sql"])
    def test_all_methods_agree(self, capsys, poll_file, method):
        assert main(["certain", QA, "--db", poll_file,
                     "--method", method]) == 0
        out = capsys.readouterr().out
        assert "CERTAINTY = True" in out


class TestAnswers:
    def test_free_variable_answers(self, capsys, poll_file):
        assert main(["answers", QA, "--free", "p", "--db", poll_file]) == 0
        out = capsys.readouterr().out
        assert "certain answers (p)" in out
        assert "'cal'" in out

    def test_show_sql(self, capsys, poll_file):
        assert main(["answers", QA, "--free", "p", "--db", poll_file,
                     "--show-sql"]) == 0
        assert "SELECT DISTINCT" in capsys.readouterr().out


class TestPlan:
    @pytest.mark.parametrize("free", [("p", "t"), ()])
    def test_shows_the_plan_the_engine_runs(self, capsys, free):
        """``repro plan`` compiles the guarded formula ``_dispatch``
        compiles: for poll_qa(p,t) that plan needs no active domain,
        where the unguarded rewriting took an ``AdomProduct``."""
        args = ["plan", QA, "--check"]
        if free:
            args += ["--free", ",".join(free)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "AdomProduct" not in out
        assert "uses active domain" not in out
        oq = OpenQuery(parse_query(QA), [Variable(v) for v in free])
        compiled = plan_cache.get_or_compile(
            _guarded_open_rewriting(oq), paper_flavoured_poll_database(),
            oq.free)
        n = sum(1 for _ in plan_nodes(compiled.plan))
        assert f"plan: {n} operators" in out


class TestJobsFlag:
    def test_jobs_implies_parallel(self, capsys, poll_file):
        assert main(["answers", QA, "--free", "p", "--db", poll_file,
                     "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "certain answers (p)" in out
        assert "'cal'" in out

    def test_explicit_parallel_method(self, capsys, poll_file):
        assert main(["answers", QA, "--free", "p", "--db", poll_file,
                     "--method", "parallel", "--jobs", "2"]) == 0
        assert "'cal'" in capsys.readouterr().out

    def test_certain_jobs_boolean_fallback(self, capsys, poll_file):
        # Boolean certainty does not shard; --jobs still works and the
        # engine silently runs the serial compiled plan.
        assert main(["certain", QA, "--db", poll_file, "--jobs", "2",
                     "--stats"]) == 0
        out = capsys.readouterr().out
        assert "CERTAINTY = True" in out
        assert "(method: parallel" in out
        payload = _stats_payload(out)
        assert payload["parallel"]["fallback_reasons"].get("boolean", 0) >= 1

    @pytest.mark.parametrize("method", ["brute", "compiled", "sql"])
    def test_jobs_rejected_for_serial_methods(self, poll_file, method):
        with pytest.raises(SystemExit, match="--jobs only applies"):
            main(["answers", QA, "--free", "p", "--db", poll_file,
                  "--method", method, "--jobs", "2"])

    def test_certain_jobs_rejected_for_serial_methods(self, poll_file):
        with pytest.raises(SystemExit, match="--jobs only applies"):
            main(["certain", QA, "--db", poll_file,
                  "--method", "interpreted", "--jobs", "4"])

    def test_nonpositive_jobs_rejected(self, poll_file):
        with pytest.raises(SystemExit, match="positive"):
            main(["answers", QA, "--free", "p", "--db", poll_file,
                  "--jobs", "0"])


def _stats_payload(out: str) -> dict:
    """The JSON object --stats appends after the human-readable lines."""
    return json.loads(out[out.index("{"):])


VIEW_STAT_KEYS = {"views_registered", "commits_seen", "deltas_applied",
                  "rows_touched", "fallback_recomputes"}


class TestStatsFlag:
    def test_certain_stats_json_shape(self, capsys, poll_file):
        assert main(["certain", QA, "--db", poll_file,
                     "--method", "compiled", "--stats"]) == 0
        payload = _stats_payload(capsys.readouterr().out)
        assert set(payload) == {"schema_version", "plan_cache", "views",
                                "parallel", "columnar", "storage"}
        assert {"hits", "misses", "size"} <= set(payload["plan_cache"])
        assert set(payload["views"]) == VIEW_STAT_KEYS
        assert all(isinstance(v, int) for v in payload["views"].values())
        assert {"runs", "serial_fallbacks", "shards",
                "workers"} <= set(payload["parallel"])
        assert {"runs", "boolean_probe_delegations", "decode_fallbacks",
                "auto_routed", "scan_cache_hits", "answers_reused",
                "answer_rows_decoded"} <= set(payload["columnar"])

    def test_answers_stats_json_shape(self, capsys, poll_file):
        assert main(["answers", QA, "--free", "p", "--db", poll_file,
                     "--method", "compiled", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "certain answers (p)" in out
        payload = _stats_payload(out)
        assert set(payload) == {"schema_version", "plan_cache", "views",
                                "parallel", "columnar", "storage"}

    def test_without_flag_no_json(self, capsys, poll_file):
        assert main(["certain", QA, "--db", poll_file]) == 0
        assert "{" not in capsys.readouterr().out


class TestWatch:
    @pytest.fixture
    def q3_file(self, tmp_path):
        db = db_from({"P/2/1": [(1, "a")],
                      "N/2/1": [("c", "a"), ("c", "b")]})
        path = tmp_path / "q3.json"
        save_database(db, path)
        return str(path)

    def test_open_view_diffs(self, capsys, poll_file, tmp_path):
        stream = tmp_path / "ops.txt"
        stream.write_text(
            "# dan moves in, then confesses to liking mons\n"
            "begin\n"
            "+ Lives dan mons\n"
            "+ Born dan rome\n"
            "commit\n"
            "+ Likes dan mons\n"
        )
        assert main(["watch", QA, "--db", poll_file, "--free", "p",
                     "--stream", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "watching" in out
        plus = out.index("+('dan',)")
        minus = out.index("-('dan',)")
        assert plus < minus  # certain after the batch, retracted after Likes
        assert "(2 update batches)" in out

    def test_boolean_certainty_flip_on_retraction(self, capsys, q3_file,
                                                  tmp_path):
        stream = tmp_path / "ops.txt"
        stream.write_text("- N 'c' 'a'\n+ N 'c' 'a'\n")
        assert main(["watch", Q3, "--db", q3_file,
                     "--stream", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "watching CERTAINTY = False" in out
        assert "CERTAINTY -> True" in out
        assert "CERTAINTY -> False" in out
        assert "final: CERTAINTY = False" in out

    def test_stats_flag(self, capsys, q3_file, tmp_path):
        stream = tmp_path / "ops.txt"
        stream.write_text("- N 'c' 'a'\n")
        assert main(["watch", Q3, "--db", q3_file, "--stream", str(stream),
                     "--stats"]) == 0
        payload = _stats_payload(capsys.readouterr().out)
        assert set(payload) == {"schema_version", "plan_cache", "views",
                                "parallel", "columnar", "storage"}
        assert payload["views"]["commits_seen"] >= 1

    def test_bad_op_exits_nonzero(self, capsys, q3_file, tmp_path):
        stream = tmp_path / "ops.txt"
        stream.write_text("? N c a\n")
        assert main(["watch", Q3, "--db", q3_file,
                     "--stream", str(stream)]) == 1
        assert "stream line 1" in capsys.readouterr().err

    def test_unknown_relation_exits_nonzero(self, capsys, q3_file, tmp_path):
        stream = tmp_path / "ops.txt"
        stream.write_text("+ N 'c' 'z'\n+ Nope 1\n")
        assert main(["watch", Q3, "--db", q3_file,
                     "--stream", str(stream)]) == 1
        assert "stream line 2" in capsys.readouterr().err

    def test_cyclic_query_fails_gracefully(self, capsys, q3_file, tmp_path):
        stream = tmp_path / "ops.txt"
        stream.write_text("")
        assert main(["watch", Q1, "--db", q3_file,
                     "--stream", str(stream)]) == 1
        assert "consistent FO rewriting" in capsys.readouterr().err


class TestGraph:
    def test_dot_output(self, capsys):
        assert main(["graph", Q3]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert '"N" -> "P"' in out
        assert "shape=box" in out  # negated atom rendered as box


class TestDbCommands:
    def test_init_open_checkpoint_verify(self, capsys, poll_file, tmp_path):
        store = str(tmp_path / "store")
        assert main(["db", "init", store, "--from", poll_file]) == 0
        out = capsys.readouterr().out
        assert "seeded" in out and "initialized store" in out

        assert main(["db", "open", store]) == 0
        out = capsys.readouterr().out
        assert "clock:" in out and "recovery:" in out

        assert main(["db", "checkpoint", store]) == 0
        assert "checkpoint: snapshot-" in capsys.readouterr().out

        assert main(["db", "verify", store, "--integrity-check"]) == 0
        out = capsys.readouterr().out
        assert "verdict: ok" in out and "integrity:" in out

    def test_auto_and_stats_build_no_mirror(self, capsys, tmp_path):
        # Above the columnar size gate auto reads skip SQL; --method sql
        # then answers the same from an in-memory mirror, and neither
        # leaves a mirror file in the store.
        reset_metrics()
        source = tmp_path / "poll.json"
        db = random_poll_database(n_people=1200, n_towns=60,
                                  rng=random.Random(1))
        assert db.size() >= COLUMNAR_MIN_FACTS
        save_database(db, source)
        store = tmp_path / "store"
        assert main(["db", "init", str(store), "--from", str(source)]) == 0
        capsys.readouterr()
        assert main(["answers", QA, "--free", "p",
                     "--db-path", str(store)]) == 0
        auto = capsys.readouterr().out
        assert storage_stats()["pushdown"]["native_sql"] == 0
        assert not (store / "mirror.sqlite").exists()

        assert main(["answers", QA, "--free", "p", "--db-path", str(store),
                     "--method", "sql"]) == 0
        assert capsys.readouterr().out == auto
        assert storage_stats()["pushdown"]["native_sql"] == 1
        assert not (store / "mirror.sqlite").exists()

    def test_db_stats_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["db", "stats", str(tmp_path / "store")])
        assert exc.value.code == 2

    def test_init_refuses_existing_store(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["db", "init", store]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="already a store"):
            main(["db", "init", store])

    def test_open_refuses_non_store(self, tmp_path):
        with pytest.raises(SystemExit, match="not a repro store"):
            main(["db", "open", str(tmp_path / "nowhere")])

    def test_verify_json_and_corruption_exit(self, capsys, tmp_path):
        import pathlib

        store = tmp_path / "store"
        assert main(["db", "init", str(store)]) == 0
        capsys.readouterr()
        assert main(["db", "verify", str(store), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True

        # Corrupt the newest snapshot: verify must exit non-zero.
        from repro.core.atoms import RelationSchema
        from repro.storage import open_database

        db = open_database(store)

        db.add_relation(RelationSchema("R", 2, 1))
        db.add("R", ("a", "1"))
        db.checkpoint()
        db.add("R", ("b", "2"))
        db.close()
        snap = next(iter(pathlib.Path(store).glob("snapshot-*.snap")))
        snap.write_bytes(snap.read_bytes()[:-3])
        assert main(["db", "verify", str(store)]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_certain_on_db_path(self, capsys, poll_file, tmp_path):
        store = str(tmp_path / "store")
        assert main(["db", "init", store, "--from", poll_file]) == 0
        capsys.readouterr()
        assert main(["certain", QA, "--db", poll_file]) == 0
        expected = capsys.readouterr().out.splitlines()[0]
        assert main(["certain", QA, "--db-path", store]) == 0
        assert capsys.readouterr().out.splitlines()[0] == expected

    def test_answers_on_db_path_matches_json(self, capsys, poll_file,
                                             tmp_path):
        store = str(tmp_path / "store")
        assert main(["db", "init", store, "--from", poll_file]) == 0
        capsys.readouterr()
        assert main(["answers", QA, "--free", "p", "--db", poll_file]) == 0
        expected = capsys.readouterr().out
        assert main(["answers", QA, "--free", "p", "--db-path", store]) == 0
        assert capsys.readouterr().out == expected

    def test_db_and_db_path_mutually_exclusive(self, poll_file, tmp_path):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["certain", QA, "--db", poll_file,
                  "--db-path", str(tmp_path / "store")])

    def test_one_of_db_or_db_path_required(self):
        with pytest.raises(SystemExit, match="one of --db or --db-path"):
            main(["certain", QA])

    def test_watch_commits_are_durable(self, capsys, poll_file, tmp_path,
                                       monkeypatch):
        store = str(tmp_path / "store")
        assert main(["db", "init", store, "--from", poll_file]) == 0
        capsys.readouterr()
        stream = tmp_path / "ops.txt"
        stream.write_text("begin\n+ Lives 'zoe' 'ghent'\ncommit\n")
        assert main(["watch", QA, "--db-path", store, "--free", "p",
                     "--stream", str(stream)]) == 0
        capsys.readouterr()
        assert main(["db", "open", store]) == 0
        out = capsys.readouterr().out
        assert "wal:" in out  # reopened cleanly after the stream
        from repro.storage import open_database

        db = open_database(store)
        assert ("zoe", "ghent") in db.facts("Lives")
        db.close()
