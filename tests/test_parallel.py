"""Tests for the sharded parallel certain-answer executor.

Covers the partitioner's invariants (blocks never split, broadcast
relations copied whole, process-independent routing), the serial
fallback conditions, parity of the parallel path with the serial
compiled path (including empty shards and single-block databases),
pool reuse and invalidation on database mutation, the aggregated
stats hook, and fork safety of the parent's plan cache.
"""

from __future__ import annotations

import random

import pytest

from repro.core.terms import Variable
from repro.cqa.certain_answers import (
    OpenQuery,
    _guarded_open_rewriting,
    certain_answers,
)
from repro.cqa.engine import CertaintyEngine
from repro.fo.compile import compile_formula, plan_cache
from repro.obs import reset_metrics
from repro.parallel import (
    parallel_certain_answers,
    parallel_stats,
    shard_database,
    shard_of,
    shard_spec,
    shutdown_pools,
)
from repro.parallel.pool import fork_context
from repro.workloads.poll import (
    adversarial_poll_database,
    empty_poll_database,
    random_poll_database,
)
from repro.workloads.queries import poll_q1, poll_qa

from conftest import db_from

p, t = Variable("p"), Variable("t")

needs_fork = pytest.mark.skipif(
    fork_context() is None, reason="platform has no fork start method"
)


@pytest.fixture(autouse=True)
def _clean_pools():
    yield
    shutdown_pools()


def qa_open():
    return OpenQuery(poll_qa(), [p])


class TestShardOf:
    def test_deterministic_and_in_range(self):
        for value in ("ann", 7, ("x", 1), None):
            s = shard_of(value, 8)
            assert 0 <= s < 8
            assert s == shard_of(value, 8)

    def test_independent_of_str_hash_salt(self):
        # CRC of repr, not hash(): the same value must route identically
        # in the parent and in every forked worker regardless of
        # PYTHONHASHSEED.
        assert shard_of("mons", 16) == 0


class TestShardSpec:
    def test_all_relations_sharded_for_qa(self):
        spec = shard_spec(qa_open())
        assert spec.var == p
        assert spec.sharded == {"Likes": 0, "Born": 0, "Lives": 0}
        assert spec.broadcast == frozenset()

    def test_broadcast_when_var_not_in_key(self):
        # q1 = Mayor(t|p), not Lives(p|t) with free p: p sits in Lives's
        # key but only in Mayor's non-key columns.
        spec = shard_spec(OpenQuery(poll_q1(), [p]))
        assert spec.var == p
        assert spec.sharded == {"Lives": 0}
        assert spec.broadcast == {"Mayor"}

    def test_prefers_heavier_routing_mass(self):
        db = empty_poll_database()
        db.add_all("Mayor", [(f"t{i}", "ann") for i in range(50)])
        db.add("Lives", ("ann", "t0"))
        spec = shard_spec(OpenQuery(poll_q1(), [p, t]), db)
        assert spec.var == t  # Mayor's 50 facts shard on t, not Lives's 1
        assert spec.sharded == {"Mayor": 0}

    def test_none_without_free_variables(self):
        assert shard_spec(OpenQuery(poll_q1(), [])) is None


class TestShardDatabase:
    def test_blocks_never_split_and_nothing_lost(self, rng):
        db = random_poll_database(40, 5, rng=rng)
        spec = shard_spec(qa_open(), db)
        shards = shard_database(db, spec, 4)
        for rel in ("Likes", "Born", "Lives"):
            scattered = [row for shard in shards for row in shard.facts(rel)]
            assert sorted(scattered) == sorted(db.facts(rel))
            # every key-equal block lands whole in exactly one shard
            for shard in shards:
                for row in shard.facts(rel):
                    block = [r for r in db.facts(rel) if r[0] == row[0]]
                    assert sorted(
                        r for r in shard.facts(rel) if r[0] == row[0]
                    ) == sorted(block)

    def test_broadcast_copied_whole(self, rng):
        db = random_poll_database(20, 4, rng=rng)
        spec = shard_spec(OpenQuery(poll_q1(), [p]), db)
        shards = shard_database(db, spec, 3)
        for shard in shards:
            assert sorted(shard.facts("Mayor")) == sorted(db.facts("Mayor"))

    def test_empty_shards_allowed(self):
        db = empty_poll_database()
        db.add("Lives", ("ann", "mons"))
        spec = shard_spec(qa_open(), db)
        shards = shard_database(db, spec, 8)
        occupied = [s for s in shards if s.size()]
        assert len(occupied) == 1  # single block -> single shard


@needs_fork
class TestParity:
    def _check(self, open_query, db, jobs=2):
        serial = certain_answers(open_query, db, "compiled")
        par = parallel_certain_answers(
            open_query, db, jobs=jobs, min_facts=0, shard_factor=2
        )
        assert par == serial
        # deterministic presentation: identical sorted renderings
        assert sorted(map(repr, par)) == sorted(map(repr, serial))

    def test_qa_random(self, rng):
        self._check(qa_open(), random_poll_database(60, 5, rng=rng))

    def test_q1_with_broadcast_postfilter(self, rng):
        db = random_poll_database(60, 5, rng=rng)
        self._check(OpenQuery(poll_q1(), [p]), db)
        self._check(OpenQuery(poll_q1(), [t]), db)

    def test_adversarial_workload(self):
        db = adversarial_poll_database(300, 10, rng=random.Random(11))
        self._check(qa_open(), db, jobs=2)

    def test_empty_database(self):
        assert parallel_certain_answers(
            qa_open(), empty_poll_database(), jobs=2, min_facts=0
        ) == frozenset()

    def test_single_block_database(self):
        db = empty_poll_database()
        db.add_all("Lives", [("ann", "mons"), ("ann", "paris")])
        db.add("Likes", ("ann", "rome"))
        self._check(qa_open(), db)

    def test_pool_reuse_and_clock_invalidation(self, rng):
        db = random_poll_database(30, 4, rng=rng)
        oq = qa_open()
        first = parallel_certain_answers(oq, db, jobs=2, min_facts=0)
        reset_metrics()
        again = parallel_certain_answers(oq, db, jobs=2, min_facts=0)
        assert again == first
        assert parallel_stats()["partition_ms"] == 0.0  # warm pool, no repartition
        db.add_all("Lives", [("zoe", "mons"), ("zoe", "rome")])
        db.add("Likes", ("zoe", "rome"))
        changed = parallel_certain_answers(oq, db, jobs=2, min_facts=0)
        assert changed == certain_answers(oq, db, "compiled")
        assert ("zoe",) not in changed  # zoe likes a block town in one repair


class TestFallbacks:
    def _reason_of(self, open_query, db, **kw):
        reset_metrics()
        result = parallel_certain_answers(open_query, db, **kw)
        stats = parallel_stats()
        assert stats["serial_fallbacks"] == 1
        assert result == certain_answers(open_query, db, "compiled")
        (reason,) = stats["fallback_reasons"]
        return reason

    def test_boolean(self, rng):
        db = random_poll_database(8, 3, rng=rng)
        oq = OpenQuery(poll_qa(), [])
        assert self._reason_of(oq, db, jobs=2, min_facts=0) == "boolean"

    def test_jobs_1(self, rng):
        db = random_poll_database(8, 3, rng=rng)
        assert self._reason_of(qa_open(), db, jobs=1, min_facts=0) == "jobs=1"

    def test_below_min_facts(self, rng):
        db = random_poll_database(8, 3, rng=rng)
        reason = self._reason_of(qa_open(), db, jobs=2, min_facts=10**9)
        assert reason == "below-min-facts"

    def test_no_shard_variable(self):
        # p occurs only in Mayor's non-key column: nothing to route by.
        from repro.core.parser import parse_query

        db = db_from({"Mayor/2/1": [("mons", "ann"), ("mons", "bea")]})
        oq = OpenQuery(parse_query("Mayor(t | p)"), [p])
        assert self._reason_of(oq, db, jobs=2, min_facts=0) == "no-shard-variable"

    @needs_fork
    def test_plan_touches_adom(self, rng):
        # A generated query whose guarded rewriting compiles to an
        # Adom* plan (ADOM_QUERIES[154] of the compiled-vs-eval
        # property suite): no shard sees the whole active domain.
        from repro.core.parser import parse_query
        from repro.workloads.generators import random_small_database

        query = parse_query("P0(v2, v1, v0), P1(v1), P2(v0 | v1), "
                            "not N0(v2 | v0, v2), not N1(v1 | v1)")
        oq = OpenQuery(query, [Variable("v1")])
        compiled = compile_formula(_guarded_open_rewriting(oq), oq.free)
        assert compiled.uses_adom
        db = random_small_database(query, rng, domain_size=3)
        reason = self._reason_of(oq, db, jobs=2, min_facts=0)
        assert reason == "plan-touches-adom"


class TestResolveJobs:
    def test_default_is_cpu_count(self, rng):
        import os

        db = random_poll_database(8, 3, rng=rng)
        reset_metrics()
        got = parallel_certain_answers(qa_open(), db, jobs=None, min_facts=0)
        assert got == certain_answers(qa_open(), db, "compiled")
        stats = parallel_stats()
        cpus = os.cpu_count() or 1
        if cpus == 1 or fork_context() is None:
            assert stats["serial_fallbacks"] == 1
        else:
            assert stats["workers"] == cpus


@needs_fork
class TestStatsAndForkSafety:
    def test_engine_stats_hook(self, rng):
        db = random_poll_database(30, 4, rng=rng)
        reset_metrics()
        parallel_certain_answers(qa_open(), db, jobs=2, min_facts=0)
        stats = CertaintyEngine(qa_open().query).metrics().parallel
        assert stats["runs"] == 1
        assert stats["parallel_runs"] == 1
        assert stats["workers"] == 2
        assert stats["shards"] >= 2
        assert stats["merge_ms"] >= 0.0
        assert stats["worker_exec_ms"] > 0.0

    def test_parent_plan_cache_isolated_from_workers(self, rng):
        # Workers execute pre-compiled plans in their own processes;
        # the parent's cache counters must not move during the sharded
        # fan-out itself (PlanCache fork-safety contract).
        db = random_poll_database(30, 4, rng=rng)
        oq = qa_open()
        parallel_certain_answers(oq, db, jobs=2, min_facts=0)  # warm pool
        before = dict(plan_cache.stats())
        parallel_certain_answers(oq, db, jobs=2, min_facts=0)
        after = plan_cache.stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 1  # one parent-side lookup
