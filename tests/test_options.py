"""ExecutionOptions: the one request-shaped execution API.

The same frozen dataclass travels two ways — positionally into
``certain``/``certain_answers`` and as the JSON body of a ``repro serve``
request — so these tests pin its validation, coercion, wire round-trip,
and that it is the engine's only way in: the old ``method=``/``jobs=``/
``config=`` keywords are gone.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.parser import parse_query
from repro.cqa.engine import CertaintyEngine
from repro.db.database import Database
from repro.core.atoms import RelationSchema
from repro.obs import ExecutionOptions, OptionsError, RunConfig


class TestConstruction:
    def test_defaults(self):
        opts = ExecutionOptions()
        assert opts.method == "auto"
        assert opts.jobs is None
        assert opts.trace is False
        assert opts.resolved_method == "auto"

    def test_frozen(self):
        with pytest.raises(Exception):
            ExecutionOptions().method = "sql"  # type: ignore[misc]

    def test_unknown_method_rejected(self):
        with pytest.raises(OptionsError, match="unknown method"):
            ExecutionOptions(method="turbo")

    def test_jobs_requires_parallelizable_method(self):
        with pytest.raises(OptionsError, match="jobs= only applies"):
            ExecutionOptions(method="compiled", jobs=2)

    def test_jobs_with_auto_resolves_to_parallel(self):
        opts = ExecutionOptions(jobs=2)
        assert opts.method == "auto"
        assert opts.resolved_method == "parallel"

    def test_positive_fields_validated(self):
        with pytest.raises(OptionsError):
            ExecutionOptions(method="parallel", jobs=0)
        with pytest.raises(OptionsError):
            ExecutionOptions(shard_factor=-1)

    def test_nonnegative_fields_validated(self):
        assert ExecutionOptions(sql_min_facts=0).sql_min_facts == 0
        with pytest.raises(OptionsError):
            ExecutionOptions(parallel_min_facts=-5)

    def test_bool_is_not_an_int(self):
        with pytest.raises(OptionsError):
            ExecutionOptions(method="parallel", jobs=True)


class TestCoercion:
    def test_none_is_defaults(self):
        assert ExecutionOptions.coerce(None) == ExecutionOptions()

    def test_string_is_method_shorthand(self):
        assert ExecutionOptions.coerce("sql").method == "sql"

    def test_mapping_goes_through_from_dict(self):
        opts = ExecutionOptions.coerce({"method": "parallel", "jobs": 3})
        assert (opts.method, opts.jobs) == ("parallel", 3)

    def test_instance_passes_through(self):
        opts = ExecutionOptions(method="brute")
        assert ExecutionOptions.coerce(opts) is opts

    def test_unknown_keys_rejected(self):
        with pytest.raises(OptionsError, match="unknown option field"):
            ExecutionOptions.from_dict({"method": "sql", "workers": 4})

    def test_other_types_rejected(self):
        with pytest.raises((TypeError, OptionsError)):
            ExecutionOptions.coerce(42)  # type: ignore[arg-type]


class TestWireRoundTrip:
    def test_to_dict_is_compact(self):
        assert ExecutionOptions().to_dict() == {"method": "auto"}

    def test_round_trip_preserves_everything(self):
        opts = ExecutionOptions(method="parallel", jobs=4, shard_factor=2,
                                sql_min_facts=10, columnar_min_facts=7)
        assert ExecutionOptions.from_dict(opts.to_dict()) == opts

    def test_replace(self):
        opts = ExecutionOptions(method="auto").replace(method="sql")
        assert opts.method == "sql"

    def test_from_env_reads_gates(self, monkeypatch):
        monkeypatch.setenv("REPRO_SQL_MIN_FACTS", "123")
        opts = ExecutionOptions.from_env(method="sql")
        assert opts.sql_min_facts == 123
        assert opts.method == "sql"

    def test_run_config_lift(self):
        opts = ExecutionOptions(method="parallel", jobs=3, shard_factor=2)
        config = opts.run_config()
        assert isinstance(config, RunConfig)
        assert config.jobs == 3
        assert config.shard_factor == 2


class TestLegacyShims:
    """The old ``method=``/``jobs=``/``config=`` keywords are gone;
    options travel positionally and never warn."""

    def test_positional_string_does_not_warn(self):
        db = TestEngineIntegration._db()
        engine = CertaintyEngine(parse_query(TestEngineIntegration.QUERY))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert engine.certain(db, "compiled") is True

    def test_method_keyword_is_gone(self):
        engine = CertaintyEngine(parse_query(TestEngineIntegration.QUERY))
        with pytest.raises(TypeError):
            engine.certain(TestEngineIntegration._db(), method="compiled")


class TestEngineIntegration:
    QUERY = "P(x | y), not N('c' | y)"  # acyclic: FO-rewritable

    @staticmethod
    def _db():
        db = Database([RelationSchema("P", 2, 1), RelationSchema("N", 2, 1)])
        db.add("P", ("a", "b"))
        db.add("N", ("c", "d"))
        return db

    def test_engine_accepts_options_positionally(self):
        engine = CertaintyEngine(parse_query(self.QUERY))
        db = self._db()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = engine.certain(db, "brute")
            assert engine.certain(db, ExecutionOptions(method="compiled")) \
                == expected
            assert engine.certain(db, {"method": "interpreted"}) == expected
