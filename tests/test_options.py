"""ExecutionOptions: the one request-shaped execution API.

The same frozen dataclass travels two ways — positionally into
``certain``/``certain_answers`` and as the JSON body of a ``repro serve``
request — so these tests pin its two fields against the wire schema,
validation, coercion, wire round-trip, and that it is the engine's only
way in: the old ``method=``/``jobs=``/``config=`` keywords are gone.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import warnings

import pytest

from repro.core.parser import parse_query
from repro.cqa.engine import CertaintyEngine
from repro.db.database import Database
from repro.core.atoms import RelationSchema
from repro.obs import KNOWN_METHODS, ExecutionOptions, OptionsError

SERVE_SCHEMA = (pathlib.Path(__file__).resolve().parents[1]
                / "docs" / "serve.schema.json")


class TestConstruction:
    def test_exactly_two_fields(self):
        names = [f.name for f in dataclasses.fields(ExecutionOptions)]
        assert names == ["method", "jobs"]

    def test_defaults(self):
        opts = ExecutionOptions()
        assert opts.method == "auto"
        assert opts.jobs is None
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
            ExecutionOptions(jobs=-1)

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

    @pytest.mark.parametrize("knob", [
        "max_workers", "parallel_min_facts", "shard_factor",
        "sql_min_facts", "sql_stmt_cache", "columnar_min_facts",
    ])
    def test_routing_knobs_are_unknown_keys(self, knob):
        # The routing gates are module constants; the wire form has
        # no field for them.
        with pytest.raises(OptionsError, match="unknown option field"):
            ExecutionOptions.from_dict({"method": "auto", knob: 1})

    def test_trace_flag_is_an_unknown_key(self):
        # A tracer the engine makes for itself is unreadable by the
        # caller, so tracing without a trace file means passing tracer=.
        with pytest.raises(OptionsError, match="unknown option field"):
            ExecutionOptions.from_dict({"trace": True})

    def test_other_types_rejected(self):
        with pytest.raises((TypeError, OptionsError)):
            ExecutionOptions.coerce(42)  # type: ignore[arg-type]


class TestWireRoundTrip:
    def test_to_dict_is_compact(self):
        assert ExecutionOptions().to_dict() == {"method": "auto"}

    def test_round_trip_preserves_everything(self):
        opts = ExecutionOptions(method="parallel", jobs=4)
        assert ExecutionOptions.from_dict(opts.to_dict()) == opts

    def test_replace(self):
        opts = ExecutionOptions(method="auto").replace(method="sql")
        assert opts.method == "sql"


class TestWireSchema:
    """``docs/serve.schema.json`` pins the wire form: the object and
    the schema list the same fields, and the same method names."""

    @staticmethod
    def _options_schema():
        return json.loads(SERVE_SCHEMA.read_text())["$defs"]["options"]

    def test_schema_properties_are_the_fields(self):
        names = [f.name for f in dataclasses.fields(ExecutionOptions)]
        assert list(self._options_schema()["properties"]) == names

    def test_schema_method_enum_is_known_methods(self):
        enum = self._options_schema()["properties"]["method"]["enum"]
        assert tuple(enum) == KNOWN_METHODS


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
