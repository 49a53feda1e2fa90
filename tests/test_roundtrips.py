"""Hypothesis round-trip properties: value codec, database JSON, the
serve wire encoding, query text."""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.core.atoms import RelationSchema
from repro.db.database import Database
from repro.db.io import database_from_dict, database_to_dict
from repro.fo.sql import decode_value, encode_value
from repro.serve.protocol import answers_digest, row_from_wire, rows_to_wire

# ----------------------------------------------------------------------
# values: strings, ints, nested tuples (the JSON domain); the SQL codec
# also carries bools
# ----------------------------------------------------------------------

#: Strings whose *content* mimics the codec's own wire format: tag
#: sigils ("i:5" as a string, not an int), percent escapes, separators.
#: The codec must keep them apart from the values they impersonate.
sigil_colliders = st.sampled_from([
    "i:5", "s:x", "b:1", "t:a,b", "t:a%2Cb", "%25", "%2C",
    "i:", "t:", ",", "s:s:nested", "b:0",
])
json_scalar = st.one_of(
    st.text(max_size=8),
    st.text(
        alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x2FFF),
        max_size=8,
    ),
    sigil_colliders,
    st.integers(min_value=-10**6, max_value=10**6),
)
scalar = st.one_of(json_scalar, st.booleans())
values = st.recursive(
    scalar,
    lambda child: st.lists(child, max_size=3).map(tuple),
    max_leaves=6,
)
json_values = st.recursive(
    json_scalar,
    lambda child: st.lists(child, max_size=3).map(tuple),
    max_leaves=6,
)


@given(values)
@example("")
@example("i:5")
@example("%25")
@example("t:a%2Cb")
@example(-1)
@example("naïve Łukasiewicz ∀x")
@example(("i:5", ("%2C", ""), -7))
@settings(max_examples=300, deadline=None)
def test_encode_decode_roundtrip(value):
    assert decode_value(encode_value(value)) == value


@given(values, values)
@example("i:5", 5)
@example("b:1", True)
@example(("a%2Cb",), ("a", "b"))
@example("", ())
@settings(max_examples=300, deadline=None)
def test_encode_injective(a, b):
    if a != b:
        assert encode_value(a) != encode_value(b)


# ----------------------------------------------------------------------
# database JSON
# ----------------------------------------------------------------------

rows2 = st.lists(st.tuples(json_scalar, json_scalar), max_size=5)


@given(rows2, st.integers(min_value=1, max_value=2), st.booleans())
@settings(max_examples=100, deadline=None)
def test_database_json_roundtrip(rows, key_size, flag):
    db = Database([RelationSchema("R", 2, key_size)])
    for row in rows:
        db.add("R", row)
    data = database_to_dict(db)
    assert database_from_dict(data) == db
    # A boolean is outside the domain: loading refuses it.
    data["relations"]["R"]["facts"].append(["k", flag])
    with pytest.raises(ValueError, match=repr(flag)):
        database_from_dict(data)


# ----------------------------------------------------------------------
# serve wire: one canonical encoding of a row set
# ----------------------------------------------------------------------


@given(st.sets(st.tuples(json_values, json_values), max_size=6), st.data())
@settings(max_examples=200, deadline=None)
def test_wire_encoding_is_canonical(rows, data):
    shuffled = data.draw(st.permutations(list(rows)))
    wire = rows_to_wire(rows)
    assert rows_to_wire(shuffled) == wire
    assert answers_digest(shuffled) == answers_digest(rows)
    assert {row_from_wire(row) for row in wire} == rows


# ----------------------------------------------------------------------
# query text
# ----------------------------------------------------------------------


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_query_text_roundtrip(data):
    import random

    from repro.core.parser import parse_query, query_to_text
    from repro.workloads.generators import QueryParams, random_query

    seed = data.draw(st.integers(min_value=0, max_value=10**6))
    q = random_query(
        QueryParams(n_positive=2, n_negative=1,
                    require_weakly_guarded=False),
        random.Random(seed),
    )
    assert parse_query(query_to_text(q)) == q
