"""Property: durability is invisible to query answering.

For random update streams, a store that is closed and reopened
mid-stream (WAL replay, snapshot loading, fresh columnar caches, a
reattached sqlite mirror) must be indistinguishable from a plain
in-memory database that ran the same stream in one life: identical
fact-state digests and byte-identical certain-answer digests under
every evaluation method.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parser import parse_query
from repro.core.terms import Variable
from repro.cqa.certain_answers import OpenQuery, certain_answers
from repro.db.database import Database
from repro.storage import PersistentDatabase
from repro.storage.chaos import apply_ops, build_ops, state_digest

#: Methods that answer open queries without enumerating repairs (the
#: streams' tiny key domains make repair counts exponential, so the
#: brute-force oracle is covered separately on small slices).
METHODS = ("interpreted", "rewriting", "compiled", "sql", "columnar")

QUERY = "R(x | y), not S(y | x)"


def answer_digest(db, method):
    oq = OpenQuery(parse_query(QUERY), [Variable("x")])
    answers = certain_answers(oq, db, method)
    h = hashlib.sha256()
    for row in sorted(answers, key=repr):
        h.update(repr(row).encode())
    return h.hexdigest()


@given(seed=st.integers(0, 10**6), n=st.integers(5, 60),
       cut=st.floats(0.1, 0.9))
@settings(max_examples=15, deadline=None)
def test_reopened_store_matches_in_memory(seed, n, cut):
    ops = build_ops(seed, n)
    split = max(1, min(len(ops) - 1, int(len(ops) * cut)))

    memory = Database()
    apply_ops(memory, ops)

    directory = tempfile.mkdtemp(prefix="repro-roundtrip-")
    try:
        store = PersistentDatabase(directory)
        apply_ops(store, ops[:split])
        store.close()
        store = PersistentDatabase(directory)  # mid-stream recovery
        apply_ops(store, ops[split:])
        store.close()

        recovered = PersistentDatabase(directory)
        try:
            assert state_digest(recovered) == state_digest(memory)
            from repro.storage import storage_stats

            native_before = storage_stats()["pushdown"]["native_sql"]
            for method in METHODS:
                assert (answer_digest(recovered, method)
                        == answer_digest(memory, method)), method
            # "sql" ran natively twice: in the recovered store's mirror
            # and in the plain database's — recovery is invisible to
            # pushdown too.
            assert (storage_stats()["pushdown"]["native_sql"]
                    == native_before + 2)
        finally:
            recovered.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_small_streams_match_brute_force(seed):
    # On short streams the repair count stays tractable: pin the whole
    # method matrix, brute force included, against the reopened store.
    ops = [op for op in build_ops(seed, 8) if op[0] != "checkpoint"]
    memory = Database()
    apply_ops(memory, ops)

    directory = tempfile.mkdtemp(prefix="repro-roundtrip-")
    try:
        store = PersistentDatabase(directory)
        apply_ops(store, ops)
        store.close()
        recovered = PersistentDatabase(directory)
        try:
            expected = answer_digest(memory, "brute")
            assert answer_digest(recovered, "brute") == expected
            for method in METHODS:
                assert answer_digest(recovered, method) == expected, method
        finally:
            recovered.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
