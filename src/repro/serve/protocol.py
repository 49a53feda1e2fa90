"""Wire encoding shared by the ``repro serve`` daemon and its clients.

Everything that crosses the HTTP boundary goes through here.  Rows use
the :mod:`repro.db.io` codec, whose values are strings, integers and
nested lists, never booleans or ``null`` (:func:`rows_to_wire` and
:func:`row_from_wire` are its ``rows_to_json`` and ``row_from_json``).
Every answer set carries a ``sha256:`` digest of the compact JSON of
exactly its rows, the bytes of a response's ``answers`` array: a client
can check the rows it received, and the bench harness can compare a
response with a direct :func:`repro.cqa.certain_answers` call.

The response documents themselves are described by
``docs/serve.schema.json``; ``scripts/validate_serve.py`` checks
captured responses against it with the in-tree validator
(:mod:`repro.obs.schema`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..db.io import row_from_json as row_from_wire
from ..db.io import rows_to_json as rows_to_wire

__all__ = [
    "SCHEMA_VERSION",
    "ERROR_CODES",
    "answers_digest",
    "error_payload",
    "row_from_wire",
    "rows_to_wire",
]

#: Version of every serve request/response document (bump on breaking
#: changes, mirroring the trace and metrics schemas).
SCHEMA_VERSION = 1

#: Machine-readable error codes a response's ``error.code`` may carry.
ERROR_CODES = (
    "bad-json",        # body is not valid JSON
    "bad-request",     # malformed HTTP or missing/ill-typed fields
    "bad-options",     # ExecutionOptions rejected the request options
    "parse-error",     # the query text does not parse
    "not-in-fo",       # certainty is not FO-rewritable for this method
    "not-found",       # unknown endpoint or view name
    "method-not-allowed",
    "stale-version",   # long-poll ``since`` predates retained history
    "shutting-down",   # server is draining; retry against a new one
    "internal",        # unexpected server-side failure
)


def answers_digest(rows: Iterable[Tuple]) -> str:
    """The ``sha256:`` digest of an answer set, whatever its row order.

    It hashes the compact JSON of :func:`rows_to_wire`'s output.  The
    server and the benchmarks both call it, so equal digests mean equal
    answers."""
    return _digest_wire(rows_to_wire(rows))


def _digest_wire(wire_rows: List[List[Any]]) -> str:
    """:func:`answers_digest` of rows already in :func:`rows_to_wire` form."""
    text = json.dumps(wire_rows, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def error_payload(code: str, message: str, *,
                  request_id: Optional[str] = None,
                  **extra: Any) -> Dict[str, Any]:
    """The JSON body of every non-2xx response."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    error: Dict[str, Any] = {"code": code, "message": message}
    error.update(extra)
    payload: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "error": error,
    }
    if request_id is not None:
        payload["request_id"] = request_id
    return payload
