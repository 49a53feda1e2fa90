"""``ExecutionOptions``: one frozen request object for every engine call.

Two fields — ``method`` and ``jobs`` — are the whole call surface;
the routing gates behind ``auto`` are module constants next to the
router that reads them.  A strict JSON round-trip (:meth:`to_dict` /
:meth:`from_dict`) makes the same object the wire form of a
``repro serve`` request body (``docs/serve.schema.json``).

Accepted by :meth:`repro.cqa.engine.CertaintyEngine.certain`,
:meth:`~repro.cqa.engine.CertaintyEngine.certain_answers`, and the
module-level :func:`repro.cqa.certain_answers.certain_answers` as the
``options`` parameter, which also takes a bare method string
(``"compiled"``) as blessed shorthand.  It is the only way to pass a
method or a worker count to those calls.  Tracing is not an option: a
caller that wants spans passes its own ``tracer=`` and writes them
where it likes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

__all__ = ["ExecutionOptions", "KNOWN_METHODS", "OptionsError"]

#: Every accepted ``method`` value: ``auto`` plus the engine's
#: strategies.  The one list: the CLI's ``--method`` choices read it,
#: and ``docs/serve.schema.json``'s ``method.enum`` must equal it.
KNOWN_METHODS: Tuple[str, ...] = (
    "auto", "brute", "interpreted", "rewriting", "compiled", "sql",
    "parallel", "columnar",
)


class OptionsError(ValueError):
    """An invalid :class:`ExecutionOptions` field or wire payload."""


@dataclass(frozen=True)
class ExecutionOptions:
    """How one ``certain`` / ``certain_answers`` call should execute.

    ``method``
        Strategy name, or ``"auto"`` for complexity-based routing
        (``brute`` outside FO; otherwise ``columnar`` for an open query
        on a database of at least ``COLUMNAR_MIN_FACTS`` facts whose
        plan has no ``Adom*`` node, ``compiled`` for everything else;
        never ``sql``).  ``auto`` plus ``jobs`` selects ``parallel``,
        mirroring the CLI's ``--jobs`` semantics.
    ``jobs``
        Worker count for the parallel path (None: CPU count).
    """

    method: str = "auto"
    jobs: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.method, str) or self.method not in KNOWN_METHODS:
            raise OptionsError(
                f"unknown method {self.method!r}; expected one of "
                f"{KNOWN_METHODS}"
            )
        if self.jobs is not None and (
            not isinstance(self.jobs, int) or isinstance(self.jobs, bool)
            or self.jobs < 1
        ):
            raise OptionsError("jobs must be a positive integer")
        if self.jobs is not None and self.method not in ("auto", "parallel"):
            raise OptionsError(
                f"jobs= only applies to method='parallel', not "
                f"{self.method!r}"
            )

    # -- construction -------------------------------------------------

    @classmethod
    def coerce(
        cls,
        value: Union[None, str, Mapping[str, Any], "ExecutionOptions"],
    ) -> "ExecutionOptions":
        """The options object for any accepted ``options=`` argument.

        ``None`` means all defaults, a string is method shorthand
        (``certain(db, "compiled")``), a mapping is the strict wire
        form (:meth:`from_dict`), and an :class:`ExecutionOptions`
        passes through unchanged.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(method=value)
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        raise OptionsError(
            f"options must be a method string, a mapping, or "
            f"ExecutionOptions, not {type(value).__name__}"
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExecutionOptions":
        """Strict wire-form decoding: unknown keys are rejected.

        This is the shape of the ``options`` member of a
        ``repro serve`` request body (``docs/serve.schema.json``), so
        typos fail loudly instead of silently running with defaults.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise OptionsError(
                f"unknown option field(s) {unknown}; expected a subset "
                f"of {sorted(known)}"
            )
        return cls(**dict(payload))

    # -- wire form ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The compact JSON form: defaults omitted, ``method`` always
        present.  ``from_dict(to_dict(o)) == o`` for every ``o``."""
        out: Dict[str, Any] = {"method": self.method}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "method" and value != f.default:
                out[f.name] = value
        return out

    def replace(self, **changes: Any) -> "ExecutionOptions":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)

    # -- resolution ---------------------------------------------------

    @property
    def resolved_method(self) -> str:
        """``method`` with the ``auto`` + ``jobs`` shorthand applied.

        Data-dependent ``auto`` routing (the FO test and the columnar
        size gate) still happens inside the engine; this only settles
        the part that is knowable without a database.
        """
        if self.method == "auto" and self.jobs is not None:
            return "parallel"
        return self.method
