"""Relation schemas, atoms, and facts.

Every relation name has a *signature* ``[n, k]``: arity ``n`` and primary
key ``{1, ..., k}`` (the first ``k`` positions).  A relation is
*simple-key* when ``k == 1`` and *all-key* when ``k == n`` (Section 3 of
the paper).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, Tuple

from .terms import (
    Constant,
    Term,
    Variable,
    _state_without_hash,
    is_variable,
    variables_of,
)


class RelationSchema:
    """A relation name with signature ``[arity, key_size]``."""

    __slots__ = ("name", "arity", "key_size", "_hash")

    def __init__(self, name: str, arity: int, key_size: int):
        if not isinstance(name, str) or not name:
            raise TypeError("relation name must be a non-empty string")
        if not 1 <= key_size <= arity:
            raise ValueError(
                f"signature requires 1 <= key_size <= arity, got [{arity}, {key_size}]"
            )
        self.name = name
        self.arity = arity
        self.key_size = key_size

    @property
    def is_all_key(self) -> bool:
        """True when every position is a primary-key position."""
        return self.key_size == self.arity

    @property
    def is_simple_key(self) -> bool:
        """True when the primary key is the single first position."""
        return self.key_size == 1

    def key_of(self, row: Sequence) -> Tuple:
        """Project a stored row onto its primary-key positions."""
        return tuple(row[: self.key_size])

    def __repr__(self) -> str:
        return f"RelationSchema({self.name!r}, {self.arity}, {self.key_size})"

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, RelationSchema)
            and self.name == other.name
            and self.arity == other.arity
            and self.key_size == other.key_size
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.name, self.arity, self.key_size))
            return self._hash

    __getstate__ = _state_without_hash


class Atom:
    """An atom ``R(s_1, ..., s_n)`` over a relation schema.

    The first ``key_size`` terms form the primary-key value (written
    underlined in the paper).  An atom whose terms are all constants is a
    *fact*.
    """

    __slots__ = ("schema", "terms", "_hash")

    def __init__(self, schema: RelationSchema, terms: Sequence[Term]):
        terms = tuple(terms)
        if len(terms) != schema.arity:
            raise ValueError(
                f"{schema.name} has arity {schema.arity}, got {len(terms)} terms"
            )
        for t in terms:
            if not isinstance(t, (Variable, Constant)):
                raise TypeError(f"atom terms must be Variable or Constant, got {t!r}")
        self.schema = schema
        self.terms = terms

    @property
    def relation(self) -> str:
        """The relation name."""
        return self.schema.name

    @property
    def key_terms(self) -> Tuple[Term, ...]:
        """The terms in primary-key positions."""
        return self.terms[: self.schema.key_size]

    @property
    def value_terms(self) -> Tuple[Term, ...]:
        """The terms in non-primary-key positions."""
        return self.terms[self.schema.key_size:]

    @property
    def key_vars(self) -> frozenset:
        """key(F): the set of variables occurring in the primary key."""
        return variables_of(self.key_terms)

    @property
    def vars(self) -> frozenset:
        """vars(F): the set of variables occurring anywhere in the atom."""
        return variables_of(self.terms)

    @property
    def is_fact(self) -> bool:
        """True when the atom contains no variables."""
        return not any(is_variable(t) for t in self.terms)

    @property
    def is_all_key(self) -> bool:
        """True when the relation is all-key."""
        return self.schema.is_all_key

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Atom":
        """Apply a substitution (variables not in *mapping* are unchanged)."""
        return Atom(
            self.schema,
            tuple(mapping.get(t, t) if is_variable(t) else t for t in self.terms),
        )

    def as_row(self) -> Tuple:
        """Convert a fact to a raw value tuple for database storage."""
        if not self.is_fact:
            raise ValueError(f"atom {self} contains variables; not a fact")
        return tuple(t.value for t in self.terms)

    def key_equal(self, other: "Atom") -> bool:
        """Paper's ~ relation: same relation name and equal key values."""
        return (
            self.relation == other.relation and self.key_terms == other.key_terms
        )

    def __repr__(self) -> str:
        inner = ", ".join(str(t) for t in self.terms)
        return f"{self.relation}({inner})"

    def __str__(self) -> str:
        key = ",".join(str(t) for t in self.key_terms)
        rest = ",".join(str(t) for t in self.value_terms)
        return f"{self.relation}({key}|{rest})" if rest else f"{self.relation}({key})"

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Atom)
            and self.schema == other.schema
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.schema, self.terms))
            return self._hash

    __getstate__ = _state_without_hash


def atom(name: str, key: Iterable[Term], values: Iterable[Term] = ()) -> Atom:
    """Build an atom from key terms and value terms.

    ``atom("R", [x], [y])`` is the paper's ``R(x, y)`` with ``x``
    underlined.
    """
    key = tuple(key)
    values = tuple(values)
    schema = RelationSchema(name, len(key) + len(values), len(key))
    return Atom(schema, key + values)
