"""Terms of the query language: variables and constants.

The paper assumes disjoint sets of *variables* and *constants*
(Section 3).  Constants wrap an arbitrary hashable Python value, which
lets reductions use structured values such as the pairs ``<a, b>`` from
the :math:`\\Theta^a_b` valuations of Lemmas 5.6/5.7 without any special
casing.

Two special kinds of constants support the machinery of Section 6:

* :class:`PlaceholderConstant` — a fresh constant standing in for a
  reified variable (proof of Lemma 6.1 replaces unattacked key variables
  by fresh constants :math:`c_i` and later re-opens them as quantified
  variables).
* :func:`fresh_constant` — a typed fresh constant guaranteed not to
  collide with user data, used by the executable reductions.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Hashable, Tuple, Union


def _state_without_hash(obj: Any) -> Tuple[None, Dict[str, Any]]:
    """Pickle and deepcopy state of an immutable core object, minus its
    cached ``_hash``.

    A string hashes differently in every interpreter, so a copy
    recomputes its hash on first use instead of trusting a stored one.
    """
    slots = (s for cls in type(obj).__mro__ for s in vars(cls).get("__slots__", ()))
    return None, {s: getattr(obj, s) for s in slots if s != "_hash"}


class Variable:
    """A query variable, identified by its name."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise TypeError("variable name must be a non-empty string")
        self.name = name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Variable) and self.name == other.name
        )

    def __hash__(self) -> int:
        # Terms, schemas, atoms and queries are immutable and hashed by
        # every set operation and cache lookup of the query analysis, so
        # each caches its hash on first use, like the formula nodes of
        # repro.fo.formula.
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(("Variable", self.name))
            return self._hash

    __getstate__ = _state_without_hash

    def __lt__(self, other: "Variable") -> bool:
        if not isinstance(other, Variable):
            return NotImplemented
        return self.name < other.name


class Constant:
    """A constant, wrapping an arbitrary hashable value."""

    __slots__ = ("value", "_hash")

    def __init__(self, value: Hashable):
        hash(value)  # fail fast on unhashable values
        self.value = value

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    def __str__(self) -> str:
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Constant)
            and not isinstance(other, PlaceholderConstant)
            and not isinstance(self, PlaceholderConstant)
            and self.value == other.value
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(("Constant", self.value))
            return self._hash

    __getstate__ = _state_without_hash


class PlaceholderConstant(Constant):
    """A fresh constant standing in for a reified variable.

    The rewriting algorithm (proof of Lemma 6.1) substitutes the
    unattacked key variables of an atom by fresh constants, builds the
    rewriting of the grounded query, and finally replaces the fresh
    constants back by (quantified) variables.  A placeholder remembers
    the variable it will be re-opened as.  Placeholders are compared by
    identity of their serial number, never by value, so two reification
    rounds can safely reuse variable names.
    """

    __slots__ = ("variable", "serial")

    _counter = itertools.count()

    def __init__(self, variable: Variable):
        serial = next(PlaceholderConstant._counter)
        super().__init__(("__placeholder__", variable.name, serial))
        self.variable = variable
        self.serial = serial

    def __repr__(self) -> str:
        return f"PlaceholderConstant({self.variable.name!r}#{self.serial})"

    def __str__(self) -> str:
        return f"&{self.variable.name}#{self.serial}"

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, PlaceholderConstant) and self.serial == other.serial
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(("PlaceholderConstant", self.serial))
            return self._hash


Term = Union[Variable, Constant]

_fresh_counter = itertools.count()


def fresh_constant(label: str = "c") -> Constant:
    """Return a constant guaranteed distinct from all previously created ones."""
    return Constant(("__fresh__", label, next(_fresh_counter)))


def is_variable(term: Term) -> bool:
    """Return True if *term* is a variable."""
    return isinstance(term, Variable)


def is_constant(term: Term) -> bool:
    """Return True if *term* is a constant (including placeholders)."""
    return isinstance(term, Constant)


def variables_of(terms) -> frozenset:
    """The set of variables occurring in a sequence of terms (paper: vars(x))."""
    return frozenset(t for t in terms if isinstance(t, Variable))


def make_variables(names: str):
    """Convenience: ``make_variables("x y z")`` -> three Variable objects."""
    return tuple(Variable(n) for n in names.split())
