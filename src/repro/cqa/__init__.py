"""Consistent query answering: rewriting, interpreted and brute solvers."""

from .certain_answers import (
    OpenQuery,
    certain_answers,
    certain_answers_sql_query,
    cross_validate_answers,
    open_rewriting,
)
from .counting import (
    FractionEstimate,
    RepairCount,
    count_satisfying_repairs,
    estimate_satisfying_fraction,
)
from .brute_force import (
    certainty_fraction,
    find_falsifying_repair,
    is_certain_brute_force,
    is_certain_sampled,
)
from .engine import CertaintyEngine, CrossValidation, certain
from .explain import (
    CertaintyEvidence,
    UncertaintyExplanation,
    certainty_evidence,
    explain,
    explain_uncertainty,
)
from .is_certain import CertaintyInterpreter, is_certain
from .possibility import (
    find_satisfying_repair,
    is_possible,
    is_possible_sampled,
)
from .rewriting import (
    NotInFO,
    Rewriter,
    RewritingError,
    RewritingStep,
    consistent_rewriting,
    has_consistent_rewriting,
    pick_eliminable_atom,
)

__all__ = [
    "CertaintyEngine",
    "CertaintyEvidence",
    "CertaintyInterpreter",
    "CrossValidation",
    "FractionEstimate",
    "NotInFO",
    "OpenQuery",
    "RepairCount",
    "Rewriter",
    "RewritingError",
    "RewritingStep",
    "UncertaintyExplanation",
    "certain",
    "certain_answers",
    "certain_answers_sql_query",
    "count_satisfying_repairs",
    "cross_validate_answers",
    "estimate_satisfying_fraction",
    "certainty_evidence",
    "certainty_fraction",
    "explain",
    "explain_uncertainty",
    "consistent_rewriting",
    "find_falsifying_repair",
    "find_satisfying_repair",
    "has_consistent_rewriting",
    "is_certain",
    "is_certain_brute_force",
    "is_certain_sampled",
    "is_possible",
    "is_possible_sampled",
    "open_rewriting",
    "pick_eliminable_atom",
]
