"""Incremental certain-answer maintenance over the plan IR.

``IncrementalPlan`` keeps a compiled plan's root rows current under
changelog deltas, each operator holding only what its delta rule reads
(an Adom* plan re-executes on every commit); ``ViewManager``/``View``
expose that as registered, always-current certain-answer sets.
See docs/INCREMENTAL.md for the delta rules and the Adom* case.
"""

from .delta import DeltaError, IncrementalPlan
from .views import (
    StaleVersionError,
    View,
    ViewManager,
    view_manager,
    view_stats,
)

__all__ = [
    "DeltaError",
    "IncrementalPlan",
    "StaleVersionError",
    "View",
    "ViewManager",
    "view_manager",
    "view_stats",
]
