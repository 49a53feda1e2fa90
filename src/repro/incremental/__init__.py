"""Incremental certain-answer maintenance over the plan IR.

``IncrementalPlan`` materializes every operator of a compiled plan and
maintains it under changelog deltas (an Adom* plan keeps only its root
rows and re-executes on every commit); ``ViewManager``/``View`` expose
that as registered, always-current certain-answer sets on a database.
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
