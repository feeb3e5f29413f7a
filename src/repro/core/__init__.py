"""The paper's primary contribution: the semantics of ordered programs.

* :mod:`repro.core.interpretation` — 3-valued interpretations.
* :mod:`repro.core.statuses` — Definition 2 rule statuses.
* :mod:`repro.core.transform` — the ``V_{P,C}`` transformation.
* :mod:`repro.core.compiled` — the semi-naive kernel: one watch-list
  index per view, delta-driven fixpoints over it.
* :mod:`repro.core.maintenance` — assert/retract model maintenance.
* :mod:`repro.core.models` — Definition 3 model checking.
* :mod:`repro.core.assumptions` — assumption sets, enabled version.
* :mod:`repro.core.solver` — model / AF / stable enumeration.
* :mod:`repro.core.semantics` — the :class:`OrderedSemantics` facade.
"""

from .assumptions import AssumptionAnalyzer, literal_closure
from .interpretation import Interpretation, TruthValue
from .maintenance import (
    DeltaStats,
    DeltaUnsupported,
    MaintainedModel,
    MaintenanceConfig,
)
from .models import ModelChecker
from .semantics import OrderedSemantics
from .solver import ModelEnumerator, SearchBudget
from .statuses import ComponentOrder, StatusEvaluator, StatusReport
from .transform import DEFAULT_STRATEGY, STRATEGIES, OrderedTransform

__all__ = [
    "Interpretation",
    "TruthValue",
    "ComponentOrder",
    "StatusEvaluator",
    "StatusReport",
    "OrderedTransform",
    "MaintainedModel",
    "MaintenanceConfig",
    "DeltaStats",
    "DeltaUnsupported",
    "STRATEGIES",
    "DEFAULT_STRATEGY",
    "ModelChecker",
    "AssumptionAnalyzer",
    "literal_closure",
    "ModelEnumerator",
    "SearchBudget",
    "OrderedSemantics",
]
