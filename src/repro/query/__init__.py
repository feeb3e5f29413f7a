"""Demand-driven (goal-directed) query answering — docs/query.md.

The subsystem has four layers:

* :mod:`repro.query.sources` — pattern-directed fact access (in-memory
  told facts, disk-backed :class:`~repro.db.edb.EdbStore`, unions);
* :mod:`repro.query.magic` — the magic-sets rewrite specialized to the
  ordered transform (cone, eligibility, sips, adornment);
* :mod:`repro.query.engine` — delta-first joins compiled per goal
  shape, and their semi-naive evaluation with lazy EDB fetches, on the
  join machine shared with the grounder (:mod:`repro.grounding.joins`);
* :mod:`repro.query.api` — :class:`CompiledDemand`, the demand route of
  one view compiled once per program value; :func:`demand_read`, the
  entry point the one read path
  (:meth:`~repro.kb.knowledge_base.KnowledgeBase.read`, shared by the
  library and the server) routes demand reads through;
  :func:`demand_answers`, its compile-then-ask-once form.
"""

from .api import (
    CompiledDemand,
    DemandResult,
    demand_answers,
    demand_ineligibility,
    demand_read,
)
from .engine import DemandEngine, JoinPlan
from .magic import (
    BodyAtom,
    DemandIneligible,
    DemandRule,
    MagicPlan,
    build_plan,
    cone_ineligibility,
    goal_adornment,
)
from .sources import (
    EdbFactSource,
    FactSource,
    MemoryFactSource,
    UnionFactSource,
)

__all__ = [
    "CompiledDemand",
    "DemandResult",
    "demand_answers",
    "demand_ineligibility",
    "demand_read",
    "DemandEngine",
    "JoinPlan",
    "BodyAtom",
    "DemandIneligible",
    "DemandRule",
    "MagicPlan",
    "build_plan",
    "cone_ineligibility",
    "goal_adornment",
    "EdbFactSource",
    "FactSource",
    "MemoryFactSource",
    "UnionFactSource",
]
