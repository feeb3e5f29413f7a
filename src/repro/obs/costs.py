"""Engine cost records: each phase reports its work once.

A phase — grounding, ``V↑ω``, delete-rederive, a model search, a demand
run, a read of a model — calls :func:`record_costs` once with numbers it
already computed.  The active trace adds the keys to its cost digest;
the registry, when enabled, adds each to the counter
:data:`COST_COUNTERS` names for it, the only place that spelling lives.
With neither listening a record costs a context-variable read and a
flag check.
"""

from __future__ import annotations

from .registry import _GLOBAL
from .trace import _ACTIVE

__all__ = ["COST_COUNTERS", "record_costs"]

#: Digest key -> registry counter, grouped by the phase that records it.
COST_COUNTERS: dict[str, str] = {
    # Grounding (grounding/grounder.py).
    "ground_source_rules": "ground.source_rules",
    "ground_substitutions_tried": "ground.substitutions_tried",
    "ground_guard_pruned": "ground.guard_pruned",
    "ground_instances_kept": "ground.instances_kept",
    "ground_instances_deduped": "ground.instances_deduped",
    "ground_pruned_rules": "grounding.pruned_rules",
    # V↑ω, either strategy (core/transform.py).
    "fixpoint_stages": "fixpoint.stages",
    "literals_derived": "fixpoint.literals_derived",
    "rules_scanned": "fixpoint.rules_scanned",
    "rules_touched": "fixpoint.rules_touched",
    "rules_fired": "fixpoint.rules_applied",
    "rules_overruled": "fixpoint.rules_overruled",
    "rules_defeated": "fixpoint.rules_defeated",
    # Delete-rederive (core/semantics.py).
    "delta_facts": "maintain.delta_facts",
    "delta_asserted": "maintain.delta_asserted",
    "delta_retracted": "maintain.delta_retracted",
    "rules_reevaluated": "maintain.rules_reevaluated",
    "literals_deleted": "maintain.literals_deleted",
    "literals_rederived": "maintain.literals_rederived",
    "full_rebuilds": "maintain.full_rebuilds",
    # Definition 3 / 7 search (core/solver.py).
    "leaves_visited": "search.leaves_visited",
    "models_found": "search.models_found",
    "search_branches": "search.branches",
    "search_backtracks": "search.backtracks",
    # Demand evaluation (query/engine.py).
    "demand_rows": "query.demand.rows",
    "demand_fetched": "query.demand.fetched",
    "demand_firings": "query.demand.firings",
    # Reading a model (kb/query.py, core/interpretation.py).
    "read_candidates": "read.candidates",
    "read_answers": "read.answers",
    "decoded_literals": "model.decoded_literals",
}


def record_costs(**counts: int) -> None:
    """Record one phase's costs in the active trace's digest and, when
    the registry is enabled, in its counters."""
    ctx = _ACTIVE.get()
    if ctx is not None:
        ctx.add_cost(**counts)
    if _GLOBAL.enabled:
        for key, n in counts.items():
            _GLOBAL.count(COST_COUNTERS[key], n)
