"""Relevance grounding (the default) vs the full instantiation.

The sparse-pairs workload joins two variables that can only ever be
bound to the handful of ``active`` constants, while the Herbrand
universe holds a much larger constant pool.  The full instantiation
enumerates ``n_pool**2`` substitutions for the join rule; the default
grounding joins the rule's body against the possible-literal set and
emits ``n_active**2`` instances, and leaves the guard-emptied
``phantom`` rule and its ``ghost`` consumer without any instance.  The
CI bench-compare job gates on the default beating the full
instantiation by at least 2x at the largest size
(``scripts/check_seminaive_speedup.py --experiment grounding-relevance``).
"""

import pytest

from repro.grounding.grounder import Grounder
from repro.lang.program import OrderedProgram
from repro.workloads.classic import sparse_pairs

from .conftest import capture_metrics, record

#: Active constants stay fixed while the irrelevant pool grows, so the
#: default grounding is (near) constant-size across the sweep.
N_ACTIVE = 6


@pytest.mark.parametrize("n_constants", [60, 120, 240])
@pytest.mark.parametrize("strategy", ["full", "default"])
def test_sparse_pairs_grounding(benchmark, n_constants, strategy):
    program = OrderedProgram.single(sparse_pairs(n_constants, N_ACTIVE))
    full = strategy == "full"

    def run():
        return Grounder().ground_component_star(program, "main", full=full)

    ground = benchmark(run)
    # Every fact grounds to itself; the join rule is the variable part.
    n_facts = n_constants + N_ACTIVE
    if full:
        # Full join plus the guard-emptied phantom rule's ghost shadow:
        # phantom instances are guard-pruned, ghost instances survive
        # grounding (their bodies are never derivable).
        assert len(ground.rules) == n_facts + n_constants**2 + n_constants
        assert ground.pruned_rules == 0
    else:
        # Join restricted to the active constants, phantom/ghost empty.
        assert len(ground.rules) == n_facts + N_ACTIVE**2
        assert ground.pruned_rules == 2
    record(
        benchmark,
        experiment="grounding-relevance",
        strategy=strategy,
        n_constants=n_constants,
        ground_rules=len(ground.rules),
    )
    snapshot = capture_metrics(benchmark, run)
    counters = snapshot["counters"]
    assert counters.get("grounding.pruned_rules", 0) == ground.pruned_rules
