"""Regenerate ``oracle/cold_eval.json`` with the reference evaluator.

    python3 benchmarks/e2e/make_oracle.py

Every program of the ``cold_eval`` workload (full and ``--quick``) is
evaluated with ``strategy="naive"`` — the executable reading of
Definition 4 that the repository's differential lanes treat as ground
truth — and its model and answer digests are written out.  Run it only
when a workload generator in ``repro.workloads`` changes on purpose; it
takes about a minute (``release_chain_1024`` is quadratic under naive
iteration, which is why the run itself does not recompute the oracle).
"""

from __future__ import annotations

import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e import cold_eval  # noqa: E402
from benchmarks.e2e.common import write_json  # noqa: E402
from repro.core.semantics import OrderedSemantics  # noqa: E402


def main() -> int:
    oracle = {}
    for spec in (cold_eval.FOREST, cold_eval.FOREST_QUICK, *cold_eval.OTHERS):
        sem = OrderedSemantics(spec.build(), spec.view, strategy="naive")
        oracle[spec.name] = cold_eval.observed(spec, cold_eval.evaluate(spec, sem))
        print(spec.name, oracle[spec.name], flush=True)
    write_json(cold_eval.ORACLE_PATH, oracle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
