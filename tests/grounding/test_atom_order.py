"""Atom ids do not depend on the hash seed: the grounder interns a
rule's atoms in textual order, not in its frozenset body's order."""

import json
import os
import subprocess
import sys
from pathlib import Path

#: Rows of the oracle matrix's table whose atom tables are compared.
ROWS = ["figure1", "figure2", "figure3_empty", "forest", "session_2x8", "release_chain_64"]

SCRIPT = f"""
import json
from repro.core.semantics import OrderedSemantics
from tests.oracle.rows import NAMED

out = {{}}
for row in (row for row in NAMED if row.label in {ROWS!r}):
    for component in row.views:
        sem = OrderedSemantics(row.program, component)
        for kind, evaluator in (("ground", sem.evaluator), ("full", sem.full_evaluator)):
            index = evaluator.index
            out[f"{{row}}/{{component}}/{{kind}}"] = [
                list(map(str, index.table.atoms())), list(index.heads)
            ]
print(json.dumps(out))
"""


def tables_under(seed: str) -> dict:
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONHASHSEED=seed)
    paths = [str(root / "src"), str(root), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout)


def test_atom_table_and_heads_identical_across_hash_seeds():
    reference = tables_under("0")
    assert len(reference) > 6
    for seed in ("1", "7"):
        tables = tables_under(seed)
        assert tables.keys() == reference.keys()
        differing = sorted(k for k in reference if tables[k] != reference[k])
        assert not differing, f"PYTHONHASHSEED={seed} changes {differing}"
