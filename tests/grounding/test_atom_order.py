"""Atom ids do not depend on the hash seed: the grounder interns a
rule's atoms in textual order, not in its frozenset body's order."""

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = """
import json
from repro.core.semantics import OrderedSemantics
from repro.workloads import hierarchies, paper, point_query, sessions

out = {}
for name, program in [
    ("figure1", paper.figure1()), ("figure2", paper.figure2()),
    ("figure3", paper.figure3()), ("forest", point_query.forest_program(2, 3)),
    ("session", sessions.session_program(2, 8)),
    ("release_chain", hierarchies.release_chain(16)),
]:
    for component in sorted(program.component_names):
        sem = OrderedSemantics(program, component)
        for kind, evaluator in (("ground", sem.evaluator), ("full", sem.full_evaluator)):
            index = evaluator.index
            out[f"{name}/{component}/{kind}"] = [
                list(map(str, index.table.atoms())), list(index.heads)
            ]
print(json.dumps(out))
"""


def tables_under(seed: str) -> dict:
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
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
