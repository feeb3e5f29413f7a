"""The label contract: :func:`classify_view` labels every view of the
shipped examples and of the workloads ``scripts/check_workloads.py``
gates as recorded in ``view_labels.json``.

The table pins Section 4's classification (positive / stratified /
locally-stratified / unstratified), which decides demand routing and
what ``olp check`` reports.  A change that moves a label must say why
and regenerate the table.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.analysis.static import classify_view
from repro.lang.parser import parse_program

ROOT = Path(__file__).resolve().parents[2]
TABLE = json.loads((Path(__file__).with_name("view_labels.json")).read_text())


def _programs():
    for path in sorted((ROOT / "examples").glob("*.olp")):
        yield f"examples/{path.name}", lambda path=path: parse_program(path.read_text())
    spec = importlib.util.spec_from_file_location(
        "check_workloads", ROOT / "scripts" / "check_workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name, program in module.workloads():
        yield name, lambda program=program: program


PROGRAMS = dict(_programs())


def test_table_covers_every_program():
    assert set(PROGRAMS) == set(TABLE)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_labels_match_the_table(name):
    program = PROGRAMS[name]()
    labels = {
        view: classify_view(program, view).classification
        for view in sorted(program.component_names)
    }
    assert labels == TABLE[name]
