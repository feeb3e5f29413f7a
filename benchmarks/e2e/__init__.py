"""End-to-end and per-layer benchmark of the whole stack (``BENCHMARK.json``).

One command, ``python3 benchmarks/e2e/run.py --workload NAME --seed N``,
runs a named workload against the *public* surface of the system (the
``olp serve`` subprocess over TCP, or ``parse_program`` →
``OrderedSemantics`` → ``answers_in`` in-process), checks its outputs
against an oracle and prints every metric by name.  See ``README.md``
in this directory for the metric glossary and the workload rationale.

The package locates the ``repro`` sources itself so the command needs no
``PYTHONPATH``: the checkout's ``src/`` is put on ``sys.path`` unless
``repro`` is already importable.
"""

import sys
from pathlib import Path

#: Root of the checkout (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

if SRC.is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
