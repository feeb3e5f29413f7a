"""Golden transcripts of the command language's text surfaces.

``tests/golden/`` holds a REPL script that uses every REPL command
(error and usage lines included) and the stdout of one-shot
``olp query`` / ``olp why`` runs over ``examples/figure1.olp``, and the
``olp check --json`` report on the three figure examples.  Each
test replays the command through ``python -m repro`` and compares its
stdout byte for byte; the CI smoke job runs the same commands and
``cmp``s the output.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = {
    "repl_session.out": (
        ["repl", "examples/figure1.olp"],
        (GOLDEN / "repl_session.txt").read_bytes(),
    ),
    "query_fly.out": (
        ["query", "examples/figure1.olp", "-c", "c1", "-q", "fly(X)"],
        b"",
    ),
    "why_fly_pigeon.out": (
        ["why", "examples/figure1.olp", "-c", "c1", "-q", "fly(pigeon)"],
        b"",
    ),
    "check_examples.json": (
        [
            "check",
            "--json",
            "examples/figure1.olp",
            "examples/figure2.olp",
            "examples/figure3.olp",
        ],
        b"",
    ),
}


@pytest.mark.parametrize("golden", sorted(CASES))
def test_transcript_is_byte_identical(golden):
    argv, stdin = CASES[golden]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        input=stdin,
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stderr == b""
    assert done.stdout == (GOLDEN / golden).read_bytes()
