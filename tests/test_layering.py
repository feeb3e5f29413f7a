"""The read path's layering: serving and the knowledge base load neither
the static analyzer, the classical semantics nor the demand route.

Each is imported on first use (``olp check``, a demand read, a
reduction), so a server that never takes those paths never pays for
loading them.  Run in a fresh interpreter: the test process has loaded
everything by now.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

OFF_THE_READ_PATH = ("repro.analysis", "repro.classical", "repro.query")


def test_server_and_kb_import_no_analysis_classical_or_query_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    probe = (
        "import sys, repro.server, repro.kb; "
        f"print('\\n'.join(sorted(m for m in sys.modules if m.startswith({OFF_THE_READ_PATH!r}))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
