"""``ORACLE_SCALE``: the one knob that sizes the oracle matrix.

``pr`` (the default) is what tier-1 runs on every change, ``ci`` what
the CI lanes run, ``nightly`` what the nightly workflow runs.  Any
other value fails collection (``tests/conftest.py`` imports this
module).
"""

from __future__ import annotations

import os

import pytest

SCALES = ("pr", "ci", "nightly")

#: Row-family (or lane) size at ``pr``, ``ci`` and ``nightly``.
SIZES = {
    # Seeded random row families (rows.py).
    "ordered": (200, 400, 800),
    "stratified": (200, 400, 800),
    "first_order": (200, 400, 800),
    "fo_stratified": (200, 400, 800),
    # Seeded classical rule sets (the claims columns).
    "positive": (60, 200, 400),
    "seminegative": (60, 200, 400),
    "negative": (60, 200, 400),
    # Serving client traces: traces, and the per-trace upper bounds of
    # clients and ops per client.
    "server_traces": (25, 200, 400),
    "server_clients": (5, 5, 10),
    "server_ops": (25, 25, 40),
    "replication_traces": (2, 50, 200),
    # The lanes that keep their own files.
    "static": (60, 120, 400),
    "crash_points": (25, 200, 800),
    "crash_kills": (2, 10, 25),
}


def _scale() -> int:
    value = os.environ.get("ORACLE_SCALE", "pr")
    if value not in SCALES:
        raise pytest.UsageError(
            f"ORACLE_SCALE={value!r}: expected one of pr, ci or nightly"
        )
    return SCALES.index(value)


SCALE = _scale()


def size(family: str) -> int:
    """How many rows (or traces) ``family`` has at this scale."""
    return SIZES[family][SCALE]
