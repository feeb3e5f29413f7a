"""Inheritance-hierarchy workloads: chains, diamonds and taxonomies.

These exercise the two contradiction-resolution mechanisms at scale:

* :func:`override_chain` — a linear isa chain where every level flips a
  default, so the meaning at the bottom depends on the chain's parity
  (pure *overruling* at depth);
* :func:`diamond` — the classic multiple-inheritance diamond whose two
  middle components disagree (pure *defeating*);
* :func:`taxonomy` — a synthetic animal-style taxonomy with defaults and
  per-species exceptions, the paper's Figure-1 pattern grown to
  realistic size;
* :func:`release_chain` — the Figure-1 blocked-overruler *release*
  serialized: the fixpoint advances one level every two stages, the
  worst case for naive full-rescan iteration.
"""

from __future__ import annotations

from ..lang.parser import parse_rules
from ..lang.program import Component, OrderedProgram

__all__ = ["override_chain", "diamond", "taxonomy", "release_chain"]


def override_chain(depth: int) -> OrderedProgram:
    """A chain ``c0 < c1 < ... < c<depth>`` where the top asserts ``p(a)``
    and each level below flips the sign.

    At the bottom component the value of ``p(a)`` is positive when
    ``depth`` is even (the bottom-most flip wins and flips an odd number
    of times from the top's positive assertion when depth is odd).
    Expected meaning at ``c0``: ``p(a)`` if depth is even, ``-p(a)``
    otherwise — each component overrules everything above it.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    components = []
    pairs = []
    for level in range(depth + 1):
        sign = "" if (depth - level) % 2 == 0 else "-"
        components.append(Component(f"c{level}", parse_rules(f"{sign}p(a).")))
        if level + 1 <= depth:
            pairs.append((f"c{level}", f"c{level + 1}"))
    return OrderedProgram(components, pairs)


def diamond(n_atoms: int = 1) -> OrderedProgram:
    """A diamond ``bottom < left``, ``bottom < right``, ``left < top``,
    ``right < top``: the top says ``q(i)`` for each atom, ``left``
    refines it to ``p(i)`` and ``right`` to ``-p(i)``.

    ``left`` and ``right`` are incomparable, so at ``bottom`` every
    ``p(i)`` is *defeated* (undefined) while ``q(i)`` survives.
    """
    if n_atoms < 1:
        raise ValueError("n_atoms must be positive")
    tops = [f"q(v{i})." for i in range(n_atoms)]
    return OrderedProgram(
        [
            Component("top", parse_rules("\n".join(tops))),
            Component("left", parse_rules("p(X) :- q(X).")),
            Component("right", parse_rules("-p(X) :- q(X).")),
            Component("bottom", ()),
        ],
        [
            ("bottom", "left"),
            ("bottom", "right"),
            ("left", "top"),
            ("right", "top"),
        ],
    )


def taxonomy(n_species: int, n_exceptional: int) -> OrderedProgram:
    """A two-level taxonomy in the Figure-1 pattern.

    ``general`` says every animal moves and does not swim; the specific
    component marks the first ``n_exceptional`` species aquatic, and
    aquatic animals swim (overruling the default).  Expected meaning at
    ``specific``: ``swims(s<i>)`` for exceptional species, ``-swims``
    for the rest; ``moves`` for everyone.
    """
    if n_exceptional > n_species:
        raise ValueError("n_exceptional cannot exceed n_species")
    general_lines = [
        "moves(X) :- animal(X).",
        "-swims(X) :- animal(X).",
        # Default closure in the Figure-1 pattern: animals are presumed
        # non-aquatic unless a more specific component says otherwise.
        "-aquatic(X) :- animal(X).",
    ]
    general_lines += [f"animal(s{i})." for i in range(n_species)]
    specific_lines = ["swims(X) :- aquatic(X)."]
    specific_lines += [f"aquatic(s{i})." for i in range(n_exceptional)]
    return OrderedProgram(
        {
            "general": parse_rules("\n".join(general_lines)),
            "specific": parse_rules("\n".join(specific_lines)),
        },
        [("specific", "general")],
    )


def release_chain(depth: int) -> OrderedProgram:
    """A serialized ladder of Figure-1 overruler releases.

    For each level ``i`` in ``1..depth`` the upper component carries
    ``p(i) :- p(i-1)`` and ``-q(i) :- p(i-1)`` while the lower
    component threatens with ``-p(i) :- q(i)``.  The threat is *not
    blocked* until ``-q(i)`` is derived, so ``p(i)`` stays overruled
    for exactly one extra stage: deriving ``p(i-1)`` first unlocks
    ``-q(i)``, whose derivation blocks the threat, which releases
    ``p(i)``.  The least model therefore grows by one level every two
    stages — ``2·depth + 1`` stages in all — and every literal
    ``p(0..depth)`` and ``-q(1..depth)`` is eventually true.

    Naive iteration rescans all ``3·depth + 1`` ground rules at each of
    those stages (``O(depth²)`` work); the semi-naive engine touches
    each watch list O(1) times (``O(depth)``), which is what
    ``tests/core/test_transform.py::TestDenseKernelWork`` counts.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    upper_lines = ["p(0)."]
    lower_lines = []
    for i in range(1, depth + 1):
        upper_lines.append(f"p({i}) :- p({i - 1}).")
        upper_lines.append(f"-q({i}) :- p({i - 1}).")
        lower_lines.append(f"-p({i}) :- q({i}).")
    return OrderedProgram(
        [
            Component("threats", parse_rules("\n".join(lower_lines))),
            Component("ladder", parse_rules("\n".join(upper_lines))),
        ],
        [("threats", "ladder")],
    )
