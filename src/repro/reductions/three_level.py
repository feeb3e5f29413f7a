"""The 3-level version ``3V(C)`` of a negative program (Section 4).

``3V(C) = <{¬B_C, C+, C−}, {C− < C+, C+ < ¬B_C, C− < ¬B_C}>`` where

* ``C+`` holds the seminegative rules of ``C`` **and** the reflexive
  rules (one ``p(X..) <- p(X..)`` per predicate);
* ``C−`` holds the negative(-head) rules of ``C`` — the *exceptions* to
  the general rules of ``C+``;
* ``¬B_C`` is the explicit closed-world component on top.

The meaning of the negative program ``C`` is the meaning of ``3V(C)``
in ``C−`` (Definition 10); Example 9's "pick one non-ugly colour"
program shows the exception reading in action.  Theorem 2 states this is
equivalent to the direct Definition 11 implemented in
:mod:`repro.reductions.direct` — the oracle matrix's Theorem 2 column
checks the equivalence on seeded random negative programs.
"""

from __future__ import annotations

from typing import Sequence

from ..lang.program import Component, OrderedProgram
from ..lang.rules import Rule
from .extended_version import reflexive_rules
from .ordered_version import ReducedProgram, cwa_component, record_reduction

__all__ = ["three_level_version"]

POSITIVE_COMPONENT = "cpos"
NEGATIVE_COMPONENT = "cneg"
CWA_COMPONENT_3V = "cwa"


def three_level_version(
    rules: Sequence[Rule],
    positive_name: str = POSITIVE_COMPONENT,
    negative_name: str = NEGATIVE_COMPONENT,
    cwa_name: str = CWA_COMPONENT_3V,
) -> ReducedProgram:
    """``3V(C)`` for a negative program ``C``.

    The designated component is ``C−`` (the most specific level), whose
    models define the semantics of ``C``.
    """
    seminegative = [r for r in rules if r.is_seminegative]
    negative = [r for r in rules if not r.is_seminegative]
    signatures = Component("_sig", rules).predicate_signatures()
    program = OrderedProgram(
        [
            Component(
                positive_name, tuple(seminegative) + tuple(reflexive_rules(signatures))
            ),
            Component(negative_name, negative),
            cwa_component(rules, cwa_name),
        ],
        [
            (negative_name, positive_name),
            (positive_name, cwa_name),
            (negative_name, cwa_name),
        ],
    )
    record_reduction("3v", len(rules), program)
    return ReducedProgram(program, negative_name)
