"""Founded and stable models of seminegative programs (Section 3,
following [SZ] and [GL1]).

Given a seminegative ground program ``C`` and a 3-valued model ``M``:

* the **positive version** ``C_M`` is obtained from ``ground(C)`` by
  deleting every rule that is not *applied* in ``M`` (body true and head
  in ``M``) and stripping the negative literals from the remaining
  rules;
* ``M`` is **founded** when ``T_{C_M}↑ω(∅) = M+``;
* ``M`` is **stable** when it is a maximal founded model.  Total stable
  models coincide with the stable models of Gelfond & Lifschitz, checked
  independently here via the classical reduct.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Optional

from ..core.interpretation import Interpretation, TruthValue
from ..grounding.grounder import GroundRule
from ..lang.literals import Atom
from .common import base_of, maximal, require_seminegative, total_interpretation
from .positive import minimal_model
from .threevalued import is_three_valued_model, three_valued_models

__all__ = [
    "positive_version",
    "is_founded",
    "is_founded_as_printed",
    "founded_models",
    "stable_models",
    "gl_reduct",
    "is_gl_stable",
    "gl_stable_models",
]


def positive_version(
    rules: Iterable[GroundRule], interp: Interpretation
) -> tuple[GroundRule, ...]:
    """``C_M``: applied rules with their negative literals deleted."""
    result = []
    for r in rules:
        if r.head not in interp:
            continue
        if not all(l in interp for l in r.body):
            continue
        positive_body = frozenset(l for l in r.body if l.positive)
        result.append(GroundRule(r.head, positive_body, r.component, r.origin))
    return tuple(result)


def is_founded(
    rules: Iterable[GroundRule],
    interp: Interpretation,
    base: Optional[AbstractSet[Atom]] = None,
) -> bool:
    """``M`` is founded — the classical-side class that makes
    Proposition 4 true (founded ⟺ assumption-free model of ``OV(C)``).

    Three conditions:

    1. ``M`` is a 3-valued model of ``C``;
    2. ``M+ = T↑ω(∅)`` over the positive version (the applied rules
       with negative literals stripped) — the paper's printed test:
       every true atom has non-circular support;
    3. every *undefined* atom has at least one non-blocked deriving
       rule (no body literal false).

    Condition 3 is absent from the printed definition but forced by the
    ``OV`` side: an undefined atom's CWA fact ``¬A`` is applicable and
    can only be excused by being *overruled*, which requires a
    non-blocked rule with head ``A`` (witness: ``{p0 <- ¬p1}``, where
    ``∅`` passes the printed test but ``¬p1``'s unopposed CWA fact
    forbids ``p1`` staying undefined).  Note this is *not* Przymusinski
    3-valued stability either: a positive loop ``{a <- b. b <- a.}``
    may stay undefined here (the loop rules are non-blocked witnesses)
    while the reduct's least model would force it false — under the
    ordered reading, falsity of a loop is only reached in the *stable*
    (maximal) models.  The printed variant is kept as
    :func:`is_founded_as_printed`.
    """
    rules = tuple(rules)
    full_base = frozenset(base) if base is not None else interp.base
    if not is_three_valued_model(rules, interp):
        return False
    derived = minimal_model(positive_version(rules, interp))
    if derived != interp.true_atoms():
        return False
    undefined = {atom for atom in full_base
                 if interp.value_of_atom(atom) is TruthValue.UNDEFINED}
    if not undefined:
        return True
    witnessed: set[Atom] = set()
    for r in rules:
        if r.head.atom in undefined and interp.conjunction_value(
            r.body
        ) > TruthValue.FALSE:
            witnessed.add(r.head.atom)
    return undefined <= witnessed


def is_founded_as_printed(
    rules: Iterable[GroundRule], interp: Interpretation
) -> bool:
    """The paper's printed foundedness test: a 3-valued model with
    ``T_{C_M}↑ω(∅) = M+`` over the applied-rules positive version.
    Weaker than :func:`is_founded`; see that docstring."""
    rules = tuple(rules)
    if not is_three_valued_model(rules, interp):
        return False
    derived = minimal_model(positive_version(rules, interp))
    return derived == interp.true_atoms()


def founded_models(
    rules: Iterable[GroundRule],
    base: Optional[AbstractSet[Atom]] = None,
) -> list[Interpretation]:
    """All founded models (brute force over 3-valued models)."""
    rules = tuple(rules)
    full_base = frozenset(base) if base is not None else base_of(rules)
    return [
        m
        for m in three_valued_models(rules, full_base)
        if is_founded(rules, m, full_base)
    ]


def stable_models(
    rules: Iterable[GroundRule],
    base: Optional[AbstractSet[Atom]] = None,
) -> list[Interpretation]:
    """Maximal founded models ([SZ]'s 3-valued stable models)."""
    return maximal(founded_models(rules, base))


# ----------------------------------------------------------------------
# Gelfond–Lifschitz stable models (total; the [GL1] original)
# ----------------------------------------------------------------------

def gl_reduct(
    rules: Iterable[GroundRule], true_atoms: AbstractSet[Atom]
) -> tuple[GroundRule, ...]:
    """The Gelfond–Lifschitz reduct ``C^M`` w.r.t. a set of true atoms:
    delete each rule with a negative body literal ``¬A`` where ``A`` is
    true; strip negative literals from the rest."""
    result = []
    for r in rules:
        if any((not l.positive) and l.atom in true_atoms for l in r.body):
            continue
        positive_body = frozenset(l for l in r.body if l.positive)
        result.append(GroundRule(r.head, positive_body, r.component, r.origin))
    return tuple(result)


def is_gl_stable(
    rules: Iterable[GroundRule],
    true_atoms: AbstractSet[Atom],
) -> bool:
    """``M`` (total, given by its true atoms) is GL-stable iff the
    minimal model of the reduct equals ``M``."""
    rules = tuple(rules)
    require_seminegative(rules)
    return minimal_model(gl_reduct(rules, true_atoms)) == frozenset(true_atoms)


def gl_stable_models(
    rules: Iterable[GroundRule],
    base: Optional[AbstractSet[Atom]] = None,
) -> list[Interpretation]:
    """All total GL-stable models, by checking every subset of the base
    (exponential; small programs)."""
    rules = tuple(rules)
    require_seminegative(rules)
    full_base = frozenset(base) if base is not None else base_of(rules)
    atoms = sorted(full_base, key=str)
    found: list[Interpretation] = []
    for mask in range(1 << len(atoms)):
        true_atoms = frozenset(
            atom for bit, atom in enumerate(atoms) if mask & (1 << bit)
        )
        if is_gl_stable(rules, true_atoms):
            found.append(total_interpretation(true_atoms, full_base))
    return found
