"""The direct semantics of negative programs — Definition 11,
reconstructed so that Theorem 2 actually holds.

Definition 11 re-states the 3-level semantics of Definition 10 without
any reference to ordered programs.  The version printed in the paper
(kept here as :func:`is_direct_model_as_printed`) reads:

    (a) ``I`` is a model if every rule has ``value(H) >= value(B)`` or
        an *exception*: ``¬H(r) ∈ I`` and some negative rule ``r̂`` has
        ``H(r̂) = ¬H(r)`` and ``value(B(r̂)) = T``;
    (b) assumption sets are non-empty ``X ⊆ I+`` such that every rule
        with head in ``X`` has ``value(B) <= U`` or ``B ∩ X ≠ ∅``.

Theorem 2 (stated without proof) claims this is equivalent to the
``3V`` semantics.  As printed it is **not**: mechanical checking finds
``C = {p0.  -p0 <- -p0.}`` whose empty interpretation is a Definition-10
model (the non-blocked self-referential exception overrules the fact in
``3V``) but not a printed-Definition-11 model; similarly the printed
assumption sets cannot see *negative* self-supporting exceptions
(``{a.  -a <- -a.}`` at ``{-a}``).  The OCR of the exception clause is
garbled at exactly this point, so we reconstruct the definition that is
equivalent to Definition 10 — the oracle matrix's Theorem 2 column
checks the equivalence on seeded random negative programs — and ship it
as the default:

**Models.**  For each rule ``r`` with ``value(H(r)) < value(B(r))``, one
of:

* *strong exception* — ``value(H(r)) = F`` and some negative rule
  ``r̂`` with ``H(r̂) = ¬H(r)`` has ``value(B(r̂)) = T``
  (mirrors Definition 3(a): the contradicted general rule must be
  overruled by an *applied* exception);
* *weak exception* — ``value(H(r)) = U`` and some negative rule ``r̂``
  with ``H(r̂) = ¬H(r)`` is non-blocked, ``value(B(r̂)) >= U``
  (mirrors Definition 3(b): a merely non-blocked exception suffices to
  suspend a derivable conclusion).

**Assumption sets** extend to all of ``I``: a positive ``A ∈ X`` is
groundable only by an applicable rule with head ``A`` that is not
overruled (no non-blocked negative rule with head ``¬A``) and draws no
body support from ``X``; a negative ``¬A ∈ X`` is groundable either by
the closed world (every rule with head ``A`` blocked) or by an
applicable negative rule with head ``¬A`` drawing no body support from
``X``.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Optional

from ..classical.common import base_of, maximal
from ..core.interpretation import Interpretation, TruthValue
from ..core.solver import SearchBudget, interpretations
from ..grounding.grounder import GroundRule
from ..lang.literals import Atom, Literal

__all__ = [
    "has_exception",
    "is_direct_model",
    "is_direct_model_as_printed",
    "direct_greatest_assumption_set",
    "is_direct_assumption_free",
    "direct_models",
    "direct_assumption_free_models",
    "direct_stable_models",
]

#: Refuse brute-force enumeration beyond 12 atoms (3^12 candidates).
_BUDGET = SearchBudget(max_leaves=3**12)


def has_exception(
    rules: Iterable[GroundRule],
    r: GroundRule,
    interp: Interpretation,
) -> bool:
    """Is the violated rule ``r`` excused by an exception (strong when
    its head is false, weak when its head is undefined)?"""
    head_value = interp.value(r.head)
    wanted = r.head.complement()
    if wanted.positive:
        return False  # exceptions are negative rules
    if head_value is TruthValue.FALSE:
        threshold = TruthValue.TRUE
    elif head_value is TruthValue.UNDEFINED:
        threshold = TruthValue.UNDEFINED
    else:
        return False
    return any(
        other.head == wanted
        and interp.conjunction_value(other.body) >= threshold
        for other in rules
    )


def is_direct_model(
    rules: Iterable[GroundRule], interp: Interpretation
) -> bool:
    """The reconstructed Definition 11(a) (equivalent to Definition 10)."""
    rules = tuple(rules)
    for r in rules:
        if interp.value(r.head) >= interp.conjunction_value(r.body):
            continue
        if has_exception(rules, r, interp):
            continue
        return False
    return True


def is_direct_model_as_printed(
    rules: Iterable[GroundRule], interp: Interpretation
) -> bool:
    """Definition 11(a) exactly as printed: only the strong exception.

    Kept for documentation: it diverges from Definition 10 on
    self-referential exceptions (see the module docstring and
    EXPERIMENTS.md)."""
    rules = tuple(rules)
    for r in rules:
        if interp.value(r.head) >= interp.conjunction_value(r.body):
            continue
        if interp.value(r.head) is TruthValue.FALSE:
            wanted = r.head.complement()
            if not wanted.positive and any(
                other.head == wanted
                and interp.conjunction_value(other.body) is TruthValue.TRUE
                for other in rules
            ):
                continue
        return False
    return True


def direct_greatest_assumption_set(
    rules: Iterable[GroundRule], interp: Interpretation
) -> frozenset[Literal]:
    """The union of all (reconstructed) Definition-11 assumption sets."""
    rules = tuple(rules)
    by_head: dict[Literal, list[GroundRule]] = {}
    for r in rules:
        by_head.setdefault(r.head, []).append(r)

    def non_blocked(r: GroundRule) -> bool:
        return interp.conjunction_value(r.body) > TruthValue.FALSE

    def applicable(r: GroundRule) -> bool:
        return interp.conjunction_value(r.body) is TruthValue.TRUE

    current: set[Literal] = set(interp.literals)
    changed = True
    while changed:
        changed = False
        for literal in list(current):
            if literal.positive:
                # Overruled heads can always be assumed: a non-blocked
                # negative rule with the complementary head shields
                # every rule deriving the literal.
                complement = literal.complement()
                if any(non_blocked(o) for o in by_head.get(complement, ())):
                    continue
                grounded = any(
                    applicable(r) and not (r.body & current)
                    for r in by_head.get(literal, ())
                )
            else:
                positive = literal.complement()
                cwa_grounds = not any(
                    non_blocked(r) for r in by_head.get(positive, ())
                )
                grounded = cwa_grounds or any(
                    applicable(r) and not (r.body & current)
                    for r in by_head.get(literal, ())
                )
            if grounded:
                current.discard(literal)
                changed = True
    return frozenset(current)


def is_direct_assumption_free(
    rules: Iterable[GroundRule], interp: Interpretation
) -> bool:
    """Reconstructed Definition 11(b)."""
    return not direct_greatest_assumption_set(rules, interp)


def direct_models(
    rules: Iterable[GroundRule], base: Optional[AbstractSet[Atom]] = None
) -> list[Interpretation]:
    """All (reconstructed) Definition-11 models over the base."""
    rules = tuple(rules)
    full_base = frozenset(base) if base is not None else base_of(rules)
    return [
        interp
        for interp in interpretations(full_base, _BUDGET)
        if is_direct_model(rules, interp)
    ]


def direct_assumption_free_models(
    rules: Iterable[GroundRule], base: Optional[AbstractSet[Atom]] = None
) -> list[Interpretation]:
    """All (reconstructed) Definition-11 assumption-free models."""
    rules = tuple(rules)
    full_base = frozenset(base) if base is not None else base_of(rules)
    return [
        interp
        for interp in interpretations(full_base, _BUDGET)
        if is_direct_model(rules, interp)
        and is_direct_assumption_free(rules, interp)
    ]


def direct_stable_models(
    rules: Iterable[GroundRule], base: Optional[AbstractSet[Atom]] = None
) -> list[Interpretation]:
    """Definition 11(c): maximal assumption-free models."""
    return maximal(direct_assumption_free_models(rules, base))

