"""Stratified programs and the perfect model ([ABW], [N], [VG], [P1]).

A seminegative program is **stratified** when its predicate dependency
graph has no cycle through a negative edge.  Stratified programs have a
unique perfect model, computed by the iterated fixpoint: evaluate the
strata bottom-up, applying the closed-world assumption to each stratum
once it is complete.

The strata work at the *predicate* level on the non-ground program (the
classical definition), read from the one dependency graph
(:class:`repro.analysis.graph.PredicateDependencyGraph`) keyed by
signature; evaluation then runs on the ground rules.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Mapping, Optional, Sequence

from ..analysis.graph import PredicateDependencyGraph
from ..core.assumptions import literal_closure
from ..grounding.grounder import GroundRule
from ..lang.literals import Atom, Literal
from ..lang.rules import Rule

__all__ = [
    "stratification",
    "perfect_model",
    "stratified_least_model",
]


def stratification(
    rules: Iterable[Rule],
) -> Optional[Mapping[tuple[str, int], int]]:
    """A stratum number per predicate signature, or None when not
    stratified.

    Strata satisfy: positive dependencies stay within or below the
    head's stratum; negative dependencies come from strictly below.  The
    rules form one component, so a predicate headed with both signs is a
    contradiction no order resolves, and the rules have no strata.
    """
    return PredicateDependencyGraph(("", r) for r in rules).strata


def perfect_model(
    non_ground_rules: Sequence[Rule],
    ground_rules: Iterable[GroundRule],
    base: Optional[AbstractSet[Atom]] = None,
) -> frozenset[Atom]:
    """The perfect model of a stratified program: iterated fixpoint over
    the strata, reading negative body literals against the completed
    lower strata (closed-world within each stratum).

    Args:
        non_ground_rules: the program, for stratification.
        ground_rules: its grounding (e.g. from
            :meth:`repro.grounding.Grounder.ground_rules`).
        base: unused except for validation; kept for symmetry.

    Raises:
        ValueError: when the program is not stratified.
    """
    strata = stratification(non_ground_rules)
    if strata is None:
        raise ValueError("program is not stratified")
    ground_rules = tuple(ground_rules)
    max_stratum = max(strata.values(), default=0)
    true_atoms: set[Atom] = set()
    for level in range(max_stratum + 1):
        level_rules = [
            r for r in ground_rules if strata.get(r.head.signature, 0) == level
        ]
        changed = True
        while changed:
            changed = False
            for r in level_rules:
                if r.head.atom in true_atoms:
                    continue
                ok = True
                for l in r.body:
                    if l.positive:
                        if l.atom not in true_atoms:
                            ok = False
                            break
                    elif l.atom in true_atoms:
                        ok = False
                        break
                if ok:
                    true_atoms.add(r.head.atom)
                    changed = True
    return frozenset(true_atoms)


def stratified_least_model(
    non_ground_rules: Sequence[Rule],
    ground_rules: Iterable[GroundRule],
) -> frozenset[Atom]:
    """Least *ordered* model of a stratified seminegative program, under
    the paper's membership reading of classical negation.

    Unlike :func:`perfect_model` (negation as failure), a negative body
    literal here is true only when it is a member of the interpretation —
    and a seminegative program has no negative heads, so no negative
    literal is ever derivable.  Rules carrying a negative body literal
    therefore never fire, and the least model is the Horn least fixpoint
    of the remaining positive rules, evaluated stratum by stratum with
    each stratum seeded by the ones below.

    A classical *reference*, the way :func:`repro.classical.positive.
    minimal_model` is one: for a single-component seminegative view
    there are no contradictions, hence no overruling or defeating, and
    ``V_{P,C}`` degenerates to the Horn consequence operator, so the
    ordered least model of such a view must equal this closure.

    Raises:
        ValueError: when the non-ground program is not stratified.
    """
    strata = stratification(non_ground_rules)
    if strata is None:
        raise ValueError("program is not stratified")
    horn = [r for r in ground_rules if all(l.positive for l in r.body)]
    by_level: dict[int, list[GroundRule]] = {}
    for r in horn:
        by_level.setdefault(strata.get(r.head.signature, 0), []).append(r)
    derived: frozenset[Literal] = frozenset()
    for level in sorted(by_level):
        derived = literal_closure(by_level[level], derived)
    return frozenset(l.atom for l in derived)
