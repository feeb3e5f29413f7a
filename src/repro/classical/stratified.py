"""Stratified programs and the perfect model ([ABW], [N], [VG], [P1]).

A seminegative program is **stratified** when its predicate dependency
graph has no cycle through a negative edge.  Stratified programs have a
unique perfect model, computed by the iterated fixpoint: evaluate the
strata bottom-up, applying the closed-world assumption to each stratum
once it is complete.

The dependency graph and strata work at the *predicate* level on the
non-ground program (the classical definition); evaluation then runs on
the ground rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Hashable,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    TypeVar,
)

from ..core.assumptions import literal_closure
from ..grounding.grounder import GroundRule
from ..lang.literals import Atom, Literal
from ..lang.rules import Rule

__all__ = [
    "DependencyGraph",
    "dependency_graph",
    "strongly_connected_components",
    "is_stratified",
    "stratification",
    "perfect_model",
    "stratified_least_model",
]

T = TypeVar("T", bound=Hashable)


@dataclass(frozen=True)
class DependencyGraph:
    """Predicate dependency graph.

    Attributes:
        predicates: all predicate symbols.
        positive_edges: ``(body_pred, head_pred)`` pairs from positive
            body literals.
        negative_edges: the same from negative body literals.
    """

    predicates: frozenset[str]
    positive_edges: frozenset[tuple[str, str]]
    negative_edges: frozenset[tuple[str, str]]

    def edges(self) -> frozenset[tuple[str, str]]:
        return self.positive_edges | self.negative_edges


def dependency_graph(rules: Iterable[Rule]) -> DependencyGraph:
    """Build the predicate dependency graph of a (non-ground) program."""
    predicates: set[str] = set()
    positive: set[tuple[str, str]] = set()
    negative: set[tuple[str, str]] = set()
    for r in rules:
        head = r.head.predicate
        predicates.add(head)
        for l in r.body_literals():
            predicates.add(l.predicate)
            edge = (l.predicate, head)
            if l.positive:
                positive.add(edge)
            else:
                negative.add(edge)
    return DependencyGraph(
        frozenset(predicates), frozenset(positive), frozenset(negative)
    )


def strongly_connected_components(
    nodes: Iterable[T], edges: Iterable[tuple[T, T]]
) -> list[frozenset[T]]:
    """Tarjan's algorithm, iterative to avoid recursion limits.  Returns
    SCCs in reverse topological order (callees before callers).  Nodes
    must be mutually sortable for the deterministic visit order."""
    successors: dict[T, list[T]] = {n: [] for n in nodes}
    for src, dst in edges:
        successors[src].append(dst)
    index_counter = 0
    indices: dict[T, int] = {}
    lowlinks: dict[T, int] = {}
    on_stack: set[T] = set()
    stack: list[T] = []
    result: list[frozenset[T]] = []

    for root in sorted(successors):  # type: ignore[type-var]
        if root in indices:
            continue
        work: list[tuple[T, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                indices[node] = index_counter
                lowlinks[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = successors[node]
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if child not in indices:
                    work[-1] = (node, child_index)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlinks[node] = min(lowlinks[node], indices[child])
            if advanced:
                continue
            work.pop()
            if lowlinks[node] == indices[node]:
                component: set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                result.append(frozenset(component))
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
    return result


def is_stratified(rules: Iterable[Rule]) -> bool:
    """True when no dependency cycle passes through a negative edge."""
    graph = dependency_graph(rules)
    components = strongly_connected_components(graph.predicates, graph.edges())
    membership = {
        pred: i for i, comp in enumerate(components) for pred in comp
    }
    return all(
        membership[src] != membership[dst] for src, dst in graph.negative_edges
    )


def stratification(rules: Iterable[Rule]) -> Optional[Mapping[str, int]]:
    """A stratum number per predicate, or None when not stratified.

    Strata satisfy: positive dependencies stay within or below the
    head's stratum; negative dependencies come from strictly below.
    """
    rules = tuple(rules)
    graph = dependency_graph(rules)
    components = strongly_connected_components(graph.predicates, graph.edges())
    membership = {pred: i for i, comp in enumerate(components) for pred in comp}
    for src, dst in graph.negative_edges:
        if membership[src] == membership[dst]:
            return None
    # Longest-path layering over the condensation; negative edges force a
    # strict increase.  Components arrive callees-first, so one pass works.
    strata: dict[int, int] = {i: 0 for i in range(len(components))}
    changed = True
    while changed:
        changed = False
        for src, dst in graph.positive_edges:
            s, d = membership[src], membership[dst]
            if strata[d] < strata[s]:
                strata[d] = strata[s]
                changed = True
        for src, dst in graph.negative_edges:
            s, d = membership[src], membership[dst]
            if strata[d] < strata[s] + 1:
                strata[d] = strata[s] + 1
                changed = True
    return {pred: strata[membership[pred]] for pred in graph.predicates}


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
            r for r in ground_rules if strata.get(r.head.predicate, 0) == level
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
        by_level.setdefault(strata.get(r.head.predicate, 0), []).append(r)
    derived: frozenset[Literal] = frozenset()
    for level in sorted(by_level):
        derived = literal_closure(by_level[level], derived)
    return frozenset(l.atom for l in derived)
