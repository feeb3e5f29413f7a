"""Static analysis over the *non-ground* program: the predicate
dependency graph (PDG) and a battery of authoring checks.

Everything in :mod:`repro.analysis.lint` and
:mod:`repro.analysis.conflicts` runs after grounding and solving, so
authoring mistakes only surface as runtime failures or silently
``undefined`` atoms.  This module works purely on the program text:

* :func:`build_pdg` constructs a graph whose nodes are predicate
  signatures ``(name, arity)`` annotated with the components that define
  and use them, and whose edges carry a polarity — ``POSITIVE`` body
  dependency, ``BLOCKING`` (negative body literal) dependency, or a
  ``CONTRADICTION`` between a positive and a negative head — together
  with the order relation (below / above / equal / incomparable) between
  the two components involved.
* :func:`analyze_program` runs the checks and returns a
  :class:`StaticReport` of :class:`Diagnostic` records.
* :func:`classify_view` labels each component view as ``positive``,
  ``stratified``, ``locally-stratified`` or ``unstratified`` (Section 4's
  negative-program reduction); under the first two labels a
  single-component seminegative view is *routable*: its least model is
  the stratified Horn closure
  (:func:`repro.classical.stratified.stratified_least_model`), which is
  what the demand route of :mod:`repro.query` needs and what
  ``olp check`` reports.

A contradiction only violates stratification when the order does *not*
resolve it: Figure 1's ``fly``/``¬fly`` clash between comparable
components is the paper's intended override and stays stratified, while
Figure 2's clash between incomparable components (the *defeat* trap) is
a genuine nonmonotonic loop and classifies as unstratified.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from ..classical.stratified import (
    dependency_graph,
    stratification,
    strongly_connected_components,
)
from ..lang.literals import Literal
from ..lang.poset import PartialOrder
from ..lang.program import OrderedProgram
from ..lang.rules import Rule
from ..lang.terms import Compound, walk_terms
from ..obs import get_instrumentation
from .abstract import AbstractAnalysis, analyze_whole_program, signed_name

__all__ = [
    "Severity",
    "Diagnostic",
    "EdgeKind",
    "OrderRelation",
    "relation_between",
    "PDGNode",
    "PDGEdge",
    "PredicateDependencyGraph",
    "build_pdg",
    "ViewClassification",
    "classify_view",
    "StaticReport",
    "analyze_program",
    "DIAGNOSTIC_CODES",
]

Signature = tuple[str, int]

#: Every diagnostic code the analyzer can emit, with its severity.
DIAGNOSTIC_CODES: Mapping[str, str] = {
    "unsafe-rule": "warning",
    "undefined-predicate": "warning",
    "arity-clash": "warning",
    "unused-head": "info",
    "unreachable-component": "warning",
    "potential-defeat": "info",
    "function-growth": "warning",
    "stratification": "info",
    "type-clash": "warning",
    "provably-empty": "info",
    "dead-rule": "info",
    "demand-ineligible": "info",
}


class Severity(enum.IntEnum):
    """Diagnostic severity; comparisons follow the integer order."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, name: str) -> "Severity":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {name!r}; expected one of "
                f"{', '.join(s.name.lower() for s in cls)}"
            ) from None

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable machine-readable ``code``, a severity, a
    human-readable location (component / rule / predicate), the message
    and a suggested fix."""

    code: str
    severity: Severity
    location: str
    message: str
    fix_hint: str = ""

    def to_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "severity": str(self.severity),
            "location": self.location,
            "message": self.message,
            "fix_hint": self.fix_hint,
        }

    def __str__(self) -> str:
        text = f"[{self.severity}] {self.code} at {self.location}: {self.message}"
        if self.fix_hint:
            text += f" (fix: {self.fix_hint})"
        return text


class EdgeKind(enum.Enum):
    """Polarity of a PDG edge."""

    POSITIVE = "positive"  # positive body literal -> head
    BLOCKING = "blocking"  # negative body literal -> head
    CONTRADICTION = "contradiction"  # positive head vs negative head

    def __str__(self) -> str:
        return self.value


class OrderRelation(enum.Enum):
    """How the source component of an edge relates to the target
    component in the program order (lower = more specific)."""

    BELOW = "below"
    ABOVE = "above"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"

    def __str__(self) -> str:
        return self.value


def relation_between(order: PartialOrder, a: str, b: str) -> OrderRelation:
    """The order relation of component ``a`` relative to component ``b``."""
    if a == b:
        return OrderRelation.EQUAL
    if order.less(a, b):
        return OrderRelation.BELOW
    if order.less(b, a):
        return OrderRelation.ABOVE
    return OrderRelation.INCOMPARABLE


@dataclass(frozen=True)
class PDGNode:
    """A predicate signature with its defining and using components."""

    signature: Signature
    positive_components: frozenset[str]  # components heading it positively
    negative_components: frozenset[str]  # components heading it negatively
    using_components: frozenset[str]  # components with a body occurrence

    @property
    def defining_components(self) -> frozenset[str]:
        return self.positive_components | self.negative_components

    @property
    def contradicted(self) -> bool:
        """True when the predicate is headed with both signs somewhere."""
        return bool(self.positive_components and self.negative_components)

    @property
    def name(self) -> str:
        return f"{self.signature[0]}/{self.signature[1]}"


@dataclass(frozen=True)
class PDGEdge:
    """A dependency or contradiction between two signatures.

    For body edges the source is the body signature (one edge per
    defining component of it), the target is the head signature, and
    ``relation`` relates the defining component to the rule's component.
    For contradiction edges source and target are the same signature;
    ``source_component`` heads it positively, ``target_component``
    negatively, and ``relation`` relates the two.
    """

    kind: EdgeKind
    source: Signature
    target: Signature
    source_component: str
    target_component: str
    relation: OrderRelation


@dataclass(frozen=True)
class PredicateDependencyGraph:
    """The PDG plus its Tarjan condensation."""

    nodes: Mapping[Signature, PDGNode]
    edges: frozenset[PDGEdge]
    order: PartialOrder

    def dependency_edges(self) -> frozenset[PDGEdge]:
        return frozenset(
            e for e in self.edges if e.kind is not EdgeKind.CONTRADICTION
        )

    def contradiction_edges(self) -> frozenset[PDGEdge]:
        return frozenset(
            e for e in self.edges if e.kind is EdgeKind.CONTRADICTION
        )

    @cached_property
    def sccs(self) -> tuple[frozenset[Signature], ...]:
        """Strongly connected components over the dependency (positive +
        blocking) edges, in reverse topological order."""
        pairs = {(e.source, e.target) for e in self.dependency_edges()}
        return tuple(strongly_connected_components(self.nodes, pairs))

    @cached_property
    def scc_index(self) -> Mapping[Signature, int]:
        return {
            sig: i for i, scc in enumerate(self.sccs) for sig in scc
        }

    @cached_property
    def recursive_signatures(self) -> frozenset[Signature]:
        """Signatures on a dependency cycle (incl. self-recursion)."""
        loops = {
            e.source
            for e in self.dependency_edges()
            if self.scc_index[e.source] == self.scc_index[e.target]
        }
        multi = {
            sig for scc in self.sccs if len(scc) > 1 for sig in scc
        }
        return frozenset(loops | multi)

    def condensation(self) -> frozenset[tuple[int, int]]:
        """Edges between SCC indices (dependency edges only)."""
        return frozenset(
            (self.scc_index[e.source], self.scc_index[e.target])
            for e in self.dependency_edges()
            if self.scc_index[e.source] != self.scc_index[e.target]
        )


def build_pdg(program: OrderedProgram) -> PredicateDependencyGraph:
    """Build the predicate dependency graph of an ordered program."""
    positive_heads: dict[Signature, set[str]] = {}
    negative_heads: dict[Signature, set[str]] = {}
    users: dict[Signature, set[str]] = {}
    order = program.order
    edges: set[PDGEdge] = set()

    components = sorted(program.components(), key=lambda c: c.name)
    for comp in components:
        for r in comp.rules:
            head_sig = r.head.signature
            bucket = positive_heads if r.head.positive else negative_heads
            bucket.setdefault(head_sig, set()).add(comp.name)
            positive_heads.setdefault(head_sig, set())
            negative_heads.setdefault(head_sig, set())
            users.setdefault(head_sig, set())
            for l in r.body_literals():
                users.setdefault(l.signature, set()).add(comp.name)
                positive_heads.setdefault(l.signature, set())
                negative_heads.setdefault(l.signature, set())

    # Body edges: one per (defining component of the body signature,
    # using rule's component).  An undefined body signature keeps a
    # single self-relative edge so the dependency structure survives.
    for comp in components:
        for r in comp.rules:
            head_sig = r.head.signature
            for l in r.body_literals():
                kind = EdgeKind.POSITIVE if l.positive else EdgeKind.BLOCKING
                sig = l.signature
                definers = positive_heads[sig] | negative_heads[sig]
                for definer in definers or {comp.name}:
                    edges.add(
                        PDGEdge(
                            kind=kind,
                            source=sig,
                            target=head_sig,
                            source_component=definer,
                            target_component=comp.name,
                            relation=relation_between(order, definer, comp.name),
                        )
                    )

    # Contradiction edges: a signature headed positively in one
    # component and negatively in another (or the same).
    for sig in positive_heads:
        for cp in positive_heads[sig]:
            for cn in negative_heads[sig]:
                edges.add(
                    PDGEdge(
                        kind=EdgeKind.CONTRADICTION,
                        source=sig,
                        target=sig,
                        source_component=cp,
                        target_component=cn,
                        relation=relation_between(order, cp, cn),
                    )
                )

    nodes = {
        sig: PDGNode(
            signature=sig,
            positive_components=frozenset(positive_heads[sig]),
            negative_components=frozenset(negative_heads[sig]),
            using_components=frozenset(users[sig]),
        )
        for sig in positive_heads
    }
    return PredicateDependencyGraph(nodes, frozenset(edges), order)


# ----------------------------------------------------------------------
# Stratification classification (Section 4)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ViewClassification:
    """The classification of one component view ``C*``."""

    component: str
    single_component: bool
    seminegative: bool
    classification: str  # positive | stratified | locally-stratified | unstratified
    strata: Optional[Mapping[str, int]] = field(default=None, compare=False)

    @property
    def routable(self) -> bool:
        """True when the view's least model is the stratified Horn
        closure: a single-component seminegative view that is positive
        or stratified (no contradictions, no overruling/defeating)."""
        return self.single_component and self.seminegative and (
            self.classification in ("positive", "stratified")
        )

    @property
    def ineligibility(self) -> Optional[str]:
        """Why the view is not routable (None when it is)."""
        if self.routable:
            return None
        if not self.single_component:
            return "the view spans more than one component"
        if not self.seminegative:
            return "the view contains negative-head rules"
        return f"the view is {self.classification}"


def _unresolved_contradiction_loops(
    rules_by_component: Sequence[tuple[str, Rule]], order: PartialOrder
) -> frozenset[str]:
    """Predicates headed with both signs by components the order does
    not relate (equal or incomparable) — the Figure 2 defeat pattern.
    Contradictions between comparable components are resolved by
    overruling and do not break stratification."""
    positive: dict[str, set[str]] = {}
    negative: dict[str, set[str]] = {}
    for comp, r in rules_by_component:
        bucket = positive if r.head.positive else negative
        bucket.setdefault(r.head.predicate, set()).add(comp)
    loops = set()
    for pred in positive.keys() & negative.keys():
        for cp in positive[pred]:
            for cn in negative[pred]:
                if relation_between(order, cp, cn) in (
                    OrderRelation.EQUAL,
                    OrderRelation.INCOMPARABLE,
                ):
                    loops.add(pred)
    return frozenset(loops)


def _is_stratified_with_loops(
    rules: Sequence[Rule], loops: Iterable[str]
) -> bool:
    """Classical stratification test, with extra negative self-loops for
    unresolved contradictions."""
    graph = dependency_graph(rules)
    negative = set(graph.negative_edges) | {(p, p) for p in loops}
    nodes = graph.predicates | set(loops)
    sccs = strongly_connected_components(
        nodes, graph.positive_edges | frozenset(negative)
    )
    member = {p: i for i, scc in enumerate(sccs) for p in scc}
    return all(member[a] != member[b] for a, b in negative)


def _is_locally_stratified(
    rules_by_component: Sequence[tuple[str, Rule]],
    order: PartialOrder,
) -> Optional[bool]:
    """Atom-level stratification for ground views; None when the view is
    not ground (the atom graph would be infinite in general)."""
    if not all(r.is_ground for _, r in rules_by_component):
        return None
    positive_atoms: dict[str, set[str]] = {}
    negative_atoms: dict[str, set[str]] = {}
    pos_edges: set[tuple[str, str]] = set()
    neg_edges: set[tuple[str, str]] = set()
    atoms: set[str] = set()
    for comp, r in rules_by_component:
        head = str(r.head.atom)
        atoms.add(head)
        bucket = positive_atoms if r.head.positive else negative_atoms
        bucket.setdefault(head, set()).add(comp)
        for l in r.body_literals():
            body = str(l.atom)
            atoms.add(body)
            (pos_edges if l.positive else neg_edges).add((body, head))
    for atom in positive_atoms.keys() & negative_atoms.keys():
        for cp in positive_atoms[atom]:
            for cn in negative_atoms[atom]:
                if relation_between(order, cp, cn) in (
                    OrderRelation.EQUAL,
                    OrderRelation.INCOMPARABLE,
                ):
                    neg_edges.add((atom, atom))
    sccs = strongly_connected_components(atoms, pos_edges | neg_edges)
    member = {a: i for i, scc in enumerate(sccs) for a in scc}
    return all(member[a] != member[b] for a, b in neg_edges)


def classify_view(program: OrderedProgram, component: str) -> ViewClassification:
    """Classify the view ``C*`` of ``component`` (demand eligibility and
    the ``stratification`` diagnostic)."""
    visible = program.visible_components(component)
    tagged = tuple(
        (comp.name, r) for comp in visible for r in comp.rules
    )
    rules = tuple(r for _, r in tagged)
    single = len(visible) == 1
    seminegative = all(r.is_seminegative for r in rules)
    positive = all(r.is_positive for r in rules)
    loops = _unresolved_contradiction_loops(tagged, program.order)
    stratified = _is_stratified_with_loops(rules, loops)

    strata: Optional[Mapping[str, int]] = None
    if positive:
        label = "positive"
    elif stratified:
        label = "stratified"
    elif _is_locally_stratified(tagged, program.order):
        label = "locally-stratified"
    else:
        label = "unstratified"
    if seminegative and label in ("positive", "stratified"):
        strata = stratification(rules)
    return ViewClassification(
        component=component,
        single_component=single,
        seminegative=seminegative,
        classification=label,
        strata=strata,
    )


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def _check_safety(program: OrderedProgram) -> list[Diagnostic]:
    """Range restriction: every variable of a rule must be bound by a
    positive body literal.  Negative-head non-ground facts are exempt —
    that is the closed-world idiom the reductions emit (``¬p(X).``)."""
    out = []
    for comp in sorted(program.components(), key=lambda c: c.name):
        for r in comp.rules:
            if r.is_fact and r.has_negative_head:
                continue
            bound = frozenset().union(
                *(l.variables() for l in r.body_literals() if l.positive),
                frozenset(),
            )
            unbound = sorted(v.name for v in r.variables() - bound)
            if unbound:
                names = ", ".join(unbound)
                out.append(
                    Diagnostic(
                        code="unsafe-rule",
                        severity=Severity.WARNING,
                        location=f"component {comp.name}: {r}",
                        message=(
                            f"variable(s) {names} are not bound by any "
                            "positive body literal, so the rule is not "
                            "range-restricted and grounding falls back to "
                            "the full Herbrand universe"
                        ),
                        fix_hint=(
                            f"add a positive body literal (a domain "
                            f"predicate) binding {names}, or ground the rule"
                        ),
                    )
                )
    return out


def _visible_definitions(
    program: OrderedProgram, pdg: PredicateDependencyGraph
) -> Mapping[str, frozenset[Signature]]:
    """For each component X, the signatures headed somewhere in at least
    one view that contains X — i.e. in ``upset(C)`` for some
    ``C <= X``.  A body signature of X outside this set can never be
    derived in any evaluation that runs X's rules."""
    order = program.order
    heads: dict[str, frozenset[Signature]] = {}
    for comp in program.components():
        heads[comp.name] = frozenset(
            l.signature for l in comp.head_literals()
        )
    view_heads = {
        name: frozenset().union(*(heads[c] for c in order.upset(name)))
        for name in heads
    }
    return {
        name: frozenset().union(
            *(view_heads[c] for c in order.downset(name))
        )
        for name in heads
    }


def _check_undefined(
    program: OrderedProgram, pdg: PredicateDependencyGraph
) -> list[Diagnostic]:
    out = []
    visible = _visible_definitions(program, pdg)
    for comp in sorted(program.components(), key=lambda c: c.name):
        reported: set[Signature] = set()
        for r in comp.rules:
            for l in r.body_literals():
                sig = l.signature
                if sig in visible[comp.name] or sig in reported:
                    continue
                reported.add(sig)
                name = f"{sig[0]}/{sig[1]}"
                definers = pdg.nodes[sig].defining_components
                if definers:
                    where = ", ".join(sorted(definers))
                    detail = (
                        f"it is only headed in {where}, which no view "
                        f"containing {comp.name} can see"
                    )
                else:
                    detail = "it is headed nowhere in the program"
                out.append(
                    Diagnostic(
                        code="undefined-predicate",
                        severity=Severity.WARNING,
                        location=f"component {comp.name}: {r}",
                        message=(
                            f"body predicate {name} is undefined in every "
                            f"view containing component {comp.name}: {detail}"
                        ),
                        fix_hint=(
                            f"add a rule or fact for {name} in a component "
                            f"visible alongside {comp.name}, or remove the "
                            "literal"
                        ),
                    )
                )
    return out


def _check_arity(pdg: PredicateDependencyGraph) -> list[Diagnostic]:
    by_name: dict[str, list[PDGNode]] = {}
    for sig, node in pdg.nodes.items():
        by_name.setdefault(sig[0], []).append(node)
    out = []
    for name in sorted(by_name):
        nodes = by_name[name]
        if len(nodes) < 2:
            continue
        variants = ", ".join(
            n.name for n in sorted(nodes, key=lambda n: n.signature)
        )
        components = sorted(
            frozenset().union(
                *((n.defining_components | n.using_components) for n in nodes)
            )
        )
        out.append(
            Diagnostic(
                code="arity-clash",
                severity=Severity.WARNING,
                location=f"predicate {name}",
                message=(
                    f"predicate {name} is used with conflicting arities "
                    f"({variants}) across components "
                    f"{', '.join(components)}; the variants never unify"
                ),
                fix_hint=(
                    f"pick one arity for {name} or rename one of the "
                    "variants"
                ),
            )
        )
    return out


def _check_unused_heads(pdg: PredicateDependencyGraph) -> list[Diagnostic]:
    out = []
    for sig in sorted(pdg.nodes):
        node = pdg.nodes[sig]
        if not node.defining_components or node.using_components:
            continue
        if node.contradicted:
            # Contradicted predicates are consumed by the conflict
            # machinery (overruling/defeating) even without body uses.
            continue
        where = ", ".join(sorted(node.defining_components))
        out.append(
            Diagnostic(
                code="unused-head",
                severity=Severity.INFO,
                location=f"predicate {node.name} (components {where})",
                message=(
                    f"{node.name} is headed in {where} but never occurs "
                    "in a rule body; it is derived output only"
                ),
                fix_hint=(
                    "reference it in a body, or drop its rules if it is "
                    "not a query target"
                ),
            )
        )
    return out


def _check_unreachable_components(program: OrderedProgram) -> list[Diagnostic]:
    """A component unrelated to every other one, in a program whose
    order is otherwise non-empty, is usually a forgotten declaration:
    no other component's view ``C*`` ever includes it."""
    order = program.order
    if not order.pairs() or len(order) < 2:
        return []
    out = []
    for name in sorted(program.component_names):
        if order.upset(name) == {name} and order.downset(name) == {name}:
            out.append(
                Diagnostic(
                    code="unreachable-component",
                    severity=Severity.WARNING,
                    location=f"component {name}",
                    message=(
                        f"component {name} is unrelated to every other "
                        "component, so no other view includes its rules; "
                        "only querying it directly evaluates them"
                    ),
                    fix_hint=(
                        f"relate {name} to the rest of the program with "
                        f"an order declaration, or remove it"
                    ),
                )
            )
    return out


def _check_potential_defeat(pdg: PredicateDependencyGraph) -> list[Diagnostic]:
    out = []
    seen: set[tuple[Signature, frozenset[str]]] = set()
    for e in sorted(
        pdg.contradiction_edges(),
        key=lambda e: (e.source, e.source_component, e.target_component),
    ):
        if e.relation not in (OrderRelation.EQUAL, OrderRelation.INCOMPARABLE):
            continue
        key = (e.source, frozenset((e.source_component, e.target_component)))
        if key in seen:
            continue
        seen.add(key)
        name = f"{e.source[0]}/{e.source[1]}"
        if e.source_component == e.target_component:
            where = f"within component {e.source_component}"
        else:
            where = (
                f"between incomparable components {e.source_component} "
                f"and {e.target_component}"
            )
        out.append(
            Diagnostic(
                code="potential-defeat",
                severity=Severity.INFO,
                location=f"predicate {name} ({where})",
                message=(
                    f"{name} and ¬{name} are derivable {where}; neither "
                    "side overrules the other, so both rules can defeat "
                    "each other and leave the atom undefined (the paper's "
                    "Figure 2 situation)"
                ),
                fix_hint=(
                    "order the components if one conclusion should win; "
                    "leave as is if the ambiguity is intended"
                ),
            )
        )
    return out


def _check_function_growth(
    program: OrderedProgram,
    pdg: PredicateDependencyGraph,
    abstract: Optional["AbstractAnalysis"] = None,
) -> list[Diagnostic]:
    """A recursive rule whose head buries a variable inside a function
    symbol grows the term depth every round: grounding (and therefore
    the fixpoint) only terminates because of the ``max_depth`` cutoff.

    The syntactic pattern alone over-warns: recursion like
    ``p(f(X)) :- p(X), d(X).`` is depth-bounded when ``d`` holds only
    constants.  When the abstract interpretation proves a finite
    term-depth bound for the head predicate, the warning is suppressed;
    the syntactic heuristic remains the fallback whenever inference
    reaches ⊤."""
    out = []
    for comp in sorted(program.components(), key=lambda c: c.name):
        for r in comp.rules:
            head_sig = r.head.signature
            scc = pdg.scc_index.get(head_sig)
            recursive = head_sig in pdg.recursive_signatures or any(
                pdg.scc_index.get(l.signature) == scc
                for l in r.body_literals()
            )
            if not recursive:
                continue
            growing = sorted(
                {
                    str(t)
                    for arg in r.head.args
                    for t in walk_terms(arg)
                    if isinstance(t, Compound) and not t.is_ground
                }
            )
            if not growing:
                continue
            if (
                abstract is not None
                and abstract.literal_fact(r.head).depth_bound() is not None
            ):
                continue
            terms = ", ".join(growing)
            out.append(
                Diagnostic(
                    code="function-growth",
                    severity=Severity.WARNING,
                    location=f"component {comp.name}: {r}",
                    message=(
                        f"recursive rule builds the term(s) {terms} in its "
                        "head; each round grows the Herbrand universe, so "
                        "grounding only stops at the max-depth cutoff"
                    ),
                    fix_hint=(
                        "bound the recursion with a guard or domain "
                        "predicate, or rely on --max-depth deliberately"
                    ),
                )
            )
    return out


def _check_abstract(
    program: OrderedProgram, abstract: AbstractAnalysis
) -> list[Diagnostic]:
    """Semantic diagnostics from the whole-program abstract
    interpretation (:mod:`repro.analysis.abstract`).

    The abstraction ignores overruling/defeating, so its *negative*
    claims (underivable, never matches) over-approximate every
    component view: a predicate it proves empty is empty in every
    view's least model, making these findings sound program-wide."""
    out = []
    heads = abstract.signed_heads
    # Provably-empty: predicates with rules that can never fire.
    for key in abstract.keys:
        if key not in heads:
            # Body-only signatures are the undefined-predicate check's
            # territory; here we only grade predicates that have rules.
            continue
        fact = abstract.fact_for(*key)
        if fact.derivable:
            continue
        out.append(
            Diagnostic(
                code="provably-empty",
                severity=Severity.INFO,
                location=f"predicate {fact.name}",
                message=(
                    f"{fact.name} has rules but is underivable in every "
                    "component view: no chain of rules can ever establish "
                    "its body"
                ),
                fix_hint=(
                    f"supply facts for the predicates {fact.name} depends "
                    "on, or remove its rules"
                ),
            )
        )
    for comp in sorted(program.components(), key=lambda c: c.name):
        for r in comp.rules:
            # Type-clash: a ground argument at a call site falls outside
            # the inferred sort of a derivable predicate.
            clash = abstract.unmatchable_argument(r)
            if clash is not None:
                literal, position, term = clash
                out.append(
                    Diagnostic(
                        code="type-clash",
                        severity=Severity.WARNING,
                        location=f"component {comp.name}: {r}",
                        message=(
                            f"argument {term} (position {position + 1} of "
                            f"{literal}) lies outside every value "
                            + signed_name(
                                (
                                    literal.predicate,
                                    len(literal.args),
                                    literal.positive,
                                )
                            )
                            + " can take, so the literal never matches"
                        ),
                        fix_hint=(
                            f"check the constant {term} for a typo, or add "
                            "a rule deriving it"
                        ),
                    )
                )
            if r.is_fact or not abstract.rule_dead(r):
                continue
            culprit = abstract.dead_body_literal(r)
            if culprit is not None:
                key = (culprit.predicate, len(culprit.args), culprit.positive)
                if key not in heads:
                    # Headed nowhere: undefined-predicate (positive
                    # literals) already warns; for negative literals the
                    # missing ¬-heads make the rule dead — still ours.
                    if culprit.positive:
                        continue
                reason = f"body literal {culprit} is underivable"
            elif clash is not None:
                reason = "a body argument lies outside its predicate's values"
            else:
                reason = (
                    "its body constraints (sorts and guards) are jointly "
                    "unsatisfiable"
                )
            out.append(
                Diagnostic(
                    code="dead-rule",
                    severity=Severity.INFO,
                    location=f"component {comp.name}: {r}",
                    message=(
                        f"the rule can never fire in any component view: "
                        f"{reason}"
                    ),
                    fix_hint=(
                        "make the body derivable or remove the rule"
                    ),
                )
            )
    return out


def _check_stratification(program: OrderedProgram) -> tuple[
    list[Diagnostic], dict[str, ViewClassification]
]:
    out = []
    views: dict[str, ViewClassification] = {}
    for name in sorted(program.component_names):
        info = classify_view(program, name)
        views[name] = info
        if info.routable:
            note = "its least model is the stratified Horn closure"
        else:
            note = f"not a stratified Horn view ({info.ineligibility})"
        out.append(
            Diagnostic(
                code="stratification",
                severity=Severity.INFO,
                location=f"view {name}*",
                message=f"the view of component {name} is "
                f"{info.classification}; {note}",
                fix_hint="",
            )
        )
    return out, views


_DEMAND_FIX_HINTS = {
    "unroutable": (
        "demand answering needs a seminegative, positive-or-stratified "
        "view; queries fall back to full materialization"
    ),
    "unsafe-sips": (
        "bind every head and guard variable in a positive body literal "
        "so sideways information passing can order the joins"
    ),
    "function-growth": (
        "compound terms in rule heads force depth-bounded grounding; "
        "query such views with the materializing strategies"
    ),
}


def _check_demand(program: OrderedProgram) -> list[Diagnostic]:
    """Views no goal can ever take the demand path against
    (``strategy="demand"`` silently falls back to materialization).

    Informational: programs that never use goal-directed queries lose
    nothing.  The import is deferred because :mod:`repro.query` builds
    on this module's :func:`classify_view`.
    """
    from ..query import demand_ineligibility

    out = []
    for name in sorted(program.component_names):
        problem = demand_ineligibility(program, name)
        if problem is None:
            continue
        reason, detail = problem
        out.append(
            Diagnostic(
                code="demand-ineligible",
                severity=Severity.INFO,
                location=f"view {name}*",
                message=(
                    f"queries against the view of component {name} cannot "
                    f"use strategy='demand' ({reason}): {detail}"
                ),
                fix_hint=_DEMAND_FIX_HINTS.get(reason, ""),
            )
        )
    return out


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StaticReport:
    """The result of :func:`analyze_program`."""

    pdg: PredicateDependencyGraph
    diagnostics: tuple[Diagnostic, ...]
    views: Mapping[str, ViewClassification]
    #: The whole-program abstract interpretation the semantic
    #: diagnostics were drawn from (None for hand-built reports).
    abstract: Optional[AbstractAnalysis] = field(default=None, compare=False)

    def by_code(self) -> Mapping[str, int]:
        counts: dict[str, int] = {}
        for d in self.diagnostics:
            counts[d.code] = counts.get(d.code, 0) + 1
        return counts

    def by_severity(self) -> Mapping[str, int]:
        counts = {str(s): 0 for s in Severity}
        for d in self.diagnostics:
            counts[str(d.severity)] += 1
        return counts

    def gating(self, max_severity: Severity) -> tuple[Diagnostic, ...]:
        """Diagnostics strictly above the allowed severity."""
        return tuple(
            d for d in self.diagnostics if d.severity > max_severity
        )

    def worst(self) -> Optional[Severity]:
        return max(
            (d.severity for d in self.diagnostics), default=None
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "counts": {
                "by_code": dict(self.by_code()),
                "by_severity": dict(self.by_severity()),
            },
            "views": {
                name: {
                    "classification": info.classification,
                    "single_component": info.single_component,
                    "seminegative": info.seminegative,
                    "routable": info.routable,
                }
                for name, info in sorted(self.views.items())
            },
            "pdg": {
                "predicates": sorted(
                    f"{s[0]}/{s[1]}" for s in self.pdg.nodes
                ),
                "sccs": [sorted(f"{s[0]}/{s[1]}" for s in scc)
                         for scc in self.pdg.sccs],
            },
            "abstract": (
                self.abstract.to_dict() if self.abstract is not None else None
            ),
        }

    def render(self) -> str:
        lines = []
        ordered = sorted(
            self.diagnostics,
            key=lambda d: (-int(d.severity), d.code, d.location),
        )
        for d in ordered:
            lines.append(f"  {d}")
        severities = self.by_severity()
        lines.append(
            "  {} diagnostic(s): {} error(s), {} warning(s), {} note(s)".format(
                len(self.diagnostics),
                severities["error"],
                severities["warning"],
                severities["info"],
            )
        )
        return "\n".join(lines)


def analyze_program(program: OrderedProgram) -> StaticReport:
    """Run every static check over ``program``.

    Emits one ``check.diagnostic.<code>`` counter per finding and a
    ``check.analyze`` span when instrumentation is enabled.
    """
    obs = get_instrumentation()
    with obs.span(
        "check.analyze",
        components=len(program),
        rules=program.rule_count(),
    ):
        pdg = build_pdg(program)
        abstract = analyze_whole_program(program)
        diagnostics: list[Diagnostic] = []
        diagnostics.extend(_check_safety(program))
        diagnostics.extend(_check_undefined(program, pdg))
        diagnostics.extend(_check_arity(pdg))
        diagnostics.extend(_check_unused_heads(pdg))
        diagnostics.extend(_check_unreachable_components(program))
        diagnostics.extend(_check_potential_defeat(pdg))
        diagnostics.extend(_check_abstract(program, abstract))
        diagnostics.extend(_check_function_growth(program, pdg, abstract))
        strat_diags, views = _check_stratification(program)
        diagnostics.extend(strat_diags)
        diagnostics.extend(_check_demand(program))
        report = StaticReport(pdg, tuple(diagnostics), views, abstract)
        obs.count("check.diagnostics", len(diagnostics))
        for code, n in sorted(report.by_code().items()):
            obs.count(f"check.diagnostic.{code}", n)
        return report
