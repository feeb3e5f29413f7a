"""Static analysis over the *non-ground* program: the predicate
dependency graph (PDG) and a battery of authoring checks.

Everything in :mod:`repro.analysis.lint` and
:mod:`repro.analysis.conflicts` runs after grounding and solving, so
authoring mistakes only surface as runtime failures or silently
``undefined`` atoms.  This module works purely on the program text:

* :func:`build_pdg` builds the program's
  :class:`~repro.analysis.graph.PredicateDependencyGraph` over predicate
  signatures ``(name, arity)``: the components that define and use each
  one, body edges by polarity, and the contradictions with the order
  relation (below / above / equal / incomparable) of the two components.
* :func:`analyze_program` runs the checks and returns a
  :class:`StaticReport` of :class:`Diagnostic` records.
* :func:`classify_view` labels each component view as ``positive``,
  ``stratified``, ``locally-stratified`` or ``unstratified`` (Section 4's
  negative-program reduction); under the first two labels a
  single-component seminegative view is *routable*: its least model is
  the stratified Horn closure
  (:func:`repro.classical.stratified.stratified_least_model`).  That is
  ``olp check``'s label only: the read path classifies no view, and
  decides demand eligibility per goal from the goal's cone
  (:func:`repro.query.magic.negative_head_taint`).

:func:`classify_view` reads the same graph over the view's rules.  A
contradiction only violates stratification when the order does *not*
resolve it: Figure 1's ``fly``/``¬fly`` clash between comparable
components is the paper's intended override and stays stratified, while
Figure 2's clash between incomparable components (the *defeat* trap) is
a genuine nonmonotonic loop and classifies as unstratified.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping, Optional

from ..lang.program import OrderedProgram
from ..lang.terms import Compound, walk_terms
from ..obs import get_instrumentation
from .abstract import AbstractAnalysis, analyze_whole_program, signed_name
from .graph import (
    EdgeKind,
    OrderRelation,
    PDGEdge,
    PDGNode,
    PredicateDependencyGraph,
    relation_between,
)

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


def _diagnostic(code: str, location: str, message: str, fix_hint: str = "") -> Diagnostic:
    """A finding whose severity is its code's entry in
    :data:`DIAGNOSTIC_CODES`, the only place a severity is declared."""
    return Diagnostic(
        code, Severity.parse(DIAGNOSTIC_CODES[code]), location, message, fix_hint
    )


def build_pdg(program: OrderedProgram) -> PredicateDependencyGraph:
    """The predicate dependency graph of an ordered program."""
    return PredicateDependencyGraph(
        (
            (comp.name, r)
            for comp in sorted(program.components(), key=lambda c: c.name)
            for r in comp.rules
        ),
        program.order,
    )


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
    strata: Optional[Mapping[Signature, int]] = field(default=None, compare=False)

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


def classify_view(program: OrderedProgram, component: str) -> ViewClassification:
    """Classify the view ``C*`` of ``component`` (the ``stratification``
    diagnostic; demand eligibility does not read it)."""
    visible = program.visible_components(component)
    tagged = program.visible_rules(component)
    rules = tuple(r for _, r in tagged)
    seminegative = all(r.is_seminegative for r in rules)
    graph = PredicateDependencyGraph(tagged, program.order)
    if all(r.is_positive for r in rules):
        label = "positive"
    elif graph.stratified:
        label = "stratified"
    elif all(r.is_ground for r in rules) and PredicateDependencyGraph(
        tagged, program.order, key=attrgetter("atom")
    ).stratified:
        # A ground view's atom graph is finite: local stratification.
        label = "locally-stratified"
    else:
        label = "unstratified"
    routable_shape = seminegative and label in ("positive", "stratified")
    return ViewClassification(
        component=component,
        single_component=len(visible) == 1,
        seminegative=seminegative,
        classification=label,
        strata=graph.strata if routable_shape else None,
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
                    _diagnostic(
                        code="unsafe-rule",
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


def _visible_definitions(program: OrderedProgram) -> Mapping[str, frozenset[Signature]]:
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
    visible = _visible_definitions(program)
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
                    _diagnostic(
                        code="undefined-predicate",
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
            _diagnostic(
                code="arity-clash",
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
            _diagnostic(
                code="unused-head",
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
                _diagnostic(
                    code="unreachable-component",
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
    for sig, cp, cn in sorted(pdg.unresolved):
        key = (sig, frozenset((cp, cn)))
        if key in seen:
            continue
        seen.add(key)
        name = f"{sig[0]}/{sig[1]}"
        if cp == cn:
            where = f"within component {cp}"
        else:
            where = f"between incomparable components {cp} and {cn}"
        out.append(
            _diagnostic(
                code="potential-defeat",
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
            recursive = head_sig in pdg.recursive or any(
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
                _diagnostic(
                    code="function-growth",
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
            _diagnostic(
                code="provably-empty",
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
                    _diagnostic(
                        code="type-clash",
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
                _diagnostic(
                    code="dead-rule",
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
            _diagnostic(
                code="stratification",
                location=f"view {name}*",
                message=f"the view of component {name} is "
                f"{info.classification}; {note}",
                fix_hint="",
            )
        )
    return out, views


_DEMAND_FIX_HINTS = {
    "unroutable": (
        "goals over a predicate whose cone holds no negative-head rule "
        "are answered on demand; goals over these predicates fall back "
        "to full materialization"
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
    """Views with goals that cannot take the demand path
    (``strategy="demand"`` silently falls back to materialization for
    them), by the same per-goal rule the read path applies: one
    diagnostic per reason.

    Informational: programs that never use goal-directed queries lose
    nothing.  The import is deferred because :mod:`repro.query` imports
    :mod:`repro.analysis`.
    """
    from ..query import demand_ineligibility

    return [
        _diagnostic(
            code="demand-ineligible",
            location=f"view {name}*",
            message=(
                f"some goals against the view of component {name} "
                f"cannot use strategy='demand' ({reason}): {detail}"
            ),
            fix_hint=_DEMAND_FIX_HINTS.get(reason, ""),
        )
        for name in sorted(program.component_names)
        for reason, detail in demand_ineligibility(program, name)
    ]


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
