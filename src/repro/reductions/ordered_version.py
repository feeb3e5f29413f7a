"""The ordered version ``OV(C)`` of a classical program (Section 3).

``OV(C) = <{¬B_C, C}, {C < ¬B_C}>``: the program ``C`` placed below a
component holding the *explicit* closed-world assumption — "every
element of the Herbrand base is false unless its truth is proved".
Instead of one fact per base element, the CWA component holds one
non-ground rule ``¬p(X1, ..., Xn)`` per predicate symbol, so the size of
``OV(C)`` is polynomially bounded in the size of ``C`` (the paper's
remark after the definition).

Propositions 3–4 and Corollary 1 relate the models of ``OV(C)`` in ``C``
to the 3-valued / founded / stable models of ``C``; the property tests
verify all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core.semantics import OrderedSemantics
from ..core.solver import SearchBudget
from ..core.transform import AUTO_STRATEGY
from ..grounding.grounder import GroundingOptions
from ..lang.literals import Atom, Literal
from ..lang.program import Component, OrderedProgram
from ..lang.rules import Rule
from ..lang.terms import Variable
from ..obs import Level, get_instrumentation

__all__ = ["ReducedProgram", "cwa_rules", "cwa_component", "ordered_version"]


def record_reduction(name: str, source_rules: int, program: OrderedProgram) -> None:
    """Count one reduction call: source size and rules emitted."""
    obs = get_instrumentation()
    if not obs.enabled:
        return
    emitted = sum(len(c.rules) for c in program.components())
    obs.count(f"reduction.{name}.calls")
    obs.count(f"reduction.{name}.source_rules", source_rules)
    obs.count(f"reduction.{name}.rules_emitted", emitted)
    obs.event(
        "reduction.applied",
        Level.DEBUG,
        reduction=name,
        source_rules=source_rules,
        rules_emitted=emitted,
    )

#: Default component names used by the reductions.
PROGRAM_COMPONENT = "c"
CWA_COMPONENT = "cwa"


@dataclass(frozen=True)
class ReducedProgram:
    """An ordered program produced by a reduction, together with the
    component whose meaning defines the semantics of the source."""

    program: OrderedProgram
    component: str

    def semantics(
        self,
        grounding: GroundingOptions = GroundingOptions(),
        budget: SearchBudget = SearchBudget(),
        strategy: str = AUTO_STRATEGY,
    ) -> OrderedSemantics:
        """An :class:`OrderedSemantics` view at the designated component.

        The ``strategy`` is forwarded to the semantics, so the OV/EV/3V
        reductions inherit semi-naive evaluation (and its shared rule
        index) by default.
        """
        return OrderedSemantics(
            self.program,
            self.component,
            grounding=grounding,
            budget=budget,
            strategy=strategy,
        )


def _signatures(rules: Iterable[Rule]) -> frozenset[tuple[str, int]]:
    return Component("_sig", rules).predicate_signatures()


def cwa_rules(signatures: Iterable[tuple[str, int]]) -> list[Rule]:
    """One ``¬p(X1, ..., Xn).`` rule per predicate signature — the
    reduced (non-ground) form of ``¬B_C``."""
    rules = []
    for predicate, arity in sorted(signatures):
        variables = tuple(Variable(f"X{i + 1}") for i in range(arity))
        rules.append(Rule(Literal(Atom(predicate, variables), False), ()))
    return rules


def cwa_component(
    rules: Iterable[Rule], name: str = CWA_COMPONENT
) -> Component:
    """The CWA component ``¬B_C`` for a program's signatures."""
    return Component(name, cwa_rules(_signatures(rules)))


def ordered_version(
    rules: Sequence[Rule],
    component: str = PROGRAM_COMPONENT,
    cwa_name: str = CWA_COMPONENT,
) -> ReducedProgram:
    """``OV(C)``: the program below its explicit CWA component.

    Args:
        rules: the classical program ``C`` (typically seminegative; the
            construction itself accepts any negative program).
        component: name to give ``C``'s component.
        cwa_name: name to give the CWA component.
    """
    program = OrderedProgram(
        [
            Component(component, rules),
            cwa_component(rules, cwa_name),
        ],
        [(component, cwa_name)],
    )
    record_reduction("ov", len(rules), program)
    return ReducedProgram(program, component)
