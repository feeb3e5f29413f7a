#!/usr/bin/env python
"""Gate: the built-in workloads must stay warning-clean under the
static analyzer.

Usage: PYTHONPATH=src python scripts/check_workloads.py [--abstract]

Runs ``repro.analysis.static.analyze_program`` over every curated
built-in workload (paper figures and examples, their scaled variants,
the hierarchy/expert generators and the reduction outputs) and fails
when any of them reports a warning-or-worse diagnostic.  Informational
notes (potential defeats, stratification labels) are expected and do
not fail the gate.

With ``--abstract`` the script additionally checks the abstract
interpreter's claims against the concrete semantics of every component
view: a predicate inferred underivable must have no literals in the
view's least model, every cardinality interval must contain the true
relation size and every inferred sort must admit the derived terms —
and the relevance check: the default least model must be bit-identical
to naive ``V`` iteration over the full instantiation.

Deliberately excluded, with the diagnostic each one legitimately
triggers:

* ``paper.example3`` / ``paper.example4`` — abstract propositional
  sketches whose bodies mention predicates with no rules
  (undefined-predicate).
* ``paper.example9_colored`` — its choice rule binds a variable only in
  a negative literal, exactly the unsafe-rule pattern the paper uses to
  motivate the extended semantics.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from repro.analysis.abstract import analyze_view, signed_name
from repro.analysis.static import Severity, analyze_program
from repro.core.semantics import OrderedSemantics
from repro.core.transform import OrderedTransform
from repro.grounding.grounder import GroundingOptions
from repro.lang.program import Component, OrderedProgram
from repro.reductions import ordered_version, three_level_version
from repro.workloads import (
    classic,
    experts,
    hierarchies,
    paper,
    point_query,
    sessions,
)

#: Term-depth cap shared by the abstract and the concrete side of the
#: ``--abstract`` gate, so both describe the same ground program.
MAX_DEPTH = 3


def workloads():
    yield "paper.figure1", paper.figure1()
    yield "paper.figure1_flat", paper.figure1_flat()
    yield "paper.figure2", paper.figure2()
    yield "paper.figure3(19,16)", paper.figure3(
        ("inflation(19).", "loan_rate(16).")
    )
    yield "paper.figure3(12,16)", paper.figure3(
        ("inflation(12).", "loan_rate(16).")
    )
    yield "paper.example4_extended", paper.example4_extended()
    yield "paper.example5", paper.example5()
    yield "ordered(paper.example6_ancestor)", ordered_version(
        paper.example6_ancestor()
    ).program
    yield "ordered(paper.example7)", ordered_version(paper.example7()).program
    yield "three_level(paper.example8_birds)", three_level_version(
        paper.example8_birds()
    ).program
    yield "paper.scaled_figure1(8,3)", paper.scaled_figure1(8, 3)
    yield "paper.scaled_figure2(6,2)", paper.scaled_figure2(6, 2)
    for name, program in sorted(
        paper.scaled_figure3({"boom": (12, 10), "bust": (9, 16)}).items()
    ):
        yield f"paper.scaled_figure3[{name}]", program
    yield "hierarchies.override_chain(4)", hierarchies.override_chain(4)
    yield "hierarchies.diamond(2)", hierarchies.diamond(2)
    yield "hierarchies.taxonomy(6,2)", hierarchies.taxonomy(6, 2)
    yield "hierarchies.release_chain(3)", hierarchies.release_chain(3)
    yield "experts.expert_panel(3,3)", experts.expert_panel(3, 3)
    yield "experts.contradicting_panel(3)", experts.contradicting_panel(3)
    yield "sessions.interactive_session(4,6)", sessions.interactive_session(4, 6)
    yield "point_query.forest_program(2,3)", point_query.forest_program(2, 3)
    yield "classic.sparse_pairs(24,3)", OrderedProgram(
        [Component("main", classic.sparse_pairs(24, 3))], []
    )


def check_abstract(program) -> list[str]:
    """Soundness errors from comparing inferred facts with every view's
    concrete least model (empty list when the analysis is sound)."""
    errors: list[str] = []
    options = GroundingOptions(max_depth=MAX_DEPTH)
    for component in program.components():
        view = component.name
        analysis = analyze_view(program, view, max_depth=MAX_DEPTH)
        if analysis is None:
            errors.append(f"view {view}: universe construction failed")
            continue
        semantics = OrderedSemantics(program, view, grounding=options)
        model = semantics.least_model
        sizes: Counter = Counter()
        for literal in model.literals:
            sizes[(literal.predicate, len(literal.args), literal.positive)] += 1
        for key in analysis.keys:
            fact = analysis.fact_for(*key)
            true_size = sizes.get(key, 0)
            label = f"view {view}, {signed_name(key)}"
            if not fact.derivable and true_size:
                errors.append(
                    f"{label}: inferred underivable but model has "
                    f"{true_size} literal(s)"
                )
            if fact.card.lo > true_size:
                errors.append(
                    f"{label}: lower bound {fact.card.lo} > true size {true_size}"
                )
            if fact.card.hi is not None and true_size > fact.card.hi:
                errors.append(
                    f"{label}: true size {true_size} > upper bound {fact.card.hi}"
                )
        for literal in model.literals:
            if not analysis.admits(literal):
                errors.append(
                    f"view {view}: inferred sorts exclude derived {literal}"
                )
        full_model = OrderedTransform(
            semantics.full_evaluator, semantics.full_ground.base, strategy="naive"
        ).least_fixpoint()
        if full_model.literals != model.literals:
            errors.append(
                f"view {view}: relevance grounding changed the least model"
            )
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--abstract",
        action="store_true",
        help="also verify abstract-interpretation claims, and relevance "
        "grounding, against the concrete semantics of every component view",
    )
    args = parser.parse_args(argv)
    failures = 0
    total = 0
    for name, program in workloads():
        total += 1
        report = analyze_program(program)
        gating = report.gating(Severity.INFO)
        notes = len(report.diagnostics) - len(gating)
        problems = [str(d) for d in gating]
        if args.abstract:
            problems += check_abstract(program)
        if problems:
            failures += 1
            print(f"{name}: FAIL ({len(problems)} problem(s))")
            for problem in problems:
                print(f"  {problem}")
        else:
            suffix = (
                ", abstract claims sound, relevance invisible" if args.abstract else ""
            )
            print(f"{name}: ok ({notes} informational note(s){suffix})")
    if failures:
        print(f"{failures}/{total} workload(s) failed")
        return 1
    label = (
        "warning-clean, abstract-sound and relevance-invisible"
        if args.abstract
        else "warning-clean"
    )
    print(f"all {total} workloads {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
