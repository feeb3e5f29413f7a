"""SARIF 2.1.0 export for ``olp check`` diagnostics.

SARIF (Static Analysis Results Interchange Format) is the standard
interchange format code-review tooling ingests; emitting it lets the
``analysis`` CI job upload ``olp check`` findings as a reviewable
artifact.  One log document carries one *run* of the ``olp-check``
driver; every :class:`~repro.analysis.static.Diagnostic` becomes a
*result* pointing at its source file (as the artifact) and its
component/rule location (as a logical location — the surface syntax has
no line table, so physical regions are omitted).
"""

from __future__ import annotations

from typing import Sequence

from .static import DIAGNOSTIC_CODES, Severity, StaticReport

__all__ = ["SARIF_VERSION", "SARIF_SCHEMA", "sarif_log"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Diagnostic severity → SARIF result level.
_LEVELS = {
    Severity.INFO: "note",
    Severity.WARNING: "warning",
    Severity.ERROR: "error",
}

#: One-line rule descriptions, surfaced in review UIs next to the id.
_RULE_DESCRIPTIONS = {
    "unsafe-rule": "A rule variable is not bound by a positive body literal.",
    "undefined-predicate": "A body predicate is headed in no visible view.",
    "arity-clash": "One predicate name is used with conflicting arities.",
    "unused-head": "A derived predicate never occurs in a rule body.",
    "unreachable-component": "No other component's view sees this component.",
    "potential-defeat": "Contradicting rules in unordered components can defeat each other.",
    "function-growth": "A recursive rule grows term depth without an inferred bound.",
    "stratification": "The view's classification and whether it is a stratified Horn view.",
    "type-clash": "A call-site argument lies outside the predicate's inferred values.",
    "provably-empty": "A predicate with rules is underivable in every view.",
    "dead-rule": "A rule body is statically unsatisfiable in every view.",
}


def _rules() -> list[dict]:
    rules = []
    for code in sorted(DIAGNOSTIC_CODES):
        severity = Severity.parse(DIAGNOSTIC_CODES[code])
        rules.append(
            {
                "id": code,
                "shortDescription": {
                    "text": _RULE_DESCRIPTIONS.get(code, code)
                },
                "defaultConfiguration": {"level": _LEVELS[severity]},
            }
        )
    return rules


def sarif_log(reports: Sequence[tuple[str, StaticReport]]) -> dict:
    """A SARIF 2.1.0 log document for ``(file path, report)`` pairs.

    The result is plain JSON-serialisable data; callers dump it with
    ``json.dumps``.  Files are indexed into the run's ``artifacts``
    array and each result references its artifact by index.
    """
    from .. import __version__

    rules = _rules()
    rule_index = {r["id"]: i for i, r in enumerate(rules)}
    artifacts = [{"location": {"uri": path}} for path, _ in reports]
    results = []
    for file_index, (_path, report) in enumerate(reports):
        for d in report.diagnostics:
            message = d.message
            if d.fix_hint:
                message += f" (fix: {d.fix_hint})"
            results.append(
                {
                    "ruleId": d.code,
                    "ruleIndex": rule_index[d.code],
                    "level": _LEVELS[d.severity],
                    "message": {"text": message},
                    "locations": [
                        {
                            "physicalLocation": {
                                "artifactLocation": {
                                    "uri": artifacts[file_index]["location"]["uri"],
                                    "index": file_index,
                                }
                            },
                            "logicalLocations": [
                                {"fullyQualifiedName": d.location}
                            ],
                        }
                    ],
                }
            )
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "olp-check",
                        "version": __version__,
                        "rules": rules,
                    }
                },
                "artifacts": artifacts,
                "results": results,
                "columnKind": "unicodeCodePoints",
            }
        ],
    }
