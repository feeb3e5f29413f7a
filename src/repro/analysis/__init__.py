"""Program analysis: static checks, conflict graphs and statistics."""

from .abstract import (
    AbstractAnalysis,
    CardInterval,
    PredicateFacts,
    Sort,
    analyze_rules,
    analyze_view,
    analyze_whole_program,
)
from .conflicts import Conflict, ConflictKind, conflict_summary, find_conflicts
from .hasse import hasse_layers, render_hasse
from .lint import LintWarning, lint_component, lint_program
from .sarif import sarif_log
from .static import (
    Diagnostic,
    EdgeKind,
    OrderRelation,
    PredicateDependencyGraph,
    Severity,
    StaticReport,
    ViewClassification,
    analyze_program,
    build_pdg,
    classify_view,
)
from .stats import ProgramStats, program_size, program_stats

__all__ = [
    "AbstractAnalysis",
    "CardInterval",
    "PredicateFacts",
    "Sort",
    "analyze_rules",
    "analyze_view",
    "analyze_whole_program",
    "sarif_log",
    "Conflict",
    "ConflictKind",
    "find_conflicts",
    "conflict_summary",
    "hasse_layers",
    "render_hasse",
    "LintWarning",
    "lint_component",
    "lint_program",
    "Diagnostic",
    "EdgeKind",
    "OrderRelation",
    "PredicateDependencyGraph",
    "Severity",
    "StaticReport",
    "ViewClassification",
    "analyze_program",
    "build_pdg",
    "classify_view",
    "ProgramStats",
    "program_size",
    "program_stats",
]
