"""JSON serialization of programs, interpretations and results.

The ``.olp`` surface syntax is the human format; this module provides a
lossless structured format for toolchains (saving reproduction
artifacts, diffing models, shipping programs between processes).

Schema (stable, versioned by ``FORMAT_VERSION``):

* term — ``{"var": name}`` | ``{"const": str|int}`` |
  ``{"fn": name, "args": [term, ...]}``
* literal — ``{"pred": name, "args": [term, ...], "positive": bool}``
* expr — term | ``{"binop": op, "left": expr, "right": expr}``
* body item — literal | ``{"cmp": op, "left": expr, "right": expr}``
* rule — ``{"head": literal, "body": [item, ...]}``
* program — ``{"format": N, "components": {name: [rule, ...]},
  "order": [[low, high], ...]}``
* interpretation — ``{"literals": [literal, ...],
  "base": [literal, ...]}`` (base entries are positive literals
  standing for atoms)
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import TYPE_CHECKING, Any, Union

from .core.interpretation import Interpretation
from .lang.builtins import ArithExpr, BinaryOp, Comparison
from .lang.errors import ReproError
from .lang.literals import Atom, Literal
from .lang.program import Component, OrderedProgram
from .lang.rules import BodyItem, Rule
from .lang.terms import Compound, Constant, Term, Variable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kb.knowledge_base import KnowledgeBase

__all__ = [
    "FORMAT_VERSION",
    "term_to_dict",
    "term_from_dict",
    "literal_to_dict",
    "literal_from_dict",
    "rule_to_dict",
    "rule_from_dict",
    "program_to_dict",
    "program_from_dict",
    "interpretation_to_dict",
    "interpretation_from_dict",
    "dumps_program",
    "loads_program",
    "kb_to_dict",
    "kb_from_dict",
    "dumps_kb",
    "loads_kb",
    "kb_signature",
]

FORMAT_VERSION = 1


class SerializationError(ReproError):
    """Raised for malformed serialized data."""


# ----------------------------------------------------------------------
# Terms
# ----------------------------------------------------------------------

def term_to_dict(term: Term) -> dict[str, Any]:
    if isinstance(term, Variable):
        return {"var": term.name}
    if isinstance(term, Constant):
        return {"const": term.value}
    if isinstance(term, Compound):
        return {"fn": term.functor, "args": [term_to_dict(a) for a in term.args]}
    raise SerializationError(f"not a term: {term!r}")


def term_from_dict(data: dict[str, Any]) -> Term:
    if not isinstance(data, dict):
        raise SerializationError(f"term must be an object, got {data!r}")
    if "var" in data:
        return Variable(data["var"])
    if "const" in data:
        return Constant(data["const"])
    if "fn" in data:
        return Compound(
            data["fn"], tuple(term_from_dict(a) for a in data.get("args", []))
        )
    raise SerializationError(f"unknown term shape: {data!r}")


# ----------------------------------------------------------------------
# Literals
# ----------------------------------------------------------------------

def literal_to_dict(literal: Literal) -> dict[str, Any]:
    return {
        "pred": literal.predicate,
        "args": [term_to_dict(a) for a in literal.args],
        "positive": literal.positive,
    }


def literal_from_dict(data: dict[str, Any]) -> Literal:
    try:
        atom = Atom(
            data["pred"], tuple(term_from_dict(a) for a in data.get("args", []))
        )
        return Literal(atom, bool(data.get("positive", True)))
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(f"bad literal {data!r}: {error}") from error


# ----------------------------------------------------------------------
# Expressions, guards, rules
# ----------------------------------------------------------------------

def _expr_to_dict(expr: ArithExpr) -> dict[str, Any]:
    if isinstance(expr, BinaryOp):
        return {
            "binop": expr.op,
            "left": _expr_to_dict(expr.left),
            "right": _expr_to_dict(expr.right),
        }
    return term_to_dict(expr)


def _expr_from_dict(data: dict[str, Any]) -> ArithExpr:
    if isinstance(data, dict) and "binop" in data:
        return BinaryOp(
            data["binop"],
            _expr_from_dict(data["left"]),
            _expr_from_dict(data["right"]),
        )
    return term_from_dict(data)


def _body_item_to_dict(item: BodyItem) -> dict[str, Any]:
    if isinstance(item, Comparison):
        return {
            "cmp": item.op,
            "left": _expr_to_dict(item.left),
            "right": _expr_to_dict(item.right),
        }
    return literal_to_dict(item)


def _body_item_from_dict(data: dict[str, Any]) -> BodyItem:
    if isinstance(data, dict) and "cmp" in data:
        return Comparison(
            data["cmp"], _expr_from_dict(data["left"]), _expr_from_dict(data["right"])
        )
    return literal_from_dict(data)


def rule_to_dict(r: Rule) -> dict[str, Any]:
    return {
        "head": literal_to_dict(r.head),
        "body": [_body_item_to_dict(item) for item in r.body],
    }


def rule_from_dict(data: dict[str, Any]) -> Rule:
    try:
        return Rule(
            literal_from_dict(data["head"]),
            tuple(_body_item_from_dict(item) for item in data.get("body", [])),
        )
    except (KeyError, TypeError) as error:
        raise SerializationError(f"bad rule {data!r}: {error}") from error


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------

def program_to_dict(program: OrderedProgram) -> dict[str, Any]:
    return {
        "format": FORMAT_VERSION,
        "components": {
            comp.name: [rule_to_dict(r) for r in comp.rules]
            for comp in program.components()
        },
        "order": sorted(
            [list(pair) for pair in program.order.covering_pairs()]
        ),
    }


def program_from_dict(data: dict[str, Any]) -> OrderedProgram:
    version = data.get("format")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported format version {version!r} (expected {FORMAT_VERSION})"
        )
    try:
        components = [
            Component(name, [rule_from_dict(r) for r in rules])
            for name, rules in data["components"].items()
        ]
        order = [tuple(pair) for pair in data.get("order", [])]
    except (KeyError, TypeError) as error:
        raise SerializationError(f"bad program payload: {error}") from error
    return OrderedProgram(components, order)


def dumps_program(program: OrderedProgram, indent: Union[int, None] = 2) -> str:
    """Serialize a program to a JSON string."""
    return json.dumps(program_to_dict(program), indent=indent, sort_keys=True)


def loads_program(text: str) -> OrderedProgram:
    """Parse a program from its JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise SerializationError(f"invalid JSON: {error}") from error
    return program_from_dict(data)


# ----------------------------------------------------------------------
# Interpretations
# ----------------------------------------------------------------------

def interpretation_to_dict(interp: Interpretation) -> dict[str, Any]:
    return {
        "literals": [literal_to_dict(l) for l in sorted(interp.literals)],
        "base": [
            literal_to_dict(Literal(atom, True))
            for atom in sorted(interp.base, key=str)
        ],
    }


def interpretation_from_dict(data: dict[str, Any]) -> Interpretation:
    try:
        literals = [literal_from_dict(l) for l in data.get("literals", [])]
        base = frozenset(
            literal_from_dict(l).atom for l in data.get("base", [])
        )
    except (KeyError, TypeError) as error:
        raise SerializationError(f"bad interpretation payload: {error}") from error
    return Interpretation(literals, base or None)


# ----------------------------------------------------------------------
# Knowledge bases (state snapshot / restore for the query server)
# ----------------------------------------------------------------------

def kb_to_dict(kb: "KnowledgeBase") -> dict[str, Any]:
    """A full :class:`~repro.kb.knowledge_base.KnowledgeBase` snapshot:
    every object's told rules, the raw isa order, and the engine
    configuration — everything :func:`kb_from_dict` needs to rebuild an
    equivalent instance (cached views are derived state and excluded)."""
    program = kb.program()
    return {
        "format": FORMAT_VERSION,
        "objects": {
            comp.name: [rule_to_dict(r) for r in comp.rules]
            for comp in program.components()
        },
        "order": sorted(list(pair) for pair in program.order.pairs()),
        "config": {
            "grounding": dataclasses.asdict(kb.grounding),
            "budget": dataclasses.asdict(kb.budget),
        },
    }


def kb_from_dict(data: dict[str, Any]) -> "KnowledgeBase":
    """Rebuild a knowledge base from its :func:`kb_to_dict` payload."""
    from .core.solver import SearchBudget
    from .grounding.grounder import GroundingOptions
    from .kb.knowledge_base import KnowledgeBase

    version = data.get("format")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported format version {version!r} (expected {FORMAT_VERSION})"
        )
    config = data.get("config", {})
    try:
        components = [
            Component(name, [rule_from_dict(r) for r in rules])
            for name, rules in data["objects"].items()
        ]
        order = [(low, high) for low, high in data.get("order", [])]
        grounding_config = dict(config.get("grounding", {}))
        # Dumps and WAL checkpoints written before these knobs were
        # removed carry them (and a "maintenance" section beside
        # "grounding"); any value now means today's behaviour.
        grounding_config.pop("domain_pruning", None)
        grounding_config.pop("full_base", None)
        grounding = GroundingOptions(**grounding_config)
        budget = SearchBudget(**config.get("budget", {}))
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(f"bad knowledge-base payload: {error}") from error
    return KnowledgeBase.from_program(
        OrderedProgram(components, order),
        grounding=grounding,
        budget=budget,
    )


def dumps_kb(kb: "KnowledgeBase", indent: Union[int, None] = 2) -> str:
    """Serialize a knowledge base to a JSON string."""
    return json.dumps(kb_to_dict(kb), indent=indent, sort_keys=True)


def loads_kb(text: str) -> "KnowledgeBase":
    """Rebuild a knowledge base from its JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise SerializationError(f"invalid JSON: {error}") from error
    return kb_from_dict(data)


def kb_signature(kb: "KnowledgeBase") -> str:
    """A stable content hash of a knowledge base's full serialized
    state (told rules, isa order, engine configuration).

    Two knowledge bases with equal signatures serialize identically —
    the bit-identity predicate the crash-recovery and replication
    differential suites assert against their oracles."""
    payload = json.dumps(
        kb_to_dict(kb), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
