"""Grounding: substitutions, Herbrand universe/base, the compiled join
(:mod:`repro.grounding.joins`, shared with :mod:`repro.query`), rule
instantiation."""

from .grounder import AtomTable, Grounder, GroundingOptions, GroundProgram, GroundRule
from .herbrand import HerbrandUniverse, herbrand_base, universe_of
from .substitution import Substitution, match, match_atom, unify, unify_atoms

__all__ = [
    "Substitution",
    "match",
    "match_atom",
    "unify",
    "unify_atoms",
    "HerbrandUniverse",
    "herbrand_base",
    "universe_of",
    "AtomTable",
    "Grounder",
    "GroundingOptions",
    "GroundProgram",
    "GroundRule",
]
