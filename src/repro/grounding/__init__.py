"""Grounding: substitutions, Herbrand universe/base, the compiled join
(:mod:`repro.grounding.joins`, shared with :mod:`repro.query`), rule
instantiation."""

from .grounder import AtomTable, Grounder, GroundingOptions, GroundProgram, GroundRule
from .herbrand import HerbrandUniverse, herbrand_base, universe_of
from .substitution import Substitution, match_atom

__all__ = [
    "Substitution",
    "match_atom",
    "HerbrandUniverse",
    "herbrand_base",
    "universe_of",
    "AtomTable",
    "Grounder",
    "GroundingOptions",
    "GroundProgram",
    "GroundRule",
]
