"""Classical logic-programming semantics (the paper's Section 3
comparison targets): positive, 3-valued, founded/stable, well-founded
and stratified semantics over ground seminegative programs."""

from .common import (
    atoms_of_total,
    base_of,
    require_positive,
    require_seminegative,
    total_interpretation,
)
from .positive import immediate_consequence, minimal_model
from .stable import (
    founded_models,
    gl_reduct,
    gl_stable_models,
    is_founded,
    is_founded_as_printed,
    is_gl_stable,
    positive_version,
    stable_models,
)
from .stratified import (
    DependencyGraph,
    dependency_graph,
    is_stratified,
    perfect_model,
    stratification,
)
from .threevalued import (
    is_three_valued_model,
    minimal_three_valued_models,
    three_valued_models,
)
from .wellfounded import WellFoundedResult, well_founded

__all__ = [
    "require_positive",
    "require_seminegative",
    "base_of",
    "total_interpretation",
    "atoms_of_total",
    "immediate_consequence",
    "minimal_model",
    "is_three_valued_model",
    "three_valued_models",
    "minimal_three_valued_models",
    "positive_version",
    "is_founded",
    "is_founded_as_printed",
    "founded_models",
    "stable_models",
    "gl_reduct",
    "is_gl_stable",
    "gl_stable_models",
    "DependencyGraph",
    "dependency_graph",
    "is_stratified",
    "stratification",
    "perfect_model",
    "WellFoundedResult",
    "well_founded",
]
