"""The compiled (dense-integer) evaluation path.

Object-graph evaluation — hashing :class:`~repro.lang.literals.Literal`
instances through dict-backed watch lists — caps the fixpoint engine
far below hardware speed.  This package compiles one grounded view to
flat integer arrays and advances the semi-naive fixpoint over integer
deltas instead:

* :mod:`repro.core.compiled.index` — :class:`CompiledRuleIndex`: the
  literal→rule watch lists of one view, built in one pass from its
  ground rules as CSR integer arrays over the grounding-time
  :class:`~repro.grounding.grounder.AtomTable` ids.
* :mod:`repro.core.compiled.fixpoint` — :class:`DenseFixpoint`: the
  integer semi-naive kernel.  Its per-literal-id ``truth`` flags are the
  one dense form of a least model, cold and maintained alike
  (:meth:`DenseFixpoint.interpretation`); :class:`DenseModelData` is the
  derivation-ordered id list a cold :meth:`DenseFixpoint.run` returns.

The dense path *is* ``strategy="seminaive"``:
:meth:`~repro.core.transform.OrderedTransform.least_fixpoint` drives
the kernel, and the model it returns reads the kernel's flags in id
space — literal objects exist only for what a reader takes out.  See
``docs/performance.md``.
"""

from .backend import backend_name
from .fixpoint import DenseFixpoint, DenseModelData
from .index import CompiledRuleIndex

__all__ = [
    "backend_name",
    "CompiledRuleIndex",
    "DenseFixpoint",
    "DenseModelData",
]
