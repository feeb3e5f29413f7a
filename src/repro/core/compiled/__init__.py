"""The compiled (dense-integer) evaluation path.

Object-graph evaluation — hashing :class:`~repro.lang.literals.Literal`
instances through dict-backed watch lists — caps the fixpoint engine
far below hardware speed.  This package compiles one grounded view to
flat integer arrays and advances the semi-naive fixpoint over integer
deltas instead:

* :mod:`repro.core.compiled.backend` — bitset storage: numpy ``uint64``
  arrays when numpy is installed (the ``repro[fast]`` extra), a pure
  python ``array('Q')`` fallback otherwise.  Selection is import-guarded
  and overridable (``REPRO_DENSE_BACKEND``, :func:`use_backend`).
* :mod:`repro.core.compiled.index` — :class:`CompiledRuleIndex`: the
  literal→rule watch lists of one view, built in one pass from its
  ground rules as CSR integer arrays over the grounding-time
  :class:`~repro.grounding.grounder.AtomTable` ids.
* :mod:`repro.core.compiled.fixpoint` — :class:`DenseFixpoint`: the
  integer semi-naive kernel, plus :class:`DenseModelData`, the paired
  true/false bitsets of the computed least model that materialize
  literal objects lazily at the API boundary.

The dense path *is* ``strategy="seminaive"``:
:meth:`~repro.core.transform.OrderedTransform.least_fixpoint` drives
the kernel and decodes literal objects only at the API boundary.  See
``docs/performance.md``.
"""

from .backend import available_backends, backend_name, use_backend
from .fixpoint import DenseFixpoint, DenseModelData
from .index import CompiledRuleIndex

__all__ = [
    "available_backends",
    "backend_name",
    "use_backend",
    "CompiledRuleIndex",
    "DenseFixpoint",
    "DenseModelData",
]
