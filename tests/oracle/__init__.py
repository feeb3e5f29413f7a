"""The oracle matrix: one row table of programs, one oracle per
(row, view) — naive ``V`` over the full instantiation — and one column
per engine configuration, each checked against that oracle.

* :mod:`.scale` — ``ORACLE_SCALE``, the one knob that sizes every
  random row family;
* :mod:`.rows` — the row table: paper figures and examples, workloads
  and the seeded random families;
* :mod:`.oracle` — the shared oracle, and the serialized replay the
  serving column is held to;
* :mod:`.columns` and :mod:`.serving` — the columns' cell checks.

Each column's pytest entry points parametrize one column over one row
family; docs/evaluation.md ("Oracle matrix") has the table.
"""
