"""The benchmark package: ``benchmarks/e2e``, the end-to-end and
per-layer harness that ``BENCHMARK.json`` declares.

Clocks live only there.  The paper's shapes and the engine's work
counts are asserted by the tier-1 tests under ``tests/``.
"""
