"""Noise self-check: every workload twice on the same code and seed.

A benchmark whose two readings of one commit differ by more than the
regression bound cannot tell a regression from noise.  For each end-to-end
metric the verdict is

* ``unchanged``  — the readings differ by at most a third of the bound;
* ``unresolved`` — they differ by more than that but stay inside the bound:
  noise of the bound's own order, so a regression of that size would not
  be resolved by a single pair of runs;
* ``DIFFERS``    — they differ by more than the bound: the check fails.
"""

from __future__ import annotations

from .common import invoke, load_spec


def verdict(first: float, second: float, bound: float) -> tuple[str, float]:
    low = min(first, second)
    spread = abs(first - second) / low if low else float("inf")
    if spread > bound:
        return "DIFFERS", spread
    if spread > bound / 3.0:
        return "unresolved", spread
    return "unchanged", spread


def selfcheck(seed: int, seconds: float, quick: bool) -> int:
    spec = load_spec()
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        first = invoke(workload, seed, seconds, quick=quick)
        second = invoke(workload, seed, seconds, quick=quick)
        print(f"== {workload} (seed {seed}, {seconds:g} s)")
        for run_index, result in enumerate((first, second), start=1):
            if not result["correct"]:
                failures += 1
                print(f"  run {run_index}: {result['failed']} of {result['attempted']} "
                      "outputs wrong")
        for entry in spec["end_to_end"]:
            name = entry["name"]
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            word, spread = verdict(a, b, entry["bound"])
            if word == "DIFFERS":
                failures += 1
            print(f"  {name:20s} {a:12.4f} {b:12.4f} {entry['unit']:5s} "
                  f"differ {spread * 100:6.2f} %  bound {entry['bound'] * 100:4.1f} %  {word}")
    print("selfcheck: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0
