"""Per-PR trajectory of the end-to-end metrics (ROADMAP item 1c).

    python3 benchmarks/e2e/trend.py --label pr12      # measure, record, print
    python3 benchmarks/e2e/trend.py                   # print the history only

``--label`` runs every workload once (untraced, on ``--seed``), writes the
summary to ``history/BENCH_<label>.json`` and prints, per workload, every
end-to-end metric across the committed history files.  One file per PR,
never overwritten by a later one: the numbers keep their history.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e.common import HERE, OUT, invoke, load_spec, write_json  # noqa: E402

HISTORY = HERE / "history"


def record(label: str, seed: int) -> Path:
    spec = load_spec()
    summary = {"label": label, "seed": seed, "seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        result = invoke(workload, seed, spec["run_seconds"])
        with open(OUT / f"result-{workload}.json") as handle:
            summary["environment"] = json.load(handle)["environment"]
        summary["workloads"][workload] = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        }
    path = HISTORY / f"BENCH_{label}.json"
    write_json(path, summary)
    return path


def _order(path: Path):
    """History files in PR order: ``BENCH_pr9`` before ``BENCH_pr11``."""
    digits = re.findall(r"\d+", path.stem)
    return (int(digits[-1]) if digits else 0, path.stem)


def table() -> str:
    spec = load_spec()
    entries = []
    for path in sorted(HISTORY.glob("BENCH_*.json"), key=_order):
        with open(path) as handle:
            entries.append(json.load(handle))
    lines = []
    labels = [entry["label"] for entry in entries]
    for workload in (w["name"] for w in spec["workloads"]):
        lines.append(f"== {workload}")
        lines.append(f"  {'metric':20s} {'unit':5s}" + "".join(f"{label:>14s}" for label in labels))
        for metric in spec["end_to_end"]:
            cells = []
            for entry in entries:
                value = entry["workloads"].get(workload, {}).get("metrics", {}).get(metric["name"])
                cells.append(f"{value:14.4f}" if value is not None else f"{'-':>14s}")
            lines.append(f"  {metric['name']:20s} {metric['unit']:5s}" + "".join(cells))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="measure now and record as history/BENCH_<label>.json")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.label is not None:
        if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
            parser.error("--label must be letters, digits, '_', '.' or '-'")
        print(f"recorded {record(args.label, args.seed)}")
    print(table())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
