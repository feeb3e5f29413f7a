"""Workload ``cold_eval``: cold in-process evaluation, no server.

Five programs are rendered to ``.olp`` text in set-up; every pass then
runs ``parse_program(src)`` → ``OrderedSemantics(p, view).least_model`` →
``answers_in(model, goal)`` (or ``.models()``) on fresh objects.  The
programs are interleaved round-robin so that a slow spell of the host
touches a minority of each program's passes.  A thread times speed probes
while the passes run (``common.SpeedSampler``); the per-program figure is
the median over passes of the pass time at reference speed.

The oracle is ``oracle/cold_eval.json``: model and answer digests
computed once by ``strategy="naive"`` (``make_oracle.py``), never by the
engine under test.  ``--seed`` shuffles the rule order inside every
component, which changes the text the parser and grounder see but not
the model, so one committed oracle covers every seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.analysis.static import classify_view
from repro.classical.stratified import stratified_least_model
from repro.core.compiled.fixpoint import DenseFixpoint
from repro.core.interpretation import Interpretation
from repro.core.semantics import OrderedSemantics
from repro.core.solver import ModelEnumerator, SearchBudget
from repro.core.statuses import ComponentOrder, StatusEvaluator
from repro.grounding.grounder import Grounder, GroundingOptions
from repro.kb.query import answers_in
from repro.lang.literals import Literal
from repro.lang.parser import parse_program
from repro.lang.printer import render_program
from repro.lang.program import Component, OrderedProgram
from repro.obs import instrumented
from repro.workloads import diamond, forest_program, release_chain, session_program
from repro.workloads.paper import scaled_figure2

from .common import (
    HERE,
    SERVING_CPU,
    SpeedSampler,
    geomean,
    median,
    peak_rss_mb,
    pin,
    ratio,
)

ORACLE_PATH = HERE / "oracle" / "cold_eval.json"

#: Set-ups timed per run; the median is ``setup_s``.  A set-up is a
#: quarter of a second here, so it takes more of them to steady the median.
SETUP_REPEATS = 7

#: Fewest round-robin cycles, however short ``--seconds`` is.
MIN_CYCLES = 2

#: Layer rows of the staged pass, in pipeline order.
LAYERS = (
    "lang.parse_ms",
    "analysis.classify_ms",
    "grounding.ground_ms",
    "core.incremental.index_ms",
    "core.compiled.fixpoint_ms",
    "classical.stratified.closure_ms",
    "core.interpretation.decode_ms",
    "kb.query.match_ms",
    "core.solver.enumerate_ms",
)


@dataclass(frozen=True)
class ProgramSpec:
    name: str
    #: Short name of the program's ``eval.<row>_ms`` per-layer metric (the
    #: same row in full and ``--quick`` runs, whatever the size).
    row: str
    build: Callable[[], OrderedProgram]
    view: str
    #: Goal pattern answered from the least model; None = enumerate
    #: ``.models()`` instead.
    goal: Optional[str]


FOREST = ProgramSpec(
    "forest_3x3", "forest", lambda: forest_program(3, depth=3), "main", "owns(P, N)"
)
FOREST_QUICK = ProgramSpec(
    "forest_2x3", "forest", lambda: forest_program(2, depth=3), "main", "owns(P, N)"
)
OTHERS = (
    ProgramSpec(
        "session_8x256", "session", lambda: session_program(8, 256), "level0", "-member(X)"
    ),
    ProgramSpec(
        "release_chain_1024", "release_chain", lambda: release_chain(1024), "threats", "p(X)"
    ),
    ProgramSpec(
        "figure2_x2000", "figure2", lambda: scaled_figure2(2000, 500), "c1", "free_ticket(X)"
    ),
    ProgramSpec("diamond_8.models", "diamond_models", lambda: diamond(8), "bottom", None),
)


def programs(quick: bool) -> tuple[ProgramSpec, ...]:
    return ((FOREST_QUICK if quick else FOREST), *OTHERS)


# ----------------------------------------------------------------------
# Digests (shared with make_oracle.py)
# ----------------------------------------------------------------------
def _digest(strings) -> str:
    joined = "\n".join(sorted(strings))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def model_digest(model: Interpretation) -> str:
    return _digest(str(l) for l in model.literals)


def models_digest(models) -> str:
    return _digest(model_digest(m) for m in models)


def answers_digest(answers) -> str:
    return _digest(str(a.literal) for a in answers)


def evaluate(spec: ProgramSpec, sem: OrderedSemantics):
    """What a pass computes: the model set, or the least model and the
    goal's answers."""
    if spec.goal is None:
        return sem.models()
    model = sem.least_model
    return model, answers_in(model, spec.goal)


def observed(spec: ProgramSpec, output) -> dict:
    """The output of :func:`evaluate`, in the oracle file's shape."""
    if spec.goal is None:
        return {"models": len(output), "models_sha256": models_digest(output)}
    model, answers = output
    return {
        "model_size": len(model.literals),
        "model_sha256": model_digest(model),
        "answers": len(answers),
        "answers_sha256": answers_digest(answers),
    }


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def shuffled_source(spec: ProgramSpec, seed: int) -> str:
    """The program as ``.olp`` text, rules shuffled inside each component."""
    program = spec.build()
    rng = random.Random(f"{seed}:{spec.name}")
    components = []
    for comp in program.components():
        rules = list(comp.rules)
        rng.shuffle(rules)
        components.append(Component(comp.name, rules))
    return render_program(OrderedProgram(components, program.order.pairs()))


def set_up(specs, seed: int) -> tuple[dict[str, str], dict]:
    sources = {spec.name: shuffled_source(spec, seed) for spec in specs}
    with open(ORACLE_PATH) as handle:
        oracle = json.load(handle)
    return sources, oracle


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def api_pass(spec: ProgramSpec, src: str) -> tuple[float, object]:
    """One cold pass through the public API; returns its wall time and its
    output (verified by the caller outside the timed region)."""
    gc.collect()
    t0 = time.perf_counter()
    output = evaluate(spec, OrderedSemantics(parse_program(src), spec.view))
    return time.perf_counter() - t0, output


def staged_pass(spec: ProgramSpec, src: str) -> tuple[dict[str, float], float, dict]:
    """The same work as :func:`api_pass`, one public layer call at a time.

    Returns ``(layer seconds, wall seconds, counts)``.  The calls mirror
    what ``OrderedSemantics`` does internally for the route the view
    takes; ``layers.staged_vs_api_ratio`` holds the mirror to account.
    """
    gc.collect()
    lap: dict[str, float] = {}
    clock = time.perf_counter
    start = t = clock()

    def mark(layer: str) -> None:
        nonlocal t
        now = clock()
        lap[layer] = lap.get(layer, 0.0) + (now - t)
        t = now

    program = parse_program(src)
    mark("lang.parse_ms")
    routed = False
    if spec.goal is not None:
        routed = classify_view(program, spec.view).routable
        mark("analysis.classify_ms")
    ground = Grounder(GroundingOptions()).ground_component_star(program, spec.view)
    mark("grounding.ground_ms")
    atoms = compiled = dense = models = model = answers = None
    if routed:
        rules = tuple(
            r for comp in program.visible_components(spec.view) for r in comp.rules
        )
        atoms = stratified_least_model(rules, ground.rules)
        mark("classical.stratified.closure_ms")
        model = Interpretation(tuple(Literal(a, True) for a in atoms), ground.base)
    else:
        evaluator = StatusEvaluator(
            ground.rules, ComponentOrder(program.order), atom_table=ground.atom_table
        )
        compiled = evaluator.index.compiled
        mark("core.incremental.index_ms")
        if spec.goal is None:
            models = ModelEnumerator(
                evaluator, ground.base, SearchBudget(), strategy="seminaive"
            ).models()
            mark("core.solver.enumerate_ms")
        else:
            dense = DenseFixpoint(compiled)
            data = dense.run(2 * len(ground.base) + 2)
            mark("core.compiled.fixpoint_ms")
            model = Interpretation.deferred(data.literals, ground.base)
    if model is not None:
        len(model.literals)
        mark("core.interpretation.decode_ms")
        answers = answers_in(model, spec.goal)
        mark("kb.query.match_ms")
    wall = clock() - start

    # Counts are taken after the clock stops: they are bookkeeping, not a layer.
    counts: dict[str, float] = {
        "lang.rules": sum(len(c.rules) for c in program.components()),
        "grounding.ground_rules": len(ground.rules),
        "grounding.atoms": len(ground.base),
    }
    if spec.goal is not None:
        counts["analysis.routed"] = 1.0 if routed else 0.0
        counts["kb.query.answers"] = len(answers)
    if atoms is not None:
        counts["grounding.rules_fired"] = sum(
            1
            for r in ground.rules
            if r.head.atom in atoms and all(l.positive and l.atom in atoms for l in r.body)
        )
    if compiled is not None:
        counts["core.incremental.watch_entries"] = (
            len(compiled.body_watch_rules)
            + len(compiled.block_watch_rules)
            + len(compiled.contra_watchers)
        )
    if dense is not None:
        counts["core.compiled.stages"] = len(dense.stage_ids)
        counts["core.compiled.rules_fired"] = sum(dense.fired)
        counts["grounding.rules_fired"] = counts["core.compiled.rules_fired"]
    if models is not None:
        counts["core.solver.models"] = len(models)
    return lap, wall, counts


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    pin(0, SERVING_CPU)
    with SpeedSampler() as sampler:
        return _run(sampler, seed, seconds, trace, quick)


def _run(sampler: SpeedSampler, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    specs = programs(quick)
    setup_times = []
    for _ in range(1 if quick else SETUP_REPEATS):
        t0 = time.perf_counter()
        sources, oracle = set_up(specs, seed)
        t1 = time.perf_counter()
        setup_times.append((t1 - t0) / sampler.slowdown(t0, t1))

    attempted = failed = 0
    mismatches: list[str] = []
    api: dict[str, list[float]] = {spec.name: [] for spec in specs}
    at_reference: dict[str, list[float]] = {spec.name: [] for spec in specs}
    slowdowns: list[float] = []
    staged: dict[str, list[tuple[float, dict, dict]]] = {spec.name: [] for spec in specs}
    counted: dict[str, list[tuple[float, dict]]] = {spec.name: [] for spec in specs}

    started = time.perf_counter()
    cycles = 0
    while True:
        cycle_start = time.perf_counter()
        for spec in specs:
            src = sources[spec.name]
            elapsed, output = api_pass(spec, src)
            now = time.perf_counter()
            slowdowns.append(sampler.slowdown(now - elapsed, now))
            api[spec.name].append(elapsed)
            at_reference[spec.name].append(elapsed / slowdowns[-1])
            attempted += 1
            got, want = observed(spec, output), oracle.get(spec.name)
            if got != want:
                failed += 1
                mismatches.append(f"{spec.name}: got {got}, oracle says {want}")
            del output
            if trace:
                lap, wall, counts = staged_pass(spec, src)
                staged[spec.name].append((wall, lap, counts))
                with instrumented() as obs:
                    _, wall, _ = staged_pass(spec, src)
                    counted[spec.name].append((wall, obs.snapshot()["counters"]))
        cycles += 1
        now = time.perf_counter()
        if cycles >= MIN_CYCLES and (now - started) + (now - cycle_start) > seconds:
            break

    best = {name: min(times) for name, times in api.items()}
    medians = {name: median(times) for name, times in api.items()}
    reference = {name: median(times) for name, times in at_reference.items()}
    values: dict[str, float] = {
        "setup_s": median(setup_times),
        "throughput_ops_s": len(specs) / sum(reference.values()),
        "read_p50_ms": geomean(list(reference.values())) * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    detail: dict = {
        "cycles": cycles,
        "host_slowdown": median(slowdowns),
        "programs": {
            name: {
                "at_reference_ms": reference[name] * 1000.0,
                "best_ms": best[name] * 1000.0,
                "median_ms": medians[name] * 1000.0,
                "pass_ms": [t * 1000.0 for t in api[name]],
            }
            for name in best
        },
        "mismatches": mismatches,
        "notes": [
            f"speed probes ran {median(slowdowns):.2f}x their reference time during the "
            f"median pass (least {min(slowdowns):.2f}x, most {max(slowdowns):.2f}x)",
            *(
                f"{name}: {reference[name] * 1000.0:.1f} ms at reference speed; wall clock "
                f"best {best[name] * 1000.0:.1f} ms, median {medians[name] * 1000.0:.1f} ms "
                f"over {len(api[name])} passes"
                for name in best
            ),
        ],
    }
    if trace:
        values["host.slowdown_ratio"] = median(slowdowns)
        values["eval_geomean_ms"] = geomean(list(medians.values())) * 1000.0
        values["eval_total_s"] = sum(medians.values())
        values.update(_layer_metrics(specs, best, staged, counted, detail))
    return {
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "detail": detail,
        "fsync": None,
    }


def _layer_metrics(specs, best, staged, counted, detail) -> dict[str, float]:
    """Per-layer rows, summed over the programs.  Each program contributes
    its fastest staged pass — one coherent pass, not a mix of medians."""
    values: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    coverage = []
    staged_total = api_total = traced_total = 0.0
    summed: dict[str, float] = {}
    table = {}
    for spec in specs:
        name = spec.name
        wall, lap, counts = min(staged[name], key=lambda entry: entry[0])
        traced_wall, counters = min(counted[name], key=lambda entry: entry[0])
        layer_ms = {layer: lap.get(layer, 0.0) * 1000.0 for layer in LAYERS}
        for layer, ms in layer_ms.items():
            values[layer] += ms
        coverage.append(ratio(sum(lap.values()), wall))
        staged_total += wall
        api_total += best[name]
        traced_total += traced_wall
        counts = dict(counts)
        counts["grounding.substitutions_tried"] = counters.get("ground.substitutions_tried", 0)
        counts["core.solver.leaves_visited"] = counters.get("search.leaves_visited", 0)
        for key, value in counts.items():
            summed[key] = summed.get(key, 0.0) + value
        table[name] = {
            "layers_ms": layer_ms,
            "staged_wall_ms": wall * 1000.0,
            "api_ms": best[name] * 1000.0,
            "coverage_ratio": coverage[-1],
            "counts": counts,
        }
        values[f"eval.{spec.row}_ms"] = best[name] * 1000.0
    detail["layers"] = table
    detail["notes"] += [
        f"{name}: staged {row['staged_wall_ms']:.1f} ms = "
        + " + ".join(
            f"{layer.rsplit('.', 1)[-1][:-3]} {ms:.1f}"
            for layer, ms in row["layers_ms"].items()
            if ms >= 0.05
        )
        for name, row in table.items()
    ]
    fired = summed.pop("grounding.rules_fired", 0.0)
    values.update(summed)
    values["grounding.useful_ratio"] = ratio(fired, summed["grounding.ground_rules"])
    values["layers.coverage_ratio"] = ratio(
        sum(values[layer] for layer in LAYERS), staged_total * 1000.0
    )
    values["layers.coverage_ratio_min"] = min(coverage)
    values["layers.coverage_ratio_max"] = max(coverage)
    values["layers.staged_vs_api_ratio"] = ratio(staged_total, api_total)
    values["trace.overhead_ratio"] = ratio(traced_total, staged_total)
    return values
