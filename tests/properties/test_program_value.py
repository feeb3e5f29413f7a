"""The knowledge base holds ONE immutable program value.

Random ``define``/``tell``/``retract``/``isa``/``assume_closed`` traces
are mirrored into a plain op log; after every step ``kb.program()`` must
equal the :class:`OrderedProgram` rebuilt from that log from scratch —
rule order included, since it is what ``serialize.dumps_kb`` writes —
a rejected op must leave the held value untouched, and every cached
view's own successor chain must agree with it on that view's ``C*``
(a warm view is deliberately blind to objects it cannot see) and keep
the least model a cold evaluation of the held program computes.
"""

from __future__ import annotations

import random

import pytest

from repro.core.semantics import OrderedSemantics
from repro.kb import KnowledgeBase
from repro.lang.errors import InconsistencyError, OrderError, SemanticsError
from repro.lang.parser import parse_rules
from repro.lang.program import Component, OrderedProgram
from repro.serialize import dumps_kb

TRACES = 60
TRACE_LENGTH = 25
DEFAULTS = KnowledgeBase.DEFAULTS_OBJECT

CONSTANTS = ["a", "b", "c"]
STRUCTURAL_RULES = [
    "q(X) :- p(X).",
    "-q(X) :- r(X).",
    "p(a) :- 1 < 2.",
    "p(X).",
]


def rebuilt(log):
    """The op log's meaning, spelt out over plain lists and pairs."""
    rules: dict[str, list] = {}
    pairs: set[tuple[str, str]] = set()
    for kind, name, arg in log:
        if kind == "define":
            source, isa = arg
            rules[name] = parse_rules(source)
            pairs.update((name, parent) for parent in isa)
            if DEFAULTS in rules:
                pairs.add((name, DEFAULTS))
        elif kind == "tell":
            rules[name].extend(parse_rules(arg))
        elif kind == "retract":
            for r in parse_rules(arg):
                rules[name].remove(r)
        elif kind == "isa":
            pairs.add((name, arg))
        else:  # assume_closed: name is the predicate, arg the polarity
            head = parse_rules(f"{'-' if arg else ''}{name}(X1).")[0]
            rules.setdefault(DEFAULTS, []).append(head)
            pairs.update((obj, DEFAULTS) for obj in rules if obj != DEFAULTS)
    return OrderedProgram(
        [Component(name, body) for name, body in rules.items()], pairs
    )


def random_fact(rng):
    return f"{rng.choice('pr')}({rng.choice(CONSTANTS)})."


def random_step(rng, kb, told):
    """One random op as ``(log entry, thunk applying it to kb)``."""
    objects = sorted(kb.objects - {DEFAULTS})
    roll = rng.random()
    if not objects or roll < 0.15:
        name = f"o{len(kb.objects)}"
        isa = rng.sample(objects, k=min(len(objects), rng.randint(0, 2)))
        source = " ".join(
            rng.choice(STRUCTURAL_RULES + [random_fact(rng)])
            for _ in range(rng.randint(0, 2))
        )
        return ("define", name, (source, isa)), lambda: kb.define(
            name, source, isa=isa
        )
    name = rng.choice(objects)
    if roll < 0.50:
        text = " ".join(random_fact(rng) for _ in range(rng.randint(1, 2)))
        return ("tell", name, text), lambda: kb.tell(name, text)
    if roll < 0.60:
        text = rng.choice(STRUCTURAL_RULES)
        return ("tell", name, text), lambda: kb.tell(name, text)
    if roll < 0.85:
        # Mostly facts that were told somewhere, sometimes never here.
        text = rng.choice(told) if told and rng.random() < 0.8 else random_fact(rng)
        return ("retract", name, text), lambda: kb.retract(name, text)
    if roll < 0.93:
        parent = rng.choice(objects)
        return ("isa", name, parent), lambda: kb.isa(name, parent)
    predicate, negative = rng.choice("pqr"), rng.random() < 0.7
    return ("assume_closed", predicate, negative), lambda: kb.assume_closed(
        predicate, 1, negative=negative
    )


def assert_same_value(kb, log, context):
    expected = rebuilt(log)
    held = kb.program()
    assert held is kb.program(), context
    assert held == expected, context
    for comp in expected.components():
        assert held.component(comp.name).rules == comp.rules, context
    assert KnowledgeBase.from_program(held).program() == held, context
    assert dumps_kb(kb) == dumps_kb(KnowledgeBase.from_program(expected)), context
    for name in list(kb._semantics_cache):
        view = kb.view(name)  # flushes the queued deltas through its own chain
        assert view.program.visible_rules(name) == held.visible_rules(name), (
            f"{context}: view {name}"
        )
        try:
            cold = OrderedSemantics(held, name).least_model.literals
        except InconsistencyError:
            continue
        assert view.least_model.literals == cold, f"{context}: view {name}"


@pytest.mark.parametrize("seed", range(TRACES))
def test_random_traces_hold_the_program_the_log_describes(seed):
    rng = random.Random(seed)
    kb = KnowledgeBase()
    log: list = []
    told: list[str] = []
    for step in range(TRACE_LENGTH):
        entry, apply = random_step(rng, kb, told)
        before = kb.program()
        try:
            apply()
        except (SemanticsError, OrderError):
            # never-told retraction, isa cycle: rejected atomically
            assert kb.program() is before, (seed, step, entry)
            continue
        log.append(entry)
        if entry[0] == "tell":
            told.append(entry[2])
        if rng.random() < 0.3 and kb.objects - {DEFAULTS}:
            kb.view(rng.choice(sorted(kb.objects - {DEFAULTS})))  # warm a view
        assert_same_value(kb, log, (seed, step, entry))
