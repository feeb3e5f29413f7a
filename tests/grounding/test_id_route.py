"""The grounder's integer instances are the index's only input.

* **Count gate** — a cold least model builds no :class:`GroundRule`
  and no :class:`Literal` between the parse and the answer: the grounder
  interns straight into ids, the index is built from them, and the
  kernel's model stays in id space.
* **Golden arrays** — the eleven watch-list arrays and the atom table
  (sha256, first 16 hex digits) of the ``cold_eval`` least-model
  sources (``benchmarks/e2e``, seed 7) and of figures 1-3 under
  relevance and full grounding, as object-level grounding produced
  them before instances became ids.
* **Two routes agree** — the index built from the grounder's ids equals
  the one built by encoding the decoded rules, and the kernel's model
  over it equals naive ``V`` over the decoded rules.
"""

from __future__ import annotations

import functools
import hashlib
import random

import pytest

from repro.core.compiled import CompiledRuleIndex, DenseFixpoint
from repro.core.semantics import OrderedSemantics
from repro.core.statuses import ComponentOrder, StatusEvaluator
from repro.core.transform import OrderedTransform
from repro.grounding.grounder import Grounder, GroundRule, GroundRules
from repro.lang.literals import Literal
from repro.lang.parser import parse_program
from repro.lang.printer import render_program
from repro.lang.program import Component, OrderedProgram
from repro.workloads import forest_program, release_chain, session_program
from repro.workloads.paper import figure1, figure2, figure3, scaled_figure2
from repro.workloads.random_programs import random_ordered_program

from ..properties.test_seminaive_differential import PAPER_PROGRAMS, WORKLOAD_PROGRAMS

ARRAYS = (
    "heads",
    "body_sizes",
    "body_watch_start",
    "body_watch_rules",
    "block_watch_start",
    "block_watch_rules",
    "contra_start",
    "contra_watchers",
    "init_live_overrulers",
    "init_live_defeaters",
    "source_facts",
)


# ----------------------------------------------------------------------
# (a) No rule or literal object on the least-model path
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "program,view",
    [
        (session_program(2, 8), "level0"),
        (release_chain(16), "threats"),
        (scaled_figure2(20, 5), "c1"),
        (forest_program(2, depth=3), "main"),
    ],
    ids=["session", "release_chain", "figure2", "forest"],
)
def test_cold_least_model_builds_no_rule_or_literal(program, view, monkeypatch):
    source = render_program(program)
    parsed = parse_program(source)
    built = {GroundRule: 0, Literal: 0}
    for cls in built:
        init = cls.__init__

        @functools.wraps(init)
        def counted(self, *args, _init=init, _cls=cls, **kwargs):
            built[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    model = OrderedSemantics(parsed, view).least_model
    assert built == {GroundRule: 0, Literal: 0}
    monkeypatch.undo()
    assert len(model.literals) == len(model) > 0


# ----------------------------------------------------------------------
# (b) Golden arrays
# ----------------------------------------------------------------------
def shuffled(name: str, program: OrderedProgram, seed: int = 7) -> OrderedProgram:
    """The program as ``cold_eval`` parses it: rendered to text with the
    rules shuffled inside each component by ``seed``."""
    rng = random.Random(f"{seed}:{name}")
    components = []
    for comp in program.components():
        rules = list(comp.rules)
        rng.shuffle(rules)
        components.append(Component(comp.name, rules))
    return parse_program(render_program(OrderedProgram(components, program.order.pairs())))


def digests(index: CompiledRuleIndex) -> tuple[str, ...]:
    texts = [",".join(map(str, getattr(index, name))) for name in ARRAYS]
    texts.append("\n".join(map(str, index.table.atoms())))
    return tuple(hashlib.sha256(text.encode()).hexdigest()[:16] for text in texts)


GOLDEN = {
    "figure1/c1": (
        "e9f885367b84d637", "62ec626594ab3789", "ff1b5ac05ab7355b", "28ea05f6824a9565",
        "1414b7a7c316d3de", "28ea05f6824a9565", "330bd78ffd7b62c7", "9f0c7f984a0e6893",
        "4130c3cdb19fc813", "b07fb9f94b78d89c", "3ac03f65658b1c22", "90df724b7bcf8a90",
    ),
    "figure1/c1/full": (
        "e9f885367b84d637", "62ec626594ab3789", "ff1b5ac05ab7355b", "28ea05f6824a9565",
        "1414b7a7c316d3de", "28ea05f6824a9565", "330bd78ffd7b62c7", "9f0c7f984a0e6893",
        "4130c3cdb19fc813", "b07fb9f94b78d89c", "3ac03f65658b1c22", "90df724b7bcf8a90",
    ),
    "figure1/c2": (
        "e56d45f76f597cc9", "10b0ab1d65dfc3b7", "f865747c83f01aff", "3704ab1d23fdebba",
        "edd9f4169ac11152", "3704ab1d23fdebba", "62da945a7dcb0cf4", "e3b0c44298fc1c14",
        "53757acada591c6b", "53757acada591c6b", "83b97b859aa5f81b", "90df724b7bcf8a90",
    ),
    "figure1/c2/full": (
        "e56d45f76f597cc9", "10b0ab1d65dfc3b7", "f865747c83f01aff", "3704ab1d23fdebba",
        "edd9f4169ac11152", "3704ab1d23fdebba", "62da945a7dcb0cf4", "e3b0c44298fc1c14",
        "53757acada591c6b", "53757acada591c6b", "83b97b859aa5f81b", "90df724b7bcf8a90",
    ),
    "figure2/c1": (
        "fa6c43f6af13955f", "3ecf2c1adff7eec8", "7d6c756f2f2b8ec6", "b56db7ba90c4b541",
        "78c35c66e4968b7e", "b56db7ba90c4b541", "b7a26374309020f5", "26b32f3607f870ea",
        "0abde004f440c1d6", "d49e43b4c6622eb4", "a7841ea775e1dff3", "1dd6f6a4be1a6af5",
    ),
    "figure2/c1/full": (
        "fa6c43f6af13955f", "3ecf2c1adff7eec8", "7d6c756f2f2b8ec6", "b56db7ba90c4b541",
        "78c35c66e4968b7e", "b56db7ba90c4b541", "b7a26374309020f5", "26b32f3607f870ea",
        "0abde004f440c1d6", "d49e43b4c6622eb4", "a7841ea775e1dff3", "1dd6f6a4be1a6af5",
    ),
    "figure2/c2": (
        "f338800d71eae1d6", "83b97b859aa5f81b", "8073739a736a79eb", "6b86b273ff34fce1",
        "4f61551b90e91a87", "6b86b273ff34fce1", "7c01691d53eb209b", "e3b0c44298fc1c14",
        "7334821429a99561", "7334821429a99561", "5feceb66ffc86f38", "974b7c44fc6a6aa4",
    ),
    "figure2/c2/full": (
        "f338800d71eae1d6", "83b97b859aa5f81b", "8073739a736a79eb", "6b86b273ff34fce1",
        "4f61551b90e91a87", "6b86b273ff34fce1", "7c01691d53eb209b", "e3b0c44298fc1c14",
        "7334821429a99561", "7334821429a99561", "5feceb66ffc86f38", "974b7c44fc6a6aa4",
    ),
    "figure2/c3": (
        "f338800d71eae1d6", "83b97b859aa5f81b", "8073739a736a79eb", "6b86b273ff34fce1",
        "4f61551b90e91a87", "6b86b273ff34fce1", "7c01691d53eb209b", "e3b0c44298fc1c14",
        "7334821429a99561", "7334821429a99561", "5feceb66ffc86f38", "824d08660658fe2a",
    ),
    "figure2/c3/full": (
        "f338800d71eae1d6", "83b97b859aa5f81b", "8073739a736a79eb", "6b86b273ff34fce1",
        "4f61551b90e91a87", "6b86b273ff34fce1", "7c01691d53eb209b", "e3b0c44298fc1c14",
        "7334821429a99561", "7334821429a99561", "5feceb66ffc86f38", "824d08660658fe2a",
    ),
    "figure2_x2000": (
        "1a7d61ac44b969c9", "0cfa54fbaf24a3d3", "6f60cd8df91fd161", "cb36ba5e6c1b1cba",
        "a863d5a21c57fde7", "cb36ba5e6c1b1cba", "47728d46d84c0e11", "d898c2606bc4edc9",
        "ef65f3ef405dc1ea", "8b9e529137659d3e", "6b1e36b536b96754", "3e864c7242bc7d9e",
    ),
    "figure3/c1": (
        "4040da0f37699687", "33dab5c505b67755", "d5d4fbaff9d6984c", "daa3eec29cac8225",
        "0d70aed0eb084830", "daa3eec29cac8225", "0abde004f440c1d6", "e3b0c44298fc1c14",
        "4040da0f37699687", "4040da0f37699687", "e3b0c44298fc1c14", "e5b372fb5ae528da",
    ),
    "figure3/c1/full": (
        "4040da0f37699687", "33dab5c505b67755", "d5d4fbaff9d6984c", "daa3eec29cac8225",
        "0d70aed0eb084830", "daa3eec29cac8225", "0abde004f440c1d6", "e3b0c44298fc1c14",
        "4040da0f37699687", "4040da0f37699687", "e3b0c44298fc1c14", "e5b372fb5ae528da",
    ),
    "figure3/c2": (
        "e3b0c44298fc1c14", "e3b0c44298fc1c14", "5feceb66ffc86f38", "e3b0c44298fc1c14",
        "5feceb66ffc86f38", "e3b0c44298fc1c14", "5feceb66ffc86f38", "e3b0c44298fc1c14",
        "e3b0c44298fc1c14", "e3b0c44298fc1c14", "e3b0c44298fc1c14", "e3b0c44298fc1c14",
    ),
    "figure3/c2/full": (
        "e3b0c44298fc1c14", "e3b0c44298fc1c14", "5feceb66ffc86f38", "e3b0c44298fc1c14",
        "5feceb66ffc86f38", "e3b0c44298fc1c14", "5feceb66ffc86f38", "e3b0c44298fc1c14",
        "e3b0c44298fc1c14", "e3b0c44298fc1c14", "e3b0c44298fc1c14", "e3b0c44298fc1c14",
    ),
    "figure3/c3": (
        "5feceb66ffc86f38", "d4735e3a265e16ee", "f6c5c2abba4b795d", "7334821429a99561",
        "30d3d0d914925319", "7334821429a99561", "7334821429a99561", "e3b0c44298fc1c14",
        "5feceb66ffc86f38", "5feceb66ffc86f38", "e3b0c44298fc1c14", "3a05feb873cee70f",
    ),
    "figure3/c3/full": (
        "5feceb66ffc86f38", "d4735e3a265e16ee", "f6c5c2abba4b795d", "7334821429a99561",
        "30d3d0d914925319", "7334821429a99561", "7334821429a99561", "e3b0c44298fc1c14",
        "5feceb66ffc86f38", "5feceb66ffc86f38", "e3b0c44298fc1c14", "3a05feb873cee70f",
    ),
    "figure3/c4": (
        "e3b0c44298fc1c14", "e3b0c44298fc1c14", "5feceb66ffc86f38", "e3b0c44298fc1c14",
        "5feceb66ffc86f38", "e3b0c44298fc1c14", "5feceb66ffc86f38", "e3b0c44298fc1c14",
        "e3b0c44298fc1c14", "e3b0c44298fc1c14", "e3b0c44298fc1c14", "e3b0c44298fc1c14",
    ),
    "figure3/c4/full": (
        "e3b0c44298fc1c14", "e3b0c44298fc1c14", "5feceb66ffc86f38", "e3b0c44298fc1c14",
        "5feceb66ffc86f38", "e3b0c44298fc1c14", "5feceb66ffc86f38", "e3b0c44298fc1c14",
        "e3b0c44298fc1c14", "e3b0c44298fc1c14", "e3b0c44298fc1c14", "e3b0c44298fc1c14",
    ),
    "forest_3x3": (
        "7be79ce95af748fb", "cfc4579767e2cd87", "5483901feb2ec970", "31efbfd8746d3a66",
        "c2c47c8161be6fe0", "31efbfd8746d3a66", "45706ba1ca519bf6", "e3b0c44298fc1c14",
        "bbbdead9b2459365", "bbbdead9b2459365", "ccc8910b3405021f", "ef8a96b71b1138fc",
    ),
    "release_chain_1024": (
        "82c3981518fb4778", "ec80e4e0ba102ba8", "0d16f3a8c8aab04f", "054590a07bfeb68f",
        "e0056073bba11181", "054590a07bfeb68f", "9034f4f1370c7062", "b1e56d5f67f1b5ce",
        "0c771c077f5dbe5e", "acaecf55e6263e4e", "340ab11db8d1a743", "fb0864c3e0dfc8d3",
    ),
    "session_8x256": (
        "f15c8cc0e3193026", "54cdbdfa5616d7c8", "b3d7388819e918ac", "642ba55f4c522405",
        "009f9967bc77b1f1", "642ba55f4c522405", "4017e98e701c1d2f", "907ce585e8d3b721",
        "e6762dbf49f4985c", "493c150d09659cd9", "2650e9efbf68b058", "235083dfba63b8f4",
    ),
}


def golden_indexes():
    for name, build, view in [
        ("forest_3x3", lambda: forest_program(3, depth=3), "main"),
        ("session_8x256", lambda: session_program(8, 256), "level0"),
        ("release_chain_1024", lambda: release_chain(1024), "threats"),
        ("figure2_x2000", lambda: scaled_figure2(2000, 500), "c1"),
    ]:
        yield name, OrderedSemantics(shuffled(name, build()), view).evaluator.index
    for name, program in [("figure1", figure1()), ("figure2", figure2()), ("figure3", figure3())]:
        for view in sorted(program.component_names):
            sem = OrderedSemantics(program, view)
            yield f"{name}/{view}", sem.evaluator.index
            yield f"{name}/{view}/full", sem.full_evaluator.index


def test_golden_index_arrays():
    seen = {}
    for name, index in golden_indexes():
        got = digests(index)
        seen[name] = [
            label
            for label, want, have in zip((*ARRAYS, "atoms"), GOLDEN[name], got)
            if want != have
        ]
    assert seen.keys() == GOLDEN.keys()
    assert not any(seen.values()), {name: bad for name, bad in seen.items() if bad}


# ----------------------------------------------------------------------
# (c) Ids and decoded objects: one index, one model
# ----------------------------------------------------------------------
def assert_routes_agree(program: OrderedProgram, component: str) -> None:
    order = ComponentOrder(program.order)
    for full in (False, True):
        ground = Grounder().ground_component_star(program, component, full=full)
        assert isinstance(ground.rules, GroundRules)
        by_ids = CompiledRuleIndex(ground.rules, order, ground.atom_table)
        decoded = list(ground.rules)
        by_objects = CompiledRuleIndex(decoded, order, ground.atom_table)
        assert by_objects.rules is not ground.rules
        for name in (*ARRAYS, "components"):
            assert list(getattr(by_ids, name)) == list(getattr(by_objects, name)), name
        assert by_ids.by_head == by_objects.by_head
        assert by_ids.n_literals == by_objects.n_literals
        for index in (by_ids, by_objects):
            start, ids = index.body_start, index.body_ids
            assert [sorted(ids[start[i] : start[i + 1]]) for i in range(index.n_rules)] == [
                sorted(map(ground.atom_table.literal_id, r.body)) for r in decoded
            ]
        run = DenseFixpoint(by_ids)
        run.run(2 * len(ground.base) + 2)
        naive = OrderedTransform(
            StatusEvaluator(decoded, order), ground.base, strategy="naive"
        ).least_fixpoint()
        assert run.interpretation(ground.base).literals == naive.literals


def test_routes_agree_on_random_programs():
    for seed in range(200):
        program = random_ordered_program(random.Random(seed))
        for component in sorted(program.component_names):
            assert_routes_agree(program, component)


@pytest.mark.parametrize(
    "program",
    [p for _, p in PAPER_PROGRAMS + WORKLOAD_PROGRAMS],
    ids=[n for n, _ in PAPER_PROGRAMS + WORKLOAD_PROGRAMS],
)
def test_routes_agree_on_paper_and_workload_programs(program):
    for component in sorted(program.component_names):
        assert_routes_agree(program, component)
