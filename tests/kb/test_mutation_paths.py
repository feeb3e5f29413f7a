"""KnowledgeBase mutation paths: fine-grained invalidation and the
delta-repair pipeline (docs/maintenance.md).

The invariant under test: a mutation of object X may only touch cached
views whose ``C*`` contains X — everything else must stay cached (same
``OrderedSemantics`` object) and keep answering without recomputation —
and a touched view must answer exactly as a cold rebuild would.

Program scheme: ordered defaults need their closed-world assumptions in
a component strictly *above* the facts that overrule them (an unblocked
specific contradictor overrules the general rule even when its body is
merely unsatisfied), so the hierarchy is

    penguin < bird < defaults        reptile (standalone at first)

with ``-bird_of/-penguin_of/-magic`` defaults in ``defaults`` and the
constants pre-declared via ``known`` facts so fact deltas stay inside
the grounded base (a brand-new constant forces a re-grounding instead).
"""

from __future__ import annotations

import pytest

from repro.kb import KnowledgeBase
from repro.lang.errors import SemanticsError
from repro.obs import instrumented


def bird_kb(**kwargs):
    kb = KnowledgeBase(**kwargs)
    kb.define(
        "defaults",
        """
        -bird_of(X) :- known(X).
        -penguin_of(X) :- known(X).
        -magic(X) :- known(X).
        """,
    )
    kb.define(
        "bird",
        """
        known(robin). known(wren). known(tweety). known(pingu). known(croc).
        fly(X) :- bird_of(X).
        """,
        isa=["defaults"],
    )
    kb.define(
        "penguin",
        """
        -fly(X) :- penguin_of(X).
        bird_of(X) :- penguin_of(X).
        """,
        isa=["bird"],
    )
    kb.define("reptile", "crawl(X) :- reptile_of(X).")
    return kb


def test_interleaved_define_tell_isa_retract():
    kb = bird_kb()
    kb.tell("penguin", "penguin_of(tweety).")
    assert kb.ask("penguin", "-fly(tweety)")
    # A new object below penguin inherits and can overrule.
    kb.define("magic_penguin", "fly(X) :- magic(X).", isa=["penguin"])
    kb.tell("magic_penguin", "penguin_of(pingu). magic(pingu).")
    assert kb.ask("magic_penguin", "fly(pingu)")
    assert not kb.ask("penguin", "fly(pingu)")  # pingu's facts live below
    # Late isa edge: reptile becomes a bird (structural for reptile views).
    kb.view("reptile")
    kb.isa("reptile", "bird")
    kb.tell("reptile", "bird_of(croc).")
    assert kb.ask("reptile", "fly(croc)")
    # Retract restores the pre-tell world at every level.
    kb.retract("penguin", "penguin_of(tweety).")
    assert not kb.ask("penguin", "-fly(tweety)")
    assert not kb.ask("penguin", "fly(tweety)")
    kb.retract("magic_penguin", "magic(pingu).")
    assert kb.ask("magic_penguin", "-fly(pingu)")  # the default returns


def test_parent_mutation_touches_only_seeing_views():
    kb = bird_kb()
    penguin_view = kb.view("penguin")
    bird_view = kb.view("bird")
    reptile_view = kb.view("reptile")
    # Telling a fact at bird dirties bird and penguin (their C* contains
    # bird) but must leave the unrelated reptile view untouched.
    kb.tell("bird", "bird_of(robin).")
    assert kb.ask("penguin", "fly(robin)")
    assert kb.ask("bird", "fly(robin)")
    # Fact mutations repair the cached views in place.
    assert kb.view("penguin") is penguin_view
    assert kb.view("bird") is bird_view
    assert kb.view("reptile") is reptile_view


def test_structural_tell_drops_only_seeing_views():
    kb = bird_kb()
    penguin_view = kb.view("penguin")
    reptile_view = kb.view("reptile")
    # A non-fact rule is structural: the seeing views are rebuilt.
    kb.tell("bird", "sings(X) :- bird_of(X).")
    assert kb.view("penguin") is not penguin_view
    assert kb.view("reptile") is reptile_view
    kb.tell("bird", "bird_of(robin).")
    assert kb.ask("penguin", "sings(robin)")


def test_define_keeps_every_cached_view():
    kb = bird_kb()
    views = {name: kb.view(name) for name in ("bird", "penguin", "reptile")}
    kb.define("fish", "swim(X) :- fish_of(X).")
    kb.define("tuna", "fish_of(charlie).", isa=["fish"])
    for name, view in views.items():
        assert kb.view(name) is view
    assert kb.ask("tuna", "swim(charlie)")


def test_retract_never_told_fact_is_atomic():
    kb = bird_kb()
    kb.tell("penguin", "penguin_of(tweety).")
    with pytest.raises(SemanticsError, match="never told"):
        kb.retract("penguin", "penguin_of(opus).")
    with pytest.raises(SemanticsError, match="never told"):
        # Batch with one bad fact: the good one must not be removed.
        kb.retract("penguin", "penguin_of(tweety). penguin_of(opus).")
    assert kb.ask("penguin", "-fly(tweety)")
    with pytest.raises(SemanticsError, match="only ground facts"):
        kb.retract("penguin", "penguin_of(X).")
    with pytest.raises(SemanticsError, match="unknown object"):
        kb.retract("dodo", "penguin_of(tweety).")


def test_retract_duplicate_copies_one_at_a_time():
    kb = bird_kb()
    kb.tell("penguin", "penguin_of(tweety).")
    kb.tell("penguin", "penguin_of(tweety).")
    kb.retract("penguin", "penguin_of(tweety).")
    assert kb.ask("penguin", "-fly(tweety)")  # one copy remains
    kb.retract("penguin", "penguin_of(tweety).")
    assert not kb.ask("penguin", "-fly(tweety)")


def test_fact_deltas_flow_through_engine_not_rebuilds():
    kb = bird_kb()
    kb.ask("penguin", "fly(robin)")  # prime the view's least model
    with instrumented() as obs:
        kb.tell("bird", "bird_of(wren).")
        assert kb.ask("penguin", "fly(wren)")
        kb.retract("bird", "bird_of(wren).")
        assert not kb.ask("penguin", "fly(wren)")
        counters = obs.snapshot()["counters"]
    assert counters.get("maintain.delta_facts", 0) == 2
    assert counters.get("maintain.full_rebuilds", 0) == 0
    assert counters.get("maintain.rules_reevaluated", 0) >= 1


def test_rewind_to_the_held_value_reads_cold():
    # The maintenance benchmarks' cold baseline: rewinding to the value
    # just written drops every cached view, and the next read evaluates
    # that value from scratch instead of repairing a model.
    kb = bird_kb()
    kb.ask("penguin", "fly(robin)")
    penguin_view = kb.view("penguin")
    kb.tell("bird", "bird_of(robin).")
    kb.rewind(kb.program())
    assert kb.ask("penguin", "fly(robin)")
    assert kb.view("penguin") is not penguin_view  # dropped, not repaired
    assert kb.view("penguin")._maintained is None


def test_pending_deltas_flush_in_one_batch_on_next_read():
    kb = bird_kb()
    kb.ask("penguin", "fly(robin)")  # prime the view's least model
    penguin_view = kb.view("penguin")
    kb.tell("bird", "bird_of(robin).")
    kb.tell("bird", "bird_of(wren).")
    kb.retract("bird", "bird_of(robin).")
    # Three queued ops flush together on the next read of the view.
    with instrumented() as obs:
        assert kb.ask("penguin", "fly(wren)")
        assert not kb.ask("penguin", "fly(robin)")
        counters = obs.snapshot()["counters"]
    assert counters.get("maintain.delta_facts", 0) == 3
    assert counters.get("maintain.full_rebuilds", 0) == 0
    assert kb.view("penguin") is penguin_view


def test_fact_write_shares_everything_it_did_not_touch():
    # The knowledge base holds one immutable program; a ground-fact
    # tell/retract moves to a successor that shares the order and every
    # other component by reference.
    kb = bird_kb()
    before = kb.program()
    assert kb.program() is before
    kb.tell("penguin", "penguin_of(tweety).")
    after = kb.program()
    assert after is kb.program() and after is not before
    assert after.order is before.order
    for name in ("defaults", "bird", "reptile"):
        assert after.component(name) is before.component(name)
    assert len(after.component("penguin")) == len(before.component("penguin")) + 1
    assert len(before.component("penguin")) == 2  # the old version is intact
    kb.retract("penguin", "penguin_of(tweety).")
    assert kb.program() == before and kb.program().order is before.order
    # A structural tell leaves the order alone too; only isa extends it.
    kb.tell("bird", "sings(X) :- bird_of(X).")
    assert kb.program().order is before.order
    kb.isa("reptile", "bird")
    assert kb.program().order is not before.order
    assert not before.order.less("reptile", "bird")


def test_queue_of_a_view_nobody_reads_is_bounded():
    # A view cached by one read and never read again (a server's
    # skeptical / credulous read caches it without keeping it hot) used
    # to collect every later write for ever and replay them all on its
    # next read.
    from repro.kb import knowledge_base

    kb = bird_kb()
    assert kb.query("penguin", "fly(X)", "skeptical") == []
    stale = kb.view("penguin")
    limit = knowledge_base.MAX_PENDING_UPDATES
    for i in range(limit):
        (kb.retract if i % 2 else kb.tell)("bird", "bird_of(wren).")
        assert len(kb._pending["penguin"]) == i + 1
    assert kb._semantics_cache["penguin"] is stale
    kb.tell("bird", "bird_of(wren).")  # one more than replaying is worth
    assert "penguin" not in kb._pending and "penguin" not in kb._semantics_cache
    kb.tell("bird", "bird_of(robin).")  # nothing left to queue for
    assert "penguin" not in kb._pending
    # The next read evaluates cold, and right.
    assert [str(a.literal) for a in kb.query("penguin", "fly(X)", "skeptical")] == [
        "fly(robin)",
        "fly(wren)",
    ]
    assert kb.view("penguin") is not stale
    # A view that is read keeps its engine however long the stream.
    warm = kb.view("penguin")
    for i in range(2 * limit):
        (kb.retract if i % 2 else kb.tell)("bird", "bird_of(tweety).")
        assert kb.ask("penguin", "fly(tweety)") == (not i % 2)
    assert kb.view("penguin") is warm


def test_one_program_successor_per_write_however_many_views_see_it(monkeypatch):
    from repro.lang.program import OrderedProgram

    calls = []
    real = OrderedProgram.update_facts

    def counted(self, ops):
        calls.append(len(ops))
        return real(self, ops)

    monkeypatch.setattr(OrderedProgram, "update_facts", counted)
    kb = bird_kb()
    kb.define("emperor", "-magic(X) :- penguin_of(X).", isa=["penguin"])
    views = ("bird", "penguin", "emperor", "reptile")
    for view in views:
        kb.view(view).least_model
    kb.tell("bird", "bird_of(robin). bird_of(wren).")
    assert calls == [2]
    for view in views[:3]:  # three views see ``bird``; each repairs
        assert kb.ask(view, "fly(wren)")
        assert kb.view(view).program is kb.program()
    kb.retract("bird", "bird_of(wren).")
    assert not kb.ask("emperor", "fly(wren)")
    assert calls == [2, 1]
    assert kb.view("reptile").program is not kb.program()  # saw nothing
