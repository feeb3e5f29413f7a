"""Regression: KnowledgeBase instances must not share mutable default
config objects (a module-level ``GroundingOptions()`` default would
leak mutations from one KB into every other), and serialization must
round-trip *every* engine-config field — a restored KB silently losing
a tuning knob (e.g. ``GroundingOptions.max_depth``) would serve with
a different Herbrand universe after every ``--restore``.  A knob that was *removed* must keep loading: dumps and
WAL checkpoints written before the removal still carry its key."""

import dataclasses
import json

from repro.core.semantics import OrderedSemantics
from repro.core.solver import SearchBudget
from repro.grounding.grounder import GroundingOptions
from repro.kb.knowledge_base import KnowledgeBase
from repro.serialize import dumps_kb, kb_signature, loads_kb
from repro.workloads.paper import figure1


class TestPerInstanceDefaults:
    def test_kb_defaults_are_not_shared(self):
        a, b = KnowledgeBase(), KnowledgeBase()
        assert a.grounding is not b.grounding
        assert a.budget is not b.budget

    def test_configs_are_frozen(self):
        # Immutability is the second line of defence: even if instances
        # were shared, nobody could mutate one KB's config through
        # another.  Both guarantees are asserted so a future unfreeze
        # shows up here.
        import dataclasses

        kb = KnowledgeBase()
        for config, field in [
            (kb.grounding, "instance_cap"),
            (kb.budget, "max_visited"),
        ]:
            try:
                setattr(config, field, getattr(config, field))
            except dataclasses.FrozenInstanceError:
                continue
            raise AssertionError(f"{type(config).__name__} is mutable")
        assert kb.grounding == GroundingOptions()
        assert kb.budget == SearchBudget()

    def test_explicit_configs_still_honoured(self):
        grounding = GroundingOptions(instance_cap=99)
        kb = KnowledgeBase(grounding=grounding)
        assert kb.grounding is grounding

    def test_semantics_defaults_are_not_shared(self):
        a = OrderedSemantics(figure1(), "c1")
        b = OrderedSemantics(figure1(), "c1")
        assert a._grounding_options is not b._grounding_options
        assert a._budget is not b._budget


class TestConfigRoundTrip:
    """``dumps_kb`` → ``loads_kb`` must preserve the complete engine
    configuration, field by field — not just the fields that existed
    when serialization was written."""

    def _non_default_kb(self) -> KnowledgeBase:
        kb = KnowledgeBase(
            grounding=GroundingOptions(
                max_depth=7,
                instance_cap=12345,
            ),
            budget=SearchBudget(max_leaves=11, max_visited=222),
        )
        kb.define("bird", "flies(X) <- bird(X). bird(tweety).")
        kb.define("penguin", "-flies(X) <- penguin(X).", isa=["bird"])
        return kb

    def test_every_config_field_round_trips(self):
        kb = self._non_default_kb()
        restored = loads_kb(dumps_kb(kb))
        # Field-by-field so a *new* config knob that is forgotten by
        # kb_to_dict fails here by name, not as an opaque inequality.
        for attr in ("grounding", "budget"):
            original, recovered = getattr(kb, attr), getattr(restored, attr)
            for field in dataclasses.fields(original):
                assert getattr(recovered, field.name) == getattr(
                    original, field.name
                ), f"{attr}.{field.name} lost in dumps_kb/loads_kb round-trip"
            assert recovered == original

    def test_legacy_domain_pruning_key_is_ignored(self):
        # Written by builds where relevance grounding was an opt-in
        # GroundingOptions field, the Herbrand base could be restricted
        # (full_base) and a maintenance section could switch the delta
        # engine off: every value restores to today's options (format
        # version unchanged) instead of "bad knowledge-base payload".
        kb = self._non_default_kb()
        kb.tell("penguin", "penguin(tweety).")
        for domain_pruning in (False, True):
            payload = json.loads(dumps_kb(kb))
            payload["config"]["grounding"]["domain_pruning"] = domain_pruning
            payload["config"]["grounding"]["full_base"] = False
            payload["config"]["maintenance"] = {
                "enabled": False,
                "frontier_threshold": 9,
            }
            restored = loads_kb(json.dumps(payload))
            assert restored.grounding == kb.grounding
            assert kb_signature(restored) == kb_signature(kb)
            assert restored.ask("bird", "flies(tweety)")
            for view in ("bird", "penguin"):
                assert restored.least_model(view) == kb.least_model(view)
            assert restored.ask("penguin", "-flies(tweety)")

    def test_signature_is_stable_across_round_trip(self):
        kb = self._non_default_kb()
        restored = loads_kb(dumps_kb(kb))
        assert kb_signature(restored) == kb_signature(kb)

    def test_signature_sees_config_changes(self):
        base = KnowledgeBase()
        tuned = KnowledgeBase(
            grounding=GroundingOptions(instance_cap=99)
        )
        assert kb_signature(base) != kb_signature(tuned)
