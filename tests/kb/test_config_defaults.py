"""Regression: KnowledgeBase instances must not share mutable default
config objects (a module-level ``GroundingOptions()`` default would
leak mutations from one KB into every other), and serialization must
round-trip *every* engine-config field — a restored KB silently losing
a tuning knob (e.g. ``GroundingOptions.full_base``) would serve with
different performance and a different Herbrand base after every
``--restore``.  A knob that was *removed* must keep loading: dumps and
WAL checkpoints written before the removal still carry its key."""

import dataclasses
import json

from repro.core.maintenance import MaintenanceConfig
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
        assert a.maintenance is not b.maintenance

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
            (kb.maintenance, "enabled"),
        ]:
            try:
                setattr(config, field, getattr(config, field))
            except dataclasses.FrozenInstanceError:
                continue
            raise AssertionError(f"{type(config).__name__} is mutable")
        assert kb.grounding == GroundingOptions()
        assert kb.budget == SearchBudget()
        assert kb.maintenance == MaintenanceConfig()

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
                full_base=False,
            ),
            budget=SearchBudget(max_leaves=11, max_visited=222),
            maintenance=MaintenanceConfig(enabled=False, frontier_threshold=9),
        )
        kb.define("bird", "flies(X) <- bird(X). bird(tweety).")
        kb.define("penguin", "-flies(X) <- penguin(X).", isa=["bird"])
        return kb

    def test_every_config_field_round_trips(self):
        kb = self._non_default_kb()
        restored = loads_kb(dumps_kb(kb))
        # Field-by-field so a *new* config knob that is forgotten by
        # kb_to_dict fails here by name, not as an opaque inequality.
        for attr in ("grounding", "budget", "maintenance"):
            original, recovered = getattr(kb, attr), getattr(restored, attr)
            for field in dataclasses.fields(original):
                assert getattr(recovered, field.name) == getattr(
                    original, field.name
                ), f"{attr}.{field.name} lost in dumps_kb/loads_kb round-trip"
            assert recovered == original

    def test_legacy_domain_pruning_key_is_ignored(self):
        # Written by a build where relevance grounding was an opt-in
        # GroundingOptions field: both values restore to today's options
        # (format version unchanged) instead of "bad knowledge-base
        # payload".
        kb = self._non_default_kb()
        for domain_pruning in (False, True):
            payload = json.loads(dumps_kb(kb))
            payload["config"]["grounding"]["domain_pruning"] = domain_pruning
            restored = loads_kb(json.dumps(payload))
            assert restored.grounding == kb.grounding
            assert kb_signature(restored) == kb_signature(kb)
            assert restored.ask("bird", "flies(tweety)")

    def test_signature_is_stable_across_round_trip(self):
        kb = self._non_default_kb()
        restored = loads_kb(dumps_kb(kb))
        assert kb_signature(restored) == kb_signature(kb)

    def test_signature_sees_config_changes(self):
        base = KnowledgeBase()
        tuned = KnowledgeBase(
            grounding=GroundingOptions(full_base=False)
        )
        assert kb_signature(base) != kb_signature(tuned)
