"""Property tests for the static analyzer using the defect-seeding
oracle from `repro.workloads.random_programs`.

Every injected defect must be reported with the matching code (no
false negatives), and the warning-clean twin must produce no
warning-or-worse diagnostics (no false positives on clean programs).

``ORACLE_SCALE`` sets the sweep size (``tests/oracle/scale.py``).
"""

import random

import pytest

from repro.analysis.static import Severity, analyze_program
from repro.workloads.random_programs import (
    DEFECT_KINDS,
    random_clean_program,
    random_ordered_program,
    seeded_defect_program,
)

from ..oracle.scale import size

N_ORACLE_PROGRAMS = size("static")


def assert_defects_reported(sp):
    report = analyze_program(sp.defective)
    for defect in sp.defects:
        matches = [
            d
            for d in report.diagnostics
            if d.code == defect.code
            and (defect.marker in d.location or defect.marker in d.message)
        ]
        assert matches, (
            f"injected {defect.kind} defect ({defect.marker} in "
            f"{defect.component}) was not reported; got "
            f"{[str(d) for d in report.diagnostics]}"
        )


def assert_clean(program):
    report = analyze_program(program)
    gating = report.gating(Severity.INFO)
    assert not gating, [str(d) for d in gating]


class TestSeededDefectOracle:
    @pytest.mark.parametrize("seed", range(N_ORACLE_PROGRAMS))
    def test_all_defects_reported_and_clean_twin_quiet(self, seed):
        rng = random.Random(seed)
        sp = seeded_defect_program(rng)
        assert len(sp.defects) == len(DEFECT_KINDS)
        assert_defects_reported(sp)
        assert_clean(sp.clean)

    @pytest.mark.parametrize("seed", range(0, N_ORACLE_PROGRAMS, 3))
    def test_random_defect_subsets(self, seed):
        rng = random.Random(10_000 + seed)
        kinds = rng.sample(DEFECT_KINDS, rng.randint(1, len(DEFECT_KINDS)))
        sp = seeded_defect_program(rng, kinds=kinds)
        assert [d.kind for d in sp.defects] == kinds
        assert_defects_reported(sp)
        assert_clean(sp.clean)

    @pytest.mark.parametrize("seed", range(0, N_ORACLE_PROGRAMS, 3))
    def test_repeated_kinds_each_reported(self, seed):
        rng = random.Random(20_000 + seed)
        sp = seeded_defect_program(rng, kinds=("defeat", "arity", "defeat"))
        assert_defects_reported(sp)

    def test_defective_twin_extends_the_clean_one(self):
        sp = seeded_defect_program(random.Random(7))
        clean_rules = {
            (c.name, r)
            for c in sp.clean.components()
            for r in c.rules
        }
        defective_rules = {
            (c.name, r)
            for c in sp.defective.components()
            for r in c.rules
        }
        assert clean_rules <= defective_rules

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown defect kind"):
            seeded_defect_program(random.Random(0), kinds=("bogus",))


class TestRandomCleanPrograms:
    @pytest.mark.parametrize("seed", range(N_ORACLE_PROGRAMS))
    def test_repaired_programs_are_warning_clean(self, seed):
        rng = random.Random(30_000 + seed)
        assert_clean(random_clean_program(rng))

    @pytest.mark.parametrize("seed", range(0, N_ORACLE_PROGRAMS, 5))
    def test_larger_shapes_stay_clean(self, seed):
        rng = random.Random(40_000 + seed)
        assert_clean(
            random_clean_program(
                rng, n_atoms=6, n_components=4, n_rules=14, order_density=0.7
            )
        )


class TestSeedDefectsParameter:
    def test_random_ordered_program_seed_defects_smoke(self):
        rng = random.Random(11)
        program = random_ordered_program(rng, seed_defects=("unsafe", "arity"))
        report = analyze_program(program)
        assert report.by_code()["unsafe-rule"] >= 1
        assert report.by_code()["arity-clash"] >= 1

    def test_seed_defects_none_means_untouched(self):
        a = random_ordered_program(random.Random(3))
        b = random_ordered_program(random.Random(3), seed_defects=None)
        assert a == b
