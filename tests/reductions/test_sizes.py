"""The paper's size remark (Section 3): OV(C) and EV(C) are polynomially
bounded in the size of C thanks to the non-ground CWA / reflexive
rules."""

import pytest

from repro.analysis.stats import program_size
from repro.grounding.grounder import Grounder
from repro.reductions.extended_version import extended_version
from repro.reductions.ordered_version import ordered_version
from repro.reductions.three_level import three_level_version
from repro.workloads.classic import ancestor_chain
from repro.workloads.paper import example8_birds


class TestPolynomialSize:
    def test_ov_overhead_independent_of_facts(self):
        # The CWA component depends only on the predicate signatures, so
        # the OV overhead is constant as the database grows.
        small = ancestor_chain(3)
        large = ancestor_chain(60)
        overhead_small = program_size(ordered_version(small).program) - program_size(small)
        overhead_large = program_size(ordered_version(large).program) - program_size(large)
        assert overhead_small == overhead_large

    def test_ev_overhead_independent_of_facts(self):
        small = ancestor_chain(3)
        large = ancestor_chain(60)
        overhead_small = program_size(extended_version(small).program) - program_size(small)
        overhead_large = program_size(extended_version(large).program) - program_size(large)
        assert overhead_small == overhead_large

    def test_three_level_overhead_independent_of_facts(self):
        small = ancestor_chain(3)
        large = ancestor_chain(60)
        overhead_small = program_size(three_level_version(small).program) - program_size(small)
        overhead_large = program_size(three_level_version(large).program) - program_size(large)
        assert overhead_small == overhead_large

    def test_overhead_linear_in_signatures(self):
        rules = example8_birds()
        ov = ordered_version(rules)
        # 3 predicates of arity 1: one CWA rule each, 3 symbols per rule.
        cwa = ov.program.component("cwa")
        assert len(cwa) == 3
        assert program_size(cwa) == 3 * 3

    def test_three_level_bounded(self):
        rules = example8_birds()
        reduced = three_level_version(rules)
        # 3V adds one CWA rule and one reflexive rule per predicate.
        added = program_size(reduced.program) - program_size(rules)
        n_preds = 3
        # -p(X). is 3 symbols; p(X) :- p(X). is 4.
        assert added == n_preds * 3 + n_preds * 4


class TestGroundSize:
    @pytest.mark.parametrize("length", [4, 8, 12])
    def test_cwa_grounds_to_the_full_base(self, length):
        # The CWA's price: the two schemas -parent(X, Y) and -anc(X, Y)
        # ground to |HU|^2 instances each.
        rules = ancestor_chain(length)
        classical = len(Grounder().ground_rules(rules).rules)
        ordered = len(ordered_version(rules).semantics().ground.rules)
        assert ordered - classical == 2 * (length + 1) ** 2
