"""Separation distance: exact search, heuristic, quantile gap, pushforward."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mmconc as mc
from mmconc.separation import _bisect_last, _mass_tables
from conftest import line_space, random_measure, random_space


def group_distance(sp, a, b):
    return min(sp.dist[i, j] for i in a for j in b)


class TestSepExact:
    def test_two_point_half_half_is_the_full_distance(self, two_point):
        r = mc.sep_exact(two_point, [0.5, 0.5])
        assert r.value == 1.0 and r.exact and r.feasible
        assert [w.indices for w in r.witnesses] == [(0,), (1,)]

    def test_three_group_split_on_a_line(self):
        sp = line_space([0.0, 1.0, 2.0])
        r = mc.sep_exact(sp, [1 / 3, 1 / 3, 1 / 3])
        assert r.value == 1.0
        assert [w.indices for w in r.witnesses] == [(0,), (1,), (2,)]

    def test_witnesses_satisfy_the_advertised_masses_and_distance(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            sp = random_space(rng, int(rng.integers(2, 9)))
            m = sp.weights.sum()
            kap = float(rng.uniform(0.02, m / 4))
            r = mc.sep_exact(sp, [kap, kap])
            if not r.feasible:
                assert r.value == 0.0
                continue
            g1, g2 = (w.indices for w in r.witnesses)
            assert sp.weights[list(g1)].sum() >= kap
            assert sp.weights[list(g2)].sum() >= kap
            assert group_distance(sp, g1, g2) == r.value

    def test_value_is_a_pairwise_distance_or_zero(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            sp = random_space(rng, int(rng.integers(2, 8)))
            kap = float(rng.uniform(0.05, 0.45))
            r = mc.sep_exact(sp, [kap, kap])
            assert r.value == 0.0 or r.value in set(sp.dist.ravel())

    @given(st.integers(0, 2**31 - 1))
    def test_raising_any_mass_requirement_never_raises_the_value(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng, int(rng.integers(2, 7)))
        m = sp.weights.sum()
        base = rng.uniform(0.02, m / 3, size=2)
        bumped = base.copy()
        i = int(rng.integers(0, 2))
        bumped[i] = min(bumped[i] + rng.uniform(0.01, 0.3), m)
        assert mc.sep_exact(sp, bumped).value <= mc.sep_exact(sp, base).value

    def test_prune_tables_stay_small_past_the_budget(self):
        """The prune reads subset masses from 256-entry byte tables, so a
        raised budget on a 32-point cube costs no 2^16-entry table; the
        value is Harper's (Hamming distance 3 at kappa = 0.1)."""
        rng = np.random.default_rng(33)
        w = rng.uniform(0.0, 1.0, size=70)
        tables = _mass_tables(w)
        assert [len(t) for t in tables] == [256] * 8 + [64]
        for _ in range(100):
            pick = rng.random(70) < 0.5
            mask = sum(1 << int(i) for i in np.flatnonzero(pick))
            got = sum(t[(mask >> 8 * i) & 255] for i, t in enumerate(tables))
            assert abs(got - w[pick].sum()) <= 1e-12
        cube5 = mc.generate(mc.FamilySpec("hamming_cube", 5))
        r = mc.sep_exact(cube5, [0.1, 0.1], budget=3**32)
        assert r.value == cube5.dist[0, 0b00111]

    def test_infeasible_masses_give_zero_with_flag(self, two_point):
        r = mc.sep_exact(two_point, [0.6, 0.6])
        assert (r.value, r.feasible) == (0.0, False)

    def test_overlap_only_demand_is_infeasible(self):
        sp = line_space([0.0, 1.0], weights=[0.9, 0.1])
        r = mc.sep_exact(sp, [0.5, 0.5])
        assert (r.value, r.feasible) == (0.0, False)

    def test_groups_may_discard_mass(self):
        # three points; middle point is pure ballast and is left out
        sp = line_space([0.0, 0.5, 1.0], weights=[0.4, 0.2, 0.4])
        r = mc.sep_exact(sp, [0.4, 0.4])
        assert r.value == 1.0
        assert [w.indices for w in r.witnesses] == [(0,), (2,)]

    def test_tie_break_is_lexicographic_in_the_assignment_vector(self):
        sq = mc.default_screen_roster()[1][1]  # the quarter-side square
        r = mc.sep_exact(sq, [0.25, 0.25])
        assert r.value == 0.5
        assert r.assignment == (0, 2, 2, 1)
        assert [w.indices for w in r.witnesses] == [(0,), (3,)]

    def test_groups_at_distance_exactly_t_are_admissible_for_value_t(self):
        sp = line_space([0.0, 1.0, 2.0], weights=[0.25, 0.5, 0.25])
        r = mc.sep_exact(sp, [0.25, 0.5, 0.25])
        assert r.value == 1.0  # adjacent groups sit at exactly the value

    @pytest.mark.parametrize("kappas, message", [
        ([0.5], "need at least two kappas"),
        ([], "need at least two kappas"),
        ([0.5, -0.1], "kappas must be finite and >= 0"),
        ([0.5, math.nan], "kappas must be finite and >= 0"),
        ([math.inf, 0.5], "kappas must be finite and >= 0"),
    ])
    def test_kappas_are_checked(self, two_point, kappas, message):
        for search in (mc.sep_exact, mc.sep_lower_bound, mc.sep):
            with pytest.raises(ValueError, match=message):
                search(two_point, kappas)

    def test_budget_guard_raises_and_can_be_lifted(self):
        rng = np.random.default_rng(33)
        sp = random_space(rng, 14)
        with pytest.raises(mc.BudgetExceededError):
            mc.sep_exact(sp, [0.3, 0.3])
        r = mc.sep_exact(sp, [0.3, 0.3], budget=3**15)
        assert r.exact


class TestThresholdSearch:
    def test_bisect_last_visits_the_binary_search_order(self):
        for count in range(9):
            for good in range(count + 1):  # probes succeed on indices < good
                seen = []

                def probe(i):
                    seen.append(i)
                    return f"r{i}" if i < good else None

                index, result = _bisect_last(count, probe)
                assert (index, result) == ((good - 1, f"r{good - 1}") if good else (-1, None))
                lo, hi, order = 0, count - 1, []
                while lo <= hi:
                    mid = (lo + hi) // 2
                    order.append(mid)
                    lo, hi = (mid + 1, hi) if mid < good else (lo, mid - 1)
                assert seen == order

    def test_exact_value_is_the_witnesses_gap_and_groups_hold_their_kappas(self):
        rng = np.random.default_rng(43)
        spaces = [random_space(rng, int(rng.integers(2, 9))) for _ in range(30)]
        spaces += [mc.generate(mc.FamilySpec("hamming_cube", n)) for n in (2, 3)]
        checked = 0
        for sp in spaces:
            m = sp.weights.sum()
            for groups in (2, 3):
                kappas = [float(k) for k in rng.uniform(0.0, m / (groups + 1), size=groups)]
                r = mc.sep(sp, kappas)
                assert r.exact
                if not r.feasible:
                    assert r.value == 0.0 and r.witnesses is None
                    continue
                members = [w.indices for w in r.witnesses]
                gap = min(group_distance(sp, a, b) for a, b in itertools.combinations(members, 2))
                assert r.value == gap
                for g, kappa in zip(members, kappas):
                    # ascending index order from 0.0, the group-mass convention
                    assert sum(float(sp.weights[i]) for i in g) >= kappa
                checked += 1
        assert checked > 40


class TestSepLowerBound:
    def test_never_exceeds_exact_and_witnesses_are_real(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            sp = random_space(rng, int(rng.integers(2, 9)))
            m = sp.weights.sum()
            kap = float(rng.uniform(0.02, m / 4))
            lb = mc.sep_lower_bound(sp, [kap, kap], effort=1500, seed=7)
            ex = mc.sep_exact(sp, [kap, kap])
            assert lb.value <= ex.value + 1e-12
            assert not lb.exact
            if lb.feasible:
                g1, g2 = (w.indices for w in lb.witnesses)
                assert sp.weights[list(g1)].sum() >= kap
                assert sp.weights[list(g2)].sum() >= kap
                assert group_distance(sp, g1, g2) == lb.value

    def test_effort_zero_keeps_the_seeding_and_negative_is_refused(self):
        sp = mc.generate(mc.FamilySpec("hamming_cube", 4))
        seeded = mc.sep_lower_bound(sp, [0.1, 0.1], effort=0, seed=3)
        assert seeded.feasible and seeded.value > 0
        with pytest.raises(ValueError, match="effort must be >= 0"):
            mc.sep_lower_bound(sp, [0.1, 0.1], effort=-1)
        with pytest.raises(ValueError, match="effort must be >= 0"):
            mc.lipschitz_candidates(sp, 0.1, effort=-1)
        with pytest.raises(ValueError, match="effort must be >= 0"):
            mc.obsdiam_real_bracket(sp, 0.1, effort=-1)
        with pytest.raises(ValueError, match="effort must be >= 0"):
            mc.run_levy_experiment([mc.FamilySpec("hamming_cube", 2)], effort=-1)

    def test_same_seed_same_answer(self):
        rng = np.random.default_rng(42)
        sp = random_space(rng, 10)
        a = mc.sep_lower_bound(sp, [0.2, 0.2], effort=2000, seed=5)
        b = mc.sep_lower_bound(sp, [0.2, 0.2], effort=2000, seed=5)
        assert a == b


class TestQuantileGap:
    def test_four_atom_example(self):
        nu = mc.RealMeasure.from_atoms(np.arange(4.0), np.full(4, 0.25))
        q = mc.sep_real_quantile(nu, 0.25)
        assert (q.a0, q.b0, q.gap, q.degenerate) == (1.0, 2.0, 1.0, False)

    def test_gap_never_exceeds_one_dimensional_sep(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            nu = random_measure(rng, int(rng.integers(2, 10)))
            kap = float(rng.uniform(0.02, 0.45))
            q = mc.sep_real_quantile(nu, kap)
            ex = mc.sep_exact(mc.real_measure_as_space(nu), [kap, kap])
            assert q.gap <= ex.value + 1e-12

    @pytest.mark.parametrize("positions, weights", [
        ([0.0, 1.0], [1.0]),
        ([[0.0, 1.0]], [[0.5, 0.5]]),
    ])
    def test_atoms_need_equal_length_flat_arrays(self, positions, weights):
        with pytest.raises(ValueError, match="equal-length 1-D arrays"):
            mc.RealMeasure.from_atoms(positions, weights)

    def test_the_prefix_is_built_once_and_holds_the_total(self):
        nu = mc.RealMeasure.from_atoms([0.0, 1.0, 2.0], [0.1, 0.2, 0.3])
        assert nu.prefix is nu.prefix and not nu.prefix.flags.writeable
        assert nu.prefix.tolist() == [0.0, 0.1, 0.1 + 0.2, 0.1 + 0.2 + 0.3]
        assert nu.total_mass == nu.prefix[-1]

    def test_oversized_kappa_degenerates(self):
        nu = mc.RealMeasure.from_atoms(np.arange(3.0), np.full(3, 1 / 3))
        crossed = mc.sep_real_quantile(nu, 0.9)  # quantiles cross: clamped
        assert crossed.degenerate and crossed.gap == 0.0
        beyond = mc.sep_real_quantile(nu, 1.5)  # kappa >= total mass
        assert beyond.degenerate and beyond.gap == 0.0
        touching = mc.sep_real_quantile(nu, 0.6)  # a0 == b0: zero gap, no clamp
        assert not touching.degenerate and touching.gap == 0.0


class TestPushforwardCheck:
    def test_holds_on_random_real_valued_maps(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            sp = random_space(rng, int(rng.integers(3, 9)))
            kap = float(rng.uniform(0.05, 0.2))
            cands = mc.lipschitz_candidates(sp, kap, effort=200, seed=3)
            lmap = mc.validate_lipschitz(sp, None, cands[0])
            out = mc.sep_pushforward_check(sp, lmap, [kap, kap])
            assert out["holds"]
            assert out["target"].value <= out["source"].value + 1e-12
