"""Lipschitz maps, pushforwards, partial diameters, observable-diameter brackets."""

from __future__ import annotations

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mmconc as mc
from conftest import line_space, random_measure, random_space

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import oracles  # noqa: E402  (numpy only; never imports mmconc)


class TestValidateLipschitz:
    def test_distance_functions_validate_exactly(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            sp = random_space(rng, int(rng.integers(2, 10)))
            a = int(rng.integers(0, len(sp.points)))
            lmap = mc.validate_lipschitz(sp, None, sp.dist[:, a])
            assert lmap.is_real and lmap.constant <= 1.0

    def test_rejects_a_stretching_map(self, two_point):
        with pytest.raises(mc.LipschitzValidationError) as err:
            mc.validate_lipschitz(two_point, None, [0.0, 1.5])
        assert err.value.spread == 1.5 and err.value.allowed == 1.0

    def test_screen_target_uses_screen_distances(self, two_point):
        screen = line_space([0.0, 0.25, 2.0])
        # sending the two unit-separated points to atoms 0 and 1 is fine,
        # sending them to atoms 0 and 2 stretches 1.0 into 2.0
        ok = mc.validate_lipschitz(two_point, screen, [0, 1])
        assert not ok.is_real
        with pytest.raises(mc.LipschitzValidationError):
            mc.validate_lipschitz(two_point, screen, [0, 2])

    @pytest.mark.parametrize("real, values, message", [
        (True, [0.0], r"need one real value per point, got shape \(1,\)"),
        (True, [0.0, math.inf], "map values must be finite"),
        (True, [0.0, math.nan], "map values must be finite"),
        (False, [[0, 1]], r"need one target index per point, got shape \(1, 2\)"),
        (False, [0, 3], "target indices out of range"),
        (False, [-1, 0], "target indices out of range"),
    ])
    def test_values_of_the_wrong_shape_or_range_are_refused(self, two_point, real, values, message):
        screen = None if real else line_space([0.0, 0.25, 2.0])
        with pytest.raises(ValueError, match=message) as err:
            mc.validate_lipschitz(two_point, screen, values)
        assert not isinstance(err.value, mc.LipschitzValidationError)


class TestPushforward:
    def test_real_pushforward_conserves_mass_exactly(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            sp = random_space(rng, int(rng.integers(2, 10)))
            nu = mc.pushforward_real(sp, sp.dist[:, 0])
            # fsum-grade conservation: identical accumulation of the same weights
            assert nu.total_mass == pytest.approx(sp.weights.sum(), abs=1e-15)

    def test_screen_pushforward_bins_weights_by_target_point(self):
        sp = line_space([0.0, 0.4, 0.8], weights=[0.2, 0.3, 0.5])
        screen = line_space([0.0, 1.0])
        image = mc.pushforward_screen(sp, screen, [0, 0, 1])
        assert isinstance(image, mc.FiniteMMSpace)
        assert image.points == screen.points and image.dist is screen.dist
        assert image.weights == pytest.approx([0.5, 0.5])
        assert image.total_mass == pytest.approx(1.0)

    def test_image_of_a_real_map_is_a_line_space(self, two_point):
        lmap = mc.validate_lipschitz(two_point, None, [0.0, 1.0])
        img = mc.real_measure_as_space(mc.pushforward_real(two_point, lmap.values))
        assert img.dist[0, 1] == 1.0 and img.weights.sum() == pytest.approx(1.0)

    def test_image_of_a_screen_map_is_a_space_on_the_screen(self, two_point):
        lmap = mc.validate_lipschitz(two_point, two_point, [1, 1])
        img = mc.pushforward_screen(two_point, lmap.target, lmap.values)
        assert img.points == two_point.points
        assert img.weights.tolist() == [0.0, two_point.total_mass]
        out = mc.sep_pushforward_check(two_point, lmap, [0.5, 0.5])
        assert out["target"].value == 0.0 and out["holds"]


class TestPartialDiameterReal:
    def test_four_uniform_atoms_at_half_mass(self):
        nu = mc.RealMeasure.from_atoms(np.arange(4.0), np.full(4, 0.25))
        assert mc.partial_diameter_real(nu, 0.5) == 1.0

    def test_zero_and_overflow_targets(self):
        nu = mc.RealMeasure.from_atoms(np.arange(3.0), np.full(3, 1 / 3))
        assert mc.partial_diameter_real(nu, 0.0) == 0.0
        assert mc.partial_diameter_real(nu, -1.0) == 0.0
        assert mc.partial_diameter_real(nu, 1.5) == np.inf

    @given(st.integers(0, 2**31 - 1))
    def test_monotone_in_target_mass(self, seed):
        rng = np.random.default_rng(seed)
        nu = random_measure(rng, int(rng.integers(2, 12)))
        t1, t2 = sorted(rng.uniform(0.0, 1.0, 2))
        assert mc.partial_diameter_real(nu, t1) <= mc.partial_diameter_real(nu, t2)

    def test_window_is_optimal_by_brute_force(self):
        rng = np.random.default_rng(73)
        for _ in range(40):
            nu = random_measure(rng, int(rng.integers(2, 9)))
            target = float(rng.uniform(0.1, 0.99))
            got = mc.partial_diameter_real(nu, target)
            k = len(nu)
            best = np.inf
            for i in range(k):
                acc = 0.0
                for j in range(i, k):
                    acc += nu.weights[j]
                    if acc >= target:
                        best = min(best, nu.positions[j] - nu.positions[i])
                        break
            assert got == best


class TestPartialDiameterScreen:
    def test_matches_brute_force_subset_search(self):
        rng = np.random.default_rng(74)
        for _ in range(15):
            sp = random_space(rng, int(rng.integers(2, 8)))
            screen = random_space(rng, int(rng.integers(2, 6)))
            idx = rng.integers(0, len(screen.points), len(sp.points))
            image = mc.pushforward_screen(sp, screen, idx)
            target = float(rng.uniform(0.2, 0.95))
            got = mc.partial_diameter_screen(image, target)
            # exhaustive: smallest subset diameter reaching the target mass
            ns = len(screen.points)
            best = np.inf
            for mask in range(1, 1 << ns):
                sel = [i for i in range(ns) if mask >> i & 1]
                if image.weights[sel].sum() >= target:
                    diam = max(screen.dist[i, j] for i in sel for j in sel)
                    best = min(best, diam)
            assert got == best

    def test_targets_at_a_descending_weight_subset_sum_match_the_oracle(self):
        """A target equal to a subset's weights, added in descending-weight
        order, is reached by that subset: the search finds it, as the
        exhaustive oracle does.  A prune whose sum of the same weights
        came out an ulp short used to cut such subsets off."""
        rng = np.random.default_rng(2030)
        for _ in range(400):
            n = int(rng.integers(2, 10))
            weights = rng.choice([0.05, 0.1, 0.2, 0.3, 0.7, 1 / 3], n) * rng.integers(1, 4, n)
            base = random_space(rng, n)
            sp = mc.validate_space(base.points, base.dist, weights)
            order = np.argsort(-weights, kind="stable")
            target = 0.0
            for i in order[rng.random(n) < 0.6]:
                target += weights[i]
            want = oracles.space_partial_diameter(sp.dist, sp.weights, target, sp.total_mass)
            assert mc.partial_diameter_screen(sp, target) == want

    def test_a_heavy_line_reaches_its_target_on_six_points(self):
        """Six of seven unit-spaced points weighing 0.3 each carry exactly
        1.8 by the search's own sum, so the answer is their diameter 5."""
        sp = line_space(np.arange(7.0), np.full(7, 0.3))
        want = oracles.space_partial_diameter(sp.dist, sp.weights, 1.8, sp.total_mass)
        assert mc.partial_diameter_screen(sp, 1.8) == want == 5.0

    def test_support_budget_guard(self):
        sp = line_space(np.linspace(0, 1, 25))
        with pytest.raises(mc.BudgetExceededError):
            mc.partial_diameter_screen(sp, 0.9, support_budget=20)
        val = mc.partial_diameter_screen(sp, 0.9, support_budget=25)
        assert np.isfinite(val)
        # 1,024 of 1,100 unit-spaced points weighing 2^-10 carry exactly
        # 1.0, a subset deeper than Python's default recursion limit
        n = 1100
        line = mc.generate(mc.FamilySpec("weighted_graph", n, normalized=False,
                                         edges=tuple((i, i + 1, 1.0) for i in range(n - 1)),
                                         weights=(2.0**-10,) * n))
        assert mc.partial_diameter_screen(line, 1.0, support_budget=n) == 1023.0


class TestObsdiamReal:
    def test_two_point_at_half_kappa_collapses(self, two_point):
        br = mc.obsdiam_real_bracket(two_point, 0.5)
        assert br.lower == 0.0
        assert br.lower <= br.upper

    def test_lower_bound_carries_a_checkable_witness(self):
        rng = np.random.default_rng(75)
        sp = random_space(rng, 7)
        br = mc.obsdiam_real_bracket(sp, 0.1, effort=400, seed=2)
        values = np.asarray(br.witness["values"], dtype=float)
        lmap = mc.validate_lipschitz(sp, None, values)  # witness is 1-Lipschitz
        nu = mc.pushforward_real(sp, lmap.values)
        m = sp.weights.sum()
        assert mc.partial_diameter_real(nu, m - 0.1) == br.lower

    def test_bracket_orders_lower_below_upper(self):
        rng = np.random.default_rng(76)
        for _ in range(15):
            sp = random_space(rng, int(rng.integers(2, 9)))
            kap = float(rng.uniform(0.02, 0.3))
            br = mc.obsdiam_real_bracket(sp, kap, effort=300, seed=4)
            assert br.lower <= br.upper

    def test_separation_witness_functions_are_in_the_candidate_pool(self):
        """The pool always contains d(.,A) for Sep witnesses A, so the bracket
        lower bound is at least the separation-based guarantee."""
        rng = np.random.default_rng(77)
        for _ in range(10):
            sp = random_space(rng, int(rng.integers(3, 9)))
            m = sp.weights.sum()
            kap = float(rng.uniform(0.05, m / 5))
            sep = mc.sep_exact(sp, [kap, kap])
            if not sep.feasible:
                continue
            br = mc.obsdiam_real_bracket(sp, kap / 2, effort=300, seed=5)
            assert br.lower >= sep.value - 1e-12

    def test_one_half_kappa_separation_per_bracket(self, monkeypatch):
        """The bracket's upper bound and its candidate pool share one
        Sep(kappa/2, kappa/2); the pool adds Sep(kappa/4, kappa/4), and
        the public candidate list is the pool the bracket scores."""
        rng = np.random.default_rng(80)
        sp = random_space(rng, 7)
        kap = 0.2
        calls = []

        def counting(space, kappas, budget):
            calls.append(list(kappas))
            return mc.sep_exact(space, kappas, budget)

        monkeypatch.setattr(mc.separation, "sep_exact", counting)
        br = mc.obsdiam_real_bracket(sp, kap, effort=300, seed=6)
        assert calls == [[kap / 2, kap / 2], [kap / 4, kap / 4]]
        assert br.upper == mc.sep_exact(sp, [kap / 2, kap / 2]).value
        m = sp.weights.sum()
        pool = mc.lipschitz_candidates(sp, kap, effort=300, seed=6)
        best = max(mc.partial_diameter_real(mc.pushforward_real(sp, f), m - kap) for f in pool)
        assert br.lower == best
        assert br.witness["values"] in [[float(v) for v in f] for f in pool]

    def test_budget_refusal_keeps_the_pool_and_an_infinite_upper(self, monkeypatch):
        """Both halvings reach the exact search, and both are refused
        there, so no search runs past the budget."""
        rng = np.random.default_rng(81)
        sp = random_space(rng, 6)
        calls, refused = [], []

        def counting(space, kappas, budget):
            calls.append(list(kappas))
            try:
                return mc.sep_exact(space, kappas, budget)
            except mc.BudgetExceededError:
                refused.append(list(kappas))
                raise

        monkeypatch.setattr(mc.separation, "sep_exact", counting)
        br = mc.obsdiam_real_bracket(sp, 0.2, effort=300, seed=7, budget=3**5)
        assert calls == [[0.1, 0.1], [0.05, 0.05]]
        assert refused == calls
        assert br.upper == math.inf and br.upper_source == "separation budget exceeded"
        pool = mc.lipschitz_candidates(sp, 0.2, effort=300, seed=7, budget=3**5)
        assert len(pool) > sp.n and br.lower > 0.0

    @pytest.mark.parametrize("effort", [0, 300])
    def test_each_candidate_is_scored_once(self, monkeypatch, effort):
        """One partial diameter per raw candidate, one per refinement
        evaluation (a move the exact check accepts), and none beside them."""
        rng = np.random.default_rng(82)
        sp = random_space(rng, 8)
        kap = 0.2
        raw = 1 + sp.n + 8  # zero, singletons, random subsets (effort // 50 <= 8)
        raw += sum(len(mc.sep(sp, [k, k]).witnesses or ()) for k in (kap / 2, kap / 4))
        scored, checked = [], []
        score, check = mc.observable.partial_diameter_real, mc.observable._is_lipschitz

        def counting_score(nu, target):
            scored.append(target)
            return score(nu, target)

        def counting_check(f, dist, *rows):
            out = check(f, dist, *rows)
            checked.append(out)
            return out

        monkeypatch.setattr(mc.observable, "partial_diameter_real", counting_score)
        monkeypatch.setattr(mc.observable, "_is_lipschitz", counting_check)
        mc.obsdiam_real_bracket(sp, kap, effort=effort, seed=3)
        assert all(checked[:raw]) and len(checked) >= raw
        evals = sum(checked[raw:])
        assert len(scored) == raw + evals
        assert evals == 0 if effort == 0 else 0 < evals <= effort

    def test_lower_is_the_first_best_candidate_in_pool_order(self):
        """Symmetric spaces tie many candidates; the bracket keeps the
        first of the best, and no witness when no candidate beats 0."""
        rng = np.random.default_rng(83)
        spaces = [random_space(rng, 6), line_space([0.0, 1.0, 2.0, 3.0])]
        spaces += [mc.generate(mc.FamilySpec("discrete_torus", 8))]
        spaces += [mc.generate(mc.FamilySpec("hamming_cube", 3)), line_space([0.0, 1.0])]
        for sp, kap in itertools.product(spaces, (0.1, 0.3, 0.6)):  # 0 on the two points at 0.6
            m = sp.total_mass
            br = mc.obsdiam_real_bracket(sp, kap, effort=300, seed=8)
            pool = mc.lipschitz_candidates(sp, kap, effort=300, seed=8)
            scores = [mc.partial_diameter_real(mc.pushforward_real(sp, f), m - kap) for f in pool]
            best = max(scores)
            assert br.lower == best
            if best > 0.0:
                assert br.witness["values"] == [float(v) for v in pool[scores.index(best)]]
            else:
                assert br.witness["values"] is None

    def test_lower_above_upper_raises(self, two_point, monkeypatch):
        """A separation value below an achieved partial diameter is a bug,
        reported as such and never clamped into the bracket."""
        fake = mc.SepResult(0.5, True, True, None, None)
        monkeypatch.setattr(mc.separation, "sep_exact", lambda *args: fake)
        with pytest.raises(RuntimeError, match="inverted bracket"):
            mc.obsdiam_real_bracket(two_point, 0.1)


class TestObsdiamScreen:
    def test_square_cube_into_a_circle(self):
        cube2 = mc.generate(mc.FamilySpec("hamming_cube", 2))
        torus8 = mc.generate(mc.FamilySpec("discrete_torus", 8))
        br = mc.obsdiam_screen_estimate(cube2, torus8, 0.1, samples=32, seed=0)
        assert br.lower == 0.5 and br.upper == 0.5

    def test_sampled_maps_are_validated_and_lower_is_certified(self):
        rng = np.random.default_rng(78)
        sp = random_space(rng, 6)
        screen = random_space(rng, 4)
        br = mc.obsdiam_screen_estimate(sp, screen, 0.1, samples=16, seed=1)
        idx = np.asarray(br.witness["values"], dtype=int)
        mc.validate_lipschitz(sp, screen, idx)
        image = mc.pushforward_screen(sp, screen, idx)
        m = sp.weights.sum()
        assert mc.partial_diameter_screen(image, m - 0.1) == br.lower
        assert br.lower <= br.upper

    def test_identity_partial_diameter_can_exceed_two_group_separation(self):
        """Regression pinning why the upper bound is NOT min(diam, Sep(k/2,k/2)):
        on a 16-cycle the identity map's partial diameter at mass 3/4 is 8,
        strictly above Sep(1/8, 1/8) = 7."""
        z16 = mc.generate(mc.FamilySpec("discrete_torus", 16, normalized=False))
        pd = mc.partial_diameter_screen(z16, 0.75)
        sep = mc.sep_exact(z16, [1 / 8, 1 / 8], budget=3**17)
        assert pd == 8.0 and sep.value == 7.0 and pd > sep.value

    def test_singleton_screen_collapses_to_zero(self):
        rng = np.random.default_rng(79)
        sp = random_space(rng, 5)
        singleton = mc.default_screen_roster()[2][1]
        br = mc.obsdiam_screen_estimate(sp, singleton, 0.1, samples=4, seed=0)
        assert br.lower == 0.0 and br.upper == 0.0

    def test_cubes_past_the_edge_cutoff_close_at_zero(self):
        """square4's smallest distance 1/4 exceeds cube 5's edge 1/5, and
        torus6's 1/6 exceeds cube 7's 1/7: every map is constant."""
        roster = dict(mc.default_screen_roster())
        for n, name in ((5, "square4"), (7, "torus6")):
            cube = mc.generate(mc.FamilySpec("hamming_cube", n))
            br = mc.obsdiam_screen_estimate(cube, roster[name], 0.1, samples=4, seed=0)
            assert (br.lower, br.upper) == (0.0, 0.0)
            assert br.witness["values"] == [0] * cube.n

    def test_heavy_cluster_closes_at_zero(self):
        """Three points 1/64 apart carry 7/8 of the mass, one far point the
        rest; into a screen whose smallest distance is 1/8 every map sends
        the cluster to one atom."""
        sp = line_space([0.0, 1 / 64, 2 / 64, 1.0], [0.5, 0.25, 0.125, 0.125])
        screen = line_space([0.0, 0.125, 1.0])
        br = mc.obsdiam_screen_estimate(sp, screen, 0.125, samples=8, seed=0)
        assert (br.lower, br.upper) == (0.0, 0.0)
        # a smaller kappa asks for more mass than the cluster holds: the
        # far point, 31/32 from the cluster's edge, can go 7/8 away
        br = mc.obsdiam_screen_estimate(sp, screen, 0.0625, samples=8, seed=0)
        assert (br.lower, br.upper) == (0.875, 1.0)

    def test_upper_is_the_largest_screen_distance_within_the_source_diameter(self):
        sp = line_space([0.0, 0.1])
        screen = line_space([0.0, 0.1, 1.0, 2.0])
        br = mc.obsdiam_screen_estimate(sp, screen, 0.1, samples=16, seed=0)
        assert (br.lower, br.upper) == (sp.dist[0, 1], sp.dist[0, 1])
        assert br.upper_source != "screen diameter"

    def test_negative_samples_are_refused(self):
        torus8 = mc.generate(mc.FamilySpec("discrete_torus", 8))
        with pytest.raises(ValueError, match="samples must be >= 0"):
            mc.obsdiam_screen_estimate(torus8, torus8, 0.1, samples=-5)

    def test_witness_counts_the_samples_that_fell_back(self, monkeypatch):
        """Every sample drawn that runs out of backtracks is counted; a
        bracket that closes stops drawing, and the one-component shortcut
        draws none."""
        cube3 = mc.generate(mc.FamilySpec("hamming_cube", 3))
        torus6 = dict(mc.default_screen_roster())["torus6"]
        br = mc.obsdiam_screen_estimate(cube3, torus6, 0.1, samples=8, seed=0)
        # the first map already reaches upper, torus6's diameter
        assert br.lower == br.upper == torus6.diameter
        assert (br.witness["samples"], br.witness["fallbacks"]) == (1, 0)
        monkeypatch.setattr(mc.observable, "_search_lipschitz_map", lambda *args: None)
        br = mc.obsdiam_screen_estimate(cube3, torus6, 0.1, samples=8, seed=0)
        assert (br.witness["samples"], br.witness["fallbacks"]) == (8, 8)
        assert br.lower == 0.0 and br.witness["values"] == [0] * cube3.n
        cube7 = mc.generate(mc.FamilySpec("hamming_cube", 7))
        br = mc.obsdiam_screen_estimate(cube7, torus6, 0.1, samples=8, seed=0)
        assert (br.witness["samples"], br.witness["fallbacks"]) == (0, 0)

    def test_lower_above_upper_raises(self, two_point, monkeypatch):
        """A score above upper is refused when the bracket is built.  The
        first seeded map of two_point is constant and is never scored; the
        second is not, so two samples reach the stub."""
        scored = []

        def stub(*args):
            scored.append(args)
            return 9.0

        monkeypatch.setattr(mc.observable, "partial_diameter_screen", stub)
        with pytest.raises(RuntimeError, match="inverted bracket"):
            mc.obsdiam_screen_estimate(two_point, line_space([0.0, 1.0]), 0.1, samples=2)
        assert len(scored) == 1

    def test_bracket_holds_the_exhaustive_maximum_on_tiny_spaces(self):
        """Independent oracle: enumerate every map of a space of at most 5
        points into each roster screen, keep the 1-Lipschitz ones, and take
        the largest partial diameter by subset enumeration.  Coordinates
        and weights are dyadic, so every mass sum is exact."""
        rng = np.random.default_rng(82)
        roster = mc.default_screen_roster()
        for _ in range(20):
            n = int(rng.integers(2, 6))
            scale = float(rng.choice([1 / 32, 1 / 16, 1 / 8, 1 / 4]))
            coords = rng.integers(0, 5, size=(n, 2)) * scale
            while len({tuple(c) for c in coords}) < n:
                coords = rng.integers(0, 5, size=(n, 2)) * scale
            dist = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
            weights = rng.integers(1, 5, size=n) / 16.0
            sp = mc.validate_space(tuple(f"p{i}" for i in range(n)), dist, weights)
            kappa = float(rng.choice([1 / 16, 1 / 8, 1 / 4])) * sp.total_mass
            target = sp.total_mass - kappa
            for _, screen in roster:
                br = mc.obsdiam_screen_estimate(sp, screen, kappa, samples=16, seed=3)
                subsets = [
                    list(sel)
                    for k in range(1, screen.n + 1)
                    for sel in itertools.combinations(range(screen.n), k)
                ]
                images = set()
                for f in itertools.product(range(screen.n), repeat=n):
                    f = np.array(f)
                    if (screen.dist[np.ix_(f, f)] <= sp.dist).all():
                        images.add(tuple(np.bincount(f, weights, minlength=screen.n)))
                true = max(
                    min(
                        screen.dist[np.ix_(sel, sel)].max()
                        for sel in subsets
                        if np.array(image)[sel].sum() >= target
                    )
                    for image in images
                )
                assert br.lower <= true <= br.upper


class TestCandidates:
    def test_candidates_are_all_one_lipschitz(self):
        rng = np.random.default_rng(80)
        for _ in range(8):
            sp = random_space(rng, int(rng.integers(2, 9)))
            for cand in mc.lipschitz_candidates(sp, 0.1, effort=250, seed=6):
                mc.validate_lipschitz(sp, None, cand)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 11),
        st.integers(1, 3),
        st.floats(0.02, 0.45),
    )
    def test_every_member_passes_the_validator(self, seed, n, dim, kappa):
        """The pool keeps a candidate only when it is exactly 1-Lipschitz,
        on Euclidean spaces too, where a distance function to a subset
        can stretch a pair by a rounding."""
        sp = random_space(np.random.default_rng(seed), n, dim=dim)
        for cand in mc.lipschitz_candidates(sp, kappa, effort=500, seed=seed % 7):
            mc.validate_lipschitz(sp, None, cand)

    def test_pool_contains_every_singleton_distance_function(self):
        rng = np.random.default_rng(81)
        sp = random_space(rng, 6)
        cands = mc.lipschitz_candidates(sp, 0.1, effort=250, seed=6)
        for a in range(6):
            want = sp.dist[:, a]
            assert any(np.array_equal(c, want) for c in cands)
