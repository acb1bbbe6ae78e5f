"""Doubling profiles, ratio/packing bounds, net coloring, concentration."""

from __future__ import annotations

import bisect

import numpy as np
import pytest

import mmconc as mc
from conftest import random_space, sorted_row, sorted_row_mass
from mmconc.doubling import _doubling_constants
from mmconc.space import _ROW_BLOCK


def torus(n: int, normalized: bool = False, weights=None) -> mc.FiniteMMSpace:
    return mc.generate(
        mc.FamilySpec("discrete_torus", n, normalized=normalized, weights=weights)
    )


def check_coloring(space, net, coloring):
    """Independent verification: disjoint, exhaustive, each class 5e-separated."""
    scale = 5.0 * coloring.net.epsilon
    seen = []
    for cls in coloring.classes:
        for p in cls:
            assert p not in seen
            seen.append(p)
        for a in cls:
            for b in cls:
                if a != b:
                    assert space.dist[a, b] >= scale
    assert sorted(seen) == sorted(net.members.indices)


def matrix_product_constants(space, radii):
    """Reference: ball masses as (dist <= r) @ weights.  That sums in
    another order, so it agrees with the profile only to a few ulps."""
    return np.array(
        [
            (((space.dist <= 2.0 * r) @ space.weights) / ((space.dist <= r) @ space.weights)).max()
            for r in radii
        ]
    )


def sorted_row_constants(space, radii):
    best = [0.0] * len(radii)
    for x in range(space.n):
        row, cum = sorted_row(space, x)
        for i, r in enumerate(radii):
            inner = cum[bisect.bisect_right(row, r) - 1]
            outer = cum[bisect.bisect_right(row, 2.0 * r) - 1]
            best[i] = max(best[i], outer / inner)
    return np.array(best)


class TestProfile:
    def test_eight_cycle_doubling_constant_at_one(self):
        prof = mc.doubling_profile(torus(8))
        # B(x,2) has 5 points, B(x,1) has 3, uniform mass: C(1) = 5/3
        assert dict(zip(prof.radii, prof.values))[1.0] == 5 / 3

    def test_values_are_minimal_and_attained(self):
        rng = np.random.default_rng(91)
        for _ in range(10):
            sp = random_space(rng, int(rng.integers(3, 9)))
            prof = mc.doubling_profile(sp)
            for r, c in zip(prof.radii, prof.values):
                ratios = []
                for x in range(len(sp.points)):
                    inner = mc.ball_mass(sp, x, r)
                    outer = mc.ball_mass(sp, x, 2 * r)
                    ratios.append(outer / inner)
                # minimal constant, attained at the argmax (up to summation order)
                assert max(ratios) == pytest.approx(c, rel=1e-12)

    def test_default_grid_is_half_distances_within_horizon(self):
        sp = torus(8)
        prof = mc.doubling_profile(sp)
        want = sorted({d / 2 for d in np.unique(sp.dist) if 0 < d / 2 <= prof.horizon})
        assert list(prof.radii) == want

    def test_sorted_row_masses_bit_for_bit(self):
        rng = np.random.default_rng(96)
        spaces = [random_space(rng, int(rng.integers(2, 12))) for _ in range(8)]
        spaces += [torus(9), mc.generate(mc.FamilySpec("hamming_cube", 4))]
        # ties with unequal weights: the order within a tie changes the sums
        spaces += [torus(40, weights=tuple(rng.uniform(0.5, 1.5, 40)))]
        for n in (5, 6):
            weights = tuple(rng.uniform(0.5, 1.5, 2**n))
            spaces.append(mc.generate(mc.FamilySpec("hamming_cube", n, weights=weights)))
        for sp in spaces:
            prof = mc.doubling_profile(sp)
            assert np.array_equal(prof.values, sorted_row_constants(sp, prof.radii))
            assert np.allclose(
                prof.values, matrix_product_constants(sp, prof.radii), rtol=1e-14, atol=0.0
            )

    def test_blocks_of_rows_change_nothing(self):
        weights = np.random.default_rng(97).uniform(0.5, 1.5, 150)
        weights[-1] = 0.01  # the last row, in the last block, sets C(1/2)
        sp = torus(150, weights=tuple(weights))
        prof = mc.doubling_profile(sp)
        assert sp.n > 2 * _ROW_BLOCK and prof.radii[0] == 0.5
        # sorted order of row 149: itself, then the tie 0, 148 in index order
        assert prof.values[0] == (weights[-1] + weights[0] + weights[-2]) / weights[-1]
        assert np.array_equal(prof.values, sorted_row_constants(sp, prof.radii))
        assert np.allclose(
            prof.values, matrix_product_constants(sp, prof.radii), rtol=1e-14, atol=0.0
        )

    def test_uniform_torus_2048_matches_the_closed_form(self):
        """Uniform masses are multiples of 2^-11, so every ball mass is
        exact and each ratio is the correctly rounded quotient."""
        n = 2048
        prof = mc.doubling_profile(torus(n))
        k = np.arange(1, n // 2 + 1)
        assert np.array_equal(prof.radii, k / 2.0)
        want = np.minimum(2 * k + 1, n) / np.minimum(2 * (k // 2) + 1, n)
        assert np.array_equal(prof.values, want)

    def test_off_grid_and_refined_values_equal_grid_values(self):
        """Constants computed directly at any subset of the grid radii, alone
        or beside off-grid radii as lemma_constant's rungs are, equal the
        profile's values there: each radius is read off the sorted rows on
        its own, so the profile needs no lookup of its grid."""
        rng = np.random.default_rng(98)
        spaces = [random_space(rng, 9), torus(16), mc.generate(mc.FamilySpec("hamming_cube", 5))]
        for sp in spaces:
            full = mc.doubling_profile(sp)
            for _ in range(6):
                pick = np.flatnonzero(rng.random(len(full.radii)) < 0.5)
                rng.shuffle(pick)
                off = rng.uniform(0.0, full.horizon, 3)
                got = _doubling_constants(sp, np.concatenate((full.radii[pick], off)))
                assert np.array_equal(got[: len(pick)], full.values[pick])
                assert np.array_equal(got[len(pick) :], _doubling_constants(sp, off))

    def test_requires_positive_weights(self):
        sp = mc.generate(mc.FamilySpec("hamming_cube", 2))
        dead = mc.FiniteMMSpace(sp.points, sp.dist, np.array([0.5, 0.5, 0.0, 0.0]))
        with pytest.raises(ValueError):
            mc.doubling_profile(dead)


class TestLadderAndRatio:
    def test_ladder_constant_on_the_sixteen_cycle(self):
        prof = mc.doubling_profile(torus(16))
        assert mc.lemma_constant(prof, 0.25, 4.0) == 3.0

    def test_ladder_includes_the_base_rung(self):
        prof = mc.doubling_profile(torus(16))
        for r1, r2 in [(0.25, 4.0), (0.5, 2.0), (1.0, 3.0)]:
            assert mc.lemma_constant(prof, r1, r2) >= _doubling_constants(prof.space, [r1])[0]

    def test_ladder_rejects_bad_radii(self):
        prof = mc.doubling_profile(torus(16))
        with pytest.raises(ValueError):
            mc.lemma_constant(prof, 2.0, 1.0)  # r1 > r2
        with pytest.raises(ValueError):
            mc.lemma_constant(prof, 0.5, 5.0)  # 2*r2 beyond horizon

    def test_ratio_bound_holds_empirically(self):
        for sp in [torus(8), torus(16)]:
            prof = mc.doubling_profile(sp)
            r1, r2 = 1.0, prof.horizon / 2
            bound = mc.ratio_bound(prof, r1, r2)
            worst = np.inf
            for y in range(len(sp.points)):
                for x in range(len(sp.points)):
                    if sp.dist[x, y] <= r2:
                        worst = min(
                            worst,
                            mc.ball_mass(sp, x, r1) / mc.ball_mass(sp, y, r2),
                        )
            assert 0.0 < bound <= 1.0
            assert bound <= worst


class TestPacking:
    def test_sixteen_cycle_packing_numbers(self):
        sp = torus(16)
        prof = mc.doubling_profile(sp)
        net = mc.build_net(sp, 0.75)
        chk = mc.packing_bound_check(prof, net, 0.75)
        assert chk == mc.PackingCheck(36864.0, 7, True)

    def test_radius_precondition_is_enforced(self):
        sp = torus(16)
        prof = mc.doubling_profile(sp)  # horizon 8
        net = mc.build_net(sp, 1.0)
        with pytest.raises(ValueError):
            mc.packing_bound_check(prof, net, 1.0)  # 32 > 3*8

    def test_holds_on_random_spaces(self):
        rng = np.random.default_rng(92)
        for _ in range(10):
            sp = random_space(rng, int(rng.integers(4, 10)))
            prof = mc.doubling_profile(sp)
            eps = 3.0 * prof.horizon / 32.0
            net = mc.build_net(sp, eps)
            assert mc.packing_bound_check(prof, net, eps).holds

    def test_multiplicity_is_the_most_members_in_any_member_ball(self):
        rng = np.random.default_rng(93)
        spaces = [random_space(rng, int(rng.integers(4, 12))) for _ in range(6)]
        spaces += [torus(64), mc.generate(mc.FamilySpec("hamming_cube", 6))]
        for sp in spaces:
            prof = mc.doubling_profile(sp)
            eps = prof.horizon / 11.0  # clear of the 32 * eps <= 3 * horizon edge
            net = mc.build_net(sp, eps)
            per_member = [mc.packing_multiplicity(sp, net, m, 5.0 * eps) for m in net.members]
            assert mc.packing_bound_check(prof, net, eps).max_multiplicity == max(per_member)


class TestColoring:
    def test_sixteen_cycle_coloring_frozen(self):
        sp = torus(16)
        net = mc.build_net(sp, 1.0)
        col = mc.color_net(sp, net)
        assert col.anchor == 0 and col.k == 11
        assert tuple(cls.indices for cls in col.classes) == (
            (0, 6), (1, 7), (2, 8), (3, 9), (4, 10),
            (5,), (11,), (12,), (13,), (14,), (15,),
        )
        check_coloring(sp, net, col)

    def test_classes_verified_on_random_spaces(self):
        rng = np.random.default_rng(93)
        for _ in range(15):
            sp = random_space(rng, int(rng.integers(4, 11)))
            eps = float(rng.uniform(0.05, 0.5)) * sp.diameter
            net = mc.build_net(sp, eps)
            col = mc.color_net(sp, net)
            check_coloring(sp, net, col)
            # k equals the max number of members in a 5-eps ball of a member
            members = list(net.members.indices)
            counts = [
                sum(sp.dist[a, b] <= 5 * eps for b in members) for a in members
            ]
            assert col.k == max(counts)


def rescanning_net(space, epsilon):
    """Reference: the greedy net that rescans every admitted point."""
    admitted = []
    for i in range(space.n):
        if not admitted or space.dist[i, admitted].min() >= epsilon:
            admitted.append(i)
    return tuple(sorted(admitted))


def rescanning_classes(space, members, anchor_betas, scale):
    """Reference: color classes that test each candidate against every
    point chosen so far."""
    remaining = set(members)
    classes = []
    for i, beta in enumerate(anchor_betas):
        barred = set(anchor_betas[i + 1 :])
        chosen = [beta]
        remaining.discard(beta)
        for p in sorted(remaining):
            if p in barred:
                continue
            if all(space.dist[p, q] >= scale for q in chosen):
                chosen.append(p)
        remaining.difference_update(chosen)
        classes.append(tuple(sorted(chosen)))
    return tuple(classes)


class TestScansMatchTheRescanningLoops:
    def _check(self, sp, eps):
        net = mc.build_net(sp, eps)
        assert net.members.indices == rescanning_net(sp, eps)
        col = mc.color_net(sp, net)
        members = list(net.members.indices)
        betas = [m for m in members if sp.dist[col.anchor, m] <= 5.0 * eps]
        want = rescanning_classes(sp, members, betas, 5.0 * eps)
        assert tuple(c.indices for c in col.classes) == want

    def test_random_spaces(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            sp = random_space(rng, int(rng.integers(1, 40)))
            eps = float(rng.uniform(0.02, 0.6)) * max(sp.diameter, 1.0)
            self._check(sp, eps)

    def test_cube_nine(self):
        sp = mc.generate(mc.FamilySpec("hamming_cube", 9))
        for eps in (1 / 9, 2 / 9, 3 * sp.diameter / 32, 0.5):
            self._check(sp, eps)


class TestConcentrationWitness:
    def _cluster_space(self):
        d = np.full((4, 4), 100.0)
        np.fill_diagonal(d, 0.0)
        d[0, 1] = d[1, 0] = 5.0
        d[2, 3] = d[3, 2] = 4.2
        d = mc.exact_triangle_closure(d)
        return mc.validate_space(
            ("x1", "x2", "y1", "y2"), d, np.array([0.4, 0.1, 0.3, 0.15])
        )

    def test_reported_masses_match_direct_recomputation(self):
        rng = np.random.default_rng(94)
        for _ in range(15):
            sp = random_space(rng, int(rng.integers(3, 9)))
            screen = random_space(rng, int(rng.integers(2, 6)))
            idx = rng.integers(0, len(screen.points), len(sp.points))
            image = mc.pushforward_screen(sp, screen, idx)
            eps = float(rng.uniform(0.05, 0.4))
            net = mc.build_net(screen, eps)
            w = mc.concentration_witness(image, net, mass_floor=0.0)
            assert w is not None
            ball2 = sorted_row_mass(image, w.center, 2 * eps)
            ball3 = sorted_row_mass(image, w.center, 3 * eps)
            total = sorted_row_mass(image, w.center, np.inf)
            assert w.ball_mass == ball2 and w.residual == total - ball3
            # no other member has a strictly heavier 2-eps ball
            for member in net.members:
                assert sorted_row_mass(image, member, 2 * eps) <= w.ball_mass

    def test_residual_plus_triple_ball_is_total_mass(self):
        rng = np.random.default_rng(95)
        sp = random_space(rng, 7)
        image = mc.pushforward_screen(sp, sp, np.arange(7))
        net = mc.build_net(sp, 0.2)
        w = mc.concentration_witness(image, net, 0.0)
        ball3 = image.weights[sp.dist[w.center] <= 0.6].sum()
        assert w.residual <= image.total_mass - ball3 + 1e-12

    def test_below_floor_returns_none(self, two_point):
        image = mc.pushforward_screen(two_point, two_point, [0, 1])
        net = mc.build_net(two_point, 0.1)
        assert mc.concentration_witness(image, net, mass_floor=0.9) is None

    def test_residual_can_rise_when_the_best_center_switches(self):
        """The reported residual is not monotone in epsilon: enlarging the
        ball can hand the argmax to a different cluster with more mass
        far away.  Pinned so the behavior stays documented."""
        sp = self._cluster_space()
        lo = mc.concentration_witness(sp, mc.build_net(sp, 2.0), 0.05)
        hi = mc.concentration_witness(sp, mc.build_net(sp, 2.1), 0.05)
        assert lo.center == 0 and hi.center == 2  # argmax moved clusters
        assert hi.residual > lo.residual

    def test_residual_monotone_at_a_fixed_center(self):
        """At any fixed center the outside-3-eps mass can only shrink as
        epsilon grows; the non-monotonicity above is purely the switch."""
        sp = self._cluster_space()
        for center in range(4):
            prev = np.inf
            for eps in (2.0, 2.1, 2.5, 3.0):
                res = sp.weights[sp.dist[center] > 3 * eps].sum()
                assert res <= prev
                prev = res
