"""Doubling profiles, ratio/packing bounds, net coloring, concentration."""

from __future__ import annotations

import bisect
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import mmconc as mc
import mmconc.doubling
import mmconc.space
from conftest import float_sorted_ball_mass_blocks, random_space, sorted_row, sorted_row_mass
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


def table_at(profile, radii):
    """The profile's step table read at each radius: the value of the last
    step at or below it."""
    return profile.step_values[np.searchsorted(profile.steps, radii, side="right") - 1]


def ladder_reference(space, r1, r2):
    """lemma_constant by the sorted-row reference at each rung."""
    rungs = [r1]
    while rungs[-1] < 2.0 * r2:
        rungs.append(rungs[-1] * 2.0)
    return float(sorted_row_constants(space, rungs).max())


def grid_l1_space(rng, n):
    """Distinct points of an eighth-grid in the plane under the L1 metric:
    every distance and sum is exact, and distances repeat."""
    pts = np.unique(rng.integers(0, 16, (n, 2)), axis=0) / 8.0
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    return mc.validate_space([f"p{i}" for i in range(len(pts))], dist, rng.uniform(0.2, 1.0, len(pts)))


@st.composite
def small_spaces(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 12))  # one point is an explicit example
    return random_space(rng, n) if draw(st.booleans()) else grid_l1_space(rng, n)


ONE_POINT = mc.validate_space(("p0",), [[0.0]], [1.0])


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

    @given(small_spaces())
    @example(ONE_POINT)
    def test_the_default_horizon_is_the_diameter_read_off_the_table(self, sp):
        """The grade table's last entry is the largest distance: the same
        float as a pass over the matrix, and 1.0 on a single point."""
        assert mc.doubling_profile(sp).horizon == (sp.diameter if sp.n > 1 else 1.0)

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
        """The step table read at any subset of the grid radii gives the
        profile's values there, and read at off-grid radii up to twice the
        horizon, as lemma_constant's rungs are, gives the sorted-row
        reference there: the grid and the rungs have one source."""
        rng = np.random.default_rng(98)
        spaces = [random_space(rng, 9), torus(16), mc.generate(mc.FamilySpec("hamming_cube", 5))]
        for sp in spaces:
            full = mc.doubling_profile(sp)
            for _ in range(6):
                pick = np.flatnonzero(rng.random(len(full.radii)) < 0.5)
                rng.shuffle(pick)
                off = rng.uniform(0.0, 2.0 * full.horizon, 3)
                assert np.array_equal(table_at(full, full.radii[pick]), full.values[pick])
                assert np.array_equal(table_at(full, off), sorted_row_constants(sp, off))

    @given(small_spaces(), st.sampled_from([1.0, 1.0 / 3.0, 0.61]))
    @example(ONE_POINT, 1.0)
    def test_table_and_ladder_equal_the_sorted_row_reference(self, sp, fraction):
        """Exactly, at every distance d and half-distance d/2, strictly
        between two steps, below d_min/2 and at 2 * horizon."""
        prof = mc.doubling_profile(sp, sp.diameter * fraction if sp.diameter > 0.0 else None)
        h = prof.horizon
        d = np.unique(sp.dist[sp.dist > 0.0])
        steps = np.unique(np.concatenate(([0.0], d, d / 2.0)))
        between = (steps[:-1] + steps[1:]) / 2.0
        assert ((steps[:-1] < between) & (between < steps[1:])).all()
        radii = np.concatenate((steps, between, d[:1] / 4.0, [h / 4.0, h / 2.0, 2.0 * h]))
        radii = radii[radii <= 2.0 * h]
        assert prof.steps[0] == 0.0 and prof.step_values[0] == 1.0
        assert np.array_equal(table_at(prof, radii), sorted_row_constants(sp, radii))
        for r in radii[(radii > 0.0) & (2.0 * radii <= h)]:
            assert mc.lemma_constant(prof, r, r) == ladder_reference(sp, r, r)
            if r <= h / 2.0:
                assert mc.lemma_constant(prof, r, h / 2.0) == ladder_reference(sp, r, h / 2.0)

    def test_profiles_equal_the_float_sorted_ones(self, monkeypatch):
        """Every array of a profile keeps its bytes when the ball masses
        come from rows sorted by float distance instead of by rank."""
        rng = np.random.default_rng(100)
        spaces = [mc.generate(mc.FamilySpec("hamming_cube", n, weights=tuple(rng.uniform(0.5, 1.5, 2**n))))
                  for n in range(2, 10)]
        spaces += [torus(n, weights=tuple(rng.uniform(0.5, 1.5, n))) for n in range(3, 18)]
        spaces += [random_space(rng, int(rng.integers(2, 30))) for _ in range(10)]
        profiles = [mc.doubling_profile(sp) for sp in spaces]
        monkeypatch.setattr(mmconc.doubling, "_ball_mass_blocks", lambda sp, count, centers=None:
                            float_sorted_ball_mass_blocks(sp, sp.grades[0][:count], centers))
        for sp, got in zip(spaces, profiles):
            want = mc.doubling_profile(sp)
            for name in ("radii", "values", "steps", "step_values"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_memory_stays_near_the_distance_matrix(self):
        """Blocks of centers shrink as the distance table grows: with about
        44,000 distinct distances among 300 points the profile's peak stays
        under 16 distance matrices."""
        rng = np.random.default_rng(101)
        pts = rng.integers(0, 1 << 20, (300, 3)) / float(1 << 20)
        dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)  # dyadic, so every sum is exact
        sp = mc.validate_space([f"p{i}" for i in range(300)], dist, rng.uniform(0.5, 1.5, 300))
        tracemalloc.start()
        try:
            mc.doubling_profile(sp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sp.distinct_distances()) > 40_000
        assert peak < 16 * sp.dist.nbytes

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
            assert mc.lemma_constant(prof, r1, r2) >= sorted_row_constants(prof.space, [r1])[0]

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


class TestOnePassOverTheRows:
    @pytest.mark.parametrize("space", [mc.generate(mc.FamilySpec("hamming_cube", 5)), torus(16)],
                             ids=["cube5", "torus16"])
    def test_the_profile_sorts_once_and_the_bounds_never(self, space, monkeypatch):
        """One pass of ball masses, ranked by the generator's grades: the
        profile builds no grades of its own."""
        calls = Counter()
        blocks, grade = mmconc.space._ball_mass_blocks, mmconc.space._grade

        def counted_blocks(*args, **kwargs):
            calls["_ball_mass_blocks"] += 1
            return blocks(*args, **kwargs)

        def counted_grade(dist):
            calls["_grade"] += 1
            return grade(dist)

        for module in (mmconc.space, mmconc.doubling):
            monkeypatch.setattr(module, "_ball_mass_blocks", counted_blocks)
        monkeypatch.setattr(mmconc.space, "_grade", counted_grade)
        prof = mc.doubling_profile(space)
        assert calls == {"_ball_mass_blocks": 1}
        calls.clear()
        h = prof.horizon
        net = mc.build_net(space, h / 11.0)
        mc.lemma_constant(prof, h / 8.0, h / 2.0)
        mc.ratio_bound(prof, h / 8.0, h / 2.0)
        mc.packing_bound_check(prof, net, h / 11.0)
        assert calls == {}


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
        with pytest.raises(ValueError, match="need 2\\*r2 <= horizon 8.0"):
            mc.packing_bound_check(prof, net, 1.0)  # 2 * 16/3 > 8

    def test_refuses_exactly_the_scales_its_ladder_refuses(self):
        """The one scale rule is lemma_constant's, 2*r2 <= horizon for r2 =
        16*eps/3 as computed: on the normalized 5-point torus, at its own
        horizon and at 24 others, every eps within 3 ulps of 3*horizon/32
        is refused by the check exactly when the ladder refuses it."""
        sp = mc.generate(mc.FamilySpec("discrete_torus", 5))
        horizons = [None, *np.random.default_rng(95).uniform(0.05, sp.diameter, 24)]
        verdicts = set()
        for horizon in horizons:
            prof = mc.doubling_profile(sp, horizon)
            eps = 3.0 * prof.horizon / 32.0
            for _ in range(3):
                eps = np.nextafter(eps, 0.0)
            for _ in range(7):
                net = mc.build_net(sp, float(eps))
                try:
                    mc.lemma_constant(prof, eps / 3.0, 16.0 * eps / 3.0)
                    refused = False
                except ValueError:
                    refused = True
                if refused:
                    with pytest.raises(ValueError, match="need 2\\*r2 <= horizon"):
                        mc.packing_bound_check(prof, net, float(eps))
                else:
                    assert mc.packing_bound_check(prof, net, float(eps)).holds
                verdicts.add(refused)
                eps = np.nextafter(eps, 1.0)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("epsilon", [0.5, 0.0, -0.75, float("nan")])
    def test_epsilon_must_be_the_nets_own(self, epsilon):
        sp = torus(16)
        net = mc.build_net(sp, 0.75)
        with pytest.raises(ValueError, match="is not the net's 0.75"):
            mc.packing_bound_check(mc.doubling_profile(sp), net, epsilon)

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
            eps = prof.horizon / 11.0  # clear of the ladder's 2 * (16 * eps / 3) <= horizon edge
            net = mc.build_net(sp, eps)
            members = list(net.members)
            per_member = [int((sp.dist[m, members] <= 5.0 * eps).sum()) for m in members]
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


def rebarring_coloring(space, net):
    """Reference: color_net with the barred set rebuilt for every class."""
    members = np.array(net.members.indices)
    scale = 5.0 * net.epsilon
    close = space.dist[np.ix_(members, members)] <= scale
    a = int(np.argmax(close.sum(axis=1)))
    betas = members[close[a]]
    remaining = set(int(p) for p in members)
    classes = []
    for i in range(len(betas)):
        barred = set(int(b) for b in betas[i + 1 :])
        chosen = [int(betas[i])]
        remaining.discard(chosen[0])
        ok = space.dist[chosen[0]] >= scale
        for p in sorted(remaining):
            if p not in barred and ok[p]:
                chosen.append(p)
                ok &= space.dist[p] >= scale
        remaining.difference_update(chosen)
        classes.append(tuple(sorted(chosen)))
    return int(members[a]), tuple(classes)


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

    def test_one_barred_set_colors_as_the_rebuilt_ones(self):
        """Anchor and classes as when the barred set is rebuilt per class,
        on random nets and on cube 8, where every point is a member and
        k = 219."""
        rng = np.random.default_rng(102)
        cases = [(random_space(rng, int(rng.integers(1, 40))), float(rng.uniform(0.02, 0.6)))
                 for _ in range(20)]
        cases += [(mc.generate(mc.FamilySpec("hamming_cube", 8)), eps) for eps in (1 / 8, 2 / 8)]
        sizes = []
        for sp, eps in cases:
            net = mc.build_net(sp, eps)
            col = mc.color_net(sp, net)
            assert (col.anchor, tuple(c.indices for c in col.classes)) == rebarring_coloring(sp, net)
            sizes.append((len(net.members), col.k))
        assert sizes[-2] == (256, 219)


def running_mask_coloring(space, net):
    """Reference: color_net as a loop over the sorted unassigned points,
    with one barred set and a running mask over whole rows of the matrix."""
    members = np.array(net.members.indices)
    scale = 5.0 * net.epsilon
    close = space.dist[np.ix_(members, members)] <= scale
    a = int(np.argmax(close.sum(axis=1)))
    betas = members[close[a]]
    remaining = set(int(p) for p in members)
    barred = set(int(b) for b in betas)
    classes = []
    for beta in betas:
        chosen = [int(beta)]
        barred.discard(chosen[0])
        remaining.discard(chosen[0])
        ok = space.dist[chosen[0]] >= scale
        for p in sorted(remaining):
            if p not in barred and ok[p]:
                chosen.append(p)
                ok &= space.dist[p] >= scale
        remaining.difference_update(chosen)
        classes.append(tuple(sorted(chosen)))
    if remaining:
        raise RuntimeError(f"net coloring left {sorted(remaining)} unassigned; this is a bug")
    return int(members[a]), tuple(classes)


def bench_spaces():
    """The geometry bench's five spaces, whose nets it colors at
    3 * diameter / 32 (their weights do not enter a coloring)."""
    tori = (mc.FamilySpec("discrete_torus", 8), mc.FamilySpec("discrete_torus", 12))
    specs = [mc.FamilySpec("hamming_cube", 9), mc.FamilySpec("hamming_cube", 11),
             mc.FamilySpec("discrete_torus", 512), mc.FamilySpec("discrete_torus", 1536),
             mc.FamilySpec("product", factors=tori)]
    return [pytest.param(spec, id=f"{spec.kind}{spec.n or ''}") for spec in specs]


class TestBitsetColoring:
    """color_net keeps its sets as bits of Python ints and reads only the
    members' block of the matrix; it colors as the running-mask loop."""

    @pytest.mark.parametrize("spec", bench_spaces())
    def test_the_bench_nets_color_as_the_loop(self, spec):
        sp = mc.generate(spec)
        net = mc.build_net(sp, 3.0 * sp.diameter / 32.0)
        col = mc.color_net(sp, net)
        assert (col.anchor, tuple(c.indices for c in col.classes)) == running_mask_coloring(sp, net)

    @given(small_spaces(), st.floats(0.01, 0.7))
    def test_random_spaces_color_as_the_loop(self, sp, share):
        net = mc.build_net(sp, share * sp.diameter)
        col = mc.color_net(sp, net)
        assert (col.anchor, tuple(c.indices for c in col.classes)) == running_mask_coloring(sp, net)

    def test_only_the_members_block_is_read(self):
        sp = torus(40, normalized=True)
        net = mc.build_net(sp, 0.06)
        outside = np.setdiff1d(np.arange(sp.n), net.members.indices)
        dist = sp.dist.copy()
        dist[outside] = np.nan
        dist[:, outside] = np.nan
        blank = mc.FiniteMMSpace(sp.points, dist, sp.weights)
        assert mc.color_net(blank, net) == mc.color_net(sp, net)

    @pytest.mark.parametrize("epsilon", [float("nan"), -1.0])
    def test_a_net_left_uncolored_is_refused_in_the_loop_words(self, epsilon):
        """No member is within a 5*eps ball of another, not even its own:
        no class is seeded, and every member is left over."""
        sp = torus(8)
        net = mc.Net(epsilon, mc.PointSet.of(range(0, 8, 2)))
        with pytest.raises(RuntimeError) as got:
            mc.color_net(sp, net)
        with pytest.raises(RuntimeError) as want:
            running_mask_coloring(sp, net)
        assert str(got.value) == str(want.value)
        assert str(got.value) == "net coloring left [0, 2, 4, 6] unassigned; this is a bug"

    def test_a_zero_scale_admits_members_in_index_order(self):
        """At eps = 0 every member is 5*eps from every other and from
        itself; the one class is every member, the anchor first."""
        sp = torus(12)
        net = mc.Net(0.0, mc.PointSet.of(range(0, 12, 3)))
        col = mc.color_net(sp, net)
        assert (col.anchor, tuple(c.indices for c in col.classes)) == running_mask_coloring(sp, net)
        assert tuple(c.indices for c in col.classes) == ((0, 3, 6, 9),)


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
