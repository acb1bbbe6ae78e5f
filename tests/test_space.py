"""Validation, balls, and nets on finite metric-measure spaces."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mmconc as mc
from conftest import line_space, random_space, sorted_row_mass
from mmconc.space import _ROW_BLOCK, _triangle_holds


def triple_loop_ok(dist: np.ndarray, weights: np.ndarray) -> bool:
    """Independent axiom check, written as plainly as possible."""
    n = dist.shape[0]
    if dist.shape != (n, n) or weights.shape != (n,):
        return False
    if not (np.isfinite(dist).all() and np.isfinite(weights).all()):
        return False
    if (weights < 0).any():
        return False
    for i in range(n):
        if dist[i, i] != 0.0:
            return False
        for j in range(n):
            if dist[i, j] != dist[j, i]:
                return False
            if i != j and dist[i, j] <= 0.0:
                return False
            for k in range(n):
                if dist[i, j] > dist[i, k] + dist[k, j]:
                    return False
    return True


class TestValidateSpace:
    def test_accepts_random_closed_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            sp = random_space(rng, n)
            assert triple_loop_ok(sp.dist, sp.weights)

    def test_agrees_with_triple_loop_on_corruptions(self):
        """validate_space accepts a matrix iff the plain triple loop does."""
        rng = np.random.default_rng(12)
        for trial in range(40):
            n = int(rng.integers(3, 8))
            sp = random_space(rng, n)
            dist = sp.dist.copy()
            weights = sp.weights.copy()
            kind = trial % 5
            if kind == 0:
                i, j = rng.integers(0, n, 2)
                if i != j:
                    dist[i, j] *= 3.0  # asymmetry (and maybe triangle break)
            elif kind == 1:
                i = int(rng.integers(0, n))
                dist[i, i] = 0.1  # nonzero diagonal
            elif kind == 2:
                weights[int(rng.integers(0, n))] = -0.4
            elif kind == 3:
                i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
                dist[i, j] = dist[j, i] = np.nan
            else:
                # break the triangle inequality through an intermediate point
                i, j = 0, 1
                dist[i, j] = dist[j, i] = dist[i, 2] + dist[2, j] + 0.5
            expected = triple_loop_ok(dist, weights)
            labels = tuple(f"p{i}" for i in range(n))
            if expected:
                mc.validate_space(labels, dist, weights)
            else:
                with pytest.raises(mc.SpaceValidationError):
                    mc.validate_space(labels, dist, weights)

    def test_violation_reports_offending_indices(self):
        dist = np.array([[0.0, 1.0], [1.0, 0.0]])
        dist[0, 1] = 5.0
        with pytest.raises(mc.SpaceValidationError) as err:
            mc.validate_space(("a", "b"), dist, np.array([0.5, 0.5]))
        assert err.value.violations[0].kind == "asymmetry"

    def test_rejects_duplicate_points_and_merge_repairs(self):
        dist = np.array(
            [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        )
        w = np.array([0.25, 0.25, 0.5])
        with pytest.raises(mc.SpaceValidationError):
            mc.validate_space(("a", "b", "c"), dist, w)
        labels, mdist, mw = mc.merge_coincident_points(("a", "b", "c"), dist, w)
        assert len(labels) == 2
        assert mw[0] == pytest.approx(0.5)
        mc.validate_space(labels, mdist, mw)  # merged space is valid

    def test_merge_of_no_points_gives_three_empty_results(self):
        labels, mdist, mw = mc.merge_coincident_points((), np.zeros((0, 0)), [])
        assert labels == ()
        assert mdist.shape == (0, 0) and mdist.dtype == np.float64
        assert mw.shape == (0,) and mw.dtype == np.float64


def hub_loop_triangle(dist: np.ndarray):
    """Reference: the triangle inequality one hub at a time, with the
    report validate_space gives (first 50 violations in hub order, the
    true count)."""
    violations, count = [], 0
    for j in range(dist.shape[0]):
        slack = dist - (dist[:, j][:, None] + dist[j, :][None, :])
        for i, k in np.argwhere(slack > 0.0):
            count += 1
            if len(violations) < 50:
                violations.append(
                    mc.Violation(
                        "triangle",
                        (int(i), int(j), int(k)),
                        f"d[{i},{k}]={dist[i, k]!r} > d[{i},{j}] + d[{j},{k}]"
                        f" = {dist[i, j] + dist[j, k]!r}",
                    )
                )
    return violations, ({"triangle": count} if count else {})


def assert_same_triangle_verdict(dist: np.ndarray) -> bool:
    """validate_space accepts iff the hub loop finds nothing, and rejects
    with the hub loop's violations and counts.  Returns the verdict."""
    n = dist.shape[0]
    labels = tuple(f"p{i}" for i in range(n))
    weights = np.full(n, 1.0 / n)
    violations, counts = hub_loop_triangle(dist)
    assert _triangle_holds(dist) == (not counts)
    if not counts:
        mc.validate_space(labels, dist, weights)
        return True
    with pytest.raises(mc.SpaceValidationError) as err:
        mc.validate_space(labels, dist, weights)
    assert err.value.violations == violations
    assert err.value.counts == counts
    return False


def integer_line(n: int) -> np.ndarray:
    """Points 0..n-1 on the line: every d[i,k] = d[i,j] + d[j,k] with j
    between i and k holds exactly, so one ulp up on d[i,k] breaks it."""
    pos = np.arange(float(n))
    return np.abs(pos[:, None] - pos[None, :])


def raise_by_one_ulp(dist: np.ndarray, i: int, k: int) -> np.ndarray:
    broken = dist.copy()
    broken[i, k] = broken[k, i] = np.nextafter(dist[i, k], np.inf)
    return broken


class TestTriangleScan:
    """The buffered scan answers exactly as the hub loop does."""

    @given(st.integers(0, 2**31 - 1), st.integers(1, 12))
    def test_random_closed_matrices_are_accepted(self, seed, n):
        sp = random_space(np.random.default_rng(seed), n)
        assert assert_same_triangle_verdict(np.array(sp.dist))

    @given(st.integers(0, 2**31 - 1), st.integers(3, 12))
    def test_random_symmetric_matrices(self, seed, n):
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.uniform(0.1, 1.0, (n, n)), 1)
        assert_same_triangle_verdict(upper + upper.T)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 12))
    def test_stretched_entry_of_a_closed_matrix(self, seed, n):
        rng = np.random.default_rng(seed)
        dist = np.array(random_space(rng, n).dist)
        i, k = rng.choice(n, 2, replace=False)
        dist[i, k] = dist[k, i] = dist[i, k] * rng.uniform(1.0, 3.0)
        assert_same_triangle_verdict(dist)

    @given(st.integers(3, 40), st.data())
    def test_one_ulp_breaks(self, n, data):
        dist = integer_line(n)
        i = data.draw(st.integers(0, n - 3))
        k = data.draw(st.integers(i + 2, n - 1))
        assert dist[i, k] == dist[i, i + 1] + dist[i + 1, k]
        assert assert_same_triangle_verdict(dist)
        assert not assert_same_triangle_verdict(raise_by_one_ulp(dist, i, k))

    @pytest.mark.parametrize("n", [_ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1])
    def test_breaks_at_row_block_boundaries(self, n):
        dist = integer_line(n)
        assert assert_same_triangle_verdict(dist)
        b = _ROW_BLOCK
        edges = sorted({0, b - 2, b - 1, b, b + 1, n - 1} & set(range(n)))
        for i in edges:
            for k in edges:
                if abs(i - k) >= 2:
                    assert not assert_same_triangle_verdict(raise_by_one_ulp(dist, i, k))

    def test_report_keeps_fifty_violations_and_the_true_count(self):
        rng = np.random.default_rng(5)
        upper = np.triu(rng.uniform(0.1, 1.0, (20, 20)), 1)
        dist = upper + upper.T
        violations, counts = hub_loop_triangle(dist)
        assert len(violations) == 50 and counts["triangle"] > 50
        assert not assert_same_triangle_verdict(dist)

    @given(st.floats(1e-300, 1e300))
    def test_one_and_two_point_spaces(self, a):
        assert assert_same_triangle_verdict(np.zeros((1, 1)))
        assert assert_same_triangle_verdict(np.array([[0.0, a], [a, 0.0]]))


class TestDistinctDistances:
    @pytest.mark.parametrize("n", [1, 2, 7, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 3])
    def test_match_the_upper_triangle(self, n):
        sp = random_space(np.random.default_rng(n), n, dim=2)
        want = np.unique(sp.dist[np.triu_indices(n, k=1)])
        got = sp.distinct_distances()
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_repeated_values_collapse(self):
        sp = mc.generate(mc.FamilySpec("discrete_torus", 2 * _ROW_BLOCK + 5, normalized=False))
        assert sp.distinct_distances().tolist() == list(range(1, _ROW_BLOCK + 3))


class TestBalls:
    def test_ball_mass_monotone_and_total(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            sp = random_space(rng, int(rng.integers(2, 10)))
            x = int(rng.integers(0, len(sp.points)))
            radii = np.sort(rng.uniform(0.0, sp.diameter, 6))
            masses = [mc.ball_mass(sp, x, r) for r in radii]
            assert masses == [sorted_row_mass(sp, x, r) for r in radii]
            assert all(a <= b for a, b in zip(masses, masses[1:]))
            # the whole ball is the row total of the sorted-row sums, which
            # can differ from the pairwise weights.sum() in the last place
            full = mc.ball_mass(sp, x, sp.diameter)
            assert full == sorted_row_mass(sp, x, np.inf)
            assert full == pytest.approx(sp.weights.sum(), rel=1e-14, abs=0)

    def test_membership_symmetry(self):
        rng = np.random.default_rng(22)
        sp = random_space(rng, 7)
        for r in rng.uniform(0, sp.diameter, 5):
            for x in range(7):
                ball = set(mc.closed_ball(sp, x, r).indices)
                for y in range(7):
                    assert (y in ball) == (
                        x in set(mc.closed_ball(sp, y, r).indices)
                    )


    @pytest.mark.parametrize("radius", [-0.5, float("nan")])
    def test_both_ball_functions_refuse_a_negative_or_nan_radius(self, radius):
        torus8 = mc.generate(mc.FamilySpec("discrete_torus", 8))
        for ball in (mc.closed_ball, mc.ball_mass):
            with pytest.raises(ValueError, match="radius must be >= 0"):
                ball(torus8, 0, radius)


class TestNets:
    @given(st.integers(0, 2**31 - 1), st.floats(0.05, 0.9))
    def test_net_is_separated_and_covering(self, seed, eps):
        rng = np.random.default_rng(seed)
        sp = random_space(rng, int(rng.integers(2, 11)))
        net = mc.build_net(sp, eps)
        members = list(net.members.indices)
        assert members, "a net is never empty"
        for a in members:
            for b in members:
                if a != b:
                    assert sp.dist[a, b] >= eps
        for x in range(len(sp.points)):
            if x not in members:
                assert min(sp.dist[x, m] for m in members) < eps

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan")])
    def test_a_scale_that_is_not_positive_is_refused(self, unit_interval_grid, epsilon):
        with pytest.raises(ValueError, match="epsilon must be > 0"):
            mc.build_net(unit_interval_grid, epsilon)

    def test_threshold_comparison_is_exact(self):
        # members at distance exactly epsilon are both kept: >= convention
        sp = line_space([0.0, 0.5, 1.0])
        net = mc.build_net(sp, 0.5)
        assert net.members.indices == (0, 1, 2)

    def test_packing_multiplicity_counts_net_points_in_ball(self):
        sp = line_space(np.linspace(0.0, 1.0, 11))
        net = mc.build_net(sp, 0.2)
        mult = mc.packing_multiplicity(sp, net, net.members.indices[0], 0.45)
        inside = [
            m for m in net.members.indices
            if sp.dist[net.members.indices[0], m] <= 0.45
        ]
        assert mult == len(inside)
