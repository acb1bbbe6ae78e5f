"""Validation, balls, and nets on finite metric-measure spaces."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mmconc as mc
from conftest import (
    check_triangle,
    float_sorted_ball_mass_blocks,
    hub_loop_triangle,
    line_space,
    random_space,
    sorted_row_mass,
)
from mmconc.space import _MAX_REPORTED, _ROW_BLOCK, _ball_mass_blocks, _hop_certificate


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

    def test_rejects_duplicate_points(self):
        dist = np.array(
            [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        )
        w = np.array([0.25, 0.25, 0.5])
        with pytest.raises(mc.SpaceValidationError):
            mc.validate_space(("a", "b", "c"), dist, w)

    def test_every_violation_of_every_kind_is_counted(self):
        """Each kind lists its first 50 offending rows and counts all of them."""
        torus = mc.generate(mc.FamilySpec("discrete_torus", 80))
        row_nan, skewed, diagonal = torus.dist.copy(), torus.dist.copy(), torus.dist.copy()
        row_nan[0, 1:] = np.nan
        skewed[0, 1:] += 1e-3  # 79 pairs, each unequal both ways
        np.fill_diagonal(diagonal, 0.5)
        cases = [
            (torus.dist, -np.ones(80), {"negative_weight": 80, "zero_total_mass": 1}),
            (torus.dist, np.full(80, np.nan), {"nonfinite_weight": 80}),
            (row_nan, torus.weights, {"nonfinite_distance": 79}),
            (skewed, torus.weights, {"asymmetry": 158}),
            (diagonal, torus.weights, {"nonzero_diagonal": 80}),
            (np.zeros((80, 80)), torus.weights, {"nonpositive_distance": 80 * 79}),
        ]
        for dist, weights, counts in cases:
            with pytest.raises(mc.SpaceValidationError) as err:
                mc.validate_space(torus.points, dist, weights)
            assert err.value.counts == counts
            for kind, count in counts.items():
                listed = [v for v in err.value.violations if v.kind == kind]
                assert len(listed) == min(count, 50)

    def test_pair_rules_list_in_row_major_order_across_row_blocks(self):
        """The asymmetry and positive-distance rules go through the matrix a
        block of rows at a time; they list the same first 50 pairs, in the
        same order, and count the same as whole-matrix tests do."""
        n = 2 * _ROW_BLOCK + 9
        torus = mc.generate(mc.FamilySpec("discrete_torus", n))
        rng = np.random.default_rng(17)
        dist = torus.dist.copy()
        for i, j in rng.integers(0, n, (32, 2)):
            if i != j:
                dist[i, j] += 0.25  # one way only: (i, j) and (j, i) both unequal
        for i, j in rng.integers(0, n, (40, 2)):
            if i != j:
                dist[i, j] = dist[j, i] = -float(rng.integers(0, 2))  # 0.0 or -1.0, symmetric
        dist[5, 5] = dist[n - 1, n - 1] = 0.5
        off = dist.copy()
        np.fill_diagonal(off, 1.0)
        d = dist.tolist()
        want = {
            "asymmetry": [((i, j), f"{d[i][j]!r} != {d[j][i]!r}")
                          for i, j in np.argwhere(dist != dist.T).tolist()],
            "nonzero_diagonal": [((5,), "d[5,5]=0.5"), ((n - 1,), f"d[{n - 1},{n - 1}]=0.5")],
            "nonpositive_distance": [((i, j), f"d={d[i][j]!r} between distinct points")
                                     for i, j in np.argwhere(off <= 0.0).tolist()],
        }
        for kind in ("asymmetry", "nonpositive_distance"):  # the 50 listed span two blocks
            rows = [ij[0] for ij, _ in want[kind]]
            assert len(rows) > 50 and rows[0] < _ROW_BLOCK <= rows[49] < 2 * _ROW_BLOCK <= rows[-1]
        with pytest.raises(mc.SpaceValidationError) as err:
            mc.validate_space(torus.points, dist, torus.weights)
        assert err.value.counts == {kind: len(pairs) for kind, pairs in want.items()}
        assert err.value.violations == [
            mc.Violation(kind, ij, detail) for kind, pairs in want.items() for ij, detail in pairs[:50]
        ]

    @pytest.mark.parametrize("points, dist, weights, kind, detail", [
        ((), np.zeros((0, 0)), [], "empty", "a space needs at least one point"),
        (("a", "b", "a"), np.ones((3, 3)) - np.eye(3), [0.2, 0.3, 0.5], "duplicate_label",
         "repeated labels: ['a']"),
        (tuple("cbacba"), np.ones((6, 6)) - np.eye(6), [1 / 6] * 6, "duplicate_label",
         "repeated labels: ['c', 'b', 'a']"),  # in order of first appearance, whatever the hash seed
        (("a", "b"), np.zeros((2, 3)), [0.5, 0.5], "shape", "dist has shape (2, 3), expected (2, 2)"),
        (("a", "b"), np.ones((2, 2)) - np.eye(2), [1.0], "shape",
         "weights has shape (1,), expected (2,)"),
    ])
    def test_labels_and_shapes_are_checked_first(self, points, dist, weights, kind, detail):
        with pytest.raises(mc.SpaceValidationError) as err:
            mc.validate_space(points, dist, weights)
        assert err.value.violations[0] == mc.Violation(kind, (), detail)
        assert err.value.counts[kind] == 1

    def test_a_nested_list_matrix_is_copied_once(self, monkeypatch):
        """The returned space holds the arrays built from the document's
        lists; no second n x n copy is made.  The triangle check is
        skipped here so that its own buffers do not set the peak."""
        monkeypatch.setattr(mc.space, "_hop_certificate", lambda space: True)
        n = 256
        rows = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]).astype(float).tolist()
        tracemalloc.start()
        try:
            sp = mc.validate_space([str(i) for i in range(n)], rows, [1.0] * n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sp.dist.tolist() == rows
        assert peak < 1.5 * sp.dist.nbytes

    def test_an_array_argument_is_copied_not_frozen(self):
        dist, weights = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5])
        sp = mc.validate_space(["a", "b"], dist, weights)
        assert dist.flags.writeable and weights.flags.writeable
        assert not np.shares_memory(sp.dist, dist) and not np.shares_memory(sp.weights, weights)


def certified(dist: np.ndarray) -> bool:
    """_hop_certificate on a copy of the matrix as a space, graded from it."""
    n = len(dist)
    return _hop_certificate(mc.FiniteMMSpace(tuple(map(str, range(n))), np.array(dist), np.ones(n)))


def assert_same_triangle_verdict(dist: np.ndarray) -> bool:
    """validate_space accepts iff the hub loop finds nothing, and rejects
    with the hub loop's violations, counts and message.  Returns the
    verdict."""
    n = dist.shape[0]
    labels = tuple(f"p{i}" for i in range(n))
    weights = np.full(n, 1.0 / n)
    violations, counts = hub_loop_triangle(dist)
    assert check_triangle(dist) == (violations, counts)
    assert not (certified(dist) and counts)
    if not counts:
        mc.validate_space(labels, dist, weights)
        return True
    with pytest.raises(mc.SpaceValidationError) as err:
        mc.validate_space(labels, dist, weights)
    assert err.value.violations == violations
    assert err.value.counts == counts
    assert str(err.value) == str(mc.SpaceValidationError(violations, counts))
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


@st.composite
def blocked_matrices(draw):
    """Symmetric matrices of 1 to 4 row blocks: the integer line with a
    few entries raised, pairs at the block edges drawn often, or random
    entries in [low, 1], from no violation (low = 0.5) to a few hundred
    thousand (low = 0.1), so the listing fills and later hubs are only
    counted."""
    n = draw(st.integers(1, 4 * _ROW_BLOCK))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
        upper = np.triu(rng.uniform(draw(st.sampled_from([0.1, 0.45, 0.5])), 1.0, (n, n)), 1)
        return upper + upper.T
    dist = integer_line(n)
    edges = sorted({0, n - 1} | {b * _ROW_BLOCK + o for b in (1, 2, 3) for o in (-1, 0)} & set(range(n)))
    points = st.sampled_from(edges) | st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 6)) if n > 1 else 0):
        i, k = draw(points), draw(points)
        if i != k:
            raised = draw(st.sampled_from([np.nextafter(dist[i, k], np.inf), dist[i, k] + 0.5,
                                           1.5 * dist[i, k]]))
            dist[i, k] = dist[k, i] = raised
    return dist


class TestTriangleScan:
    """The blocked pass reports exactly as the hub loop does."""

    @settings(max_examples=80)
    @given(blocked_matrices())
    def test_reports_match_the_hub_loop_across_row_blocks(self, dist):
        assert_same_triangle_verdict(dist)

    @pytest.mark.parametrize("n", [2 * _ROW_BLOCK + 5, 4 * _ROW_BLOCK])
    def test_a_full_listing_across_blocks_counts_the_later_hubs(self, n):
        """Hub 0 alone fails more than _MAX_REPORTED times in every block,
        so the listing is full after the first block and every other hub
        is only counted; each later block's hub 0 is listed and cut back."""
        upper = np.triu(np.random.default_rng(n).uniform(0.1, 1.0, (n, n)), 1)
        violations, counts = hub_loop_triangle(upper + upper.T)
        assert {v.indices[1] for v in violations} == {0} and counts["triangle"] > n * n
        assert len(violations) == _MAX_REPORTED
        assert not assert_same_triangle_verdict(upper + upper.T)

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


def hop_metric(n: int, edges) -> np.ndarray:
    """Hop counts of an unweighted graph, by Floyd-Warshall on integers."""
    hops = np.full((n, n), n, dtype=np.int64)
    np.fill_diagonal(hops, 0)
    for i, j in edges:
        hops[i, j] = hops[j, i] = 1
    for h in range(n):
        hops = np.minimum(hops, hops[:, h, None] + hops[None, h, :])
    return hops


@st.composite
def connected_graphs(draw, max_n=14, chords_per_point=2.0):
    """The hop metric of a random spanning tree plus chords."""
    n = draw(st.integers(2, max_n))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    for _ in range(draw(st.integers(0, int(chords_per_point * n)))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        edges.append((i, j))
    return hop_metric(n, edges)


@st.composite
def tables(draw, top):
    """(strictly increasing table t[0..top] with t[0] = 0, whether it is
    known to be subadditive in float64): subadditive_table's and whole
    numbers, and scaled, convex and random ones that may or may not be."""
    kind = draw(st.sampled_from(["subadditive", "integers", "scaled", "convex", "random"]))
    steps = np.arange(top + 1.0)
    if kind == "subadditive":
        step, denominator = draw(st.integers(1, 3)), draw(st.integers(1, 13))
        return mc.subadditive_table(top, float(step), float(denominator)), True
    if kind == "integers":
        return steps, True
    x = draw(st.floats(1e-3, 10.0))
    if kind == "scaled":
        return steps * x, False
    if kind == "convex":
        return steps**2 * x, False
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=top, max_size=top))
    return np.concatenate([[0.0], np.cumsum(gaps)]), False


class TestHopCertificate:
    """The certificate accepts only matrices the hub loop accepts, and it
    accepts every hop metric composed with a subadditive table."""

    @settings(max_examples=300)
    @given(connected_graphs(), st.data())
    def test_accepts_only_what_the_hub_loop_accepts(self, hops, data):
        table, subadditive = data.draw(tables(int(hops.max())))
        dist = table[hops]
        perturbed = data.draw(st.booleans())
        if perturbed:
            n = len(dist)
            i, k = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            how = data.draw(st.sampled_from(["other value", "ulp up", "ulp down"]))
            if how == "other value":
                value = table[data.draw(st.integers(1, len(table) - 1))]
            else:
                value = np.nextafter(dist[i, k], np.inf if how == "ulp up" else 0.0)
            dist[i, k] = dist[k, i] = value
        if certified(dist):
            assert hub_loop_triangle(dist)[1] == {}
        elif subadditive and not perturbed:
            pytest.fail("a hop metric through a subadditive table was not certified")
        assert_same_triangle_verdict(dist)

    @settings(max_examples=150)
    @given(connected_graphs(max_n=16, chords_per_point=0.25), st.data())
    def test_graph_shaped_matrices_that_fail_the_hop_condition_only(self, hops, data):
        """Every entry is in the table and the table is subadditive, but one
        pair at two or more hops moved to another count of at least two:
        the graph of one-hop pairs is the same, so the counts are no longer
        its hop metric, and the scan decides, as the hub loop does."""
        top = int(hops.max())
        far = int(np.argmax(hops.max(axis=1)))  # the row the certificate checks for every rank
        pairs = [(i, k) for i in range(len(hops)) for k in range(i + 1, len(hops))
                 if far not in (i, k) and 2 <= hops[i, k] < top]
        if top < 4 or not pairs:
            return
        i, k = data.draw(st.sampled_from(pairs))
        count = data.draw(st.sampled_from([c for c in range(2, top) if c != hops[i, k]]))
        moved = hops.copy()
        moved[i, k] = moved[k, i] = count
        dist = mc.subadditive_table(top, 1.0, float(top))[moved]
        assert not certified(dist)
        assert_same_triangle_verdict(dist)

    def test_points_past_the_edge_cap_take_the_scan(self):
        """All distances 1: a metric, but every pair is an edge, more than
        _ROW_BLOCK per point, so the certificate declines."""
        n = _ROW_BLOCK + 2
        simplex = np.ones((n, n)) - np.eye(n)
        assert not certified(simplex)
        assert certified(simplex[1:, 1:])  # _ROW_BLOCK edges per point
        assert check_triangle(simplex) == ([], {})


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

    @pytest.mark.parametrize("center, radius, error, message", [
        (0, -0.5, ValueError, "radius must be >= 0"),
        (0, float("nan"), ValueError, "radius must be >= 0"),
        (-1, 0.5, IndexError, "center -1 out of range for 8 points"),
        (8, 0.5, IndexError, "center 8 out of range for 8 points"),
    ])
    def test_ball_mass_refuses_a_bad_center_or_radius(self, center, radius, error, message):
        torus8 = mc.generate(mc.FamilySpec("discrete_torus", 8))
        with pytest.raises(error, match=message):
            mc.ball_mass(torus8, center, radius)


@st.composite
def spaces_with_ties(draw):
    """A closed Euclidean cloud, or a coarse L1 grid whose distances tie
    often; either way with weights that are not dyadic."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        return random_space(rng, n)
    pts = np.unique(rng.integers(0, 5, (n, 3)), axis=0) / 4.0
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    return mc.validate_space([f"p{i}" for i in range(len(pts))], dist, rng.uniform(0.1, 1.3, len(pts)))


def same_bytes(got, want) -> bool:
    got, want = np.concatenate(list(got)), np.concatenate(list(want))
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBallMassRanks:
    """Rows ordered by distance rank sum in the order of rows sorted by
    float distance, so every ball mass keeps its bytes."""

    @given(spaces_with_ties(), st.data())
    def test_rank_order_gives_the_float_order_sums(self, sp, data):
        table = sp.grades[0]
        count = data.draw(st.integers(1, len(table)))  # may stop below the diameter
        centers = data.draw(st.none() | st.lists(st.integers(0, sp.n - 1), min_size=1, max_size=1)
                            | st.lists(st.integers(0, sp.n - 1), min_size=1, max_size=2 * sp.n))
        assert same_bytes(_ball_mass_blocks(sp, count, centers),
                          float_sorted_ball_mass_blocks(sp, table[:count], centers))

    def test_more_distances_than_16_bit_ranks_hold(self):
        """370 dyadic L1 points have more than 65,535 distinct distances,
        so their hops are uint32 and the stable sort is not a radix sort."""
        rng = np.random.default_rng(23)
        pts = rng.integers(0, 1 << 20, (370, 3)) / float(1 << 20)
        dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)  # dyadic, so every sum is exact
        sp = mc.validate_space([f"p{i}" for i in range(370)], dist, rng.uniform(0.5, 1.5, 370))
        table, hops = sp.grades
        assert len(sp.distinct_distances()) > 65_535 and hops.dtype == np.uint32
        assert np.array_equal(table[hops], sp.dist)
        centers = rng.integers(0, sp.n, 12)
        for count in (len(table), len(table) // 3):
            assert same_bytes(_ball_mass_blocks(sp, count, centers),
                              float_sorted_ball_mass_blocks(sp, table[:count], centers))

    def test_blocks_shrink_as_the_table_grows(self):
        cube = mc.generate(mc.FamilySpec("hamming_cube", 7))
        assert [len(b) for b in _ball_mass_blocks(cube, len(cube.grades[0]))] == [_ROW_BLOCK] * 2
        sp = random_space(np.random.default_rng(24), 30)
        count = len(sp.grades[0])
        rows = _ROW_BLOCK * sp.n // (count + 1)
        assert [len(b) for b in _ball_mass_blocks(sp, count)] == [rows] * (30 // rows) + [30 % rows]


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
