"""Generated space families and the trend experiment plumbing."""

from __future__ import annotations

import csv
import io
import json
import time
import tracemalloc
from fractions import Fraction
from math import comb, fsum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import dijkstra

import mmconc as mc
from mmconc import families, space
from mmconc._numeric import close_table, floor_sum
from conftest import check_triangle, forward_subadditive_table, push_table_closure

SPACES = Path(__file__).resolve().parent.parent / "spaces"


class TestHammingCube:
    @given(st.integers(1, 8))
    def test_validates_with_binary_labels_and_uniform_mass(self, n):
        sp = mc.generate(mc.FamilySpec("hamming_cube", n))
        assert len(sp.points) == 2**n
        assert all(set(p) <= {"0", "1"} and len(p) == n for p in sp.points)
        assert np.all(sp.weights == 0.5**n)
        mc.validate_space(sp.points, sp.dist, sp.weights)

    def test_distance_is_normalized_hamming_up_to_rounding(self):
        sp = mc.generate(mc.FamilySpec("hamming_cube", 5))
        for i, p in enumerate(sp.points):
            for j, q in enumerate(sp.points):
                h = sum(a != b for a, b in zip(p, q))
                assert abs(sp.dist[i, j] * 5 - h) < 1e-9

    def test_unnormalized_distances_are_integers(self):
        sp = mc.generate(mc.FamilySpec("hamming_cube", 3, normalized=False))
        assert set(np.unique(sp.dist)) == {0.0, 1.0, 2.0, 3.0}

    def test_size_cap(self):
        with pytest.raises(ValueError):
            mc.generate(mc.FamilySpec("hamming_cube", 13))

    @pytest.mark.parametrize("kind, n, top", [
        ("hamming_cube", 0, 12), ("hamming_cube", 13, 12), ("discrete_torus", 4097, 4096),
        ("discrete_torus", -1, 4096), ("weighted_graph", 4097, 4096), ("weighted_graph", 0, 4096),
    ])
    def test_a_spec_breaking_its_size_rule_cannot_be_made(self, kind, n, top):
        """Every kind allows n >= 1 and at most POINT_CAP points."""
        assert top == {"hamming_cube": 12}.get(kind, families.POINT_CAP)
        with pytest.raises(ValueError, match=rf"{kind} size must be in 1..{top}, got {n}"):
            mc.FamilySpec(kind, n)


class TestSpecWeights:
    @pytest.mark.parametrize("n", [8, 2048])  # 2,048 is past generate's re-validation cap
    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), 0.0])
    def test_bad_weights_are_refused_at_every_size(self, n, bad):
        with pytest.raises(mc.SpaceValidationError) as err:
            mc.generate(mc.FamilySpec("discrete_torus", n, weights=(bad,) * n))
        if bad == 0.0:
            assert err.value.counts == {"zero_total_mass": 1}
        else:
            kind = "negative_weight" if bad < 0.0 else "nonfinite_weight"
            assert err.value.counts[kind] == n

    def test_one_negative_weight_among_good_ones_is_refused(self):
        weights = (0.5,) * 2047 + (-0.5,)
        with pytest.raises(mc.SpaceValidationError) as err:
            mc.generate(mc.FamilySpec("discrete_torus", 2048, weights=weights))
        assert err.value.counts == {"negative_weight": 1}
        assert err.value.violations[0].indices == (2047,)

    def test_zero_weights_with_positive_total_pass(self):
        weights = (0.0,) * 2047 + (1.0,)
        sp = mc.generate(mc.FamilySpec("discrete_torus", 2048, weights=weights))
        assert sp.total_mass == 1.0


class TestDiscreteTorus:
    @given(st.integers(3, 24))
    def test_arc_metric(self, n):
        sp = mc.generate(mc.FamilySpec("discrete_torus", n, normalized=False))
        for i in range(n):
            for j in range(n):
                assert sp.dist[i, j] == min(abs(i - j), n - abs(i - j))

    def test_normalized_arc_metric_scales_by_circumference(self):
        sp = mc.generate(mc.FamilySpec("discrete_torus", 8))
        assert sp.dist[0, 1] == pytest.approx(1 / 8, abs=1e-15)
        assert sp.diameter == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 7, 512, 1537])
    @pytest.mark.parametrize("normalized", [True, False])
    def test_int16_arcs_give_the_int64_metric(self, n, normalized):
        idx = np.arange(n, dtype=np.int64)
        raw = np.abs(idx[:, None] - idx[None, :])
        arcs = np.minimum(raw, n - raw)
        if normalized:
            table = mc.subadditive_table(n // 2, 1.0, float(n)) if n >= 2 else np.zeros(1)
            want = table[arcs]
        else:
            want = arcs.astype(np.float64)
        got = families._discrete_torus(mc.FamilySpec("discrete_torus", n, normalized))
        assert got.dist.dtype == want.dtype and got.dist.tobytes() == want.tobytes()


class TestWeightedGraph:
    def test_shortest_path_metric_on_a_small_graph(self):
        # path 0-1-2 with a direct 0-2 edge longer than the two-hop path
        spec = mc.FamilySpec(
            "weighted_graph",
            n=3,
            normalized=False,
            edges=((0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0)),
        )
        sp = mc.generate(spec)
        assert sp.dist[0, 2] == 2.0  # shortest path wins over the direct edge
        mc.validate_space(sp.points, sp.dist, sp.weights)

    @pytest.mark.parametrize("edges, length", [
        (((0, 1, 1.0), (1, 0, 1.0)), 1.0),
        (((0, 1, 1.0), (0, 1, 2.0)), 1.0),
        (((1, 0, 2.0), (0, 1, 0.5), (0, 1, 3.0)), 0.5),
    ])
    def test_parallel_edges_keep_the_shortest_length(self, edges, length):
        sp = mc.generate(mc.FamilySpec("weighted_graph", 2, normalized=False, edges=edges))
        assert sp.dist[0, 1] == sp.dist[1, 0] == length

    def test_disconnected_graph_is_rejected(self):
        spec = mc.FamilySpec(
            "weighted_graph", n=4,
            edges=((0, 1, 1.0), (2, 3, 1.0)),
        )
        with pytest.raises(ValueError):
            mc.generate(spec)

    def test_normalization_divides_by_the_diameter(self):
        spec = mc.FamilySpec(
            "weighted_graph", n=3, normalized=True,
            edges=((0, 1, 2.0), (1, 2, 2.0)),
        )
        sp = mc.generate(spec)
        assert sp.diameter == 1.0

    def test_closure_runs_until_a_pass_changes_nothing(self):
        """Round-down closure of the float shortest paths of this cycle
        with chords still lowers entries in its ninth and tenth passes, so
        a closure capped at eight passes leaves one-ulp triangle violations."""
        lengths = np.zeros((256, 256))
        for i, j, w in chords_cycle(256):
            lengths[i, j] = w
        d = dijkstra(lengths, directed=False)
        closed = mc.exact_triangle_closure(d / d.max())
        assert 0.99 < closed.max() <= 1.0 and check_triangle(closed) == ([], {})
        assert np.array_equal(mc.exact_triangle_closure(closed), closed)

    def test_integer_grid_lengths_need_no_closure(self, monkeypatch):
        """Lengths rounded down to 2^-50 of the diameter add exactly, so the
        shortest paths are a float64 metric as they come: no closure runs,
        every entry is a whole number of units, and the metric lies within
        1e-14 below the closed float shortest paths."""
        monkeypatch.setattr(families, "exact_triangle_closure", None)
        sp = mc.generate(mc.FamilySpec("weighted_graph", 256, edges=chords_cycle(256)))
        assert 0.99 < sp.diameter <= 1.0 and check_triangle(sp.dist) == ([], {})
        units = sp.dist * 2.0**50
        assert np.array_equal(units, np.floor(units))
        lengths = np.zeros((256, 256))
        for i, j, w in chords_cycle(256):
            lengths[i, j] = w
        d = dijkstra(lengths, directed=False)
        gap = mc.exact_triangle_closure(d / d.max()) - sp.dist
        assert 0.0 <= gap.min() and gap.max() < 1e-14

    @pytest.mark.parametrize("normalized", [True, False])
    def test_an_edge_below_the_grid_is_refused(self, normalized):
        edges = ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1e-17))
        with pytest.raises(ValueError, match=r"edge \(2, 3\) is under 2\^-50 of "):
            mc.generate(mc.FamilySpec("weighted_graph", 4, normalized, edges=edges))

    def test_closure_over_dirty_hubs_equals_the_pass_over_every_hub(self):
        """The closure skips hubs whose row and column did not change;
        the result must be the one every hub in every pass gives, byte
        for byte: uneven shortest paths, raw random matrices (many passes,
        asymmetric), and matrices with nonzero diagonals."""
        rng = np.random.default_rng(12)
        for i in range(24):
            n = int(rng.integers(2, 40))
            if i % 3 == 0:
                lengths = np.where(rng.random((n, n)) < 0.15, rng.uniform(0.1, 3.0, (n, n)), 0.0)
                lengths[np.arange(n - 1), np.arange(1, n)] = 1 + (np.arange(n - 1) % 7) / 10
                d = dijkstra(lengths, directed=False)
                d = d / d.max()
            else:
                d = rng.uniform(0.1, 1.0, (n, n))
                if i % 3 == 1:
                    np.fill_diagonal(d, 0.0)
            got = mc.exact_triangle_closure(d)
            assert got.tobytes() == reference_triangle_closure(d).tobytes(), i


class TestProduct:
    def test_product_of_two_cubes_is_the_sum_metric(self):
        spec = mc.FamilySpec(
            "product",
            factors=(
                mc.FamilySpec("hamming_cube", 2, normalized=False),
                mc.FamilySpec("hamming_cube", 1, normalized=False),
            ),
        )
        sp = mc.generate(spec)
        assert len(sp.points) == 8
        assert all("|" in p for p in sp.points)
        a = sp.points.index("00|0")
        b = sp.points.index("11|1")
        assert sp.dist[a, b] == 3.0
        mc.validate_space(sp.points, sp.dist, sp.weights)

    @pytest.mark.parametrize("left, right", [
        (("discrete_torus", 8), ("discrete_torus", 12)),
        (("discrete_torus", 4), ("hamming_cube", 3)),
        (("hamming_cube", 4), ("discrete_torus", 24)),
        (("discrete_torus", 32), ("discrete_torus", 32)),
    ])
    def test_the_sum_metric_is_one_broadcast_of_the_factors(self, left, right, monkeypatch):
        """The matrix handed to the closure is, byte for byte, the rounded-down
        sum of the first factor's repeated rows and columns and the second's
        tiled blocks, built with one broadcast into floor_sum's two scratch
        buffers: the build peaks under 3.5 matrices (the repeat and tile
        copies took it past 6.1, whole-array temporaries in floor_sum past
        4.1), plus numpy's iterator buffers for the two broadcast factors
        (np.getbufsize() elements each, at most a matrix)."""
        parts = tuple(mc.generate(mc.FamilySpec(kind, n)) for kind, n in (left, right))
        a, b = parts[0].n, parts[1].n
        want = floor_sum(
            np.repeat(np.repeat(parts[0].dist, b, axis=0), b, axis=1),
            np.tile(parts[1].dist, (a, a)),
        )
        closed = []
        monkeypatch.setattr(families, "exact_triangle_closure", lambda d: closed.append(d) or d)
        tracemalloc.start()
        try:
            families._product(mc.FamilySpec("product", factors=parts))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert closed[0].tobytes() == want.tobytes()
        buffers = 2 * want.itemsize * min(np.getbufsize(), want.size)
        assert peak < 3.5 * want.nbytes + buffers

    def test_spec_weights_replace_the_factors_product(self):
        factors = (mc.FamilySpec("discrete_torus", 3), mc.FamilySpec("hamming_cube", 1))
        weights = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        plain = mc.generate(mc.FamilySpec("product", factors=factors))
        sp = mc.generate(mc.FamilySpec("product", factors=factors, weights=weights))
        assert sp.points == plain.points and np.array_equal(sp.dist, plain.dist)
        assert sp.weights.tolist() == list(weights)
        for bad, kind in ((weights[:5], "shape"), ((-1.0,) * 6, "negative_weight")):
            with pytest.raises(mc.SpaceValidationError) as err:
                mc.generate(mc.FamilySpec("product", factors=factors, weights=bad))
            assert err.value.violations[0].kind == kind

    @pytest.mark.parametrize("factors, message", [
        ((("hamming_cube", 12), ("discrete_torus", 2)), "got 2 with 8192 points"),
        ((("hamming_cube", 2),), "got 1 with 4 points"),
        ((("hamming_cube", 2), ("klein_bottle", 2)), "unknown family kind 'klein_bottle'"),
    ])
    def test_a_product_breaking_its_size_rule_cannot_be_made(self, factors, message):
        with pytest.raises(ValueError, match=message):
            mc.FamilySpec("product", factors=tuple(mc.FamilySpec(k, n) for k, n in factors))

    @pytest.mark.parametrize("a, b", [(2, 2), (32, 33)])
    def test_colliding_labels_are_refused_before_the_closure(self, a, b, monkeypatch):
        """'a|b' then 'c' and 'a' then 'b|c' both name 'a|b|c'.  The product
        refuses this at every size, past generate's re-validation cap too,
        before it builds a metric, so no closure runs."""
        closures = []
        monkeypatch.setattr(families, "exact_triangle_closure", closures.append)

        def relabeled(n, labels):
            sp = mc.generate(mc.FamilySpec("discrete_torus", n))
            return mc.FiniteMMSpace(tuple(labels), sp.dist.copy(), sp.weights.copy())

        left = relabeled(a, ["a|b"] + [str(i) for i in range(1, a - 1)] + ["a"])
        right = relabeled(b, ["c", "b|c"] + [str(i) for i in range(2, b)])
        with pytest.raises(ValueError, match=r"product labels collide: 'a\|b\|c'"):
            mc.generate(mc.FamilySpec("product", factors=(left, right)))
        assert closures == []


@st.composite
def hop_products(draw, most: int = 96):
    """Two or three cube or torus specs, normalized or not, with at most
    `most` points in all, so that the matrix closure stays quick."""
    factors, points = [], 1
    for _ in range(draw(st.integers(2, 3))):
        room = most // points
        kinds = ["discrete_torus"] + (["hamming_cube"] if room >= 2 else [])
        kind = draw(st.sampled_from(kinds))
        top = room.bit_length() - 1 if kind == "hamming_cube" else room
        n = draw(st.integers(1, max(1, min(top, 12))))
        factors.append(mc.FamilySpec(kind, n, draw(st.booleans())))
        points *= 1 << n if kind == "hamming_cube" else n
    return tuple(factors)


class TestHopProduct:
    """A product of cubes and tori closes its table on the grid of hop
    counts (families._table_fold) instead of its matrix."""

    @settings(max_examples=60, deadline=None)
    @given(hop_products())
    def test_the_table_fold_is_the_matrix_closure_to_the_byte(self, factors):
        sp = mc.generate(mc.FamilySpec("product", factors=factors))
        parts = tuple(mc.generate(f) for f in factors)  # prebuilt spaces take the matrix path
        want = families._product(mc.FamilySpec("product", factors=parts))
        assert sp.points == want.points and sp.weights.tobytes() == want.weights.tobytes()
        assert sp.dist.dtype == want.dist.dtype and sp.dist.tobytes() == want.dist.tobytes()
        table, hops = sp._grades  # handed over by the fold, not built from the matrix
        assert hops.dtype == np.min_scalar_type(len(table))
        assert np.array_equal(table[hops], sp.dist)
        assert table.tobytes() == np.unique(np.append(want.dist, 0.0)).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(hop_products(most=1024))
    def test_the_closed_table_is_monotone_and_closed_under_clamped_splits(self, factors):
        """The lemma of _product's proof: the closed grid T is monotone, so
        a split c1 + c2 past a factor's top hop count m, clamped to it,
        lowers nothing: T[min(c1 + c2, m)] <= floor_sum(T[c1], T[c2])."""
        tables = [mc.generate(f).grades[0] for f in factors]
        grid = tables[0]
        for t in tables[1:]:
            grid = close_table(floor_sum(grid[..., None], t))
        for axis in range(grid.ndim):
            assert (np.diff(grid, axis=axis) >= 0.0).all()
        top = (np.array(grid.shape) - 1).reshape((-1,) + (1,) * grid.ndim)
        cells = np.indices(grid.shape)
        for c1 in np.ndindex(grid.shape):
            clamped = np.minimum(cells + np.reshape(c1, top.shape), top)
            assert (grid[tuple(clamped)] <= floor_sum(grid[c1], grid)).all()

    def test_two_64_cycles_generate_in_under_a_second(self):
        """4,096 points, the size cap; the matrix closure would take hours."""
        spec = mc.FamilySpec("product", factors=(mc.FamilySpec("discrete_torus", 64),) * 2)
        start = time.perf_counter()
        sp = mc.generate(spec)
        elapsed = time.perf_counter() - start
        assert sp.n == 4096 and elapsed < 1.0
        table, hops = sp._grades
        assert np.array_equal(table[hops], sp.dist)
        arcs = np.arange(64)
        arcs = np.minimum(np.abs(arcs[:, None] - arcs), 64 - np.abs(arcs[:, None] - arcs))
        for p in range(64):  # the rows of points (p, .), against the closed form (a + b) / 64
            rows = sp.dist[64 * p : 64 * (p + 1)].reshape(64, 64, 64)
            want = (arcs[p][None, :, None] + arcs[:, None, :]) / 64.0
            off = want > 0.0
            assert (rows[~off] == 0.0).all()
            assert (np.abs(rows[off] - want[off]) <= 1e-12 * want[off]).all()

    def test_a_factor_that_is_not_a_hop_spec_takes_the_matrix_path(self, monkeypatch):
        """A space built elsewhere, a graph, or a nested product: only the
        nested product of two tori folds a table."""
        folds, fold = [], families._table_fold
        monkeypatch.setattr(families, "_table_fold",
                            lambda grades: folds.append(len(grades)) or fold(grades))
        torus = mc.FamilySpec("discrete_torus", 4)
        others = (mc.generate(torus), mc.FamilySpec("weighted_graph", 2, edges=((0, 1, 1.0),)),
                  mc.FamilySpec("product", factors=(torus, torus)))
        for other in others:
            sp = mc.generate(mc.FamilySpec("product", factors=(torus, other)))
            assert np.array_equal(sp.grades[0][sp.grades[1]], sp.dist)
        assert folds == [2]


def bit_loop_hamming(n: int) -> np.ndarray:
    """Reference: cube Hamming distances by a loop over the bits."""
    codes = np.arange(1 << n, dtype=np.uint32)
    ham = np.zeros((1 << n, 1 << n), dtype=np.int64)
    xor = codes[:, None] ^ codes[None, :]
    for _ in range(n):
        ham += xor & 1
        xor >>= 1
    return ham


def chords_cycle(n: int) -> tuple[tuple[int, int, float], ...]:
    """A cycle of uneven edges with a chord from every fifth node."""
    edges = [(i, (i + 1) % n, 1 + (i % 7) / 10) for i in range(n)]
    edges += [(i, (i + 37) % n, 3.5) for i in range(0, n, 5)]
    return tuple(edges)


class TestFloorSum:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(-1e300, 1e300)] * 2), min_size=1, max_size=40))
    def test_it_is_the_largest_float_at_or_below_the_exact_sum(self, pairs):
        a, b = (np.array(col) for col in zip(*pairs))
        got = floor_sum(a[:, None], b[None, :])
        assert got.shape == (len(a), len(b)) and got.dtype == np.float64
        for i, j in [(0, 0), (len(a) - 1, len(b) - 1), (len(a) // 2, 0)]:
            exact = Fraction(a[i]) + Fraction(b[j])
            assert Fraction(got[i, j]) <= exact < Fraction(np.nextafter(got[i, j], np.inf))
            scalar = floor_sum(float(a[i]), float(b[j]))
            assert scalar.shape == () and scalar == got[i, j]


@st.composite
def table_grids(draw):
    """A 1-3-D grid of finite entries >= 0 with grid[0] = 0: fractions
    k / 7 (near misses of subadditivity by an ulp) or any float up to
    1e300, made monotone along every axis or left as drawn."""
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=1, max_size=3)))
    size = int(np.prod(shape))
    entry = st.one_of(st.integers(0, 60).map(lambda k: k / 7), st.floats(0.0, 1e300))
    grid = np.array(draw(st.lists(entry, min_size=size, max_size=size))).reshape(shape)
    grid[(0,) * len(shape)] = 0.0
    if draw(st.booleans()):
        for axis in range(grid.ndim):
            np.maximum.accumulate(grid, axis=axis, out=grid)
    return grid


class TestCloseTable:
    """_numeric.close_table, one pass in C order, against the push loop
    that lowers every split until nothing changes."""

    @settings(max_examples=200, deadline=None)
    @given(table_grids())
    def test_one_pass_is_the_push_fixpoint_to_the_byte(self, grid):
        want = push_table_closure(grid.copy())
        got = close_table(grid)
        assert got is grid and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("step, denominator", [(1.0, 7.0), (0.1, 1.0), (3.0, 11.0), (1.0, 300.0)])
    def test_subadditive_table_is_the_forward_loop_to_the_byte(self, step, denominator):
        """Entry h of the forward loop reads only entries below h, so the
        table for count 300 holds every shorter one as a prefix."""
        want = forward_subadditive_table(300, step, denominator)
        for count in range(301):
            assert mc.subadditive_table(count, step, denominator).tobytes() == want[: count + 1].tobytes()


def reference_triangle_closure(dist):
    """Every hub in every pass, until a pass changes nothing."""
    d = dist.copy()
    n = d.shape[0]
    changed = True
    while changed:
        changed = False
        for j in range(n):
            via = floor_sum(d[:, j][:, None], d[j, :][None, :])
            mask = via < d
            if mask.any():
                d[mask] = via[mask]
                changed = True
    np.fill_diagonal(d, 0.0)
    return np.minimum(d, d.T)


@st.composite
def graph_specs(draw):
    """A connected weighted graph: a random spanning tree plus chords."""
    n = draw(st.integers(1, 24))
    lengths = st.floats(0.01, 10.0)
    edges = [(draw(st.integers(0, i - 1)), i, draw(lengths)) for i in range(1, n)]
    if n > 1:
        for _ in range(draw(st.integers(0, n))):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            edges.append((i, j, draw(lengths)))
    return mc.FamilySpec("weighted_graph", n, normalized=draw(st.booleans()), edges=tuple(edges))


cube_specs = st.builds(mc.FamilySpec, st.just("hamming_cube"), st.integers(1, 8), st.booleans())
torus_specs = st.builds(mc.FamilySpec, st.just("discrete_torus"), st.integers(1, 300), st.booleans())
small_factors = st.one_of(  # at most 6^3 points: the product's closure is O(n^3)
    st.builds(mc.FamilySpec, st.just("hamming_cube"), st.integers(1, 2), st.booleans()),
    st.builds(mc.FamilySpec, st.just("discrete_torus"), st.integers(1, 6), st.booleans()),
)
product_specs = st.builds(
    lambda factors: mc.FamilySpec("product", factors=tuple(factors)),
    st.lists(small_factors, min_size=2, max_size=3),
)


def cube_table(n: int, normalized: bool) -> np.ndarray:
    return mc.subadditive_table(n, 1.0, float(n)) if normalized else np.arange(n + 1.0)


class TestEveryGeneratorValidates:
    @settings(max_examples=120)
    @given(st.one_of(cube_specs, torus_specs, graph_specs(), product_specs))
    def test_output_passes_the_validator(self, spec):
        """validate_space may certify the metric without the triangle pass;
        the pass itself finds nothing either."""
        sp = mc.generate(spec)
        mc.validate_space(sp.points, sp.dist, sp.weights)
        assert check_triangle(sp.dist) == ([], {})
        if spec.kind == "hamming_cube":
            want = cube_table(spec.n, spec.normalized)[bit_loop_hamming(spec.n)]
            assert sp.dist.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_large_cubes_match_the_bit_loop(self, n):
        from mmconc.families import _hamming_cube

        ham = bit_loop_hamming(n)
        for normalized in (True, False):
            sp = _hamming_cube(mc.FamilySpec("hamming_cube", n, normalized))
            assert sp.dist.tobytes() == cube_table(n, normalized)[ham].tobytes()


class TestWhichMetricsAreScanned:
    def test_cubes_and_tori_are_certified_and_products_and_l1_spaces_scanned(self, monkeypatch):
        """Re-validating a generated cube, torus or unit-length graph never
        enters the O(n^3) scan; a product of tori and a random L1 space
        still do.  The star's center row holds only 0 and one edge, so the
        certificate must read its table from a row that reaches farther."""
        scans = []
        scan = space._check_triangle

        def counted(dist, found):
            scans.append(len(dist))
            return scan(dist, found)

        monkeypatch.setattr(space, "_check_triangle", counted)
        for kind, n in (("hamming_cube", 9), ("discrete_torus", 512), ("hamming_cube", 3)):
            mc.generate(mc.FamilySpec(kind, n))
        mc.parse_space(str(SPACES / "torus8.json"))
        mc.generate(mc.FamilySpec("weighted_graph", 9, edges=tuple((0, i, 1.0) for i in range(1, 9))))
        assert scans == []
        tori = (mc.FamilySpec("discrete_torus", 8), mc.FamilySpec("discrete_torus", 12))
        mc.generate(mc.FamilySpec("product", factors=tori))
        corners = np.random.default_rng(3).integers(0, 1000, size=(40, 2))
        l1 = np.abs(corners[:, None, :] - corners[None, :, :]).sum(axis=2) / 8.0
        mc.validate_space([str(i) for i in range(40)], l1, np.full(40, 1 / 40))
        assert scans == [96, 40]


def coordinate_mean_map(cube: mc.FiniteMMSpace) -> mc.LipschitzMap:
    """The mean of a cube's coordinates, validated as a map to the line.
    It reads the cube's own fraction table at each label's popcount, so
    the table's subadditivity gives t[a] - t[b] <= t[a - b] <= t[hamming
    distance] and the exact check passes."""
    n = len(cube.points[0])
    table = mc.subadditive_table(n, 1.0, float(n))
    return mc.validate_lipschitz(cube, None, table[[p.count("1") for p in cube.points]])


class TestCoordinateMean:
    @given(st.integers(1, 10))
    def test_map_is_one_lipschitz(self, n):
        sp = mc.generate(mc.FamilySpec("hamming_cube", n))
        lmap = coordinate_mean_map(sp)
        assert lmap.constant <= 1.0

    def test_pushforward_matches_the_direct_binomial_measure(self):
        for n in range(1, 9):
            sp = mc.generate(mc.FamilySpec("hamming_cube", n))
            lmap = coordinate_mean_map(sp)
            via_cube = mc.pushforward_real(sp, lmap.values)
            direct = mc.binomial_mean_measure(n)
            assert np.array_equal(via_cube.positions, direct.positions)
            assert np.array_equal(via_cube.weights, direct.weights)

    @pytest.mark.parametrize("n", [1, 2, 3, 52, 53, 200, 511, 1000, 1022, 1023, 1024, 1029])
    def test_weights_equal_the_float_count_formula_where_it_is_finite(self, n):
        """Up to n = 1,029 every count C(n, k) converts to a float, and
        C(n, k) * 0.5**n rounds to the same weight as the exact division."""
        want = np.array([comb(n, k) * 0.5**n for k in range(n + 1)])
        assert mc.binomial_mean_measure(n).weights.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1030, 4096])
    def test_weights_stay_finite_past_the_float_range_of_the_counts(self, n):
        """C(n, n/2) passes the float range from n = 1,030 on; each weight
        is the correctly rounded C(n, k) / 2^n all the same."""
        nu = mc.binomial_mean_measure(n)
        assert len(nu) == n + 1
        assert np.isfinite(nu.weights).all() and (nu.weights >= 0.0).all()
        half = n // 2
        assert nu.weights[half] == comb(n, half) / 2**n
        assert nu.weights[0] == nu.weights[n] == 2.0**-n  # 0.0 at n = 4,096
        assert fsum(nu.weights) == 1.0
        assert nu.total_mass == pytest.approx(1.0, abs=1e-14)


def binomial_width_oracle(n: int) -> Fraction:
    """Smallest (j - i)/n over windows with >= 9/10 binomial mass, done in
    exact rational arithmetic, independent of the package's float tables."""
    masses = [Fraction(comb(n, k), 2**n) for k in range(n + 1)]
    target = Fraction(9, 10)
    best = None
    for i in range(n + 1):
        acc = Fraction(0)
        for j in range(i, n + 1):
            acc += masses[j]
            if acc >= target:
                width = Fraction(j - i, n)
                if best is None or width < best:
                    best = width
                break
    return best


class TestBinomialWidths:
    def test_match_the_exact_rational_oracle(self):
        for n in range(2, 13):
            nu = mc.binomial_mean_measure(n)
            got = mc.partial_diameter_real(nu, 0.9 * nu.total_mass)
            assert got == pytest.approx(float(binomial_width_oracle(n)), abs=1e-12)

    def test_endpoint_strictly_decreases_from_two_to_twelve(self):
        w2 = mc.partial_diameter_real(mc.binomial_mean_measure(2), 0.9)
        w12 = mc.partial_diameter_real(mc.binomial_mean_measure(12), 0.9)
        assert w12 < w2

    def test_same_parity_chains_are_monotone(self):
        """The full width sequence is NOT pointwise monotone (mass 0.9 interacts
        with the parity of the support); each parity chain is."""
        widths = {n: binomial_width_oracle(n) for n in range(2, 13)}
        evens = [widths[n] for n in range(2, 13, 2)]
        odds = [widths[n] for n in range(3, 13, 2)]
        assert all(a >= b for a, b in zip(evens, evens[1:]))
        assert all(a > b for a, b in zip(odds, odds[1:]))
        # and the counterexample to pointwise monotonicity stays on record
        assert widths[6] > widths[5]


class TestRosterAndReport:
    def test_documented_roster(self):
        roster = mc.default_screen_roster()
        names = [name for name, _ in roster]
        assert names == ["torus6", "square4", "singleton"]
        for _, sp in roster:
            mc.validate_space(sp.points, sp.dist, sp.weights)
        assert roster[0][1].diameter == pytest.approx(0.5, abs=1e-15)
        assert roster[2][1].diameter == 0.0

    def test_supremum_dominates_every_screen_column(self):
        fam = [mc.FamilySpec("hamming_cube", n) for n in (2, 3)]
        rep = mc.run_levy_experiment(fam, seed=0, samples=8, effort=500)
        for sup in rep.suprema:
            cells = [
                c for c in rep.cells
                if c["n"] == sup["n"] and c["kappa"] == sup["kappa"]
            ]
            assert cells and sup["roster_sup"] == max(c["obsdiam_lower"] for c in cells)

    def test_members_of_equal_size_keep_their_own_rows(self):
        """Two product specs both have n = 0.  A 4-point square of side 1/2
        maps onto the roster with spread; on the 64-point torus of edge 1/8
        every map into torus6 and square4 is constant.  Each member's
        supremum must see only its own cells."""
        torus = lambda k: mc.FamilySpec("discrete_torus", k)
        fam = [
            mc.FamilySpec("product", factors=(torus(2), torus(2))),
            mc.FamilySpec("product", factors=(torus(8), torus(8))),
        ]
        rep = mc.run_levy_experiment(fam, seed=0, samples=8, effort=200)
        assert [r["member"] for r in rep.sep_rows] == [0, 1]
        assert [s["member"] for s in rep.suprema] == [0, 1]
        assert [c["member"] for c in rep.cells] == [0, 0, 0, 1, 1, 1]
        for sup in rep.suprema:
            own = [c["obsdiam_lower"] for c in rep.cells if c["member"] == sup["member"]]
            assert sup["roster_sup"] == max(own)
        assert rep.suprema[0]["roster_sup"] > 0.0 == rep.suprema[1]["roster_sup"]

    def test_cells_report_their_sampler_fallbacks(self):
        """Cube 6 into torus6 is the trend's hardest cell: at 32 samples
        one map runs out of backtracks, and the column still reaches 1/2.
        The fallback count goes into the cell and its CSV row."""
        rep = mc.run_levy_experiment([mc.FamilySpec("hamming_cube", 6)], seed=0, samples=32)
        fallbacks = {c["screen"]: c["sampler_fallbacks"] for c in rep.cells}
        assert fallbacks == {"singleton": 0, "square4": 0, "torus6": 1}
        assert rep.suprema[0]["roster_sup"] == pytest.approx(0.5, abs=1e-15)
        rows = list(csv.DictReader(io.StringIO(mc.report_csv(rep.as_dict()))))
        assert {r["screen"]: r["sampler_fallbacks"] for r in rows} == {
            name: str(k) for name, k in fallbacks.items()
        }

    def test_report_serializes_and_same_seed_reproduces(self):
        fam = [mc.FamilySpec("hamming_cube", 2)]
        a = mc.run_levy_experiment(fam, seed=5, samples=8, effort=300)
        b = mc.run_levy_experiment(fam, seed=5, samples=8, effort=300)
        ja, jb = mc.report_json(a.as_dict()), mc.report_json(b.as_dict())
        assert ja == jb
        parsed = json.loads(ja)
        assert "over roster" in parsed["meta"]["supremum_scope"]

    def test_an_exact_sep_row_reports_its_value_as_the_lower_bound(self):
        """sep_lower is the best certified lower bound: the exact value
        inside the budget, the heuristic's past it (sep_value null)."""
        fam = [mc.FamilySpec("hamming_cube", n) for n in (2, 3, 4)]
        fam.append(mc.FamilySpec("discrete_torus", 12))
        rep = mc.run_levy_experiment(fam, kappa_grid=[0.2, 0.1], seed=2, samples=0, effort=300)
        assert [r["sep_is_exact"] for r in rep.sep_rows] == [True] * 4 + [False] * 2 + [True] * 2
        for row in rep.sep_rows:
            if row["sep_is_exact"]:
                assert row["sep_lower"] == row["sep_value"]
            else:
                assert row["sep_value"] is None and row["sep_lower"] > 0.0

    def test_an_empty_family_and_repeated_screen_names_are_refused(self):
        with pytest.raises(ValueError, match="the family has no members"):
            mc.run_levy_experiment([], seed=0)
        roster = list(mc.default_screen_roster())
        with pytest.raises(ValueError, match="screen name 'torus6' is given more than once"):
            mc.run_levy_experiment([mc.FamilySpec("hamming_cube", 2)], roster + roster[:1], seed=0)

    def test_bad_samples_and_workers_are_refused(self):
        fam = [mc.FamilySpec("hamming_cube", 2)]
        with pytest.raises(ValueError, match="samples must be >= 0"):
            mc.run_levy_experiment(fam, seed=0, samples=-1)
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers must be >= 1"):
                mc.run_levy_experiment(fam, seed=0, workers=workers)
        with pytest.raises(ValueError, match="budget must be >= 0"):
            mc.run_levy_experiment(fam, seed=0, budget=-1)
