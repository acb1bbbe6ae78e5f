"""Generated space families and the trend experiment plumbing."""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mmconc as mc


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


def bit_loop_hamming(n: int) -> np.ndarray:
    """Reference: cube Hamming distances by a loop over the bits."""
    codes = np.arange(1 << n, dtype=np.uint32)
    ham = np.zeros((1 << n, 1 << n), dtype=np.int64)
    xor = codes[:, None] ^ codes[None, :]
    for _ in range(n):
        ham += xor & 1
        xor >>= 1
    return ham


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
        sp = mc.generate(spec)
        mc.validate_space(sp.points, sp.dist, sp.weights)
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


class TestCoordinateMean:
    @given(st.integers(1, 10))
    def test_map_is_one_lipschitz(self, n):
        sp = mc.generate(mc.FamilySpec("hamming_cube", n))
        lmap = mc.coordinate_mean_map(sp)
        assert lmap.constant <= 1.0

    def test_pushforward_matches_the_direct_binomial_measure(self):
        for n in range(1, 9):
            sp = mc.generate(mc.FamilySpec("hamming_cube", n))
            lmap = mc.coordinate_mean_map(sp)
            via_cube = mc.pushforward_real(sp, lmap.values)
            direct = mc.binomial_mean_measure(n)
            assert np.array_equal(via_cube.positions, direct.positions)
            assert np.array_equal(via_cube.weights, direct.weights)


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

    def test_report_serializes_and_same_seed_reproduces(self):
        fam = [mc.FamilySpec("hamming_cube", 2)]
        a = mc.run_levy_experiment(fam, seed=5, samples=8, effort=300)
        b = mc.run_levy_experiment(fam, seed=5, samples=8, effort=300)
        ja, jb = mc.report_json(a.as_dict()), mc.report_json(b.as_dict())
        assert ja == jb
        parsed = json.loads(ja)
        assert "over roster" in parsed["meta"]["supremum_scope"]
