"""Grades: the cube and torus generators and a product of theirs hand
theirs over, which validate_space proves against the matrix and keeps,
every other space gets them from space._grade (when generate validates
it, or when first read), spaces that reuse a metric pass them on, and
every ball mass, profile, packing check and concentration witness has
the same bytes from either source."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mmconc as mc
import mmconc.space
from mmconc import families
from mmconc.space import _ball_mass_blocks

SPACES = Path(__file__).resolve().parent.parent / "spaces"


def graded(kind: str, n: int, normalized: bool, seed: int | None = None) -> mc.FiniteMMSpace:
    """A generated cube or torus, with its own uniform weights (seed None)
    or random positive ones."""
    weights = None
    if seed is not None:
        size = 1 << n if kind == "hamming_cube" else n
        weights = tuple(np.random.default_rng(seed).uniform(0.1, 2.0, size).tolist())
    return mc.generate(mc.FamilySpec(kind, n, normalized, weights=weights))


def rebuilt(sp: mc.FiniteMMSpace) -> mc.FiniteMMSpace:
    """sp without the grades it holds, so _grade makes them from the matrix."""
    return mc.FiniteMMSpace(sp.points, sp.dist, sp.weights)


def same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def blocks(sp, count, centers):
    return np.concatenate(list(_ball_mass_blocks(sp, count, centers)))


def profile_bytes(profile) -> tuple:
    return (profile.horizon, *(a.tobytes() for a in
                               (profile.radii, profile.values, profile.steps, profile.step_values)))


def check_same_answers(sp: mc.FiniteMMSpace, seed: int) -> None:
    """Every reader of the grades, on sp with the generator's grades and
    on sp rebuilt, whose grades come from the matrix."""
    plain = rebuilt(sp)
    assert sp._grades is not None and plain._grades is None
    rng = np.random.default_rng(seed)
    assert same_bytes(sp.distinct_distances(), plain.distinct_distances())
    assert same_bytes(sp.grades[0], plain.grades[0]) and np.array_equal(sp.grades[1], plain.grades[1])
    full = len(plain.grades[0])
    some = rng.integers(0, sp.n, size=int(rng.integers(1, 2 * sp.n + 1)))
    for count in (full, int(rng.integers(1, full + 1)), 1):  # the whole table, and clamped
        for centers in (None, some):
            assert same_bytes(blocks(sp, count, centers), blocks(plain, count, centers))
    for center in rng.integers(0, sp.n, size=3):
        for radius in (0.0, *rng.uniform(0.0, sp.diameter, 3), *sp.grades[0][-2:], sp.diameter + 1.0):
            got, want = mc.ball_mass(sp, int(center), radius), mc.ball_mass(plain, int(center), radius)
            assert got.hex() == want.hex()
    profile, plain_profile = mc.doubling_profile(sp), mc.doubling_profile(plain)
    assert profile_bytes(profile) == profile_bytes(plain_profile)
    if sp.diameter > 0.0:
        for horizon in (sp.diameter / 5.0, rng.uniform(0.0, sp.diameter / 4.0) + 1e-9):
            assert profile_bytes(mc.doubling_profile(sp, horizon)) == profile_bytes(
                mc.doubling_profile(plain, horizon))
    eps = profile.horizon / 11.0
    net = mc.build_net(sp, eps)
    assert mc.packing_bound_check(profile, net, eps) == mc.packing_bound_check(plain_profile, net, eps)
    for floor in (0.0, sp.total_mass / 6.0, sp.total_mass):
        assert mc.concentration_witness(sp, net, floor) == mc.concentration_witness(plain, net, floor)


SIZES = [("hamming_cube", n) for n in range(1, 11)] + [
    ("discrete_torus", n) for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 64, 65, 129, 130, 599, 600)]


class TestSameAnswersFromEitherGrades:
    @pytest.mark.parametrize("kind, n", SIZES, ids=[f"{k[0]}{n}" for k, n in SIZES])
    @pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "raw"])
    @pytest.mark.parametrize("seed", [None, 7], ids=["uniform", "random"])
    def test_at_the_edge_sizes(self, kind, n, normalized, seed):
        check_same_answers(graded(kind, n, normalized, seed), n)

    @given(st.sampled_from(["hamming_cube", "discrete_torus"]), st.integers(1, 600),
           st.booleans(), st.none() | st.integers(0, 2**32 - 1))
    def test_at_random_sizes_and_weights(self, kind, n, normalized, seed):
        if kind == "hamming_cube":
            n = 1 + n % 10
        check_same_answers(graded(kind, n, normalized, seed), n)

    def test_ranks_are_read_off_the_hop_rows(self):
        """With its float rows blanked, a graded space still gives every
        ball mass at a prefix of its table: those ranks come from hops."""
        sp = graded("hamming_cube", 6, True, 3)
        blank = mc.FiniteMMSpace(sp.points, np.full_like(sp.dist, np.nan), sp.weights, sp.grades)
        for count in (len(sp.grades[0]), 3):
            assert same_bytes(blocks(blank, count, None), blocks(sp, count, None))


small_factor = st.one_of(
    st.builds(mc.FamilySpec, st.just("hamming_cube"), st.integers(1, 3), st.booleans()),
    st.builds(mc.FamilySpec, st.just("discrete_torus"), st.integers(1, 10), st.booleans()),
)
every_graded_spec = st.one_of(
    st.builds(mc.FamilySpec, st.just("hamming_cube"), st.integers(1, 11), st.booleans()),
    st.builds(mc.FamilySpec, st.just("discrete_torus"), st.integers(1, 2048), st.booleans()),
    st.builds(mc.FamilySpec, st.just("product"),
              factors=st.lists(small_factor, min_size=2, max_size=3).map(tuple)),
)


class TestGeneratedGrades:
    @given(every_graded_spec)
    def test_grades_describe_the_metric(self, spec):
        """Every graded spec's grades describe its metric and pass the
        validator's proof at any size, which keeps them as handed over."""
        sp = mc.generate(spec)
        table, hops = sp.grades
        kinds = {"hamming_cube": np.uint8, "discrete_torus": np.int16}
        assert hops.dtype == kinds.get(spec.kind, np.min_scalar_type(len(table)))
        assert np.array_equal(table[hops], sp.dist)
        assert table[0] == 0.0 and (np.diff(table) > 0.0).all()
        assert not table.flags.writeable and not hops.flags.writeable
        kept = mc.validate_space(sp.points, sp.dist, sp.weights, grades=sp.grades)
        assert kept.grades[0] is table and kept.grades[1] is hops
        if sp.n <= 1024:
            assert same_bytes(sp.distinct_distances(), rebuilt(sp).distinct_distances())

    def test_spec_weights_keep_the_grades(self):
        weights = tuple(np.linspace(0.5, 1.5, 32).tolist())
        sp = mc.generate(mc.FamilySpec("hamming_cube", 5, weights=weights))
        assert sp.grades is not None and sp.weights.tolist() == list(weights)
        assert families._with_weights(sp, sp.weights[::-1]).grades is sp.grades

    def test_a_pushforward_image_keeps_the_screen_grades(self):
        torus6 = mc.generate(mc.FamilySpec("discrete_torus", 6))
        cube = mc.generate(mc.FamilySpec("hamming_cube", 3))
        image = mc.pushforward_screen(cube, torus6, [p.count("1") for p in cube.points])
        assert image.grades is torus6.grades

    def test_every_other_space_is_graded_from_its_matrix(self):
        tori = (mc.FamilySpec("discrete_torus", 3), mc.generate(mc.FamilySpec("discrete_torus", 4)))
        graph = mc.FamilySpec("weighted_graph", 3, edges=((0, 1, 1.0), (1, 2, 1.0)))
        for spec in (mc.FamilySpec("product", factors=tori), graph):  # a built factor: no table fold
            sp = mc.generate(spec)
            table, hops = sp.grades
            assert np.array_equal(table[hops], sp.dist)
            assert same_bytes(table[1:], np.unique(sp.dist[np.triu_indices(sp.n, k=1)]))
        cube = mc.generate(mc.FamilySpec("hamming_cube", 2))
        checked = mc.validate_space(cube.points, cube.dist, cube.weights)
        assert checked._grades is not None  # the certificate's, kept
        assert same_bytes(checked.grades[0], cube.grades[0])
        assert np.array_equal(checked.grades[1], cube.grades[1])


class TestProvenGrades:
    """validate_space proves the grades a generator claims against the
    matrix and keeps a pair that passes; a pair that fails is a bug."""

    @staticmethod
    def claim(sp, table, hops):
        return mc.validate_space(sp.points, sp.dist, sp.weights, grades=(table, hops))

    @pytest.mark.parametrize("spec", [mc.FamilySpec("hamming_cube", 7), mc.FamilySpec("discrete_torus", 150),
                                      mc.FamilySpec("product", factors=(mc.FamilySpec("discrete_torus", 8),
                                                                        mc.FamilySpec("discrete_torus", 12)))],
                             ids=["cube7", "torus150", "product8x12"])
    def test_a_correct_pair_is_kept_and_a_changed_one_refused(self, spec):
        sp = mc.generate(spec)
        table, hops = sp.grades
        kept = self.claim(sp, table, hops)
        assert kept.grades[0] is table and kept.grades[1] is hops
        assert same_bytes(kept.dist, sp.dist) and kept.points == sp.points
        top = len(table) - 1
        for i, j in ((0, 1), (sp.n - 1, 3), (70 % sp.n, 70 % sp.n)):  # the last block, a diagonal
            changed = hops.copy()
            changed[i, j] = hops[i, j] + 1 if hops[i, j] < top else hops[i, j] - 1
            with pytest.raises(RuntimeError, match=r"dist != table\[hops\].*this is a bug"):
                self.claim(sp, table, changed)

    def test_a_negative_rank_is_refused(self):
        """table[-1] is the diameter, so a rank of -1 at a farthest pair
        would pass the comparison alone."""
        sp = mc.generate(mc.FamilySpec("discrete_torus", 10))
        table, hops = sp.grades
        changed = hops.copy()
        changed[0, 5] = -1
        assert np.array_equal(table[changed], sp.dist)
        with pytest.raises(RuntimeError, match=r"dist != table\[hops\].*this is a bug"):
            self.claim(sp, table, changed)

    def test_a_table_that_does_not_increase_strictly_is_refused(self):
        """A repeated value, table[0] moved off 0, and a swapped pair."""
        sp = mc.generate(mc.FamilySpec("hamming_cube", 4))
        table, hops = sp.grades
        swapped = table.copy()
        swapped[[1, 2]] = swapped[[2, 1]]
        for bad, ranks in ((np.insert(table, 1, table[1]), hops + (hops >= 1)),
                           (table - table[1] / 2.0, hops), (swapped, hops)):
            with pytest.raises(RuntimeError, match="does not increase strictly from 0; this is a bug"):
                self.claim(sp, bad, ranks)

    @pytest.mark.parametrize("at", [1, 3, 5], ids=["first", "inner", "last"])
    def test_a_table_value_no_pair_uses_is_refused(self, at):
        """table[at] inserted between two distances (or past the last),
        the ranks moved up to match: dist == table[hops] still holds."""
        sp = mc.generate(mc.FamilySpec("hamming_cube", 4))
        table, hops = sp.grades
        extra = (table[at - 1] + table[at]) / 2.0 if at < len(table) else table[-1] + 1.0
        bad, ranks = np.insert(table, at, extra), hops + (hops >= at)
        assert np.array_equal(bad[ranks], sp.dist) and (np.diff(bad) > 0.0).all()
        with pytest.raises(RuntimeError, match=rf"no distance is table\[{at}\] = .*this is a bug"):
            self.claim(sp, bad, ranks)

    def test_a_hop_matrix_of_another_shape_or_type_is_refused(self):
        sp = mc.generate(mc.FamilySpec("discrete_torus", 6))
        table, hops = sp.grades
        for bad in (hops[:5], hops.astype(np.float64), hops[:, :, None]):
            with pytest.raises(RuntimeError, match="not an integer 6 x 6 matrix; this is a bug"):
                self.claim(sp, table, bad)

    def test_a_broken_metric_is_refused_as_a_metric_first(self):
        """The proof reads a matrix that already passed the pair axioms."""
        sp = mc.generate(mc.FamilySpec("discrete_torus", 6))
        dist = sp.dist.copy()
        dist[0, 1] = 0.0
        with pytest.raises(mc.SpaceValidationError):
            mc.validate_space(sp.points, dist, sp.weights, grades=sp.grades)


class TestBuiltGrades:
    def test_one_point(self):
        sp = mc.validate_space(["o"], [[0.0]], [1.0])
        table, hops = sp.grades
        assert same_bytes(table, np.zeros(1)) and hops.tolist() == [[0]]
        assert same_bytes(sp.distinct_distances(), np.zeros(0))
        assert not table.flags.writeable and not hops.flags.writeable

    def test_a_document_and_a_unit_graph_grade_as_the_torus(self, tmp_path):
        """The torus8 document, its matrix written out, and the 8-cycle of
        edges 1/8 long: one table, one hop matrix."""
        torus8 = mc.generate(mc.FamilySpec("discrete_torus", 8))
        matrix = tmp_path / "matrix.json"
        matrix.write_text(mc.report_json(mc.serialize_space(torus8)))
        cycle = mc.FamilySpec("weighted_graph", 8, normalized=False,
                              edges=tuple((i, (i + 1) % 8, 0.125) for i in range(8)))
        for sp in (mc.parse_space(str(SPACES / "torus8.json")), mc.parse_space(str(matrix)),
                   mc.generate(cycle)):
            assert same_bytes(sp.grades[0], torus8.grades[0])
            assert np.array_equal(sp.grades[1], torus8.grades[1])

    def test_nothing_is_graded_until_a_reader_asks(self, monkeypatch):
        """generate proves the grades of a cube, a torus or a product of
        their specs and ranks nothing; a graph or a product with a built
        factor is ranked once, on the space generate returns, so a first
        read of what it returns builds none; _with_weights builds none
        until a reader asks, and a pushforward image shares its screen's."""
        built, generated = [], []
        grade, generate = mmconc.space._grade, families.generate
        monkeypatch.setattr(mmconc.space, "_grade", lambda dist: built.append(dist) or grade(dist))
        monkeypatch.setattr(families, "generate", lambda spec: generated.append(spec) or generate(spec))
        cube, tori = mc.FamilySpec("hamming_cube", 3), (mc.FamilySpec("discrete_torus", 3),
                                                         mc.FamilySpec("discrete_torus", 4))
        square = mc.default_screen_roster()[1][1]
        cases = ((cube, 0), (tori[1], 0),
                 (mc.FamilySpec("product", factors=tori), 0),  # the table fold's grades
                 (mc.FamilySpec("product", factors=(cube, *tori)), 0),
                 (mc.FamilySpec("product", factors=(tori[0], square)), 1),  # the certificate's
                 (mc.FamilySpec("weighted_graph", 3, edges=((0, 1, 1.0), (1, 2, 2.0))), 1))
        for spec, ranked in cases:
            built.clear()
            generated.clear()
            sp = families.generate(spec)
            assert len(generated) == 1 + sum(isinstance(f, mc.FamilySpec) for f in spec.factors)
            assert len(built) == ranked and all(dist is sp.dist for dist in built)
            assert sp.grades is sp.grades and len(built) == ranked
        product = families.generate(cases[2][0])
        weighted = families._with_weights(rebuilt(product), np.linspace(0.5, 1.5, 12))
        built.clear()
        assert weighted.grades is weighted.grades
        assert len(built) == 1 and built.pop() is weighted.dist
        images = [mc.pushforward_screen(product, square, np.arange(12) % k) for k in (1, 4)]
        assert all(image.grades is square.grades for image in images) and len(built) == 1
