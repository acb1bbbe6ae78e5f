"""Graded cubes and tori: their grades describe their metric, spaces that
reuse the metric keep them, and every ball mass, profile, packing check
and concentration witness has the same bytes with and without them."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mmconc as mc
from mmconc import families
from mmconc.space import _ball_mass_blocks


def graded(kind: str, n: int, normalized: bool, seed: int | None = None) -> mc.FiniteMMSpace:
    """A generated cube or torus, with its own uniform weights (seed None)
    or random positive ones."""
    weights = None
    if seed is not None:
        size = 1 << n if kind == "hamming_cube" else n
        weights = tuple(np.random.default_rng(seed).uniform(0.1, 2.0, size).tolist())
    return mc.generate(mc.FamilySpec(kind, n, normalized, weights=weights))


def ungraded(sp: mc.FiniteMMSpace) -> mc.FiniteMMSpace:
    return mc.FiniteMMSpace(sp.points, sp.dist, sp.weights)


def same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def blocks(sp, table, centers):
    return np.concatenate(list(_ball_mass_blocks(sp, table, centers)))


def profile_bytes(profile) -> tuple:
    return (profile.horizon, *(a.tobytes() for a in
                               (profile.radii, profile.values, profile.steps, profile.step_values)))


def check_same_answers(sp: mc.FiniteMMSpace, seed: int) -> None:
    """Every reader of the grades, on sp and on sp with its grades dropped."""
    plain = ungraded(sp)
    assert sp.grades is not None and plain.grades is None
    rng = np.random.default_rng(seed)
    assert same_bytes(sp.distinct_distances(), plain.distinct_distances())
    full = np.concatenate(([0.0], plain.distinct_distances()))
    cut = int(rng.integers(1, len(full) + 1))
    past = np.unique(np.append(full, rng.uniform(0.0, 2.0 * sp.diameter + 1.0)))
    some = rng.integers(0, sp.n, size=int(rng.integers(1, 2 * sp.n + 1)))
    for table in (full, full[:cut], full[:1], past):  # its own, clamped, and not a prefix
        for centers in (None, some):
            assert same_bytes(blocks(sp, table, centers), blocks(plain, table, centers))
    for center in rng.integers(0, sp.n, size=3):
        for radius in (0.0, *rng.uniform(0.0, sp.diameter, 3), *full[-2:], sp.diameter + 1.0):
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


class TestSameAnswersWithoutGrades:
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
        blank = mc.FiniteMMSpace(sp.points, np.full_like(sp.dist, np.nan), sp.weights, grades=sp.grades)
        table = np.concatenate(([0.0], sp.distinct_distances()))
        for cut in (len(table), 3):
            assert same_bytes(blocks(blank, table[:cut], None), blocks(sp, table[:cut], None))


every_graded_spec = st.one_of(
    st.builds(mc.FamilySpec, st.just("hamming_cube"), st.integers(1, 11), st.booleans()),
    st.builds(mc.FamilySpec, st.just("discrete_torus"), st.integers(1, 2048), st.booleans()),
)


class TestGeneratedGrades:
    @given(every_graded_spec)
    def test_grades_describe_the_metric(self, spec):
        sp = mc.generate(spec)
        table, hops = sp.grades
        assert hops.dtype == (np.uint8 if spec.kind == "hamming_cube" else np.int16)
        assert np.array_equal(table[hops], sp.dist)
        assert table[0] == 0.0 and (np.diff(table) > 0.0).all()
        assert not table.flags.writeable and not hops.flags.writeable
        if sp.n <= 1024:
            assert same_bytes(sp.distinct_distances(), ungraded(sp).distinct_distances())

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

    def test_other_spaces_are_ungraded(self):
        tori = (mc.FamilySpec("discrete_torus", 3), mc.FamilySpec("discrete_torus", 4))
        graph = mc.FamilySpec("weighted_graph", 3, edges=((0, 1, 1.0), (1, 2, 1.0)))
        for spec in (mc.FamilySpec("product", factors=tori), graph):
            assert mc.generate(spec).grades is None
        cube = mc.generate(mc.FamilySpec("hamming_cube", 2))
        assert mc.validate_space(cube.points, cube.dist, cube.weights).grades is None
