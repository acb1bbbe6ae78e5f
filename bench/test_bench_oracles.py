"""Hand-worked cases for the benchmark's oracles and its tracer.

  python3 -m pytest bench/test_bench_oracles.py -q
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402

# four points on a line at 0, 1, 2, 3 with equal weights
PATH = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
QUARTERS = [0.25] * 4


def test_subset_sep_on_the_path():
    # {0} and {3} are 3 apart; halves {0,1} and {2,3} are 1 apart
    assert oracles.sep_two_groups(PATH, QUARTERS, 0.25, 0.25) == 3.0
    assert oracles.sep_two_groups(PATH, QUARTERS, 0.5, 0.25) == 2.0
    assert oracles.sep_two_groups(PATH, QUARTERS, 0.5, 0.5) == 1.0
    assert oracles.sep_two_groups(PATH, QUARTERS, 0.6, 0.5) == 0.0


def test_subset_masses_sum_in_ascending_index_order():
    # (0.3 + 0.2) + 0.1 == 0.6 but (0.1 + 0.2) + 0.3 rounds above it; the
    # program sums group masses in ascending index order, and so must this
    assert (0.3 + 0.2) + 0.1 != (0.1 + 0.2) + 0.3
    assert oracles.subset_masses([0.3, 0.2, 0.1])[0b111] == (0.3 + 0.2) + 0.1
    assert oracles.subset_masses([0.1, 0.2, 0.3])[0b111] == (0.1 + 0.2) + 0.3
    assert oracles.sequential_mass([0.3, 0.2, 0.1], [2, 0, 1]) == (0.3 + 0.2) + 0.1


@pytest.mark.parametrize(
    "n, r, value",
    [(2, 2, 1.0), (3, 3, 1.0), (4, 3, 0.75), (5, 3, 0.6), (6, 4, 4 / 6), (7, 4, 4 / 7), (8, 4, 0.5)],
)
def test_harper_closed_form(n, r, value):
    assert oracles.harper_sep_hamming(n, 0.1) == (r, pytest.approx(value, rel=1e-15))


def test_harper_agrees_with_enumeration_on_small_cubes():
    # kappa = 0.3 on the 3-cube: three points of mass 1/8 are needed per
    # group, and the 1-neighbourhood of {000, 100, 010} leaves only 111
    assert oracles.harper_sep_hamming(3, 0.3) == (1, 1 / 3)
    for n in (2, 3):
        for kappa in (0.1, 0.2, 0.3, 0.45):
            d = workloads.cube_dist(n)
            w = np.full(1 << n, 0.5**n)
            want = oracles.sep_two_groups(d, w, kappa, kappa)
            assert oracles.harper_sep_hamming(n, kappa)[1] == pytest.approx(want, rel=1e-15)


def test_real_partial_diameter_windows():
    pos = [0.0, 1.0, 2.0, 3.0]
    assert oracles.real_partial_diameter(pos, QUARTERS, 0.5) == 1.0
    assert oracles.real_partial_diameter(pos, QUARTERS, 0.75) == 2.0
    assert oracles.real_partial_diameter(pos, QUARTERS, 1.0) == 3.0
    assert oracles.real_partial_diameter(pos, QUARTERS, 1.5) == math.inf
    assert oracles.real_partial_diameter(pos, QUARTERS, 0.0) == 0.0
    # coincident atoms merge: 0.5 at position 0 is one window of width 0
    assert oracles.real_partial_diameter([0.0, 0.0, 5.0], [0.25, 0.25, 0.5], 0.5) == 0.0


def test_quantile_gap():
    pos = [3.0, 0.0, 2.0, 1.0]  # unsorted on purpose
    assert oracles.quantile_gap(pos, QUARTERS, 0.3) == (1.0, 2.0, 1.0, False)
    assert oracles.quantile_gap(pos, QUARTERS, 0.5) == (2.0, 1.0, 0.0, True)
    assert oracles.quantile_gap(pos, QUARTERS, 1.0) == (math.inf, -math.inf, 0.0, True)


def test_screen_partial_diameter_on_the_square():
    d, _ = workloads.square4()  # sw, se, nw, ne; sides 1/4, diagonals 1/2
    assert oracles.screen_partial_diameter(d, [0.5, 0.5, 0.0, 0.0], 0.9) == 0.25
    assert oracles.screen_partial_diameter(d, [0.4, 0.1, 0.1, 0.4], 0.85) == 0.5
    assert oracles.screen_partial_diameter(d, [0.4, 0.1, 0.1, 0.4], 0.5) == 0.25
    assert oracles.screen_partial_diameter(d, [0.4, 0.1, 0.1, 0.4], 0.4) == 0.0


def test_space_partial_diameter_on_the_path():
    assert oracles.space_partial_diameter(PATH, QUARTERS, 0.75, 1.0) == 2.0
    assert oracles.space_partial_diameter(PATH, QUARTERS, 0.25, 1.0) == 0.0


def test_ball_masses_and_doubling_constants():
    masses = oracles.ball_mass_table(PATH, QUARTERS, [0.5, 1.0, 2.0])
    assert masses.tolist() == [[0.25] * 4, [0.5, 0.75, 0.75, 0.5], [0.75, 1.0, 1.0, 0.75]]
    # r = 1/2: balls are single points, doubled they hold up to 3
    # r = 1: the endpoint's ball grows from 1/2 to 3/4, the middle's
    # from 3/4 to 1
    assert oracles.doubling_constants(PATH, QUARTERS, [0.5, 1.0]).tolist() == [3.0, 1.5]


def test_net_and_coloring_properties():
    assert oracles.net_violations(PATH, [0, 2], 2.0) == []
    assert oracles.net_violations(PATH, [0, 3], 2.0) == []
    assert oracles.net_violations(PATH, [0, 1], 2.0) != []  # members too close
    assert oracles.net_violations(PATH, [0], 2.0) != []  # points 2 and 3 uncovered
    # at epsilon 1/4 every point is a member; 5*epsilon-balls hold up to 3
    assert oracles.packing_multiplicity(PATH, range(4), 0.25) == 3
    assert oracles.coloring_violations(PATH, range(4), [[0, 3], [1], [2]], 0.25) == []
    assert oracles.coloring_violations(PATH, range(4), [[0, 1], [2], [3]], 0.25) != []
    assert oracles.coloring_violations(PATH, range(4), [[0, 3], [1, 2]], 0.25) != []


def test_forced_constant():
    d, _ = workloads.square4()
    # the path's unit steps are below 1.5 but not below 1
    assert workloads.forced_constant(PATH, 1.5)
    assert not workloads.forced_constant(PATH, 1.0)
    assert workloads.min_positive(d) == 0.25


def test_tracer_wraps_every_binding_and_restores_it():
    import tracing

    import mmconc

    original = mmconc.observable.obsdiam_screen_estimate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = mmconc.observable.obsdiam_screen_estimate
        assert wrapped is not original
        assert mmconc.families.obsdiam_screen_estimate is wrapped
        assert mmconc.obsdiam_screen_estimate is wrapped
        mmconc.families.generate(mmconc.families.FamilySpec("hamming_cube", 3))
    finally:
        tracer.uninstall()
    assert mmconc.families.obsdiam_screen_estimate is original
    names = [s["name"] for s in tracer.spans]
    assert names[0] == "families.generate"
    assert {"space.validate_space", "numeric.subadditive_table"} <= set(names)
    assert all(s["parent"] == 0 for s in tracer.spans[1:])
    totals = tracer.layer_totals()
    whole = tracer.spans[0]["end"] - tracer.spans[0]["start"]
    children = sum(s["end"] - s["start"] for s in tracer.spans[1:])
    assert totals["families.generate"]["calls"] == 1
    assert totals["families.generate"]["self_s"] == pytest.approx(whole - children)


def test_calibration_runs_units_only_inside_operations():
    import time

    import worker

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    calibration = worker.Calibration()
    calibration.start()
    try:
        busy(3 * worker.CAL_TICK_S)  # outside an operation: no units
        assert calibration.units == []
        calibration.in_op = True
        busy(4 * worker.CAL_TICK_S)
        calibration.in_op = False
    finally:
        calibration.stop()
    assert len(calibration.units) >= 2
    assert calibration.spent == pytest.approx(sum(calibration.units))
    assert calibration.speed() > 0
