"""Acceptance suite: one test per shipped guarantee, at stated tolerances.

Each test prints a single `ACCEPTANCE <k> PASS` line (visible with -s, and in
the captured output block when a run fails), so the suite reads as a checklist.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import mmconc as mc
from conftest import random_measure, random_space

KAPPA_SLACK = 1e-12  # slack for float accumulation on exact-arithmetic claims


def test_acceptance_1_two_point_regression(two_point):
    """Sep(1/2,1/2) = 1 exactly; the observable-diameter lower bound at
    kappa = 1/2 is 0 exactly; both in under a second."""
    t0 = time.perf_counter()
    sep = mc.sep_exact(two_point, [0.5, 0.5])
    br = mc.obsdiam_real_bracket(two_point, 0.5)
    dt = time.perf_counter() - t0
    assert sep.value == 1.0 and sep.exact
    assert br.lower == 0.0
    assert dt < 1.0
    print(f"\nACCEPTANCE 1 PASS: sep=1.0, obsdiam lower=0.0 in {dt*1e3:.0f} ms")


def test_acceptance_2_sandwich_suite():
    """On 200 random spaces (n <= 10, kappa in (0, m/4)): every generated
    candidate obeys diam(f mu, m-2k) <= Sep(k,k), and every Sep witness
    pair certifies diam(f mu, m-k/2) >= Sep via f = d(., X1)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    upper_checked = lower_checked = 0
    for i in range(200):
        sp = random_space(rng, int(rng.integers(2, 11)))
        m = sp.weights.sum()
        kap = float(rng.uniform(1e-3, m / 4))
        sep = mc.sep_exact(sp, [kap, kap])
        for f in mc.lipschitz_candidates(sp, kap, effort=300, seed=i):
            nu = mc.pushforward_real(sp, f)
            pd = mc.partial_diameter_real(nu, m - 2 * kap)
            assert pd <= sep.value + KAPPA_SLACK
            upper_checked += 1
        if sep.feasible:
            x1 = list(sep.witnesses[0].indices)
            fvals = sp.dist[:, x1].min(axis=1)
            nu = mc.pushforward_real(sp, fvals)
            pd = mc.partial_diameter_real(nu, m - kap / 2)
            assert pd >= sep.value - KAPPA_SLACK
            lower_checked += 1
    dt = time.perf_counter() - t0
    assert dt < 300.0
    print(
        f"\nACCEPTANCE 2 PASS: {upper_checked} candidate upper checks, "
        f"{lower_checked} witness lower checks, 0 violations in {dt:.1f} s"
    )


def test_acceptance_3_pushforward_monotonicity():
    """On 200 random (space, 1-Lipschitz map, kappa) triples, separation
    never grows under pushforward: Sep(f mu) <= Sep(mu) + 1e-12."""
    rng = np.random.default_rng(30)
    for i in range(200):
        sp = random_space(rng, int(rng.integers(3, 10)))
        m = sp.weights.sum()
        kap = float(rng.uniform(0.02, m / 5))
        if i % 2 == 0:
            f = mc.lipschitz_candidates(sp, kap, effort=150, seed=i)[0]
            lmap = mc.validate_lipschitz(sp, None, f)
        else:
            screen = random_space(rng, int(rng.integers(2, 6)))
            idx = mc.sample_lipschitz_map(sp, screen, np.random.default_rng(i))
            lmap = mc.validate_lipschitz(sp, screen, idx)
        out = mc.sep_pushforward_check(sp, lmap, [kap, kap])
        assert out["holds"]
        assert out["target"].value <= out["source"].value + KAPPA_SLACK
    print("\nACCEPTANCE 3 PASS: 200 pushforward monotonicity checks, 0 violations")


def test_acceptance_4_quantile_chain():
    """On 500 random discrete measures: diam(nu, m-2k) <= quantile gap
    <= Sep(nu; k,k) + 1e-12."""
    rng = np.random.default_rng(40)
    for _ in range(500):
        nu = random_measure(rng, int(rng.integers(2, 13)))
        m = nu.total_mass
        kap = float(rng.uniform(0.01, 0.45 * m))
        pd = mc.partial_diameter_real(nu, m - 2 * kap)
        gap = mc.sep_real_quantile(nu, kap).gap
        sep = mc.sep_exact(mc.real_measure_as_space(nu), [kap, kap])
        assert pd <= gap + KAPPA_SLACK
        assert gap <= sep.value + KAPPA_SLACK
    print("\nACCEPTANCE 4 PASS: 500 quantile chains, 0 violations")


def _empirical_ratio_floor(sp, r1, r2):
    b1 = (sp.dist <= r1) @ sp.weights
    b2 = (sp.dist <= r2) @ sp.weights
    admissible = sp.dist <= r2  # centers x within r2 of y
    return (b1[:, None] / b2[None, :])[admissible].min()


def _coloring_is_valid(sp, net, col):
    scale = 5.0 * col.net.epsilon
    seen = set()
    for cls in col.classes:
        for p in cls:
            assert p not in seen
            seen.add(p)
        idx = list(cls.indices)
        for a in idx:
            for b in idx:
                assert a == b or sp.dist[a, b] >= scale
    assert seen == set(net.members.indices)


def test_acceptance_5_doubling_theorems():
    """Ratio bound below every empirical ball-mass ratio, packing bound
    holds, and net colorings verify, on cycles, cubes, and 50 random-weight
    tori, in under two minutes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(50)
    spaces = [
        mc.generate(mc.FamilySpec("discrete_torus", 8, normalized=False)),
        mc.generate(mc.FamilySpec("discrete_torus", 16, normalized=False)),
    ]
    spaces += [
        mc.generate(mc.FamilySpec("hamming_cube", n)) for n in range(2, 7)
    ]
    for _ in range(50):
        nn = int(rng.integers(5, 17))
        w = tuple(rng.uniform(0.2, 1.0, nn))
        spaces.append(
            mc.generate(
                mc.FamilySpec("discrete_torus", nn, normalized=False, weights=w)
            )
        )
    ratio_checks = 0
    for sp in spaces:
        prof = mc.doubling_profile(sp)
        R = prof.horizon
        for r1_frac, r2_frac in [(0.25, 0.5), (0.1, 0.5), (0.5, 0.5)]:
            r1, r2 = r1_frac * R, r2_frac * R
            bound = mc.ratio_bound(prof, r1, r2)
            assert bound <= _empirical_ratio_floor(sp, r1, r2)
            ratio_checks += 1
        eps = 3.0 * R / 32.0
        net = mc.build_net(sp, eps)
        assert mc.packing_bound_check(prof, net, eps).holds
        col = mc.color_net(sp, net)
        _coloring_is_valid(sp, net, col)
    dt = time.perf_counter() - t0
    assert dt < 120.0
    print(
        f"\nACCEPTANCE 5 PASS: {len(spaces)} spaces, {ratio_checks} ratio bounds, "
        f"packing + coloring verified in {dt:.1f} s"
    )


def test_acceptance_6a_heuristic_matches_exact_separation():
    """sep_lower_bound at effort 10^4 equals sep_exact on >= 95% of 100
    random instances and never exceeds it."""
    rng = np.random.default_rng(60)
    hits = 0
    for i in range(100):
        sp = random_space(rng, int(rng.integers(2, 11)))
        m = sp.weights.sum()
        kap = float(rng.uniform(0.02, m / 4))
        ex = mc.sep_exact(sp, [kap, kap])
        lb = mc.sep_lower_bound(sp, [kap, kap], effort=10000, seed=i)
        assert lb.value <= ex.value  # never exceeds
        hits += lb.value == ex.value
    assert hits >= 95
    print(f"\nACCEPTANCE 6a PASS: heuristic == exact on {hits}/100, never above")


STEP = 0.05


def _lattice_obsdiam_bounds(sp, kappa):
    """Exhaustive grid search over functions with values on the 0.05 lattice
    (anchored at the first point; partial diameter is translation invariant,
    and any lattice-valued function can be translated to a lattice-anchored
    one).

    Returns (strict, relaxed): the best partial diameter at mass m-kappa over
    exactly 1-Lipschitz lattice functions, and over lattice functions allowed
    one step of slack per constraint.  Discretizing a 1-Lipschitz function
    costs at most one step in each direction, so the continuum optimum lies
    in [strict, relaxed + step]: a two-sided bracket for the oracle check.
    (The strict optimum alone can trail the continuum optimum by more than
    one step — a binding chain through k points loses up to k steps.)
    """
    n = len(sp.points)
    m = sp.weights.sum()
    surv = np.zeros((1, 1))
    strict = np.ones(1, dtype=bool)
    for i in range(1, n):
        r = int(np.floor((sp.dist[0, i] + STEP) / STEP + 1e-9))
        axis = np.arange(-r, r + 1) * STEP
        expanded = np.repeat(surv, len(axis), axis=0)
        ex_strict = np.repeat(strict, len(axis))
        col = np.tile(axis, surv.shape[0])
        ok = np.ones(expanded.shape[0], dtype=bool)
        for j in range(i):  # prune early: constraints against placed points
            gap = np.abs(col - expanded[:, j])
            ok &= gap <= sp.dist[i, j] + STEP + 1e-9
            ex_strict &= gap <= sp.dist[i, j] + 1e-9
        surv = np.concatenate([expanded[ok], col[ok, None]], axis=1)
        strict = ex_strict[ok]
    # vectorized sliding-window partial diameter across all survivors
    order = np.argsort(surv, axis=1)
    svals = np.take_along_axis(surv, order, axis=1)
    sweights = sp.weights[order]
    prefix = np.concatenate(
        [np.zeros((surv.shape[0], 1)), np.cumsum(sweights, axis=1)], axis=1
    )
    target = m - kappa
    best_width = np.full(surv.shape[0], np.inf)
    for i in range(n):
        for j in range(i, n):
            mass = prefix[:, j + 1] - prefix[:, i]
            width = svals[:, j] - svals[:, i]
            feas = mass >= target
            best_width[feas] = np.minimum(best_width[feas], width[feas])
    return float(best_width[strict].max()), float(best_width.max())


def test_acceptance_6b_bracket_lower_matches_lattice_search():
    """obsdiam_real_bracket.lower agrees with an exhaustive 0.05-lattice
    search within one lattice step on 50 spaces with n <= 5: at least the
    strict lattice optimum minus a step, at most the relaxed one plus a
    step (the pair brackets the continuum optimum, see the oracle's
    docstring)."""
    rng = np.random.default_rng(61)
    worst_trail = worst_excess = 0.0
    for trial in range(50):
        n = 3 + trial % 3  # 3, 4, 5 round-robin
        sp = random_space(rng, n)
        kap = float(rng.uniform(0.05, 0.3))
        grid_lo, grid_hi = _lattice_obsdiam_bounds(sp, kap)
        br = mc.obsdiam_real_bracket(sp, kap, effort=2000, seed=trial)
        worst_trail = max(worst_trail, grid_lo - br.lower)
        worst_excess = max(worst_excess, br.lower - grid_hi)
        assert br.lower >= grid_lo - STEP - 1e-9
        assert br.lower <= grid_hi + STEP + 1e-9
    print(
        f"\nACCEPTANCE 6b PASS: 50 lattice comparisons, worst trail "
        f"{worst_trail:.4f}, worst excess {worst_excess:.4f} (step {STEP})"
    )


def test_acceptance_7_levy_trend():
    """Documented trend run (cubes n = 2..8, seed 0, default roster,
    kappa = 0.1): the roster supremum never increases with n, and the exact
    binomial width at mass 0.9 drops strictly from n=2 to n=12; well inside
    the runtime budget."""
    t0 = time.perf_counter()
    fam = [mc.FamilySpec("hamming_cube", n) for n in range(2, 9)]
    rep = mc.run_levy_experiment(fam, seed=0, workers=4)
    sups = [s["roster_sup"] for s in rep.suprema]
    assert len(sups) == 7
    for prev, cur in zip(sups, sups[1:]):
        assert cur <= prev + 1e-9
    w2 = mc.partial_diameter_real(mc.binomial_mean_measure(2), 0.9)
    w12 = mc.partial_diameter_real(mc.binomial_mean_measure(12), 0.9)
    assert w12 < w2
    dt = time.perf_counter() - t0
    assert dt < 60.0
    trend = ", ".join(f"{v:.4f}" for v in sups)
    print(f"\nACCEPTANCE 7 PASS: supremum trend [{trend}] in {dt:.0f} s")


def test_acceptance_8_worker_determinism():
    """Byte-identical experiment reports from 1-worker and 8-worker runs."""
    fam = [mc.FamilySpec("hamming_cube", n) for n in range(2, 6)]
    solo = mc.run_levy_experiment(fam, seed=9, samples=16, effort=2000, workers=1)
    pool = mc.run_levy_experiment(fam, seed=9, samples=16, effort=2000, workers=8)
    ja = mc.report_json(solo.as_dict())
    jb = mc.report_json(pool.as_dict())
    assert ja.encode() == jb.encode()
    print(f"\nACCEPTANCE 8 PASS: {len(ja)} byte report identical across 1 and 8 workers")
