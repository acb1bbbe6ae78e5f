"""The screen sampler and the separation searches against reference copies.

`sample_lipschitz_map` keeps a stack of forward-checked domains,
`_try_threshold` bitmasks and moves drawn in blocks,
`_feasible_assignment` bitmasks with a reachable-mass prune, and the
line bracket's candidate pool drops a candidate that is not exactly
1-Lipschitz.  The
references below rescan every assigned point at each step (the exact
search with numpy minima over group members); the separation references
are the earlier implementations, and the sampler reference follows the
sampler's rule of rejecting a value that leaves a later point with no
compatible screen point, found by rescanning.  The screen bracket
reference scores every sampled map and draws every sample, with no skip
and no stop at closure; the line bracket's reference clamps each
candidate onto the Lipschitz polytope instead.  They are kept here,
test-only, so that every seeded map and assignment can be compared bit
for bit.  The trend report digests pin the end-to-end output of the same
searches, and `sep_exact` is checked against the subset oracle of the
benchmark.
"""

from __future__ import annotations

import functools
import hashlib
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mmconc as mc
from mmconc._numeric import check_counts, rng_for, stable_seed
from mmconc.observable import DEFAULT_SCREEN_BUDGET, _search_lipschitz_map
from mmconc.separation import (
    _MASS_SLACK,
    _MOVE_BLOCK,
    _conflict_components,
    _feasible_assignment,
    _group_masses,
    _mass_tables,
    _try_threshold,
)
from conftest import random_space

SPACES = Path(__file__).resolve().parent.parent / "spaces"
sys.path.insert(0, str(SPACES.parent / "bench"))
import oracles  # noqa: E402  (numpy only; never imports mmconc)
import workloads  # noqa: E402  (the benchmark's inputs)

# SHA-256 of report_json(run_levy_experiment(hamming 2..6, samples=32,
# seed=0).as_dict())
TREND_DIGEST = "6360b913df93b49c8ca107f15b941788bf5c12140d428efa2260b0757626a2cd"
# the same digest for the documented run (hamming 2..8, samples=64, seed=0;
# equal at workers 1, 2 and 8), for members [hamming 3, hamming 3, torus 12]
# at kappa_grid [0.2, 0.1, 0.1] (seed 3), and for those members with the
# default roster plus a screen that doubling_profile rejects (seed 1)
DOCUMENTED_DIGEST = "c3a6dcd46d9787caf11717c42c21117566d4c5c2e85f17f05d97980ae5afa3fc"
REPEATED_KAPPA_DIGEST = "035f7fa831c573e68aaba9d915b610e33f801f15d356f537c461fa8138c38943"
ERROR_SCREEN_DIGEST = "34855bebf157c5ce7d19b9fadf3d3ea965b71f5461c587b3e1d5e12ae7e8063c"


# ---------------------------------------------------------------------------
# reference implementations


def reference_sample_lipschitz_map(space, screen, rng, max_backtrack=None):
    n = space.n
    if max_backtrack is None:
        max_backtrack = 50 * n
    order = rng.permutation(n)
    values = np.full(n, -1, dtype=np.int64)

    def compatible(x, prior):
        """Screen points within the Lipschitz bound of every point of prior."""
        return np.all(
            screen.dist[:, values[prior]] <= space.dist[x, prior][None, :], axis=1
        )

    options: list[np.ndarray] = []
    backtracks = 0
    pos = 0
    while pos < len(order):
        x = order[pos]
        if len(options) == pos:
            options.append(rng.permutation(np.flatnonzero(compatible(x, order[:pos]))))
        # reject a value that leaves some later point with no compatible
        # screen point, rescanning every assigned point for each of them
        while len(options[pos]):
            values[x] = int(options[pos][0])
            if all(compatible(y, order[: pos + 1]).any() for y in order[pos + 1 :]):
                break
            values[x] = -1
            options[pos] = options[pos][1:]
        if len(options[pos]) == 0:
            options.pop()
            if pos == 0 or backtracks >= max_backtrack:
                return np.full(n, int(rng.integers(screen.n)), dtype=np.int64)
            backtracks += 1
            pos -= 1
            values[order[pos]] = -1
            options[pos] = options[pos][1:]
            continue
        pos += 1
    return values


def reference_screen_bracket(space, screen, kappa, samples, seed):
    """obsdiam_screen_estimate's sampling loop without its two shortcuts:
    every sample is drawn and every non-constant map is scored."""
    target = space.total_mass - kappa
    dists = screen.distinct_distances()
    delta = float(dists[0]) if len(dists) else math.inf
    comp_mass = _group_masses(space.weights, _conflict_components(space.dist, delta), 0)
    if comp_mass.max() >= target:
        witness = {"kind": "screen_map", "values": [0] * space.n, "samples": 0, "fallbacks": 0}
        return mc.Bracket(0.0, 0.0, witness, "one component of {d < min screen distance}")
    reachable = dists[dists <= space.diameter]
    upper = float(reachable[-1]) if len(reachable) else 0.0
    if upper == screen.diameter:
        source = "screen diameter"
    else:
        source = "largest screen distance <= source diameter"
    best_val = 0.0
    best_map = np.zeros(space.n, dtype=np.int64)
    fallbacks = 0
    for s in range(samples):
        values = _search_lipschitz_map(space, screen, rng_for(seed, "screen-sample", s), None)
        if values is None:
            fallbacks += 1
            continue
        val = mc.partial_diameter_screen(mc.pushforward_screen(space, screen, values), target)
        if math.isfinite(val) and val > best_val:
            best_val, best_map = val, values
    witness = {
        "kind": "screen_map",
        "values": [int(v) for v in best_map],
        "samples": samples,
        "fallbacks": fallbacks,
    }
    return mc.Bracket(float(best_val), upper, witness, source)


def reference_lipschitz_repair(values, dist):
    """Clamp a copy of values onto the Lipschitz polytope in at most six
    passes; None when the clamped copy still stretches a pair."""
    f = values.copy()
    for _ in range(6):
        spread = np.abs(f[:, None] - f[None, :])
        if not (spread > dist).any():
            return f
        upper = (f[None, :] + dist).min(axis=1)
        f = np.minimum(f, upper)
        lower = (f[None, :] - dist).max(axis=1)
        f = np.maximum(f, lower)
    spread = np.abs(f[:, None] - f[None, :])
    return f if not (spread > dist).any() else None


def reference_candidate_pool(space, kappa, effort, seed, budget, clamped):
    """The line bracket's pool built by clamping: every raw candidate and
    every coordinate move goes through reference_lipschitz_repair and is
    kept when the repair returns a function.  clamped gets one entry per
    candidate the clamp had to touch: True when it was rescued."""
    check_counts(effort=effort)
    half = mc.sep(space, [kappa / 2] * 2, budget)
    n = space.n
    target = space.total_mass - kappa
    rng = rng_for(seed, "obsdiam-real", n)
    raw = [np.zeros(n)] + [space.dist[:, i] for i in range(n)]
    for res in (half, mc.sep(space, [kappa / 4] * 2, budget)):
        raw += [space.dist[:, list(w)].min(axis=1) for w in res.witnesses or ()]
    for _ in range(min(max(effort // 50, 8), 200)):
        subset = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        raw.append(space.dist[:, subset].min(axis=1))

    def objective(f):
        val = mc.partial_diameter_real(mc.pushforward_real(space, f), target)
        return val if math.isfinite(val) else -math.inf

    def repair(f):
        out = reference_lipschitz_repair(f, space.dist)
        if out is None or not np.array_equal(out, f):
            clamped.append(out is not None)
        return out

    pool = [(objective(f), f) for f in map(repair, raw) if f is not None]
    refined = []
    evals = 0
    for best, f in sorted(pool, key=lambda pair: pair[0], reverse=True)[:4]:
        improved = True
        while improved and evals < effort:
            improved = False
            for x in rng.permutation(n):
                others = np.arange(n) != x
                hi = (f[others] + space.dist[x, others]).min()
                lo = (f[others] - space.dist[x, others]).max()
                for cand_val in (hi, lo):
                    g = f.copy()
                    g[x] = cand_val
                    g = repair(g)
                    if g is None:
                        continue
                    evals += 1
                    val = objective(g)
                    if val > best:
                        best, f, improved = val, g, True
                if evals >= effort:
                    break
        refined.append((best, f.copy()))
    return half, pool + refined


def _sequential_mass(weights, members):
    total = 0.0
    for i in sorted(members):
        total += float(weights[i])
    return total


def reference_try_threshold(space, kappas, threshold, effort, rng):
    n = space.n
    n_groups = len(kappas)
    discard = n_groups
    comp = _conflict_components(space.dist, threshold)
    comp_ids = np.unique(comp)
    comp_mass = np.array([space.weights[comp == c].sum() for c in comp_ids])

    assign = np.full(n, discard, dtype=np.int64)
    masses = np.zeros(n_groups)
    # seed whole components, heaviest first, onto the largest deficit
    for c in comp_ids[np.argsort(-comp_mass, kind="stable")]:
        deficits = np.array(kappas) - masses
        g = int(np.argmax(deficits))
        if deficits[g] <= 0:
            break
        assign[comp == c] = g
        masses[g] += space.weights[comp == c].sum()

    def group_ok(p: int, g: int) -> bool:
        row = space.dist[p]
        for g2 in range(n_groups):
            if g2 == g:
                continue
            members = np.flatnonzero(assign == g2)
            members = members[members != p]
            if len(members) and row[members].min() < threshold:
                return False
        return True

    def total_deficit() -> float:
        out = 0.0
        for g in range(n_groups):
            mass = _sequential_mass(space.weights, np.flatnonzero(assign == g))
            if mass < kappas[g]:
                out += kappas[g] - mass
            if not (assign == g).any():
                out += math.inf
        return out

    deficit = total_deficit()
    for _ in range(effort):
        if deficit == 0.0:
            break
        p = int(rng.integers(n))
        g = int(rng.integers(n_groups + 1))
        if g == assign[p]:
            continue
        if g < n_groups and not group_ok(p, g):
            continue
        old = assign[p]
        assign[p] = g
        new_deficit = total_deficit()
        if new_deficit <= deficit:
            deficit = new_deficit
        else:
            assign[p] = old
    if deficit > 0.0:
        return None
    for g in range(n_groups):
        members = np.flatnonzero(assign == g)
        if not len(members) or _sequential_mass(space.weights, members) < kappas[g]:
            return None
    return assign


def reference_feasible_assignment(dist, weights, kappas, threshold):
    n = len(weights)
    n_groups = len(kappas)
    discard = n_groups
    suffix = np.concatenate((np.cumsum(weights[::-1])[::-1], [0.0]))
    slack = _MASS_SLACK * (1.0 + float(suffix[0]))
    assign = np.full(n, -1, dtype=np.int64)
    members: list[list[int]] = [[] for _ in range(n_groups)]
    masses = [0.0] * n_groups

    def rec(p: int) -> bool:
        if p == n:
            return all(members[g] for g in range(n_groups)) and all(
                masses[g] >= kappas[g] for g in range(n_groups)
            )
        deficit = 0.0
        empty = 0
        for g in range(n_groups):
            if masses[g] < kappas[g]:
                deficit += kappas[g] - masses[g]
            if not members[g]:
                empty += 1
        if deficit > suffix[p] + slack or empty > n - p:
            return False
        row = dist[p]
        for g in range(n_groups):
            ok = True
            for g2 in range(n_groups):
                if g2 != g and members[g2] and row[members[g2]].min() < threshold:
                    ok = False
                    break
            if ok:
                saved = masses[g]
                members[g].append(p)
                masses[g] = saved + float(weights[p])
                assign[p] = g
                if rec(p + 1):
                    return True
                members[g].pop()
                masses[g] = saved
                assign[p] = -1
        assign[p] = discard
        if rec(p + 1):
            return True
        assign[p] = -1
        return False

    return assign.copy() if rec(0) else None


# ---------------------------------------------------------------------------
# inputs


def cube(n):
    return mc.generate(mc.FamilySpec("hamming_cube", n))


def one_point():
    return mc.FiniteMMSpace(("o",), np.zeros((1, 1)), np.array([1.0]))


def screens():
    roster = list(mc.default_screen_roster())
    return roster + [("torus8", mc.parse_space(str(SPACES / "torus8.json")))]


def random_l1_space(rng, n):
    """Integer points under the L1 metric, scaled by 1/8 so every distance
    is exact; ties between distances are frequent, which exercises the
    non-strict and strict comparisons of both searches."""
    while True:
        pts = rng.integers(0, 4, size=(n, int(rng.integers(1, 4))))
        dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2) / 8.0
        if n == 1 or dist[~np.eye(n, dtype=bool)].min() > 0:
            break
    w = rng.uniform(0.2, 1.0, size=n)
    return mc.validate_space(tuple(f"p{i}" for i in range(n)), dist, w / w.sum())


def assert_same_map(space, screen, seed, validate=True, **kw):
    got = mc.sample_lipschitz_map(space, screen, rng_for(seed, "eq"), **kw)
    want = reference_sample_lipschitz_map(space, screen, rng_for(seed, "eq"), **kw)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want), (space.n, screen.n, seed)
    if validate:
        mc.validate_lipschitz(space, screen, got)
    return got


# ---------------------------------------------------------------------------
# sampler


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sampler_matches_reference_on_cubes(n):
    space = cube(n)
    for name, screen in screens():
        for seed in range(6):
            assert_same_map(space, screen, (n, name, seed))


def test_sampler_reaches_the_backtrack_fallback_identically():
    # with no backtracks allowed, cube 6 into torus6 falls back to a
    # constant map at some seeds; both implementations must give up at
    # the same draw
    space = cube(6)
    torus6 = dict(mc.default_screen_roster())["torus6"]
    constant = 0
    for seed in range(32):
        got = assert_same_map(space, torus6, ("fallback", seed), max_backtrack=0)
        constant += len(set(got.tolist())) == 1
    assert constant > 0


def test_sampler_rarely_falls_back_on_cube_6_into_torus6():
    """Rejecting a value that empties a later point's domain keeps the
    search out of most dead ends: at the default budget at most 2 of 32
    maps are constant (the chronological search without that rule
    returned 17)."""
    space = cube(6)
    torus6 = dict(mc.default_screen_roster())["torus6"]
    maps = [mc.sample_lipschitz_map(space, torus6, rng_for(("fallback", s), "eq")) for s in range(32)]
    assert sum(len(set(m.tolist())) == 1 for m in maps) <= 2


def test_sampler_matches_reference_on_random_l1_spaces():
    rng = np.random.default_rng(5)
    roster = screens()
    for i in range(40):
        space = random_l1_space(rng, int(rng.integers(1, 14)))
        _, screen = roster[i % len(roster)]
        assert_same_map(space, screen, ("l1", i))
        screen_l1 = random_l1_space(rng, int(rng.integers(1, 7)))
        assert_same_map(space, screen_l1, ("l1-screen", i))


def test_sampler_keeps_the_orientation_of_asymmetric_distances():
    """The search compares screen.dist[s, v] with space.dist[x, prior] and
    never assumes symmetry; unvalidated one-sided matrices pin that (the
    maps are not validated: only one orientation of each pair is checked)."""
    rng = np.random.default_rng(9)

    def one_sided(n):
        dist = rng.integers(0, 4, size=(n, n)) / 8.0
        np.fill_diagonal(dist, 0.0)
        return mc.FiniteMMSpace(tuple(f"q{i}" for i in range(n)), dist, np.full(n, 1.0 / n))

    for i in range(30):
        source = one_sided(int(rng.integers(2, 12)))
        screen = one_sided(int(rng.integers(2, 7)))
        assert_same_map(source, screen, ("one-sided", i), validate=False)


def test_sampler_matches_reference_without_backtracking():
    rng = np.random.default_rng(6)
    torus6 = dict(mc.default_screen_roster())["torus6"]
    for seed in range(8):
        assert_same_map(cube(5), torus6, ("mb0", seed), max_backtrack=0)
        space = random_l1_space(rng, 9)
        assert_same_map(space, torus6, ("mb0-l1", seed), max_backtrack=0)


def test_sampler_matches_reference_on_one_point_spaces():
    rng = np.random.default_rng(7)
    for seed in range(4):
        for name, screen in screens():
            assert_same_map(one_point(), screen, ("src1", name, seed))
        assert_same_map(cube(3), one_point(), ("scr1", seed))
        assert_same_map(random_l1_space(rng, 6), one_point(), ("scr1-l1", seed))
        assert_same_map(one_point(), one_point(), ("both1", seed))


# ---------------------------------------------------------------------------
# screen bracket


def assert_same_bracket(space, screen, kappa, samples, seed):
    got = mc.obsdiam_screen_estimate(space, screen, kappa, samples=samples, seed=seed)
    want = reference_screen_bracket(space, screen, kappa, samples, seed)
    assert (got.lower, got.upper, got.upper_source) == (want.lower, want.upper, want.upper_source)
    assert got.witness["values"] == want.witness["values"]
    assert got.witness["samples"] <= samples
    assert got.witness["fallbacks"] <= want.witness["fallbacks"]
    if got.witness["samples"] < samples:
        assert got.lower == got.upper  # only a closed bracket stops early
    if got.lower < got.upper:
        assert got.witness == want.witness
    return got


def test_screen_bracket_matches_the_full_sampling_loop():
    """Same lower, upper, source and witness map on random spaces into
    every screen; only a closed bracket may draw fewer samples."""
    rng = np.random.default_rng(18)
    roster = screens()
    stopped = opened = 0
    for i in range(30):
        space = random_l1_space(rng, int(rng.integers(2, 12)))
        targets = roster + [("l1", random_l1_space(rng, int(rng.integers(2, 7))))]
        for name, screen in targets:
            kappa = float(rng.choice([0.05, 0.1, 0.25]))
            br = assert_same_bracket(space, screen, kappa, 16, ("bracket", i, name))
            stopped += br.witness["samples"] < 16
            opened += br.lower < br.upper
    assert stopped and opened  # both branches are exercised


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_screen_bracket_matches_the_full_sampling_loop_on_cubes(n):
    for name, screen in screens():
        for seed in range(2):
            assert_same_bracket(cube(n), screen, 0.1, 32, ("cube-bracket", n, name, seed))


def test_only_maps_whose_support_beats_the_best_are_scored(monkeypatch):
    """partial_diameter_screen runs exactly on the drawn maps whose image
    support has diameter above the best score so far."""
    rng = np.random.default_rng(19)
    scored = []
    real = mc.partial_diameter_screen

    def recording(image, target_mass):
        val = real(image, target_mass)
        scored.append((image.weights, val))
        return val

    monkeypatch.setattr(mc.observable, "partial_diameter_screen", recording)
    cases = [(cube(4), screen) for _, screen in screens()]
    cases += [(random_l1_space(rng, 9), screen) for _, screen in screens()]
    skipped = 0
    for i, (space, screen) in enumerate(cases):
        scored.clear()
        br = mc.obsdiam_screen_estimate(space, screen, 0.1, samples=24, seed=("count", i))
        best, want = 0.0, []
        for s in range(br.witness["samples"]):
            stream = rng_for(("count", i), "screen-sample", s)
            values = _search_lipschitz_map(space, screen, stream, None)
            if values is None:
                continue
            image = mc.pushforward_screen(space, screen, values)
            support = np.flatnonzero(image.weights > 0.0)
            if screen.dist[np.ix_(support, support)].max() <= best:
                skipped += 1
                continue
            val = real(image, space.total_mass - 0.1)
            want.append((image.weights, val))
            if math.isfinite(val):
                best = max(best, val)
        assert len(scored) == len(want), i
        for (got_w, got_v), (want_w, want_v) in zip(scored, want):
            assert np.array_equal(got_w, want_w) and got_v == want_v
        assert best == br.lower
    assert skipped


def budget_case():
    """A 22-point discrete space into a screen of 22 points 1/2 apart and
    one point 1 from all of them (upper 1), and the maps to draw."""
    n = DEFAULT_SCREEN_BUDGET + 2
    space = mc.validate_space(
        tuple(f"p{i}" for i in range(n)), 1.0 - np.eye(n), np.full(n, 1.0 / n)
    )
    dist = np.full((n + 1, n + 1), 0.5)
    dist[n, :] = dist[:, n] = 1.0
    np.fill_diagonal(dist, 0.0)
    screen = mc.validate_space(tuple(f"s{i}" for i in range(n + 1)), dist, np.full(n + 1, 1.0))
    two_atoms = np.zeros(n, dtype=np.int64)
    two_atoms[0] = 1  # partial diameter 1/2 at mass 0.99
    far = np.zeros(n, dtype=np.int64)
    far[0] = n  # partial diameter 1 = upper: closes the bracket
    spread = np.arange(n, dtype=np.int64)  # support 22, diameter 1/2
    return space, screen, two_atoms, far, spread


def test_a_support_over_the_budget_before_closure_still_raises(monkeypatch):
    space, screen, two_atoms, far, spread = budget_case()
    maps = iter([two_atoms, spread])
    monkeypatch.setattr(mc.observable, "_search_lipschitz_map", lambda *args: next(maps))
    with pytest.raises(mc.BudgetExceededError):
        mc.obsdiam_screen_estimate(space, screen, 0.01, samples=2)


def test_a_support_over_the_budget_after_closure_is_never_drawn(monkeypatch):
    space, screen, two_atoms, far, spread = budget_case()
    maps = iter([two_atoms, far, spread])
    monkeypatch.setattr(mc.observable, "_search_lipschitz_map", lambda *args: next(maps))
    br = mc.obsdiam_screen_estimate(space, screen, 0.01, samples=3)
    assert (br.lower, br.upper, br.witness["samples"]) == (1.0, 1.0, 2)
    assert br.witness["values"] == far.tolist()


# ---------------------------------------------------------------------------
# line bracket


def line_brackets(monkeypatch, space, kappa, effort, seed):
    """obsdiam_real_bracket on the checked pool and on the clamping
    reference pool, with the candidates the clamp touched."""
    got = mc.obsdiam_real_bracket(space, kappa, effort=effort, seed=seed)
    clamped = []
    with monkeypatch.context() as m:
        m.setattr(
            mc.observable,
            "_candidate_pool",
            functools.partial(reference_candidate_pool, clamped=clamped),
        )
        want = mc.obsdiam_real_bracket(space, kappa, effort=effort, seed=seed)
    return got, want, clamped


def as_tuple(br):
    return (br.lower, br.upper, br.upper_source, br.witness)


def test_line_bracket_matches_the_clamping_pool_on_euclidean_spaces(monkeypatch):
    """Dropping a candidate the clamp would repair changes no bracket at
    the default effort, witness included, though the clamp touches
    candidates in most of these spaces and rescues some of them."""
    rng = np.random.default_rng(2027)
    touched = rescued = 0
    for seed in range(200):
        space = random_space(rng, int(rng.integers(3, 12)), dim=int(rng.integers(1, 4)))
        kappa = float(rng.uniform(0.02, 0.3))
        got, want, clamped = line_brackets(monkeypatch, space, kappa, 2000, seed)
        assert as_tuple(got) == as_tuple(want), seed
        touched += len(clamped)
        rescued += sum(clamped)
    assert touched > rescued > 100  # the reference's clamp really runs


def test_line_bracket_matches_the_clamping_pool_on_the_benchmark_spaces(monkeypatch):
    """The queries workload's 12 line brackets (L1-grid spaces scaled by
    1/32, drawn as it draws them): every candidate passes the exact check,
    so the clamp never touches one and the brackets are equal."""
    fixed = np.random.default_rng([workloads.BRACKET_SEED, 20])
    drawn = {
        (purpose, k): workloads.l1_grid_space(fixed, n)
        for purpose, sizes in workloads.BRACKET_SIZES.items()
        for k, n in enumerate(sizes)
    }
    for k in range(len(workloads.BRACKET_SIZES["line"])):
        dist, w = drawn["line", k]
        space = mc.validate_space(tuple(f"p{i}" for i in range(len(w))), dist, w)
        kappa = float(fixed.uniform(0.08, 0.2))
        got, want, clamped = line_brackets(monkeypatch, space, kappa, 2000, workloads.BRACKET_SEED)
        assert as_tuple(got) == as_tuple(want), k
        assert clamped == []


# ---------------------------------------------------------------------------
# separation heuristic


def assert_same_assignments(space, kappas, effort, tag, make_rng=None):
    """Both heuristics at every distinct threshold, each from a fresh rng
    (rng_for(tag, k) unless make_rng(k) says otherwise)."""
    make_rng = make_rng or (lambda k: rng_for(tag, k))
    for k, t in enumerate(space.distinct_distances()):
        got = _try_threshold(space, kappas, float(t), effort, make_rng(k))
        want = reference_try_threshold(space, kappas, float(t), effort, make_rng(k))
        if want is None:
            assert got is None, (tag, k)
        else:
            assert got is not None and np.array_equal(got, want), (tag, k)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_heuristic_matches_reference_on_cubes(n):
    space = cube(n)
    assert_same_assignments(space, [0.1, 0.1], 2000, ("cube", n))
    assert_same_assignments(space, [0.3, 0.2, 0.1], 600, ("cube3", n))


def test_heuristic_matches_reference_on_random_spaces():
    rng = np.random.default_rng(8)
    for i in range(12):
        n = int(rng.integers(2, 12))
        space = random_l1_space(rng, n) if i % 2 else random_space(rng, n)
        k = float(rng.uniform(0.05, 0.45))
        assert_same_assignments(space, [k, k], 800, ("random", i))
        assert_same_assignments(space, [k / 2, k, 0.0], 400, ("random3", i))


def test_heuristic_matches_reference_at_the_default_effort():
    assert_same_assignments(cube(5), [0.1, 0.1], 10_000, ("default", 5))


def test_heuristic_matches_reference_at_the_trend_seed_on_cube_7():
    """The trend's sep row for cube 7: its seed, its rng per threshold
    index, the default effort, at every threshold (not only those the
    binary search visits)."""
    seed = stable_seed(0, "sep", 7, 0.1)
    assert_same_assignments(
        cube(7), [0.1, 0.1], 10_000, "cube7", make_rng=lambda k: rng_for(seed, k, "sep-lb")
    )


@pytest.mark.parametrize(
    "effort", [-1, 0, 1, _MOVE_BLOCK - 1, _MOVE_BLOCK, _MOVE_BLOCK + 1, 2 * _MOVE_BLOCK + 1]
)
def test_heuristic_matches_reference_around_the_block_size(effort):
    rng = np.random.default_rng(12)
    for i in range(4):
        space = random_l1_space(rng, int(rng.integers(5, 12)))
        assert_same_assignments(space, [0.3, 0.3], effort, ("block", effort, i))
        assert_same_assignments(space, [0.2, 0.0, 0.2], effort, ("block3", effort, i))
    assert_same_assignments(cube(4), [0.1, 0.1], effort, ("block-cube", effort))


# (seed tag, first effort at which the heuristic succeeds) on cube 4 at
# kappas [0.1, 0.1] and its third distinct distance: the deciding move is
# the last or the first of a block of _MOVE_BLOCK = 1024 moves, or next to it
BLOCK_EDGE_CASES = [(468, 1023), (2685, 1024), (884, 1025), (2415, 2048), (2709, 2049), (724, 2050)]


@pytest.mark.parametrize("seed, first", BLOCK_EDGE_CASES)
def test_heuristic_makes_exactly_effort_moves_at_block_edges(seed, first):
    assert min(first % _MOVE_BLOCK, -first % _MOVE_BLOCK) <= 2, "cases found for another block size"
    space = cube(4)
    t = float(space.distinct_distances()[2])
    for effort, succeeds in ((first - 1, False), (first, True)):
        want = reference_try_threshold(space, [0.1, 0.1], t, effort, rng_for("boundary", seed))
        got = _try_threshold(space, [0.1, 0.1], t, effort, rng_for("boundary", seed))
        assert (want is not None) == succeeds
        assert (got is not None) == succeeds and (not succeeds or np.array_equal(got, want))


def test_heuristic_matches_reference_with_an_empty_kappa():
    """A group with kappa 0 is not seeded, so it starts empty and the
    deficit is infinite until a move fills it."""
    rng = np.random.default_rng(13)
    for n in (3, 4, 5):
        for kappas in ([0.1, 0.1, 0.0], [0.0, 0.2, 0.1], [0.3, 0.0, 0.0]):
            assert_same_assignments(cube(n), kappas, 800, ("zero", n, kappas))
    for i in range(10):
        space = random_l1_space(rng, int(rng.integers(3, 12)))
        k = float(rng.uniform(0.05, 0.4))
        assert_same_assignments(space, [k, 0.0, k / 2], 600, ("zero-l1", i))


def test_heuristic_matches_reference_on_weights_of_sixteen_magnitudes():
    """Weights from 1e-16 to 1 make the order of addition visible, and
    kappas equal to exact group masses put the deficit comparisons on
    their edges."""
    rng = np.random.default_rng(14)
    for i in range(30):
        n = int(rng.integers(2, 12))
        base = random_l1_space(rng, n)
        weights = 10.0 ** rng.uniform(-16, 0, size=n)
        space = mc.FiniteMMSpace(base.points, base.dist, weights)
        n_groups = 2 + i % 2
        for j, kappas in enumerate(kappa_choices(rng, weights, n_groups)):
            assert_same_assignments(space, kappas, 500, ("magnitudes", i, j))


@pytest.mark.parametrize(
    "n, n_labels", [(1, 2), (2, 3), (5, 2), (128, 3), (1000, 4), ((1 << 16) + 3, 3), ((1 << 20) + 7, 6)]
)
def test_block_draws_equal_interleaved_scalar_draws(n, n_labels):
    """_try_threshold draws its (point, label) moves in blocks from one
    rng.integers call over tiled bounds.  That gives the moves of two
    scalar rng.integers calls per move only because numpy consumes the
    bit generator identically for both; a numpy release that changes
    this breaks the heuristic's seeded results, and this test names it."""
    pairs = _MOVE_BLOCK + 5
    rng = rng_for("canary", n, n_labels)
    scalar = []
    for _ in range(pairs):
        scalar += [int(rng.integers(n)), int(rng.integers(n_labels))]
    after = rng.integers(1 << 30)
    rng = rng_for("canary", n, n_labels)
    bounds = np.tile([n, n_labels], _MOVE_BLOCK)
    block = rng.integers(bounds).tolist()
    block += rng.integers(bounds[: 2 * (pairs - _MOVE_BLOCK)]).tolist()
    assert block == scalar
    assert rng.integers(1 << 30) == after


def test_group_masses_add_in_ascending_index_order():
    """Weights spanning sixteen orders of magnitude make the order of
    addition visible; _group_masses must add as _sequential_mass did."""
    rng = np.random.default_rng(10)
    order_visible = 0
    for _ in range(50):
        n = int(rng.integers(1, 40))
        weights = 10.0 ** rng.uniform(-16, 0, size=n)
        assign = rng.integers(0, 3, size=n)
        got = _group_masses(weights, assign, 3)
        for g in range(3):
            members = np.flatnonzero(assign == g)
            assert got[g] == _sequential_mass(weights, members)
            order_visible += sum(float(weights[i]) for i in members[::-1]) != got[g]
    assert order_visible > 0
    # coincident atoms of a real measure merge through the same routine
    positions = rng.integers(0, 5, size=40).astype(float)
    weights = 10.0 ** rng.uniform(-16, 0, size=40)
    merged = mc.RealMeasure.from_atoms(positions, weights)
    for g, x in enumerate(merged.positions):
        assert merged.weights[g] == _sequential_mass(weights, np.flatnonzero(positions == x))


# ---------------------------------------------------------------------------
# exact separation


def assert_same_feasibility(dist, weights, kappas, tag):
    """Both searches at every distinct threshold (and at 0, where no pair
    conflicts), as arrays equal in value and dtype or both None."""
    tables = _mass_tables(weights)
    n = len(weights)
    off = dist[~np.eye(n, dtype=bool)]
    for t in [0.0] + np.unique(off).tolist():
        got = _feasible_assignment(dist, weights, kappas, t, tables)
        want = reference_feasible_assignment(dist, weights, kappas, t)
        if want is None:
            assert got is None, (tag, t)
        else:
            assert got is not None and got.dtype == want.dtype, (tag, t)
            assert np.array_equal(got, want), (tag, t, got, want)


def kappa_choices(rng, weights, n_groups):
    """Thresholds that sit on the searches' edges: 0, above the total
    mass, and exact group masses of a random assignment (the sums the
    leaf compares, so the prune must not cut them off by rounding)."""
    total = float(np.sum(weights))
    labels = rng.integers(0, n_groups + 1, size=len(weights))
    exact = _group_masses(weights, labels, n_groups + 1)[:n_groups].tolist()
    yield exact
    yield [float(k) for k in rng.uniform(0.0, 0.6 * total, size=n_groups)]
    yield [0.0] * n_groups
    yield [0.0] + exact[1:]
    yield exact[:-1] + [total * 1.01 + 0.1]


def test_exact_search_matches_reference_on_random_l1_spaces():
    rng = np.random.default_rng(11)
    for i in range(120):
        n = int(rng.integers(1, 12 if i % 4 else 9))
        space = random_l1_space(rng, n)
        weights = space.weights.copy()
        if i % 3 == 0:
            weights[rng.random(n) < 0.3] = 0.0
        if i % 5 == 0:
            weights = rng.uniform(0.0, 1.0, size=n)  # unnormalized, arbitrary sums
        n_groups = 2 + i % 2
        for j, kappas in enumerate(kappa_choices(rng, weights, n_groups)):
            assert_same_feasibility(space.dist, weights, kappas, (i, j))


def test_exact_search_matches_reference_on_cubes():
    for n in (2, 3):
        space = cube(n)
        for kappas in ([0.1, 0.1], [0.25, 0.25], [0.2, 0.1, 0.1], [0.5, 0.5]):
            assert_same_feasibility(space.dist, space.weights, kappas, (n, kappas))


@st.composite
def l1_space_and_kappas(draw):
    """Up to ten distinct integer points under the L1 metric (scaled by
    1/8, so distances are exact and often tied), weights that may be zero
    or arbitrary, and two thresholds, sometimes an exact subset mass."""
    n = draw(st.integers(1, 10))
    dim = draw(st.integers(1, 3))
    coord = st.tuples(*[st.integers(0, 3)] * dim)
    pts = np.array(draw(st.lists(coord, min_size=n, max_size=n, unique=True)))
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2) / 8.0
    weight = st.one_of(st.sampled_from([0.0, 0.125, 0.25]), st.floats(0.01, 1.0))
    weights = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    if not weights.sum() > 0:
        weights[0] = 1.0
    masses = oracles.subset_masses(weights)
    kappa = st.one_of(
        st.floats(0.0, 1.1 * float(weights.sum())),
        st.integers(1, (1 << n) - 1).map(lambda mask: float(masses[mask])),
    )
    space = mc.validate_space(tuple(f"p{i}" for i in range(n)), dist, weights)
    return space, draw(kappa), draw(kappa)


@settings(max_examples=150)
@given(l1_space_and_kappas())
def test_sep_exact_equals_the_subset_oracle(case):
    space, ka, kb = case
    result = mc.sep_exact(space, [ka, kb])
    assert result.value == oracles.sep_two_groups(space.dist, space.weights, ka, kb)
    assert result.feasible == (result.value > 0)


# ---------------------------------------------------------------------------
# the front door


def test_sep_inside_the_budget_is_sep_exact():
    """Value, witnesses and assignment, with or without an effort."""
    rng = np.random.default_rng(15)
    cases = [(cube(n), [0.1, 0.1]) for n in (2, 3)]
    for _ in range(10):
        space = random_l1_space(rng, int(rng.integers(2, 11)))  # 4^10 <= the budget
        cases += [(space, ks) for ks in kappa_choices(rng, space.weights, int(rng.integers(2, 4)))]
    for space, kappas in cases:
        want = mc.sep_exact(space, kappas)
        assert mc.sep(space, kappas) == want
        assert mc.sep(space, kappas, effort=300, seed=4) == want


@pytest.mark.parametrize("n", [4, 5])
def test_sep_past_the_budget_is_the_heuristic_or_the_refusal(n):
    """Both carry sep_exact's refusal; an exact result carries none."""
    space = cube(n)
    with pytest.raises(mc.BudgetExceededError) as refused:
        mc.sep_exact(space, [0.1, 0.1])
    reason = str(refused.value)
    assert reason == f"sep_exact needs 3^{2**n} assignments, over budget {mc.DEFAULT_ASSIGNMENT_BUDGET}"
    got = mc.sep(space, [0.1, 0.1], effort=2000, seed=9)
    assert got == replace(mc.sep_lower_bound(space, [0.1, 0.1], effort=2000, seed=9), refusal=reason)
    assert got.feasible and not got.exact
    assert mc.sep(space, [0.1, 0.1]) == mc.SepResult(0.0, False, False, None, None, reason)
    assert mc.sep(cube(3), [0.1, 0.1]).refusal is None


# ---------------------------------------------------------------------------
# end to end


def report_digest(report):
    return hashlib.sha256(mc.report_json(report.as_dict()).encode()).hexdigest()


def test_trend_report_digest_is_pinned():
    fam = [mc.FamilySpec("hamming_cube", n) for n in range(2, 7)]
    assert report_digest(mc.run_levy_experiment(fam, samples=32, seed=0)) == TREND_DIGEST


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_documented_trend_report_digest_is_pinned(workers):
    fam = [mc.FamilySpec("hamming_cube", n) for n in range(2, 9)]
    report = mc.run_levy_experiment(fam, seed=0, workers=workers)
    assert report_digest(report) == DOCUMENTED_DIGEST


MEMBERS = [
    mc.FamilySpec("hamming_cube", 3),
    mc.FamilySpec("hamming_cube", 3),
    mc.FamilySpec("discrete_torus", 12),
]


def test_repeated_kappas_keep_the_grid_order_of_the_suprema():
    report = mc.run_levy_experiment(
        MEMBERS, kappa_grid=[0.2, 0.1, 0.1], seed=3, samples=8, effort=300
    )
    assert [(s["member"], s["kappa"]) for s in report.suprema] == [
        (m, k) for m in range(3) for k in (0.2, 0.1, 0.1)
    ]
    assert report_digest(report) == REPEATED_KAPPA_DIGEST


def test_a_rejected_screen_keeps_its_error_row_and_no_cells():
    zero = mc.FiniteMMSpace(("a", "b"), np.array([[0.0, 0.5], [0.5, 0.0]]), np.array([1.0, 0.0]))
    roster = list(mc.default_screen_roster()) + [("zero", zero)]
    report = mc.run_levy_experiment(MEMBERS, screens=roster, seed=1, samples=8, effort=300)
    assert "error" in report.screens[-1]
    assert all(c["screen"] != "zero" for c in report.cells)
    assert report_digest(report) == ERROR_SCREEN_DIGEST
