"""Observable diameters: what 1-Lipschitz maps do to the measure.

All observable-diameter outputs are brackets (lower, upper) with stored
witnesses, never point estimates: lower bounds come from explicit maps.
Upper bounds into the line come from separation.  Upper bounds into a
finite screen come from Gromov's quotient argument: a 1-Lipschitz map is
constant on each component of {d < delta}, delta the screen's smallest
positive distance, and stretches no distance beyond diam X.

A pushforward to a screen is a FiniteMMSpace on the screen's points, read
like any other space.  Neither separation nor doubling imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._numeric import rng_for
from .separation import (
    BudgetExceededError,
    DEFAULT_ASSIGNMENT_BUDGET,
    RealMeasure,
    SepResult,
    _bisect_last,
    _check_effort,
    _conflict_components,
    real_measure_as_space,
    sep,
    sep_exact,
)
from .space import FiniteMMSpace, _group_masses

__all__ = [
    "Bracket",
    "LipschitzMap",
    "LipschitzValidationError",
    "lipschitz_candidates",
    "obsdiam_real_bracket",
    "obsdiam_screen_estimate",
    "partial_diameter_real",
    "partial_diameter_screen",
    "pushforward_real",
    "pushforward_screen",
    "sample_lipschitz_map",
    "sep_pushforward_check",
    "validate_lipschitz",
]

DEFAULT_SCREEN_BUDGET = 20  # support size for exact subset search
_PUSHFORWARD_TOLERANCE = 1e-12  # absorbs float accumulation in group masses


class LipschitzValidationError(ValueError):
    def __init__(self, i: int, j: int, spread: float, allowed: float):
        self.pair = (i, j)
        self.spread = spread
        self.allowed = allowed
        super().__init__(
            f"not 1-Lipschitz: image spread {spread!r} over pair ({i}, {j}) "
            f"with source distance {allowed!r}"
        )


@dataclass(frozen=True)
class LipschitzMap:
    """A validated 1-Lipschitz map; target None means the real line."""

    source: FiniteMMSpace
    target: FiniteMMSpace | None
    values: np.ndarray = field(repr=False)
    constant: float = 0.0

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def is_real(self) -> bool:
        return self.target is None


def validate_lipschitz(
    source: FiniteMMSpace,
    target: FiniteMMSpace | None,
    values: Sequence[float] | Sequence[int] | np.ndarray,
) -> LipschitzMap:
    """Certify 1-Lipschitzness by checking every pair exactly; raises
    LipschitzValidationError naming the worst offending pair."""
    if target is None:
        vals = np.asarray(values, dtype=np.float64)
        if vals.shape != (source.n,):
            raise ValueError(f"need one real value per point, got shape {vals.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("map values must be finite")
        spread = np.abs(vals[:, None] - vals[None, :])
    else:
        idx = np.asarray(values, dtype=np.int64)
        if idx.shape != (source.n,):
            raise ValueError(f"need one target index per point, got shape {idx.shape}")
        if idx.min(initial=0) < 0 or idx.max(initial=0) >= target.n:
            raise ValueError("target indices out of range")
        vals = idx
        spread = target.dist[np.ix_(idx, idx)]
    excess = spread - source.dist
    np.fill_diagonal(excess, -np.inf)
    worst = np.unravel_index(np.argmax(excess), excess.shape)
    if source.n > 1 and excess[worst] > 0.0:
        i, j = int(worst[0]), int(worst[1])
        raise LipschitzValidationError(i, j, float(spread[i, j]), float(source.dist[i, j]))
    constant = 0.0
    if source.n > 1:
        off = source.dist + np.eye(source.n)  # diagonal never selected
        constant = float((spread / off).max())
    return LipschitzMap(source, target, vals.copy(), constant)


def pushforward_real(space: FiniteMMSpace, values: np.ndarray | Sequence[float]) -> RealMeasure:
    """Image measure of the weights under point values; fibers merge."""
    return RealMeasure.from_atoms(np.asarray(values, dtype=np.float64), space.weights)


def pushforward_screen(space: FiniteMMSpace, screen: FiniteMMSpace, indices) -> FiniteMMSpace:
    """The image space on the screen's points: each weight is its fiber's
    weights added in point order (_group_masses), so the image's total
    mass can differ from the source's in the last place."""
    idx = np.asarray(indices, dtype=np.int64)
    weights = _group_masses(space.weights, idx, screen.n)
    return FiniteMMSpace(screen.points, screen.dist, weights)


def sep_pushforward_check(
    space: FiniteMMSpace,
    lipschitz_map: LipschitzMap,
    kappas: Sequence[float],
    budget: int = DEFAULT_ASSIGNMENT_BUDGET,
) -> dict:
    """Compare Sep of a pushforward image against Sep of the source.

    Returns {"holds", "source", "target"}; holds is Sep(f_* mu) <= Sep(mu)
    + _PUSHFORWARD_TOLERANCE.
    """
    if lipschitz_map.is_real:
        image = real_measure_as_space(pushforward_real(space, lipschitz_map.values))
    else:
        image = pushforward_screen(space, lipschitz_map.target, lipschitz_map.values)
    down = sep_exact(image, kappas, budget)
    up = sep_exact(space, kappas, budget)
    return {"holds": down.value <= up.value + _PUSHFORWARD_TOLERANCE, "source": up, "target": down}


# ---------------------------------------------------------------------------
# partial diameters


def partial_diameter_real(nu: RealMeasure, target_mass: float) -> float:
    """Smallest width of an interval holding mass >= target_mass.

    Intervals suffice on the line, so a two-pointer sweep over the sorted
    atoms is exact.  Returns 0.0 when target_mass <= 0 and +inf when it
    exceeds the total mass.  All window masses are prefix-sum differences
    of the measure's one sequential prefix array.
    """
    if math.isnan(target_mass):
        raise ValueError("target_mass must be a number, got nan")
    prefix = nu.prefix
    total = nu.total_mass
    if target_mass > total:
        return math.inf
    if target_mass <= 0.0:
        return 0.0
    pos = nu.positions
    best = math.inf
    i = 0
    for j in range(len(pos)):
        if prefix[j + 1] - prefix[i] < target_mass:
            continue
        while prefix[j + 1] - prefix[i + 1] >= target_mass:
            i += 1
        best = min(best, pos[j] - pos[i])
    return float(best)


def _clique_reaches(
    dist: np.ndarray, weights: np.ndarray, diameter_cap: float, target: float
) -> bool:
    """Is there a subset of pairwise distance <= diameter_cap with mass
    >= target?  Branch-and-bound over vertices in descending weight."""
    order = np.argsort(-weights, kind="stable")
    dist = dist[np.ix_(order, order)]
    weights = weights[order]
    n = len(weights)
    adj = dist <= diameter_cap
    suffix = np.concatenate((np.cumsum(weights[::-1])[::-1], [0.0]))

    def rec(current: float, candidates: np.ndarray) -> bool:
        if current >= target:
            return True
        if not len(candidates) or current + suffix[candidates[0]] < target:
            # suffix over-estimates the candidate mass left; safe prune
            return False
        rest = candidates
        while len(rest):
            v = rest[0]
            rest = rest[1:]
            if current + weights[v] + float(weights[rest].sum()) < target:
                return False
            if rec(current + float(weights[v]), rest[adj[v, rest]]):
                return True
        return False

    return rec(0.0, np.arange(n))


def partial_diameter_screen(
    image: FiniteMMSpace,
    target_mass: float,
    support_budget: int = DEFAULT_SCREEN_BUDGET,
) -> float:
    """Exact minimal diameter of a subset of an image with mass >= target_mass.

    Candidate diameters are 0 and the support's pairwise distances.  The
    full support always qualifies when target_mass <= total (its true mass
    is the total by definition), so the caps below its diameter are
    bisected for the last one an exact subset search rejects; the answer
    is the next cap up.
    """
    if math.isnan(target_mass):
        raise ValueError("target_mass must be a number, got nan")
    total = image.total_mass
    if target_mass > total:
        return math.inf
    if target_mass <= 0.0:
        return 0.0
    support = np.flatnonzero(image.weights > 0.0)
    if len(support) > support_budget:
        raise BudgetExceededError(
            f"screen support has {len(support)} points, over the exact-search "
            f"budget {support_budget}"
        )
    dist = image.dist[np.ix_(support, support)]
    weights = image.weights[support]
    iu = np.triu_indices(len(support), k=1)
    caps = np.concatenate(([0.0], np.unique(dist[iu])))

    def rejected(i: int) -> bool | None:
        return None if _clique_reaches(dist, weights, float(caps[i]), target_mass) else True

    last_rejected, _ = _bisect_last(len(caps) - 1, rejected)
    return float(caps[last_rejected + 1])


# ---------------------------------------------------------------------------
# brackets


@dataclass(frozen=True)
class Bracket:
    """Certified two-sided estimate: lower is achieved by the stored
    witness, upper states its own provenance."""

    lower: float
    upper: float
    witness: dict
    upper_source: str


def _lipschitz_repair(values: np.ndarray, dist: np.ndarray, passes: int = 6) -> np.ndarray | None:
    """Clamp values onto the Lipschitz polytope; candidates produced here
    are already feasible up to an ulp, so this converges immediately.
    Returns None if it fails to (defensive)."""
    f = values.copy()
    n = len(f)
    for _ in range(passes):
        spread = np.abs(f[:, None] - f[None, :])
        if not (spread > dist).any():
            return f
        upper = (f[None, :] + dist).min(axis=1)
        f = np.minimum(f, upper)
        lower = (f[None, :] - dist).max(axis=1)
        f = np.maximum(f, lower)
    spread = np.abs(f[:, None] - f[None, :])
    return f if not (spread > dist).any() else None


def _distance_function(space: FiniteMMSpace, subset: Sequence[int]) -> np.ndarray:
    idx = list(subset)
    return space.dist[:, idx].min(axis=1)


def lipschitz_candidates(
    space: FiniteMMSpace,
    kappa: float,
    effort: int = 2000,
    seed: int = 0,
    budget: int = DEFAULT_ASSIGNMENT_BUDGET,
) -> list[np.ndarray]:
    """Candidate pool of exactly 1-Lipschitz real functions.

    Distance functions to singletons, to separation witnesses at kappa/2
    and kappa/4 (none when the separation budget refuses), and to
    random subsets; the best few are refined by coordinate ascent that
    moves one value to an end of its feasible interval.  Deterministic
    for a fixed seed.
    """
    _check_effort(effort)
    return _candidate_pool(space, kappa, effort, seed, budget, sep(space, [kappa / 2] * 2, budget))


def _candidate_pool(
    space: FiniteMMSpace,
    kappa: float,
    effort: int,
    seed: int,
    budget: int,
    half: SepResult,
) -> list[np.ndarray]:
    """lipschitz_candidates, given its Sep(kappa/2, kappa/2)."""
    n = space.n
    m = space.total_mass
    target = m - kappa
    rng = rng_for(seed, "obsdiam-real", n)
    pool: list[np.ndarray] = [np.zeros(n)]
    pool += [space.dist[:, i].copy() for i in range(n)]
    for res in (half, sep(space, [kappa / 4] * 2, budget)):
        for w in res.witnesses or ():
            pool.append(_distance_function(space, list(w)))
    n_random = min(max(effort // 50, 8), 200)
    for _ in range(n_random):
        size = int(rng.integers(1, n + 1))
        subset = rng.choice(n, size=size, replace=False)
        pool.append(_distance_function(space, subset))

    def objective(f: np.ndarray) -> float:
        val = partial_diameter_real(pushforward_real(space, f), target)
        return val if math.isfinite(val) else -math.inf

    # coordinate-ascent refinement of the strongest starts
    scored = sorted(pool, key=objective, reverse=True)
    refined: list[np.ndarray] = []
    evals = 0
    for start in scored[:4]:
        f = start.copy()
        best = objective(f)
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
                    g = _lipschitz_repair(g, space.dist)
                    if g is None:
                        continue
                    evals += 1
                    val = objective(g)
                    if val > best:
                        best, f, improved = val, g, True
                if evals >= effort:
                    break
        refined.append(f)
    out = []
    for f in pool + refined:
        g = _lipschitz_repair(f, space.dist)
        if g is not None:
            out.append(g)
    return out


def obsdiam_real_bracket(
    space: FiniteMMSpace,
    kappa: float,
    effort: int = 2000,
    seed: int = 0,
    budget: int = DEFAULT_ASSIGNMENT_BUDGET,
) -> Bracket:
    """Bracket the observable diameter into the line at deficit kappa.

    lower: best partial diameter of a pushforward over the candidate
    pool (achieved, witness stored).  upper: separation at kappa/2 in
    each slot, which dominates every 1-Lipschitz image's partial
    diameter; +inf with a note when the separation budget refuses.
    """
    m = space.total_mass
    if not 0.0 < kappa < m:
        raise ValueError(f"kappa must lie in (0, total mass {m})")
    _check_effort(effort)
    target = m - kappa
    best_val = 0.0
    best_f: np.ndarray | None = None
    half = sep(space, [kappa / 2] * 2, budget)
    for f in _candidate_pool(space, kappa, effort, seed, budget, half):
        val = partial_diameter_real(pushforward_real(space, f), target)
        if math.isfinite(val) and val > best_val:
            best_val, best_f = val, f
    witness = {
        "kind": "function_values",
        "values": None if best_f is None else [float(v) for v in best_f],
    }
    if half.exact:
        upper = half.value
        source = "separation at kappa/2 per slot"
    else:
        upper = math.inf
        source = "separation budget exceeded"
    if best_val > upper:
        raise RuntimeError(
            f"inverted bracket: achieved lower {best_val!r} above certified upper {upper!r}"
        )
    return Bracket(float(best_val), float(upper), witness, source)


# ---------------------------------------------------------------------------
# screen estimates


def sample_lipschitz_map(
    space: FiniteMMSpace,
    screen: FiniteMMSpace,
    rng: np.random.Generator,
    max_backtrack: int | None = None,
) -> np.ndarray:
    """One random 1-Lipschitz map source -> screen.

    Points are visited in a random order; each picks uniformly among the
    screen points compatible with every assignment so far.  A value that
    leaves some later point with no compatible screen point is rejected
    on the spot and the next candidate is tried; that is not a backtrack.
    A backtrack happens only when a position runs out of candidates, and
    at most max_backtrack of them (default 50 * n) are spent; when the
    budget runs out the constant map at a random screen point is
    returned, which is always valid.

    Compatibility is kept by forward checking on a stack of domains:
    domains[pos][k, s] says screen point s is compatible with every
    assignment before pos for the point order[pos + k], that is
    screen.dist[s, values[y]] <= space.dist[order[pos + k], y] for every
    earlier y.  Trying v at pos narrows the remaining rows by one
    comparison against column v of the screen; v is kept when every
    narrowed row still has a True, and backtracking truncates the stack.
    The stack holds at most n(n+1)/2 * screen.n bytes beside one n x n
    float copy of the distances (about 0.4 MB for the 128-point cube into
    a 36-point screen).  The draws are rng.permutation(n) for the order,
    rng.permutation of the ascending candidates whenever a position is
    entered, and rng.integers(screen.n) for the constant fallback.
    """
    values = _search_lipschitz_map(space, screen, rng, max_backtrack)
    if values is None:
        return np.full(space.n, int(rng.integers(screen.n)), dtype=np.int64)
    return values


def _search_lipschitz_map(
    space: FiniteMMSpace,
    screen: FiniteMMSpace,
    rng: np.random.Generator,
    max_backtrack: int | None,
) -> np.ndarray | None:
    """The search behind sample_lipschitz_map; None where it falls back."""
    n = space.n
    if max_backtrack is None:
        max_backtrack = 50 * n
    order = rng.permutation(n)
    dist = space.dist[np.ix_(order, order)]  # in visiting order
    screen_ids = np.arange(screen.n)
    values = np.full(n, -1, dtype=np.int64)
    domains = [np.ones((n, screen.n), dtype=bool)]
    options: list[np.ndarray] = []
    backtracks = 0
    pos = 0
    while pos < n:
        if len(options) == pos:
            options.append(rng.permutation(screen_ids[domains[pos][0]]))
        while len(options[pos]):
            v = int(options[pos][0])
            narrowed = domains[pos][1:] & (screen.dist[:, v] <= dist[pos + 1:, pos, None])
            if narrowed.any(axis=1).all():
                break
            options[pos] = options[pos][1:]
        if len(options[pos]) == 0:
            options.pop()
            if pos == 0 or backtracks >= max_backtrack:
                return None
            backtracks += 1
            pos -= 1
            del domains[pos + 1:]
            values[order[pos]] = -1
            options[pos] = options[pos][1:]
            continue
        values[order[pos]] = v
        domains.append(narrowed)
        pos += 1
    return values


def obsdiam_screen_estimate(
    space: FiniteMMSpace,
    screen: FiniteMMSpace,
    kappa: float,
    samples: int = 64,
    seed: int = 0,
) -> Bracket:
    """Bracket the observable diameter into a finite screen.

    Let delta be the screen's smallest positive distance.  Every
    1-Lipschitz map is constant on each connected component of the graph
    {d(x, y) < delta}, and every image distance is a screen distance of
    at most diam X (Gromov's quotient argument).  If one component holds
    mass >= m - kappa, every map has partial diameter 0 and the bracket is
    [0, 0] without sampling.  Otherwise lower is the best partial
    diameter over sampled 1-Lipschitz maps (the constant map included, so
    0.0 is always achieved) and upper is the largest screen distance
    <= diam X, valid for every 1-Lipschitz map, sampled or not.  The
    witness records the samples drawn and how many of them ran out of
    backtracks and fell back to a constant map (both 0 when no sampling
    was needed).
    """
    m = space.total_mass
    if not 0.0 < kappa < m:
        raise ValueError(f"kappa must lie in (0, total mass {m})")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    target = m - kappa
    dists = screen.distinct_distances()
    delta = float(dists[0]) if len(dists) else math.inf
    # index-order sums, as pushforward_screen sums an atom
    comp_mass = _group_masses(space.weights, _conflict_components(space.dist, delta), 0)
    if comp_mass.max() >= target:
        witness = {"kind": "screen_map", "values": [0] * space.n, "samples": 0, "fallbacks": 0}
        return Bracket(0.0, 0.0, witness, "one component of {d < min screen distance}")
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
            # the constant fallback has partial diameter 0: no better than best_val
            fallbacks += 1
            continue
        image = pushforward_screen(space, screen, values)
        val = partial_diameter_screen(image, target)
        if math.isfinite(val) and val > best_val:
            best_val, best_map = val, values
    if best_val > upper:
        raise RuntimeError(
            f"inverted bracket: sampled lower {best_val!r} above certified upper {upper!r}"
        )
    witness = {
        "kind": "screen_map",
        "values": [int(v) for v in best_map],
        "samples": samples,
        "fallbacks": fallbacks,
    }
    return Bracket(float(best_val), upper, witness, source)
