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

from ._numeric import check_counts, rng_for
from .separation import (
    BudgetExceededError,
    DEFAULT_ASSIGNMENT_BUDGET,
    RealMeasure,
    SepResult,
    _bisect_last,
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
    vals = np.asarray(values, dtype=np.float64 if target is None else np.int64)
    if vals.shape != (source.n,):
        what = "real value" if target is None else "target index"
        raise ValueError(f"need one {what} per point, got shape {vals.shape}")
    if target is None:
        if not np.isfinite(vals).all():
            raise ValueError("map values must be finite")
        spread = np.abs(vals[:, None] - vals[None, :])
    else:
        if vals.min(initial=0) < 0 or vals.max(initial=0) >= target.n:
            raise ValueError("target indices out of range")
        spread = target.dist[np.ix_(vals, vals)]
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
    mass can differ from the source's in the last place.  The image keeps
    the screen's metric and its grades, so every image of one screen
    shares the screen's one table and hop matrix."""
    idx = np.asarray(indices, dtype=np.int64)
    weights = _group_masses(space.weights, idx, screen.n)
    return FiniteMMSpace(screen.points, screen.dist, weights, _grades=screen.grades)


def sep_pushforward_check(
    space: FiniteMMSpace,
    lipschitz_map: LipschitzMap,
    kappas: Sequence[float],
    budget: int = DEFAULT_ASSIGNMENT_BUDGET,
) -> dict:
    """Compare Sep of a pushforward image against Sep of the source.

    Returns {"holds", "source", "target"}; holds is Sep(f_* mu) <= Sep(mu)
    compared exactly.  Each Sep is an entry of its space's distance
    matrix, which a validated map cannot stretch; a mass rounding would
    move Sep by a whole distance step, past any tolerance.
    """
    if lipschitz_map.is_real:
        image = real_measure_as_space(pushforward_real(space, lipschitz_map.values))
    else:
        image = pushforward_screen(space, lipschitz_map.target, lipschitz_map.values)
    down = sep_exact(image, kappas, budget)
    up = sep_exact(space, kappas, budget)
    return {"holds": down.value <= up.value, "source": up, "target": down}


# ---------------------------------------------------------------------------
# partial diameters


def _trivial_partial_diameter(target_mass: float, total: float) -> float | None:
    """+inf above the total, 0.0 at or below 0, else None; NaN is refused."""
    if math.isnan(target_mass):
        raise ValueError("target_mass must be a number, got nan")
    if target_mass > total:
        return math.inf
    return 0.0 if target_mass <= 0.0 else None


def partial_diameter_real(nu: RealMeasure, target_mass: float) -> float:
    """Smallest width of an interval holding mass >= target_mass.

    Intervals suffice on the line, so a two-pointer sweep over the sorted
    atoms is exact.  Returns 0.0 when target_mass <= 0 and +inf when it
    exceeds the total mass.  All window masses are prefix-sum differences
    of the measure's one sequential prefix array.
    """
    if (trivial := _trivial_partial_diameter(target_mass, nu.total_mass)) is not None:
        return trivial
    prefix = nu.prefix
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
    >= target?  Candidates are taken in index order (descending weight,
    by the caller), so a subset's mass is summed in that order.  A branch
    is cut when its mass plus every candidate left, summed in that order,
    is below target: weights are nonnegative and rounding is monotone, so
    no subset of them sums to more, and the cut is exact.

    Frames (mass so far, candidates, next k) go on an explicit stack, so no
    subset is too large for the recursion limit; a frame pushes its k + 1
    below the child that takes candidate k, the recursion's visiting order.
    A frame with no candidate left reaches only its own mass, so the cut
    ends it."""
    adj = (dist <= diameter_cap).tolist()
    mass = weights.tolist()
    stack = [(0.0, list(range(len(mass))), 0)]
    while stack:
        current, candidates, k = stack.pop()
        if current >= target:
            return True
        reach = current
        for u in candidates[k:]:
            reach += mass[u]
        if reach < target:
            continue
        v = candidates[k]
        stack.append((current, candidates, k + 1))
        stack.append((current + mass[v], [u for u in candidates[k + 1 :] if adj[v][u]], 0))
    return False


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
    is the next cap up.  The support is sorted once, by descending weight
    (stable); every probe sums and prunes in that order, so it rejects a
    cap only when no subset's sum reaches target_mass.
    """
    if (trivial := _trivial_partial_diameter(target_mass, image.total_mass)) is not None:
        return trivial
    support = np.flatnonzero(image.weights > 0.0)
    if len(support) > support_budget:
        raise BudgetExceededError(
            f"screen support has {len(support)} points, over the exact-search "
            f"budget {support_budget}"
        )
    order = support[np.argsort(-image.weights[support], kind="stable")]
    dist, weights = image.dist[np.ix_(order, order)], image.weights[order]
    caps = np.concatenate(([0.0], np.unique(dist[np.triu_indices(len(order), k=1)])))

    def rejected(i: int) -> bool | None:
        return None if _clique_reaches(dist, weights, float(caps[i]), target_mass) else True

    last_rejected, _ = _bisect_last(len(caps) - 1, rejected)
    return float(caps[last_rejected + 1])


# ---------------------------------------------------------------------------
# brackets


@dataclass(frozen=True)
class Bracket:
    """Certified two-sided estimate: lower is achieved by the stored
    witness, upper states its own provenance.  A bracket whose lower
    is not <= its upper is a bug, refused when it is built."""

    lower: float
    upper: float
    witness: dict
    upper_source: str

    def __post_init__(self):
        if not self.lower <= self.upper:  # NaN fails too
            raise RuntimeError(f"inverted bracket: lower {self.lower!r} above upper {self.upper!r}")


def _check_kappa(space: FiniteMMSpace, kappa: float) -> float:
    """The total mass m of the space, once kappa is checked to lie in (0, m)."""
    m = space.total_mass
    if not 0.0 < kappa < m:
        raise ValueError(f"kappa must lie in (0, total mass {m})")
    return m


def _is_lipschitz(f: np.ndarray, dist: np.ndarray, rows=slice(None)) -> bool:
    """No pair (x, y) with x in rows has |f(x) - f(y)| > d(x, y), compared
    exactly.  A move that changes f at x alone keeps a passing f passing
    when the pairs at x pass, so rows=x decides it in O(n)."""
    return not (np.abs(f[rows, None] - f) > dist[rows]).any()


def _distance_function(space: FiniteMMSpace, subset: Sequence[int]) -> np.ndarray:
    return space.dist[:, list(subset)].min(axis=1)


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
    random subsets, each kept only when it passes the exact check on
    entry (a distance function can stretch a pair by a rounding); the
    best few are refined by coordinate ascent that moves one value to
    an end of its feasible interval, a move kept only when it passes
    too.  Deterministic for a fixed seed.
    """
    return [f for _, f in _candidate_pool(space, kappa, effort, seed, budget)[1]]


def _candidate_pool(
    space: FiniteMMSpace,
    kappa: float,
    effort: int,
    seed: int,
    budget: int,
) -> tuple[SepResult, list[tuple[float, np.ndarray]]]:
    """Sep(kappa/2, kappa/2), which bounds the bracket above, and
    lipschitz_candidates as pairs (partial diameter at m - kappa, f),
    each scored once; a non-finite score is -inf, so it is never the
    best.  A candidate failing the exact check is dropped, not repaired."""
    check_counts(effort=effort)
    half = sep(space, [kappa / 2] * 2, budget)
    n = space.n
    target = space.total_mass - kappa
    rng = rng_for(seed, "obsdiam-real", n)
    raw: list[np.ndarray] = [np.zeros(n)]
    raw += [space.dist[:, i] for i in range(n)]
    for res in (half, sep(space, [kappa / 4] * 2, budget)):
        for w in res.witnesses or ():
            raw.append(_distance_function(space, w))
    n_random = min(max(effort // 50, 8), 200)
    for _ in range(n_random):
        size = int(rng.integers(1, n + 1))
        subset = rng.choice(n, size=size, replace=False)
        raw.append(_distance_function(space, subset))

    def objective(f: np.ndarray) -> float:
        val = partial_diameter_real(pushforward_real(space, f), target)
        return val if math.isfinite(val) else -math.inf

    pool = [(objective(f), f.copy()) for f in raw if _is_lipschitz(f, space.dist)]
    # coordinate-ascent refinement of the strongest starts
    refined: list[tuple[float, np.ndarray]] = []
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
                    if not _is_lipschitz(g, space.dist, x):
                        continue
                    evals += 1
                    val = objective(g)
                    if val > best:
                        best, f, improved = val, g, True
                if evals >= effort:
                    break
        refined.append((best, f.copy()))
    return half, pool + refined


def obsdiam_real_bracket(
    space: FiniteMMSpace,
    kappa: float,
    effort: int = 2000,
    seed: int = 0,
    budget: int = DEFAULT_ASSIGNMENT_BUDGET,
) -> Bracket:
    """Bracket the observable diameter into the line at deficit kappa.

    lower: first best partial diameter of a pushforward over the
    candidate pool, each checked exactly 1-Lipschitz and scored once
    (achieved, witness stored).  upper: the pool's separation at
    kappa/2 in each slot, which dominates every 1-Lipschitz image's
    partial diameter; +inf with a note when the separation budget
    refuses.
    """
    _check_kappa(space, kappa)
    best_val = 0.0
    best_f: np.ndarray | None = None
    half, pool = _candidate_pool(space, kappa, effort, seed, budget)
    for val, f in pool:
        if val > best_val:
            best_val, best_f = val, f
    witness = {
        "kind": "function_values",
        "values": None if best_f is None else [float(v) for v in best_f],
    }
    upper = half.value if half.exact else math.inf
    source = "separation at kappa/2 per slot" if half.exact else "separation budget exceeded"
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
    <= diam X, valid for every 1-Lipschitz map, sampled or not.

    Two exact rules skip work that cannot change the bracket.  A sampled
    map whose image support has diameter <= the best so far is not
    scored, since the whole support qualifies and bounds its partial
    diameter (a support over DEFAULT_SCREEN_BUDGET is always scored, so
    its refusal still raises).  Sampling stops once lower reaches upper,
    where no map can beat it.  The witness is the first map reaching the
    best value; it records the samples drawn and how many of them ran
    out of backtracks and fell back to a constant map (both 0 when no
    sampling was needed), so a closed bracket may draw fewer than
    samples.
    """
    target = _check_kappa(space, kappa) - kappa
    check_counts(samples=samples)
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
    drawn = fallbacks = 0
    while drawn < samples and best_val < upper:  # no map beats upper: closed
        values = _search_lipschitz_map(space, screen, rng_for(seed, "screen-sample", drawn), None)
        drawn += 1
        if values is None:
            # the constant fallback has partial diameter 0: no better than best_val
            fallbacks += 1
            continue
        image = pushforward_screen(space, screen, values)
        support = np.flatnonzero(image.weights > 0.0)
        if (
            len(support) <= DEFAULT_SCREEN_BUDGET
            and screen.dist[np.ix_(support, support)].max() <= best_val
        ):
            continue  # the whole support qualifies, so its diameter bounds the score
        val = partial_diameter_screen(image, target)
        if math.isfinite(val) and val > best_val:
            best_val, best_map = val, values
    witness = {
        "kind": "screen_map",
        "values": [int(v) for v in best_map],
        "samples": drawn,
        "fallbacks": fallbacks,
    }
    return Bracket(float(best_val), upper, witness, source)
