"""Reference computations the benchmark checks the program against.

Nothing here imports mmconc.  Each oracle takes plain numpy arrays (or
the program's output read back as data) and recomputes a quantity by a
different route than the program does: exhaustive subset enumeration,
Harper's vertex-isoperimetric theorem on the cube, brute-force windows
and subsets for partial diameters, and ball masses read off sorted
distance rows.

Where the program compares a float mass against a threshold, the oracle
adds the same weights in the same order, so that the two agree exactly
and not merely up to rounding: subsets are summed in ascending index
order (the program's separation convention), screen subsets in
descending weight order (its clique search), and line windows as
differences of one sequential prefix array.
"""

from __future__ import annotations

import math

import numpy as np

SUBSET_CAP = 13  # 2^13 subsets: exhaustive enumeration stays under a second


def _check_small(n: int) -> None:
    if not 1 <= n <= SUBSET_CAP:
        raise ValueError(f"subset enumeration needs 1..{SUBSET_CAP} points, got {n}")


def subset_masses(weights) -> np.ndarray:
    """mass[mask] for every subset, summed in ascending index order."""
    w = [float(x) for x in weights]
    n = len(w)
    _check_small(n)
    mass = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        top = mask.bit_length() - 1
        mass[mask] = mass[mask ^ (1 << top)] + w[top]
    return mass


def sequential_mass(weights, members) -> float:
    """Sum of weights over members, ascending index order."""
    total = 0.0
    for i in sorted(int(m) for m in members):
        total += float(weights[i])
    return total


def sep_two_groups(dist, weights, kappa_a: float, kappa_b: float) -> float:
    """Sep(X; kappa_a, kappa_b) by enumerating every first group A.

    For a fixed A and threshold t, the best second group is the far set
    {y : d(y, A) >= t}, which only grows as t falls.  So the value is the
    largest d(y, A) over A with mass >= kappa_a and y outside A whose far
    set at t = d(y, A) has mass >= kappa_b.  Returns 0.0 when no pair of
    groups exists (the program's infeasible convention).
    """
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    mass = subset_masses(weights)
    size = 1 << n
    # dA[mask, y] = d(y, A) for A = mask; row 0 (empty A) stays +inf
    dA = np.full((size, n), np.inf)
    for mask in range(1, size):
        low = (mask & -mask).bit_length() - 1
        dA[mask] = np.minimum(dA[mask & (mask - 1)], dist[low])
    bits = 1 << np.arange(n, dtype=np.int64)
    # far[mask, y] = bitmask of {z : d(z, A) >= d(y, A)}
    far = (dA[:, None, :] >= dA[:, :, None]).astype(np.int64) @ bits
    ok = (
        (mass[far] >= kappa_b)
        & (dA > 0.0)
        & np.isfinite(dA)
        & (mass >= kappa_a)[:, None]
    )
    if not ok.any():
        return 0.0
    return float(dA[ok].max())


def harper_sep_hamming(n: int, kappa: float) -> tuple[int, float]:
    """Sep(kappa, kappa) on the uniform cube {0,1}^n with the normalized
    Hamming metric, from Harper's vertex-isoperimetric theorem.

    Among sets of a given size, an initial segment of the simplicial
    order has the smallest r-neighbourhood for every r, and its
    neighbourhoods are again initial segments.  A set B of mass >= kappa
    at Hamming distance >= r from A exists iff the complement of the
    (r-1)-neighbourhood of A holds enough points, so the best A is the
    initial segment S with the fewest points of mass >= kappa.  Returns
    (r, r / n) for the largest such r, or (0, 0.0) when none exists.
    """
    size = 1 << n
    unit = 0.5**n
    m = 0
    while m * unit < kappa:
        m += 1
    m = max(m, 1)
    # simplicial order: by weight, then the set holding the smallest
    # element of the symmetric difference first, which for equal sizes is
    # lexicographic order of the sorted member lists
    def key(x: int):
        return (bin(x).count("1"), [i for i in range(n) if (x >> i) & 1])

    order = sorted(range(size), key=key)
    reached = np.zeros(size, dtype=bool)
    reached[order[:m]] = True
    best = 0
    r = 1
    while True:
        # reached = (r-1)-neighbourhood of S
        if size - int(reached.sum()) >= m:
            best = r
        else:
            break
        grown = reached.copy()
        for bit in range(n):
            grown[np.flatnonzero(reached) ^ (1 << bit)] = True
        reached = grown
        r += 1
        if r > n:
            break
    return best, best / n


def real_partial_diameter(positions, weights, target: float) -> float:
    """Smallest width of an interval of mass >= target, by trying every
    window of the merged atoms.  Merged masses and the prefix array are
    accumulated sequentially in input order."""
    positions = [float(p) for p in positions]
    weights = [float(w) for w in weights]
    uniq = sorted(set(positions))
    slot = {p: i for i, p in enumerate(uniq)}
    merged = [0.0] * len(uniq)
    for p, w in zip(positions, weights):
        merged[slot[p]] += w
    prefix = [0.0]
    for w in merged:
        prefix.append(prefix[-1] + w)
    total = prefix[-1]
    if target > total:
        return math.inf
    if target <= 0.0:
        return 0.0
    best = math.inf
    for i in range(len(uniq)):
        for j in range(i, len(uniq)):
            if prefix[j + 1] - prefix[i] >= target:
                best = min(best, uniq[j] - uniq[i])
                break
    return best


def quantile_gap(positions, weights, kappa: float) -> tuple[float, float, float, bool]:
    """Left and right kappa-quantile atoms of a line measure, scanned
    atom by atom: a0 is the first atom whose cumulative mass exceeds
    kappa, b0 the last atom whose mass from there on exceeds kappa."""
    order = sorted(range(len(positions)), key=lambda i: positions[i])
    pos, wts = [], []
    for i in order:
        p, w = float(positions[i]), float(weights[i])
        if pos and pos[-1] == p:
            wts[-1] += w
        else:
            pos.append(p)
            wts.append(w)
    prefix = [0.0]
    for w in wts:
        prefix.append(prefix[-1] + w)
    total = prefix[-1]
    if kappa >= total:
        return math.inf, -math.inf, 0.0, True
    a0 = next(pos[k] for k in range(len(pos)) if prefix[k + 1] > kappa)
    b0 = next(pos[k] for k in reversed(range(len(pos))) if total - prefix[k] > kappa)
    raw = b0 - a0
    return a0, b0, max(raw, 0.0), raw < 0.0


def screen_partial_diameter(screen_dist, image_weights, target: float) -> float:
    """Smallest diameter of a subset of the image's support with mass >=
    target, over every subset.  The whole support always qualifies when
    target <= total, as its mass is the total by definition."""
    support = [i for i, w in enumerate(image_weights) if w > 0.0]
    total = sum(float(image_weights[i]) for i in support)
    if target <= 0.0:
        return 0.0
    d = np.asarray(screen_dist, dtype=np.float64)[np.ix_(support, support)]
    w = np.asarray(image_weights, dtype=np.float64)[support]
    return _subset_partial_diameter(d, w, target, total)


def space_partial_diameter(dist, weights, target: float, total: float) -> float:
    """Smallest diameter of a subset of all points with mass >= target
    (the space as its own image), over every subset."""
    return _subset_partial_diameter(
        np.asarray(dist, dtype=np.float64), np.asarray(weights, dtype=np.float64), target, total
    )


def _subset_partial_diameter(d: np.ndarray, w: np.ndarray, target: float, total: float) -> float:
    n = len(w)
    if target > total:
        return math.inf
    if target <= 0.0:
        return 0.0
    _check_small(n)
    rank = np.argsort(-w, kind="stable")
    d = d[np.ix_(rank, rank)]
    w = w[rank]
    full = (1 << n) - 1
    mass = subset_masses(w)  # ascending rank = descending weight
    diam = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        inner = [i for i in range(top) if (rest >> i) & 1]
        far = float(d[top, inner].max()) if inner else 0.0
        diam[mask] = max(diam[rest], far)
    ok = mass >= target
    ok[0] = False
    ok[full] = True
    return float(diam[ok].min())


def ball_mass_table(dist, weights, radii) -> np.ndarray:
    """masses[k, x] = mass of the closed ball B(x, radii[k]), read from
    each distance row sorted once, with weights summed in sorted order."""
    dist = np.asarray(dist, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    order = np.argsort(dist, axis=1, kind="stable")
    rows = np.take_along_axis(dist, order, axis=1)
    cum = np.cumsum(weights[order], axis=1)
    radii = np.asarray(radii, dtype=np.float64)
    out = np.empty((len(radii), dist.shape[0]))
    for x in range(dist.shape[0]):
        count = np.searchsorted(rows[x], radii, side="right")
        out[:, x] = cum[x, count - 1]
    return out


def doubling_constants(dist, weights, radii) -> np.ndarray:
    """max over x of mass(B(x, 2r)) / mass(B(x, r)) for each r."""
    radii = np.asarray(radii, dtype=np.float64)
    if not len(radii):
        return np.zeros(0)
    masses = ball_mass_table(dist, weights, np.concatenate((radii, 2.0 * radii)))
    inner, outer = masses[: len(radii)], masses[len(radii) :]
    return (outer / inner).max(axis=1)


def net_violations(dist, members, epsilon: float) -> list[str]:
    """Defining properties of an epsilon-net: members pairwise >= epsilon
    apart, every point within < epsilon of some member."""
    dist = np.asarray(dist, dtype=np.float64)
    members = np.asarray(sorted(members), dtype=np.int64)
    problems = []
    if not len(members):
        return ["net is empty"]
    sub = dist[np.ix_(members, members)].copy()
    np.fill_diagonal(sub, np.inf)
    if len(members) > 1 and sub.min() < epsilon:
        problems.append(f"members closer than epsilon: {sub.min()!r} < {epsilon!r}")
    cover = dist[:, members].min(axis=1)
    if (cover >= epsilon).any():
        problems.append(f"{int((cover >= epsilon).sum())} points not covered")
    return problems


def coloring_violations(dist, members, classes, epsilon: float) -> list[str]:
    """A coloring of a net partitions its members into classes that are
    each 5*epsilon-separated, with as many classes as the most members
    any 5*epsilon ball around a member holds."""
    dist = np.asarray(dist, dtype=np.float64)
    members = sorted(int(m) for m in members)
    problems = []
    flat = sorted(int(p) for c in classes for p in c)
    if flat != members:
        problems.append("classes do not partition the net")
    scale = 5.0 * epsilon
    for k, cls in enumerate(classes):
        idx = np.asarray(sorted(cls), dtype=np.int64)
        if len(idx) > 1:
            sub = dist[np.ix_(idx, idx)].copy()
            np.fill_diagonal(sub, np.inf)
            if sub.min() < scale:
                problems.append(f"class {k} not 5*epsilon-separated")
    m = np.asarray(members, dtype=np.int64)
    most = int((dist[np.ix_(m, m)] <= scale).sum(axis=1).max())
    if len(classes) != most:
        problems.append(f"{len(classes)} classes, expected {most}")
    return problems


def packing_multiplicity(dist, members, epsilon: float) -> int:
    """Most net members in a closed 5*epsilon ball around a member."""
    m = np.asarray(sorted(members), dtype=np.int64)
    return int((np.asarray(dist)[np.ix_(m, m)] <= 5.0 * epsilon).sum(axis=1).max())
