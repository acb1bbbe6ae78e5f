"""Separation distances and quantile gaps.

Sep(X; k0, ..., kN) is the largest t such that disjoint nonempty groups
X_0, ..., X_N with masses >= k_i can be chosen pairwise at distance >= t.
On a finite space every positive optimum is realized by assigning each
point to one group or discarding it, so the engines search assignments.
Overlapping families only ever realize value 0, which we report as
feasible=False with value 0.0.

An engine is an attempt at one threshold, attempt(index, t): an
assignment with groups pairwise >= t apart, or None.  One threshold search
(_threshold_search) bisects the distinct distances for every engine and
builds, checks and measures the witnesses of the last assignment found.

The exact search (_feasible_assignment) keeps point sets as Python-int
bitmasks: a point may join a group when no other group's reach (the
points closer than the threshold to one of its members) contains it.
It prunes a subtree when some group cannot reach its kappa from the
unvisited points it may still take.  Those masses come from byte-wide
tables of subset masses (_mass_tables), summed in another order than the
convention below, so they serve the prune only and carry a slack; no
admissibility check reads them.

The heuristic lower bound (_try_threshold) seeds whole components of
the conflict graph and then tries random single-point moves.  It keeps
the same kind of bitmasks (a near mask per point, a member mask per
label), so a move is checked with one and/or on ints, and it draws its
moves in blocks from one rng.integers call, which gives the moves of a
scalar loop draw for draw.

Group masses follow one summation convention, space._group_masses: a
group's mass is its points' weights added in ascending point index,
starting from 0.0, as np.bincount adds them.  The heuristic's component
seeding, its deficits, the witness checks and the merged atoms of a
RealMeasure all use sums made this way.

sep is the one place that decides exact or bound: sep_exact within the
assignment budget, past it sep_lower_bound when an effort is given and
else the vacuous refusal; a result past the budget carries sep_exact's
refusal.  sep_pushforward_check alone calls sep_exact.

This module imports space and _numeric, never observable: separation of
a pushforward image (sep_pushforward_check) lives where images are built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from ._numeric import check_counts, exact_triangle_closure, rng_for
from .space import FiniteMMSpace, PointSet, _check_weights, _group_masses

__all__ = [
    "BudgetExceededError",
    "DEFAULT_ASSIGNMENT_BUDGET",
    "QuantileGap",
    "RealMeasure",
    "SepResult",
    "real_measure_as_space",
    "sep",
    "sep_exact",
    "sep_lower_bound",
    "sep_real_quantile",
]

DEFAULT_ASSIGNMENT_BUDGET = 3**13  # (N+2)^n admissible for n <= 13 when N = 1

_MASS_SLACK = 1e-9  # pruning guard only; admissibility checks stay exact
_MASK_CHUNK = 8  # bits per mass table in the exact search's prune
_MOVE_BLOCK = 1024  # (point, label) pairs per rng call in the heuristic


class BudgetExceededError(RuntimeError):
    """An exhaustive routine would exceed its configured budget."""


# ---------------------------------------------------------------------------
# measures on the real line


@dataclass(frozen=True)
class RealMeasure:
    """Finitely many atoms on the line, positions strictly increasing.

    All mass arithmetic goes through one sequential prefix-sum array,
    built once, so quantile and partial-diameter comparisons agree.
    """

    positions: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    # prefix[k] = weights[0] + ... + weights[k-1], sequential order
    prefix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "prefix", np.concatenate(([0.0], np.cumsum(self.weights))))
        for array in (self.positions, self.weights, self.prefix):
            array.setflags(write=False)

    @classmethod
    def from_atoms(cls, positions, weights) -> "RealMeasure":
        """Merge coincident positions (fiber weights add) and sort.  The
        weights obey a space's weight axioms (space._check_weights), so
        no atoms at all is refused too."""
        positions = np.asarray(positions, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if positions.shape != weights.shape or positions.ndim != 1:
            raise ValueError("positions and weights must be equal-length 1-D arrays")
        if not np.isfinite(positions).all():
            raise ValueError("positions must be finite")
        _check_weights(weights, len(positions))
        uniq, inverse = np.unique(positions, return_inverse=True)
        return cls(uniq, _group_masses(weights, inverse, len(uniq)))

    @property
    def total_mass(self) -> float:
        return float(self.prefix[-1])

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class QuantileGap:
    """Left/right kappa-quantile positions and their gap.

    a0 = sup{a : mass left of a (exclusive) <= kappa},
    b0 = inf{b : mass right of b (exclusive) <= kappa}.
    gap = max(b0 - a0, 0); degenerate marks clamping (needs 2*kappa >= m).
    """

    a0: float
    b0: float
    gap: float
    degenerate: bool


def sep_real_quantile(nu: RealMeasure, kappa: float) -> QuantileGap:
    """Quantile construction on the line.

    Guarantees, as exact comparisons on the shared prefix sums:
    mass((-inf, a0]) >= kappa, mass([b0, inf)) >= kappa, and
    mass([a0, b0]) >= total - 2*kappa whenever the gap is not degenerate.
    """
    if not kappa > 0:
        raise ValueError("kappa must be > 0")
    prefix = nu.prefix
    m = nu.total_mass
    if kappa >= m:
        return QuantileGap(math.inf, -math.inf, 0.0, True)
    # first atom where cumulative-through exceeds kappa
    i_a = int(np.argmax(prefix[1:] > kappa))
    # last atom where suffix-from exceeds kappa
    suffix_from = m - prefix[:-1]
    i_b = len(nu) - 1 - int(np.argmax((suffix_from > kappa)[::-1]))
    a0 = float(nu.positions[i_a])
    b0 = float(nu.positions[i_b])
    raw = b0 - a0
    return QuantileGap(a0, b0, max(raw, 0.0), raw < 0.0)


def real_measure_as_space(nu: RealMeasure) -> FiniteMMSpace:
    """View atoms as a 1-D metric measure space (for Sep comparisons)."""
    pos = nu.positions
    dist = np.abs(pos[:, None] - pos[None, :])
    dist = exact_triangle_closure(dist)
    points = tuple(repr(float(p)) for p in pos)
    return FiniteMMSpace(points, dist, nu.weights.copy())


# ---------------------------------------------------------------------------
# the threshold search


@dataclass(frozen=True)
class SepResult:
    value: float
    feasible: bool
    exact: bool
    witnesses: tuple[PointSet, ...] | None
    assignment: tuple[int, ...] | None
    refusal: str | None = None  # sep_exact's refusal text, on a result sep gave past the budget


def _check_kappas(kappas: Sequence[float]) -> list[float]:
    ks = [float(k) for k in kappas]
    if len(ks) < 2:
        raise ValueError("need at least two kappas (N + 1 groups, N >= 1)")
    if any(k < 0 or not math.isfinite(k) for k in ks):
        raise ValueError("kappas must be finite and >= 0")
    return ks


def _bisect_last(count: int, probe: Callable[[int], Any]) -> tuple[int, Any]:
    """Last index in range(count) whose probe returns a result (not None),
    with that result, or (-1, None); the probes should succeed on a
    prefix.  A probe that is not monotone still sees the indices of a
    binary search, in its order."""
    lo, hi, best = 0, count - 1, (-1, None)
    while lo <= hi:
        mid = (lo + hi) // 2
        result = probe(mid)
        if result is None:
            hi = mid - 1
        else:
            lo, best = mid + 1, (mid, result)
    return best


def _threshold_search(
    space: FiniteMMSpace, kappas: list[float], exact: bool, attempt: Callable
) -> SepResult:
    """Bisect the distinct distances t with attempt(index, t), and turn
    the last assignment found into checked witnesses (module docstring).
    An exact attempt's realized gap is its threshold: exact feasibility
    is monotone, so a larger gap would have been found."""
    thresholds = space.distinct_distances()
    _, assign = _bisect_last(len(thresholds), lambda i: attempt(i, float(thresholds[i])))
    if assign is None:
        return SepResult(0.0, False, exact, None, None)
    groups = [np.flatnonzero(assign == g) for g in range(len(kappas))]
    group_mass = _group_masses(space.weights, assign, len(kappas) + 1)
    for g, kappa in enumerate(kappas):
        mass = float(group_mass[g])
        if mass < kappa:
            raise RuntimeError(f"witness group {g} has mass {mass!r} below kappa {kappa!r}")
    value = min(float(space.dist[np.ix_(a, b)].min()) for a, b in itertools.combinations(groups, 2))
    witnesses = tuple(PointSet.of(members) for members in groups)
    return SepResult(value, True, exact, witnesses, tuple(int(a) for a in assign))


# ---------------------------------------------------------------------------
# exact separation


def _mass_tables(weights: np.ndarray) -> list[list[float]]:
    """Mass of every bitmask of points, from one table per byte of the
    mask: tables[i][b] is the mass of the points 8i + j for the set bits
    j of b, and the mass of mask m is the sum over i of
    tables[i][(m >> 8i) & 255].  The tables stay at 256 entries however
    many points there are.  They add in another order than
    _group_masses, so they serve the prune only."""
    ws = [float(w) for w in weights]
    tables = []
    for lo in range(0, len(ws), _MASK_CHUNK):
        table = [0.0]
        for w in ws[lo : lo + _MASK_CHUNK]:
            table += [s + w for s in table]
        tables.append(table)
    return tables


def _row_masks(matrix: np.ndarray) -> list[int]:
    """Row i of a boolean matrix as the Python int with bit j set when
    matrix[i, j] is True."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _feasible_assignment(
    dist: np.ndarray,
    weights: np.ndarray,
    kappas: Sequence[float],
    threshold: float,
    tables: list[list[float]],
) -> np.ndarray | None:
    """Lexicographically smallest assignment (groups 0..N, discard N+1)
    with all cross-group distances >= threshold, every group nonempty,
    and group masses >= kappas.  None if no assignment exists.

    Depth-first over points 0..n-1, trying groups 0..N-1 and then the
    discard.  Point sets are Python-int bitmasks, built once per
    threshold: close[q] holds the points p with dist[p, q] < threshold
    (a new point p is compared with an earlier member q in that
    orientation), and each group keeps its members and its reach, the
    union of its members' close masks.  Point p may join group g when
    no other group's reach contains it, i.e. dist[p, q] >= threshold
    for every member q of every other group.

    A node is pruned when the groups' total deficit exceeds the
    unvisited mass, when more groups are empty than points remain, or
    when some group is empty or short of its kappa and the unvisited
    points outside every other group's reach cannot fill it (the other
    groups only grow, so those points are all it can still take).  The
    last masses are read from `tables` (_mass_tables) and compared with
    _MASS_SLACK to spare, so a prune never removes an admissible leaf
    and the first leaf found is the one an unpruned search finds.  The
    tables are used for pruning only: group masses are Python floats
    added in ascending point order, as _group_masses adds them, and the
    leaf compares them with kappas exactly.
    """
    n = len(weights)
    n_groups = len(kappas)
    groups = range(n_groups)
    w = [float(x) for x in weights]
    suffix = np.concatenate((np.cumsum(weights[::-1])[::-1], [0.0])).tolist()
    slack = _MASS_SLACK * (1.0 + suffix[0])
    byte = (1 << _MASK_CHUNK) - 1
    close = _row_masks((dist < threshold).T)
    assign = [n_groups] * n  # discard unless placed
    members = [0] * n_groups
    reach = [0] * n_groups
    masses = [0.0] * n_groups

    def rec(p: int) -> bool:
        if p == n:
            return all(members) and all(masses[g] >= kappas[g] for g in groups)
        unvisited = (1 << n) - (1 << p)
        deficit = 0.0
        empty = 0
        blocked = []
        for g in groups:
            others = 0
            for g2 in groups:
                if g2 != g:
                    others |= reach[g2]
            blocked.append(others)
            room = unvisited & ~others
            if masses[g] < kappas[g]:
                short = kappas[g] - masses[g]
                deficit += short
                reachable = 0.0
                rest = room
                for table in tables:
                    reachable += table[rest & byte]
                    rest >>= _MASK_CHUNK
                if short > reachable + slack:
                    return False
            if not members[g]:
                empty += 1
                if not room:
                    return False
        if deficit > suffix[p] + slack or empty > n - p:
            return False
        bit = 1 << p
        for g in groups:
            if not blocked[g] & bit:
                saved_reach, saved_mass = reach[g], masses[g]
                members[g] |= bit
                reach[g] = saved_reach | close[p]
                masses[g] = saved_mass + w[p]
                assign[p] = g
                if rec(p + 1):
                    return True
                members[g] ^= bit
                reach[g] = saved_reach
                masses[g] = saved_mass
        assign[p] = n_groups
        return rec(p + 1)

    return np.array(assign, dtype=np.int64) if rec(0) else None


def sep_exact(
    space: FiniteMMSpace,
    kappas: Sequence[float],
    budget: int = DEFAULT_ASSIGNMENT_BUDGET,
) -> SepResult:
    """Exact separation distance with witnesses.

    Searches every assignment of points to N+1 groups or discard (the
    guard refuses when (N+2)^n exceeds the budget), maximizing the
    minimum cross-group distance; ties resolve to the lexicographically
    smallest assignment vector.  Infeasible queries return value 0.0.
    """
    kappas = _check_kappas(kappas)
    n_labels = len(kappas) + 1
    if n_labels**space.n > budget:
        raise BudgetExceededError(f"sep_exact needs {n_labels}^{space.n} assignments, over budget {budget}")
    tables = _mass_tables(space.weights)

    def attempt(_: int, t: float) -> np.ndarray | None:
        return _feasible_assignment(space.dist, space.weights, kappas, t, tables)

    return _threshold_search(space, kappas, True, attempt)


# ---------------------------------------------------------------------------
# heuristic lower bound


def _conflict_components(dist: np.ndarray, threshold: float) -> np.ndarray:
    """Component labels of the graph with edges where dist < threshold."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    adj = (dist < threshold)
    np.fill_diagonal(adj, False)
    _, labels = connected_components(csr_matrix(adj), directed=False)
    return labels


def _try_threshold(
    space: FiniteMMSpace,
    kappas: list[float],
    threshold: float,
    effort: int,
    rng: np.random.Generator,
) -> np.ndarray | None:
    """Greedy component seeding plus randomized point moves.

    Whole components of {d < threshold} are seeded, heaviest first (by
    _group_masses), onto the group with the largest deficit.  Then each
    of `effort` moves takes a point p and a label g from the rng (also
    for moves that are skipped); the move is skipped when g is p's label
    or when p lies closer than threshold to a point of another group
    (the discard never blocks), and kept when the total deficit does not
    grow.  The loop stops early once the deficit is zero.

    Point sets are Python-int bitmasks: near[p] holds the points q with
    dist[p, q] < threshold (q != p), and every label, the discard
    included, keeps a member mask, so the conflict test is one and/or on
    ints and a group is empty when its mask is 0.  The moves are drawn
    as (p, g) pairs, _MOVE_BLOCK at a time, from one rng.integers call
    with bounds (n, N + 1, n, N + 1, ...); numpy consumes the bit
    generator for those exactly as for two scalar calls per move, so the
    moves are the ones a scalar loop draws.  The last block may draw
    past the last move (the caller discards the rng after one
    threshold).  The deficit is recomputed from _group_masses over a
    numpy label array kept in step with the masks after each tried
    move, so a seed gives the same assignment as a scan over every
    group's members.
    """
    n = space.n
    n_groups = len(kappas)
    discard = n_groups
    comp = _conflict_components(space.dist, threshold)  # labels 0..K-1
    comp_mass = _group_masses(space.weights, comp, 0)

    assign = np.full(n, discard, dtype=np.int64)
    masses = np.zeros(n_groups)
    # seed whole components, heaviest first, onto the largest deficit
    for c in np.argsort(-comp_mass, kind="stable"):
        deficits = np.array(kappas) - masses
        g = int(np.argmax(deficits))
        if deficits[g] <= 0:
            break
        assign[comp == c] = g
        masses[g] += comp_mass[c]

    close = space.dist < threshold
    np.fill_diagonal(close, False)
    near = _row_masks(close)
    labels = assign.tolist()
    members = [0] * (n_groups + 1)
    for p, a in enumerate(labels):
        members[a] |= 1 << p

    def total_deficit() -> float:
        group_mass = _group_masses(space.weights, assign, n_groups + 1).tolist()
        out = 0.0
        for g in range(n_groups):
            if group_mass[g] < kappas[g]:
                out += kappas[g] - group_mass[g]
            if not members[g]:
                out += math.inf
        return out

    deficit = total_deficit()
    bounds = np.tile([n, n_groups + 1], _MOVE_BLOCK)
    for start in range(0, effort, _MOVE_BLOCK):
        if deficit == 0.0:
            break
        block = min(_MOVE_BLOCK, effort - start)
        draws = iter(rng.integers(bounds[: 2 * block]).tolist())
        for p, g in zip(draws, draws):
            old = labels[p]
            if g == old:
                continue
            bit = 1 << p
            if g != discard and near[p] & ~(members[g] | members[discard]):
                continue
            members[old] ^= bit
            members[g] |= bit
            assign[p] = g
            new_deficit = total_deficit()
            if new_deficit <= deficit:
                deficit = new_deficit
                labels[p] = g
                if deficit == 0.0:
                    break
            else:
                members[g] ^= bit
                members[old] |= bit
                assign[p] = old
    # a zero deficit has every group nonempty and at its kappa
    return assign if deficit == 0.0 else None


def sep_lower_bound(
    space: FiniteMMSpace,
    kappas: Sequence[float],
    effort: int = 10_000,
    seed: int = 0,
) -> SepResult:
    """Certified lower bound on the separation distance.

    The threshold search tries _try_threshold at each threshold, with
    an rng drawn from the seed and the threshold's index, and the value
    is the realized gap of the witnesses it returns, so value <=
    sep_exact always.  Deterministic for a fixed seed; exact=False.
    effort is the number of moves per threshold; at 0 only the component
    seeding runs.
    """
    kappas = _check_kappas(kappas)
    check_counts(effort=effort)

    def attempt(index: int, t: float) -> np.ndarray | None:
        return _try_threshold(space, kappas, t, effort, rng_for(seed, index, "sep-lb"))

    return _threshold_search(space, kappas, False, attempt)


# ---------------------------------------------------------------------------
# the front door


def sep(
    space: FiniteMMSpace,
    kappas: Sequence[float],
    budget: int = DEFAULT_ASSIGNMENT_BUDGET,
    effort: int | None = None,
    seed: int = 0,
) -> SepResult:
    """Separation, exact when (N+2)^n fits the budget (sep_exact); past
    it, carrying sep_exact's refusal, sep_lower_bound at this effort and
    seed, or with effort None the vacuous value 0 with no witness.  The
    gate depends on N and n only, not on the kappas."""
    try:
        return sep_exact(space, kappas, budget)
    except BudgetExceededError as err:
        if effort is None:
            return SepResult(0.0, False, False, None, None, str(err))
        return replace(sep_lower_bound(space, kappas, effort, seed), refusal=str(err))
