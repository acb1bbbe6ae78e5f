"""Finite metric measure spaces: validation, balls, and greedy nets.

The mass conventions live here: ball masses (_ball_mass_blocks) and
per-label masses (_group_masses), which fibers, groups and components use."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "FiniteMMSpace",
    "Net",
    "PointSet",
    "SpaceValidationError",
    "Violation",
    "ball_mass",
    "build_net",
    "closed_ball",
    "merge_coincident_points",
    "packing_multiplicity",
    "validate_space",
]

_MAX_REPORTED = 50  # per violation kind; the report records the true count
_ROW_BLOCK = 64  # rows per pass of the row scans below; their buffers stay 64 x n


@dataclass(frozen=True)
class Violation:
    """One failed axiom: kind, offending indices, human-readable detail."""

    kind: str
    indices: tuple[int, ...]
    detail: str


class SpaceValidationError(ValueError):
    """Raised by validate_space; carries every violated axiom found."""

    def __init__(self, violations: list[Violation], counts: dict[str, int]):
        self.violations = violations
        self.counts = counts
        lines = [f"{sum(counts.values())} axiom violation(s): {dict(counts)}"]
        lines += [f"  [{v.kind}] at {v.indices}: {v.detail}" for v in violations[:10]]
        if len(violations) > 10:
            lines.append(f"  ... {len(violations) - 10} more recorded")
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class PointSet:
    """Sorted, duplicate-free point indices of some space."""

    indices: tuple[int, ...]

    @classmethod
    def of(cls, indices: Iterable[int]) -> "PointSet":
        return cls(tuple(sorted(set(int(i) for i in indices))))

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "PointSet":
        return cls(tuple(int(i) for i in np.flatnonzero(mask)))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, i) -> bool:
        return int(i) in set(self.indices)


@dataclass(frozen=True)
class FiniteMMSpace:
    """Points with an exact float64 metric matrix and nonnegative weights.

    Construct through validate_space (or a generator in mmconc.families);
    the arrays are frozen so a space can be shared safely.
    """

    points: tuple[str, ...]
    dist: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.dist.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    def distinct_distances(self) -> np.ndarray:
        """Sorted distinct off-diagonal distances (empty for one point).
        Rows go in blocks, so no n^2-sized index or copy is built."""
        parts = [np.zeros(0)]
        for lo in range(0, self.n, _ROW_BLOCK):
            rows = self.dist[lo : lo + _ROW_BLOCK]
            above = np.triu(np.ones(rows.shape, dtype=bool), k=lo + 1)
            parts.append(np.unique(rows[above]))
        return np.unique(np.concatenate(parts))


def _triangle_holds(dist: np.ndarray) -> bool:
    """True iff dist[i,k] <= dist[i,j] + dist[j,k] in float64 for all i, j, k.

    Needs an exactly symmetric matrix: the test for (k, j, i) is then
    the one for (i, j, k), because fl(a + b) == fl(b + a), so only pairs
    i <= k are scanned.  Rows go in blocks of _ROW_BLOCK; for each
    hub j one preallocated buffer holds d[i,j] + d[j,k] over the block's
    rows i and the columns k from the block's first row on.  d > fl(a + b)
    is the same test as the hub loop's d - fl(a + b) > 0.
    """
    n = dist.shape[0]
    sums = np.empty((min(_ROW_BLOCK, n), n))
    above = np.empty(sums.shape, dtype=bool)
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        block = dist[lo:hi, lo:]
        buf = sums[: hi - lo, : n - lo]
        bad = above[: hi - lo, : n - lo]
        for j in range(n):
            np.add(dist[lo:hi, j, None], dist[j, None, lo:], out=buf)
            np.greater(block, buf, out=bad)
            if bad.any():
                return False
    return True


def _check_triangle(dist: np.ndarray, add, counts) -> None:
    """Triangle inequality in plain float64 sums, one hub row at a time
    (memory stays O(n^2) even for a few thousand points).  Lists the first
    _MAX_REPORTED violations in hub order and counts all of them;
    validate_space runs it only after _triangle_holds fails."""
    n = dist.shape[0]
    for j in range(n):
        slack = dist - (dist[:, j][:, None] + dist[j, :][None, :])
        bad = np.argwhere(slack > 0.0)
        shown = bad[: max(_MAX_REPORTED - counts.get("triangle", 0), 0)]
        for i, k in shown:
            add(
                "triangle",
                (int(i), int(j), int(k)),
                f"d[{i},{k}]={dist[i, k]!r} > d[{i},{j}] + d[{j},{k}]"
                f" = {dist[i, j] + dist[j, k]!r}",
            )
        if len(bad) > len(shown):
            counts["triangle"] += len(bad) - len(shown)


def _weight_violations(weights: np.ndarray) -> list[Violation]:
    """The weight axioms: finite, >= 0, with positive total mass."""
    if not np.isfinite(weights).all():
        return [Violation("nonfinite_weight", (int(i),), f"w={weights[i]!r}")
                for (i,) in np.argwhere(~np.isfinite(weights))[:_MAX_REPORTED]]
    found = [Violation("negative_weight", (int(i),), f"w={weights[i]!r}")
             for (i,) in np.argwhere(weights < 0.0)[:_MAX_REPORTED]]
    if len(weights) and weights.sum() <= 0.0:
        found.append(Violation("zero_total_mass", (), f"total mass {weights.sum()!r} is not positive"))
    return found


def _check_weights(weights: np.ndarray) -> None:
    """validate_space's weight axioms alone, with no second metric scan."""
    found = _weight_violations(weights)
    if found:
        raise SpaceValidationError(found, dict(Counter(v.kind for v in found)))


def validate_space(
    points: Sequence[str],
    dist: np.ndarray | Sequence[Sequence[float]],
    weights: np.ndarray | Sequence[float],
) -> FiniteMMSpace:
    """Check every finite-mm-space axiom and return the space, or raise
    SpaceValidationError listing each violated axiom with the offending
    index tuple.

    Axioms: labels unique; dist square/finite, exactly symmetric, zero
    diagonal, positive off-diagonal, triangle inequality under float64
    sums; weights finite, >= 0, with positive total mass.
    """
    points = tuple(str(p) for p in points)
    dist = np.asarray(dist, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n = len(points)
    violations: list[Violation] = []
    counts: dict[str, int] = {}

    def add(kind: str, indices: tuple[int, ...], detail: str) -> None:
        if counts.get(kind, 0) < _MAX_REPORTED:
            violations.append(Violation(kind, indices, detail))
        counts[kind] = counts.get(kind, 0) + 1

    if n == 0:
        add("empty", (), "a space needs at least one point")
    if len(set(points)) != n:
        dupes = [p for p in set(points) if points.count(p) > 1]
        add("duplicate_label", (), f"repeated labels: {dupes[:5]}")

    if dist.shape != (n, n):
        add("shape", (), f"dist has shape {dist.shape}, expected {(n, n)}")
        raise SpaceValidationError(violations, counts)
    if weights.shape != (n,):
        add("shape", (), f"weights has shape {weights.shape}, expected {(n,)}")
        raise SpaceValidationError(violations, counts)

    if not np.isfinite(dist).all():
        for i, j in np.argwhere(~np.isfinite(dist))[:_MAX_REPORTED]:
            add("nonfinite_distance", (int(i), int(j)), f"d={dist[i, j]!r}")
    else:
        for i, j in np.argwhere(dist != dist.T)[:_MAX_REPORTED]:
            add("asymmetry", (int(i), int(j)), f"{dist[i, j]!r} != {dist[j, i]!r}")
        for (i,) in np.argwhere(np.diag(dist) != 0.0)[:_MAX_REPORTED]:
            add("nonzero_diagonal", (int(i),), f"d[{i},{i}]={dist[i, i]!r}")
        off = dist.copy()
        np.fill_diagonal(off, 1.0)
        for i, j in np.argwhere(off <= 0.0)[:_MAX_REPORTED]:
            add(
                "nonpositive_distance",
                (int(i), int(j)),
                f"d={dist[i, j]!r} between distinct points",
            )
        if not violations and not _triangle_holds(dist):
            _check_triangle(dist, add, counts)

    for v in _weight_violations(weights):
        add(v.kind, v.indices, v.detail)

    if violations:
        raise SpaceValidationError(violations, counts)
    return FiniteMMSpace(points, dist.copy(), weights.copy())


def merge_coincident_points(
    points: Sequence[str],
    dist: np.ndarray,
    weights: np.ndarray | Sequence[float],
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Collapse points at exact distance zero into one atom (weights add,
    first label wins).  Preprocessing for data that fails the
    positive-distance axiom; the result still needs validate_space.
    """
    dist = np.asarray(dist, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n = dist.shape[0]
    keep: list[int] = []
    owner = np.full(n, -1)
    for i in range(n):
        if owner[i] >= 0:
            continue
        owner[i] = len(keep)
        same = np.flatnonzero((dist[i] == 0.0) & (owner < 0))
        owner[same] = len(keep)
        keep.append(i)
    idx = np.array(keep, dtype=np.intp)
    return (
        tuple(str(points[i]) for i in keep),
        dist[np.ix_(idx, idx)].copy(),
        _group_masses(weights, owner, len(keep)),
    )


def closed_ball(space: FiniteMMSpace, center: int, radius: float) -> PointSet:
    """Indices y with d(center, y) <= radius; exact float comparison."""
    if not 0 <= center < space.n:
        raise IndexError(f"center {center} out of range for {space.n} points")
    if not radius >= 0:
        raise ValueError("radius must be >= 0")
    return PointSet.from_mask(space.dist[center] <= radius)


def _ball_mass_blocks(space: FiniteMMSpace, radii, centers=None):
    """Masses of B(x, r) for radii r >= 0, one (block, len(radii)) array per
    _ROW_BLOCK centers x (default every point).  The one ball-mass
    convention: each row is sorted once (stable, so ties keep index order),
    and B(x, r) weighs its weights' cumulative sum up to the last d <= r."""
    radii = np.asarray(radii, dtype=np.float64)
    centers = np.arange(space.n) if centers is None else np.asarray(centers, dtype=np.intp)
    counts = np.empty((min(_ROW_BLOCK, len(centers)), len(radii)), dtype=np.intp)
    for lo in range(0, len(centers), _ROW_BLOCK):
        block = space.dist[centers[lo : lo + _ROW_BLOCK]]
        order = np.argsort(block, axis=1, kind="stable")
        rows = np.take_along_axis(block, order, axis=1)
        cum = np.cumsum(space.weights[order], axis=1)
        ends = counts[: len(block)]
        for x, row in enumerate(rows):
            ends[x] = np.searchsorted(row, radii, side="right")
        yield np.take_along_axis(cum, ends - 1, axis=1)


def _group_masses(weights: np.ndarray, labels: np.ndarray, n_labels: int) -> np.ndarray:
    """Mass of each label of a labeling of the points, at least n_labels
    entries.  The one per-label mass convention: np.bincount adds each
    point's weight in ascending index order, from 0.0 (floats on no points)."""
    return np.bincount(labels, weights=weights, minlength=n_labels).astype(np.float64, copy=False)


def ball_mass(space: FiniteMMSpace, center: int, radius: float) -> float:
    if not 0 <= center < space.n:
        raise IndexError(f"center {center} out of range for {space.n} points")
    if not radius >= 0:
        raise ValueError("radius must be >= 0")
    return float(next(_ball_mass_blocks(space, [radius], [center]))[0, 0])


@dataclass(frozen=True)
class Net:
    """Greedy epsilon-net: members are pairwise >= epsilon apart, and
    every point of the space is within < epsilon of some member."""

    epsilon: float
    members: PointSet


def build_net(space: FiniteMMSpace, epsilon: float) -> Net:
    """Greedy scan in index order: admit a point iff it is at distance
    >= epsilon from every point admitted so far.

    The >= convention means a point exactly epsilon away still joins the
    net; maximality (every rejected point within < epsilon of a member)
    holds because rejection is exactly the complementary comparison.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be > 0")
    admitted: list[int] = []
    near = np.full(space.n, np.inf)  # distance to the nearest admitted point
    for i in range(space.n):
        if near[i] >= epsilon:
            admitted.append(i)
            np.minimum(near, space.dist[i], out=near)
    return Net(float(epsilon), PointSet.of(admitted))


def packing_multiplicity(space: FiniteMMSpace, net: Net, center: int, radius: float) -> int:
    """Number of net members inside the closed ball around a net member."""
    members = list(net.members)
    if center not in net.members:
        raise ValueError(f"center {center} is not a net member")
    return int((space.dist[center, members] <= radius).sum())
