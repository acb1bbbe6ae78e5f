"""Finite metric measure spaces: validation, balls, and greedy nets.

Public functions: validate_space (every axiom, or SpaceValidationError
listing the violations), ball_mass (the mass of a closed ball) and
build_net (a greedy epsilon-net).

The mass conventions live here: ball masses (_ball_mass_blocks) and
per-label masses (_group_masses), which fibers, groups and components use.
A ball mass orders its center's row by (distance rank, index) and adds
the weights sequentially in that order; the ranks are places in a sorted
table that holds every distance value of the row up to its last entry.

A generated cube or torus carries its grades, the pair (table, hops)
with dist == table[hops]: hops is its integer hop matrix and table its
distinct distances, strictly increasing from 0.  Its distinct distances
are then table[1:], and a ball mass at a prefix of table reads its ranks
off the hop rows; every other space, and every other table, takes the
float path, with the same bytes."""

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
    "validate_space",
]

_MAX_REPORTED = 50  # rows listed per violation kind; every row is counted
_ROW_BLOCK = 64  # rows per pass of the row scans below; their buffers stay near 64 x n,
# so ball masses at a table of t values take about 64 * n / (t + 1) rows at a time


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


class _Findings:
    """The one recorder of axiom violations: it lists the first
    _MAX_REPORTED rows of each kind and counts all of them."""

    def __init__(self):
        self.violations: list[Violation] = []
        self.counts: dict[str, int] = {}

    def record(self, kind: str, rows, detail: str, values=None, count=None) -> None:
        """Record rows, the offending index tuples of one kind in report
        order, out of count of that kind in all (default len(rows)).  A
        listed row's detail is formatted with its indices as i, j, k and
        values(*row), each printed as repr(float(v)); without values it is
        the text as given."""
        seen = self.counts.get(kind, 0)
        for row in rows[: max(_MAX_REPORTED - seen, 0)]:
            row = tuple(int(i) for i in row)
            text = detail if values is None else detail.format(
                *(repr(float(v)) for v in values(*row)), **dict(zip("ijk", row)))
            self.violations.append(Violation(kind, row, text))
        count = len(rows) if count is None else count
        if count:
            self.counts[kind] = seen + count

    def raise_if_any(self) -> None:
        if self.counts:
            raise SpaceValidationError(self.violations, self.counts)


@dataclass(frozen=True)
class PointSet:
    """Sorted, duplicate-free point indices of some space."""

    indices: tuple[int, ...]

    @classmethod
    def of(cls, indices: Iterable[int]) -> "PointSet":
        return cls(tuple(sorted(set(int(i) for i in indices))))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


@dataclass(frozen=True)
class FiniteMMSpace:
    """Points with an exact float64 metric matrix and nonnegative weights.

    Construct through validate_space (or a generator in mmconc.families);
    the arrays are frozen so a space can be shared safely.  grades, when
    set, is the pair (table, hops) of the module docstring: only the cube
    and torus generators make one, and a space that reuses their metric
    with other weights passes it on.
    """

    points: tuple[str, ...]
    dist: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    grades: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for array in (self.dist, self.weights, *(self.grades or ())):
            array.setflags(write=False)

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
        """Sorted distinct off-diagonal distances (empty for one point):
        table[1:] of a graded space, else rows go in blocks, so no
        n^2-sized index or copy is built."""
        if self.grades is not None:
            return self.grades[0][1:]
        parts = [np.zeros(0)]
        for lo in range(0, self.n, _ROW_BLOCK):
            rows = self.dist[lo : lo + _ROW_BLOCK]
            above = np.triu(np.ones(rows.shape, dtype=bool), k=lo + 1)
            parts.append(np.unique(rows[above]))
        return np.unique(np.concatenate(parts))


def _hop_certificate(dist: np.ndarray) -> bool:
    """A sufficient test for the triangle inequality of a metric t o K,
    with K the hop metric of a graph and t an increasing table.

    t is read as the distinct values 0 = t[0] < ... < t[V] of the row
    holding the largest entry (for t o K, a shortest path to the
    farthest point passes every hop count) and K is the rank matrix of
    dist in t; every entry must be in t.  Accepted when
      (a) t[min(a + b, V)] <= fl(t[a] + t[b]) for all a, b, and
      (b) with N(i) = {j : K[i,j] = 1} nonempty for every i, each
          k != i has min over j in N(i) of K[j,k] == K[i,k] - 1.
    Given a zero diagonal, (b) makes K the hop metric of the graph N, so
    K[i,k] <= K[i,j] + K[j,k], and then d[i,k] = t[K[i,k]] <=
    t[min(V, K[i,j] + K[j,k])] <= fl(d[i,j] + d[j,k]) by (a).

    (b) takes the points in blocks of _ROW_BLOCK of like degree, one
    neighbour row per point at a time, so it costs O(n * (edges +
    _ROW_BLOCK * max degree)); a graph of more than _ROW_BLOCK edges per
    point goes to _check_triangle, and the certificate stays
    O(_ROW_BLOCK * n^2) with buffers of _ROW_BLOCK rows beside an n x n
    rank matrix.
    """
    n = dist.shape[0]
    if n < 2:  # nothing to certify: _check_triangle answers at once
        return False
    table = np.unique(dist[np.argmax(dist.max(axis=1))])
    top = len(table) - 1
    if table[0] != 0.0:
        return False
    ranks = np.empty((n, n), dtype=np.int16 if top < np.iinfo(np.int16).max else np.int32)
    degree = np.empty(n, dtype=np.intp)
    for lo in range(0, n, _ROW_BLOCK):
        rows = dist[lo : lo + _ROW_BLOCK]
        rank = np.minimum(np.searchsorted(table, rows), top)
        if not np.array_equal(table[rank], rows):
            return False
        ranks[lo : lo + _ROW_BLOCK] = rank
        degree[lo : lo + _ROW_BLOCK] = np.count_nonzero(rank == 1, axis=1)
    steps = np.arange(top + 1)
    for lo in range(0, top + 1, _ROW_BLOCK):
        a = steps[lo : lo + _ROW_BLOCK, None]
        if (table[np.minimum(a + steps, top)] > table[a] + table).any():
            return False
    if ranks.diagonal().any():
        return False
    if not degree.all() or degree.sum() > _ROW_BLOCK * n:
        return False
    _, hop = np.nonzero(ranks == 1)  # the neighbours of point 0, then of point 1, ...
    first = np.cumsum(degree) - degree  # where each point's neighbours start in hop
    order = np.argsort(degree, kind="stable")
    for lo in range(0, n, _ROW_BLOCK):
        points = order[lo : lo + _ROW_BLOCK]  # of like degree, the last the highest
        reach = ranks[hop[first[points]]]
        for s in range(1, int(degree[points[-1]])):  # a point of lower degree repeats its last
            np.minimum(reach, ranks[hop[first[points] + np.minimum(s, degree[points] - 1)]], out=reach)
        reach += 1
        reach[np.arange(len(points)), points] = 0
        if not np.array_equal(reach, ranks[points]):
            return False
    return True


def _check_triangle(dist: np.ndarray, found: _Findings) -> None:
    """Record every triple with d[i,k] > fl(d[i,j] + d[j,k]): the first
    _MAX_REPORTED in hub order (j, then i, then k), and the count of all.

    Needs an exactly symmetric matrix: the test for (k, j, i) is then
    the one for (i, j, k), because fl(a + b) == fl(b + a), so only pairs
    i <= k are scanned.  Rows go in blocks of _ROW_BLOCK; for each hub j
    one preallocated buffer holds d[i,j] + d[j,k] over the block's rows i
    and the columns k from the block's first row on, so a failing column
    k past the block also stands for the triple (k, j, i), which no later
    block scans.  d > fl(a + b) is the same test as the hub loop's
    d - fl(a + b) > 0.  The listing keeps the first triples found so far
    in hub order; once it is full, a hub past its last one is only counted.
    validate_space runs it when _hop_certificate declines."""
    n = dist.shape[0]
    sums = np.empty((min(_ROW_BLOCK, n), n))
    above = np.empty(sums.shape, dtype=bool)
    listed, count = np.zeros((0, 3), dtype=np.intp), 0
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        block = dist[lo:hi, lo:]
        buf = sums[: hi - lo, : n - lo]
        bad = above[: hi - lo, : n - lo]
        for j in range(n):
            np.add(dist[lo:hi, j, None], dist[j, None, lo:], out=buf)
            np.greater(block, buf, out=bad)
            if not bad.any():
                continue
            past = bad[:, hi - lo :]
            count += int(np.count_nonzero(bad) + np.count_nonzero(past))
            if len(listed) == _MAX_REPORTED and j > listed[-1, 1]:
                continue
            i, k = (a[:_MAX_REPORTED] for a in np.nonzero(bad))  # each in (i, k) order
            mk, mi = (a[:_MAX_REPORTED] for a in np.nonzero(past.T))  # each in (k, i) order
            listed = np.concatenate([listed, np.column_stack([i + lo, np.full_like(i, j), k + lo]),
                                     np.column_stack([mk + hi, np.full_like(mk, j), mi + lo])])
            listed = listed[np.lexsort(listed.T[[2, 0, 1]])][:_MAX_REPORTED]  # by j, i, k
    found.record("triangle", listed, "d[{i},{k}]={} > d[{i},{j}] + d[{j},{k}] = {}",
                 lambda i, j, k: (dist[i, k], dist[i, j] + dist[j, k]), count=count)


def _pair_violations(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j) with d[i,j] != d[j,i], and those with i != j and
    d[i,j] <= 0, each in row-major order.  Rows go in blocks of _ROW_BLOCK
    into one boolean buffer, so no n x n temporary is built."""
    n = dist.shape[0]
    asymmetric, nonpositive = [np.zeros((0, 2), dtype=np.intp)], [np.zeros((0, 2), dtype=np.intp)]
    bad = np.empty((min(_ROW_BLOCK, n), n), dtype=bool)
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        buf = bad[: hi - lo]
        np.not_equal(dist[lo:hi], dist[:, lo:hi].T, out=buf)
        if buf.any():
            asymmetric.append(np.argwhere(buf) + (lo, 0))
        np.less_equal(dist[lo:hi], 0.0, out=buf)
        buf[np.arange(hi - lo), np.arange(lo, hi)] = False  # the diagonal has its own rule
        if buf.any():
            nonpositive.append(np.argwhere(buf) + (lo, 0))
    return np.concatenate(asymmetric), np.concatenate(nonpositive)


def _check_weights(weights: np.ndarray, n: int, found: _Findings | None = None) -> None:
    """The weight rules: one weight per point, each finite and >= 0, with
    positive total mass.  Raises what they and validate_space's earlier
    findings, if given, record."""
    found = _Findings() if found is None else found
    if weights.shape != (n,):
        found.record("shape", [()], f"weights has shape {weights.shape}, expected {(n,)}")
        found.raise_if_any()
    if not np.isfinite(weights).all():
        found.record("nonfinite_weight", np.argwhere(~np.isfinite(weights)), "w={}",
                     lambda i: (weights[i],))
    else:
        found.record("negative_weight", np.argwhere(weights < 0.0), "w={}", lambda i: (weights[i],))
        if weights.sum() <= 0.0:
            found.record("zero_total_mass", [()], "total mass {} is not positive",
                         lambda: (weights.sum(),))
    found.raise_if_any()


def validate_space(
    points: Sequence[str],
    dist: np.ndarray | Sequence[Sequence[float]],
    weights: np.ndarray | Sequence[float],
) -> FiniteMMSpace:
    """Check every finite-mm-space axiom and return the space, or raise
    SpaceValidationError listing the first _MAX_REPORTED offending index
    tuples of each violated axiom and counting all of them.

    Axioms: labels unique; dist square/finite, exactly symmetric, zero
    diagonal, positive off-diagonal, triangle inequality under float64
    sums; weights finite, >= 0, with positive total mass.
    """
    points = tuple(str(p) for p in points)
    dist = np.array(dist, dtype=np.float64)  # the returned space's own arrays
    weights = np.array(weights, dtype=np.float64)
    n = len(points)
    found = _Findings()

    if n == 0:
        found.record("empty", [()], "a space needs at least one point")
    dupes = [p for p, k in Counter(points).items() if k > 1]  # in order of first appearance
    if dupes:
        found.record("duplicate_label", [()], f"repeated labels: {dupes[:5]}")

    if dist.shape != (n, n):
        found.record("shape", [()], f"dist has shape {dist.shape}, expected {(n, n)}")
        found.raise_if_any()

    if not np.isfinite(dist).all():
        found.record("nonfinite_distance", np.argwhere(~np.isfinite(dist)), "d={}",
                     lambda i, j: (dist[i, j],))
    else:
        asymmetric, nonpositive = _pair_violations(dist)
        found.record("asymmetry", asymmetric, "{} != {}", lambda i, j: (dist[i, j], dist[j, i]))
        found.record("nonzero_diagonal", np.argwhere(np.diag(dist) != 0.0), "d[{i},{i}]={}",
                     lambda i: (dist[i, i],))
        found.record("nonpositive_distance", nonpositive,
                     "d={} between distinct points", lambda i, j: (dist[i, j],))
        if not found.counts and not _hop_certificate(dist):
            _check_triangle(dist, found)

    _check_weights(weights, n, found)
    return FiniteMMSpace(points, dist, weights)


def _ball_mass_blocks(space: FiniteMMSpace, table, centers=None):
    """Masses of B(x, t) at each entry t of table, one (block, len(table))
    array per block of centers x (default every point).

    Needs table sorted and holding every distance value of the centers'
    rows up to table[-1] (more values do no harm); a caller reads the mass
    at radius r at the last entry <= r.  The one ball-mass convention:
    each row is ordered by (distance rank, index), the rank of d being its
    place in table, and B(x, t) weighs the sequential cumulative sum of
    the weights up to the last d <= t.  By the precondition that is the
    order by (distance, index) up to table[-1]; distances above it share
    the last rank and are never read.  The ranks are small integers, so
    the stable sort is a radix sort up to 65,535 table values.  The ranks
    come from searchsorted over the float rows, except on a graded space
    whose grade table begins with table: there the rank of table[h] is the
    hop count h, so the hop rows are the ranks as they stand, or clamped
    at len(table) when table stops short of the diameter.  A block
    has _ROW_BLOCK rows, fewer for a long table, so its arrays stay near
    _ROW_BLOCK * n entries.  A doubling profile calls it once, at the
    space's distinct distances, and reads every doubling constant off
    those masses."""
    table = np.asarray(table, dtype=np.float64)
    width = len(table) + 1  # ranks 0 .. len(table), the last above the table
    grades = space.grades
    if grades is not None and not np.array_equal(grades[0][: len(table)], table):
        grades = None  # a table the hop counts do not index
    rank_type = np.min_scalar_type(len(table))
    centers = np.arange(space.n) if centers is None else np.asarray(centers, dtype=np.intp)
    step = max(1, min(_ROW_BLOCK, _ROW_BLOCK * space.n // width))
    for lo in range(0, len(centers), step):
        rows = centers[lo : lo + step]
        if grades is None:
            ranks = np.searchsorted(table, space.dist[rows]).astype(rank_type)
        elif len(table) < len(grades[0]):
            ranks = np.minimum(grades[1][rows], len(table))
        else:
            ranks = grades[1][rows]
        order = np.argsort(ranks, axis=1, kind="stable")
        cum = np.cumsum(space.weights[order], axis=1)
        keys = np.arange(len(ranks))[:, None] * width + ranks
        ends = np.bincount(keys.ravel(), minlength=len(ranks) * width)
        ends = np.cumsum(ends.reshape(len(ranks), width)[:, :-1], axis=1)
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
    table = np.unique(space.dist[center])
    masses = next(_ball_mass_blocks(space, table, [center]))
    return float(masses[0, np.searchsorted(table, radius, side="right") - 1])


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
