"""Finite metric measure spaces: validation, balls, and greedy nets.

Public functions: validate_space (every axiom, or SpaceValidationError
listing the violations), ball_mass (the mass of a closed ball) and
build_net (a greedy epsilon-net).

The mass conventions live here: ball masses (_ball_mass_blocks) and
per-label masses (_group_masses), which fibers, groups and components use.
A ball mass orders its center's row by (distance rank, index) and adds
the weights sequentially in that order.

Every space ranks its distances in one table, its grades: the pair
(table, hops) with dist == table[hops], table strictly increasing from 0
and holding exactly the distinct distances, and hops the integer rank
matrix.  A generated cube or torus hands over its hop matrix and table,
and a product of them the ranks of its closed table; validate_space
proves such a pair against the matrix (_prove_grades, which raises
RuntimeError on a pair that fails: a bug in its generator) and keeps it.
Every other space has _grade build them from the matrix the first time
they are read.  Distinct distances, the diameter, ball masses and the
hop certificate all read them, so nothing else turns a distance into a
rank."""

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
    the arrays are frozen so a space can be shared safely.  grades is the
    pair (table, hops) of the module docstring.  The cube and torus
    generators and their products hand theirs over as _grades, which
    validate_space proves and keeps, and a space that reuses another's
    metric passes on what that one holds; otherwise _grade makes them the
    first time grades is read, and the space keeps them.  The diameter is
    the table's last entry.
    """

    points: tuple[str, ...]
    dist: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    _grades: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for array in (self.dist, self.weights, *(self._grades or ())):
            array.setflags(write=False)

    @property
    def grades(self) -> tuple[np.ndarray, np.ndarray]:
        if self._grades is None:
            object.__setattr__(self, "_grades", _grade(self.dist))
            self.__post_init__()  # freezes them
        return self._grades

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def diameter(self) -> float:
        return float(self.grades[0][-1])

    def distinct_distances(self) -> np.ndarray:
        """Sorted distinct off-diagonal distances (empty for one point)."""
        return self.grades[0][1:]


def _grade(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The grades of a matrix: table is 0 and the distinct values above
    the diagonal, sorted, and hops the place of each entry in table, in
    the smallest unsigned type that holds len(table).  Needs a symmetric
    matrix, as every validated space has, so that each entry is in table.
    Rows go in blocks of _ROW_BLOCK, so no n^2-sized index or float copy
    is built."""
    n = dist.shape[0]
    parts = [np.zeros(1)]
    for lo in range(0, n, _ROW_BLOCK):
        rows = dist[lo : lo + _ROW_BLOCK]
        parts.append(np.unique(rows[np.triu(np.ones(rows.shape, dtype=bool), k=lo + 1)]))
    table = np.unique(np.concatenate(parts))
    hops = np.empty((n, n), dtype=np.min_scalar_type(len(table)))
    for lo in range(0, n, _ROW_BLOCK):
        hops[lo : lo + _ROW_BLOCK] = np.searchsorted(table, dist[lo : lo + _ROW_BLOCK])
    return table, hops


def _prove_grades(dist: np.ndarray, table: np.ndarray, hops: np.ndarray) -> None:
    """Prove that (table, hops), the grades a generator claims for dist,
    are its grades: table[0] == 0, table strictly increasing, hops an
    integer n x n matrix with dist == table[hops], and every rank some
    entry's, so that table holds exactly the distinct distances.  Rows go
    in blocks of _ROW_BLOCK, and np.bincount of each block's ranks marks
    the ranks it uses.  A pair that fails is the generator's bug: raises
    RuntimeError naming the first rule it breaks."""
    n = dist.shape[0]
    fault = None
    if not (table.ndim == 1 and len(table) and table[0] == 0.0 and (np.diff(table) > 0.0).all()):
        fault = "the table does not increase strictly from 0"
    elif hops.shape != (n, n) or hops.dtype.kind not in "iu":
        fault = f"the hop matrix is not an integer {n} x {n} matrix"
    used = np.zeros(len(table), dtype=bool)
    for lo in range(0, n if fault is None else 0, _ROW_BLOCK):
        ranks = hops[lo : lo + _ROW_BLOCK].ravel()
        if not (0 <= ranks.min() and ranks.max() < len(table)
                and np.array_equal(table[ranks], dist[lo : lo + _ROW_BLOCK].ravel())):
            fault = f"dist != table[hops] in rows {lo} to {min(lo + _ROW_BLOCK, n) - 1}"
            break
        used |= np.bincount(ranks, minlength=len(table)) > 0
    if fault is None and not used.all():
        unused = int(np.argmin(used))
        fault = f"no distance is table[{unused}] = {float(table[unused])!r}"
    if fault is not None:
        raise RuntimeError(f"grades do not describe the metric: {fault}; this is a bug")


def _hop_certificate(space: FiniteMMSpace) -> bool:
    """A sufficient test for the triangle inequality of a metric t o K,
    with K the hop metric of a graph and t an increasing table, read as
    the space's grades (t, K) with t[0] = 0 < ... < t[V].  Accepted when
      (a) t[min(a + b, V)] <= fl(t[a] + t[b]) for all a, b, and
      (b) with N(i) = {j : K[i,j] = 1} nonempty for every i, each
          k != i has min over j in N(i) of K[j,k] == K[i,k] - 1.
    Given a zero diagonal, (b) makes K the hop metric of the graph N, so
    K[i,k] <= K[i,j] + K[j,k], and then d[i,k] = t[K[i,k]] <=
    t[min(V, K[i,j] + K[j,k])] <= fl(d[i,j] + d[j,k]) by (a).

    Under (b) a shortest path to the farthest point passes every hop
    count, so a farthest row that misses a rank is declined first; then
    V < n and (a) costs O(n^2).  (b) takes the points in blocks of
    _ROW_BLOCK of like degree, one neighbour row per point at a time, so
    it costs O(n * (edges + _ROW_BLOCK * max degree)); a graph of more
    than _ROW_BLOCK edges per point goes to _check_triangle, and the
    certificate stays O(_ROW_BLOCK * n^2) with buffers of _ROW_BLOCK rows
    beside the n x n grades.
    """
    n = space.n
    if n < 2:  # nothing to certify: _check_triangle answers at once
        return False
    table, ranks = space.grades
    top = len(table) - 1
    if len(np.unique(ranks[np.argmax(ranks.max(axis=1))])) <= top:
        return False
    steps = np.arange(top + 1)
    for lo in range(0, top + 1, _ROW_BLOCK):
        a = steps[lo : lo + _ROW_BLOCK, None]
        if (table[np.minimum(a + steps, top)] > table[a] + table).any():
            return False
    edges = ranks == 1
    degree = np.count_nonzero(edges, axis=1)
    if not degree.all() or degree.sum() > _ROW_BLOCK * n:
        return False
    _, hop = np.nonzero(edges)  # the neighbours of point 0, then of point 1, ...
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
    *,
    grades: tuple[np.ndarray, np.ndarray] | None = None,
) -> FiniteMMSpace:
    """Check every finite-mm-space axiom and return the space, or raise
    SpaceValidationError listing the first _MAX_REPORTED offending index
    tuples of each violated axiom and counting all of them.

    Axioms: labels unique; dist square/finite, exactly symmetric, zero
    diagonal, positive off-diagonal, triangle inequality under float64
    sums; weights finite, >= 0, with positive total mass.  The space
    returned is the one the triangle certificate read, grades and all.

    grades is the (table, hops) pair a generator claims for dist.  Once
    dist is finite, symmetric, zero on the diagonal and positive off it,
    _prove_grades proves the pair against it before the certificate
    reads it, and the space keeps it, so nothing ranks dist again; a pair
    that fails the proof is a bug and raises RuntimeError.  Without
    grades the certificate has _grade rank dist.
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
    space = FiniteMMSpace(points, dist, weights)

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
        if not found.counts:
            if grades is not None:
                _prove_grades(dist, *grades)
                space = FiniteMMSpace(points, dist, weights, _grades=grades)
            if not _hop_certificate(space):
                _check_triangle(dist, found)

    _check_weights(weights, n, found)
    return space


def _ball_mass_blocks(space: FiniteMMSpace, count: int, centers=None):
    """Masses of B(x, t) at each of the first count entries t of the
    space's grade table, one (block, count) array per block of centers x
    (default every point); a caller reads the mass at radius r at the last
    entry <= r.

    The one ball-mass convention: each row is ordered by (distance rank,
    index), the rank of table[h] being h, read off the hop rows and
    clamped at count, and B(x, t) weighs the sequential cumulative sum of
    the weights up to the last d <= t.  That is the order by (distance,
    index) up to table[count - 1]; distances above it share rank count
    and are never read.  The ranks are small integers, so the stable sort
    is a radix sort up to 65,535 table values.  A block has _ROW_BLOCK
    rows, fewer for a long table, so its arrays stay near _ROW_BLOCK * n
    entries.  A doubling profile calls it once, at the table's prefix up
    to four times its horizon, and reads every doubling constant off
    those masses."""
    hops = space.grades[1]
    width = count + 1  # ranks 0 .. count, the last above the table
    cap = np.full(space.n, count, dtype=hops.dtype)  # an array: a scalar minimum is not vectorized
    centers = np.arange(space.n) if centers is None else np.asarray(centers, dtype=np.intp)
    step = max(1, min(_ROW_BLOCK, _ROW_BLOCK * space.n // width))
    for lo in range(0, len(centers), step):
        ranks = np.minimum(hops[centers[lo : lo + step]], cap)
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
    count = int(np.searchsorted(space.grades[0], radius, side="right"))
    return float(next(_ball_mass_blocks(space, count, [center]))[0, -1])


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
