"""Standard space families and the concentration-trend experiment.

Generated metrics are exactly subadditive at float level (repaired
fraction tables, shortest paths on an integer grid, the product's
closure), so every generated space passes the validator's triangle check
with zero tolerance.  A cube's metric is its fraction table at the hop
counts, so a map through the same table, such as the coordinate mean behind
binomial_mean_measure, passes the exact 1-Lipschitz check too.

This module reads no files and never imports formats: a product's factor
may be a space built elsewhere, such as a parsed document.

Cubes and tori hand over their hop matrix and table as their grades
(uint8 hops for a cube, int16 for a torus, beside the float64 matrix), a
product of cubes and tori the ranks of its closed table at the factors'
hop matrices, and a spec's own weights pass on what the space holds.
generate validates a fresh copy of the matrix, so its certificate ranks
what the generator built and never reads the generator's hops; a space
the generator did not grade, such as a graph or a product with another
factor, is returned as that copy, with the grades the certificate built.

Costs: a cube's hop matrix is n block doublings and its metric one table
lookup per pair (cube 11 with spec weights generates in about 24 ms on
one core of a 2-vCPU Xeon, 39 ms with the popcount table it replaced); a
torus's arcs are turned in place in one int16 array; a weighted graph
takes two dijkstra runs.  A product of cubes and tori closes a table on
the grid of hop counts, O(cells^2) per pass, and gathers its ranks in
one broadcast: on the same core, the weighted 8 x 12 torus product
generates in 3 ms and the 32 x 32 one in 0.04 s, where the matrix
closure took 25 ms and 9.2 s, and the 64 x 64 one, 4,096 points, in
0.15 s.  A product with any other factor keeps the exact matrix closure,
O(n^3) per pass.  generate re-validates every space of up to
_VALIDATE_CAP points.  Cubes, tori, unit-length graphs and products
whose distance ranks are hop counts (two equal normalized tori) pass the
validator's O(n^2) hop-metric certificate (about 15 ms at 1,024 points
on one core of a 2-vCPU Xeon); other products and graphs take its one
O(n^3) triangle pass, about 0.8 s at 1,024 points, which also lists the
violations of a broken metric.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._numeric import (check_counts, check_family, exact_triangle_closure, floor_sum, stable_seed,
                       subadditive_table)
from .doubling import concentration_witness, doubling_profile
from .observable import obsdiam_screen_estimate, pushforward_screen
from .separation import DEFAULT_ASSIGNMENT_BUDGET, RealMeasure, sep
from .space import FiniteMMSpace, Net, _check_weights, build_net, validate_space

__all__ = [
    "FamilySpec",
    "LevyReport",
    "binomial_mean_measure",
    "default_screen_roster",
    "generate",
    "run_levy_experiment",
]

POINT_CAP = 4096
# the largest size n of each kind with at most POINT_CAP points
_MAX_SIZE = {"hamming_cube": POINT_CAP.bit_length() - 1,  # 2^n points
             "discrete_torus": POINT_CAP, "weighted_graph": POINT_CAP}
# generate re-validates up to this size.  A product or a general graph
# takes the O(n^3) triangle pass, about 0.8 s at 1,024 points on one core
# and 8x that at 2,048; a cube or torus takes the O(n^2) certificate, but
# validate_space makes its own copy of the matrix (one copy, 32 MB at
# 2,048 points) and grades it, an n x n hop matrix beside it
_VALIDATE_CAP = 1024
_GRID_BITS = 50  # a weighted graph's edge unit is 2^-50 of its scale
_HOP_KINDS = ("hamming_cube", "discrete_torus")  # whose generators hand over a hop metric


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for one generated space.

    kind: hamming_cube | discrete_torus | weighted_graph | product.  n is
    the size parameter (cube dimension, torus length, graph node count).
    normalized divides the metric by its natural scale so diameters stay
    bounded along the family.  A product's factors are specs or spaces
    already built, such as a parsed document; only a space document names
    a file (formats reads its custom_file generators).  A spec that breaks
    its kind's size rule (_points) is refused when it is made.
    """

    kind: str
    n: int = 0
    normalized: bool = True
    weights: tuple[float, ...] | None = None  # None = the kind's own
    edges: tuple[tuple[int, int, float], ...] = ()
    factors: tuple["FamilySpec | FiniteMMSpace", ...] = ()

    def __post_init__(self):
        _points(self)


def _points(spec: FamilySpec) -> int:
    """The number of points of the space a spec describes, once its size
    rule holds: n in 1.._MAX_SIZE[kind], or for a product two or more
    factors (specs or spaces) and at most POINT_CAP points in all."""
    if spec.kind == "product":
        total = math.prod(f.n if isinstance(f, FiniteMMSpace) else _points(f) for f in spec.factors)
        if len(spec.factors) < 2 or total > POINT_CAP:
            raise ValueError(f"a product needs two or more factors and at most {POINT_CAP} "
                             f"points; got {len(spec.factors)} with {total} points")
        return total
    if spec.kind not in _MAX_SIZE:
        raise ValueError(f"unknown family kind {spec.kind!r}")
    if not 1 <= spec.n <= _MAX_SIZE[spec.kind]:
        raise ValueError(f"{spec.kind} size must be in 1..{_MAX_SIZE[spec.kind]}, got {spec.n}")
    return 1 << spec.n if spec.kind == "hamming_cube" else spec.n


def _with_weights(space: FiniteMMSpace, weights) -> FiniteMMSpace:
    """The space with explicit weights, checked at any size (the metric
    keeps its checks, and the grades the space holds pass on unbuilt).
    A spec's weights and a document's come this way."""
    w = np.asarray(weights, dtype=np.float64)
    _check_weights(w, space.n)
    return FiniteMMSpace(space.points, space.dist, w, _grades=space._grades)


def _hamming_cube(spec: FamilySpec) -> FiniteMMSpace:
    """The cube's hop matrix by block doubling: of the first 2^(k+1)
    points, those whose bit k differs from point i's lie in the other
    half, one hop farther than their twins in i's half.  The space keeps
    it, with its table, as its grades."""
    n = spec.n
    size = 1 << n
    hops = np.zeros((1, 1), dtype=np.uint8)
    for _ in range(n):
        hops = np.block([[hops, hops + 1], [hops + 1, hops]])
    table = subadditive_table(n, 1.0, float(n)) if spec.normalized else np.arange(n + 1, dtype=np.float64)
    labels = tuple(format(i, f"0{n}b") for i in range(size))
    return FiniteMMSpace(labels, table[hops], np.full(size, 1.0 / size), _grades=(table, hops))


def _discrete_torus(spec: FamilySpec) -> FiniteMMSpace:
    """The cycle's arcs in one int16 array, turned in place; the space
    keeps them, with its table, as its grades."""
    n = spec.n
    idx = np.arange(n, dtype=np.int16)  # POINT_CAP < 2**15
    arcs = idx[:, None] - idx[None, :]
    np.abs(arcs, out=arcs)
    np.minimum(arcs, n - arcs, out=arcs)
    if spec.normalized:
        table = subadditive_table(n // 2, 1.0, float(n))
    else:
        table = np.arange(n // 2 + 1, dtype=np.float64)
    labels = tuple(str(i) for i in range(n))
    return FiniteMMSpace(labels, table[arcs], np.full(n, 1.0 / n), _grades=(table, arcs))


def _weighted_graph(spec: FamilySpec) -> FiniteMMSpace:
    """Shortest paths over edge lengths (the shortest one given for each
    pair of nodes, in either order) rounded down to whole units of
    2^-_GRID_BITS of the scale (the float diameter when normalized, else
    the power of two above it), refusing an edge of zero units.  Paths stay
    below 2^53 units, so dijkstra adds exactly and the scaling back is by a
    power of two: a float64 metric with no closure.  Peak memory is two
    n x n float arrays, about 290 MB at POINT_CAP nodes."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    n = spec.n
    shortest = {}  # the shortest length given for each pair {i, j}
    for i, j, w in spec.edges:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ValueError(f"bad edge ({i}, {j})")
        if not (math.isfinite(w) and w > 0):
            raise ValueError(f"edge ({i}, {j}) needs a positive finite length, got {w}")
        pair = (min(i, j), max(i, j))
        shortest[pair] = min(w, shortest.get(pair, w))
    i, j, w = np.array([(*pair, w) for pair, w in shortest.items()], dtype=np.float64).reshape(-1, 3).T
    graph = coo_matrix((w, (i.astype(np.intp), j.astype(np.intp))), shape=(n, n))
    graph = (graph + graph.T).tocoo()  # undirected: each pair once each way
    dist = dijkstra(graph, directed=False)
    if not np.isfinite(dist).all():
        raise ValueError("graph is not connected")
    top = float(dist.max())  # 0 only for one node, which has no edges to scale
    scale = top if spec.normalized else 2.0 ** math.frexp(top)[1]
    graph.data = np.floor(graph.data / scale * 2.0**_GRID_BITS)
    if not graph.data.all():
        k = int(np.argmin(graph.data))
        raise ValueError(f"edge ({graph.row[k]}, {graph.col[k]}) is under 2^-{_GRID_BITS} of {scale!r}")
    dist = dijkstra(graph, directed=False)
    dist *= 2.0**-_GRID_BITS * (1.0 if spec.normalized else scale)
    labels = tuple(str(i) for i in range(n))
    return FiniteMMSpace(labels, dist, np.full(n, 1.0 / n))


def _product(spec: FamilySpec) -> FiniteMMSpace:
    """The l1 product of the factors, folded left to right.  Point (p, q)
    is labelled 'p|q' and weighs w1(p) * w2(q); its distance to (p', q')
    is fl(d1(p, p') + d2(q, q')) rounded down (floor_sum), then closed
    exactly.  Labels that collide are refused before any closure runs.

    When every factor is a cube or torus spec, the metric is t o K for
    the vector K = (K1, ..., Kk) of the factors' hop metrics and a table
    T on the grid of hop vectors c <= m (m_l the top hop count of factor
    l), and _table_fold closes T instead of the matrix: at each step T =
    floor_sum(T[..., None], t), lowered to floor_sum(T[c1], T[c2]) at c =
    c1 + c2 until nothing changes.  A product with any other factor (a
    document or other space built elsewhere, a graph, a nested product)
    takes _matrix_fold, which closes the matrix by exact_triangle_closure.
    The two give the same bytes:

    Both loops only lower entries to round-down sums of other entries,
    and stop at a fixpoint.  For the matrix D, the feasible matrices M <=
    D with M[i,k] <= fl(M[i,j] + M[j,k]) for all i, j, k (fl rounding
    down, which is monotone) are closed under entrywise max, so there is a
    greatest one, G.  Each pass keeps the iterate >= G (if d >= G then
    fl(d[i,j] + d[j,k]) >= fl(G[i,j] + G[j,k]) >= G[i,k]), and the last
    iterate is feasible, so the loop returns G, symmetric with a zero
    diagonal.  The same holds on the grid: from the step's input T0, with
    D = T0 o K, the table loop returns the greatest table S <= T0 with
    S[c1 + c2] <= fl(S[c1] + S[c2]).
      S is monotone: the table U[c] = max of S over c' <= c is <= T0,
    which is monotone, and feasible, since each c' <= c1 + c2 splits as
    a + b with a <= c1, b <= c2, so U[c1 + c2] = S[c'] <= fl(S[a] + S[b])
    <= fl(U[c1] + U[c2]); hence U <= S, that is U = S.  So a clamped split
    min(c1 + c2, m) of the grid would lower nothing either.
      S o K <= G: S o K <= D, and S o K is feasible.  For a hub j, a =
    K(i,j) and b = K(j,k) reach at least c = K(i,k) in every factor (each
    K_l is a graph metric), so c = a' + b' with a' <= a, b' <= b, and
    S[c] <= fl(S[a'] + S[b']) <= fl(S[a] + S[b]) by monotonicity.  This
    covers the hubs off every geodesic, where a + b > c.
      G <= S o K: a hop metric realizes every split c = c1 + c2 along a
    geodesic, so every pair (i, k) at c has a hub j with K(i,j) = c1 and
    K(j,k) = c2.  If G <= T o K, as it is at T0, then G[i,k] <= fl(G[i,j]
    + G[j,k]) <= fl(T[c1] + T[c2]), so each lowering keeps G <= T o K.
    After a step, T is monotone again and the next factor's table too, so
    the next step's input is again monotone and the argument repeats.
    """
    parts = [f if isinstance(f, FiniteMMSpace) else generate(f) for f in spec.factors]
    labels, weights = parts[0].points, parts[0].weights
    for nxt in parts[1:]:
        labels = tuple(f"{p}|{q}" for p in labels for q in nxt.points)
        repeated = [label for label, k in Counter(labels).items() if k > 1]
        if repeated:
            raise ValueError(f"product labels collide: {repeated[0]!r} names more than one point")
        weights = np.outer(weights, nxt.weights).ravel()
    if all(isinstance(f, FamilySpec) and f.kind in _HOP_KINDS for f in spec.factors):
        table, hops = _table_fold([part.grades for part in parts])
        return FiniteMMSpace(labels, table[hops], weights, _grades=(table, hops))
    return FiniteMMSpace(labels, _matrix_fold([part.dist for part in parts]), weights)


def _matrix_fold(dists: list[np.ndarray]) -> np.ndarray:
    """The product metric of the factor matrices: each step is one
    broadcast of floor_sum over the two matrices, closed by
    exact_triangle_closure, which is O(n^3) per pass."""
    dist = dists[0]
    for nxt in dists[1:]:
        a, b = len(dist), len(nxt)
        pairs = floor_sum(dist[:, None, :, None], nxt[None, :, None, :])
        dist = exact_triangle_closure(pairs.reshape(a * b, a * b))
    return dist


def _table_fold(grades: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The product's grades from the factors' (table, hop matrix) pairs:
    the closed table T on the grid of hop vectors (_product), then table
    = its distinct values, every one of them some pair's distance, and
    hops = the rank of T at each pair's hop vector, gathered in one
    broadcast of the factors' hop matrices, in the smallest unsigned type
    that holds len(table)."""
    closed = grades[0][0]
    for table, _ in grades[1:]:
        closed = _close_table(floor_sum(closed[..., None], table))
    table = np.unique(closed)
    ranks = np.searchsorted(table, closed).astype(np.min_scalar_type(len(table)))
    k = len(grades)
    index = []
    for axis, (_, hops) in enumerate(grades):
        shape = [1] * (2 * k)
        shape[axis] = shape[k + axis] = len(hops)
        index.append(hops.reshape(shape))
    n = math.prod(len(hops) for _, hops in grades)
    return table, ranks[tuple(index)].reshape(n, n)


def _close_table(grid: np.ndarray) -> np.ndarray:
    """Lower grid[c1 + c2] to floor_sum(grid[c1], grid[c2]) for every
    split on the grid, in place and in passes until a pass changes
    nothing.  One step per cell c1 other than 0 takes every c2 at once:
    the box of cells from c1 on against the box of as many cells from 0.
    A pass costs O(cells^2), against O(points^3) for the matrix."""
    cells = [c for c in np.ndindex(grid.shape) if any(c)]
    changed = True
    while changed:
        changed = False
        for c in cells:
            ahead = grid[tuple(slice(i, None) for i in c)]
            via = floor_sum(grid[c], grid[tuple(slice(None, m - i) for m, i in zip(grid.shape, c))])
            if (via < ahead).any():
                np.minimum(ahead, via, out=ahead)
                changed = True
    return grid


def generate(spec: FamilySpec) -> FiniteMMSpace:
    """Build the space a FamilySpec describes (deterministic); explicit
    weights replace the kind's own (_with_weights).  A space of up to
    _VALIDATE_CAP points is validated from a fresh copy of its matrix;
    when the generator handed over no grades, the copy is returned, with
    the grades its certificate built."""
    makers = {
        "hamming_cube": _hamming_cube,
        "discrete_torus": _discrete_torus,
        "weighted_graph": _weighted_graph,
        "product": _product,
    }
    space = makers[spec.kind](spec)
    if spec.weights is not None:
        space = _with_weights(space, spec.weights)
    if space.n <= _VALIDATE_CAP:
        checked = validate_space(space.points, space.dist, space.weights)
        if space._grades is None:
            space = checked
    return space


def binomial_mean_measure(n: int) -> RealMeasure:
    """Image of the uniform cube measure under the coordinate mean,
    computed directly from binomial counts (no 2^n-point space).  Each
    weight is C(n, k) / 2^n as one correctly rounded integer division, so
    no count is converted to a float first (that overflows from n = 1,030
    on); C(n, k) is built from C(n, k - 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    table = subadditive_table(n, 1.0, float(n))
    points = 1 << n
    weights = np.empty(n + 1)
    count = 1
    for k in range(n + 1):
        weights[k] = count / points
        count = count * (n - k) // (k + 1)
    return RealMeasure.from_atoms(table[: n + 1].copy(), weights)


def default_screen_roster() -> tuple[tuple[str, FiniteMMSpace], ...]:
    """The documented experiment roster: a 6-point normalized circle, a
    quarter-side square grid, and a single point.  All diameters <= 1/2
    except the singleton (diameter 0), giving a common doubling horizon.

    The 6-point circle is chosen over finer circles deliberately: its
    minimum positive distance (1/6) exceeds the cube edge length 1/n as
    soon as n >= 7, so every 1-Lipschitz map from a larger cube is
    constant and the trend column ends in exact zeros.  Before the
    cutoff the circle is coarse enough that maps wrapping all the way
    around exist for every n <= 6, keeping the column at its maximum
    value 1/2; the sampler reaches it for every n <= 6 at 32 samples per
    cell as well as at the documented 64 (at 32, cube 4's torus6 cell
    stays at 1/3 and square4 carries the supremum).  Finer circles (e.g.
    8 points) sit in a regime where the achievable spread is
    non-monotone in n, which would make the column useless as a decay
    diagnostic."""
    torus6 = generate(FamilySpec("discrete_torus", 6))
    q = 0.25
    square = FiniteMMSpace(
        ("sw", "se", "nw", "ne"),
        np.array(
            [
                [0.0, q, q, 2 * q],
                [q, 0.0, 2 * q, q],
                [q, 2 * q, 0.0, q],
                [2 * q, q, q, 0.0],
            ]
        ),
        np.full(4, 0.25),
    )
    singleton = FiniteMMSpace(("o",), np.zeros((1, 1)), np.array([1.0]))
    return (("torus6", torus6), ("square4", square), ("singleton", singleton))


@dataclass(frozen=True)
class LevyReport:
    """Everything one experiment run produced, ready to serialize."""

    meta: dict
    screens: tuple[dict, ...]
    sep_rows: tuple[dict, ...]
    cells: tuple[dict, ...]
    suprema: tuple[dict, ...]

    def as_dict(self) -> dict:
        return {
            "meta": self.meta,
            "screens": list(self.screens),
            "sep": list(self.sep_rows),
            "cells": list(self.cells),
            "suprema": list(self.suprema),
        }


def _member_rows(
    member: int,
    spec: FamilySpec,
    roster: list[tuple[str, FiniteMMSpace, Net]],
    kappas: list[float],
    effort: int,
    seed: int,
    samples: int,
    budget: int,
) -> tuple[list[dict], list[dict], list[dict]]:
    """Sep rows, screen cells and roster suprema of one family member,
    from one generation of its space.  Rows come out in report order: sep
    rows by kappa, cells by (screen, kappa), suprema in kappa_grid order;
    both sorts are stable, so repeated kappas keep the order of the loops
    below."""
    space = generate(spec)
    sep_rows, cells, suprema = [], [], []
    for kappa in kappas:
        res = sep(space, [kappa, kappa], budget, effort, stable_seed(seed, "sep", spec.n, kappa))
        sep_rows.append(
            {"member": member, "n": spec.n, "kappa": kappa, "sep_lower": res.value,
             "sep_value": res.value if res.exact else None, "sep_is_exact": res.exact}
        )
        lowers = []
        for name, screen, net in roster:
            bracket = obsdiam_screen_estimate(
                space, screen, kappa, samples=samples,
                seed=stable_seed(seed, "cell", spec.n, name, kappa),
            )
            cell = {
                "member": member, "n": spec.n, "screen": name, "kappa": kappa,
                "obsdiam_lower": bracket.lower, "obsdiam_upper": bracket.upper,
                "upper_source": bracket.upper_source,
                "sampler_fallbacks": bracket.witness["fallbacks"],
                "witness_center": None, "witness_ball_mass": None, "witness_residual": None,
            }
            values = np.asarray(bracket.witness["values"], dtype=np.int64)
            image = pushforward_screen(space, screen, values)
            wit = concentration_witness(image, net, space.total_mass / 6.0)
            if wit is not None:
                cell.update(witness_center=screen.points[wit.center],
                            witness_ball_mass=wit.ball_mass, witness_residual=wit.residual)
            cells.append(cell)
            lowers.append(bracket.lower)
        if lowers:
            # a repeated kappa repeats its seeds, hence its cells and supremum
            suprema.append({"member": member, "n": spec.n, "kappa": kappa, "roster_sup": max(lowers)})
    sep_rows.sort(key=lambda r: r["kappa"])
    cells.sort(key=lambda c: (c["screen"], c["kappa"]))
    return sep_rows, cells, suprema


def run_levy_experiment(
    family: list[FamilySpec],
    screens: list[tuple[str, FiniteMMSpace]] | None = None,
    kappa_grid: list[float] = (0.1,),
    effort: int = 10_000,
    seed: int = 0,
    samples: int = 64,
    budget: int = DEFAULT_ASSIGNMENT_BUDGET,
    workers: int = 1,
) -> LevyReport:
    """Trend experiment: how fast do observable diameters shrink along a
    family, measured against a fixed screen roster?

    Per family member and kappa: sep_lower, the best certified separation
    lower bound from separation.sep, which is the exact value sep_value
    when the assignment budget allows.  Per (member, screen, kappa): an
    observable-diameter bracket and a ball-concentration diagnostic
    at the scale the roster's common doubling horizon allows (the
    largest eps with 32*eps <= 3*R).  The report also carries, per
    (member, kappa), the supremum of the lower bounds over the roster —
    a finite stand-in for a supremum over a whole doubling class, and
    labeled as such.  Every row is keyed on `member`, the member's index
    in `family`, so members of equal size never merge.

    Each member is one job (_member_rows): its space is generated once,
    and the screens and their eps-nets, built once here, go to the job
    as objects.  Every cell draws from a seed of (seed, n, screen name,
    kappa) alone, so the report is byte-identical for any worker count.
    The counts, the family (nonempty; its members met their size rules
    when made) and the screen names (no two alike) are checked first.
    """
    check_counts(effort=effort, samples=samples, workers=workers, budget=budget)
    check_family(family)
    if screens is None:
        screens = list(default_screen_roster())
    repeated = [name for name, k in Counter(name for name, _ in screens).items() if k > 1]
    if repeated:
        raise ValueError(f"screen name {repeated[0]!r} is given more than once")
    screen_rows = []
    horizons = []
    for name, screen in screens:
        try:
            profile = doubling_profile(screen)
            worst = float(profile.values.max()) if len(profile.values) else 1.0
            screen_rows.append({"screen": name, "points": screen.n, "diameter": screen.diameter,
                                "horizon": profile.horizon, "max_doubling": worst})
            horizons.append(profile.horizon)
        except ValueError as err:
            screen_rows.append({"screen": name, "error": str(err)})
    common_r = min(horizons) if horizons else None
    eps = 3.0 * common_r / 32.0 if common_r else None
    roster = [
        (name, screen, build_net(screen, eps))  # eps is None only when no screen is profiled
        for (name, screen), row in zip(screens, screen_rows)
        if "error" not in row
    ]
    kappas = [float(k) for k in kappa_grid]
    job = partial(
        _member_rows, roster=roster, kappas=kappas, effort=effort,
        seed=seed, samples=samples, budget=budget,
    )
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool runs

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, range(len(family)), family))
    else:
        results = list(map(job, range(len(family)), family))
    sep_rows, cells, suprema = ([row for part in results for row in part[i]] for i in range(3))
    meta = {
        "kind": family[0].kind,
        "sizes": [s.n for s in family],
        "kappa_grid": kappas,
        "seed": seed,
        "effort": effort,
        "samples": samples,
        "budget": budget,
        "common_horizon": common_r,
        "eps": eps,
        "mass_floor_rule": "total_mass / 6",
        "supremum_scope": "over roster only, not the full doubling class",
    }
    return LevyReport(meta, tuple(screen_rows), tuple(sep_rows), tuple(cells), tuple(suprema))
