"""Standard space families and the concentration-trend experiment.

Generated metrics are exactly subadditive at float level (repaired
fraction tables, shortest-path closure), so every generated space passes
the validator's triangle check with zero tolerance and the canonical
observables are exactly 1-Lipschitz.

This module reads no files and never imports formats: a product's factor
may be a space built elsewhere, such as a parsed document.

Costs: a cube's metric is one lookup per pair in a popcount table.
generate re-validates every space of up to _VALIDATE_CAP points; that
triangle scan is O(n^3), about 2 s at 1,024 points on one core of a
2-vCPU Xeon.  The exact closure behind weighted_graph and product is
O(n^3) per pass.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._numeric import exact_triangle_closure, floor_sum, stable_seed, subadditive_table
from .doubling import concentration_witness, doubling_profile
from .observable import (
    LipschitzMap,
    obsdiam_screen_estimate,
    pushforward_screen,
    validate_lipschitz,
)
from .separation import DEFAULT_ASSIGNMENT_BUDGET, RealMeasure, sep
from .space import FiniteMMSpace, Net, build_net, validate_space

__all__ = [
    "FamilySpec",
    "LevyReport",
    "binomial_mean_measure",
    "coordinate_mean_map",
    "default_screen_roster",
    "generate",
    "run_levy_experiment",
]

HAMMING_CAP = 12
POINT_CAP = 4096
GRAPH_CAP = 1024  # the exact closure of the shortest paths is O(n^3) per pass
# generate re-validates up to this size: the O(n^3) triangle scan takes
# about 2 s at 1,024 points on one core, and 8x that at 2,048
_VALIDATE_CAP = 1024


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for one generated space.

    kind: hamming_cube | discrete_torus | weighted_graph | product.  n is
    the size parameter (cube dimension, torus length, graph node count).
    normalized divides the metric by its natural scale so diameters stay
    bounded along the family.  A product's factors are specs or spaces
    already built, such as a parsed document; only a space document names
    a file (formats reads its custom_file generators).
    """

    kind: str
    n: int = 0
    normalized: bool = True
    weights: tuple[float, ...] | None = None  # None = uniform
    edges: tuple[tuple[int, int, float], ...] = ()
    factors: tuple["FamilySpec | FiniteMMSpace", ...] = ()


def _uniform_or(spec: FamilySpec, n: int) -> np.ndarray:
    """Uniform weights, or the spec's; checked at any size, past _VALIDATE_CAP too."""
    if spec.weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(spec.weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"expected {n} weights, got {w.shape}")
    if not np.isfinite(w).all() or (w < 0.0).any() or w.sum() <= 0.0:
        raise ValueError("weights must be finite and >= 0, with positive total mass")
    return w


def _hamming_cube(spec: FamilySpec) -> FiniteMMSpace:
    n = spec.n
    if not 1 <= n <= HAMMING_CAP:
        raise ValueError(f"hamming_cube size must be in 1..{HAMMING_CAP}, got {n}")
    size = 1 << n
    codes = np.arange(size, dtype=np.uint16)  # HAMMING_CAP <= 16
    pop = np.zeros(size, dtype=np.uint8)  # pop[c] = number of set bits of c
    for bit in range(n):
        pop[1 << bit : 2 << bit] = pop[: 1 << bit] + 1
    ham = pop[codes[:, None] ^ codes[None, :]]
    table = subadditive_table(n, 1.0, float(n)) if spec.normalized else np.arange(n + 1, dtype=np.float64)
    dist = table[ham]
    labels = tuple(format(i, f"0{n}b") for i in range(size))
    return FiniteMMSpace(labels, dist, _uniform_or(spec, size))


def _discrete_torus(spec: FamilySpec) -> FiniteMMSpace:
    n = spec.n
    if not 1 <= n <= POINT_CAP:
        raise ValueError(f"discrete_torus size must be in 1..{POINT_CAP}, got {n}")
    idx = np.arange(n, dtype=np.int16)  # POINT_CAP < 2**15
    raw = np.abs(idx[:, None] - idx[None, :])
    arcs = np.minimum(raw, n - raw)
    if spec.normalized:
        dist = subadditive_table(n // 2, 1.0, float(n))[arcs]
    else:
        dist = arcs.astype(np.float64)
    labels = tuple(str(i) for i in range(n))
    return FiniteMMSpace(labels, dist, _uniform_or(spec, n))


def _weighted_graph(spec: FamilySpec) -> FiniteMMSpace:
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    n = spec.n
    if not 1 <= n <= GRAPH_CAP:
        raise ValueError(f"weighted_graph size must be in 1..{GRAPH_CAP}, got {n}")
    if n > 1 and not spec.edges:
        raise ValueError("weighted_graph needs edges")
    rows, cols, vals = [], [], []
    for i, j, w in spec.edges:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ValueError(f"bad edge ({i}, {j})")
        if not (math.isfinite(w) and w > 0):
            raise ValueError(f"edge ({i}, {j}) needs a positive finite length, got {w}")
        rows += [i, j]
        cols += [j, i]
        vals += [w, w]
    graph = coo_matrix((vals, (rows, cols)), shape=(n, n))
    dist = dijkstra(graph, directed=False)
    if not np.isfinite(dist).all():
        raise ValueError("graph is not connected")
    if spec.normalized and dist.max() > 0:
        dist = dist / dist.max()
    dist = exact_triangle_closure(dist)
    labels = tuple(str(i) for i in range(n))
    return FiniteMMSpace(labels, dist, _uniform_or(spec, n))


def _product(spec: FamilySpec) -> FiniteMMSpace:
    if len(spec.factors) < 2:
        raise ValueError("product needs at least two factors")
    parts = [f if isinstance(f, FiniteMMSpace) else generate(f) for f in spec.factors]
    total = math.prod(p.n for p in parts)
    if total > POINT_CAP:
        raise ValueError(f"product would have {total} points, cap is {POINT_CAP}")
    space = parts[0]
    for nxt in parts[1:]:
        a, b = space.n, nxt.n
        dist = floor_sum(
            np.repeat(np.repeat(space.dist, b, axis=0), b, axis=1),
            np.tile(nxt.dist, (a, a)),
        )
        dist = exact_triangle_closure(dist)
        labels = tuple(f"{p}|{q}" for p in space.points for q in nxt.points)
        weights = np.outer(space.weights, nxt.weights).ravel()
        space = FiniteMMSpace(labels, dist, weights)
    if spec.weights is not None:
        space = FiniteMMSpace(space.points, space.dist.copy(), _uniform_or(spec, space.n))
    return space


def generate(spec: FamilySpec) -> FiniteMMSpace:
    """Build the space a FamilySpec describes (deterministic)."""
    makers = {
        "hamming_cube": _hamming_cube,
        "discrete_torus": _discrete_torus,
        "weighted_graph": _weighted_graph,
        "product": _product,
    }
    if spec.kind not in makers:
        raise ValueError(f"unknown family kind {spec.kind!r}")
    space = makers[spec.kind](spec)
    if space.n <= _VALIDATE_CAP:
        validate_space(space.points, space.dist, space.weights)
    return space


def coordinate_mean_map(space: FiniteMMSpace) -> LipschitzMap:
    """Mean of the coordinates of a binary-labeled cube, as a validated
    map to the line.  Uses the same fraction table as the cube metric,
    so the Lipschitz check passes exactly: the table's subadditivity
    gives t[a] - t[b] <= t[a-b] <= t[hamming distance]."""
    bits = {len(p) for p in space.points}
    if len(bits) != 1 or not all(set(p) <= {"0", "1"} for p in space.points):
        raise ValueError("expected binary string labels of equal length")
    n = bits.pop()
    table = subadditive_table(n, 1.0, float(n))
    values = np.array([table[p.count("1")] for p in space.points])
    return validate_lipschitz(space, None, values)


def binomial_mean_measure(n: int) -> RealMeasure:
    """Image of the uniform cube measure under the coordinate mean,
    computed directly from binomial counts (no 2^n-point space)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    table = subadditive_table(n, 1.0, float(n))
    weights = np.array([math.comb(n, k) * 0.5**n for k in range(n + 1)])
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
    both sorts are stable, so repeated kappas and screen names keep the
    order of the loops below."""
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
    """
    for name, value, least in (("effort", effort, 0), ("samples", samples, 0),
                               ("workers", workers, 1), ("budget", budget, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    if screens is None:
        screens = list(default_screen_roster())
    screen_rows = []
    horizons = []
    for name, screen in screens:
        try:
            profile = doubling_profile(screen)
            screen_rows.append(
                {
                    "screen": name,
                    "points": screen.n,
                    "diameter": screen.diameter,
                    "horizon": profile.horizon,
                    "max_doubling": float(profile.values.max()) if len(profile.values) else 1.0,
                }
            )
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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, range(len(family)), family))
    else:
        results = list(map(job, range(len(family)), family))
    sep_rows, cells, suprema = ([row for part in results for row in part[i]] for i in range(3))
    meta = {
        "kind": family[0].kind if family else None,
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
