"""Standard space families and the concentration-trend experiment.

Generated metrics are exactly subadditive at float level (repaired
fraction tables, shortest-path closure), so every generated space passes
the validator's triangle check with zero tolerance and the canonical
observables are exactly 1-Lipschitz.

Costs: a cube's metric is one lookup per pair in a popcount table.
generate re-validates every space of up to _VALIDATE_CAP points; that
triangle scan is O(n^3), about 2 s at 1,024 points on one core of a
2-vCPU Xeon.  The exact closure behind weighted_graph and product is
O(n^3) per pass.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._numeric import exact_triangle_closure, floor_sum, stable_seed, subadditive_table
from .doubling import concentration_witness, doubling_profile
from .observable import (
    LipschitzMap,
    obsdiam_screen_estimate,
    pushforward_screen,
    validate_lipschitz,
)
from .separation import (
    BudgetExceededError,
    DEFAULT_ASSIGNMENT_BUDGET,
    RealMeasure,
    sep_exact,
    sep_lower_bound,
)
from .space import FiniteMMSpace, build_net, validate_space

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

    kind: hamming_cube | discrete_torus | weighted_graph | product |
    custom_file.  n is the size parameter (cube dimension, torus length,
    graph node count).  normalized divides the metric by its natural
    scale so diameters stay bounded along the family.
    """

    kind: str
    n: int = 0
    normalized: bool = True
    weights: tuple[float, ...] | None = None  # None = uniform
    edges: tuple[tuple[int, int, float], ...] = ()
    factors: tuple["FamilySpec", ...] = ()
    path: str | None = None


def _uniform_or(spec: FamilySpec, n: int) -> np.ndarray:
    if spec.weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(spec.weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"expected {n} weights, got {w.shape}")
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
    weights = np.full(size, 0.5**n) if spec.weights is None else _uniform_or(spec, size)
    return FiniteMMSpace(labels, dist, weights)


def _discrete_torus(spec: FamilySpec) -> FiniteMMSpace:
    n = spec.n
    if not 1 <= n <= POINT_CAP:
        raise ValueError(f"discrete_torus size must be in 1..{POINT_CAP}, got {n}")
    idx = np.arange(n)
    raw = np.abs(idx[:, None] - idx[None, :])
    arcs = np.minimum(raw, n - raw)
    if spec.normalized:
        table = subadditive_table(n // 2, 1.0, float(n)) if n >= 2 else np.zeros(1)
        dist = table[arcs]
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
    parts = [generate(f) for f in spec.factors]
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
    if spec.kind == "custom_file":
        if not spec.path:
            raise ValueError("custom_file needs a path")
        from .formats import parse_space

        return parse_space(spec.path)
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
    value 1/2.  Finer circles (e.g. 8 points) sit in a regime where the
    achievable spread is non-monotone in n, which would make the column
    useless as a decay diagnostic."""
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


def _sep_cell(payload: dict) -> dict:
    spec = FamilySpec(**payload["spec"])
    space = generate(spec)
    kappa = payload["kappa"]
    budget = payload["budget"]
    row = {"member": payload["member"], "n": spec.n, "kappa": kappa}
    lb = sep_lower_bound(
        space,
        [kappa, kappa],
        effort=payload["effort"],
        seed=stable_seed(payload["seed"], "sep", spec.n, kappa),
    )
    row["sep_lower"] = lb.value
    try:
        ex = sep_exact(space, [kappa, kappa], budget)
        row["sep_value"] = ex.value
        row["sep_is_exact"] = True
    except BudgetExceededError:
        row["sep_value"] = None
        row["sep_is_exact"] = False
    return row


def _screen_cell(payload: dict) -> dict:
    spec = FamilySpec(**payload["spec"])
    space = generate(spec)
    screen = FiniteMMSpace(
        tuple(payload["screen_points"]),
        np.array(payload["screen_dist"]),
        np.array(payload["screen_weights"]),
    )
    kappa = payload["kappa"]
    bracket = obsdiam_screen_estimate(
        space,
        screen,
        kappa,
        samples=payload["samples"],
        seed=stable_seed(payload["seed"], "cell", spec.n, payload["screen"], kappa),
    )
    row = {
        "member": payload["member"],
        "n": spec.n,
        "screen": payload["screen"],
        "kappa": kappa,
        "obsdiam_lower": bracket.lower,
        "obsdiam_upper": bracket.upper,
        "upper_source": bracket.upper_source,
        "witness_center": None,
        "witness_ball_mass": None,
        "witness_residual": None,
    }
    eps = payload["eps"]
    if eps is not None and screen.n >= 1:
        values = np.asarray(bracket.witness["values"], dtype=np.int64)
        pm = pushforward_screen(space, screen, values)
        net = build_net(screen, eps)
        wit = concentration_witness(pm, net, eps, space.total_mass / 6.0)
        if wit is not None:
            row["witness_center"] = screen.points[wit.center]
            row["witness_ball_mass"] = wit.ball_mass
            row["witness_residual"] = wit.residual
    return row


def _run_job(job: tuple[str, dict]) -> tuple[str, dict]:
    kind, payload = job
    return kind, (_sep_cell(payload) if kind == "sep" else _screen_cell(payload))


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

    Per family member and kappa: separation lower bound (exact value too
    when the assignment budget allows).  Per (member, screen, kappa):
    an observable-diameter bracket and a ball-concentration diagnostic
    at the scale the roster's common doubling horizon allows (the
    largest eps with 32*eps <= 3*R).  The report also carries, per
    (member, kappa), the supremum of the lower bounds over the roster —
    a finite stand-in for a supremum over a whole doubling class, and
    labeled as such.  Every row is keyed on `member`, the member's index
    in `family`, so members of equal size never merge.  Deterministic for
    fixed seed, any worker count.
    """
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
    usable = [s for s, row in zip(screens, screen_rows) if "error" not in row]
    common_r = min(horizons) if horizons else None
    eps = 3.0 * common_r / 32.0 if common_r else None

    jobs: list[tuple[str, dict]] = []
    base = {"seed": seed, "budget": budget, "effort": effort, "samples": samples, "eps": eps}
    for member, spec in enumerate(family):
        spec_dict = {
            "kind": spec.kind,
            "n": spec.n,
            "normalized": spec.normalized,
            "weights": spec.weights,
            "edges": spec.edges,
            "factors": spec.factors,
            "path": spec.path,
        }
        for kappa in kappa_grid:
            payload = {**base, "member": member, "spec": spec_dict, "kappa": float(kappa)}
            jobs.append(("sep", payload))
            for name, screen in usable:
                jobs.append(
                    (
                        "screen",
                        {
                            **payload,
                            "screen": name,
                            "screen_points": list(screen.points),
                            "screen_dist": screen.dist.tolist(),
                            "screen_weights": screen.weights.tolist(),
                        },
                    )
                )
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_job, jobs))
    else:
        results = [_run_job(j) for j in jobs]

    sep_rows = sorted(
        (row for kind, row in results if kind == "sep"),
        key=lambda r: (r["member"], r["kappa"]),
    )
    cells = sorted(
        (row for kind, row in results if kind == "screen"),
        key=lambda r: (r["member"], r["screen"], r["kappa"]),
    )
    suprema = []
    for member, spec in enumerate(family):
        for kappa in kappa_grid:
            vals = [
                c["obsdiam_lower"]
                for c in cells
                if c["member"] == member and c["kappa"] == float(kappa)
            ]
            if vals:
                suprema.append(
                    {
                        "member": member,
                        "n": spec.n,
                        "kappa": float(kappa),
                        "roster_sup": max(vals),
                    }
                )
    meta = {
        "kind": family[0].kind if family else None,
        "sizes": [s.n for s in family],
        "kappa_grid": [float(k) for k in kappa_grid],
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
