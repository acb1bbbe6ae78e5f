"""Shared generators for the test suite.

Random spaces are built from Euclidean point clouds and then pushed through
the exact triangle closure, so every generated matrix passes validation with
zero tolerance.  All randomness is seeded; the suite is deterministic.
"""

from __future__ import annotations

import bisect

import numpy as np
import pytest
from hypothesis import settings

from mmconc import (
    FiniteMMSpace,
    RealMeasure,
    Violation,
    exact_triangle_closure,
    floor_sum,
    validate_space,
)
from mmconc.space import _check_triangle, _Findings

settings.register_profile("suite", deadline=None, max_examples=40, derandomize=True)
settings.load_profile("suite")


def random_space(
    rng: np.random.Generator,
    n: int,
    dim: int = 3,
    uniform_weights: bool = False,
    total_mass: float = 1.0,
) -> FiniteMMSpace:
    """A validated random space: Euclidean cloud -> exact closure -> weights."""
    while True:
        pts = rng.uniform(0.0, 1.0, size=(n, dim))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        np.fill_diagonal(dist, 0.0)
        off = dist[~np.eye(n, dtype=bool)]
        if n == 1 or off.min() > 1e-3:
            break
    dist = exact_triangle_closure(np.maximum(dist, dist.T))
    if uniform_weights:
        w = np.full(n, total_mass / n)
    else:
        w = rng.uniform(0.2, 1.0, size=n)
        w = w / w.sum() * total_mass
    labels = tuple(f"p{i}" for i in range(n))
    return validate_space(labels, dist, w)


def random_measure(rng: np.random.Generator, k: int, span: float = 3.0) -> RealMeasure:
    """A discrete measure on the line with distinct atoms and positive weights."""
    positions = np.sort(rng.uniform(0.0, span, size=k))
    # keep atoms distinct so quantile logic sees k genuine positions
    positions += np.arange(k) * 1e-6
    weights = rng.uniform(0.05, 1.0, size=k)
    weights = weights / weights.sum()
    return RealMeasure.from_atoms(positions, weights)


def line_space(positions, weights=None) -> FiniteMMSpace:
    """Points on the real line with |x - y| distances (exactly subadditive
    after closure, which changes nothing for collinear configurations)."""
    positions = np.asarray(positions, dtype=float)
    n = positions.size
    dist = np.abs(positions[:, None] - positions[None, :])
    dist = exact_triangle_closure(dist)
    if weights is None:
        weights = np.full(n, 1.0 / n)
    labels = tuple(f"x{i}" for i in range(n))
    return validate_space(labels, dist, np.asarray(weights, dtype=float))


@pytest.fixture(scope="session")
def two_point() -> FiniteMMSpace:
    return line_space([0.0, 1.0], [0.5, 0.5])


@pytest.fixture(scope="session")
def unit_interval_grid() -> FiniteMMSpace:
    """Five evenly spaced points on [0, 1], uniform mass."""
    return line_space(np.linspace(0.0, 1.0, 5))


def sorted_row(space, x):
    """Reference for the sorted-row convention, one point at a time: row x
    in (distance, index) order, and its weights added one by one."""
    order = sorted(range(space.n), key=lambda y: (space.dist[x, y], y))
    cum, total = [], 0.0
    for y in order:
        total += float(space.weights[y])
        cum.append(total)
    return [float(space.dist[x, y]) for y in order], cum


def float_sorted_ball_mass_blocks(space, radii, centers=None, block=64):
    """Reference for space._ball_mass_blocks by sorting float rows: each
    row argsorted by distance (stable), weights summed along the sorted
    row, and B(x, r) read at the last d <= r by searchsorted.  At radii =
    a table it must give the same bytes."""
    radii = np.asarray(radii, dtype=np.float64)
    centers = np.arange(space.n) if centers is None else np.asarray(centers, dtype=np.intp)
    for lo in range(0, len(centers), block):
        rows = space.dist[centers[lo : lo + block]]
        order = np.argsort(rows, axis=1, kind="stable")
        rows = np.take_along_axis(rows, order, axis=1)
        cum = np.cumsum(space.weights[order], axis=1)
        ends = np.array([np.searchsorted(row, radii, side="right") for row in rows])
        yield np.take_along_axis(cum, ends.reshape(len(rows), len(radii)) - 1, axis=1)


def sorted_row_mass(space, x, r):
    """Mass of B(x, r) by the reference (r = inf gives the row total)."""
    row, cum = sorted_row(space, x)
    return cum[bisect.bisect_right(row, r) - 1]


def hub_loop_triangle(dist: np.ndarray):
    """Reference: the triangle inequality one hub at a time, with the
    report validate_space gives (first 50 violations in hub order, the
    true count)."""
    violations, count = [], 0
    for j in range(dist.shape[0]):
        slack = dist - (dist[:, j][:, None] + dist[j, :][None, :])
        failing = np.argwhere(slack > 0.0)
        count += len(failing)
        for i, k in failing[: 50 - len(violations)]:
            violations.append(
                Violation(
                    "triangle",
                    (int(i), int(j), int(k)),
                    f"d[{i},{k}]={float(dist[i, k])!r} > d[{i},{j}] + d[{j},{k}]"
                    f" = {float(dist[i, j] + dist[j, k])!r}",
                )
            )
    return violations, ({"triangle": count} if count else {})


def check_triangle(dist: np.ndarray):
    """(violations, counts) that validate_space's triangle pass records on
    an exactly symmetric matrix, with no certificate tried first."""
    found = _Findings()
    _check_triangle(np.asarray(dist, dtype=np.float64), found)
    return found.violations, found.counts


def push_table_closure(grid: np.ndarray) -> np.ndarray:
    """Reference for _numeric.close_table: lower grid[c1 + c2] to
    floor_sum(grid[c1], grid[c2]) for every split on the grid, in place
    and in passes until a pass changes nothing.  One step per cell c1
    other than 0 takes every c2 at once: the box of cells from c1 on
    against the box of as many cells from 0."""
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


def forward_subadditive_table(count: int, numerator_step: float, denominator: float) -> np.ndarray:
    """Reference for subadditive_table: t[h] is its target h * step /
    denominator, lowered to the least floor_sum(t[i], t[h - i]) over
    1 <= i <= h // 2, one entry after another."""
    t = np.zeros(count + 1)
    for h in range(1, count + 1):
        target = (h * numerator_step) / denominator
        half = h // 2
        if half >= 1:
            cap = floor_sum(t[1 : half + 1], t[h - 1 : h - half - 1 : -1]).min()
            target = min(target, cap)
        t[h] = target
    return t
