"""Doubling profiles, ball-mass ratio bounds, packing and net coloring.

The profile stores the minimal pointwise doubling constant on a radius
grid, so "does (X, mu) belong to the doubling class with constant C up
to horizon R?" reduces to a gridwise comparison.  The ratio bound and
the packing bound are theorems for these constants: a violation in the
checkers is a bug, never data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .observable import PushforwardMeasure
from .space import FiniteMMSpace, Net, PointSet, packing_multiplicity

__all__ = [
    "Coloring",
    "ConcentrationWitness",
    "DoublingProfile",
    "PackingCheck",
    "color_net",
    "concentration_witness",
    "doubling_profile",
    "lemma_constant",
    "packing_bound_check",
    "ratio_bound",
]


_ROW_BLOCK = 64  # distance rows sorted at a time; bounds the sort's working memory


def _doubling_constants(space: FiniteMMSpace, radii: np.ndarray) -> np.ndarray:
    """Minimal C(r) with mass(B(x,2r)) <= C * mass(B(x,r)) for all x, per r.

    The one ball-mass convention of this module: each distance row is
    sorted once (stable, so ties keep index order), its weights are
    summed cumulatively in that order, and the mass of B(x, r) is the
    cumulative sum up to the last distance <= r.
    """
    radii = np.asarray(radii, dtype=np.float64)
    best = np.zeros(len(radii))
    if not len(radii):
        return best
    probes = np.concatenate((radii, 2.0 * radii))
    counts = np.empty((min(_ROW_BLOCK, space.n), len(probes)), dtype=np.intp)
    for lo in range(0, space.n, _ROW_BLOCK):
        block = space.dist[lo : lo + _ROW_BLOCK]
        order = np.argsort(block, axis=1, kind="stable")
        rows = np.take_along_axis(block, order, axis=1)
        cum = np.cumsum(space.weights[order], axis=1)
        ends = counts[: len(block)]
        for x, row in enumerate(rows):
            ends[x] = np.searchsorted(row, probes, side="right")
        masses = np.take_along_axis(cum, ends - 1, axis=1)
        ratios = masses[:, len(radii) :] / masses[:, : len(radii)]
        np.maximum(best, ratios.max(axis=0), out=best)
    return best


@dataclass(frozen=True)
class DoublingProfile:
    """Minimal doubling constants of a space on a radius grid, valid up
    to the horizon.  Off-grid radii are computed on demand, so the grid
    is a cache of interesting radii, not a limitation."""

    space: FiniteMMSpace
    horizon: float
    radii: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.radii.setflags(write=False)
        self.values.setflags(write=False)

    def _constants(self, radii: np.ndarray) -> np.ndarray:
        """Constants at positive radii: grid values where stored, the rest
        computed together in one pass over the sorted rows."""
        hit = np.searchsorted(self.radii, radii)
        on_grid = hit < len(self.radii)
        on_grid[on_grid] = self.radii[hit[on_grid]] == radii[on_grid]
        out = np.empty(len(radii))
        out[on_grid] = self.values[hit[on_grid]]
        out[~on_grid] = _doubling_constants(self.space, radii[~on_grid])
        return out

    def constant_at(self, radius: float) -> float:
        if radius <= 0.0:
            raise ValueError("radius must be > 0")
        return float(self._constants(np.array([float(radius)]))[0])

    def refined(self, extra_radii: Sequence[float]) -> "DoublingProfile":
        extra = np.asarray(sorted(set(float(r) for r in extra_radii)))
        if (extra <= 0.0).any():
            raise ValueError("radii must be > 0")
        merged = np.unique(np.concatenate((self.radii, extra)))
        return DoublingProfile(self.space, self.horizon, merged, self._constants(merged))

    def dominated_by(self, constant: float | Callable[[float], float]) -> bool:
        """Membership test against a user-supplied constant or table."""
        if callable(constant):
            return all(v <= constant(float(r)) for r, v in zip(self.radii, self.values))
        return bool((self.values <= constant).all())


def doubling_profile(
    space: FiniteMMSpace,
    horizon: float | None = None,
    radii: Sequence[float] | None = None,
) -> DoublingProfile:
    """Minimal doubling constants on a grid of radii within (0, horizon].

    The default grid is the distinct half-distances, where the outer
    ball's composition changes; horizon defaults to the diameter (1.0
    for a single point, where every constant is 1 anyway).  Requires
    all weights positive so every ratio has a positive denominator.
    """
    zero = np.flatnonzero(space.weights <= 0.0)
    if len(zero):
        raise ValueError(f"doubling needs positive weights; zero at indices {zero[:10].tolist()}")
    if horizon is None:
        horizon = space.diameter if space.diameter > 0.0 else 1.0
    if horizon <= 0.0:
        raise ValueError("horizon must be > 0")
    if radii is None:
        halves = space.distinct_distances() / 2.0
        grid = halves[(halves > 0.0) & (halves <= horizon)]
    else:
        grid = np.unique(np.asarray([float(r) for r in radii]))
        if len(grid) and (grid[0] <= 0.0 or grid[-1] > horizon):
            raise ValueError("grid radii must lie in (0, horizon]")
    return DoublingProfile(space, float(horizon), grid, _doubling_constants(space, grid))


def lemma_constant(profile: DoublingProfile, r1: float, r2: float) -> float:
    """Largest doubling constant along the dyadic ladder from r1 past 2*r2.

    The ladder compares B(x, 2^(i+1) r1) against B(x, 2^i r1) from i = 0
    until the ball swallows B(y, r2) for any y within r2 of x, so the
    maximum is taken over i = 0 .. j with 2^j r1 >= 2 r2.  Starting at
    i = 0 matters: the first rung's constant can exceed all later ones.
    """
    if not 0.0 < r1 <= r2:
        raise ValueError("need 0 < r1 <= r2")
    if 2.0 * r2 > profile.horizon:
        raise ValueError(f"need 2*r2 <= horizon {profile.horizon}")
    rungs = [r1]
    while rungs[-1] < 2.0 * r2:
        rungs.append(rungs[-1] * 2.0)
    return float(profile._constants(np.array(rungs)).max())


def ratio_bound(profile: DoublingProfile, r1: float, r2: float) -> float:
    """Guaranteed lower bound for mass(B(x,r1)) / mass(B(y,r2)) over all
    centers x within r2 of y.  Always in (0, 1]."""
    ctilde = lemma_constant(profile, r1, r2)
    return (1.0 / ctilde**2) * (r1 / r2) ** (ctilde / math.log(2.0))


@dataclass(frozen=True)
class PackingCheck:
    bound: float
    max_multiplicity: int
    holds: bool


def packing_bound_check(profile: DoublingProfile, net: Net, epsilon: float) -> PackingCheck:
    """Checks the packing theorem: the number of net members in any
    5*epsilon ball around a member is at most 2^(4*C)*C^2 where C is the
    ladder constant between epsilon/3 and 16*epsilon/3.

    Requires 32*epsilon <= 3*horizon, which is exactly what the ladder
    needs (its top rung is 32*epsilon/3).  holds=False means a bug.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be > 0")
    if 32.0 * epsilon > 3.0 * profile.horizon:
        raise ValueError(
            f"packing bound needs 32*epsilon <= 3*horizon; got epsilon={epsilon}, "
            f"horizon={profile.horizon}"
        )
    ctilde = lemma_constant(profile, epsilon / 3.0, 16.0 * epsilon / 3.0)
    bound = 2.0 ** (4.0 * ctilde) * ctilde**2
    mult = max(
        packing_multiplicity(profile.space, net, member, 5.0 * epsilon)
        for member in net.members
    )
    return PackingCheck(float(bound), int(mult), bool(mult <= bound))


@dataclass(frozen=True)
class Coloring:
    """Partition of a net into 5*epsilon-separated classes."""

    net: Net
    epsilon: float
    anchor: int
    classes: tuple[PointSet, ...]

    @property
    def k(self) -> int:
        return len(self.classes)


def color_net(space: FiniteMMSpace, net: Net, epsilon: float | None = None) -> Coloring:
    """Partition the net into k classes, each 5*eps-separated, where k is
    the maximum number of net members in a 5*eps ball around a member.

    Procedure: pick the anchor maximizing that count (ties: lowest
    index); name the members in its ball beta_1..beta_k in index order;
    class i is built greedily in index order from the not-yet-assigned
    members, seeded with beta_i and barred from beta_{i+1}..beta_k.  The
    classes exhaust the net: an unassigned point would conflict with one
    distinct point per class, putting k+1 members in its own 5*eps ball.
    """
    if epsilon is None:
        epsilon = net.epsilon
    members = np.array(net.members.indices)
    scale = 5.0 * epsilon
    close = space.dist[np.ix_(members, members)] <= scale
    counts = close.sum(axis=1)
    a = int(np.argmax(counts))  # first max = lowest point index (sorted)
    betas = members[close[a]]
    k = len(betas)
    remaining = set(int(p) for p in members)
    classes = []
    for i in range(k):
        barred = set(int(b) for b in betas[i + 1 :])
        chosen = [int(betas[i])]
        remaining.discard(chosen[0])
        ok = space.dist[chosen[0]] >= scale  # 5*eps from every chosen point
        for p in sorted(remaining):
            if p in barred:
                continue
            if ok[p]:
                chosen.append(p)
                ok &= space.dist[p] >= scale
        remaining.difference_update(chosen)
        classes.append(PointSet.of(chosen))
    if remaining:
        raise RuntimeError(
            f"net coloring left {sorted(remaining)} unassigned; this is a bug"
        )
    return Coloring(net, float(epsilon), int(members[a]), tuple(classes))


@dataclass(frozen=True)
class ConcentrationWitness:
    center: int
    ball_mass: float
    residual: float


def concentration_witness(
    pm: PushforwardMeasure,
    net: Net,
    epsilon: float,
    mass_floor: float,
) -> ConcentrationWitness | None:
    """Locate where a pushforward concentrates, if anywhere.

    Picks the net member whose 2*eps ball carries the most pushforward
    mass (ties: lowest index).  If that mass reaches mass_floor, returns
    the member and the mass left outside its 3*eps ball — the residual a
    concentrating sequence drives to 0.  Otherwise None.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be > 0")
    members = list(net.members)
    dist = pm.screen.dist[members]
    masses2 = (dist <= 2.0 * epsilon) @ pm.weights
    best = int(np.argmax(masses2))
    if masses2[best] < mass_floor:
        return None
    outside = dist[best] > 3.0 * epsilon
    residual = float(pm.weights[outside].sum())
    return ConcentrationWitness(int(members[best]), float(masses2[best]), residual)
