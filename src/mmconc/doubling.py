"""Doubling profiles, ball-mass ratio bounds, packing and net coloring.

The profile records the minimal pointwise doubling constant at every
half-distance up to a horizon; other radii are computed directly, and a
coloring or a concentration witness takes its scale from its net.  The
ratio bound and the packing bound are theorems for these constants: a
violation in the checkers is a bug, never data.

Every ball mass here follows the one convention of space._ball_mass_blocks
(cumulative sums along sorted rows); the concentration witness reads them
off a pushforward image, itself a FiniteMMSpace on the screen's points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .space import FiniteMMSpace, Net, PointSet, _ball_mass_blocks

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


def _doubling_constants(space: FiniteMMSpace, radii: Sequence[float]) -> np.ndarray:
    """Minimal C(r) with mass(B(x,2r)) <= C * mass(B(x,r)) for all x, per r,
    reduced over one block of centers at a time.  Each r is read off the
    sorted rows on its own, so C(r) does not depend on the other radii."""
    radii = np.asarray(radii, dtype=np.float64)
    best = np.zeros(len(radii))
    for masses in _ball_mass_blocks(space, np.concatenate((radii, 2.0 * radii))):
        ratios = masses[:, len(radii) :] / masses[:, : len(radii)]
        np.maximum(best, ratios.max(axis=0), out=best)
    return best


@dataclass(frozen=True)
class DoublingProfile:
    """Minimal doubling constants of a space at every half-distance within
    (0, horizon]: a record of doubling_profile's one grid.  Other radii,
    such as the ladder rungs of lemma_constant, are computed directly."""

    space: FiniteMMSpace
    horizon: float
    radii: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.radii.setflags(write=False)
        self.values.setflags(write=False)


def doubling_profile(space: FiniteMMSpace, horizon: float | None = None) -> DoublingProfile:
    """Minimal doubling constants at the distinct half-distances within
    (0, horizon], where the outer ball's composition changes; horizon
    defaults to the diameter (1.0 for a single point, where every
    constant is 1 anyway).  Requires all weights positive so every ratio
    has a positive denominator.
    """
    zero = np.flatnonzero(space.weights <= 0.0)
    if len(zero):
        raise ValueError(f"doubling needs positive weights; zero at indices {zero[:10].tolist()}")
    if horizon is None:
        horizon = space.diameter if space.diameter > 0.0 else 1.0
    if not horizon > 0.0:
        raise ValueError("horizon must be > 0")
    halves = space.distinct_distances() / 2.0
    grid = halves[(halves > 0.0) & (halves <= horizon)]
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
    return float(_doubling_constants(profile.space, rungs).max())


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
    if not epsilon > 0.0:
        raise ValueError("epsilon must be > 0")
    if 32.0 * epsilon > 3.0 * profile.horizon:
        raise ValueError(
            f"packing bound needs 32*epsilon <= 3*horizon; got epsilon={epsilon}, "
            f"horizon={profile.horizon}"
        )
    ctilde = lemma_constant(profile, epsilon / 3.0, 16.0 * epsilon / 3.0)
    bound = 2.0 ** (4.0 * ctilde) * ctilde**2
    members = np.array(net.members.indices)
    mult = int((profile.space.dist[np.ix_(members, members)] <= 5.0 * epsilon).sum(axis=1).max())
    return PackingCheck(float(bound), mult, bool(mult <= bound))


@dataclass(frozen=True)
class Coloring:
    """Partition of a net into classes 5 * net.epsilon apart."""

    net: Net
    anchor: int
    classes: tuple[PointSet, ...]

    @property
    def k(self) -> int:
        return len(self.classes)


def color_net(space: FiniteMMSpace, net: Net) -> Coloring:
    """Partition the net into k classes, each 5*eps-separated (eps the
    net's epsilon), where k is the maximum number of net members in a
    5*eps ball around a member.

    Procedure: pick the anchor maximizing that count (ties: lowest
    index); name the members in its ball beta_1..beta_k in index order;
    class i is built greedily in index order from the not-yet-assigned
    members, seeded with beta_i and barred from beta_{i+1}..beta_k.  The
    classes exhaust the net: an unassigned point would conflict with one
    distinct point per class, putting k+1 members in its own 5*eps ball.
    """
    members = np.array(net.members.indices)
    scale = 5.0 * net.epsilon
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
    return Coloring(net, int(members[a]), tuple(classes))


@dataclass(frozen=True)
class ConcentrationWitness:
    center: int
    ball_mass: float
    residual: float


def concentration_witness(
    image: FiniteMMSpace, net: Net, mass_floor: float
) -> ConcentrationWitness | None:
    """Locate where a pushforward image concentrates, if anywhere.

    Picks the net member whose 2*eps ball carries the most image mass
    (ties: lowest index), eps the net's.  If that mass reaches mass_floor,
    returns the member and the mass left outside its 3*eps ball — the
    residual a concentrating sequence drives to 0: row total minus 3*eps
    ball mass.  Otherwise None.
    """
    members = list(net.members)
    radii = (2.0 * net.epsilon, 3.0 * net.epsilon, math.inf)
    masses = np.concatenate(list(_ball_mass_blocks(image, radii, members)))
    best = int(np.argmax(masses[:, 0]))
    ball2, ball3, total = masses[best]
    if ball2 < mass_floor:
        return None
    return ConcentrationWitness(int(members[best]), float(ball2), float(total - ball3))
