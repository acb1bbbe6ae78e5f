"""Doubling profiles, ball-mass ratio bounds, packing and net coloring.

The profile records the minimal pointwise doubling constant C(r) as a
step table up to twice its horizon: C changes only at 0, at each distance
d and at each half-distance d/2, so one pass of ball masses at the
distinct distances gives C at every radius, the half-distance grid and
the ladder rungs of lemma_constant alike.  A coloring or a concentration witness takes its
scale from its net.  The ratio bound and the packing bound are theorems
for these constants: a violation in the checkers is a bug, never data.

Every ball mass here follows the one convention of space._ball_mass_blocks:
each row ordered by (distance rank, index), weights summed sequentially in
that order, ranks read off the space's grades, and the mass at radius r
read at the last grade table entry <= r.  The profile reads the table's
prefix up to 4*horizon; the concentration witness reads its masses off a
pushforward image, itself a FiniteMMSpace on the screen's points, at the
whole table of the screen's grades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _step_table(
    space: FiniteMMSpace, dists: np.ndarray, horizon: float
) -> tuple[np.ndarray, np.ndarray]:
    """The steps 0 = s[0] < ... <= 2*horizon of C(r), the minimal C with
    mass(B(x,2r)) <= C * mass(B(x,r)) for all x, and C at each step, from
    the prefix 0 = dists[0] < ... <= 4*horizon of the space's grade table.

    B(x,r) changes only at r = d and B(x,2r) only at r = d/2, d a distance,
    so C(r) = C(s) for s the last step <= r.  A ball of radius r weighs what
    it weighs at the last distance <= r, so one pass of _ball_mass_blocks
    at dists gives both masses of every step, and the ratios are reduced
    over one block of centers at a time.  C(0) = 1: each ball of radius 0
    is its center.
    """
    steps = np.unique(np.concatenate((dists[dists <= 2.0 * horizon], dists / 2.0)))
    inner = np.searchsorted(dists, steps, side="right") - 1
    outer = np.searchsorted(dists, 2.0 * steps, side="right") - 1
    best = np.zeros(len(steps))
    for masses in _ball_mass_blocks(space, len(dists)):
        np.maximum(best, (masses[:, outer] / masses[:, inner]).max(axis=0), out=best)
    return steps, best


@dataclass(frozen=True)
class DoublingProfile:
    """Minimal doubling constants of a space: their step table (C is
    step_values[i] on [steps[i], steps[i+1]), up to 2*horizon), and the
    record of it at every half-distance within (0, horizon] (radii and
    values), the grid that reports list."""

    space: FiniteMMSpace
    horizon: float
    radii: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    steps: np.ndarray = field(repr=False)
    step_values: np.ndarray = field(repr=False)

    def __post_init__(self):
        for array in (self.radii, self.values, self.steps, self.step_values):
            array.setflags(write=False)


def doubling_profile(space: FiniteMMSpace, horizon: float | None = None) -> DoublingProfile:
    """Minimal doubling constants at every step within [0, 2*horizon], and
    at the distinct half-distances within (0, horizon], where the outer
    ball's composition changes; horizon defaults to the diameter (1.0 for
    a single point, where every constant is 1 anyway).  Requires all
    weights positive so every ratio has a positive denominator.
    """
    zero = np.flatnonzero(space.weights <= 0.0)
    if len(zero):
        raise ValueError(f"doubling needs positive weights; zero at indices {zero[:10].tolist()}")
    if horizon is None:
        horizon = space.diameter or 1.0
    if not horizon > 0.0:
        raise ValueError("horizon must be > 0")
    table = space.grades[0]
    dists = table[table <= 4.0 * horizon]
    steps, step_values = _step_table(space, dists, horizon)
    halves = dists / 2.0
    grid = halves[(halves > 0.0) & (halves <= horizon)]  # every one a step
    values = step_values[np.searchsorted(steps, grid)]
    return DoublingProfile(space, float(horizon), grid, values, steps, step_values)


def lemma_constant(profile: DoublingProfile, r1: float, r2: float) -> float:
    """Largest doubling constant along the dyadic ladder from r1 past 2*r2.

    The ladder compares B(x, 2^(i+1) r1) against B(x, 2^i r1) from i = 0
    until the ball swallows B(y, r2) for any y within r2 of x, so the
    maximum is taken over i = 0 .. j with 2^j r1 >= 2 r2.  Starting at
    i = 0 matters: the first rung's constant can exceed all later ones.
    Every rung is below 4 r2 <= 2 * horizon, so each is read off the
    profile's step table: the value of the last step at or below it.
    """
    if not 0.0 < r1 <= r2:
        raise ValueError("need 0 < r1 <= r2")
    if 2.0 * r2 > profile.horizon:
        raise ValueError(f"need 2*r2 <= horizon {profile.horizon}")
    rungs = [r1]
    while rungs[-1] < 2.0 * r2:
        rungs.append(rungs[-1] * 2.0)
    at = np.searchsorted(profile.steps, rungs, side="right") - 1
    return float(profile.step_values[at].max())


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

    Requires epsilon to be the net's own (build_net refuses one that is
    not > 0); the scale rule is lemma_constant's alone, 2*r2 <= horizon
    at r2 = 16*epsilon/3 as computed, so the check refuses exactly the
    epsilons its ladder refuses.  holds=False means a bug.
    """
    if epsilon != net.epsilon:
        raise ValueError(f"epsilon {epsilon} is not the net's {net.epsilon}")
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

    Only the members' block of the matrix is read.  Sets of members are
    Python ints, bit i for the i-th member: each member's row of members
    5*eps or more away, the unassigned and the barred.  A class admits
    the lowest member left in ok & remaining & ~barred, ok being the
    members 5*eps from every chosen one, which is the next one the greedy
    scan in index order would admit.
    """
    members = np.array(net.members.indices)
    scale = 5.0 * net.epsilon
    block = space.dist[np.ix_(members, members)]
    close = block <= scale
    a = int(np.argmax(close.sum(axis=1)))  # first max = lowest point index (sorted)
    betas = np.flatnonzero(close[a]).tolist()
    apart = block >= scale
    np.fill_diagonal(apart, False)  # a chosen member leaves ok
    rows = np.packbits(apart, axis=1, bitorder="little")
    far = [int.from_bytes(row.tobytes(), "little") for row in rows]
    remaining = (1 << len(members)) - 1
    barred = sum(1 << b for b in betas)
    classes = []
    for b in betas:
        chosen, taken = [b], 1 << b
        barred &= ~taken
        ok = far[b] & remaining & ~barred
        while ok:
            low = ok & -ok
            chosen.append(low.bit_length() - 1)
            taken |= low
            ok &= far[chosen[-1]]
        remaining &= ~taken
        classes.append(PointSet.of(members[chosen]))
    if remaining:
        left = [int(p) for i, p in enumerate(members) if remaining >> i & 1]
        raise RuntimeError(f"net coloring left {left} unassigned; this is a bug")
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
    table = image.grades[0]
    at = np.searchsorted(table, (2.0 * net.epsilon, 3.0 * net.epsilon, math.inf), side="right") - 1
    masses = np.concatenate(list(_ball_mass_blocks(image, len(table), members)))[:, at]
    best = int(np.argmax(masses[:, 0]))
    ball2, ball3, total = masses[best]
    if ball2 < mass_floor:
        return None
    return ConcentrationWitness(int(members[best]), float(ball2), float(total - ball3))
