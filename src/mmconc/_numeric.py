"""Float helpers shared by the metric generators and experiment drivers,
and the floors of their count arguments.

Distance matrices are compared with plain float64 arithmetic everywhere
(no tolerances), so generated metrics must satisfy their axioms *exactly*
at the float level.  Rational values like k/n are not representable, and
rounding each entry to nearest breaks subadditivity by an ulp often
enough to matter (fl(1/3) + fl(2/3) < 1.0).  The helpers here build
tables that are monotone and subadditive as exact reals, staying within
a relative ~1e-13 of the intended rational targets.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np


def floor_sum(a, b):
    """Largest float64 <= the exact real sum a + b.  Vectorized: Knuth's
    two-sum (s + err == a + b exactly) into two buffers beside s, then s
    steps down an ulp where err < 0; a broadcast peaks near three s."""
    s = np.asarray(np.add(a, b, dtype=np.float64))
    bb = np.subtract(s, a, out=np.empty_like(s))
    err = np.subtract(s, bb, out=np.empty_like(s))
    np.add(np.subtract(a, err, out=err), np.subtract(b, bb, out=bb), out=err)
    del bb  # freed before the mask is built
    np.nextafter(s, -np.inf, out=s, where=err < 0.0)
    return s


def subadditive_table(count: int, numerator_step: float = 1.0, denominator: float = 1.0) -> np.ndarray:
    """Table t[0..count] with t[k] ~= k * numerator_step / denominator,
    adjusted downward (by at most a few ulp per entry) so that

        t[i + j] <= t[i] + t[j]   as exact reals, for all i, j,

    and t is strictly increasing: close_table of the targets.  A metric
    of the form d(x, y) = t[K(x, y)] with an integer metric K then
    satisfies the triangle inequality exactly, and any distance function
    derived from it passes a tolerance-free Lipschitz check.
    """
    return close_table(np.arange(count + 1) * numerator_step / denominator)


def close_table(grid: np.ndarray) -> np.ndarray:
    """The greatest table S <= grid with S[c1 + c2] <= floor_sum(S[c1],
    S[c2]) for every split on the grid, written over grid (finite entries
    >= 0, grid[0] = 0) and returned.  One pass in C order: cell c falls to
    the least floor_sum over its splits a + (c - a), split a = 0 keeping
    its own value; every other a and c - a come before c, already final
    (the proof is in families._product).  In the box of cells a <= c,
    flattened, the mirror c - a of index i is index size - 1 - i, so one
    floor_sum of the first half against the reversed box takes every
    split at once."""
    for c in itertools.product(*map(range, grid.shape)):
        box = grid[tuple([slice(i + 1) for i in c])].ravel()
        half = box.size - box.size // 2
        grid[c] = floor_sum(box[:half], box[::-1][:half]).min()
    return grid


def exact_triangle_closure(dist: np.ndarray) -> np.ndarray:
    """Lower entries (by ulps) until dist[i,k] <= dist[i,j] + dist[j,k]
    holds as exact reals.  Floyd-Warshall in round-down arithmetic, in
    passes until a pass changes nothing; every change lowers an entry, so
    the passes end.  The input is expected to be triangle-consistent up
    to rounding already: one or two passes usually suffice, but shortest
    paths over many uneven hops can take ten.  Its callers are
    families._matrix_fold and separation.real_measure_as_space.

    Hub j can lower an entry only if an entry of row j or column j fell
    since j last ran, so a pass visits only those dirty hubs.  The hubs
    it skips would have changed nothing, and the result is the one a
    pass over every hub gives.
    """
    d = dist.copy()
    n = d.shape[0]
    dirty = np.ones(n, dtype=bool)
    while dirty.any():
        for j in range(n):
            if not dirty[j]:
                continue
            dirty[j] = False
            via = floor_sum(d[:, j][:, None], d[j, :][None, :])
            mask = via < d
            if mask.any():
                d[mask] = via[mask]
                dirty |= mask.any(axis=1) | mask.any(axis=0)
    np.fill_diagonal(d, 0.0)
    return np.minimum(d, d.T)


# the least value of each count argument, for the library and the CLI's flags
COUNT_FLOORS = {"effort": 0, "samples": 0, "workers": 1, "budget": 0}


def check_counts(**counts: int | None) -> None:
    """Refuse a count below its floor in COUNT_FLOORS (None: not given)."""
    for name, value in counts.items():
        if value is not None and value < COUNT_FLOORS[name]:
            raise ValueError(f"{name} must be >= {COUNT_FLOORS[name]}, got {value}")


def check_family(family) -> None:
    """Refuse a family with no members, for the library and the CLI's flags."""
    if not family:
        raise ValueError("the family has no members")


def stable_seed(*parts) -> int:
    """Deterministic 64-bit seed from a tuple of strings/numbers.

    Independent of PYTHONHASHSEED and of process/worker layout, so
    experiment cells produce identical streams no matter how the work is
    scheduled.
    """
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, float):
            part = part.hex()
        h.update(str(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest()[:8], "big")


def rng_for(*parts) -> np.random.Generator:
    return np.random.default_rng(stable_seed(*parts))

