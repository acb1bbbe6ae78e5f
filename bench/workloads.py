"""The three workloads: their inputs, operations and output checks.

A workload is built from the benchmark seed alone.  Its operations are
each one call to a public mmconc function, made through the module
attribute at call time so that the tracer sees it.  An operation returns
its output; `check` compares that output with the oracles and returns a
list of problems (empty when correct); `exact` counts the results the
program reports as exact; `fingerprint` condenses the output so later
rounds can be shown identical to the first, fully checked one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

import mmconc
import mmconc.cli

KAPPA = 0.1  # the documented trend and query mass parameter
HEURISTIC_SEED = 0  # the cubes are fixed inputs, and so is the heuristic's seed
BRACKET_SEED = 0  # the bracket spaces and their sampling seed are fixed too
BRACKET_SIZES = {
    "line": (8, 8, 8, 8, 9, 9, 9, 9, 10, 10, 11, 11),
    "square4": (8, 8, 8, 9, 9, 9, 10, 10, 11, 11),
    "torus6": (8, 8, 8, 9, 9, 9, 10, 10, 11, 11),
}
POINTER = re.compile(r"^mmconc: /[^:\n]*: ")


@dataclass
class Op:
    label: str
    run: Callable[[dict], object]  # the timed call
    check: Callable[[object, dict], list[str]]
    finish: Callable[[object], object] = lambda out: out  # untimed, right after run
    exact: Callable[[object], int] = lambda out: 0
    fingerprint: Callable[[object], str] = lambda out: _digest(repr(out))
    expected_fault: bool = False  # a named program fault makes this op raise


@dataclass
class Workload:
    name: str
    ops: list[Op]
    round_check: Callable[[list], list[str]] = lambda outputs: []  # across one round's outputs


def _digest(text) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _closed(out) -> int:
    """A command's bracket with lower == upper counts as exact."""
    rep = out["report"]
    return int(rep is not None and rep["lower"] == rep["upper"])


def _always(out) -> int:
    return 1


# ---------------------------------------------------------------------------
# inputs made without the program


def l1_grid_space(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n distinct points of {0..15}^3 under the L1 metric, scaled by 1/32.

    Integer L1 distances times a power of two are exact floats, so the
    triangle inequality holds exactly and the document validates.
    """
    while True:
        pts = rng.integers(0, 16, size=(n, 3))
        if len({tuple(p) for p in pts}) == n:
            break
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2) / 32.0
    weights = rng.uniform(0.2, 1.0, size=n)
    return dist, weights / weights.sum()


def matrix_doc(dist, weights, labels=None) -> dict:
    n = len(weights)
    return {
        "schema_version": 1,
        "points": list(labels) if labels else [f"p{i}" for i in range(n)],
        "metric": {"matrix": [[float(v) for v in row] for row in dist]},
        "weights": [float(w) for w in weights],
    }


def generator_doc(generator: dict, weights="uniform") -> dict:
    return {"schema_version": 1, "metric": {"generator": generator}, "weights": weights}


def cube_dist(n: int) -> np.ndarray:
    codes = np.arange(1 << n)
    xor = codes[:, None] ^ codes[None, :]
    ham = np.zeros_like(xor)
    for bit in range(n):
        ham += (xor >> bit) & 1
    return ham / n


def torus_dist(n: int) -> np.ndarray:
    idx = np.arange(n)
    raw = np.abs(idx[:, None] - idx[None, :])
    return np.minimum(raw, n - raw) / n


def cube_lower_bound_problems(space_n: int, value: float, kappa: float) -> list[str]:
    _, harper = oracles.harper_sep_hamming(space_n, kappa)
    if value > harper * (1 + 1e-12):
        return [f"cube {space_n}: heuristic separation {value!r} above Harper's {harper!r}"]
    return []


def witness_problems(dist, weights, groups, kappas, value) -> list[str]:
    """Every witness group carries its mass and the groups realize the value."""
    problems = []
    for g, (members, kappa) in enumerate(zip(groups, kappas)):
        if not members:
            problems.append(f"witness group {g} is empty")
        elif oracles.sequential_mass(weights, members) < kappa:
            problems.append(f"witness group {g} has mass below {kappa!r}")
    if len(groups) == 2 and groups[0] and groups[1]:
        gap = float(np.asarray(dist)[np.ix_(groups[0], groups[1])].min())
        if gap != value:
            problems.append(f"witness groups are {gap!r} apart, reported {value!r}")
    return problems


def forced_constant(dist: np.ndarray, delta: float) -> bool:
    """Is the graph {d(x, y) < delta} connected?  Then a 1-Lipschitz map
    into a screen whose positive distances are all >= delta is constant."""
    n = dist.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = np.flatnonzero((dist[frontier] < delta).any(axis=0) & ~seen)
        seen[nxt] = True
        frontier = list(nxt)
    return bool(seen.all())


def min_positive(dist: np.ndarray) -> float:
    pos = dist[dist > 0.0]
    return float(pos.min()) if len(pos) else math.inf


def square4() -> tuple[np.ndarray, np.ndarray]:
    q = 0.25
    dist = np.array([[0, q, q, 2 * q], [q, 0, 2 * q, q], [q, 2 * q, 0, q], [2 * q, q, q, 0]])
    return dist, np.full(4, 0.25)


# ---------------------------------------------------------------------------
# trend


TREND_SEED = 0  # the documented experiment seed
# half the documented 64 samples per cell: a round then takes about 12 s, so a
# run averages over about three rounds instead of timing a single one
TREND_SAMPLES = 32


def trend(seed: int, workdir: str) -> Workload:
    """run_levy_experiment on one Hamming cube per operation, n = 2..7,
    default roster, kappa 0.1, 32 samples per cell and the documented
    experiment seed.

    The inputs are the documented experiment's and do not depend on the
    benchmark seed: a seeded experiment spends different amounts of
    sampler and heuristic work on different seeds, and with only six
    operations per round that would swamp every change worth measuring.
    """
    sq_dist, _ = square4()
    screen_dist = {"torus6": torus_dist(6), "square4": sq_dist, "singleton": np.zeros((1, 1))}

    def make(n: int) -> Op:
        def run(ctx):
            return mmconc.families.run_levy_experiment(
                [mmconc.families.FamilySpec("hamming_cube", n)],
                kappa_grid=[KAPPA],
                seed=TREND_SEED,
                samples=TREND_SAMPLES,
                workers=1,
            )

        def check(report, ctx):
            problems = []
            (sep,) = report.sep_rows
            problems += cube_lower_bound_problems(n, sep["sep_lower"], KAPPA)
            if sep["sep_is_exact"]:
                d = cube_dist(n)
                want = oracles.sep_two_groups(d, np.full(1 << n, 0.5**n), KAPPA, KAPPA)
                _, harper = oracles.harper_sep_hamming(n, KAPPA)
                if not (_close(sep["sep_value"], want) and _close(want, harper)):
                    problems.append(
                        f"n={n}: exact separation {sep['sep_value']!r}, subset oracle "
                        f"{want!r}, Harper {harper!r}"
                    )
            elif n <= 3:
                problems.append(f"n={n}: separation refused within the budget")
            lowers = []
            for cell in report.cells:
                d = screen_dist[cell["screen"]]
                lo, up = cell["obsdiam_lower"], cell["obsdiam_upper"]
                lowers.append(lo)
                if not lo <= up:
                    problems.append(f"n={n} {cell['screen']}: inverted bracket [{lo!r}, {up!r}]")
                if up > float(d.max()) * (1 + 1e-12):
                    problems.append(f"n={n} {cell['screen']}: upper {up!r} above screen diameter")
                if lo != 0.0 and not np.isclose(d, lo, rtol=1e-12, atol=0).any():
                    problems.append(f"n={n} {cell['screen']}: lower {lo!r} is no screen distance")
                if min_positive(d) > 1.0 / n and lo != 0.0:
                    problems.append(
                        f"n={n} {cell['screen']}: every 1-Lipschitz map is constant, lower {lo!r}"
                    )
                if cell["witness_residual"] is not None and cell["witness_residual"] < 0.0:
                    problems.append(f"n={n} {cell['screen']}: negative witness residual")
            (sup,) = report.suprema
            if sup["roster_sup"] != max(lowers):
                problems.append(f"n={n}: roster_sup {sup['roster_sup']!r} != max lower")
            return problems

        def exact(report):
            count = sum(1 for r in report.sep_rows if r["sep_is_exact"])
            return count + sum(1 for c in report.cells if c["obsdiam_lower"] == c["obsdiam_upper"])

        def fingerprint(report):
            return _digest(json.dumps(report.as_dict(), sort_keys=True))

        return Op(f"levy hamming:{n}", run, check, exact=exact, fingerprint=fingerprint)

    def round_check(outputs):
        sups = [rep.suprema[0]["roster_sup"] for rep in outputs if rep is not None]
        if any(b > a for a, b in zip(sups, sups[1:])):
            return [f"roster_sup increases along n: {sups}"]
        return []

    return Workload("trend", [make(n) for n in range(2, 8)], round_check)


# ---------------------------------------------------------------------------
# queries


class _Docs:
    """Space documents written at set-up, with the arrays behind them."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.arrays: dict[str, tuple] = {}
        self.count = 0

    def write(self, name: str, doc, arrays=None) -> str:
        path = os.path.join(self.workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
        if arrays is not None:
            self.arrays[path] = arrays
        return path

    def out(self) -> str:
        self.count += 1
        return os.path.join(self.workdir, f"out{self.count}.json")


def _cli(argv: list[str]) -> dict:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = mmconc.cli.main(argv)
    return {"code": code, "stderr": err.getvalue()}


def _read_report(path: str):
    """The report a command wrote, removed so no later round can see it."""
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except FileNotFoundError:
        return None
    os.remove(path)
    return report


def queries(seed: int, workdir: str) -> Workload:
    """A fixed list of CLI commands run in-process through mmconc.cli.main."""
    rng = np.random.default_rng([seed, 2])
    docs = _Docs(workdir)
    spaces = {}
    for n in (8, 9, 10, 11, 12, 13):
        dist, w = l1_grid_space(rng, n)
        spaces[n] = docs.write(f"r{n}", matrix_doc(dist, w), (dist, w))
    # Bracket inputs do not depend on the benchmark seed.  A bracket's
    # cost varies several-fold from one random space to the next, and so
    # does whether it closes; seeded, they would swamp both wall_s and
    # exact_results.  Separation and every other query stay seeded.
    fixed = np.random.default_rng([BRACKET_SEED, 20])
    bracket_spaces = {}
    for purpose, sizes in BRACKET_SIZES.items():
        for k, n in enumerate(sizes):
            dist, w = l1_grid_space(fixed, n)
            name = f"{purpose}{k}_n{n}"
            bracket_spaces[(purpose, k)] = (name, docs.write(name, matrix_doc(dist, w), (dist, w)))
    sq_dist, sq_w = square4()
    screens = {
        "square4": docs.write(
            "square4", matrix_doc(sq_dist, sq_w, ["sw", "se", "nw", "ne"]), (sq_dist, sq_w)
        ),
        "torus6": docs.write(
            "torus6",
            matrix_doc(torus_dist(6), np.full(6, 1 / 6)),
            (torus_dist(6), np.full(6, 1 / 6)),
        ),
    }
    cubes = {
        n: docs.write(f"cube{n}", generator_doc({"kind": "hamming_cube", "n": n})) for n in (4, 5, 6)
    }
    ops: list[Op] = []

    def cli_op(label, argv, check, exact=lambda out: 0, expected_fault=False):
        out_path = docs.out()
        full = argv + ["--out", out_path]

        def run(ctx):
            return _cli(full)

        def finish(result):
            result["report"] = _read_report(out_path)
            return result

        def fingerprint(out):
            return _digest(json.dumps(out, sort_keys=True))

        ops.append(Op(label, run, check, finish, exact, fingerprint, expected_fault))

    def wants_ok(out) -> list[str]:
        if out["code"] != 0:
            return [f"exit {out['code']}: {out['stderr'].strip()[:200]}"]
        return []

    # exact separation on random spaces, against the subset oracle
    for n, path in spaces.items():
        kappas = [float(k) for k in rng.uniform(0.15, 0.35, size=2)]
        dist, w = docs.arrays[path]

        def check(out, ctx, dist=dist, w=w, kappas=kappas):
            problems = wants_ok(out)
            if problems:
                return problems
            rep = out["report"]
            want = oracles.sep_two_groups(dist, w, *kappas)
            if rep["value"] != want or not rep["exact"]:
                problems.append(f"sep {rep['value']!r} (exact={rep['exact']}), oracle {want!r}")
            if rep["witnesses"] is not None:
                groups = [[int(p[1:]) for p in g] for g in rep["witnesses"]]
                problems += witness_problems(dist, w, groups, kappas, rep["value"])
            elif want != 0.0:
                problems.append("no witnesses for a feasible separation")
            return problems

        cli_op(
            f"sep r{n}",
            ["sep", "--space", path] + [a for k in kappas for a in ("--kappa", repr(k))],
            check,
            exact=lambda out: int(out["report"] is not None and out["report"]["exact"]),
        )

    # heuristic separation on cubes over the exact budget, against Harper
    for n, path in cubes.items():
        def check(out, ctx, n=n):
            problems = wants_ok(out)
            if problems:
                return problems
            rep = out["report"]
            if rep["exact"]:
                problems.append(f"cube {n}: over-budget separation claims to be exact")
            problems += cube_lower_bound_problems(n, rep["value"], KAPPA)
            if rep["witnesses"] is not None:
                groups = [[int(p, 2) for p in g] for g in rep["witnesses"]]
                problems += witness_problems(
                    cube_dist(n), np.full(1 << n, 0.5**n), groups, [KAPPA, KAPPA], rep["value"]
                )
            return problems

        cli_op(
            f"sep --effort cube{n}",
            ["sep", "--space", path, "--kappa", repr(KAPPA), "--kappa", repr(KAPPA)]
            + ["--effort", "10000", "--seed", str(HEURISTIC_SEED)],
            check,
        )

    def refused(out, ctx):
        if out["code"] != 2 or "refused" not in out["stderr"]:
            return [f"over budget without --effort: exit {out['code']}, {out['stderr'][:200]!r}"]
        return []

    cli_op("sep cube4 refused", ["sep", "--space", cubes[4], "--kappa", "0.1", "--kappa", "0.1"], refused)

    # observable-diameter brackets into the line
    for k in range(len(BRACKET_SIZES["line"])):
        name, path = bracket_spaces[("line", k)]
        dist, w = docs.arrays[path]
        kappa = float(fixed.uniform(0.08, 0.2))

        def check(out, ctx, dist=dist, w=w, kappa=kappa):
            problems = wants_ok(out)
            if problems:
                return problems
            rep = out["report"]
            lo, up = rep["lower"], rep["upper"]
            target = float(np.sum(w)) - kappa
            values = rep["witness"]["values"]
            if values is None:
                if lo != 0.0:
                    problems.append(f"lower {lo!r} without a witness")
            else:
                f = np.asarray(values)
                if (np.abs(f[:, None] - f[None, :]) > dist).any():
                    problems.append("line witness is not 1-Lipschitz")
                again = oracles.real_partial_diameter(f, w, target)
                if again != lo:
                    problems.append(f"witness partial diameter {again!r} != lower {lo!r}")
            if not lo <= up:
                problems.append(f"inverted bracket [{lo!r}, {up!r}]")
            if "clamped" in rep["upper_source"]:
                problems.append(f"upper bound was clamped: {rep['upper_source']}")
            if rep["upper_source"] == "separation at kappa/2 per slot":
                want = oracles.sep_two_groups(dist, w, kappa / 2, kappa / 2)
                if up != want:
                    problems.append(f"upper {up!r} != Sep(kappa/2, kappa/2) oracle {want!r}")
            return problems

        cli_op(
            f"obsdiam line {name}",
            ["obsdiam", "--space", path, "--kappa", repr(kappa), "--seed", str(BRACKET_SEED)],
            check,
            exact=_closed,
        )

    # observable-diameter brackets into screens
    screen_labels = {"square4": ["sw", "se", "nw", "ne"], "torus6": [f"p{i}" for i in range(6)]}
    for (screen_name, k), (name, path) in bracket_spaces.items():
        if screen_name == "line":
            continue
        dist, w = docs.arrays[path]
        s_dist, _ = docs.arrays[screens[screen_name]]
        labels = screen_labels[screen_name]

        def check(out, ctx, dist=dist, w=w, s_dist=s_dist, labels=labels):
            problems = wants_ok(out)
            if problems:
                return problems
            rep = out["report"]
            lo, up = rep["lower"], rep["upper"]
            f = np.asarray([labels.index(p) for p in rep["witness"]["values"]])
            if (s_dist[np.ix_(f, f)] > dist).any():
                problems.append("screen witness is not 1-Lipschitz")
            image = [0.0] * len(labels)
            for x, fx in enumerate(f):
                image[fx] += float(w[x])
            target = float(np.sum(w)) - KAPPA
            again = oracles.screen_partial_diameter(s_dist, image, target)
            if again != lo:
                problems.append(f"witness partial diameter {again!r} != lower {lo!r}")
            if not lo <= up <= float(s_dist.max()):
                problems.append(f"bracket [{lo!r}, {up!r}] outside [0, screen diameter]")
            if forced_constant(dist, min_positive(s_dist)) and lo != 0.0:
                problems.append(f"every 1-Lipschitz map is constant, lower {lo!r}")
            return problems

        cli_op(
            f"obsdiam {name}",
            ["obsdiam", "--space", path, "--kappa", repr(KAPPA), "--screen", screens[screen_name]]
            + ["--seed", str(BRACKET_SEED)],
            check,
            exact=_closed,
        )

    # quantile gaps and partial diameters of line measures
    measures = []
    for k in (9, 14):
        pos = np.sort(rng.integers(0, 64, size=k)) / 8.0
        wts = rng.uniform(0.05, 1.0, size=k)
        wts = wts / wts.sum()
        atoms = [[float(p), float(q)] for p, q in zip(pos, wts)]
        measures.append((docs.write(f"measure{k}", {"schema_version": 1, "atoms": atoms}), pos, wts))
    for path, pos, wts in measures:
        kappa = float(rng.uniform(0.1, 0.4))

        def check(out, ctx, pos=pos, wts=wts, kappa=kappa):
            problems = wants_ok(out)
            if problems:
                return problems
            rep = out["report"]
            a0, b0, gap, degenerate = oracles.quantile_gap(pos, wts, kappa)
            got = (rep["a0"], rep["b0"], rep["gap"], rep["degenerate"])
            if got != (a0, b0, gap, degenerate):
                problems.append(f"quantile gap {got} != oracle {(a0, b0, gap, degenerate)}")
            return problems

        argv = ["sep-real", "--space", path, "--kappa", repr(kappa)]
        cli_op(f"sep-real {os.path.basename(path)}", argv, check, exact=_always)

    path, pos, wts = measures[1]
    target = float(rng.uniform(0.5, 0.9))

    def check_pd_line(out, ctx, pos=pos, wts=wts, target=target):
        problems = wants_ok(out)
        want = oracles.real_partial_diameter(pos, wts, target)
        if not problems and out["report"]["value"] != want:
            problems.append(f"partial diameter {out['report']['value']!r} != window oracle {want!r}")
        return problems

    argv = ["partial-diam", "--space", path, "--target-mass", repr(target)]
    cli_op("partial-diam measure", argv, check_pd_line, exact=_always)

    path = spaces[13]
    dist, w = docs.arrays[path]
    target = float(rng.uniform(0.5, 0.9))

    def check_pd_space(out, ctx, dist=dist, w=w, target=target):
        problems = wants_ok(out)
        want = oracles.space_partial_diameter(dist, w, target, float(np.sum(w)))
        if not problems and out["report"]["value"] != want:
            problems.append(f"partial diameter {out['report']['value']!r} != subset oracle {want!r}")
        return problems

    argv = ["partial-diam", "--space", path, "--target-mass", repr(target)]
    cli_op("partial-diam r13", argv, check_pd_space, exact=_always)

    # doubling profiles, nets and colorings of random spaces
    for n in (12, 13):
        path = spaces[n]
        dist, w = docs.arrays[path]

        def check(out, ctx, dist=dist, w=w):
            problems = wants_ok(out)
            if problems:
                return problems
            rep = out["report"]
            halves = np.unique(dist[np.triu_indices(len(w), 1)]) / 2.0
            if list(halves) != rep["radii"]:
                problems.append("doubling radii are not the half-distances")
                return problems
            want = oracles.doubling_constants(dist, w, halves)
            if not np.allclose(rep["constants"], want, rtol=1e-12, atol=0.0):
                problems.append("doubling constants differ from the ball-mass recomputation")
            return problems

        cli_op(f"doubling r{n}", ["doubling", "--space", path], check, exact=_always)

    for command, n in (("net", 12), ("color", 13)):
        path = spaces[n]
        dist, w = docs.arrays[path]
        eps = float(np.round(rng.uniform(0.1, 0.3), 4))

        def check(out, ctx, dist=dist, eps=eps, command=command):
            problems = wants_ok(out)
            if problems:
                return problems
            rep = out["report"]
            if command == "net":
                members = [int(p[1:]) for p in rep["members"]]
                if rep["count"] != len(members):
                    problems.append("net count differs from its member list")
                return problems + oracles.net_violations(dist, members, eps)
            classes = [[int(p[1:]) for p in c] for c in rep["classes"]]
            members = sorted(p for c in classes for p in c)
            problems += oracles.net_violations(dist, members, eps)
            return problems + oracles.coloring_violations(dist, members, classes, eps)

        argv = [command, "--space", path, "--epsilon", repr(eps)]
        cli_op(f"{command} r{n}", argv, check, exact=_always)

    # validation of a matrix document and of a generator document
    path = spaces[10]
    dist, w = docs.arrays[path]

    def check_valid(out, ctx, dist=dist, w=w):
        problems = wants_ok(out)
        rep = out["report"] or {}
        ok = rep.get("valid") and rep["points"] == len(w) and rep["diameter"] == dist.max()
        if not problems and not ok:
            problems.append(f"validate report {rep}")
        return problems

    cli_op("validate r10", ["validate", "--space", path], check_valid)
    product = docs.write(
        "product",
        generator_doc(
            {
                "kind": "product",
                "factors": [{"kind": "discrete_torus", "n": 4}, {"kind": "hamming_cube", "n": 3}],
            }
        ),
    )

    def check_product(out, ctx):
        problems = wants_ok(out)
        rep = out["report"] or {}
        ok = rep.get("valid") and rep["points"] == 32 and _close(rep["diameter"], 1.5)
        if not problems and not ok:
            problems.append(f"validate report {rep}")
        return problems

    cli_op("validate product", ["validate", "--space", product], check_product)

    # malformed documents: exit 1 with a JSON pointer
    dist, w = docs.arrays[spaces[9]]
    broken = dist.copy()
    broken[0, 1] = broken[1, 0] = float(dist.max() * 3)
    malformed = {
        "not-json": "{\"schema_version\": 1, \"metric\": ",
        "no-metric": {"schema_version": 1, "points": ["a"], "weights": [1.0]},
        "not-square": {"schema_version": 1, "metric": {"matrix": [[0.0, 1.0]]}},
        "triangle": matrix_doc(broken, w),
        "weights-length": {**matrix_doc(dist, w), "weights": [float(x) for x in w[:-1]]},
        "labels": {**matrix_doc(dist, w), "points": list(range(len(w)))},
        "unknown-kind": generator_doc({"kind": "klein_bottle", "n": 4}),
    }

    def wants_pointer(out, ctx):
        if out["code"] != 1 or not POINTER.match(out["stderr"]):
            return [f"malformed document: exit {out['code']}, {out['stderr'][:200]!r}"]
        return []

    for name, doc in malformed.items():
        argv = ["validate", "--space", docs.write(f"bad-{name}", doc)]
        cli_op(f"malformed {name}", argv, wants_pointer)
    bad_atoms = docs.write("bad-atoms", {"schema_version": 1, "atoms": [[0.0, 0.5], [1.0]]})
    cli_op("malformed atoms", ["sep-real", "--space", bad_atoms, "--kappa", "0.2"], wants_pointer)
    # a weighted_graph edge with two entries; formats._generator_spec
    # raises IndexError, which escapes cli.main as a traceback
    two_entry = docs.write(
        "bad-edge",
        generator_doc({"kind": "weighted_graph", "n": 3, "edges": [[0, 1, 1.0], [1, 2]]}),
    )
    argv = ["validate", "--space", two_entry]
    cli_op("malformed two-entry edge", argv, wants_pointer, expected_fault=True)
    return Workload("queries", ops)


# ---------------------------------------------------------------------------
# geometry


def geometry(seed: int, workdir: str) -> Workload:
    """Generation, doubling profiles, nets, colorings and packing checks
    on cubes and tori on both sides of the 1,024-point re-validation cap,
    and a small product, all with weights drawn from the seed."""
    rng = np.random.default_rng([seed, 3])
    FamilySpec = mmconc.families.FamilySpec
    plans = []  # (key, spec, closed-form distances, profiled?)
    for key, kind, n, size in (
        ("cube9", "hamming_cube", 9, 512),
        ("cube11", "hamming_cube", 11, 2048),
        ("torus512", "discrete_torus", 512, 512),
        ("torus1536", "discrete_torus", 1536, 1536),
    ):
        weights = tuple(float(x) for x in rng.uniform(0.5, 1.5, size=size))
        closed = (lambda n=n: cube_dist(n)) if kind == "hamming_cube" else (lambda n=n: torus_dist(n))
        plans.append((key, FamilySpec(kind, n, weights=weights), closed, key != "torus1536"))
    a, b = 8, 12
    weights = tuple(float(x) for x in rng.uniform(0.5, 1.5, size=a * b))
    spec = FamilySpec(
        "product",
        factors=(FamilySpec("discrete_torus", a), FamilySpec("discrete_torus", b)),
        weights=weights,
    )

    def product_closed():
        ta, tb = torus_dist(a), torus_dist(b)
        return np.repeat(np.repeat(ta, b, axis=0), b, axis=1) + np.tile(tb, (a, a))

    plans.append(("product", spec, product_closed, True))
    triples = rng.integers(0, 1 << 30, size=(200_000, 3))
    ops: list[Op] = []

    for key, spec, closed, with_profile in plans:
        def gen_run(ctx, key=key, spec=spec):
            ctx[key] = mmconc.families.generate(spec)
            return ctx[key]

        def gen_check(space, ctx, spec=spec, closed=closed):
            problems = []
            want = closed()
            if space.dist.shape != want.shape:
                return [f"shape {space.dist.shape}, expected {want.shape}"]
            off = want > 0
            rel = np.abs(space.dist[off] - want[off]) / want[off]
            if rel.max(initial=0.0) > 1e-12 or (space.dist[~off] != 0.0).any():
                problems.append(f"distances off their closed form by {rel.max()!r}")
            t = triples % space.n
            d = space.dist
            if (d[t[:, 0], t[:, 2]] > d[t[:, 0], t[:, 1]] + d[t[:, 1], t[:, 2]]).any():
                problems.append("sampled triangle inequality fails")
            if not np.array_equal(space.weights, np.asarray(spec.weights)):
                problems.append("weights differ from the request")
            return problems

        def space_fp(space):
            labels = "|".join(space.points).encode()
            return _digest(space.dist.tobytes() + space.weights.tobytes() + labels)

        ops.append(Op(f"generate {key}", gen_run, gen_check, exact=_always, fingerprint=space_fp))

        if with_profile:
            def prof_run(ctx, key=key):
                ctx[key + ".profile"] = mmconc.doubling.doubling_profile(ctx[key])
                return ctx[key + ".profile"]

            def prof_check(profile, ctx, key=key):
                space = ctx[key]
                halves = space.distinct_distances() / 2.0
                if not np.array_equal(profile.radii, halves[halves <= profile.horizon]):
                    return ["profile radii are not the half-distances"]
                want = oracles.doubling_constants(space.dist, space.weights, profile.radii)
                if not np.allclose(profile.values, want, rtol=1e-12, atol=0.0):
                    return ["doubling constants differ from the ball-mass recomputation"]
                return []

            def prof_fp(profile):
                return _digest(profile.radii.tobytes() + profile.values.tobytes())

            ops.append(
                Op(f"doubling_profile {key}", prof_run, prof_check, exact=_always, fingerprint=prof_fp)
            )

        def net_run(ctx, key=key):
            # the largest scale the packing bound covers at the default horizon
            ctx[key + ".net"] = mmconc.space.build_net(ctx[key], 3.0 * ctx[key].diameter / 32.0)
            return ctx[key + ".net"]

        def net_check(net, ctx, key=key):
            return oracles.net_violations(ctx[key].dist, net.members.indices, net.epsilon)

        def net_fp(net):
            return repr(net.members)

        ops.append(Op(f"build_net {key}", net_run, net_check, exact=_always, fingerprint=net_fp))

        def color_run(ctx, key=key):
            return mmconc.doubling.color_net(ctx[key], ctx[key + ".net"])

        def color_check(coloring, ctx, key=key):
            net = ctx[key + ".net"]
            classes = [c.indices for c in coloring.classes]
            return oracles.coloring_violations(ctx[key].dist, net.members.indices, classes, net.epsilon)

        def color_fp(coloring):
            return repr((coloring.anchor, coloring.classes))

        ops.append(Op(f"color_net {key}", color_run, color_check, exact=_always, fingerprint=color_fp))

        if with_profile:
            def pack_run(ctx, key=key):
                net = ctx[key + ".net"]
                return mmconc.doubling.packing_bound_check(ctx[key + ".profile"], net, net.epsilon)

            def pack_check(check, ctx, key=key):
                net = ctx[key + ".net"]
                mult = oracles.packing_multiplicity(ctx[key].dist, net.members.indices, net.epsilon)
                problems = []
                if not check.holds:
                    problems.append("packing bound fails")
                if check.max_multiplicity != mult:
                    problems.append(f"multiplicity {check.max_multiplicity}, expected {mult}")
                return problems

            ops.append(Op(f"packing_bound_check {key}", pack_run, pack_check))

    return Workload("geometry", ops)


WORKLOADS = {"trend": trend, "queries": queries, "geometry": geometry}
