"""Command-line surface.

Exit codes: 0 success, 1 input error (bad flags, malformed or invalid
files), 2 refusal (an exact search would exceed its budget, or a stated
precondition fails).  Reports go to stdout or --out as canonical JSON
(sorted keys); levy-run can emit CSV instead.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys

from ._numeric import COUNT_FLOORS, check_counts, check_family
from .doubling import color_net, doubling_profile
from .families import FamilySpec, run_levy_experiment
from .formats import (
    SpaceFileError,
    parse_document,
    parse_real_measure,
    parse_space,
    report_csv,
    report_json,
)
from .observable import (
    DEFAULT_SCREEN_BUDGET,
    obsdiam_real_bracket,
    obsdiam_screen_estimate,
    partial_diameter_real,
    partial_diameter_screen,
)
from .separation import BudgetExceededError, DEFAULT_ASSIGNMENT_BUDGET, sep, sep_real_quantile
from .space import FiniteMMSpace, build_net

_FAMILY_KINDS = {"hamming": "hamming_cube", "torus": "discrete_torus"}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; here usage errors are input
    errors, so exit 1 and keep 2 for budget refusals."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache  # built on first use; parses share no state
def _build_parser() -> _Parser:
    parser = _Parser(prog="mmconc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, help_text, **flag_spec):
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in flag_spec.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kwargs)
        p.add_argument("--out", help="write the report here instead of stdout")
        return p

    space_arg = {"required": True, "help": "space document (JSON)"}
    kappa_rep = {"action": "append", "type": float, "required": True, "help": "mass threshold; repeatable"}
    seed0 = {"type": int, "default": 0}
    budget = {"type": int, "default": DEFAULT_ASSIGNMENT_BUDGET}

    cmd("validate", "check a space document", space=space_arg)
    cmd(
        "sep",
        "separation distance for >= 2 mass thresholds",
        space=space_arg,
        kappa=kappa_rep,
        budget=budget,
        effort={"type": int, "help": "opt into the heuristic lower bound when over budget"},
        seed=seed0,
    )
    cmd(
        "sep-real",
        "quantile gap of a real measure at one threshold",
        space={"required": True, "help": "real-measure document (JSON)"},
        kappa={"action": "append", "type": float, "required": True},
    )
    cmd(
        "partial-diam",
        "smallest diameter carrying a target mass",
        space={"required": True, "help": "space or real-measure document"},
        target_mass={"type": float, "required": True},
        budget={"type": int, "default": DEFAULT_SCREEN_BUDGET, "help": "exact-search support cap"},
    )
    cmd(
        "obsdiam",
        "observable-diameter bracket (real line, or --screen)",
        space=space_arg,
        screen={"help": "screen space document; omit for the real line"},
        kappa={"action": "append", "type": float, "required": True},
        effort={"type": int, "default": 2000},
        seed=seed0,
        budget=budget,
    )
    cmd(
        "doubling",
        "doubling-constant profile",
        space=space_arg,
        radius={"type": float, "help": "horizon (default: diameter)"},
    )
    cmd("net", "greedy epsilon-net", space=space_arg, epsilon={"type": float, "required": True})
    cmd(
        "color",
        "partition a net into 5-epsilon-separated classes",
        space=space_arg,
        epsilon={"type": float, "required": True},
    )
    cmd(
        "levy-run",
        "trend experiment over a family and screen roster",
        family={"required": True, "help": "e.g. hamming:2..8 or torus:4,8,16"},
        screen={"action": "append", "help": "screen document; repeatable; default roster"},
        kappa={"action": "append", "type": float, "help": "repeatable; default 0.1"},
        effort={"type": int, "default": 10_000},
        seed={"type": int, "default": None, "help": "required, for reproducible tables"},
        budget=budget,
        workers={"type": int, "default": 1},
        samples={"type": int, "default": 64},
        format={"choices": ("json", "csv"), "default": "json"},
    )
    return parser


def _parse_family(text: str) -> list[FamilySpec]:
    try:
        kind_key, sizes_text = text.split(":", 1)
        kind = _FAMILY_KINDS[kind_key]
        if ".." in sizes_text:
            lo, hi = sizes_text.split("..")
            sizes = range(int(lo), int(hi) + 1)
        else:
            sizes = [int(s) for s in sizes_text.split(",")]
    except (ValueError, KeyError) as err:
        raise SpaceFileError(
            "--family",
            f"expected kind:lo..hi or kind:a,b,c with kind in "
            f"{sorted(_FAMILY_KINDS)}; got {text!r} ({err})",
        ) from err
    return family_of(kind, sizes, "--family")


def family_of(kind: str, sizes, flag: str) -> list[FamilySpec]:
    """The specs of one kind at the sizes a flag gave, refused at that
    flag when a size breaks the library's size rule or there is none (the
    trend script too)."""
    try:
        family = [FamilySpec(kind, n) for n in sizes]
        check_family(family)
    except ValueError as err:
        raise SpaceFileError(flag, str(err)) from None
    return family


def _labels(space, indices) -> list[str]:
    return [space.points[i] for i in indices]


def check_writable(path, flag: str = "--out") -> None:
    """Refuse, before any work, a report path that is a directory or whose
    parent directory is missing or not writable (the trend script too).
    Creates no file; write_report still refuses what this cannot foresee."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise SpaceFileError(flag, f"cannot write {path}: {os.strerror(code)}")


def write_report(path, text: str, flag: str = "--out") -> None:
    """Write text to path, or refuse at the flag that named it (the trend script too)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise SpaceFileError(flag, f"cannot write {path}: {err.strerror or err}") from None


def _emit(report, args) -> None:
    text = report_csv(report) if getattr(args, "format", "json") == "csv" else report_json(report)
    if args.out:
        write_report(args.out, text)
    else:
        sys.stdout.write(text)


def check_flags(args) -> None:
    """Refuse a count flag below its floor at the flag (the trend script too)."""
    for flag, least in COUNT_FLOORS.items():
        try:
            check_counts(**{flag: getattr(args, flag, None)})
        except ValueError:
            raise SpaceFileError(f"--{flag}", f"must be >= {least}") from None


def _run(args) -> dict:
    check_flags(args)
    if args.command == "validate":
        space = parse_space(args.space)
        return {
            "command": "validate",
            "space": args.space,
            "valid": True,
            "points": space.n,
            "total_mass": space.total_mass,
            "diameter": space.diameter,
        }

    if args.command == "sep":
        space = parse_space(args.space)
        if len(args.kappa) < 2:
            raise SpaceFileError("--kappa", "sep needs at least two thresholds")
        report = {"command": "sep", "kappas": args.kappa, "budget": args.budget}
        res = sep(space, args.kappa, args.budget, args.effort, args.seed)
        if res.refusal is not None:
            if args.effort is None:
                raise BudgetExceededError(res.refusal)
            report.update(seed=args.seed, effort=args.effort)
        witnesses = None if res.witnesses is None else [_labels(space, w) for w in res.witnesses]
        report.update(value=res.value, feasible=res.feasible, exact=res.exact, witnesses=witnesses)
        return report

    if args.command == "sep-real":
        nu = parse_real_measure(args.space)
        if len(args.kappa) != 1:
            raise SpaceFileError("--kappa", "sep-real takes exactly one threshold")
        q = sep_real_quantile(nu, args.kappa[0])
        return {
            "command": "sep-real",
            "kappa": args.kappa[0],
            "a0": q.a0,
            "b0": q.b0,
            "gap": q.gap,
            "degenerate": q.degenerate,
        }

    if args.command == "partial-diam":
        parsed = parse_document(args.space)
        if is_space := isinstance(parsed, FiniteMMSpace):
            value = partial_diameter_screen(parsed, args.target_mass, support_budget=args.budget)
        else:
            value = partial_diameter_real(parsed, args.target_mass)
        return {
            "command": "partial-diam",
            "input_kind": "space" if is_space else "real_measure",
            "target_mass": args.target_mass,
            "value": value,
        }

    if args.command == "obsdiam":
        space = parse_space(args.space)
        if len(args.kappa) != 1:
            raise SpaceFileError("--kappa", "obsdiam takes exactly one threshold")
        kappa = args.kappa[0]
        report = {"command": "obsdiam", "kappa": kappa, "seed": args.seed}
        if args.screen:
            screen = parse_space(args.screen)
            bracket = obsdiam_screen_estimate(space, screen, kappa, seed=args.seed)
            witness = dict(bracket.witness)
            witness["values"] = _labels(screen, witness["values"])
            report["screen"] = args.screen
        else:
            report["budget"] = args.budget
            bracket = obsdiam_real_bracket(
                space, kappa, effort=args.effort, seed=args.seed, budget=args.budget
            )
            witness = bracket.witness
        report.update(
            lower=bracket.lower,
            upper=bracket.upper,
            upper_source=bracket.upper_source,
            witness=witness,
        )
        return report

    if args.command == "doubling":
        space = parse_space(args.space)
        profile = doubling_profile(space, horizon=args.radius)
        return {
            "command": "doubling",
            "horizon": profile.horizon,
            "radii": profile.radii,
            "constants": profile.values,
        }

    if args.command == "net":
        space = parse_space(args.space)
        net = build_net(space, args.epsilon)
        return {
            "command": "net",
            "epsilon": args.epsilon,
            "count": len(net.members),
            "members": _labels(space, net.members),
        }

    if args.command == "color":
        space = parse_space(args.space)
        net = build_net(space, args.epsilon)
        coloring = color_net(space, net)
        return {
            "command": "color",
            "epsilon": args.epsilon,
            "k": coloring.k,
            "anchor": space.points[coloring.anchor],
            "classes": [_labels(space, c) for c in coloring.classes],
        }

    if args.command == "levy-run":
        if args.seed is None:
            raise SpaceFileError("--seed", "levy-run requires an explicit seed")
        family = _parse_family(args.family)
        screens = [(os.path.splitext(os.path.basename(p))[0], parse_space(p)) for p in args.screen or ()]
        report = run_levy_experiment(
            family,
            screens=screens or None,
            kappa_grid=args.kappa or [0.1],
            effort=args.effort,
            seed=args.seed,
            samples=args.samples,
            budget=args.budget,
            workers=args.workers,
        ).as_dict()
        report["command"] = "levy-run"
        return report

    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.out:
            check_writable(args.out)
        report = _run(args)
        _emit(report, args)
        return 0
    except BudgetExceededError as err:
        print(f"mmconc: refused: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"mmconc: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
