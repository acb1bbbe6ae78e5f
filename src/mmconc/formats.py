"""File formats: space documents, real-measure documents, reports.

JSON is the canonical format (schema below, human-writable); CSV exists
only as a tabular export of experiment reports.  Serialization uses
repr-exact floats, so parse -> serialize -> parse is the identity.

Space document:
    {
      "schema_version": 1,
      "points": ["a", "b"],                  # optional with a generator
      "metric": {"matrix": [[0, 1], [1, 0]]}
              | {"generator": {"kind": "hamming_cube", "n": 3}},
      "weights": [0.5, 0.5] | "uniform",
      "screen": {...}                        # optional, carried verbatim
    }

Real-measure document:
    {"schema_version": 1, "atoms": [[position, weight], ...]}

Either kind may omit schema_version; if given, it must be the integer 1.
Numbers must be JSON numbers (a string such as "1e0" or a boolean is
refused with its pointer), a generator's n and edge ends integers, and
normalized true or false.

Only this module reads space documents.  A custom_file generator is read
here, at the node that names it: its path is resolved beside the document
that names it, may not name a document being parsed, directly or through
product factors, and the space it holds goes to families.generate as a
product factor.  An error inside the named document is reported at that
path's pointer, followed by the file and its own error.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from typing import Any

import numpy as np

from .families import FamilySpec, _with_weights, generate
from .separation import RealMeasure
from .space import FiniteMMSpace, SpaceValidationError, validate_space

__all__ = [
    "SpaceFileError",
    "parse_document",
    "parse_real_measure",
    "parse_space",
    "report_csv",
    "report_json",
    "serialize_space",
]


class SpaceFileError(ValueError):
    """Schema violation, pointing at the offending field."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


class _ReferenceCycle(SpaceFileError):
    """Reported where the loop closes, not at the paths that lead to it."""


def _refuse_non_numbers(values: Any, pointer: str, depth: int, index: tuple = ()) -> None:
    """Raise at the first string or boolean up to `depth` list levels
    down.  json.load reads numbers as int or float, but numpy and float()
    would also take "1e0" and true; deeper nesting fails the callers'
    shape checks."""
    if not isinstance(values, list):
        return
    for i, value in enumerate(values):
        at = index + (i,)
        if isinstance(value, (str, bool)):
            raise SpaceFileError(f"{pointer}{list(at)}", f"must be a number, got {json.dumps(value)}")
        if depth > 1:
            _refuse_non_numbers(value, pointer, depth - 1, at)


def _integer(value: Any, pointer: str) -> int:
    """An int, or a float with an integral value; json.load reads 3.0
    as a float, but int() would also truncate 2.7 and take true."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpaceFileError(pointer, f"must be an integer, got {json.dumps(value, default=str)}")
    return value


def _load(source: str | dict) -> dict:
    if isinstance(source, dict):
        return source
    try:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise SpaceFileError("/", f"cannot read {source}: {err}") from err
    except json.JSONDecodeError as err:
        raise SpaceFileError("/", f"not valid JSON: {err}") from err
    except RecursionError as err:
        raise SpaceFileError("/", "nested too deeply") from err
    if not isinstance(doc, dict):
        raise SpaceFileError("/", "top level must be an object")
    return doc


def _generator_spec(node: dict, pointer: str, opened: tuple[str, ...]) -> FamilySpec | FiniteMMSpace:
    """The spec a generator node describes, or for a custom_file node the
    space its document holds.  opened holds the real paths of the
    documents being parsed, outermost first: a custom_file path is read
    beside the innermost one and may not name any of them."""
    if not isinstance(node, dict) or "kind" not in node:
        raise SpaceFileError(pointer, "generator needs a 'kind'")
    kind = node["kind"]
    if not isinstance(kind, str):
        raise SpaceFileError(f"{pointer}/kind", "must be a string")
    for key in ("factors", "edges"):
        if not isinstance(node.get(key, []), list):
            raise SpaceFileError(f"{pointer}/{key}", "must be a list")
    factors = tuple(
        _generator_spec(f, f"{pointer}/factors[{i}]", opened)
        for i, f in enumerate(node.get("factors", []))
    )
    edges = []
    for i, e in enumerate(node.get("edges", [])):
        if not isinstance(e, list) or len(e) != 3:
            raise SpaceFileError(f"{pointer}/edges[{i}]", "must be [i, j, length]")
        _refuse_non_numbers(e, f"{pointer}/edges", 1, (i,))
        ends = [_integer(e[k], f"{pointer}/edges[{i}, {k}]") for k in (0, 1)]
        try:
            edges.append((*ends, float(e[2])))
        except (TypeError, ValueError, OverflowError) as err:
            raise SpaceFileError(f"{pointer}/edges[{i}]", str(err)) from err
    path = node.get("path")
    if path is not None and not isinstance(path, str):
        raise SpaceFileError(f"{pointer}/path", "must be a string")
    normalized = node.get("normalized", True)
    if not isinstance(normalized, bool):
        raise SpaceFileError(f"{pointer}/normalized", "must be true or false")
    n = _integer(node.get("n", 0), f"{pointer}/n")
    if kind != "custom_file":
        return FamilySpec(kind, n, normalized, edges=tuple(edges), factors=factors)
    if not path:
        raise SpaceFileError(pointer, "custom_file needs a path")
    if opened:
        path = os.path.join(os.path.dirname(opened[-1]), path)
    if os.path.realpath(path) in opened:
        raise _ReferenceCycle(f"{pointer}/path", f"cycle: {path} is a document being parsed")
    try:
        return _parse_space_file(path, opened)
    except _ReferenceCycle:
        raise
    except SpaceFileError as err:
        raise SpaceFileError(f"{pointer}/path", f"in {path}: {err}") from err


def _check_version(doc: dict) -> None:
    """Both document kinds: schema_version, if given, is the integer 1."""
    version = doc.get("schema_version", 1)
    if type(version) is not int or version != 1:
        raise SpaceFileError("/schema_version",
                             f"unsupported version {json.dumps(version, default=str)}")


def parse_space(source: str | dict) -> FiniteMMSpace:
    """Read and validate a space document (path or parsed object).  A
    custom_file generator that names a document already being parsed,
    directly or through product factors, is refused as a cycle."""
    if isinstance(source, dict):
        return _parse_space_doc(source, ())
    return _parse_space_file(source, ())


def parse_document(path: str) -> RealMeasure | FiniteMMSpace:
    """Read path once: a RealMeasure if it holds 'atoms', else a space, as parse_space reads it."""
    doc = _load(path)
    if "atoms" in doc:
        return parse_real_measure(doc)
    return _parse_space_doc(doc, (os.path.realpath(path),))


def _parse_space_file(path: str, opened: tuple[str, ...]) -> FiniteMMSpace:
    return _parse_space_doc(_load(path), opened + (os.path.realpath(path),))


def _parse_space_doc(doc: dict, opened: tuple[str, ...]) -> FiniteMMSpace:
    _check_version(doc)
    metric = doc.get("metric")
    if not isinstance(metric, dict):
        raise SpaceFileError("/metric", "required: object with 'matrix' or 'generator'")
    weights_field = doc.get("weights", "uniform")

    if "generator" in metric:
        try:
            space = _generator_spec(metric["generator"], "/metric/generator", opened)
            if isinstance(space, FamilySpec):
                space = generate(space)
        except SpaceFileError:
            raise
        except ValueError as err:
            raise SpaceFileError("/metric/generator", str(err)) from err
        if weights_field == "uniform":
            return space
        try:
            return _with_weights(space, _weights_array(weights_field, space.n))
        except SpaceValidationError as err:
            raise SpaceFileError("/weights", f"validation failed: {err}") from err

    if "matrix" not in metric:
        raise SpaceFileError("/metric", "needs 'matrix' or 'generator'")
    _refuse_non_numbers(metric["matrix"], "/metric/matrix", 2)
    try:
        dist = np.asarray(metric["matrix"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as err:
        raise SpaceFileError("/metric/matrix", f"not a numeric matrix: {err}") from err
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise SpaceFileError("/metric/matrix", f"must be square, got shape {dist.shape}")
    n = dist.shape[0]
    points = doc.get("points", [str(i) for i in range(n)])
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise SpaceFileError("/points", "must be a list of strings")
    if len(points) != n:
        raise SpaceFileError("/points", f"{len(points)} labels for a {n}-point matrix")
    weights = _weights_array(weights_field, n)
    try:
        return validate_space(tuple(points), dist, weights)
    except SpaceValidationError as err:
        first = err.violations[0]
        if first.kind == "duplicate_label":
            field = "/points"
        elif first.kind.endswith("_weight"):
            field = f"/weights{list(first.indices)}"
        elif first.kind == "zero_total_mass":
            field = "/weights"
        else:
            field = f"/metric/matrix{list(first.indices)}"
        raise SpaceFileError(field, f"validation failed: {err}") from err


def _weights_array(field: Any, n: int) -> np.ndarray:
    if field == "uniform":
        return np.full(n, 1.0 / n)
    _refuse_non_numbers(field, "/weights", 1)
    try:
        weights = np.asarray(field, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as err:
        raise SpaceFileError("/weights", f"not numeric: {err}") from err
    if weights.shape != (n,):
        raise SpaceFileError("/weights", f"{weights.shape} weights for {n} points")
    return weights


def serialize_space(space: FiniteMMSpace, screen_meta: dict | None = None) -> dict:
    doc = {
        "schema_version": 1,
        "points": list(space.points),
        "metric": {"matrix": [[float(v) for v in row] for row in space.dist]},
        "weights": [float(w) for w in space.weights],
    }
    if screen_meta is not None:
        doc["screen"] = screen_meta
    return doc


def parse_real_measure(source: str | dict) -> RealMeasure:
    doc = _load(source)
    _check_version(doc)
    atoms = doc.get("atoms")
    if not isinstance(atoms, list) or not atoms:
        raise SpaceFileError("/atoms", "required: nonempty list of [position, weight]")
    positions, weights = [], []
    for i, atom in enumerate(atoms):
        if not isinstance(atom, (list, tuple)) or len(atom) != 2:
            raise SpaceFileError(f"/atoms[{i}]", "must be [position, weight]")
        _refuse_non_numbers(list(atom), "/atoms", 1, (i,))
        try:
            positions.append(float(atom[0]))
            weights.append(float(atom[1]))
        except (TypeError, ValueError, OverflowError) as err:
            raise SpaceFileError(f"/atoms[{i}]", f"not numeric: {err}") from err
    try:
        return RealMeasure.from_atoms(np.array(positions), np.array(weights))
    except SpaceValidationError as err:
        # from_atoms checks the weights before merging, so indices are atom indices
        first = err.violations[0]
        field = "/atoms" if first.kind == "zero_total_mass" else f"/atoms[{first.indices[0]}, 1]"
        raise SpaceFileError(field, str(err)) from err
    except ValueError as err:
        raise SpaceFileError("/atoms", str(err)) from err


# ---------------------------------------------------------------------------
# reports


def _jsonable(value: Any) -> Any:
    """Strict-JSON payloads: infinities become strings, arrays lists."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def report_json(report: dict) -> str:
    return json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"


LEVY_CSV_COLUMNS = [
    "member",
    "n",
    "screen",
    "kappa",
    "obsdiam_lower",
    "obsdiam_upper",
    "upper_source",
    "sampler_fallbacks",
    "sep_lower",
    "sep_value",
    "sep_is_exact",
    "witness_center",
    "witness_ball_mass",
    "witness_residual",
    "roster_sup",
]


def report_csv(report: dict) -> str:
    """One row per (member, screen, kappa) cell; separation and supremum
    columns are joined on (member, kappa).  Same numbers as the JSON."""
    cells = report.get("cells", [])
    sep = {(r["member"], r["kappa"]): r for r in report.get("sep", [])}
    sup = {(r["member"], r["kappa"]): r for r in report.get("suprema", [])}
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=LEVY_CSV_COLUMNS)
    writer.writeheader()
    for cell in cells:
        key = (cell["member"], cell["kappa"])
        row = dict(cell)
        row["sep_lower"] = sep.get(key, {}).get("sep_lower")
        row["sep_value"] = sep.get(key, {}).get("sep_value")
        row["sep_is_exact"] = sep.get(key, {}).get("sep_is_exact")
        row["roster_sup"] = sup.get(key, {}).get("roster_sup")
        writer.writerow({k: _csv_value(row.get(k)) for k in LEVY_CSV_COLUMNS})
    return out.getvalue()


def _csv_value(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    return str(value)
