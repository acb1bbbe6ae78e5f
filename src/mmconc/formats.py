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
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any

import numpy as np

from .families import FamilySpec, generate
from .separation import RealMeasure
from .space import FiniteMMSpace, SpaceValidationError, validate_space

__all__ = [
    "SpaceFileError",
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
    if not isinstance(doc, dict):
        raise SpaceFileError("/", "top level must be an object")
    return doc


def _generator_spec(node: dict, pointer: str) -> FamilySpec:
    if not isinstance(node, dict) or "kind" not in node:
        raise SpaceFileError(pointer, "generator needs a 'kind'")
    kind = node["kind"]
    if not isinstance(kind, str):
        raise SpaceFileError(f"{pointer}/kind", "must be a string")
    for key in ("factors", "edges"):
        if not isinstance(node.get(key, []), list):
            raise SpaceFileError(f"{pointer}/{key}", "must be a list")
    factors = tuple(
        _generator_spec(f, f"{pointer}/factors[{i}]")
        for i, f in enumerate(node.get("factors", []))
    )
    edges = []
    for i, e in enumerate(node.get("edges", [])):
        if not isinstance(e, list) or len(e) != 3:
            raise SpaceFileError(f"{pointer}/edges[{i}]", "must be [i, j, length]")
        try:
            edges.append((int(e[0]), int(e[1]), float(e[2])))
        except (TypeError, ValueError, OverflowError) as err:
            raise SpaceFileError(f"{pointer}/edges[{i}]", str(err)) from err
    path = node.get("path")
    if path is not None and not isinstance(path, str):
        raise SpaceFileError(f"{pointer}/path", "must be a string")
    try:
        return FamilySpec(
            kind=kind,
            n=int(node.get("n", 0)),
            normalized=bool(node.get("normalized", True)),
            edges=tuple(edges),
            factors=factors,
            path=path,
        )
    except (TypeError, ValueError, OverflowError) as err:
        raise SpaceFileError(pointer, str(err)) from err


def parse_space(source: str | dict) -> FiniteMMSpace:
    """Read and validate a space document (path or parsed object)."""
    doc = _load(source)
    if doc.get("schema_version", 1) != 1:
        raise SpaceFileError("/schema_version", f"unsupported version {doc['schema_version']}")
    metric = doc.get("metric")
    if not isinstance(metric, dict):
        raise SpaceFileError("/metric", "required: object with 'matrix' or 'generator'")
    weights_field = doc.get("weights", "uniform")

    if "generator" in metric:
        try:
            space = generate(_generator_spec(metric["generator"], "/metric/generator"))
        except ValueError as err:
            if isinstance(err, SpaceFileError):
                raise
            raise SpaceFileError("/metric/generator", str(err)) from err
        if weights_field != "uniform":
            weights = _weights_array(weights_field, space.n)
            try:
                space = validate_space(space.points, space.dist.copy(), weights)
            except SpaceValidationError as err:
                raise SpaceFileError("/weights", f"validation failed: {err}") from err
        return space

    if "matrix" not in metric:
        raise SpaceFileError("/metric", "needs 'matrix' or 'generator'")
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
        elif first.kind.endswith("_weight") or first.kind == "zero_total_mass":
            field = f"/weights{list(first.indices)}"
        else:
            field = f"/metric/matrix{list(first.indices)}"
        raise SpaceFileError(field, f"validation failed: {err}") from err


def _weights_array(field: Any, n: int) -> np.ndarray:
    if field == "uniform":
        return np.full(n, 1.0 / n)
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
    atoms = doc.get("atoms")
    if not isinstance(atoms, list) or not atoms:
        raise SpaceFileError("/atoms", "required: nonempty list of [position, weight]")
    positions, weights = [], []
    for i, atom in enumerate(atoms):
        if not isinstance(atom, (list, tuple)) or len(atom) != 2:
            raise SpaceFileError(f"/atoms[{i}]", "must be [position, weight]")
        try:
            positions.append(float(atom[0]))
            weights.append(float(atom[1]))
        except (TypeError, ValueError, OverflowError) as err:
            raise SpaceFileError(f"/atoms[{i}]", f"not numeric: {err}") from err
    try:
        return RealMeasure.from_atoms(np.array(positions), np.array(weights))
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
