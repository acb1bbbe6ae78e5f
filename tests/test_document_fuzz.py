"""Malformed documents exit 1 with a JSON pointer, never with a traceback.

Valid matrix, generator and atom documents are mutated: keys dropped,
values replaced by other types, lists shortened or lengthened, numbers
negated, made non-finite, or written as strings or booleans.  Every
mutated document must either parse or be refused with a SpaceFileError;
through the command line it must exit 0, or exit 1 with a message of the
form `mmconc: /pointer: ...`.  A number of a matrix, weights, edges, `n`
or atoms written as a string or a boolean must be refused.
"""

from __future__ import annotations

import copy
import io
import json
import math
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

import mmconc as mc
from mmconc.cli import main

POINTER = re.compile(r"^mmconc: /[^:\n]*: ")

MATRIX_DOCS = [
    {
        "schema_version": 1,
        "points": ["sw", "se", "nw", "ne"],
        "metric": {"matrix": [
            [0.0, 0.25, 0.25, 0.5],
            [0.25, 0.0, 0.5, 0.25],
            [0.25, 0.5, 0.0, 0.25],
            [0.5, 0.25, 0.25, 0.0],
        ]},
        "weights": "uniform",
    },
    {
        "schema_version": 1,
        "points": ["x1", "x2", "x3"],
        "metric": {"matrix": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]},
        "weights": [0.5, 0.25, 0.25],
    },
]
GENERATOR_DOCS = [
    {
        "schema_version": 1,
        "metric": {"generator": {"kind": "discrete_torus", "n": 8, "normalized": True}},
        "weights": "uniform",
    },
    {
        "schema_version": 1,
        "metric": {"generator": {"kind": "hamming_cube", "n": 3}},
        "weights": [0.125] * 8,
    },
    {
        "schema_version": 1,
        "metric": {"generator": {
            "kind": "weighted_graph", "n": 4, "normalized": False,
            "edges": [[0, 1, 1.0], [1, 2, 0.5], [2, 3, 2.0], [3, 0, 1.5]],
        }},
    },
    {
        "schema_version": 1,
        "metric": {"generator": {"kind": "product", "factors": [
            {"kind": "hamming_cube", "n": 2},
            {"kind": "discrete_torus", "n": 3, "normalized": False},
        ]}},
    },
]
ATOM_DOCS = [
    {"schema_version": 1, "atoms": [[0.0, 0.25], [1.0, 0.25], [2.0, 0.25], [3.0, 0.25]]},
    {"schema_version": 1, "atoms": [[-1.5, 2.0], [0.5, 1.0]]},
]

ODD_VALUES = [
    None, True, False, "x", "uniform", "custom_file", "hamming_cube", [], {}, [[]],
    0, 1, -1, 2, 1.5, -0.5, 1e308, 10**400, math.nan, math.inf, -math.inf,
]


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _mutate(draw, doc):
    path = draw(st.sampled_from(list(_paths(doc))))
    op = draw(st.sampled_from(
        ["drop", "replace", "shorten", "lengthen", "negate", "stringify", "boolify"]
    ))
    odd = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    if not path:
        return odd if op == "replace" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    if op == "drop":
        del parent[key]
    elif op == "replace":
        parent[key] = odd
    elif op == "shorten" and isinstance(value, list) and value:
        value.pop()
    elif op == "lengthen" and isinstance(value, list):
        value.append(copy.deepcopy(value[-1]) if value else 0.0)
    elif op == "negate" and isinstance(value, (int, float)) and not isinstance(value, bool):
        parent[key] = -value if value else -1.0
    elif op in ("stringify", "boolify") and _is_number(value):
        parent[key] = json.dumps(value) if op == "stringify" else bool(value)
    return doc


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


NUMERIC_FIELDS = {"matrix", "weights", "edges", "n", "atoms"}


@st.composite
def number_as_text_or_bool(draw, docs):
    """One number under a numeric field, written as a JSON string (\"0.25\")
    or as a boolean; the other entries stay valid."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    paths = [
        path for path in _paths(doc)
        if NUMERIC_FIELDS & set(path) and _is_number(_at(doc, path))
    ]
    path = draw(st.sampled_from(paths))
    value = _at(doc, path)
    parent = _at(doc, path[:-1])
    parent[path[-1]] = draw(st.sampled_from([json.dumps(value), bool(value), not value]))
    return doc


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutated(docs):
    @st.composite
    def strategy(draw):
        doc = copy.deepcopy(draw(st.sampled_from(docs)))
        for _ in range(draw(st.integers(1, 3))):
            doc = _mutate(draw, doc)
        return doc

    return strategy()


def run_command(doc, *argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main([argv[0], "--space", path, *argv[1:]])
    message = err.getvalue()
    assert rc == 0 or (rc == 1 and POINTER.match(message)), (rc, message, doc)
    return rc


def assert_parses_or_points(doc):
    if not isinstance(doc, dict):
        return  # parse_space takes a path or an object; the CLI checks the rest
    try:
        mc.parse_space(doc)
    except mc.SpaceFileError as err:
        assert err.pointer.startswith("/"), err


@settings(max_examples=150)
@given(mutated(MATRIX_DOCS))
def test_mutated_matrix_documents(doc):
    assert_parses_or_points(doc)
    run_command(doc, "validate")


@settings(max_examples=150)
@given(mutated(GENERATOR_DOCS))
def test_mutated_generator_documents(doc):
    assert_parses_or_points(doc)
    run_command(doc, "validate")


@settings(max_examples=150)
@given(mutated(ATOM_DOCS))
def test_mutated_atom_documents(doc):
    run_command(doc, "validate")
    run_command(doc, "sep-real", "--kappa", "0.25")
    run_command(doc, "partial-diam", "--target-mass", "0.5")


@settings(max_examples=150)
@given(number_as_text_or_bool(MATRIX_DOCS + GENERATOR_DOCS))
def test_numbers_written_as_strings_or_booleans_are_refused(doc):
    try:
        mc.parse_space(doc)
    except mc.SpaceFileError as err:
        assert err.pointer.startswith("/") and "must be " in str(err), err
    else:
        raise AssertionError(f"accepted {doc}")
    assert run_command(doc, "validate") == 1


@settings(max_examples=60)
@given(number_as_text_or_bool(ATOM_DOCS))
def test_atoms_written_as_strings_or_booleans_are_refused(doc):
    try:
        mc.parse_real_measure(doc)
    except mc.SpaceFileError as err:
        assert err.pointer.startswith("/atoms["), err
    else:
        raise AssertionError(f"accepted {doc}")
    assert run_command(doc, "sep-real", "--kappa", "0.25") == 1
