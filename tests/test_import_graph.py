"""Layering of the package: which of its modules import which."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mmconc"
SCRIPT = PACKAGE.parent.parent / "scripts" / "levy_trend.py"


def package_imports(path: Path) -> set[str]:
    """Sibling modules imported anywhere in a module, imports inside
    functions included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("mmconc."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names if alias.name.startswith("mmconc.")
            )
    return found


def reached_from(graph: dict[str, set[str]], module: str) -> set[str]:
    reached, todo = set(), [module]
    while todo:
        for dep in graph.get(todo.pop(), ()):
            if dep not in reached:
                reached.add(dep)
                todo.append(dep)
    return reached


def test_space_imports_only_numpy_and_the_standard_library():
    """Every space is validated, in every workload's set-up too; an import
    of scipy or of a sibling module in space.py, even inside a function,
    would load it there."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / "space.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("." * node.level + (node.module or "").split(".")[0])
    assert "numpy" in found
    assert found - sys.stdlib_module_names == {"numpy"}


class RefusalHandlers(ast.NodeVisitor):
    """Names of the innermost functions holding an `except
    BudgetExceededError` clause (`<module>` at top level)."""

    def __init__(self):
        self.scope = ["<module>"]
        self.found = set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ExceptHandler(self, node):
        caught = ast.walk(node.type) if node.type is not None else ()
        names = {getattr(n, "id", None) or getattr(n, "attr", None) for n in caught}
        if "BudgetExceededError" in names:
            self.found.add(self.scope[-1])
        self.generic_visit(node)


def test_budget_refusals_are_caught_only_by_the_front_door_and_the_cli():
    """separation.sep decides exact or bound; cli.main turns a refusal
    into exit code 2.  No other code catches a refusal."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        visitor = RefusalHandlers()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found |= {f"{path.stem}.{name}" for name in visitor.found}
    assert found == {"separation.sep", "cli.main"}


def test_doubling_and_separation_never_import_observable():
    graph = {path.stem: package_imports(path) for path in PACKAGE.glob("*.py")}
    assert "observable" in graph and graph["families"] >= {"observable", "doubling"}
    for module in ("doubling", "separation"):
        assert "observable" not in reached_from(graph, module), module


def test_the_package_import_graph_has_no_cycle():
    """Imports inside functions count: a lazy import ties two modules
    together as much as one at the top does."""
    graph = {path.stem: package_imports(path) for path in PACKAGE.glob("*.py")}
    assert "formats" not in graph["families"]
    for module in graph:
        assert module not in reached_from(graph, module), module


def is_midpoint(node) -> bool:
    """(lo + hi) // 2, the step of a binary search."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.FloorDiv)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Add)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 2
    )


def test_the_package_holds_one_bisection_loop():
    """Every threshold search (both separation engines and the screen
    partial diameter) goes through separation._bisect_last."""
    found = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for loop in ast.walk(func):
                if isinstance(loop, (ast.While, ast.For)) and any(
                    is_midpoint(node) for node in ast.walk(loop)
                ):
                    found.append(f"{path.stem}.{func.name}")
    assert found == ["separation._bisect_last"]


class Constructions(ast.NodeVisitor):
    """Scopes (`module.Class.function`) of every call to one of `names`."""

    def __init__(self, module: str, names: set[str]):
        self.scope = [module]
        self.names = names
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name in self.names:
            self.found.append((name, ".".join(self.scope)))
        self.generic_visit(node)


def test_violations_are_built_only_by_the_recorder():
    """Every axiom violation goes through space._Findings, which lists
    and counts it; nothing else builds a Violation or raises a
    SpaceValidationError of its own."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        visitor = Constructions(path.stem, {"Violation", "SpaceValidationError"})
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found.update(visitor.found)
    assert found == {
        ("Violation", "space._Findings.record"),
        ("SpaceValidationError", "space._Findings.raise_if_any"),
    }


def test_the_line_bracket_reads_its_scores_from_the_pool():
    """observable._candidate_pool scores each candidate once; the
    bracket neither pushes a candidate forward nor scores it again."""
    path = PACKAGE / "observable.py"
    visitor = Constructions("observable", {"partial_diameter_real", "pushforward_real"})
    visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
    scopes = {scope for _, scope in visitor.found}
    assert "observable._candidate_pool.objective" in scopes
    assert "observable.obsdiam_real_bracket" not in scopes


def test_the_line_bracket_separates_once_and_repairs_nothing():
    """observable._candidate_pool runs every separation the line bracket
    needs, the kappa/2 one that bounds it above included, and keeps a
    candidate only when the exact check passes: no function repairs one."""
    tree = ast.parse((PACKAGE / "observable.py").read_text(encoding="utf-8"))
    visitor = Constructions("observable", {"sep"})
    visitor.visit(tree)
    assert {scope for _, scope in visitor.found} == {"observable._candidate_pool"}
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_is_lipschitz" in defined and "_lipschitz_repair" not in defined


def test_the_cli_imports_only_public_names_of_the_package():
    """The command line reads documents through formats' public parsers
    (parse_document sorts measures from spaces), so it depends on no
    private helper of a sibling module."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    assert "parse_document" in names
    assert not [name for name in names if name.startswith("_")]


def test_the_screen_search_orders_once_and_sums_as_its_leaves_do():
    """observable.partial_diameter_screen sorts the support by weight
    once; _clique_reaches reads that order as given, so it neither sorts
    nor reverses, and it sums no weights by a reduction whose rounding
    its leaves do not share."""
    tree = ast.parse((PACKAGE / "observable.py").read_text(encoding="utf-8"))
    visitor = Constructions("observable", {"argsort", "sum", "cumsum"})
    visitor.visit(tree)
    assert not [call for call in visitor.found if call[1].startswith("observable._clique_reaches")]
    assert [call for call in visitor.found if call[0] == "argsort"] == [
        ("argsort", "observable.partial_diameter_screen")
    ]
    (clique,) = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "_clique_reaches"]
    assert not [node for node in ast.walk(clique) if isinstance(node, ast.Slice) and node.step]
    # it searches on its own stack: a nested function would bring back a
    # recursion whose depth is the size of a subset
    assert not [node for node in ast.walk(clique)
                if node is not clique and isinstance(node, (ast.FunctionDef, ast.Lambda))]


def test_ball_masses_have_one_convention_and_three_callers():
    """space._ball_mass_blocks orders each row by (distance rank, index)
    and sums its weights in that order; the doubling profile's step
    table, the concentration witness and space.ball_mass call it, and every
    other ball mass or doubling constant is read off what they return."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        visitor = Constructions(path.stem, {"_ball_mass_blocks"})
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found.update(scope for _, scope in visitor.found)
    assert found == {"doubling._step_table", "doubling.concentration_witness", "space.ball_mass"}


class GradeSettings(Constructions):
    """Scopes of every call that can set a space's grades, each with the
    source of the value: a `_grades=` keyword to any call, a fourth
    positional or unpacked argument of FiniteMMSpace, and an
    `object.__setattr__` of the `_grades` field."""

    def __init__(self, module: str):
        super().__init__(module, set())

    def visit_Call(self, node):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        values = [kw.value for kw in node.keywords
                  if kw.arg == "_grades" or (kw.arg is None and name == "FiniteMMSpace")]
        if name == "FiniteMMSpace":
            values += node.args[3:] + [a for a in node.args if isinstance(a, ast.Starred)]
        if name == "__setattr__" and [getattr(a, "value", None) for a in node.args[1:2]] == ["_grades"]:
            values += node.args[2:]
        self.found += [(".".join(self.scope), ast.unparse(v)) for v in values]
        self.generic_visit(node)


def test_grades_are_made_by_the_builder_and_the_two_generators():
    """Which ranks a space has is decided in one place: the cube and torus
    generators hand over the hop matrix they build, a product of those
    hands over the ranks of its closed table at the factors' hop matrices,
    every other space has space._grade build its grades from the matrix
    when they are first read, and the two constructions that reuse a
    metric with other weights pass on the grades of the space they take
    it from."""
    found, builds = [], set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visitor = GradeSettings(path.stem)
        visitor.visit(tree)
        found += visitor.found
        visitor = Constructions(path.stem, {"_grade"})
        visitor.visit(tree)
        builds.update(scope for _, scope in visitor.found)
    assert sorted(found) == [
        ("families._discrete_torus", "(table, arcs)"),
        ("families._hamming_cube", "(table, hops)"),
        ("families._product", "(table, hops)"),
        ("families._with_weights", "space._grades"),
        ("observable.pushforward_screen", "screen.grades"),
        ("space.FiniteMMSpace.grades", "_grade(self.dist)"),
    ]
    assert builds == {"space.FiniteMMSpace.grades"}


def test_only_a_product_with_a_matrix_factor_closes_a_matrix():
    """A product of cubes and tori closes its table on the grid of hop
    counts (_numeric.close_table) and never reads a factor's matrix;
    exact_triangle_closure runs in families only on the matrix path, for
    a product with another factor."""
    tree = ast.parse((PACKAGE / "families.py").read_text(encoding="utf-8"))
    visitor = Constructions("families", {"exact_triangle_closure", "_matrix_fold", "_table_fold"})
    visitor.visit(tree)
    assert sorted(visitor.found) == [
        ("_matrix_fold", "families._product"),
        ("_table_fold", "families._product"),
        ("exact_triangle_closure", "families._matrix_fold"),
    ]
    table_path = [node for module, name in (("families", "_table_fold"), ("_numeric", "close_table"))
                  for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")))
                  if isinstance(node, ast.FunctionDef) and node.name == name]
    assert len(table_path) == 2
    assert not [node for func in table_path for node in ast.walk(func)
                if isinstance(node, ast.Attribute) and node.attr == "dist"]


def test_the_package_holds_one_table_closure():
    """Round-down sums are taken by the two closures, _numeric.close_table
    for tables (a fraction table, a product's grid) and
    exact_triangle_closure for matrices, and by the two product folds
    that feed them; no other function closes a table its own way."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        visitor = Constructions(path.stem, {"floor_sum"})
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found.update(scope for _, scope in visitor.found)
    assert found == {"_numeric.close_table", "_numeric.exact_triangle_closure",
                     "families._table_fold", "families._matrix_fold"}


def test_only_the_builder_ranks_a_distance_matrix():
    """Ball masses and the hop certificate read their ranks off the grades:
    in space.py only _grade searches a table for the matrix's entries, and
    ball_mass for its radius."""
    visitor = Constructions("space", {"searchsorted"})
    visitor.visit(ast.parse((PACKAGE / "space.py").read_text(encoding="utf-8")))
    assert {scope for _, scope in visitor.found} == {"space._grade", "space.ball_mass"}


def test_no_two_raises_build_the_same_exception():
    """Each refusal is written once: two raise statements that build the
    same exception call are one input rule stated twice."""
    seen = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                seen.setdefault(ast.dump(node.exc), []).append(f"{path.stem}:{node.lineno}")
    assert [sites for sites in seen.values() if len(sites) > 1] == []


COUNTS = {"effort", "samples", "workers", "budget"}


def is_int(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


def count_floors(path: Path) -> list[str]:
    """Count names written beside a whole number as a floor: a tuple
    pairing the name with a number, a dict mapping two or more count names
    to numbers (a single one is a report field, such as a witness's
    samples), or `name < number` or `name >= number`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Dict):
            names = [k.value for k, v in zip(node.keys, node.values)
                     if isinstance(k, ast.Constant) and k.value in COUNTS and is_int(v)]
            found += names if len(names) > 1 else []
        elif isinstance(node, ast.Tuple) and any(is_int(e) for e in node.elts):
            found += [e.value for e in node.elts if isinstance(e, ast.Constant) and e.value in COUNTS]
        elif (isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.Lt, ast.GtE))
              and getattr(node.left, "id", None) in COUNTS and is_int(node.comparators[0])):
            found.append(node.left.id)
    return found


def test_the_count_floors_are_written_once():
    """One table holds the floors of effort, samples, workers and budget;
    the library and the CLI read it, and the trend script has none."""
    found = {path.stem: count_floors(path) for path in PACKAGE.glob("*.py")}
    assert {stem: names for stem, names in found.items() if names} == {
        "_numeric": ["effort", "samples", "workers", "budget"]
    }
    assert count_floors(SCRIPT) == []


def test_the_trend_script_orders_no_argument():
    """The script's flags and sizes get the CLI's and the library's checks,
    so no <, <=, > or >= of the script reads its arguments."""
    tree = ast.parse(SCRIPT.read_text(encoding="utf-8"))
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    compares = [node for node in ast.walk(tree)
                if isinstance(node, ast.Compare) and any(isinstance(op, ordering) for op in node.ops)]
    assert not [node.lineno for node in compares
                if any(getattr(n, "id", None) == "args" for n in ast.walk(node))]


def hub_sums(func) -> bool:
    """Whether func adds d[., j] and d[j, .] for the variable j of one of
    its for loops: the step of a triangle check through hub j."""
    for loop in ast.walk(func):
        if not (isinstance(loop, ast.For) and isinstance(loop.target, ast.Name)):
            continue
        for node in ast.walk(loop):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                terms = [node.left, node.right]
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add":
                terms = node.args[:2]
            else:
                continue
            if len(terms) == 2 and all(
                isinstance(t, ast.Subscript) and any(
                    getattr(n, "id", None) == loop.target.id for n in ast.walk(t.slice))
                for t in terms
            ):
                return True
    return False


def test_space_holds_one_triangle_pass():
    """The triangle axiom is space._hop_certificate plus one blocked pass,
    space._check_triangle, which decides and lists at once."""
    tree = ast.parse((PACKAGE / "space.py").read_text(encoding="utf-8"))
    found = [func.name for func in ast.walk(tree)
             if isinstance(func, ast.FunctionDef) and hub_sums(func)]
    assert found == ["_check_triangle"]
