"""Layer spans recorded from outside the program.

The tracer replaces each traced public function of mmconc with a wrapper
at every module attribute that binds it: the defining module, the
package namespace and every module that re-imports the name (for
example `families.obsdiam_screen_estimate`).  Calls between modules go
through those attributes, so every call is seen; calls a function makes
to itself by a local name are not, and none of the traced functions
does that.

Spans stay in memory with their parent span and are written out once, at
the end of the run.  A function's self time is the sum of its spans'
durations minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

TRACED = {
    "space": ("validate_space", "build_net"),
    "_numeric": ("exact_triangle_closure", "subadditive_table"),
    "families": ("generate", "run_levy_experiment"),
    "separation": ("sep_exact", "sep_lower_bound", "sep_real_quantile"),
    "observable": (
        "sample_lipschitz_map",
        "partial_diameter_screen",
        "partial_diameter_real",
        "lipschitz_candidates",
        "validate_lipschitz",
        "obsdiam_screen_estimate",
        "obsdiam_real_bracket",
    ),
    "doubling": ("doubling_profile", "color_net", "packing_bound_check", "concentration_witness"),
    "formats": ("parse_space", "report_json", "report_csv"),
    "cli": ("main",),
}

COUNTERS = (
    "observable.sample_lipschitz_map.constant",
    "separation.sep_exact.refused",
    "separation.sep_lower_bound.below_oracle",
    "formats.report_json.bytes",
)


def layer_name(mod: str, fn: str) -> str:
    # metric names start with a letter or digit, so _numeric reads as numeric
    return f"{mod.lstrip('_')}.{fn}"


def layer_names() -> list[str]:
    return [layer_name(mod, fn) for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    """Installs and removes the wrappers; owns the spans and counters."""

    def __init__(self):
        self._modules = [importlib.import_module("mmconc")] + [
            importlib.import_module(f"mmconc.{mod}") for mod in TRACED
        ]
        self._originals = {}
        for mod, fns in TRACED.items():
            module = importlib.import_module(f"mmconc.{mod}")
            for fn in fns:
                self._originals[id(getattr(module, fn))] = (layer_name(mod, fn), getattr(module, fn))
        self._bindings: list[tuple[object, str, object]] = []
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.sep_lower_calls: list[tuple] = []  # (space, kappas, value) for the oracle
        self.tag = None  # label of the operation the next root span belongs to

    def install(self) -> None:
        if self._bindings:
            return
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in self._originals.items()}
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in self._bindings:
            setattr(module, attr, value)
        self._bindings = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter()
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                error = err
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = {
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "op": self.tag,
                    "start": start,
                    "end": end,
                    "error": None if error is None else type(error).__name__,
                }
                if error is not None:
                    self._observe_error(name, error)
            self._observe(name, args, kwargs, result)
            return result

        return traced

    def _observe_error(self, name, error) -> None:
        if name == "separation.sep_exact" and type(error).__name__ == "BudgetExceededError":
            self.counters["separation.sep_exact.refused"] += 1

    def _observe(self, name, args, kwargs, result) -> None:
        if name == "observable.sample_lipschitz_map":
            if len(result) and (result == result[0]).all():
                self.counters["observable.sample_lipschitz_map.constant"] += 1
        elif name == "formats.report_json":
            self.counters["formats.report_json.bytes"] += len(result.encode("utf-8"))
        elif name == "separation.sep_lower_bound":
            space = args[0] if args else kwargs["space"]
            kappas = args[1] if len(args) > 1 else kwargs["kappas"]
            self.sep_lower_calls.append((space, [float(k) for k in kappas], result.value))

    def layer_totals(self) -> dict[str, dict]:
        """calls and self time per traced function, over all spans."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals = {name: {"calls": 0, "self_s": 0.0} for name in layer_names()}
        for span in self.spans:
            row = totals[span["name"]]
            row["calls"] += 1
            row["self_s"] += (span["end"] - span["start"]) - child_time[span["id"]]
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)
