"""Space files, report serialization, and the command-line interface."""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmconc as mc
import mmconc.formats as formats
import mmconc.space
from mmconc import cli
from mmconc.cli import main
from conftest import random_space

SPACES = "spaces"
TREND_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "levy_trend.py"


def run_cli(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestSpaceFiles:
    def test_round_trip_is_the_identity(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            sp = random_space(rng, int(rng.integers(2, 9)))
            doc = mc.serialize_space(sp)
            back = mc.parse_space(doc)
            assert back.points == sp.points
            assert np.array_equal(back.dist, sp.dist)
            assert np.array_equal(back.weights, sp.weights)

    def test_round_trip_through_a_file(self, tmp_path):
        rng = np.random.default_rng(102)
        sp = random_space(rng, 5)
        path = tmp_path / "space.json"
        path.write_text(json.dumps(mc.serialize_space(sp)))
        back = mc.parse_space(str(path))
        assert np.array_equal(back.dist, sp.dist)

    def test_generator_form_matches_direct_generation(self):
        sp = mc.parse_space(f"{SPACES}/torus8.json")
        direct = mc.generate(mc.FamilySpec("discrete_torus", 8))
        assert sp.points == direct.points
        assert np.array_equal(sp.dist, direct.dist)

    def test_uniform_weights_keyword(self):
        doc = {
            "schema_version": 1,
            "points": ["a", "b"],
            "metric": {"matrix": [[0.0, 1.0], [1.0, 0.0]]},
            "weights": "uniform",
        }
        sp = mc.parse_space(doc)
        assert np.array_equal(sp.weights, [0.5, 0.5])

    def test_errors_carry_a_pointer_to_the_offending_field(self):
        doc = {
            "schema_version": 1,
            "points": ["a", "b"],
            "metric": {"matrix": [[0.0, 2.0], [1.0, 0.0]]},
            "weights": [0.5, 0.5],
        }
        with pytest.raises(mc.SpaceFileError) as err:
            mc.parse_space(doc)
        assert "matrix" in err.value.pointer

    def test_short_weighted_graph_edge_exits_one_with_a_pointer(self, tmp_path, capsys):
        bad = tmp_path / "edge.json"
        bad.write_text(json.dumps({
            "schema_version": 1,
            "metric": {"generator": {
                "kind": "weighted_graph", "n": 3, "edges": [[0, 1, 1.0], [1, 2]],
            }},
        }))
        rc, _, err = run_cli(["validate", "--space", str(bad)], capsys)
        assert rc == 1
        assert err.startswith("mmconc: /metric/generator/edges[1]: ")

    def test_a_custom_file_naming_itself_is_a_cycle(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("self.json").write_text(json.dumps(
            {"metric": {"generator": {"kind": "custom_file", "path": "self.json"}}}
        ))
        rc, _, err = run_cli(["validate", "--space", "self.json"], capsys)
        assert rc == 1
        assert err.startswith("mmconc: /metric/generator/path: cycle")
        with pytest.raises(mc.SpaceFileError) as info:
            mc.parse_space(str(tmp_path / "self.json"))  # another spelling of the same path
        assert info.value.pointer == "/metric/generator/path"

    def test_a_cycle_through_product_factors_points_at_the_factor(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"metric": {"generator": {"kind": "product", "factors": [
            {"kind": "hamming_cube", "n": 2}, {"kind": "custom_file", "path": str(b)},
        ]}}}))
        b.write_text(json.dumps({"metric": {"generator": {"kind": "product", "factors": [
            {"kind": "custom_file", "path": str(a)}, {"kind": "discrete_torus", "n": 3},
        ]}}}))
        rc, _, err = run_cli(["validate", "--space", str(a)], capsys)
        assert rc == 1
        assert err.startswith("mmconc: /metric/generator/factors[0]/path: cycle")

    def test_a_custom_file_path_is_read_beside_its_document(self, tmp_path, monkeypatch, capsys):
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "t4.json").write_text(json.dumps(
            {"metric": {"generator": {"kind": "discrete_torus", "n": 4}}}
        ))
        (sub / "ref.json").write_text(json.dumps(
            {"metric": {"generator": {"kind": "custom_file", "path": "t4.json"}}}
        ))
        monkeypatch.chdir(tmp_path)  # not the documents' directory
        rc, out, err = run_cli(["validate", "--space", "sub/ref.json"], capsys)
        assert rc == 0, err
        assert json.loads(out)["points"] == 4
        argv = ["partial-diam", "--space", "sub/ref.json", "--target-mass", "0.5"]
        rc, out, err = run_cli(argv, capsys)
        assert rc == 0, err
        assert json.loads(out)["value"] == 0.25

    def test_an_error_in_a_named_document_is_reported_at_its_path(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text(json.dumps({"metric": {"matrix": [[0, 1], [2, 0]]}}))
        ref = tmp_path / "ref.json"
        ref.write_text(json.dumps({"metric": {"generator": {"kind": "product", "factors": [
            {"kind": "hamming_cube", "n": 2}, {"kind": "custom_file", "path": "bad.json"},
        ]}}}))
        rc, _, err = run_cli(["validate", "--space", str(ref)], capsys)
        assert rc == 1
        assert err.startswith(
            f"mmconc: /metric/generator/factors[1]/path: in {tmp_path / 'bad.json'}: "
            "/metric/matrix[0, 1]: validation failed"
        )
        ref.write_text(json.dumps(
            {"metric": {"generator": {"kind": "custom_file", "path": "missing.json"}}}
        ))
        rc, _, err = run_cli(["validate", "--space", str(ref)], capsys)
        assert rc == 1
        assert err.startswith(f"mmconc: /metric/generator/path: in {tmp_path / 'missing.json'}: ")

    def test_a_document_may_be_used_twice_without_a_cycle(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"metric": {"generator": {"kind": "discrete_torus", "n": 3}}}))
        b.write_text(json.dumps({"metric": {"generator": {"kind": "product", "factors": [
            {"kind": "custom_file", "path": str(a)}, {"kind": "custom_file", "path": str(a)},
        ]}}}))
        assert mc.parse_space(str(b)).n == 9
        assert mc.parse_space(str(b)).n == 9  # nothing is left marked open

    def test_a_product_takes_a_parsed_space_as_a_factor(self, tmp_path):
        t4 = tmp_path / "t4.json"
        t4.write_text(json.dumps({"metric": {"generator": {"kind": "discrete_torus", "n": 4}}}))
        direct = mc.generate(mc.FamilySpec(
            "product", factors=(mc.parse_space(str(t4)), mc.FamilySpec("hamming_cube", 2)),
        ))
        named = mc.parse_space({"metric": {"generator": {"kind": "product", "factors": [
            {"kind": "custom_file", "path": str(t4)}, {"kind": "hamming_cube", "n": 2},
        ]}}})
        assert named.points == direct.points
        assert np.array_equal(named.dist, direct.dist)
        assert np.array_equal(named.weights, direct.weights)

    def test_generator_weights_do_not_rescan_the_metric(self, tmp_path, monkeypatch):
        """Explicit weights on a generated or named metric get the weight
        axioms only: the metric is scanned for triangles exactly as often
        as with "uniform" weights, once up to 1,024 points and never past
        that, and bad weights are reported at /weights with the message a
        full validation gives."""
        scans = []
        scan = mmconc.space._triangle_holds

        def counted(dist):
            scans.append(len(dist))
            return scan(dist)

        monkeypatch.setattr(mmconc.space, "_triangle_holds", counted)
        t8 = tmp_path / "t8.json"
        t8.write_text(json.dumps(mc.serialize_space(mc.generate(mc.FamilySpec("discrete_torus", 8)))))
        cases = [({"kind": "hamming_cube", "n": 4}, 16, [16]),
                 ({"kind": "hamming_cube", "n": 11}, 2048, []),
                 ({"kind": "custom_file", "path": str(t8)}, 8, [8])]
        for generator, n, want in cases:
            for weights in ("uniform", [1.0 / n] * n):
                scans.clear()
                sp = mc.parse_space({"metric": {"generator": generator}, "weights": weights})
                assert scans == want
                assert np.array_equal(sp.weights, np.full(n, 1.0 / n))
        cube4 = mc.generate(mc.FamilySpec("hamming_cube", 4))
        for bad in ([-1.0] + [0.1] * 15, [np.nan] + [0.1] * 15, [0.0] * 16):
            with pytest.raises(mc.SpaceFileError) as err:
                mc.parse_space({"metric": {"generator": {"kind": "hamming_cube", "n": 4}},
                                "weights": bad})
            with pytest.raises(mc.SpaceValidationError) as full:
                mc.validate_space(cube4.points, cube4.dist, bad)
            assert err.value.pointer == "/weights"
            assert str(err.value) == f"/weights: validation failed: {full.value}"

    def test_a_custom_file_without_a_path_exits_one_at_its_node(self, tmp_path, capsys):
        path = tmp_path / "nopath.json"
        path.write_text(json.dumps({"metric": {"generator": {"kind": "product", "factors": [
            {"kind": "hamming_cube", "n": 2}, {"kind": "custom_file"},
        ]}}}))
        rc, _, err = run_cli(["validate", "--space", str(path)], capsys)
        assert rc == 1
        assert err == "mmconc: /metric/generator/factors[1]: custom_file needs a path\n"

    @pytest.mark.parametrize("doc, pointer", [
        ({"metric": {"matrix": [["0", "1"], ["1", "0"]]}, "weights": [True, "1e0"]},
         "/metric/matrix[0, 0]"),
        ({"metric": {"matrix": [[0, 1], [1, 0]]}, "weights": [True, 1]}, "/weights[0]"),
        ({"metric": {"matrix": [[0, 1], [1, 0]]}, "weights": [0.5, "0.5"]}, "/weights[1]"),
        ({"metric": {"matrix": [[0, 1], [True, 0]]}}, "/metric/matrix[1, 0]"),
        ({"metric": {"generator": {"kind": "hamming_cube", "n": "3"}}}, "/metric/generator/n"),
        ({"metric": {"generator": {"kind": "hamming_cube", "n": True}}}, "/metric/generator/n"),
        ({"metric": {"generator": {"kind": "weighted_graph", "n": 2, "edges": [[0, True, 1.0]]}}},
         "/metric/generator/edges[0, 1]"),
        ({"metric": {"generator": {"kind": "product", "factors": [
            {"kind": "hamming_cube", "n": 2},
            {"kind": "weighted_graph", "n": 2, "edges": [[0, 1, "2"]]},
        ]}}}, "/metric/generator/factors[1]/edges[0, 2]"),
        # int() would truncate 2.7 to 2, and bool() reads "false" as true
        ({"metric": {"generator": {"kind": "hamming_cube", "n": 2.7}}}, "/metric/generator/n"),
        ({"metric": {"generator": {"kind": "weighted_graph", "n": 2, "edges": [[0, 1.5, 1.0]]}}},
         "/metric/generator/edges[0, 1]"),
        ({"metric": {"generator": {"kind": "hamming_cube", "n": 2, "normalized": "false"}}},
         "/metric/generator/normalized"),
    ])
    def test_fields_of_the_wrong_type_are_refused(self, doc, pointer, tmp_path, capsys):
        with pytest.raises(mc.SpaceFileError) as info:
            mc.parse_space(doc)
        assert info.value.pointer == pointer
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        rc, _, err = run_cli(["validate", "--space", str(path)], capsys)
        assert rc == 1 and err.startswith(f"mmconc: {pointer}: must be ")

    def test_integral_floats_still_count_as_integers(self):
        doc = {"metric": {"generator": {"kind": "hamming_cube", "n": 3.0, "normalized": False}}}
        assert mc.parse_space(doc).diameter == 3.0

    def test_a_document_nested_too_deeply_exits_one(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"metric": ' + "[" * 100_000 + "]" * 100_000 + "}")
        rc, _, err = run_cli(["validate", "--space", str(path)], capsys)
        assert rc == 1 and err.startswith("mmconc: /: nested too deeply")

    @pytest.mark.parametrize("atoms, pointer", [
        ([[0.0, 0.5], [1.0, True]], "/atoms[1, 1]"),
        ([["0", 0.5], [1.0, 0.5]], "/atoms[0, 0]"),
    ])
    def test_atoms_must_be_numbers(self, atoms, pointer):
        with pytest.raises(mc.SpaceFileError) as info:
            mc.parse_real_measure({"atoms": atoms})
        assert info.value.pointer == pointer

    def test_unknown_schema_version_is_rejected(self):
        with pytest.raises(mc.SpaceFileError):
            mc.parse_space({"schema_version": 2, "points": [], "metric": {}})

    def test_measure_file(self):
        nu = mc.parse_real_measure(f"{SPACES}/measure_four_atoms.json")
        assert nu.total_mass == 1.0 and len(nu) == 4


class TestReportSerialization:
    def test_json_is_sorted_and_newline_terminated(self):
        s = mc.report_json({"b": 1, "a": [2.5, {"z": 0, "y": 1}]})
        assert s.endswith("\n")
        assert s.index('"a"') < s.index('"b"')

    def test_infinities_and_numpy_scalars_are_encoded(self):
        s = mc.report_json(
            {"p": np.float64(0.5), "q": float("inf"), "r": np.int64(3)}
        )
        doc = json.loads(s)
        assert doc == {"p": 0.5, "q": "inf", "r": 3}

    def test_csv_and_json_report_the_same_numbers(self):
        fam = [mc.FamilySpec("hamming_cube", n) for n in (2, 3)]
        rep = mc.run_levy_experiment(fam, seed=1, samples=8, effort=300).as_dict()
        rows = list(csv.DictReader(io.StringIO(mc.report_csv(rep))))
        assert len(rows) == len(rep["cells"])
        by_key = {(c["n"], c["screen"], c["kappa"]): c for c in rep["cells"]}
        for row in rows:
            cell = by_key[(int(row["n"]), row["screen"], float(row["kappa"]))]
            assert float(row["obsdiam_lower"]) == cell["obsdiam_lower"]
            assert float(row["obsdiam_upper"]) == cell["obsdiam_upper"]
            sup = next(
                s["roster_sup"] for s in rep["suprema"]
                if s["n"] == int(row["n"]) and s["kappa"] == float(row["kappa"])
            )
            assert float(row["roster_sup"]) == sup


class TestCli:
    def test_validate_ok(self, capsys):
        rc, out, _ = run_cli(["validate", "--space", f"{SPACES}/twopoint.json"], capsys)
        assert rc == 0
        assert json.loads(out)["points"] == 2

    def test_validate_bad_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "schema_version": 1,
            "points": ["a", "b"],
            "metric": {"matrix": [[0.0, -1.0], [-1.0, 0.0]]},
            "weights": [0.5, 0.5],
        }))
        rc, _, err = run_cli(["validate", "--space", str(bad)], capsys)
        assert rc == 1 and err

    def test_sep_reports_label_witnesses(self, capsys):
        rc, out, _ = run_cli(
            ["sep", "--space", f"{SPACES}/twopoint.json",
             "--kappa", "0.5", "--kappa", "0.5"],
            capsys,
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["value"] == 1.0 and doc["exact"]
        assert doc["witnesses"] == [["x1"], ["x2"]]

    def test_sep_budget_refusal_exits_two(self, tmp_path, capsys):
        rng = np.random.default_rng(103)
        sp = random_space(rng, 14)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(mc.serialize_space(sp)))
        rc, _, err = run_cli(
            ["sep", "--space", str(path), "--kappa", "0.3", "--kappa", "0.3"],
            capsys,
        )
        assert rc == 2 and "budget" in err.lower()

    def test_sep_real_quantile_command(self, capsys):
        rc, out, _ = run_cli(
            ["sep-real", "--space", f"{SPACES}/measure_four_atoms.json",
             "--kappa", "0.25"],
            capsys,
        )
        assert rc == 0
        doc = json.loads(out)
        assert (doc["a0"], doc["b0"], doc["gap"]) == (1.0, 2.0, 1.0)

    def test_partial_diam_sniffs_measures_and_spaces(self, capsys):
        rc, out, _ = run_cli(
            ["partial-diam", "--space", f"{SPACES}/measure_four_atoms.json",
             "--target-mass", "0.5"],
            capsys,
        )
        assert rc == 0 and json.loads(out)["value"] == 1.0
        rc, out, _ = run_cli(
            ["partial-diam", "--space", f"{SPACES}/twopoint.json",
             "--target-mass", "1.0"],
            capsys,
        )
        assert rc == 0 and json.loads(out)["value"] == 1.0

    def test_obsdiam_real_and_screen(self, capsys):
        rc, out, _ = run_cli(
            ["obsdiam", "--space", f"{SPACES}/twopoint.json", "--kappa", "0.5"],
            capsys,
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["lower"] == 0.0 and doc["lower"] <= doc["upper"]
        rc, out, _ = run_cli(
            ["obsdiam", "--space", f"{SPACES}/twopoint.json",
             "--screen", f"{SPACES}/square4.json", "--kappa", "0.1"],
            capsys,
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["lower"] <= doc["upper"]

    def test_obsdiam_report_shapes(self, capsys):
        """The separation budget bounds only the line bracket, so only its
        report records one."""
        common = {"command", "kappa", "seed", "lower", "upper", "upper_source", "witness"}
        rc, out, _ = run_cli(
            ["obsdiam", "--space", f"{SPACES}/twopoint.json", "--kappa", "0.5",
             "--budget", "100"],
            capsys,
        )
        assert rc == 0
        doc = json.loads(out)
        assert set(doc) == common | {"budget"} and doc["budget"] == 100
        rc, out, _ = run_cli(
            ["obsdiam", "--space", f"{SPACES}/twopoint.json",
             "--screen", f"{SPACES}/square4.json", "--kappa", "0.1"],
            capsys,
        )
        assert rc == 0
        doc = json.loads(out)
        assert set(doc) == common | {"screen"}

    def test_doubling_net_color_commands(self, capsys):
        rc, out, _ = run_cli(
            ["doubling", "--space", f"{SPACES}/torus8.json"], capsys
        )
        assert rc == 0 and json.loads(out)["horizon"] == 0.5
        rc, out, _ = run_cli(
            ["net", "--space", f"{SPACES}/torus8.json", "--epsilon", "0.25"],
            capsys,
        )
        assert rc == 0
        assert json.loads(out)["members"] == ["0", "2", "4", "6"]
        rc, out, _ = run_cli(
            ["color", "--space", f"{SPACES}/torus8.json", "--epsilon", "0.125"],
            capsys,
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["k"] == len(doc["classes"])

    def test_levy_run_requires_an_explicit_seed(self, capsys):
        rc, _, err = run_cli(
            ["levy-run", "--family", "hamming:2..3"], capsys
        )
        assert rc == 1 and "seed" in err.lower()

    def test_levy_run_csv_and_determinism_across_workers(self, tmp_path, capsys):
        args = ["levy-run", "--family", "hamming:2..3", "--seed", "4",
                "--samples", "8", "--effort", "300"]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        rc, _, _ = run_cli(args + ["--out", str(out1), "--workers", "1"], capsys)
        assert rc == 0
        rc, _, _ = run_cli(args + ["--out", str(out2), "--workers", "2"], capsys)
        assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()
        rc, out, _ = run_cli(args + ["--format", "csv"], capsys)
        assert rc == 0
        header = out.splitlines()[0].split(",")
        assert header == list(formats.LEVY_CSV_COLUMNS)

    def test_format_is_a_levy_run_flag_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sep", "--space", f"{SPACES}/twopoint.json", "--kappa", "0.5",
                  "--kappa", "0.5", "--format", "csv"])
        assert exc.value.code == 1
        assert "--format" in capsys.readouterr().err

    def test_levy_run_keeps_members_of_equal_size_apart(self, capsys):
        rc, out, _ = run_cli(
            ["levy-run", "--family", "hamming:3,3", "--seed", "0",
             "--samples", "4", "--effort", "200"],
            capsys,
        )
        assert rc == 0
        doc = json.loads(out)
        for rows in (doc["sep"], doc["suprema"]):
            assert [(r["member"], r["n"]) for r in rows] == [(0, 3), (1, 3)]
        rc, out, _ = run_cli(
            ["levy-run", "--family", "hamming:3,3", "--seed", "0",
             "--samples", "4", "--effort", "200", "--format", "csv"],
            capsys,
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["member"] for r in rows] == ["0"] * 3 + ["1"] * 3

    def test_trend_script_prints_every_member(self, tmp_path):
        out = tmp_path / "trend.json"
        proc = subprocess.run(
            [sys.executable, str(TREND_SCRIPT), "--max-n", "4", "--samples", "4",
             "--effort", "200", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines() if line[:3].strip().isdigit()]
        assert [int(r[0]) for r in rows] == [2, 3, 4]
        assert all(len(r) == 3 + 2 * 3 for r in rows)  # n, sep, sup, two numbers per screen
        assert [s["n"] for s in json.loads(out.read_text())["suprema"]] == [2, 3, 4]

    @pytest.mark.parametrize("argv", [
        ["sep", "--space", f"{SPACES}/twopoint.json", "--kappa", "0.5", "--kappa", "0.5",
         "--effort", "-3"],
        ["obsdiam", "--space", f"{SPACES}/twopoint.json", "--kappa", "0.5", "--effort", "-1"],
        ["levy-run", "--family", "hamming:2..3", "--seed", "0", "--effort", "-1"],
    ])
    def test_a_negative_effort_exits_one(self, argv, capsys):
        rc, out, err = run_cli(argv, capsys)
        assert rc == 1 and not out
        assert err == "mmconc: --effort: must be >= 0\n"

    def test_sep_refuses_a_negative_budget(self, capsys):
        """An input error (exit 1), not a refusal of the search (exit 2)."""
        argv = ["sep", "--space", f"{SPACES}/twopoint.json", "--kappa", "0.5", "--kappa", "0.5",
                "--budget", "-1"]
        rc, out, err = run_cli(argv, capsys)
        assert rc == 1 and not out
        assert err == "mmconc: --budget: must be >= 0\n"

    @pytest.mark.parametrize("argv, message", [
        (["color", "--space", f"{SPACES}/torus8.json", "--epsilon", "nan"], "epsilon must be > 0"),
        (["net", "--space", f"{SPACES}/torus8.json", "--epsilon", "nan"], "epsilon must be > 0"),
        (["doubling", "--space", f"{SPACES}/torus8.json", "--radius", "nan"], "horizon must be > 0"),
        (["partial-diam", "--space", f"{SPACES}/torus8.json", "--target-mass", "nan"],
         "target_mass must be a number, got nan"),
        (["partial-diam", "--space", f"{SPACES}/measure_four_atoms.json", "--target-mass", "nan"],
         "target_mass must be a number, got nan"),
        (["sep-real", "--space", f"{SPACES}/measure_four_atoms.json", "--kappa", "nan"],
         "kappa must be > 0"),
    ])
    def test_a_nan_scale_or_mass_exits_one(self, argv, message, capsys):
        """NaN fails every comparison, so each check is written to fail it
        too; no report (and no non-JSON NaN token) is printed."""
        rc, out, err = run_cli(argv, capsys)
        assert rc == 1 and not out
        assert err == f"mmconc: {message}\n"

    def test_trend_script_refuses_a_negative_effort(self):
        proc = subprocess.run(
            [sys.executable, str(TREND_SCRIPT), "--max-n", "2", "--effort", "-1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == "--effort: must be >= 0\n" and not proc.stdout

    @pytest.mark.parametrize("flag, value, least", [
        ("samples", "-1", 0), ("workers", "0", 1), ("workers", "-1", 1), ("budget", "-1", 0),
    ])
    def test_levy_run_refuses_bad_samples_and_workers(self, flag, value, least, capsys):
        argv = ["levy-run", "--family", "hamming:2..3", "--seed", "0", f"--{flag}", value]
        rc, out, err = run_cli(argv, capsys)
        assert rc == 1 and not out
        assert err == f"mmconc: --{flag}: must be >= {least}\n"

    @pytest.mark.parametrize("flag, value, least", [("samples", "-1", 0), ("workers", "0", 1)])
    def test_trend_script_refuses_bad_samples_and_workers(self, flag, value, least):
        proc = subprocess.run(
            [sys.executable, str(TREND_SCRIPT), "--max-n", "2", f"--{flag}", value],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"--{flag}: must be >= {least}\n" and not proc.stdout

    def test_commands_in_one_process_print_what_separate_processes_print(self, capsys):
        """The parser is built once per process; parses share no state."""
        commands = [
            ["sep", "--space", f"{SPACES}/twopoint.json", "--kappa", "0.5", "--kappa", "0.25"],
            ["validate", "--space", f"{SPACES}/torus8.json"],
            ["sep", "--space", f"{SPACES}/square4.json", "--kappa", "0.25", "--kappa", "0.25"],
        ]
        for argv in commands:
            rc, out, err = run_cli(argv, capsys)
            proc = subprocess.run(
                [sys.executable, "-m", "mmconc.cli", *argv], capture_output=True, text=True
            )
            assert (rc, out, err) == (proc.returncode, proc.stdout, proc.stderr)
            assert rc == 0 and out
        assert cli._build_parser() is cli._build_parser()

    def test_console_script_is_wired(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mmconc.cli", "validate",
             "--space", f"{SPACES}/singleton.json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["points"] == 1
