import io
import json
import os
from contextlib import redirect_stdout, redirect_stderr
from importlib import resources

import jsonschema
import pytest

from ndscope.cli import main
from ndscope.fixtures import demo_model_json


@pytest.fixture(scope="module")
def schema():
    with resources.files("ndscope").joinpath(
            "schema/report.schema.json").open("r") as fh:
        return json.load(fh)


@pytest.fixture()
def model_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(demo_model_json()))
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv, schema):
    code, out, _ = run_cli(argv)
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    return code, doc


PHI0_INLINE = "0,0;0,0;1,0;0,0"
PHI_EQ_INLINE = "0,0;0,0;0,0;2,0"
PHI_DIFF_INLINE = "0,1;0,0;1,0;0,0"


class TestCheckIdentifiability:
    def test_fixture_not_identifiable(self, model_path, schema):
        code, doc = run_json(
            ["check-identifiability", model_path, "--scm", PHI0_INLINE],
            schema)
        assert code == 0
        assert doc["result"]["verdict"] == "not_identifiable"
        assert doc["result"]["null_basis"] == [["0"], ["0"], ["1"], ["-2"]]

    def test_strict_exit_code(self, model_path, schema):
        code, doc = run_json(
            ["check-identifiability", model_path, "--scm", PHI0_INLINE,
             "--strict"], schema)
        assert code == 1

    def test_identifiable_scm(self, model_path, schema):
        code, doc = run_json(
            ["check-identifiability", model_path, "--scm", PHI_DIFF_INLINE,
             "--strict"], schema)
        assert code == 0
        assert doc["result"]["verdict"] == "identifiable"

    def test_embedded_scm_used(self, model_path, schema):
        code, doc = run_json(["check-identifiability", model_path], schema)
        assert doc["result"]["verdict"] == "not_identifiable"

    def test_malformed_file_exit_2(self, tmp_path, schema):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, doc = run_json(
            ["check-identifiability", str(bad), "--scm", PHI0_INLINE],
            schema)
        assert code == 2 and not doc["ok"]

    @pytest.mark.parametrize("value", [5, None, [1]])
    @pytest.mark.parametrize("key", [
        "E", "A_xx", "B_xv", "B_xu", "C_zx", "C_yx",
        "D_zv", "D_zu", "D_yv", "D_yu"])
    def test_non_matrix_field_exit_2(self, tmp_path, schema, key, value):
        doc = demo_model_json()
        doc["subsystems"][0][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, doc = run_json(
            ["check-identifiability", str(bad), "--scm", PHI0_INLINE],
            schema)
        assert code == 2 and "SchemaError" in doc["error"]

    def test_known_entries_constraints(self, model_path, tmp_path, schema):
        cpath = tmp_path / "constraints.json"
        cpath.write_text(json.dumps(
            {"known_entries": {"J": [1, 2], "I": {"1": [3, 4],
                                                  "2": [3, 4]}}}))
        code, doc = run_json(
            ["check-identifiability", model_path, "--scm", PHI0_INLINE,
             "--constraints", str(cpath)], schema)
        assert code == 0
        assert doc["result"]["verdict"] == "identifiable"
        assert doc["result"]["mode"] == "known_entries"

    def test_affine_constraints(self, model_path, tmp_path, schema):
        cpath = tmp_path / "affine.json"
        cpath.write_text(json.dumps({"affine": {
            "phi0": [["0", "0"], ["0", "0"], ["1", "0"], ["0", "0"]],
            "directions": [[["0", "0"], ["0", "0"],
                            ["1", "0"], ["-2", "0"]]],
            "theta": ["0"],
        }}))
        code, doc = run_json(
            ["check-identifiability", model_path, "--constraints",
             str(cpath), "--scm", PHI0_INLINE], schema)
        assert doc["result"]["verdict"] == "not_identifiable"
        assert doc["result"]["theta_null_basis"] == [["1"]]


class TestRegion:
    def test_samples_verified(self, model_path, schema):
        code, doc = run_json(
            ["region", model_path, "--scm", PHI0_INLINE, "--samples", "3",
             "--seed", "4"], schema)
        assert code == 0
        assert doc["result"]["basis"] == [["0"], ["0"], ["1"], ["-2"]]
        assert len(doc["result"]["samples"]) == 3
        assert all(s["tfm_equal"] for s in doc["result"]["samples"])

    def test_trivial_region(self, model_path, schema):
        code, doc = run_json(
            ["region", model_path, "--scm", PHI_DIFF_INLINE], schema)
        assert code == 0 and doc["result"]["trivial"]
        code, _ = run_json(
            ["region", model_path, "--scm", PHI_DIFF_INLINE, "--strict"],
            schema)
        assert code == 1

    def test_zero_samples(self, model_path, schema):
        code, doc = run_json(
            ["region", model_path, "--scm", PHI0_INLINE, "--samples", "0"],
            schema)
        assert doc["result"]["samples"] == []

    def test_env_seed_override(self, model_path, schema, monkeypatch):
        def samples(env):
            if env is None:
                monkeypatch.delenv("NDSCOPE_SEED", raising=False)
            else:
                monkeypatch.setenv("NDSCOPE_SEED", env)
            _, doc = run_json(
                ["region", model_path, "--scm", PHI0_INLINE,
                 "--samples", "2"], schema)
            return doc["result"]["samples"]
        default = samples(None)
        assert samples("0") == default   # default seed is 0
        assert samples("12345") != default


class TestReconstructAndLump:
    def test_round_trip_through_files(self, model_path, tmp_path, schema):
        out_dir = str(tmp_path / "art")
        code, doc = run_json(
            ["lump", model_path, "--scm", PHI_EQ_INLINE,
             "--out-dir", out_dir], schema)
        assert code == 0
        lumped = doc["result"]["lumped"]
        lpath = tmp_path / "lumped.json"
        lpath.write_text(json.dumps(
            {k: lumped[k] for k in ("A", "B", "C", "D")}))
        code, doc = run_json(
            ["reconstruct", model_path, "--lumped", str(lpath)], schema)
        assert code == 0
        assert doc["result"]["consistent"]
        assert doc["result"]["scm"] == [["0", "0"], ["0", "0"],
                                        ["0", "0"], ["2", "0"]]

    def test_zero_deviation_file(self, model_path, tmp_path, schema):
        nds_doc = demo_model_json()
        sub = nds_doc["subsystems"][0]
        a = [[sub["A_xx"][i][j] if i % 2 == j % 2 and i // 2 == j // 2
              else "0" for j in range(2)] for i in range(2)]
        # block diagonal of the two subsystem A matrices, B etc.
        lumped = {
            "A": [["-2", "-1", "0", "0"], ["4", "-7", "0", "0"],
                  ["0", "0", "-2", "-1"], ["0", "0", "4", "-7"]],
            "B": [["0", "0"], ["1", "0"], ["0", "0"], ["0", "1"]],
            "C": [["1", "-1", "0", "0"], ["0", "0", "1", "-1"]],
            "D": [["0", "0"], ["0", "0"]],
        }
        lpath = tmp_path / "zero.json"
        lpath.write_text(json.dumps(lumped))
        code, doc = run_json(
            ["reconstruct", model_path, "--lumped", str(lpath)], schema)
        assert doc["result"]["scm"] == [["0", "0"]] * 4

    def test_inconsistent_file(self, model_path, tmp_path, schema):
        lumped = {
            "A": [["-2", "-1", "0", "0"], ["4", "-7", "0", "0"],
                  ["0", "0", "-2", "-1"], ["0", "0", "4", "-7"]],
            "B": [["0", "0"], ["1", "0"], ["0", "0"], ["0", "1"]],
            # C deviates along a direction outside the span of K
            "C": [["2", "-1", "0", "0"], ["0", "0", "1", "-1"]],
            "D": [["0", "0"], ["0", "0"]],
        }
        lpath = tmp_path / "bad.json"
        lpath.write_text(json.dumps(lumped))
        code, doc = run_json(
            ["reconstruct", model_path, "--lumped", str(lpath)], schema)
        assert code == 0
        assert doc["result"]["consistent"] is False
        code, _ = run_json(
            ["reconstruct", model_path, "--lumped", str(lpath), "--strict"],
            schema)
        assert code == 1

    def test_shape_error_exit_2(self, model_path, tmp_path, schema):
        lpath = tmp_path / "shape.json"
        lpath.write_text(json.dumps(
            {"A": [["1"]], "B": [["1"]], "C": [["1"]], "D": [["1"]]}))
        code, doc = run_json(
            ["reconstruct", model_path, "--lumped", str(lpath)], schema)
        assert code == 2


class TestSimulateCmd:
    def test_equivalent_pair(self, model_path, tmp_path, schema):
        out = str(tmp_path / "sim")
        code, doc = run_json(
            ["simulate", model_path, "--scm-a", PHI0_INLINE,
             "--scm-b", PHI_EQ_INLINE, "--seed", "0", "--out-dir", out],
            schema)
        assert code == 0
        metrics = doc["result"]
        assert max(x for x in metrics["max_relative_error"]
                   if x is not None) <= 1e-6
        assert metrics["d_F"] == 0.0
        traces = open(os.path.join(out, "traces.csv")).read().splitlines()
        assert traces[0] == "t,u1,u2,y_a1,y_a2,y_b1,y_b2,e1,e2"
        assert len(traces) == metrics["M"] + 1
        for name in ("metrics.json", "outputs_y1.svg",
                     "relative_differences.svg"):
            assert os.path.exists(os.path.join(out, name))

    def test_deterministic_outputs(self, model_path, tmp_path, schema):
        out1 = str(tmp_path / "s1")
        out2 = str(tmp_path / "s2")
        for out in (out1, out2):
            code, _ = run_json(
                ["simulate", model_path, "--scm-a", PHI0_INLINE,
                 "--scm-b", PHI_DIFF_INLINE, "--seed", "3",
                 "--out-dir", out], schema)
            assert code == 0
        for name in ("traces.csv", "metrics.json"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b

    def test_identical_pair_zero_distance(self, model_path, tmp_path,
                                          schema):
        out = str(tmp_path / "same")
        code, doc = run_json(
            ["simulate", model_path, "--scm-a", PHI0_INLINE,
             "--scm-b", PHI0_INLINE, "--out-dir", out], schema)
        assert doc["result"]["d_T"] == 0.0


class TestSweepCmd:
    def test_coarse_sweep(self, model_path, tmp_path, schema):
        out = str(tmp_path / "sweep")
        code, doc = run_json(
            ["sweep", model_path, "--scm0", PHI0_INLINE,
             "--directions", "paper", "--tau", "0:5:20",
             "--out-dir", out], schema)
        assert code == 0
        lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
        assert lines[0] == "k,tau,d_T,d_F,d_S,s_mr,s_md,skipped"
        assert len(lines) == 1 + 4 * 5
        for name in ("dT_vs_dF.svg", "dT_vs_tau.svg",
                     "singular_values.svg"):
            assert os.path.exists(os.path.join(out, name))

    def test_tau_zero_rows_all_zero(self, model_path, tmp_path, schema):
        out = str(tmp_path / "sweep0")
        code, doc = run_json(
            ["sweep", model_path, "--scm0", PHI0_INLINE,
             "--directions", "paper", "--tau", "0:1:0",
             "--out-dir", out], schema)
        lines = open(os.path.join(out, "sweep.csv")).read().splitlines()[1:]
        for line in lines:
            parts = line.split(",")
            assert parts[1] == "0.0"
            assert float(parts[2]) == 0.0 and float(parts[3]) == 0.0
            assert float(parts[4]) == 0.0

    def test_tau_grid_parser(self):
        from ndscope.cli import _parse_tau_grid
        taus = _parse_tau_grid("0:0.1:20")
        assert len(taus) == 201
        assert taus[0] == 0 and taus[-1] == 20
        from fractions import Fraction
        assert taus[11] == Fraction(11, 10)   # exact rationals, no drift

    def test_d_s_column_linear_in_tau(self, model_path, tmp_path, schema):
        out = str(tmp_path / "sweeplin")
        code, _ = run_json(
            ["sweep", model_path, "--scm0", PHI0_INLINE,
             "--directions", "paper", "--tau", "0:4:16",
             "--out-dir", out], schema)
        rows = [line.split(",") for line in
                open(os.path.join(out, "sweep.csv")).read().splitlines()[1:]]
        per_k = {}
        for r in rows:
            if r[7] == "0":
                per_k.setdefault(r[0], []).append(
                    (float(r[1]), float(r[4])))
        for pts in per_k.values():
            base = next(p for p in pts if p[0] > 0)
            for tau, d_s in pts:
                want = tau / base[0] * base[1]
                assert abs(d_s - want) <= 1e-9 * max(1.0, want)

    def test_unstable_pair_rejected(self, model_path, schema):
        # tau = 1.1 along the first bundled direction is unstable
        unstable = ("1.29052,0.53625;-0.55869,-0.46596;"
                    "2.46102,-0.61919;1.11683,-1.80906")
        code, doc = run_json(
            ["simulate", model_path, "--scm-a", PHI0_INLINE,
             "--scm-b", unstable, "--out-dir", "/tmp/na"], schema)
        assert code == 2 and not doc["ok"]

    def test_directions_file(self, model_path, tmp_path, schema):
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps(
            [[["0", "0"], ["0", "0"], ["2", "0"], ["0", "0"]]]))
        out = str(tmp_path / "sweepf")
        code, doc = run_json(
            ["sweep", model_path, "--scm0", PHI0_INLINE,
             "--directions", str(dirs), "--tau", "0:1:2",
             "--out-dir", out], schema)
        assert code == 0
        assert doc["result"]["directions"] == 1


class TestReproduceCmd:
    def test_summary_contents(self, tmp_path, schema):
        out = str(tmp_path / "repro")
        code, doc = run_json(["reproduce-paper", "--out-dir", out], schema)
        checks = {c["name"]: c["ok"] for c in doc["result"]["checks"]}
        assert checks["not identifiable at Phi0"]
        assert checks["null basis spans (0,0,1,-2)^T"]
        assert checks["Phi_u in region"]
        assert checks["Phi_i not in region"]
        assert checks["K FCR and L FRR per subsystem"]
        assert checks["H(Phi0) = H(Phi_u) exactly"]
        assert checks["max relative error (Phi0, Phi_u) <= 1e-6"]
        assert checks["max relative error (Phi0, Phi_i) >= 10"]
        assert checks["d_S linear in tau over the sweep"]
        # the published spot value is not attainable on the spec grid
        # (tau = 1.1 is exactly unstable); the command documents it
        spot = "max d_F for direction 1 reproduces 1.7920e2 within 1%"
        assert checks[spot] is False
        assert code == 1
        assert doc["result"]["notes"]
        assert os.path.exists(os.path.join(out, "summary.json"))
        failed = [n for n, ok in checks.items() if not ok]
        assert failed == [spot]
