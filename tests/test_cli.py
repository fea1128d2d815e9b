import csv
import io
import json
import os
import random
from contextlib import redirect_stdout, redirect_stderr
from importlib import resources

import jsonschema
import pytest

from helpers import model_json, rand_nds, rand_wellposed_scm
from ndscope.cli import main
from ndscope.fixtures import demo_model_json
from ndscope.model import SCMatrix


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

    @pytest.mark.parametrize("value", [5, [5], ["12"], {"a": [1]}],
                             ids=["number", "flat", "string-row", "object"])
    def test_non_matrix_scm_exit_2(self, model_path, tmp_path, schema,
                                   value):
        doc = demo_model_json()
        doc["scm"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, doc = run_json(["check-identifiability", str(bad)], schema)
        assert code == 2 and "SchemaError" in doc["error"]
        scm = tmp_path / "scm.json"
        scm.write_text(json.dumps(value))
        code, doc = run_json(
            ["check-identifiability", model_path, "--scm", str(scm)], schema)
        assert code == 2 and "SchemaError" in doc["error"]

    @pytest.mark.parametrize("constraints", [
        {"known_entries": 5},
        {"known_entries": {"J": 1}},
        {"known_entries": {"J": [[1]]}},
        {"known_entries": {"J": [1], "I": {"1": 3}}},
        {"known_entries": {"J": [1], "I": [3]}},
        {"affine": 5},
        {"affine": {"phi0": 5}},
        {"affine": {"phi0": [1, 2, 3, 4]}},
        {"affine": {"phi0": [["0", "0"]] * 4, "directions": 5}},
        {"affine": {"phi0": [["0", "0"]] * 4, "theta": 5}},
        {"affine": {"directions": []}},
        {"known_entries": {"J": [1], "I": {"1": [5]}}},
        {"known_entries": {"J": [3]}},
    ], ids=["ke-number", "J-number", "J-nested", "I-number-rows", "I-list",
            "affine-number", "phi0-number", "phi0-flat", "directions-number",
            "theta-number", "no-phi0", "I-out-of-range", "J-out-of-range"])
    def test_malformed_constraints_exit_2(self, model_path, tmp_path, schema,
                                          constraints):
        cpath = tmp_path / "constraints.json"
        cpath.write_text(json.dumps(constraints))
        code, doc = run_json(
            ["check-identifiability", model_path, "--scm", PHI0_INLINE,
             "--constraints", str(cpath)], schema)
        assert code == 2 and "SchemaError" in doc["error"]

    @pytest.mark.parametrize("error", [KeyError, IndexError])
    def test_program_bug_is_not_exit_2(self, model_path, monkeypatch, error):
        # exit 2 reports a fault in the input; a bug surfaces as itself
        import ndscope.cli as cli

        def buggy(args):
            raise error("bug")
        monkeypatch.setattr(cli, "cmd_check_identifiability", buggy)
        with pytest.raises(error):
            run_cli(["check-identifiability", model_path])

    def test_internal_value_error_is_not_exit_2(self, model_path,
                                                monkeypatch):
        import ndscope.cli as cli

        def buggy(nds, phi0):
            raise ValueError("bug")
        monkeypatch.setattr(cli, "check_identifiable_at", buggy)
        with pytest.raises(ValueError, match="bug"):
            run_cli(["check-identifiability", model_path])

    def test_input_errors_share_one_base(self):
        # every input fault exits 2 through one base; program faults do not
        import ndscope.cli as cli
        from ndscope import identifiability as ident, model, polymat, ratmat
        from ndscope import reconstruction as rec, sim
        former = {
            model.SchemaError: ValueError, model.DimensionError: ValueError,
            polymat.ShapeError: ValueError, model.NotRegular: ArithmeticError,
            model.NotWellPosed: ArithmeticError,
            rec.NotReconstructible: ArithmeticError,
            rec.Inconsistent: ArithmeticError, ident.WrongCase: ValueError,
            ident.RegionIsTrivial: ValueError,
            ident.ZeroDiagonal: ValueError, sim.ZeroSpectrum: ArithmeticError,
            sim.SingularE: ArithmeticError, sim.Unstable: ArithmeticError,
        }
        assert cli.INPUT_ERRORS == (polymat.InputError, OSError)
        for exc, base in former.items():
            assert issubclass(exc, polymat.InputError), exc
            assert issubclass(exc, base), exc
        for exc in (polymat.BrokenInvariant, polymat.NotUnimodular,
                    ratmat.SingularMatrixError, sim.NoConvergence,
                    sim.TooManySamples):
            assert not issubclass(exc, polymat.InputError), exc

    @pytest.mark.parametrize("fault", [
        "scm-json", "constraints-json", "lumped-json", "directions-json",
        "model-utf8", "lumped-utf8", "seed"])
    def test_input_fault_exit_2(self, model_path, tmp_path, schema,
                                monkeypatch, fault):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"{broken" if fault.endswith("json")
                        else b'{"A": "\xff"}')
        argv = {
            "scm-json": ["check-identifiability", model_path, "--scm",
                         str(bad)],
            "constraints-json": ["check-identifiability", model_path,
                                 "--constraints", str(bad)],
            "lumped-json": ["reconstruct", model_path, "--lumped", str(bad)],
            "directions-json": ["sweep", model_path, "--directions",
                                str(bad), "--tau", "0:1:2",
                                "--out-dir", str(tmp_path / "out")],
            "model-utf8": ["check-identifiability", str(bad)],
            "lumped-utf8": ["reconstruct", model_path, "--lumped", str(bad)],
            "seed": ["region", model_path],
        }[fault]
        if fault == "seed":
            monkeypatch.setenv("NDSCOPE_SEED", "abc")
        code, doc = run_json(argv, schema)
        assert code == 2 and doc["error"].startswith("SchemaError")

    def test_both_full_known_entries(self, tmp_path, schema):
        rng = random.Random(5)
        nds = rand_nds(rng, "both_full")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(
            model_json(nds, rand_wellposed_scm(rng, nds))))
        cpath = tmp_path / "constraints.json"
        cpath.write_text(json.dumps(
            {"known_entries": {"J": [1], "I": {"1": [1]}}}))
        code, doc = run_json(["check-identifiability", str(path),
                              "--constraints", str(cpath)], schema)
        assert code == 0
        assert doc["result"]["verdict"] == "identifiable_by_both_full"
        assert doc["result"]["per_column"] == {
            "1": {"kept": [], "fcr": True, "null_basis": []}}

    def test_portless_model_not_identifiable(self, tmp_path, schema):
        # no external input or output: every SCM gives the same empty TFM
        path = tmp_path / "portless.json"
        path.write_text(json.dumps({"subsystems": [{
            "E": [["1"]], "A_xx": [["-1"]], "B_xv": [["1"]], "B_xu": [[]],
            "C_zx": [["1"]], "C_yx": [], "D_zv": [["0"]], "D_zu": [[]],
            "D_yv": [], "D_yu": []}], "scm": [["1/2"]]}))
        code, doc = run_json(["check-identifiability", str(path)], schema)
        assert code == 0
        result = doc["result"]
        assert (result["case"], result["verdict"]) == ("a2",
                                                       "not_identifiable")
        assert result["region"] == {"transposed": False, "basis": [["1"]]}
        code, _ = run_json(["check-identifiability", str(path), "--strict"],
                           schema)
        assert code == 1

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

    @pytest.mark.parametrize("with_e", [True, False], ids=["E", "no E"])
    def test_lump_artifact_with_or_without_e(self, model_path, tmp_path,
                                              schema, with_e):
        out_dir = tmp_path / "art"
        run_json(["lump", model_path, "--scm", PHI_EQ_INLINE,
                  "--out-dir", str(out_dir)], schema)
        lumped = json.loads((out_dir / "lumped.json").read_text())
        assert "E" in lumped
        if not with_e:
            del lumped["E"]
        lpath = tmp_path / "lumped.json"
        lpath.write_text(json.dumps(lumped))
        code, doc = run_json(["reconstruct", model_path, "--lumped",
                              str(lpath), "--strict"], schema)
        assert code == 0 and doc["result"]["consistent"]
        assert doc["result"]["scm"] == [["0", "0"], ["0", "0"],
                                        ["0", "0"], ["2", "0"]]

    @pytest.mark.parametrize("e,error", [
        (lambda e: [["7"] + e[0][1:]] + e[1:],
         "ShapeError: lumped E must equal the block-diagonal E"),
        (lambda e: [["1"]], "DimensionError: lumped E has 1 rows"),
        (lambda e: [row[:-1] for row in e], "DimensionError: lumped E row"),
    ], ids=["wrong value", "wrong shape", "short rows"])
    def test_wrong_lumped_e_exit_2(self, model_path, tmp_path, schema, e,
                                   error):
        _, doc = run_json(["lump", model_path, "--scm", PHI_EQ_INLINE],
                          schema)
        lumped = doc["result"]["lumped"]
        lumped["E"] = e(lumped["E"])
        lpath = tmp_path / "lumped.json"
        lpath.write_text(json.dumps(lumped))
        code, doc = run_json(["reconstruct", model_path, "--lumped",
                              str(lpath), "--strict"], schema)
        assert code == 2
        assert doc["error"].startswith(error)

    def test_wrong_lumped_e_exit_2_when_not_reconstructible(self, tmp_path,
                                                            schema):
        # with v cut off from y in subsystem 1, no consistency test runs
        nds_doc = demo_model_json()
        sub = nds_doc["subsystems"][0]
        for key in ("B_xv", "D_yv"):
            sub[key] = [["0"] * len(row) for row in sub[key]]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(nds_doc))
        _, doc = run_json(["lump", str(path)], schema)
        lumped = doc["result"]["lumped"]
        lpath = tmp_path / "lumped.json"
        lpath.write_text(json.dumps(lumped))
        code, doc = run_json(["reconstruct", str(path), "--lumped",
                              str(lpath)], schema)
        assert code == 0 and doc["result"]["reconstructible"] is False
        lumped["E"][0][0] = "7"
        lpath.write_text(json.dumps(lumped))
        code, doc = run_json(["reconstruct", str(path), "--lumped",
                              str(lpath)], schema)
        assert code == 2
        assert doc["error"].startswith(
            "ShapeError: lumped E must equal the block-diagonal E")

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

    @pytest.mark.parametrize("key", ["A", "B", "C", "D"])
    def test_wrong_shape_names_the_matrix(self, model_path, tmp_path,
                                          schema, key):
        lumped = {"A": [["0"] * 4] * 4, "B": [["0"] * 2] * 4,
                  "C": [["0"] * 4] * 2, "D": [["0"] * 2] * 2}
        lumped[key] = lumped[key] + [lumped[key][0]]
        lpath = tmp_path / "shape.json"
        lpath.write_text(json.dumps(lumped))
        code, doc = run_json(
            ["reconstruct", model_path, "--lumped", str(lpath)], schema)
        assert code == 2
        assert doc["error"].startswith(f"DimensionError: lumped {key} has")

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


    @pytest.mark.parametrize("mutate", [
        lambda doc: doc["B"][1].append("1"),        # once cut off by zip
        lambda doc: doc["D"][1].append("1"),
        lambda doc: doc["A"][3].pop(),              # once an IndexError
        lambda doc: doc["C"][1].pop(),
        lambda doc: doc.update(A=5),                # once a TypeError
        lambda doc: doc.update(B=[["0", "0"], 7, ["0", "0"], ["0", "0"]]),
        lambda doc: doc.update(C=[["1", "-1", "0", "0"]]),
        lambda doc: doc.pop("D"),
    ], ids=["B row 2 long", "D row 2 long", "A row 4 short",
            "C row 2 short", "A not rows", "B row not a list",
            "C rows missing", "D missing"])
    def test_malformed_lumped_exit_2(self, model_path, tmp_path, schema,
                                     mutate):
        _, doc = run_json(["lump", model_path, "--scm", PHI_EQ_INLINE],
                          schema)
        lumped = {k: doc["result"]["lumped"][k] for k in "ABCD"}
        mutate(lumped)
        lpath = tmp_path / "bad.json"
        lpath.write_text(json.dumps(lumped))
        code, doc = run_json(
            ["reconstruct", model_path, "--lumped", str(lpath)], schema)
        assert code == 2
        assert doc["error"].split(":")[0] in ("SchemaError", "DimensionError")

    @pytest.mark.parametrize("text", ["[1, 2]", "5", '"ABCD"'])
    def test_lumped_file_not_an_object_exit_2(self, model_path, tmp_path,
                                              schema, text):
        lpath = tmp_path / "bad.json"
        lpath.write_text(text)
        code, doc = run_json(
            ["reconstruct", model_path, "--lumped", str(lpath)], schema)
        assert code == 2
        assert doc["error"].startswith("SchemaError")

    def test_one_consistency_pass(self, model_path, tmp_path, schema,
                                  monkeypatch):
        import ndscope.reconstruction as reconstruction
        from ndscope.cli import mat_strs
        from ndscope.fixtures import PHI_EQUIV, demo_nds
        model = reconstruction.lump(demo_nds(), PHI_EQUIV)
        lpath = tmp_path / "lumped.json"
        lpath.write_text(json.dumps({k: mat_strs(getattr(model, k + "_hat"))
                                     for k in "ABCD"}))
        passes = []

        def counted(nds, model):
            passes.append(model)
            return consistency(nds, model)
        consistency = reconstruction._consistency
        monkeypatch.setattr(reconstruction, "_consistency", counted)
        code, doc = run_json(
            ["reconstruct", model_path, "--lumped", str(lpath)], schema)
        assert code == 0 and doc["result"]["consistent"]
        assert doc["result"]["scm"] == mat_strs(PHI_EQUIV.entries)
        assert len(passes) == 1


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

    def test_too_many_samples_exit_3(self, model_path, schema):
        # tau = 1.095 along the first bundled direction is stable, but the
        # sampling rule asks for about 3.2e6 samples
        from fractions import Fraction
        from ndscope.fixtures import PHI0, SWEEP_DIRECTIONS
        tau = Fraction(219, 200)
        near_graze = ";".join(
            ",".join(str(a + tau * (b - a)) for a, b in zip(ra, rb))
            for ra, rb in zip(PHI0.entries, SWEEP_DIRECTIONS[0].entries))
        code, doc = run_json(
            ["simulate", model_path, "--scm-a", PHI0_INLINE,
             "--scm-b", near_graze], schema)
        assert code == 3 and not doc["ok"]
        assert "samples" in doc["error"]

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
        assert lines[0] == "k,tau,d_T,d_F,d_S,s_mr,s_md,skipped,reason"
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

    @pytest.mark.parametrize("grid", ["0:1/0:1", "1/0:1:2", "0:1:1/0",
                                      "a:1:2"])
    def test_bad_tau_part_exit_2(self, model_path, tmp_path, grid, schema):
        code, doc = run_json(
            ["sweep", model_path, "--scm0", PHI0_INLINE,
             "--directions", "paper", "--tau", grid,
             "--out-dir", str(tmp_path)], schema)
        assert code == 2
        assert doc["error"].startswith("SchemaError")

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

    def test_jobs_do_not_change_csv(self, model_path, tmp_path, schema):
        csv = []
        for jobs in ("1", "2"):
            out = str(tmp_path / f"jobs{jobs}")
            code, _ = run_json(
                ["sweep", model_path, "--scm0", PHI0_INLINE,
                 "--directions", "paper", "--tau", "0:1:20",
                 "--jobs", jobs, "--out-dir", out], schema)
            assert code == 0
            csv.append(open(os.path.join(out, "sweep.csv"), "rb").read())
        assert csv[0] == csv[1]
        assert len(csv[0].splitlines()) == 1 + 4 * 21

    def test_empty_grid_with_jobs(self, model_path, tmp_path, schema):
        # no grid point: every direction still gets one task, which
        # screens its reference, and the pool is never sized to 0
        csv = []
        for jobs in ("1", "2"):
            out = str(tmp_path / f"jobs{jobs}")
            code, doc = run_json(
                ["sweep", model_path, "--scm0", PHI0_INLINE,
                 "--directions", "paper", "--tau", "5:1:1",
                 "--jobs", jobs, "--out-dir", out], schema)
            assert code == 0 and doc["result"]["taus"] == 0
            csv.append(open(os.path.join(out, "sweep.csv"), "rb").read())
        assert csv[0] == csv[1] == \
            b"k,tau,d_T,d_F,d_S,s_mr,s_md,skipped,reason\n"

    @pytest.mark.parametrize("cpus,want", [(64, 3), (2, 2)])
    def test_pool_capped_at_tasks_and_cpus(self, model_path, tmp_path,
                                           schema, monkeypatch, cpus, want):
        import concurrent.futures
        blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        # one set, one unset: both must come back as they were
        monkeypatch.setenv("OMP_NUM_THREADS", "7")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        sizes, starts = [], []

        class InlinePool:
            """Records the pool size, start method and the BLAS thread
            variables its workers would inherit, and runs the tasks in
            this process."""

            def __init__(self, max_workers, mp_context=None):
                sizes.append(max_workers)
                starts.append((mp_context.get_start_method(),
                               [os.environ.get(k) for k in blas]))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps([[["0", "0"], ["0", "0"], ["2", "0"],
                                     ["0", "0"]]]))
        written = []
        for jobs in ("1", "64"):
            out = tmp_path / f"jobs{jobs}"
            code, _ = run_json(
                ["sweep", model_path, "--scm0", PHI0_INLINE,
                 "--directions", str(dirs), "--tau", "0:1:2",
                 "--jobs", jobs, "--out-dir", str(out)], schema)
            assert code == 0
            written.append((out / "sweep.csv").read_bytes())
        # --jobs 1 starts no pool; 3 grid points are 3 tasks
        assert sizes == [want]
        assert written[0] == written[1]
        # spawned workers load BLAS with one thread; the parent's
        # environment is restored afterwards
        assert starts == [("spawn", ["1", "1", "1"])]
        assert [os.environ.get(k) for k in blas] == ["7", None, None]

    def test_oversized_tau_grid_exit_2(self, model_path, tmp_path, schema):
        # 2e10 points: refused from the point count, before any is built
        code, doc = run_json(
            ["sweep", model_path, "--scm0", PHI0_INLINE,
             "--directions", "paper", "--tau", "0:1/1000000000:20",
             "--out-dir", str(tmp_path)], schema)
        assert code == 2
        assert doc["error"].startswith("SchemaError")

    def test_tau_grid_limit_is_inclusive(self, monkeypatch):
        import ndscope.cli as cli
        from ndscope.model import SchemaError
        monkeypatch.setattr(cli, "MAX_TAU_POINTS", 5)
        assert len(cli._parse_tau_grid("0:1:4")) == 5
        with pytest.raises(SchemaError, match="6 points"):
            cli._parse_tau_grid("0:1:5")

    def test_skip_reason_column(self, model_path, tmp_path, schema):
        # tau = 1.095 on direction 1 is stable but needs about 3.2e6 samples
        out = str(tmp_path / "sweepmax")
        code, _ = run_json(
            ["sweep", model_path, "--scm0", PHI0_INLINE,
             "--directions", "paper", "--tau", "1.095:1:1.095",
             "--out-dir", out], schema)
        assert code == 0
        row = open(os.path.join(out, "sweep.csv")).read().splitlines()[1]
        k, _, d_t, _, _, s_mr, _, skipped, reason = row.split(",")
        assert (k, d_t, skipped, reason) == ("1", "", "1", "too_many_samples")
        assert float(s_mr) > 0

    @pytest.mark.parametrize("value", [5, {"a": 1}, [5], [["12"]]],
                             ids=["number", "object", "flat", "string-row"])
    def test_malformed_directions_exit_2(self, model_path, tmp_path, schema,
                                         value):
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps(value))
        code, doc = run_json(
            ["sweep", model_path, "--scm0", PHI0_INLINE,
             "--directions", str(dirs), "--tau", "0:1:2",
             "--out-dir", str(tmp_path / "out")], schema)
        assert code == 2 and "SchemaError" in doc["error"]

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
    def test_summary_contents(self, tmp_path, schema, monkeypatch):
        import ndscope.model as model
        import ndscope.sim as sim
        from ndscope.fixtures import PHI0, PHI_DIFF, PHI_EQUIV
        built = []

        def counted(fn):
            def wrapper(nds, phi):
                built.append(phi.entries)
                return fn(nds, phi)
            return wrapper
        for mod in (model, sim):
            monkeypatch.setattr(mod, "lifted_realization",
                                counted(mod.lifted_realization))
        out = str(tmp_path / "repro")
        code, doc = run_json(["reproduce-paper", "--out-dir", out], schema)
        # Phi0's lifted realization: the identifiability check's
        # regularity test, its screening, each of the four sweeps'
        # references and the spot scan's tau = 0 point.  Phi_u and Phi_i
        # are screened once, and their screenings serve the TFM checks
        # and the simulations.
        assert [built.count(phi.entries) for phi in
                (PHI0, PHI_EQUIV, PHI_DIFF)] == [7, 1, 1]
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


class TestOneScreening:
    """Each screened SCM gets one lifted realization, whose one
    nonsingular-point search decides regularity and yields the exact TFM,
    one lump, whose solve with I - Phi D_zv decides well-posedness, and
    one eig; no caller transfers it again."""

    def test_each_scm_lumped_and_transferred_once(self, model_path,
                                                   tmp_path, monkeypatch):
        from fractions import Fraction
        import ndscope.cli as cli
        import ndscope.identifiability as identifiability
        import ndscope.model as model
        import ndscope.reconstruction as reconstruction
        import ndscope.sim as sim
        from ndscope.fixtures import PHI0, PHI_DIFF, SWEEP_DIRECTIONS, demo_nds

        lifted_size = demo_nds().m_x + demo_nds().m_z
        calls = {k: [] for k in ("lifted", "points", "eig", "lump",
                                 "well_posed", "regular", "tfm")}

        def counted(name, fn, keep=None):
            def wrapper(*args):
                if keep is None or keep(*args):
                    calls[name].append(args)
                return fn(*args)
            return wrapper
        for mod, attr, name, keep in (
                (sim, "lifted_realization", "lifted", None),
                # the lifted pencil's searches, not the subsystems'
                (model, "_nonsingular_points", "points",
                 lambda e, a, count=None: len(e) == lifted_size),
                (sim, "eig", "eig", None),
                (sim, "_lumped_float", "lump", None),
                (model, "check_nds_regular", "regular", None),
                (identifiability, "check_nds_regular", "regular", None),
                (model, "nds_tfm", "tfm", None),
                (sim, "nds_tfm", "tfm", None),
                (sim, "exact_tfm", "tfm", None)):
            monkeypatch.setattr(mod, attr, counted(name, getattr(mod, attr),
                                                   keep))
        # counted wherever the study engine could import it: the screen
        # reads well-posedness from lump's solve and runs no separate test
        well_posed = counted("well_posed", model.check_well_posed)
        for mod in (sim, reconstruction):
            monkeypatch.setattr(mod, "check_well_posed", well_posed,
                                raising=False)

        def per_screen():
            return {k: len(v) for k, v in calls.items()}

        def reset():
            for v in calls.values():
                v.clear()

        # a sweep with k kept rows screens k SCMs: its tau = 0 row is
        # Phi0 and shares the reference's screening; the singular-value
        # plot reuses a row's TFM.  The region's check_identifiable_at
        # tests Phi0's regularity once more on its own lifted pencil.
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps(
            [[[str(x) for x in row] for row in SWEEP_DIRECTIONS[0].entries]]))
        out = tmp_path / "sweep"
        code, _, _ = run_cli(["sweep", model_path, "--scm0", PHI0_INLINE,
                              "--directions", str(dirs), "--tau", "0:1:2",
                              "--out-dir", str(out)])
        assert code == 0
        with open(out / "sweep.csv", encoding="utf-8") as fh:
            k = sum(row["skipped"] == "0" for row in csv.DictReader(fh))
        assert k == 3
        assert per_screen() == {"lifted": k, "points": k + 1,
                                "eig": k, "lump": k,
                                "well_posed": 0, "regular": 1, "tfm": 0}

        # simulate screens each SCM once, in order, and its d_F reads
        # the screenings' TFMs
        reset()
        code, _, _ = run_cli(["simulate", model_path, "--scm-a", PHI0_INLINE,
                              "--scm-b", PHI_DIFF_INLINE,
                              "--out-dir", str(tmp_path / "sim")])
        assert code == 0
        assert [args[1].entries for args in calls["lifted"]] == \
            [PHI0.entries, PHI_DIFF.entries]
        assert per_screen() == {"lifted": 2, "points": 2, "eig": 2,
                                "lump": 2, "well_posed": 0, "regular": 0,
                                "tfm": 0}

        # the spot scan screens the 201 grid points and the graze point
        # once each; H(Phi0) is the tau = 0 point's TFM (tau = 1.1 is
        # skipped as unstable after its lump)
        reset()
        spot = cli._spot_value_scan(demo_nds(), SCMatrix(PHI0.entries),
                                    SWEEP_DIRECTIONS[0])
        assert spot["argmax_tau"] == str(Fraction(6, 5))
        phis = [args[1].entries for args in calls["lifted"]]
        assert len(set(phis)) == len(phis) == 202
        assert per_screen() == {"lifted": 202, "points": 202, "eig": 202,
                                "lump": 202, "well_posed": 0,
                                "regular": 0, "tfm": 0}
