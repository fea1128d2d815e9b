"""The exact core imports on its own; the float layer loads on first use.

``import ndscope`` and the exact commands (check-identifiability, region,
lump, reconstruct) must load neither numpy, scipy nor ``ndscope.sim``.
The ``sim`` names that the package root re-exports still resolve, to the
same objects as before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ndscope
import ndscope.cli as cli
import ndscope.sim as sim
from ndscope.fixtures import demo_model_json

# the package root's re-exports of ndscope.sim
SIM_NAMES = (
    "FloatRealization", "SimConfig", "StabilityMargins", "Trajectory",
    "choose_sampling", "distance_freq", "distance_scm", "distance_time", "eig",
    "expm", "freq_response", "prbs", "relative_error", "screen", "sigma_max",
    "simulate", "stability_margins", "stm", "svd", "tau_sweep",
)

FLOAT_MODULES = ("numpy", "scipy", "ndscope.sim")

# run in a fresh interpreter: prints, after the import and after each
# command, the float modules then loaded, and each command's exit code
CHILD = """
import contextlib, io, json, pathlib, sys
loaded = lambda: [m for m in %r if m in sys.modules]
import ndscope
steps = [("import ndscope", None, loaded())]
from ndscope import cli, fixtures
pathlib.Path("model.json").write_text(json.dumps(fixtures.demo_model_json()))
for argv in (["check-identifiability", "model.json"],
             ["region", "model.json"],
             ["lump", "model.json", "--out-dir", "lump"],
             ["reconstruct", "model.json", "--lumped", "lump/lumped.json"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    steps.append((argv[0], code, loaded()))
print(json.dumps(steps))
""" % (FLOAT_MODULES,)


def test_exact_commands_load_no_float_stack(tmp_path):
    src = str(Path(ndscope.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", CHILD], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    assert steps == [
        ["import ndscope", None, []], ["check-identifiability", 0, []],
        ["region", 0, []], ["lump", 0, []], ["reconstruct", 0, []]]


@pytest.mark.parametrize("name", SIM_NAMES)
def test_sim_names_resolve_to_sim(name):
    assert getattr(ndscope, name) is getattr(sim, name)
    assert name in dir(ndscope)
    ns = {}
    exec(f"from ndscope import {name}", ns)
    assert ns[name] is getattr(sim, name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        ndscope.no_such_name
    assert not hasattr(ndscope, "MAX_SAMPLES")
    with pytest.raises(ImportError):
        exec("from ndscope import no_such_name", {})


@pytest.mark.parametrize("exc", [sim.NoConvergence, sim.TooManySamples])
def test_sim_errors_exit_3(monkeypatch, exc, tmp_path, capsys):
    assert exc in (cli.NoConvergence, cli.TooManySamples)

    def failing(args):
        raise exc("no result")
    monkeypatch.setattr(cli, "cmd_check_identifiability", failing)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(demo_model_json()))
    assert cli.main(["check-identifiability", str(path)]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == "no result"
