"""What ``import designvar`` exposes, and what each CLI process loads and prints.

The process tests run commands in fresh interpreters, since the modules
a command loads only show in a process that has loaded nothing else.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import designvar as dv

SRC = str(Path(dv.__file__).resolve().parent.parent)

# runs one command through cli.main and prints, as its last line, what the process loaded
PROBE = """
import json, sys
import numpy
bare = "numpy.ma" in sys.modules  # numpy < 2 imports numpy.ma itself
from designvar.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "bare_numpy_ma": bare, "modules": sorted(sys.modules)}))
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is block-buffered, as by default
    return env


def _probe(*argv) -> dict:
    proc = subprocess.run([sys.executable, "-c", PROBE, *map(str, argv)], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli(*argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "designvar.cli", *map(str, argv)], env=_env(),
                          capture_output=True, text=True, timeout=120)


def _write_chain_inputs(tmp_path: Path) -> Path:
    (tmp_path / "complete.json").write_text(json.dumps({"type": "complete", "counts": [2, 2]}))
    (tmp_path / "paired.json").write_text(json.dumps({"type": "paired", "k": 2,
                                                      "pairs": [[0, 1], [2, 3]]}))
    (tmp_path / "obs.csv").write_text("unit_id,arm_assigned,y_obs\n0,0,1.0\n1,1,2.5\n"
                                      "2,1,3.0\n3,0,0.5\n")
    (tmp_path / "scenario.json").write_text(json.dumps(
        {"design": {"type": "complete", "counts": [2, 2]},
         "y": [0.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 5.0],
         "estimator": {"kind": "hj", "contrast": [-1, 1]}, "bound": "as", "mode": "exact"}))
    return tmp_path


@pytest.fixture()
def chain_inputs(tmp_path):
    """Inputs for the design -> bound -> compare -> estimate -> simulate chain."""
    return _write_chain_inputs(tmp_path)


def _chain(w: Path) -> list[tuple[str, tuple]]:
    return [
        ("design", ("design", w / "complete.json", "--out", w / "complete")),
        ("design", ("design", w / "paired.json", "--out", w / "paired")),
        ("bound", ("bound", "--d", w / "complete" / "d.csv", "--mask", w / "complete" / "mask.csv",
                   "--method", "as", "--out", w / "bound")),
        ("compare", ("compare", "--a", w / "complete" / "d.csv", "--b", w / "paired" / "d.csv",
                     "--as", "designs", "--out", w / "compare.json")),
        ("estimate", ("estimate", "--design", w / "complete.json", "--data", w / "obs.csv",
                      "--estimator", "cm", "--contrast=-1,1", "--bound", "as",
                      "--out", w / "estimate.json")),
        ("simulate", ("simulate", w / "scenario.json", "--out", w / "sim")),
    ]


class TestPublicNames:
    def test_each_name_is_its_submodule_object(self):
        assert len(dv.__all__) == len(set(dv.__all__))
        for name in dv.__all__:
            value = getattr(dv, name)
            assert getattr(sys.modules[value.__module__], name) is value, name
            assert value.__module__.startswith("designvar."), name
            assert name in dir(dv)

    def test_from_import_and_submodule_attributes(self):
        from designvar import ValidationError, build_design

        assert build_design is dv.designs.build_design
        assert ValidationError is dv.errors.ValidationError
        assert dv.serialization is sys.modules["designvar.serialization"]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
            dv.not_a_name  # noqa: B018

    def test_import_loads_no_submodule(self):
        code = "import sys, designvar; print(sorted(m for m in sys.modules if 'designvar' in m))"
        proc = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                              text=True, timeout=120, check=True)
        assert proc.stdout.split() == ["['designvar']"]


class TestWhatEachCommandLoads:
    @pytest.fixture(scope="class")
    def probes(self, tmp_path_factory):
        """(command, modules loaded) for each command of the chain, one process each."""
        w = _write_chain_inputs(tmp_path_factory.mktemp("chain"))
        probes = []
        for command, argv in _chain(w):
            probe = _probe(*argv)
            assert probe["code"] == 0, command
            probes.append((command, probe))
        return probes

    def test_no_command_loads_numpy_ma(self, probes):
        # numpy >= 2.3 imports numpy.ma from an index-free np.unique
        loads = [c for c, p in probes if "numpy.ma" in p["modules"] and not p["bare_numpy_ma"]]
        assert loads == []

    def test_design_loads_only_its_modules(self, probes):
        for command, probe in probes:
            if command == "design":
                ours = {m for m in probe["modules"] if m.split(".")[0] == "designvar"}
                assert ours == {"designvar", "designvar.cli", "designvar.designs",
                                "designvar.errors", "designvar.serialization"}


class TestRunExitPath:
    """``python -m designvar.cli`` exits through ``cli.run``: the standard
    streams are flushed before ``os._exit``."""

    def test_success_prints_whole_json(self, chain_inputs):
        w = chain_inputs
        proc = _cli("estimate", "--design", w / "complete.json", "--data", w / "obs.csv",
                    "--estimator", "cm", "--contrast=-1,1", "--out", w / "estimate.json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == json.loads((w / "estimate.json").read_text())

    def test_closed_stdout_exits_as_python_does(self, chain_inputs):
        # no reader on stdout: the flush fails and the usual exit reports it, without a traceback
        w = chain_inputs
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "designvar.cli", "estimate", "--design",
                 str(w / "complete.json"), "--data", str(w / "obs.csv"), "--estimator", "cm",
                 "--contrast=-1,1", "--out", str(w / "estimate.json")],
                env=_env(), stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 120
        assert "Traceback" not in proc.stderr and "BrokenPipeError" in proc.stderr
        assert (w / "estimate.json").is_file()

    def test_validation_error_exits_2(self, chain_inputs):
        (chain_inputs / "bad.json").write_text('{"type": "complete", "counts": "ab"}')
        proc = _cli("design", chain_inputs / "bad.json", "--out", chain_inputs / "bad")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.endswith("\n")
        assert proc.stdout == ""

    def test_oversized_sweep_exits_3(self, tmp_path):
        (tmp_path / "big.json").write_text(json.dumps({"sweep": {
            "estimator": {"kind": "cm", "contrast": [-1, 1]},
            "base_y": [list(range(20)), list(range(1, 21))], "n_list": [40]}}))
        proc = _cli("simulate", tmp_path / "big.json", "--out", tmp_path / "big")
        assert proc.returncode == 3
        assert proc.stderr.startswith("numerical failure: ") and "entry budget" in proc.stderr

    @pytest.mark.parametrize("n, code, lines", [
        (3, 0, ["warning: 2 support points were estimation-infeasible and excluded from "
                "conditional metrics"]),
        # every point warns before the run fails: only the failure is printed
        (1, 3, ["numerical failure: estimation failed on every draw"]),
    ], ids=["warning", "failure"])
    def test_stderr_holds_warning_lines_or_one_error(self, tmp_path, n, code, lines):
        (tmp_path / "s.json").write_text(json.dumps({
            "design": {"type": "bernoulli", "n": n, "p": 0.5},
            "y": list(range(n)) + list(range(1, n + 1)),
            "estimator": {"kind": "hj", "contrast": [-1, 1]}, "mode": "exact"}))
        proc = _cli("simulate", tmp_path / "s.json", "--out", tmp_path / "sim")
        assert (proc.returncode, proc.stderr.splitlines()) == (code, lines)
