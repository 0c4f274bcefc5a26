"""Each CLI command loads only the package modules it runs; the package
itself loads ``core`` and resolves every other name on first access."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import overlapbound
from overlapbound import fit

# Runs one command through cli.main, then prints, as its last stdout line,
# the package modules the interpreter has loaded.
_CHILD = """
import json, sys
from overlapbound import cli
code = cli.main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("overlapbound"))))
sys.exit(code)
"""

# Per command, the modules that it must not load.
_UNLOADED = {
    "bound": {"classifier", "metrics", "oracle", "shift"},
    "fit": {"metrics", "oracle", "shift"},
    "score": {"metrics", "oracle", "shift"},
    "classify": {"metrics", "oracle", "shift"},
    "shift": {"classifier", "metrics", "oracle"},
    "eval": {"bound", "classifier", "oracle", "shift"},
    "oracle": {"classifier", "metrics", "shift"},
}


def _loaded(tmp_path, *args) -> tuple[int, set]:
    """A fresh interpreter's exit code and the package modules it loaded,
    with every warning an error."""
    env = dict(os.environ, PYTHONPATH=str(Path(overlapbound.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error", *args], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.stderr == ""
    return proc.returncode, set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.fixture
def command_files(tmp_path):
    (tmp_path / "samples.csv").write_text("x,y\n1,2\n3,4\n5,7\n")
    (tmp_path / "shifted.csv").write_text("2,2\n4,5\n6,9\n")
    (tmp_path / "scores.csv").write_text("score,label\n0.9,1\n0.2,0\n0.7,1\n0.4,0\n")
    for name, points in (("p.json", [[0.0, 1.0], [2.0, 0.0]]), ("q.json", [[2.0, 0.0], [1.0, 1.0]])):
        (tmp_path / name).write_text(json.dumps({"dimension": 2, "points": points,
                                                 "masses": [0.5, 0.5]}))
    fit([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]], k=4).save(tmp_path / "model.json")
    return {
        "bound": ["bound", "samples.csv", "shifted.csv", "--k", "4"],
        "fit": ["fit", "samples.csv", "--k", "4", "--out", "fitted.json"],
        "score": ["score", "model.json", "shifted.csv", "--iterative", "--fit-data", "samples.csv",
                  "--scores-out", "scores-out.csv", "--out", "summary.json"],
        "classify": ["classify", "model.json", "shifted.csv", "--threshold", "0.5",
                     "--scores-out", "verdicts.csv", "--out", "summary.json"],
        "shift": ["shift", "--clean", "samples.csv", "--poisoned", "shifted.csv", "--p", "0.9",
                  "--k", "4", "--simulate", "20"],
        "eval": ["eval", "scores.csv"],
        "oracle": ["oracle", "p.json", "q.json", "--k", "4"],
    }


@pytest.mark.parametrize("command", sorted(_UNLOADED))
def test_a_command_loads_only_the_modules_it_runs(tmp_path, command_files, command):
    code, loaded = _loaded(tmp_path, "-c", _CHILD, *command_files[command])
    assert code == 0
    assert {"overlapbound.core", "overlapbound.dataio", "overlapbound.cli"} <= loaded
    assert not loaded & {f"overlapbound.{m}" for m in _UNLOADED[command]}


def test_importing_the_package_loads_only_core(tmp_path):
    child = "import json, sys, overlapbound\nprint(json.dumps(list(sys.modules)))"
    code, loaded = _loaded(tmp_path, "-c", child)
    assert code == 0
    assert {m for m in loaded if m.startswith("overlapbound")} == {"overlapbound", "overlapbound.core"}


def test_a_star_import_binds_every_public_name():
    namespace = {}
    exec("from overlapbound import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == overlapbound.__all__ and len(namespace) == 35
    for name, value in namespace.items():
        assert value is getattr(overlapbound, name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'not_a_name'"):
        overlapbound.not_a_name  # noqa: B018
    assert set(overlapbound.__all__) <= set(dir(overlapbound))
