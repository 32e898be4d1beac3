"""The package namespace: lazy public names and submodules."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spacsim

_BARE_IMPORT = """
import json, os, sys
import spacsim
report = {"numpy": "numpy" in sys.modules, "env": os.environ.get("OPENBLAS_NUM_THREADS")}
report["fock"] = spacsim.fock is sys.modules.get("spacsim.fock")
print(json.dumps(report))
"""


def test_a_bare_import_loads_no_numpy_and_sets_nothing():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(spacsim.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _BARE_IMPORT], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"numpy": False, "env": None, "fock": True}


_IO_IMPORT = """
import json, sys
import spacsim.io
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "spacsim")))
"""


def test_the_csv_layer_loads_only_the_formatter_and_the_size_rules():
    env = dict(os.environ, PYTHONPATH=str(Path(spacsim.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", _IO_IMPORT], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["spacsim", "spacsim._shortest", "spacsim.errors", "spacsim.io", "spacsim.params"]
    assert spacsim.grid_values is spacsim.params.grid_values is spacsim.sweeps.grid_values


def test_every_public_name_is_the_object_of_its_home_module():
    for name in spacsim.__all__:
        home = importlib.import_module(f"spacsim.{spacsim._HOMES[name]}")
        assert getattr(spacsim, name) is getattr(home, name), name
    assert set(spacsim.__all__) | set(spacsim._HOMES.values()) <= set(dir(spacsim))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        spacsim.no_such_name
