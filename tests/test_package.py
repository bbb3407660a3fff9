import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import malcev

SRC = str(Path(malcev.__file__).resolve().parents[1])


def fresh(code):
    """The JSON that code prints as its last line, run in a fresh
    interpreter with only src on the path."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_every_export_resolves():
    # tools that walk __all__ (tracers, docs) break on a stale entry
    exported = set()
    for info in pkgutil.iter_modules(malcev.__path__):
        module = importlib.import_module(f"malcev.{info.name}")
        for name in module.__all__:
            assert hasattr(module, name), f"malcev.{info.name}.{name}"
        exported.update(module.__all__)
    listed = dir(malcev)
    for name, where in malcev._EXPORTS.items():
        module = importlib.import_module(f"malcev.{where}")
        assert name in module.__all__, f"malcev.{where}.{name}"
        assert getattr(malcev, name) is getattr(module, name), name
        assert name in listed, name
    public = {
        name
        for name in listed
        if not name.startswith("_") and not inspect.ismodule(getattr(malcev, name))
    }
    assert public == set(malcev._EXPORTS)
    assert public <= exported, sorted(public - exported)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        malcev.no_such_name
    assert not hasattr(malcev, "cmd_nf")


def test_moved_names_are_one_object_everywhere():
    from malcev import cli, congruence, group_derivation, ideals, presentation

    assert congruence.CapExceeded is presentation.CapExceeded is malcev.CapExceeded
    assert ideals.DEFAULT_SEED is presentation.DEFAULT_SEED
    assert cli.InvariantViolation is presentation.InvariantViolation
    for error, base in (
        (ideals.AlignmentViolation, RuntimeError),
        (group_derivation.OccurrenceMismatch, ValueError),
    ):
        assert issubclass(error, presentation.InvariantViolation)
        assert issubclass(error, base)


LOADED = """
import json, sys
before = set(sys.modules)
{code}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_package_import_loads_no_module():
    loaded = fresh(LOADED.format(code="import malcev"))
    assert [name for name in loaded if name.startswith("malcev")] == ["malcev"]


def test_submodules_import_from_the_package():
    code = "from malcev import cayley, presentation\nassert cayley.build_ball"
    loaded = fresh(LOADED.format(code=code))
    assert {"malcev.cayley", "malcev.presentation"} <= set(loaded)


def test_cli_import_loads_only_the_presentation():
    # no other module of the package, and no dataclasses, whose import
    # pulls in inspect, ast, dis and tokenize
    loaded = set(fresh(LOADED.format(code="import malcev.cli")))
    ours = {name for name in loaded if name.split(".")[0] == "malcev"}
    assert ours == {"malcev", "malcev.cli", "malcev.presentation"}
    assert not loaded & {"dataclasses", "inspect"}


def test_queries_load_no_cayley_ideals_or_derivation():
    code = """
from malcev.cli import run
for argv in (
    ["nf", "-n", "2", "-w", "a b a C2 d b c A1 B1 D1"],
    ["eq", "-n", "1", "-w", "d a", "-w", "A1 C1"],
    ["divides", "-n", "1", "-p", "d", "-q", "A1 C1 b"],
    ["gen", "-n", "2"],
):
    assert run(argv) == 0, argv
"""
    loaded = set(fresh(LOADED.format(code=code)))
    assert "malcev.rewriting" in loaded
    for name in ("cayley", "ideals", "group_derivation"):
        assert f"malcev.{name}" not in loaded
