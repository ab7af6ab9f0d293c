"""``import bredon`` loads no submodule, and each command loads only what it uses."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bredon

ENV = {**os.environ, "PYTHONPATH": str(Path(bredon.__file__).parents[1])}


def _fresh(probe: str, *argv: str) -> list[str]:
    """The words ``probe`` prints in a fresh interpreter, run with ``-S``: without
    ``site``, whose ``.pth`` hooks may import ``typing`` or ``json`` themselves."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe, *argv], capture_output=True, text=True, env=ENV, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout.split()


def test_import_bredon_loads_no_submodule():
    assert _fresh("import sys, bredon\nprint(*[m for m in sys.modules if m.startswith('bredon.')])") == []


@pytest.mark.parametrize(
    "argv, code, unused",
    [
        (["compute", "--all", "--format", "json"], "0", {"fractions", "typing"}),
        (["verify"], "1", {"fractions", "json", "typing"}),  # 1: the known cm basis mismatch
    ],
)
def test_command_loads_only_what_it_uses(argv, code, unused):
    probe = (
        "import contextlib, io, sys\n"
        "from bredon.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, *[m for m in ('fractions', 'json', 'typing') if m in sys.modules])\n"
    )
    got = _fresh(probe, *argv)
    assert got[0] == code
    assert not set(got[1:]) & unused, got


def test_exports_are_the_defining_modules_objects():
    for name in bredon.__all__:
        obj = getattr(bredon, name)
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("bredon.") and getattr(module, name) is obj, name


def test_dir_and_star_import_list_every_export():
    assert set(bredon.__all__) <= set(dir(bredon))
    namespace: dict = {}
    exec("from bredon import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(bredon.__all__)


@pytest.mark.parametrize("name", ["kernel_basis", "Irreducible", "json"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(bredon, name)


def test_input_checks_and_parser_are_built_on_first_use():
    probe = (
        "from bredon import cli, schemas\n"
        "print(len(schemas._ACCEPT), cli.build_parser.cache_info().currsize)\n"
        "schemas.check([[1]], 'matrix')\n"
        "cli.build_parser()\n"
        "print(*schemas._ACCEPT, cli.build_parser.cache_info().currsize)\n"
    )
    assert _fresh(probe) == ["0", "0", "matrix", "1"]
