"""The package namespace: every public name is loaded from its submodule on
first use, and reads as the submodule's own object."""

import importlib
import os
import subprocess
import sys

import pytest

import pgindex

from conftest import SRC

SUBMODULES = ("algebra", "average", "critical", "errors", "gamefile", "games", "indices")


def _child(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout


def test_all_names_the_public_interface():
    assert len(pgindex.__all__) == 67
    assert pgindex.__all__ == sorted(set(pgindex.__all__))
    assert not any(name.startswith("_") for name in pgindex.__all__)


@pytest.mark.parametrize("name", pgindex.__all__)
def test_name_is_its_submodules_object(name):
    value = getattr(pgindex, name)
    homes = [
        m for m in SUBMODULES
        if vars(importlib.import_module(f"pgindex.{m}")).get(name, None) is value
    ]
    assert homes, f"{name} is no submodule's object"
    defined = getattr(value, "__module__", None)
    if callable(value) and defined:  # a class or function: the module that defines it
        assert defined in {f"pgindex.{m}" for m in homes}


def test_dir_lists_every_public_name():
    assert set(pgindex.__all__) <= set(dir(pgindex))
    assert "__version__" in dir(pgindex)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'pgindex' has no attribute 'no_such_name'$"):
        pgindex.no_such_name
    assert not hasattr(pgindex, "cli_main")
    assert getattr(pgindex, "no_such_name", 5) == 5
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        exec("from pgindex import no_such_name", {})


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from pgindex import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == pgindex.__all__
    assert all(namespace[name] is getattr(pgindex, name) for name in namespace)


def test_import_loads_no_submodule():
    # each name, and each submodule as an attribute, is loaded on first use
    out = _child(
        "import sys\n"
        "import pgindex\n"
        "print(sorted(m for m in sys.modules if m.startswith('pgindex')))\n"
        "print(pgindex.games.__name__, pgindex.TUGame.__module__)\n"
        "print(sorted(m for m in sys.modules if m.startswith('pgindex')))\n"
        "from pgindex import *\n"
        "print(sorted(m for m in sys.modules if m.startswith('pgindex')))\n"
    )
    assert out.splitlines() == [
        "['pgindex']",
        "pgindex.games pgindex.games",
        str(["pgindex", "pgindex.errors", "pgindex.games"]),
        str(["pgindex", *(f"pgindex.{m}" for m in SUBMODULES)]),
    ]
