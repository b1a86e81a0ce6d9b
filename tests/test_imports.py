"""A ``plural`` process loads what its call needs: ``import plural`` loads no
module, ``plural.cli`` only what dispatch needs, and each subcommand its own.
Each case runs in a fresh interpreter, whose ``sys.modules`` no other test
has filled."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plural

SRC = str(Path(plural.__file__).resolve().parents[1])


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60,
                          check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_no_simulator_and_no_dataclasses():
    loaded = loaded_after("import plural, plural.cli")
    assert loaded & {"dataclasses", "plural.sim", "plural.graphio", "plural.et2"} == set()


def test_import_plural_loads_none_of_its_modules():
    assert {name for name in loaded_after("import plural") if name.startswith("plural.")} == set()


def test_a_sweep_loads_no_simulator():
    loaded = loaded_after("import io, contextlib, plural.cli\n"
                          "with contextlib.redirect_stdout(io.StringIO()):\n"
                          "    assert plural.cli.main(['sweep']) == 0")
    assert loaded & {"plural.sim", "plural.graphio", "plural.et2", "dataclasses"} == set()
    assert {"plural.scaling", "plural.comm"} <= loaded


def test_every_exported_name_resolves():
    code = ("import plural\n"
            "namespace = {}\n"
            "exec('from plural import *', namespace)\n"
            "assert sorted(set(namespace) - {'__builtins__'}) == sorted(plural.__all__)\n"
            "assert all(getattr(plural, name) is namespace[name] for name in plural.__all__)\n"
            "assert set(plural.__all__) <= set(dir(plural))")
    assert "plural.sim" in loaded_after(code)


def test_the_modules_import_plural_used_to_load_still_resolve():
    code = ("import plural\n"
            "assert plural.sim.run is plural.run and plural.scaling.ChipSpec is plural.ChipSpec\n"
            "assert all(getattr(plural, name).__name__ == 'plural.' + name\n"
            "           for name in ('scaling', 'et2', 'comm', 'graph', 'sim', 'errors'))")
    assert "plural.et2" in loaded_after(code)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'plural' has no attribute 'no_such_name'$"):
        plural.no_such_name
