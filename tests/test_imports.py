"""A ``plural`` process loads what its call needs: ``import plural`` loads no
module, ``plural.cli`` only what dispatch needs (argparse only for help and
usage errors), and each subcommand its own.
Each case runs in a fresh interpreter, whose ``sys.modules`` no other test
has filled."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plural

SRC = str(Path(plural.__file__).resolve().parents[1])
# Four instances that all write "o": four CREW violations to warn of.
GRAPH = '{"tasks": [{"id": "w", "kind": "duplicable", "d": 4, "instructions": 20, "writes": ["o"]}]}'


def loaded_after(code: str, *flags: str) -> set[str]:
    """The modules a fresh interpreter, started with ``flags``, holds after running ``code``."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def after_main(*argvs: list[str]) -> str:
    """Code that runs ``main`` on each argv, its output discarded, each call to exit 0."""
    calls = "".join(f"    assert plural.cli.main({argv!r}) == 0\n" for argv in argvs)
    return ("import io, contextlib, plural.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n" + calls)


def test_importing_the_cli_loads_no_simulator_and_no_dataclasses():
    loaded = loaded_after("import plural, plural.cli")
    assert loaded & {"dataclasses", "__future__", "plural.graph", "plural.sim", "plural.graphio", "plural.et2"} == set()


def test_import_plural_loads_none_of_its_modules():
    assert {name for name in loaded_after("import plural") if name.startswith("plural.")} == set()


def test_importing_the_cli_loads_only_functools_of_the_standard_library():
    # Without site (-S), no startup hook has loaded a module before: the
    # CLI adds to what functools loads only its own package's three modules.
    added = loaded_after("import plural, plural.cli", "-S") - loaded_after("import functools", "-S")
    assert added == {"plural", "plural.errors", "plural.cli"}


def test_exact_argv_load_no_argparse(tmp_path):
    # Only help and usage errors need argparse, and with it gettext and
    # shutil (for the terminal width).
    graph = tmp_path / "graph.json"
    graph.write_text(GRAPH)
    for code in ("import plural.cli", after_main(["sweep"]), after_main(["simulate", str(graph), "--m", "4"])):
        assert loaded_after(code, "-S") & {"argparse", "gettext", "shutil"} == set()


def test_help_loads_argparse():
    code = ("import contextlib, io, plural.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    try:\n"
            "        plural.cli.main(['-h'])\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0 and out.getvalue().startswith('usage: plural '), out.getvalue()\n"
            "    else:\n"
            "        raise AssertionError('help did not exit')")
    assert "argparse" in loaded_after(code, "-S")


def test_a_sweep_loads_no_simulator():
    loaded = loaded_after(after_main(["sweep"]))
    assert loaded & {"plural.sim", "plural.graphio", "plural.et2", "dataclasses"} == set()
    assert {"plural.scaling", "plural.comm"} <= loaded


def test_only_simulate_and_validate_load_task_graph_code(tmp_path):
    et2 = ["et2", "--e", "8", "--t", "2", "iso-time:0.5"]
    assert "plural.graph" not in loaded_after(after_main(["sweep"], ["comm-sweep"], et2))
    graph = tmp_path / "graph.json"
    graph.write_text(GRAPH)
    for command in ("simulate", "validate"):
        assert "plural.graph" in loaded_after(after_main([command, str(graph)]))


def test_the_cli_check_crew_is_the_graph_one():
    code = ("import sys, plural.cli\n"
            "assert 'plural.graph' not in sys.modules and 'check_crew' not in vars(plural.cli)\n"
            "import plural.graph\n"
            "assert plural.cli.check_crew is plural.graph.check_crew\n"
            "assert vars(plural.cli)['check_crew'] is plural.graph.check_crew  # bound on first read")
    assert "plural.graph" in loaded_after(code)


@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_a_replaced_check_crew_is_the_one_called(monkeypatch, tmp_path, command):
    # A tracer replaces plural.cli.check_crew for a traced op: each call
    # looks the name up in the module, so the replacement runs.
    from plural import cli

    calls = []

    def spy(g):
        calls.append(g)
        return []

    monkeypatch.setattr(cli, "check_crew", spy)
    path = tmp_path / "graph.json"
    path.write_text(GRAPH)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        assert cli.main([command, str(path)]) == 0
    assert len(calls) == 1 and len(calls[0]) == 1
    assert err.getvalue() == ""  # the real check would warn of the writers of "o"


def test_the_graph_file_format_loads_no_pathlib(tmp_path):
    assert "pathlib" not in loaded_after("import plural.graphio", "-S")
    from plural.graphio import dump, load, loads

    g = loads('{"tasks": [{"id": "a", "kind": "singular", "instructions": 5}], "edges": []}')
    for path in (str(tmp_path / "as-str.json"), tmp_path / "as-path.json"):
        dump(g, path)
        assert load(path) == g
    with pytest.raises(TypeError):
        dump(g, 3)


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


def test_an_unknown_cli_name_raises_attribute_error():
    from plural import cli

    with pytest.raises(AttributeError, match="^module 'plural.cli' has no attribute 'no_such_name'$"):
        cli.no_such_name
