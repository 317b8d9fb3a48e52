"""The package loads on use: every exported name resolves to the object in
its defining module, and a command runs only the modules it needs.

Which module files run is read in a fresh interpreter from the ``exec``
audit event, which the import system raises for each module body it runs.
No command loads the standard library's slow-to-import modules.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellimatch

PACKAGE_DIR = Path(ellimatch.__file__).parent

# Modules that only some commands use; each is run by the commands that
# use it and by no other.
ON_USE = {"descent.py", "svgfig.py", "verify.py"}

_PROBE = """
import os, sys
ran = set()
sys.addaudithook(
    lambda event, args: event == "exec" and ran.add(getattr(args[0], "co_filename", ""))
)
import ellimatch.cli
code = ellimatch.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
package = os.path.dirname(ellimatch.__file__)
print(code, *sorted(os.path.basename(f) for f in ran if os.path.dirname(f) == package))
"""


def modules_run(*argv: str) -> tuple[int, set[str]]:
    """(exit code, package module files run) for ``ellimatch argv`` in a
    fresh interpreter; plain ``import ellimatch.cli`` with no argv."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-B", "-c", _PROBE, *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split("\n")[-2]
    code, *files = out.split()
    return int(code), set(files)


def test_every_export_resolves_to_its_definition():
    homes = [n for names in ellimatch._MODULE_EXPORTS.values() for n in names]
    assert len(homes) == len(set(homes)) == len(ellimatch.__all__) == 49
    for name in ellimatch.__all__:
        module = importlib.import_module(f"ellimatch.{ellimatch._HOME[name]}")
        obj = getattr(ellimatch, name)
        assert obj is getattr(module, name), name
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == module.__name__, name


def test_dir_lists_every_export():
    assert set(ellimatch.__all__) <= set(dir(ellimatch))
    assert "__version__" in dir(ellimatch)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ellimatch.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from ellimatch import no_such_name  # noqa: F401
    from ellimatch import cli

    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name  # noqa: B018


def test_cli_keeps_its_names_for_modules_run_on_use():
    from ellimatch import cli, descent, svgfig, verify

    assert cli.descend is descent.descend
    assert cli.render_svg is svgfig.render_svg
    assert cli.check_suri is verify.check_suri
    assert cli.CHECK_NAMES == ("fingerhut", "theorem", "helly", "suri", "disks")


def test_cli_answers_for_the_exports_of_those_modules_alone():
    # The package's export table decides: every export of descent, svgfig
    # and verify resolves, and neither another module's export nor a dunder.
    from ellimatch import cli, descent

    assert cli.build_graph is descent.build_graph
    for name in ("h_ratio", "__path__"):
        with pytest.raises(AttributeError, match=f"'ellimatch.cli' has no attribute '{name}'"):
            getattr(cli, name)


def test_importing_the_cli_runs_no_module_it_defers():
    code, ran = modules_run()
    assert code == 0
    assert {"__init__.py", "cli.py", "witness.py"} <= ran
    assert not ran & ON_USE


@pytest.mark.parametrize(
    "command, own",
    [
        (["gen", "--n", "4", "--out", "{dir}/g.csv"], set()),
        (["solve", "--points", "{pts}", "--local-search"], set()),
        (["witness", "--points", "{pts}"], set()),
        (["verify", "--points", "{pts}"], {"verify.py"}),
        (["descend", "--points", "{pts}", "--init-seed", "0"], {"descent.py"}),
        (["render", "--points", "{pts}", "--out", "{dir}/f.svg"], {"svgfig.py"}),
        (["suite", "--count", "1", "--sizes", "4"], {"verify.py"}),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_each_command_runs_only_its_own_modules(tmp_path, command, own):
    pts = tmp_path / "p.csv"
    pts.write_text("0,0\n1,0\n1,1\n0,1\n")
    argv = [a.format(pts=pts, dir=tmp_path) for a in command]
    argv += ["--out", str(tmp_path / "out.json")] if "--out" not in argv else []
    code, ran = modules_run(*argv)
    assert code == 0
    assert ran & ON_USE == own


def test_a_module_run_on_use_is_the_one_imported():
    from ellimatch import cli

    import ellimatch.descent

    assert cli.descent is ellimatch.descent is sys.modules["ellimatch.descent"]


# Standard-library modules that cost milliseconds to import and that the
# package needs only in annotations, if at all.
SLOW_STDLIB = {"dataclasses", "inspect", "typing", "pathlib"}

_NEW_MODULES_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import ellimatch.cli
code = ellimatch.cli.main(sys.argv[2:]) if len(sys.argv) > 2 else 0
print(code, *sorted(set(sys.modules) - before))
"""


@pytest.mark.parametrize(
    "command",
    [
        [],
        ["witness", "--points", "{pts}"],
        ["verify", "--points", "{pts}"],
        ["descend", "--points", "{pts}", "--init-seed", "1"],
        ["render", "--points", "{pts}", "--out", "{dir}/f.svg"],
    ],
    ids=lambda v: v[0] if v else "import",
)
def test_no_command_loads_a_slow_stdlib_module(tmp_path, command):
    # -I -S: no site hook or environment loads anything before the diff.
    # -B: -I ignores PYTHONDONTWRITEBYTECODE, and no run writes bytecode
    # into the tree.
    pts = tmp_path / "p.csv"
    pts.write_text("0,0\n1,0\n2,1\n1,2\n0,2\n-1,1\n")
    argv = [a.format(pts=pts, dir=tmp_path) for a in command]
    argv += ["--out", str(tmp_path / "out.json")] if argv and "--out" not in argv else []
    out = subprocess.run(
        [sys.executable, "-B", "-I", "-S", "-c", _NEW_MODULES_PROBE, str(PACKAGE_DIR.parent), *argv],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert out[0] == "0"
    assert "ellimatch.cli" in out
    assert not SLOW_STDLIB & set(out)


# Modules that a command on a CSV file does not load: the command line is
# parsed from the command table, and json is imported only to read a JSON
# file (json would bring re and enum).
NOT_AT_START = ("argparse", "json", "re", "enum", "gettext")

_LOADED_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import ellimatch.cli
code = ellimatch.cli.main(sys.argv[3:])
print(code, *[m for m in sys.argv[2].split(",") if m in sys.modules])
"""


@pytest.mark.parametrize("suffix, loaded", [(".csv", []), (".json", ["json", "re", "enum"])])
def test_witness_starts_without_argparse_or_json(tmp_path, suffix, loaded):
    pts = tmp_path / f"p{suffix}"
    if suffix == ".json":
        pts.write_text('{"points": [[0, 0], [1, 0], [2, 1], [1, 2], [0, 2], [-1, 1]]}')
    else:
        pts.write_text("0,0\n1,0\n2,1\n1,2\n0,2\n-1,1\n")
    argv = ["witness", "--points", str(pts), "--out", str(tmp_path / "w.json")]
    out = subprocess.run(
        [sys.executable, "-B", "-I", "-S", "-c", _LOADED_PROBE, str(PACKAGE_DIR.parent),
         ",".join(NOT_AT_START), *argv],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert out == ["0", *loaded]


def _is_type_checking_block(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Name)
        and node.test.id == "TYPE_CHECKING"
    )


def runtime_imports(node: ast.AST) -> list[str]:
    """Modules imported anywhere in node but in the body of an ``if
    TYPE_CHECKING:`` block, which runs only under a type checker; a relative
    import is named with its leading dots, ``from . import m`` as ``.m``."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        base = "." * node.level + (node.module or "")
        return [base] if node.module else [base + a.name for a in node.names]
    children = node.orelse if _is_type_checking_block(node) else ast.iter_child_nodes(node)
    return [m for child in children for m in runtime_imports(child)]


def slow_imports(node: ast.AST) -> list[str]:
    """Modules of SLOW_STDLIB that node imports at run time."""
    return [m for m in runtime_imports(node) if m.split(".")[0] in SLOW_STDLIB]


def test_slow_stdlib_modules_are_imported_for_type_checkers_only():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert slow_imports(tree) == [], path.name
    guarded = ast.parse("TYPE_CHECKING = False\nif TYPE_CHECKING:\n    from typing import Any\n")
    assert slow_imports(guarded) == []
    for source in (
        "import typing",
        "from dataclasses import dataclass",
        "def f():\n    import inspect",
        "if TYPE_CHECKING:\n    pass\nelse:\n    import pathlib",
        "if TYPE_CHECKING or True:\n    from typing import Any",
    ):
        assert slow_imports(ast.parse(source)), source


def json_decodes(tree: ast.AST) -> list[int]:
    """Lines of tree that name ``json.load`` or ``json.loads``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in ("load", "loads")
        and isinstance(node.value, ast.Name)
        and node.value.id == "json"
    ]


def test_instances_alone_reads_input_files():
    # report only writes and cli only dispatches; report needs the matching
    # module's records for annotations alone
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    assert ".matching" not in runtime_imports(trees["report.py"])
    assert "json" not in runtime_imports(trees["cli.py"])
    decodes = {name: lines for name, tree in trees.items() if (lines := json_decodes(tree))}
    assert list(decodes) == ["instances.py"] and len(decodes["instances.py"]) == 1
    guarded = "TYPE_CHECKING = False\nif TYPE_CHECKING:\n    from .matching import Matching\n"
    assert runtime_imports(ast.parse(guarded)) == []
    assert runtime_imports(ast.parse("def f():\n    from . import json, matching")) == [
        ".json",
        ".matching",
    ]
    assert json_decodes(ast.parse("import json\njson.load(f)\njson.loads(s)")) == [2, 3]
