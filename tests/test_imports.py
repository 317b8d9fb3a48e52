"""The package loads on use: every exported name resolves to the object in
its defining module, and a command runs only the modules it needs.

Which module files run is read in a fresh interpreter from the ``exec``
audit event, which the import system raises for each module body it runs.
"""

from __future__ import annotations

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
        [sys.executable, "-c", _PROBE, *argv],
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
