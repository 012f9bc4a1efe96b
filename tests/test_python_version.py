"""The sources must parse under the oldest Python that pyproject.toml
declares in `requires-python`, and a few commands must print there what
they print under the running interpreter.  The commands run only where
`python3.10` (the declared minimum) is on PATH and reports that version,
directly or, on a pyenv host, with an installed 3.10 selected; elsewhere
that test is skipped."""

import ast
import os
import pathlib
import random
import re
import shutil
import subprocess
import sys

import pytest

from test_bench_smoke import load_workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "macgap").glob("*.py"))


def declared_minimum() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text)
    assert match, "pyproject.toml declares no requires-python lower bound"
    return int(match.group(1)), int(match.group(2))


def test_minimum_is_declared():
    assert declared_minimum() == (3, 10)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_at_declared_minimum(path):
    ast.parse(
        path.read_text(encoding="utf-8"),
        filename=str(path),
        feature_version=declared_minimum(),
    )


def _reports(exe, env, version) -> bool:
    try:
        run = subprocess.run([exe, "-c", "import sys; print(tuple(sys.version_info[:2]))"],
                             capture_output=True, text=True, timeout=60, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return False
    return run.returncode == 0 and run.stdout.strip() == str(version)


def minimum_interpreter():
    """(the `pythonX.Y` of the declared minimum on PATH, the variables to
    add to the environment it runs in) if it runs and reports that version,
    else None.  On a pyenv host `pythonX.Y` is a shim that exits non-zero
    while no installed X.Y is selected; `pyenv whence` names the installed
    ones, and the shim runs one with PYENV_VERSION set to it."""
    version = declared_minimum()
    name = "python%d.%d" % version
    exe = shutil.which(name)
    if exe is None:
        return None
    if _reports(exe, os.environ, version):
        return exe, {}
    pyenv = shutil.which("pyenv")
    if pyenv is None:
        return None
    try:
        whence = subprocess.run([pyenv, "whence", name], capture_output=True, text=True,
                                timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    for installed in whence.stdout.split() if whence.returncode == 0 else []:
        extra = {"PYENV_VERSION": installed}
        if _reports(exe, {**os.environ, **extra}, version):
            return exe, extra
    return None


def cli_run(exe, argv, extra=None):
    env = {**os.environ, **(extra or {}), "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([exe, "-m", "macgap", *argv], capture_output=True, text=True,
                         env=env, timeout=300)
    return run.returncode, run.stdout


def test_commands_print_the_same_at_declared_minimum(tmp_path, monkeypatch):
    found = minimum_interpreter()
    if found is None:
        pytest.skip("no python%d.%d on PATH" % declared_minimum())
    exe, extra = found
    sharp, refused = tmp_path / "sharp.map", tmp_path / "refused.map"
    assert cli_run(sys.executable, ["map", "gen-sharpness", "2", "7", "-o", str(sharp)])[0] == 0
    workloads = load_workloads(monkeypatch)
    refused.write_text(workloads.gen_map(random.Random(5), 2, 6, True, True).text())
    commands = [
        ["verify", "lemma3", "--json"],
        ["verify", "green", "--json", "--subspaces", "2", "--trials", "2"],
        ["macaulay", "1000000", "2"],
        ["gap", "13", "42"],
    ] + [[*action, str(path)] for path in (sharp, refused)
         for action in (["map", "span"], ["map", "check-orth", "--json"])]
    for argv in commands:
        assert cli_run(exe, argv, extra) == cli_run(sys.executable, argv), argv
