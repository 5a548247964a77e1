"""What ``pyproject.toml`` claims holds: every Python file of the project
parses at the ``requires-python`` floor, and ``delzant.__version__``, which
``delzant --version`` prints, is ``[project].version``.  ``tomllib`` reads the file; without it (Python
3.10) these tests skip."""

import ast
import io
import pathlib
import re

import pytest

import delzant
from delzant.cli import run

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def test_every_file_parses_at_the_requires_python_floor():
    floor = re.fullmatch(r">=(\d+)\.(\d+)", PROJECT["requires-python"])
    assert floor is not None
    version = (int(floor[1]), int(floor[2]))
    paths = sorted(path for folder in ("src", "demos", "perfbench", "tests")
                   for path in (ROOT / folder).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


def test_version_is_the_project_version():
    assert delzant.__version__ == PROJECT["version"]


def test_cli_prints_the_project_version():
    out, err = io.StringIO(), io.StringIO()
    assert run(["--version"], stdout=out, stderr=err) == 0
    assert (out.getvalue(), err.getvalue()) == (f"delzant {PROJECT['version']}\n", "")
