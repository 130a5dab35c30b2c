"""Source hygiene checks that need no linter: every name a module of
shalg imports is used in that module, and importing the command line
front end loads no module that only some commands need."""

import ast
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "shalg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name never read in the module."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_detects_unused_imports():
    source = ("import os\nimport os.path as osp\nimport json\n"
              "from fractions import Fraction as F\n"
              "from typing import Mapping\n"
              "def f(x: Mapping):\n    return json.dumps(x)\n")
    assert unused_imports(source) == [(1, "os"), (2, "osp"), (4, "F")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_cli_import_leaves_heavy_modules_unloaded():
    """Every command pays for what `import shalg.cli` loads.  dataclasses
    (which loads inspect) is not needed at all, and hashlib and tempfile
    only by commands that hash or write a file, which import them then."""
    heavy = ("dataclasses", "inspect", "hashlib", "tempfile")
    code = ("import sys\n"
            f"sys.path.insert(0, {str(SRC.parent)!r})\n"
            "import shalg.cli\n"
            "shalg.cli.build_parser().parse_args("
            "['operad', 'd2', 'ass-minimal', '--arity', '3'])\n"
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
