"""Source hygiene checks that need no linter: every name a module of shalg
or of its tests imports is used in that module, no module imports
another's underscore names, no function works on dense matrices except
the dense adapters, importing the command line front end loads no module
that only some commands need, operad commands load only the operad
layer, no command that hashes its input files loads OpenSSL, a plain
command line loads no argparse, no command loads fractions, json or
typing, no module of shalg imports json or typing when imported, only
exactlin names tensor_maps_many, only operadcore names the builders of
the bundled models, no module of shalg has an assert statement, no
command function of the front end has a try statement, and every
public function or class of shalg is run by shalg or the
benchmark, or is listed as library API."""

import ast
import pathlib
import subprocess
import sys

import pytest

from shalg import serialize
from shalg.ainfty import AInfinityAlgebra
from shalg.exactlin import Rational
from shalg.transfer import sdr_onto_homology
from test_transfer import exterior_dga

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "shalg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list:
    """(line, name) of each underscore name imported from another module
    of the package, `from .module import _name`: every module keeps its
    conventions behind its public functions."""
    return [(node.lineno, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")]


def test_detects_private_imports():
    source = ("from __future__ import annotations\n"
              "from fractions import _gcd\n"
              "from .exactlin import GradedMap, _frac\n"
              "from .operadcore import (\n    _suspended,\n"
              "    partition_sum,\n)\n"
              "from . import _tables\n")
    assert private_imports(source) == [
        (3, "_frac"), (4, "_suspended"), (8, "_tables")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_between_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


DENSE_CALLS = {"rref", "kernel_basis", "make_matrix", "mat_mul", "mat_add",
               "identity_matrix"}
DENSE_VIEWS = {"block", "blocks"}
# The dense adapters themselves.
DENSE_ALLOWED = {("exactlin.py", "GradedMap.__init__"),
                 ("exactlin.py", "GradedMap.blocks")}


def dense_uses(source: str) -> list:
    """(enclosing function, line, what) of each dense matrix use: a call
    of a name in DENSE_CALLS, a GradedMap built from dense blocks, or a
    read of .block or .blocks."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            what = None
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in DENSE_CALLS:
                    what = name
                elif name == "GradedMap" and (
                        len(child.args) > 3
                        or any(k.arg == "blocks" for k in child.keywords)):
                    what = "GradedMap(..., blocks)"
            elif (isinstance(child, ast.Attribute)
                  and child.attr in DENSE_VIEWS):
                what = "." + child.attr
            if what:
                out.append((scope, child.lineno, what))
            visit(child, scope)

    visit(ast.parse(source), "")
    return out


def test_detects_dense_uses():
    source = ("def split(c, k):\n"
              "    return rref(c.differential.block(k))\n"
              "class Inverse:\n"
              "    def build(self, m, blocks):\n"
              "        ker = exactlin.kernel_basis(m.blocks[0])\n"
              "        return GradedMap(m.target, m.source, 0, blocks)\n"
              "def fine(m, s):\n"
              "    return GradedMap.from_columns(s, s, 0, m.columns)\n")
    assert dense_uses(source) == [
        ("split", 2, "rref"), ("split", 2, ".block"),
        ("Inverse.build", 5, "kernel_basis"), ("Inverse.build", 5, ".blocks"),
        ("Inverse.build", 6, "GradedMap(..., blocks)")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dense_matrices_outside_the_adapters(path):
    """Every solve, inverse, kernel and rank in shalg runs on sparse rows;
    dense matrices are only built for literal input and test references."""
    uses = dense_uses(path.read_text(encoding="utf-8"))
    assert [u for u in uses if (path.name, u[0]) not in DENSE_ALLOWED] == []


def names(source) -> set:
    """Every name a module (its source, or a node of its tree) reads,
    imports, or looks up as an attribute."""
    out = set()
    tree = ast.parse(source) if isinstance(source, str) else source
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update({node.name, node.asname} - {None})
    return out


def test_detects_names():
    assert names("from .exactlin import tensor_maps_many as tm\n"
                 "x = exactlin.mat_mul(a, b)\n") == {
        "tensor_maps_many", "tm", "x", "exactlin", "mat_mul", "a", "b"}


def unreachable(sources: dict, readers=()) -> list:
    """(module, name) of each public top-level function or class of the
    modules `sources` (file name -> source) that no other of them reads,
    no other code of its own module reads, and no source in `readers`
    reads; a name in a string constant is not a read."""
    body = {m: ast.parse(source).body for m, source in sources.items()}
    reads = {m: [names(node) for node in nodes] for m, nodes in body.items()}
    outside = set().union(*map(names, readers))
    out = []
    for module, nodes in body.items():
        others = set().union(outside, *(r for m, rs in reads.items()
                                        if m != module for r in rs))
        for i, node in enumerate(nodes):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in others
                    and not any(node.name in r for j, r
                                in enumerate(reads[module]) if j != i)):
                out.append((module, node.name))
    return out


def test_detects_unreachable():
    sources = {"a.py": "def walk(t):\n    return [walk(c) for c in t]\n"
                       "def used():\n    pass\n"
                       "def run():\n    return used()\n"
                       "class Spec:\n    pass\n"
                       "def _private():\n    pass\n",
               "b.py": "from .a import run\nNAMES = {'walk', 'Spec'}\n"}
    assert unreachable(sources) == [("a.py", "walk"), ("a.py", "Spec")]
    assert unreachable(sources, ["x = a.Spec\n"]) == [("a.py", "walk")]


# Public functions that neither shalg nor the benchmark runs: the
# library API of the paper's constructions, with what each is for.
LIBRARY_API = (
    ("identity_morphism", "the unit morphism that towers of moves start "
                          "from"),
    ("check_all_An", "every Stasheff identity of a structure in one call"),
    ("check_all_Fn", "every morphism identity of a morphism in one call"),
    ("structure_from_action", "the A-infinity structure of an action of "
                              "the minimal resolution"),
    ("elem_add", "linear combinations of operad elements"),
    ("elem_scale", "scalar multiples of operad elements"),
    ("graft", "operadic partial composition of elements"),
    ("derivation_extend", "the differential of a span of trees in the "
                          "word basis"),
    ("rename_generators", "a presentation with its generators renamed, "
                          "for free products of copies"),
    ("normalize_side_conditions", "retract data whose homotopy meets "
                                  "the three side conditions"),
    ("sdr_from_equivalence", "the retract a homotopy equivalence "
                             "induces"),
)


def test_every_public_function_is_run_or_library_api():
    """No dead API: a public function or class of shalg is read by
    another module of shalg, by other code of its own module, or by the
    benchmark's code, or it is listed in LIBRARY_API; and every listed
    name is public and read by none of them."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    bench = [p.read_text(encoding="utf-8")
             for p in sorted((SRC.parents[1] / "bench").glob("*.py"))]
    assert sorted(name for _, name in unreachable(sources, bench)) == sorted(
        name for name, _ in LIBRARY_API)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_assert_statements(path):
    """python -O strips assert statements, so shalg checks its own
    results by raising AssertionError explicitly."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)] == []


# try and, from Python 3.11, try with except*
TRY_NODES = tuple(getattr(ast, name) for name in ("Try", "TryStar")
                  if hasattr(ast, name))


def commands_with_try(source: str) -> list:
    """The names of the top-level cmd_* functions that hold a try
    statement."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("cmd_")
            and any(isinstance(n, TRY_NODES) for n in ast.walk(node))]


def test_detects_commands_with_try():
    source = ("def cmd_a(args):\n    if args:\n        try:\n"
              "            f()\n        except ValueError:\n"
              "            pass\n"
              "def cmd_b(args):\n    return f(args)\n"
              "def _helper(args):\n    try:\n        f()\n"
              "    finally:\n        g()\n")
    assert commands_with_try(source) == ["cmd_a"]


def test_no_command_catches_an_exception():
    """A command builds its inputs and lets every refusal reach main,
    which prints it and exits 2; a failed hypothesis of a move is a
    named check, recorded by cli._run_move.  A try in a command could
    turn a refusal into a failed check, or hide it."""
    assert commands_with_try((SRC / "cli.py").read_text(
        encoding="utf-8")) == []


def test_only_exactlin_names_tensor_maps_many():
    """Residuals, composites and transfer evaluate subtree tables
    (operadcore.eval_element), so no module of shalg but the one that
    defines it builds a tensor product of maps."""
    assert [p.name for p in MODULES if p.name != "exactlin.py"
            and "tensor_maps_many" in names(p.read_text(encoding="utf-8"))
            ] == []


# The builders of the bundled models, each returning a fresh presentation.
BUILDERS = {"ass_minimal", "ass_arrow_minimal", "riso", "free_binary"}


def test_only_operadcore_names_the_model_builders():
    """Every module gets a bundled model by name from
    operadcore.builtin_presentation, which builds each once per process
    and truncation order: no other module builds or caches its own."""
    assert [p.name for p in MODULES if p.name != "operadcore.py"
            and BUILDERS & names(p.read_text(encoding="utf-8"))] == []


def _modules_loaded(heavy, *lines):
    """Which of the heavy modules a fresh `python -S` process holds after
    importing shalg.cli and running the given lines of code."""
    code = "\n".join(
        ["import sys", f"sys.path.insert(0, {str(SRC.parent)!r})",
         "import shalg.cli", *lines,
         f"print(sorted(m for m in {heavy!r} if m in sys.modules))"])
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return out.rstrip("\n").rsplit("\n", 1)[-1]


# The standard library's rationals and the modules fractions loads.
NUMERIC = ("fractions", "decimal", "_decimal", "numbers")


def test_cli_import_leaves_heavy_modules_unloaded():
    """Every command pays for what `import shalg.cli` loads.  dataclasses
    (which loads inspect) is not needed at all, hashlib is never loaded
    (see test_hashing_commands_leave_openssl_unloaded), argparse, with
    the gettext and locale it loads, reads only a line that is not plain
    (see test_commands_leave_argparse_unloaded), and tempfile and shutil
    only by commands that write a file, which import them then;
    fractions, with the decimal and numbers it loads, is not used (see
    test_commands_leave_fractions_unloaded), and neither are json, typing
    and the re that both load (see
    test_commands_leave_json_and_typing_unloaded)."""
    heavy = ("dataclasses", "inspect", "hashlib", "_hashlib", "tempfile",
             "argparse", "gettext", "locale", "shutil") + NUMERIC + (
        "json", "json.decoder", "json.encoder", "typing", "re")
    assert _modules_loaded(
        heavy, "shalg.cli.build_parser().parse_args("
               "['operad', 'd2', 'ass-minimal', '--arity', '3'])") == "[]"


def _main_loads(heavy, command, tmp_path):
    """Which of the heavy modules a fresh `python -S` process holds after
    main ran the command, passing, on files of the exterior DGA ("half"
    is the DGA with mu_2 halved, whose entries are "1/2" strings)."""
    a = exterior_dga()
    files = {"dga": tmp_path / "dga.json", "sdr": tmp_path / "sdr.json",
             "half": tmp_path / "half.json", "out": tmp_path / "out"}
    serialize.dump(str(files["dga"]), serialize.algebra_to_data(a))
    half = AInfinityAlgebra(a.complex, {2: a.mu(2).scale(Rational(1, 2))},
                            a.N)
    serialize.dump(str(files["half"]), serialize.algebra_to_data(half))
    serialize.dump(str(files["sdr"]),
                   serialize.sdr_to_data(sdr_onto_homology(a.complex)))
    argv = [arg.format(**{k: str(v) for k, v in files.items()})
            for arg in command]
    return _modules_loaded(heavy, f"assert shalg.cli.main({argv!r}) == 0")


@pytest.mark.parametrize("command", [
    ["verify", "ainf", "{dga}"],
    ["move", "m1", "{dga}", "{sdr}", "--out", "{out}"],
    ["operad", "riso-extend", "{sdr}"],
], ids=lambda c: "-".join(c[:2]))
def test_hashing_commands_leave_openssl_unloaded(command, tmp_path):
    """Certificates hash their input files with the interpreter's
    built-in SHA-256; hashlib would load OpenSSL's libcrypto through
    _hashlib, 3.6 MB of RSS, for the same digests."""
    assert _main_loads(("hashlib", "_hashlib"), command, tmp_path) == "[]"


@pytest.mark.parametrize("command", [
    ["verify", "ainf", "{dga}"],
    ["move", "m1", "{dga}", "{sdr}", "--out", "{out}"],
    ["operad", "d2", "ass-minimal", "--arity", "4"],
], ids=lambda c: "-".join(c[:2]))
def test_commands_leave_argparse_unloaded(command, tmp_path):
    """A plain command line loads no argparse: it is read straight from
    shalg.cli's command table, since argparse, with the gettext and
    locale it loads, costs every command about 4 ms of start-up (10 ms
    under python -S, where it also loads re)."""
    assert _main_loads(("argparse", "gettext", "locale"), command,
                       tmp_path) == "[]"


@pytest.mark.parametrize("command", [
    ["verify", "ainf", "{half}"],
    ["move", "m1", "{dga}", "{sdr}", "--out", "{out}"],
    ["operad", "d2", "ass-minimal", "--arity", "4"],
    ["operad", "riso-extend", "{sdr}"],
], ids=lambda c: "-".join(c[:2]))
def test_commands_leave_fractions_unloaded(command, tmp_path):
    """Coefficients are exactlin.Rational: fractions, with the decimal
    (libmpdec) and numbers it loads, cost every process about 0.5 MB of
    RSS and 3.5 ms of start-up."""
    assert _main_loads(NUMERIC, command, tmp_path) == "[]"
    assert '"1/2"' in (tmp_path / "half.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("command, heavy", [
    (["verify", "ainf", "{dga}"], ("json", "typing", "re")),
    (["operad", "d2", "ass-minimal", "--arity", "4", "--format", "machine"],
     ("json", "typing", "re")),
    (["operad", "riso-extend", "{sdr}"], ("json", "typing", "re")),
    # tempfile loads re through shutil
    (["move", "m1", "{dga}", "{sdr}", "--out", "{out}"], ("json", "typing")),
], ids=["verify-ainf", "operad-d2", "operad-riso-extend", "move-m1"])
def test_commands_leave_json_and_typing_unloaded(command, heavy, tmp_path):
    """Files and certificates are read and written by shalg.jsontext,
    which runs json's C functions without importing json: json, with
    the regular expressions it compiles, cost every process about 3 ms
    of start-up, and typing, which only annotations named, more."""
    assert _main_loads(heavy, command, tmp_path) == "[]"


def import_time_imports(source: str) -> list:
    """(line, module) of each absolute import that runs when the module
    is imported: every one outside a function body and outside an
    `except ImportError` handler, which runs only on an interpreter
    that lacks the module its try block imports."""
    out = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if (isinstance(child, ast.ExceptHandler)
                    and getattr(child.type, "id", None) in (
                        "ImportError", "ModuleNotFoundError")):
                continue
            if isinstance(child, ast.Import):
                out.extend((child.lineno, a.name) for a in child.names)
            elif isinstance(child, ast.ImportFrom) and not child.level:
                out.append((child.lineno, child.module))
            visit(child)

    visit(ast.parse(source))
    return out


def test_detects_import_time_imports():
    source = ("import json.decoder\n"
              "from typing import Optional\n"
              "from . import exactlin\n"
              "try:\n    from _json import make_scanner\n"
              "except ImportError:\n    import json\n"
              "if True:\n    import typing as t\n"
              "class A:\n    import re\n"
              "def f():\n    import json\n")
    assert import_time_imports(source) == [
        (1, "json.decoder"), (2, "typing"), (5, "_json"), (9, "typing"),
        (11, "re")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_json_or_typing_when_imported(path):
    """json is imported only to re-parse a malformed document, and
    typing not at all: annotations are deferred and name
    collections.abc, and records are tuples, not typing.NamedTuple."""
    assert [(line, module) for line, module
            in import_time_imports(path.read_text(encoding="utf-8"))
            if module.split(".")[0] in ("json", "typing")] == []


# The layers above operadcore: files, structures and moves.
NOT_OPERAD = ("shalg.serialize", "shalg.ainfty", "shalg.transfer")


def test_cli_import_loads_only_the_operad_layer():
    """shalg.cli imports serialize, ainfty and transfer in the functions
    that run them, so importing it and parsing loads none of them."""
    assert _modules_loaded(
        NOT_OPERAD, "shalg.cli.build_parser().parse_args("
                    "['verify', 'ainf', 'x.json'])") == "[]"


@pytest.mark.parametrize("command", [
    ["operad", "d2", "ass-minimal", "--arity", "4"],
    ["operad", "homology", "ass-minimal", "--arity", "3"],
    ["operad", "kunneth", "--arity", "3", "--format", "machine"],
    ["operad", "tree-dims", "ass-minimal-3", "free-binary", "--arity", "3"],
    ["operad", "alpha", "--length", "3"],
], ids=lambda c: "-".join(c[:2]))
def test_operad_commands_load_only_the_operad_layer(command, tmp_path):
    """An operad command that reads no file runs operadcore and exactlin
    only; the start-up of the other layers would be most of its cost."""
    assert _main_loads(NOT_OPERAD, command, tmp_path) == "[]"


def test_verify_ainf_leaves_transfer_unloaded(tmp_path):
    """serialize imports transfer's retract types in the retract loaders
    only, so verifying a structure file never loads transfer."""
    assert _main_loads(("shalg.transfer",), ["verify", "ainf", "{dga}"],
                       tmp_path) == "[]"
