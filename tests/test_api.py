import ast
import os
import subprocess
import sys
from pathlib import Path

import prnukit
import prnukit.matching

ROOT = Path(__file__).resolve().parent.parent


def test_all_is_sorted_unique_and_resolves():
    names = prnukit.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(prnukit, name), name
    # the brute-force correlation oracle lives in tests/oracles.py
    assert not hasattr(prnukit.matching, "cross_correlate_direct")


def test_cli_import_leaves_out_scipy_signal():
    # scipy.signal is slow to import and large, and no module of the package needs it.
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import prnukit.cli, sys; assert 'scipy.signal' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)}, check=True)


def _names_used(path):
    """Every Name, Attribute, import alias and string constant in one source file.

    A name being assigned is not a use of it.
    """
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def _public_names(path):
    """Names of one source file's top-level defs, classes and assignments
    that do not start with an underscore."""
    names = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_")]


# The documented readers of the package's own output files, kept for its
# users though nothing in the package calls them: `evaluate`'s
# score_records.jsonl and `localize --json-map`'s map (see the README).
_KEPT_READERS = {"read_score_records", "load_map_json"}


def test_every_public_name_has_a_caller_outside_tests():
    # The package's own modules, the scripts and the benchmark, but not __init__
    # (which only re-exports) and not any test suite. String constants count:
    # the benchmark's tracer names the functions it wraps as strings.
    modules = sorted((ROOT / "src" / "prnukit").glob("*.py"))
    files = [p for p in modules if p.name != "__init__.py"]
    files += list((ROOT / "scripts").rglob("*.py"))
    files += [p for p in (ROOT / "perfbench").rglob("*.py") if "tests" not in p.relative_to(ROOT / "perfbench").parts]
    used = set().union(*map(_names_used, files))
    names = {name for path in modules for name in _public_names(path)}
    assert set(prnukit.__all__) <= names
    assert sorted(names - used) == sorted(_KEPT_READERS)
