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


def test_matching_does_not_import_fingerprint():
    # The scoring layer takes fingerprints as planes, as ncc and pce take arrays.
    path = ROOT / "src" / "prnukit" / "matching.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {f"{node.module or ''}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not [name for name in imported if "fingerprint" in name.split(".")]


def test_import_leaves_out_scipy():
    # The package runs on numpy alone; scipy is a test-only oracle, slow to import and large.
    src = Path(__file__).resolve().parent.parent / "src"
    for module in ("prnukit", "prnukit.cli"):
        code = (
            f"import sys, {module}; "
            "found = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')); "
            "assert not found, found"
        )
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


def _caller_files():
    """The package's own modules, the scripts and the benchmark, but not
    __init__ (which only re-exports) and not any test suite."""
    modules = sorted((ROOT / "src" / "prnukit").glob("*.py"))
    files = [p for p in modules if p.name != "__init__.py"]
    files += list((ROOT / "scripts").rglob("*.py"))
    files += [p for p in (ROOT / "perfbench").rglob("*.py") if "tests" not in p.relative_to(ROOT / "perfbench").parts]
    return modules, files


def test_every_public_name_has_a_caller_outside_tests():
    # String constants count: the benchmark's tracer names the functions it
    # wraps as strings.
    modules, files = _caller_files()
    used = set().union(*map(_names_used, files))
    names = {name for path in modules for name in _public_names(path)}
    assert set(prnukit.__all__) <= names
    assert sorted(names - used) == sorted(_KEPT_READERS)


def _defaulted_parameters(path):
    """{name: (positional parameter names, {defaulted parameter name: default
    expression})} of one source file's public top-level functions."""
    params = {}
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            a = node.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            defaulted = dict(zip(positional[len(positional) - len(a.defaults) :], a.defaults))
            defaulted.update((p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
            params[node.name] = (positional, defaulted)
    return params


def _callee(node):
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def _writes_default(arg, default) -> bool:
    """Whether a call's argument is written as the parameter's own literal default."""
    try:
        ast.literal_eval(default)  # raises on None too: a parameter with no default
    except ValueError:
        return False
    return ast.dump(arg) == ast.dump(default)


def _arguments_set(path, params):
    """(function, parameter) pairs that one file's calls set: by keyword or by
    position, directly or bound through ``functools.partial``. A ``*`` splat
    may set every positional parameter from its place on, a ``**`` splat
    every parameter. An argument written as the parameter's literal default
    sets nothing."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if _callee(func) == "partial" and args:
            func, args = args[0], args[1:]
        name = _callee(func)
        if name not in params:
            continue
        positional, defaulted = params[name]
        starred = any(isinstance(arg, ast.Starred) for arg in args)
        written = dict(zip(positional, args)) | {k.arg: k.value for k in node.keywords if k.arg is not None}
        found |= {(name, p) for p, arg in written.items() if not _writes_default(arg, defaulted.get(p))}
        if starred:
            found |= {(name, p) for p in positional}
        if any(k.arg is None for k in node.keywords):
            found |= {(name, p) for p in defaulted}
    return found


def test_every_defaulted_parameter_is_set_outside_tests():
    # A default that no caller overrides is an option only the tests use.
    modules, files = _caller_files()
    params = {}
    for path in modules:
        params.update(_defaulted_parameters(path))
    found = set().union(*(_arguments_set(path, params) for path in files))
    defaulted = {(name, p) for name, (_, ps) in params.items() for p in ps}
    assert sorted(defaulted - found) == []
