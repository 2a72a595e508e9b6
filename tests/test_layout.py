"""Package layout: every package import sits at module top level, the
imports between modules point one way, and importing the package leaves
scipy.linalg unloaded.  scipy.sparse loads inside
``Hamiltonian.static_csr``, with the first product, which only a run
with square rotating-frame windows takes; so importing the package,
``validate``, a full-field run and a field-free run leave it unloaded
too.  Nor does planning solve a drive-free block: the eigensystem memo
stays empty until a run propagates."""
import ast
import graphlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zenoauger

PACKAGE = Path(zenoauger.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}


def package_targets(node: ast.AST) -> list[str]:
    """Package modules an import statement loads, [] for outside imports."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] if "." in alias.name else "__init__"
                for alias in node.names
                if alias.name.split(".")[0] == "zenoauger"]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0:
        if node.module is None or node.module.split(".")[0] != "zenoauger":
            return []
        parts = node.module.split(".")
    else:
        parts = ["zenoauger"] + (node.module.split(".") if node.module else [])
    if len(parts) > 1:
        return [parts[1]]
    return [alias.name if alias.name in MODULES else "__init__"
            for alias in node.names]


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_package_import_inside_a_function(name):
    for func in ast.walk(MODULES[name]):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                assert not package_targets(node), (
                    f"{name}.{func.name} imports {package_targets(node)} "
                    f"at line {node.lineno}")


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_type_checking_block(name):
    for node in ast.walk(MODULES[name]):
        if isinstance(node, ast.Name):
            assert node.id != "TYPE_CHECKING", f"{name} line {node.lineno}"
        if isinstance(node, ast.Attribute):
            assert node.attr != "TYPE_CHECKING", f"{name} line {node.lineno}"


def test_module_imports_are_acyclic():
    graph = {name: {target for node in ast.walk(tree)
                    for target in package_targets(node)}
             for name, tree in MODULES.items()}
    assert set().union(*graph.values()) <= set(MODULES)
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def printed_after(code: str, expression: str) -> str:
    """``expression`` as printed after running ``code`` in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))))
    code += f"; print({expression})"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip().splitlines()[-1]


def loaded_after(code: str, prefix: str) -> str:
    """The sorted list, as printed, of the modules under ``prefix`` that
    are loaded after running ``code`` in a fresh interpreter."""
    return printed_after(
        code, f"sorted(m for m in sys.modules if m.startswith({prefix!r}))")


def test_import_leaves_scipy_linalg_unloaded():
    # loading scipy.linalg adds about 0.12 s to every fresh interpreter
    # that imports the package, the command line included
    assert loaded_after("import sys, zenoauger, zenoauger.cli",
                        "scipy.linalg") == "[]"


def test_import_and_validate_leave_scipy_sparse_unloaded():
    # only a product needs sparse code; loading it costs every fresh
    # interpreter that imports the package, plans or validates
    assert loaded_after("import sys, zenoauger, zenoauger.cli",
                        "scipy.sparse") == "[]"
    validate = ("import sys, zenoauger, zenoauger.cli; assert "
                "zenoauger.cli.main(['validate', '--preset', 'li']) == 0")
    assert loaded_after(validate, "scipy.sparse") == "[]"


def test_planning_solves_no_block():
    # the eigensystem memo fills with the first propagation: importing,
    # expanding, planning and validating never pay for a secular solve
    code = ("import sys, zenoauger, zenoauger.cli; "
            "cfg = zenoauger.preset_config('li'); "
            "zenoauger.expand(cfg); zenoauger.plan(cfg); assert "
            "zenoauger.cli.main(['validate', '--preset', 'li']) == 0")
    assert printed_after(
        code, "zenoauger.model._solve_block.cache_info().currsize") == "0"


def test_full_field_run_leaves_scipy_sparse_unloaded():
    # the S6 steps of a full-field run multiply by no Hamiltonian
    run = ("import sys, zenoauger; zenoauger.execute(zenoauger."
           "preset_config('li', ['model.N=101', 'propagation.T_total=6 fs',"
           " 'propagation.sample_stride=0.5 fs']))")
    assert loaded_after(run, "scipy.sparse") == "[]"
    assert loaded_after(run, "scipy.linalg") == "[]"


def test_field_free_run_leaves_scipy_sparse_unloaded():
    # a field-free run is one phase flow per sample in eigencoordinates
    run = ("import sys, zenoauger; zenoauger.execute(zenoauger."
           "preset_config('li', ['drive.mode=off', 'model.N=101',"
           " 'propagation.T_total=6 fs']))")
    assert loaded_after(run, "scipy.sparse") == "[]"
