"""Package modules reach each other only through public names, and every
public name has a caller outside the tests."""

import ast
import re
from pathlib import Path

import oracles
import quatsvd

PACKAGE = Path(quatsvd.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"


def _private_uses(tree: ast.Module) -> list:
    """Underscore names a module takes from another package module: by
    ``from .x import _name`` or as ``x._name`` on an imported module."""
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("quatsvd")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(alias.name)
                elif node.module in (None, "quatsvd"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_uses_a_private_name_of_another():
    offenders = {path.name: _private_uses(ast.parse(path.read_text()))
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_checker_sees_both_forms():
    tree = ast.parse("from .bidiag import _fresh_direction, lanczos_extend\n"
                     "from . import smalldense as sd\n"
                     "x = sd._private(1) + sd.public(2)\n")
    assert _private_uses(tree) == ["_fresh_direction", "sd._private"]


# Dense factorizations and solvers that only smalldense may call, so that
# its guards stay the only ones.
NUMPY_SOLVERS = {"svd", "qr", "solve", "inv"}
SCIPY_SOLVERS = NUMPY_SOLVERS | {"solve_triangular", "solve_banded",
                                 "lu_factor", "lu_solve", "cho_factor",
                                 "cho_solve", "lstsq", "pinv"}


def _dense_solver_uses(tree: ast.Module) -> list:
    """``numpy.linalg`` and ``scipy.linalg`` solvers a module names: as an
    attribute of the linalg module under any import alias (``np.linalg.svd``,
    ``sla.inv`` after ``import scipy.linalg as sla``) or by ``from ...
    import``."""
    banned = {"numpy.linalg": NUMPY_SOLVERS, "scipy.linalg": SCIPY_SOLVERS}
    aliases, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:  # ``import scipy.linalg`` binds ``scipy``
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                aliases[alias.asname or alias.name] = full
                if alias.name in banned.get(node.module, ()):
                    found.append(full)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            head, dot, rest = ast.unparse(node.value).partition(".")
            module = aliases.get(head, head) + dot + rest
            if node.attr in banned.get(module, ()):
                found.append(f"{module}.{node.attr}")
    return found


def test_only_smalldense_calls_a_dense_solver():
    offenders = {path.name: _dense_solver_uses(ast.parse(path.read_text()))
                 for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "smalldense.py"}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_solver_checker_sees_every_form():
    tree = ast.parse("import numpy as np, numpy as xp\n"
                     "import scipy.linalg\n"
                     "import scipy.linalg as sla\n"
                     "from numpy import linalg as la\n"
                     "from scipy.linalg import block_diag, lu_solve\n"
                     "a = np.linalg.svd(x) + np.linalg.norm(x)\n"
                     "b = scipy.linalg.solve_triangular(r, x)\n"
                     "c = sla.inv(x) + la.qr(x) + block_diag(x)\n"
                     "d = xp.linalg.solve(a, x)\n")
    assert sorted(_dense_solver_uses(tree)) == [
        "numpy.linalg.qr", "numpy.linalg.solve", "numpy.linalg.svd",
        "scipy.linalg.inv", "scipy.linalg.lu_solve",
        "scipy.linalg.solve_triangular"]
    assert sorted(_dense_solver_uses(ast.parse(
        (PACKAGE / "smalldense.py").read_text()))) == [
        "numpy.linalg.qr", "numpy.linalg.svd", "scipy.linalg.solve_triangular"]


def test_oracles_never_read_the_product_table():
    tree = ast.parse(Path(oracles.__file__).read_text())
    names = {getattr(node, attr) for node in ast.walk(tree)
             for attr in ("id", "attr", "name") if hasattr(node, attr)}
    assert not names & {"QUAT_TABLE", "QUAT_CONJ", "_CONJ_TABLE"}


def _public_definitions(tree: ast.Module) -> list:
    """(qualified name, bare name) of each public module-level function or
    class and of each public method of such a class."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            found.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{item.name}", item.name)
                      for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and not item.name.startswith("_")]
    return found


def _names_used(tree: ast.Module) -> set:
    """Identifiers a module names: variables, attributes, imported names
    and the dotted parts of identifier-like strings (perfbench names its
    traced targets as ``"CompactBasis.dot_all"``)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
            used.update(node.value.split("."))
    return used


def test_no_public_name_is_test_only():
    # The package's own exports are not uses: an exported name needs a
    # caller, or a place in __all__, the user API.
    callers = [p for p in [*PACKAGE.glob("*.py"), *PERFBENCH.glob("*.py")]
               if not p.name.startswith(("test_", "conftest", "__init__"))]
    used = set().union(*(_names_used(ast.parse(p.read_text()))
                         for p in callers))
    unused = [f"{path.stem}.{qualified}"
              for path in sorted(PACKAGE.glob("*.py"))
              for qualified, name in _public_definitions(
                  ast.parse(path.read_text()))
              if name not in used and name not in quatsvd.__all__]
    assert unused == []
