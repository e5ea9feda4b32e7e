"""Package modules reach each other only through public names, and every
public name has a caller outside the tests."""

import ast
import inspect
import re
from pathlib import Path

import conftest
import oracles
import quatsvd
from quatsvd import quatlin

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


def _sparse_imports(tree: ast.Module) -> list:
    """Modules under ``scipy.sparse`` a module imports, in any form:
    ``import scipy.sparse as sp``, ``from scipy import sparse``, ``from
    scipy.sparse.linalg import svds``, or ``scipy.sparse`` reached as an
    attribute after ``import scipy``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.startswith("scipy.sparse")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("scipy.sparse"):
                found.append(node.module)
            elif node.module == "scipy":
                found += [f"scipy.{a.name}" for a in node.names
                          if a.name == "sparse"]
        elif isinstance(node, ast.Attribute) and node.attr == "sparse" \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "scipy":
            found.append("scipy.sparse")
    return found


def test_only_quatlin_and_io_touch_scipy_sparse():
    # quatlin decides how a block is stored and io reads and writes sparse
    # files; every other module sees sparse storage only through them.
    offenders = {path.name: _sparse_imports(ast.parse(path.read_text()))
                 for path in sorted(PACKAGE.glob("*.py"))
                 if path.name not in ("quatlin.py", "io.py")}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_sparse_checker_sees_every_form():
    tree = ast.parse("import numpy as np, scipy.sparse as sp\n"
                     "import scipy\n"
                     "from scipy import linalg, sparse\n"
                     "from scipy.sparse.linalg import svds\n"
                     "x = scipy.sparse.csr_matrix(a) + scipy.linalg.norm(a)\n")
    assert sorted(_sparse_imports(tree)) == [
        "scipy.sparse", "scipy.sparse", "scipy.sparse", "scipy.sparse.linalg"]
    for name in ("quatlin.py", "io.py"):
        assert _sparse_imports(ast.parse((PACKAGE / name).read_text())) == [
            "scipy.sparse"]


ENV_READERS = {"environ", "getenv"}


def _environment_reads(tree: ast.Module) -> list:
    """``os.environ`` and ``os.getenv`` a module reads, in any import form:
    as an attribute of ``os`` under any alias (``o.getenv`` after ``import
    os as o``) or by ``from os import``."""
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or "os" for a in node.names
                        if a.name == "os" or (a.name.startswith("os.")
                                              and not a.asname)}
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"os.{a.name}" for a in node.names
                      if a.name in ENV_READERS]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENV_READERS \
                and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            found.append(f"os.{node.attr}")
    return found


def test_only_cli_reads_the_environment():
    # A setting read from the environment is an option no signature shows;
    # the command line is the one place where the user chooses behaviour.
    offenders = {path.name: _environment_reads(ast.parse(path.read_text()))
                 for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "cli.py"}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_environment_checker_sees_every_form():
    tree = ast.parse("import os, os as o\n"
                     "import os.path\n"
                     "from os import environ, getenv as ge, path\n"
                     "a = os.environ.get('A') + o.getenv('B') + ge('C')\n"
                     "b = os.path.join(a) + path.sep + os.getcwd()\n")
    assert sorted(_environment_reads(tree)) == [
        "os.environ", "os.environ", "os.getenv", "os.getenv"]
    assert _environment_reads(ast.parse(
        (PACKAGE / "cli.py").read_text())) == ["os.environ"]


def test_only_quatlin_names_the_safe_range():
    # quatlin.safe_range_exponent alone decides whether a matrix is solved
    # scaled; the solver, `quatsvd verify` and the Lanczos start all ask it.
    for source in ("from .quatlin import SAFE_EXPONENT",
                   "x = quatlin.SAFE_EXPONENT", "x = SAFE_EXPONENT"):
        assert "SAFE_EXPONENT" in _names_used(ast.parse(source))
    offenders = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "quatlin.py" and "SAFE_EXPONENT"
                 in _names_used(ast.parse(path.read_text()))]
    assert offenders == []


def _smalldense_names(tree: ast.Module) -> list:
    """Names a module takes from ``smalldense``: by ``from .smalldense
    import x`` (relative or absolute), or as ``sd.x`` on the module bound
    by any import form and alias."""
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.rsplit(".", 1)[-1] == "smalldense":
                found += [alias.name for alias in node.names]
            elif module in ("", "quatsvd"):
                modules |= {alias.asname or alias.name for alias in node.names
                            if alias.name == "smalldense"}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name.endswith("smalldense")}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and ast.unparse(node.value) in modules:
            found.append(node.attr)
    return found


def test_solver_takes_only_dense_svd_from_smalldense():
    # One dense SVD per restart cycle and no dense solve: the QR
    # factorization and the triangular solves stay only for the benchmark.
    offenders = {path.name: [name for name in
                             _smalldense_names(ast.parse(path.read_text()))
                             if name != "dense_svd"]
                 for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "smalldense.py"}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_smalldense_checker_sees_every_form():
    tree = ast.parse("from .smalldense import dense_svd, qr_factor as qr\n"
                     "from quatsvd.smalldense import solve_upper\n"
                     "from . import smalldense as sd\n"
                     "from quatsvd import lowrank, smalldense\n"
                     "import quatsvd.smalldense\n"
                     "import quatsvd.smalldense as qs\n"
                     "x = sd.bidiag_solve(a) + smalldense.dense_svd(a)\n"
                     "y = quatsvd.smalldense.tri_solve_upper(a)\n"
                     "z = qs.NearSingularError + lowrank.psnr\n")
    assert sorted(_smalldense_names(tree)) == [
        "NearSingularError", "bidiag_solve", "dense_svd", "dense_svd",
        "qr_factor", "solve_upper", "tri_solve_upper"]
    assert _smalldense_names(ast.parse(
        (PACKAGE / "restart.py").read_text())) == ["dense_svd"]


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
    # The oracle module and the hand-written layouts the kernels are
    # checked against state the multiplication rule without the tables.
    trees = [ast.parse(Path(oracles.__file__).read_text())]
    trees += [ast.parse(inspect.getsource(f)) for f in (
        quatlin.expand_vector, quatlin.expand_real_counterpart,
        conftest.from_components)]
    names = {getattr(node, attr) for tree in trees for node in ast.walk(tree)
             for attr in ("id", "attr", "name") if hasattr(node, attr)}
    assert not names & {"QUAT_TABLE", "QUAT_CONJ", "_CONJ_TABLE",
                        "_DIRECT_MIX", "_CONJ_MIX", "_QUAT_MIX"}


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
