"""Package modules keep each decision with its owner, and every public name
has a caller outside the tests.

``_names`` reads every name a module takes, in any form, and each row of
``RULES`` says which modules may take which names; "private" is one more
filter over the same names.  A row must find no offender and no idle
allowance in the package, and must catch each name that ``SYNTHETIC``
tags with its key, and no other."""

import ast
import inspect
import re
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import conftest
import oracles
import quatsvd
from quatsvd import quatlin

PACKAGE = Path(quatsvd.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
TYPE_CHECKING_TESTS = ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def _names(tree: ast.Module, module: str) -> list:
    """(line, enclosing function or ``<module>``, dotted name, bound at run
    time?) of each name that ``module``, a file stem of the package, takes.

    ``import a.b [as c]`` and ``from a import b [as c]`` give ``a.b``, a
    relative import lying under ``quatsvd``.  A name so bound, or a
    function or class of the module itself, gives its target, attribute
    chain and all, wherever it is used (``np.linalg.svd`` is
    ``numpy.linalg.svd``), and a re-export is its defining module's.  Any
    other name gives ``?.`` and its chain (``self.x`` is ``?.self.x``).  A
    name bound in an ``if TYPE_CHECKING:`` body is not bound at run time."""
    own = "quatsvd" if module == "__init__" else f"quatsvd.{module}"
    bound = {node.name: (f"{own}.{node.name}", True) for node in tree.body
             if isinstance(node, (*FUNCTIONS, ast.ClassDef))}
    found = []

    def take(node, owner, name, runtime):
        head, dot, rest = name.removeprefix("quatsvd.").partition(".")
        if name.startswith("quatsvd.") and head in quatsvd.__all__:
            name = f"{getattr(quatsvd, head).__module__}.{head}{dot}{rest}"
        found.append((node.lineno, owner, name, runtime))
        return name

    def visit(node, owner, runtime):
        chain = ast.unparse(node) if isinstance(node, (ast.Name,
                                                       ast.Attribute)) else ""
        head, dot, rest = chain.partition(".")
        if isinstance(node, ast.Import):
            for alias in node.names:
                take(node, owner, alias.name, runtime)
                top = alias.name.split(".")[0]
                bound[alias.asname or top] = (
                    alias.name if alias.asname else top, runtime)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("quatsvd" if node.level else "",
                                          node.module)))
            for alias in node.names:
                name = take(node, owner, f"{base}.{alias.name}", runtime)
                bound[alias.asname or alias.name] = (name, runtime)
        elif re.fullmatch(r"[\w.]+", chain):
            target, at_run_time = bound.get(head, (f"?.{head}", True))
            take(node, owner, target + dot + rest, runtime and at_run_time)
        else:
            owner = node.name if isinstance(node, FUNCTIONS) else owner
            exempt = isinstance(node, ast.If) and \
                ast.unparse(node.test) in TYPE_CHECKING_TESTS
            for child in node.body if exempt else ():
                visit(child, owner, False)
            for child in node.orelse if exempt else ast.iter_child_nodes(node):
                visit(child, owner, runtime)

    visit(tree, "<module>", True)
    return found


PACKAGE_NAMES = {path.stem: _names(ast.parse(path.read_text()), path.stem)
                 for path in sorted(PACKAGE.glob("*.py"))}


class Rule(NamedTuple):
    taken: tuple              # dotted names, each with every name under it
    allowed: tuple            # stems, or (stem, function), that may take them
    annotations: bool = True  # does a name bound under TYPE_CHECKING count?
    free: tuple = ()          # names under ``taken`` that anyone may take
    unbound: bool = False     # and ``x.f``, x unbound, for a taken ``a.f``?


NUMPY_SOLVERS = ("svd", "qr", "solve", "inv")
SCIPY_SOLVERS = NUMPY_SOLVERS + (
    "solve_triangular", "solve_banded", "lu_factor", "lu_solve",
    "cho_factor", "cho_solve", "lstsq", "pinv")

RULES = {
    # quatlin decides how a block is stored, and io reads sparse files.
    "sparse": Rule(("scipy.sparse",), ("quatlin", "io")),
    # The solver and the image/format tools share only quatlin; lowrank may
    # name the type of the triplets it rebuilds from in an annotation.
    "layering": Rule(
        ("quatsvd.bidiag", "quatsvd.restart", "quatsvd.smalldense"),
        ("bidiag", "restart", "smalldense", "cli", "__init__"),
        annotations=False),
    # Dense algebra reaches the solver through smalldense and numpy alone.
    "scipy": Rule(("scipy",), ("quatlin", "io", "smalldense")),
    # quatlin.check_count and check_real alone say what a number is.
    "numbers": Rule(("numbers",), ("quatlin",)),
    # The command line is the one place where the user chooses behaviour.
    "environ": Rule(("os.environ", "os.getenv"), ("cli",)),
    # One dense SVD per restart cycle and no dense solve: the rest of
    # smalldense stays only for the benchmark.
    "smalldense": Rule(("quatsvd.smalldense",), ("smalldense",), free=(
        "quatsvd.smalldense", "quatsvd.smalldense.dense_svd")),
    # Only smalldense factors or solves, so its guards are the only ones.
    "solvers": Rule(tuple(f"numpy.linalg.{name}" for name in NUMPY_SOLVERS)
                    + tuple(f"scipy.linalg.{name}" for name in SCIPY_SOLVERS),
                    ("smalldense",)),
    # The one copy of the real counterpart's block layout.
    "block": Rule(("numpy.block",), (("quatlin", "_counterpart"),)),
    # solve_partial_svd scales M and takes the adjoint route itself, and
    # checks its arguments once: nothing in restart runs a second solve,
    # whatever object it is reached through.
    "solve": Rule(("quatsvd.restart.solve_partial_svd",), ("cli", "__init__"),
                  unbound=True),
}


def _verdicts(key: str, module: str, names: list):
    """(line, name, allowance or None) of each of ``module``'s ``names``
    that rule ``key`` covers, the allowance letting ``module`` take it.
    "private" covers a name reached through an underscore name of another
    package module, and allows none."""
    rule = RULES.get(key, Rule((), ()))
    for line, function, name, runtime in names:
        parts = name.split(".")
        if key == "private":
            covers = parts[0] == "quatsvd" and parts[1:2] != [module] and any(
                part.startswith("_") for part in parts[1:])
        elif parts[0] == "?":
            covers = rule.unbound and any(
                t.rpartition(".")[2] in parts[1:] for t in rule.taken)
        else:
            covers = (runtime or rule.annotations) and name not in rule.free \
                and any(f"{name}.".startswith(f"{t}.") for t in rule.taken)
        if covers:
            yield line, name, next((a for a in rule.allowed if a in (
                module, (module, function))), None)


def _holds(key: str) -> None:
    """Assert that rule ``key`` finds no offender in the package, by module
    and line, and no allowance that nothing uses."""
    offenders, used, rule = {}, set(), RULES.get(key, Rule((), ()))
    for module, names in PACKAGE_NAMES.items():
        for line, name, allowance in _verdicts(key, module, names):
            used.add(allowance)
            if allowance is None:
                offenders.setdefault(module, []).append((line, name))
    assert (offenders, [a for a in rule.allowed if a not in used]) == ({}, [])


# After "#", each line names a key once for each name that key must catch
# there; no other key may catch one.  Rules read it as restart, "layering"
# (which allows restart) as lowrank.
SYNTHETIC = """\
import typing
from typing import TYPE_CHECKING
import numbers, numpy, numpy as np, numpy as xp   # numbers
import numbers as nb                              # numbers
from numbers import Integral, Real as R           # numbers numbers
import os, os as o, os.path
from os import environ                            # environ
from os import getenv as ge, path                 # environ
import scipy                                      # scipy
import scipy.linalg as sla                        # scipy
import scipy.sparse as sp                         # scipy sparse
from scipy import linalg, sparse                  # scipy scipy sparse
from scipy.sparse.linalg import svds              # scipy sparse
from scipy.linalg import block_diag, lu_solve     # scipy scipy solvers
from numpy import linalg as la
from numpy import block, hstack                   # block
import quatsvd as q
import quatsvd.bidiag                             # layering
import quatsvd.smalldense as qs                   # layering
from . import quatlin, smalldense as sd           # layering
from quatsvd import lowrank, smalldense           # layering
from .bidiag import _fresh_direction              # layering private
from .bidiag import lanczos_extend                # layering
from .restart import TripletSet                   # layering
from .smalldense import dense_svd                 # layering
from .smalldense import qr_factor as qr           # layering smalldense
from quatsvd.smalldense import solve_upper        # layering smalldense
if TYPE_CHECKING:
    from .bidiag import KrylovState
    import quatsvd.smalldense as hidden
elif typing.TYPE_CHECKING:
    from .restart import ConvergenceTrace
    from .smalldense import bidiag_solve          # smalldense
else:
    from .bidiag import lanczos_bidiag            # layering
os.environ.get("A")                               # environ
o.getenv("B")                                     # environ
ge("C")                                           # environ
os.path.join(a) + path.sep + os.getcwd()
nb.Integral                                       # numbers
scipy.sparse.csr_matrix(a)                        # scipy sparse
scipy.linalg.norm(a) + sla.norm(a) + linalg.eig(a)  # scipy scipy scipy
np.linalg.svd(a) + np.linalg.norm(a)              # solvers
xp.linalg.solve(a, a)                             # solvers
la.qr(a) + la.norm(a) + la.block(a)               # solvers
scipy.linalg.solve_triangular(a, a)               # scipy solvers
sla.inv(a)                                        # scipy solvers
sd._private(1)                                    # layering private smalldense
sd.public(2) + quatlin.vec_norm(a)                # layering smalldense
smalldense.dense_svd(a) + lowrank.psnr(a)         # layering
hidden.dense_svd(a)
quatsvd.smalldense.tri_solve_upper(a)             # layering smalldense
qs.NearSingularError                              # layering smalldense
quatsvd.quatlin._counterpart(a)                   # private
q.restart._extract_triplets(a)                    # layering
numpy.block([[1.0]])                              # block
block(a)                                          # block
q.solve_partial_svd(a)                            # layering solve
solver.solve_partial_svd(a) + solver.solve(a)     # solve
restart.solve_partial_svd(self)                   # solve
def lazy(a):
    import scipy.sparse                           # scipy sparse
    return np.block(a)                            # block
class C:
    def method(self, a):
        from numpy import block as bl             # block
        return bl(a) + np.hstack(a) + hstack(a)   # block
    def solve(self):
        return q.restart.solve_partial_svd(self)  # layering solve
def solve_partial_svd(M):
    return solve_partial_svd(M.scaled(-1))        # solve
"""


def _catches(key: str) -> None:
    """Assert that rule ``key`` catches, on each line of SYNTHETIC, as many
    names as the line's comment names ``key``, and that some line does."""
    module = "lowrank" if key == "layering" else "restart"
    names = _names(ast.parse(SYNTHETIC), module)
    caught = Counter(line for line, _, allowance
                     in _verdicts(key, module, names) if allowance is None)
    tagged = Counter({line: text.partition("#")[2].split().count(key)
                      for line, text in enumerate(SYNTHETIC.splitlines(), 1)})
    assert +tagged and caught == +tagged


def _test(check, *keys: str):
    def test():
        for key in keys:
            check(key)
    return test


# Each row's package test and self-test, by the names they had when each
# row had a resolver of its own.
test_no_module_uses_a_private_name_of_another = _test(_holds, "private")
test_checker_sees_both_forms = _test(_catches, "private")
test_only_quatlin_and_io_touch_scipy_sparse = _test(_holds, "sparse")
test_sparse_checker_sees_every_form = _test(_catches, "sparse")
test_image_and_format_tools_take_nothing_from_the_solver = \
    _test(_holds, "layering")
test_restart_takes_nothing_from_scipy = _test(_holds, "scipy")
test_layering_checker_sees_every_form = _test(_catches, "layering", "scipy")
test_only_quatlin_names_numbers = _test(_holds, "numbers")
test_numbers_checker_sees_every_form = _test(_catches, "numbers")
test_the_solve_never_reenters_itself = _test(_holds, "solve")
test_caller_checker_sees_every_form = _test(_catches, "solve")
test_only_cli_reads_the_environment = _test(_holds, "environ")
test_environment_checker_sees_every_form = _test(_catches, "environ")
test_solver_takes_only_dense_svd_from_smalldense = _test(_holds, "smalldense")
test_smalldense_checker_sees_every_form = _test(_catches, "smalldense")
test_only_smalldense_calls_a_dense_solver = _test(_holds, "solvers")
test_solver_checker_sees_every_form = _test(_catches, "solvers")
test_only_the_counterpart_helper_calls_np_block = _test(_holds, "block")
test_block_checker_sees_every_form = _test(_catches, "block")


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


def test_oracles_never_read_the_product_table():
    # The oracle module and the hand-written layouts the kernels are
    # checked against state the multiplication rule without the tables.
    trees = [ast.parse(Path(oracles.__file__).read_text())]
    trees += [ast.parse(inspect.getsource(f)) for f in (
        quatlin._counterpart, quatlin.expand_vector,
        quatlin.expand_real_counterpart, conftest.from_components)]
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
