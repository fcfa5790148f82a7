"""Every module-level import in the package is read in its module, every
package import, at any depth, comes from a lower layer, every ``__all__``
entry is bound in its module, every definition in the package is
referenced somewhere, and no code mutates the coefficient lists of a
fraction in place.

The package ``__init__`` re-exports names on purpose and ``from __future__``
imports are compiler directives, so both are exempt from the import scan.
The definition scan covers module-level functions and the non-dunder
methods of module-level classes; a definition counts as referenced when
its name is read, as a name or an attribute, outside its own body in the
package, the tests or the benchmark harness.

A matrix keeps its nonzero entries in a store, integer images over the
exact backend, and decodes ``.rows`` from it on first read, so those rows
are read-only: no package module but ``linmat`` writes into ``.rows``,
directly or through a name bound to it.

The numeric zero rule (a matrix vanishes at the scale of the matrices it
came from) lives in ``linmat`` alone, so no other package module may read
``max_abs``, the scale that rule is taken at.  ``linmat.relation`` is the
one judge of a relation on both backends, and ``_meq`` is only its numeric
step, so no other package module reads ``_meq`` either.

Both backends store a matrix's nonzero entries in one dict of rows,
which operations may change in place without changing the matrix: an
exact one re-encodes its images at a wider slot.  So no package module
but ``linmat`` reads or writes the store (``_nz``) or the exact encoding
(``_k``, ``_d``, ``_w``, ``_h``); ``scalars`` keeps its own ``_k`` and
``_h`` on Scalars.

``linmat`` decides that rule by one ``field.is_zero`` call on the largest
|entry|, and the field protocol is the one place a backend says what zero
is, so ``linmat`` reads no ``.tol`` attribute of a field.

Exact runs never leave Q(q), so the package imports numpy nowhere at
module level, and inside a function only where the numeric-only spectral
fit roots a polynomial (``spectra._numeric_fit``); a fresh interpreter that
imports every module and runs an exact benchmark verdict has no numpy
loaded, and neither has one that runs a numeric rank-one verdict.  For the
same reason ``specialize``, which evaluates a Scalar at a sample q0, is
read only in ``scalars``, where the numeric backend maps exact constants
into its field; no exact verdict or grading is read back from a sample
value.

A built module and its loop data are certified values: ``AffineModule``
runs the presentation suite in its constructor and then refuses writes,
and ``loop_data`` certifies a ``LoopData`` before returning it.  Tests
plant damage through an uncertified copy (``tests/damage.py``), which
goes round both; the bypass scan keeps that path out of the package: no
``__new__`` call on ``AffineModule`` and no ``object.__setattr__`` outside
``AffineModule``, and no ``LoopData(...)`` call or ``dataclasses.replace``
outside ``loop_data``.

Scalar arithmetic may return one of its operands, or share an operand's
``num`` or ``den`` list with its result, so those lists must never be
mutated after construction.  The mutation scan flags, in the package, any
subscript store or delete on a ``.num``/``.den`` attribute, an augmented
assignment to one, and a call of a mutating list method on one.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qonsager"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
READERS = sorted([*SRC.glob("*.py"), *(ROOT / "tests").rglob("*.py"),
                  *(ROOT / "perfbench").rglob("*.py")])
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imported(tree):
    """Names bound by the module-level import statements of ``tree``."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _exported(tree):
    """The names ``tree`` lists in its module-level ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            yield from ast.literal_eval(node.value)


def _read(tree):
    """Names the module reads, plus the names it lists in ``__all__``."""
    names = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    names.update(_exported(tree))
    return names


def _bound(tree):
    """Names bound at module level: imports, definitions, assignments."""
    names = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, _DEFS + (ast.ClassDef,)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                          if isinstance(n, ast.Name))
    return names


def test_scan_sees_package_modules():
    assert {"linmat.py", "spectra.py", "ranka.py"} <= {p.name for p in MODULES}


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(tau)\n")
    assert set(_imported(tree)) - _read(tree) == {"os", "pi"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(set(_imported(tree)) - _read(tree))
    assert not unused, f"{path.name} imports {unused} but never reads them"


def test_export_scan_flags_a_stale_entry():
    tree = ast.parse(
        "__all__ = ['f', 'K', 'x', 'pi', 'gone']\n"
        "from math import pi\n"
        "def f(): pass\n"
        "class K: pass\n"
        "x = 1\n"
    )
    assert set(_exported(tree)) - _bound(tree) == {"gone"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_exported_name_is_bound(path):
    # a stale entry breaks ``from <module> import *``
    tree = ast.parse(path.read_text(), filename=str(path))
    stale = sorted(set(_exported(tree)) - _bound(tree))
    assert not stale, f"{path.name} lists {stale} in __all__ but never binds them"


def _definitions(tree):
    """Module-level functions and non-dunder methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item.name


def _references(node, inside=frozenset()):
    """Names read under ``node``, except a definition's reads of its own name."""
    if isinstance(node, _DEFS + (ast.ClassDef,)):
        inside = inside | {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in inside:
            yield node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        if node.attr not in inside:
            yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _references(child, inside)


def test_definition_scan_flags_an_unreferenced_definition():
    tree = ast.parse(
        "def used(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class K:\n"
        "    def __init__(self): self.m()\n"
        "    def m(self): pass\n"
        "    def dead(self): return self.dead()\n"
        "used()\n"
    )
    defs = set(_definitions(tree))
    assert defs == {"used", "recursive", "m", "dead"}
    assert defs - set(_references(tree)) == {"recursive", "dead"}


def test_every_definition_is_referenced():
    referenced = set()
    for path in READERS:
        referenced.update(_references(ast.parse(path.read_text(), filename=str(path))))
    dead = sorted(
        f"{path.name}:{name}"
        for path in MODULES
        for name in _definitions(ast.parse(path.read_text(), filename=str(path)))
        if name not in referenced
    )
    assert not dead, f"defined but never referenced: {dead}"


#: the package's layers, bottom up
LAYERS = ("_kernel", "errors", "report", "scalars", "linmat", "series",
          "loopsl2", "onsager", "spectra", "ranka")


def _package_imports(tree):
    """Package modules that ``tree`` imports, at module level or nested."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [("qonsager." if node.level == 1 else "") + (node.module or "")]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            if name.startswith("qonsager."):
                yield name.split(".")[1]


def test_layer_scan_sees_every_import_form():
    tree = ast.parse(
        "from .linmat import Matrix\n"
        "from qonsager.series import pade_reconstruct\n"
        "import qonsager.onsager\n"
        "import numpy as np\n"
        "def f():\n"
        "    from .ranka import W\n"
    )
    assert list(_package_imports(tree)) == ["linmat", "series", "onsager", "ranka"]


def test_every_module_has_a_layer():
    assert sorted(LAYERS) == sorted(p.stem for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_only_lower_layers(path):
    # no import reaches up, not even inside a function, so no import cycle
    # can form and the layer order is the whole dependency story
    level = LAYERS.index(path.stem)
    tree = ast.parse(path.read_text(), filename=str(path))
    upward = sorted(m for m in _package_imports(tree) if LAYERS.index(m) >= level)
    assert not upward, f"{path.name} imports {upward} from its own or a higher layer"


_FRACTION_PARTS = frozenset(("num", "den"))
_MUTATORS = frozenset(("append", "pop", "insert", "extend", "clear", "remove", "sort"))


def _is_part(node):
    return isinstance(node, ast.Attribute) and node.attr in _FRACTION_PARTS


def _mutations(tree):
    """Line numbers of in-place mutations of a ``.num`` or ``.den`` list."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                and _is_part(node.value)):
            yield node.lineno
        elif isinstance(node, ast.AugAssign) and _is_part(node.target):
            yield node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and _is_part(node.func.value)
                and (node.func.attr in _MUTATORS
                     or (node.func.attr == "reverse" and not node.args and not node.keywords))):
            yield node.lineno


def test_mutation_scan_flags_in_place_changes():
    tree = ast.parse(
        "s.num[0] = 1\n"
        "s.den[1:] = []\n"
        "del s.num[-1]\n"
        "s.num += [0]\n"
        "s.den.append(1)\n"
        "s.num.reverse()\n"
        "s.num = [1]\n"
        "p.num.reverse(3)\n"
        "x = s.num[0] + len(s.den)\n"
        "t.data.pop()\n"
    )
    assert sorted(_mutations(tree)) == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_fraction_parts_are_never_mutated(path):
    lines = sorted(_mutations(ast.parse(path.read_text(), filename=str(path))))
    assert not lines, f"{path.name} mutates a .num or .den list at lines {lines}"


def _is_rows(node):
    return isinstance(node, ast.Attribute) and node.attr == "rows"


def _row_writes(tree):
    """Line numbers of writes into a matrix's ``.rows``: a subscript store
    or delete, an augmented assignment or a mutating list method whose
    target is reached from ``X.rows``, directly or through a name bound
    to ``X.rows``."""
    aliases = {t.id for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and _is_rows(node.value)
               for t in node.targets if isinstance(t, ast.Name)}

    def from_rows(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return _is_rows(node) or isinstance(node, ast.Name) and node.id in aliases

    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                and from_rows(node.value)):
            yield node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS and from_rows(node.func.value)):
            yield node.lineno


def test_row_write_scan_sees_every_form():
    tree = ast.parse(
        "M.rows[0][1] = x\n"
        "M.rows[0] = [x]\n"
        "rows = M.rows\n"
        "rows[1][0] = y\n"
        "del A.rows[0]\n"
        "A.rows[0][0] += 1\n"
        "M.rows[0].append(1)\n"
        "x = M.rows[0][1]\n"
        "out = [[0]]; out[0][0] = 1\n"
        "self._rows[0] = 1\n"
    )
    assert sorted(_row_writes(tree)) == [1, 2, 4, 5, 6, 7]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "linmat"],
                         ids=lambda p: p.name)
def test_only_linmat_writes_rows(path):
    # an exact matrix decodes its rows from integer images on first read,
    # so a write into them would change no entry
    lines = sorted(_row_writes(ast.parse(path.read_text(), filename=str(path))))
    assert not lines, (f"{path.name} writes into .rows at lines {lines}; "
                       "build a list of rows and construct the Matrix once")


def _reads(tree, name):
    """Line numbers where ``tree`` reads ``name``, as a name or an attribute."""
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name)
                and isinstance(node.ctx, ast.Load)):
            yield node.lineno


def test_read_scan_flags_names_and_attributes():
    tree = ast.parse(
        "s = M.max_abs()\n"
        "f = max_abs\n"
        "M.max_abs = None\n"
        "max_abs = 1\n"
        "t = M.max_absolute()\n"
    )
    assert sorted(_reads(tree, "max_abs")) == [1, 2]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "linmat"],
                         ids=lambda p: p.name)
def test_only_linmat_reads_max_abs(path):
    lines = sorted(_reads(ast.parse(path.read_text(), filename=str(path)), "max_abs"))
    assert not lines, (f"{path.name} reads max_abs at lines {lines}; "
                       "judge with linmat.relation or split with degree_components")


def _attribute_reads(tree, attr):
    """Line numbers where ``tree`` reads the attribute ``attr``, with a dot
    or through ``getattr`` with a constant name."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == attr
                and isinstance(node.ctx, ast.Load)):
            yield node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant) and node.args[1].value == attr):
            yield node.lineno


def test_attribute_scan_sees_every_tol_read():
    tree = ast.parse(
        "a = field.tol\n"
        "b = abs(x) <= self.field.tol * 2\n"
        "c = getattr(f, 'tol', 1e-9)\n"
        "field.tol = 1e-7\n"
        "tol = 3\n"
        "d = f.tolerance + tol\n"
    )
    assert sorted(_attribute_reads(tree, "tol")) == [1, 2, 3]


def test_linmat_reads_no_tolerance():
    path = SRC / "linmat.py"
    lines = sorted(_attribute_reads(ast.parse(path.read_text(), filename=str(path)), "tol"))
    assert not lines, (f"linmat.py reads .tol at lines {lines}; "
                       "decide zero by field.is_zero")


def _meq_reads(tree):
    """Line numbers where ``tree`` reads ``_meq``: as a name or an
    attribute, through ``getattr`` with a constant name, or in an import."""
    lines = set(_reads(tree, "_meq")) | set(_attribute_reads(tree, "_meq"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(a.name == "_meq" for a in node.names):
            lines.add(node.lineno)
    return lines


def test_meq_scan_flags_a_planted_access():
    tree = ast.parse(
        "from .linmat import Matrix, _meq\n"
        "ok, w = _meq(A, B)\n"
        "judge = linmat._meq\n"
        "judge = getattr(linmat, '_meq')\n"
        "_meq = None\n"
        "ok = _meq_of(A, B) and relation(lhs, rhs, f)\n"
    )
    assert sorted(_meq_reads(tree)) == [1, 2, 3, 4]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "linmat"],
                         ids=lambda p: p.name)
def test_only_linmat_reads_meq(path):
    lines = sorted(_meq_reads(ast.parse(path.read_text(), filename=str(path))))
    assert not lines, (f"{path.name} reads _meq at lines {lines}; "
                       "state both sides as combine terms for linmat.relation")


#: the attributes of a matrix's store and of its exact encoding
STORE_ATTRS = ("_nz", "_k", "_d", "_w", "_h")
#: store-named attributes a module keeps on its own objects: a Scalar holds
#: its power of q in ``_k`` and its hash in ``_h``; ``scalars`` sits below
#: ``linmat`` and never holds a Matrix
OWN_ATTRS = {"scalars": frozenset(("_k", "_h"))}


def _store_access(tree, attrs):
    """(line, attribute) of every access to one of ``attrs``: a read, a
    write or a delete with a dot, or a ``getattr``/``setattr`` with a
    constant name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in attrs:
            yield node.lineno, node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "setattr") and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant) and node.args[1].value in attrs):
            yield node.lineno, node.args[1].value


def test_store_scan_flags_a_planted_access():
    tree = ast.parse(
        "x = M._nz[0]\n"
        "k = A._k + B._d\n"
        "w = getattr(M, '_w')\n"
        "M._h = 0\n"
        "h, nz = M.h, M.nz\n"
        "_nz = 1\n"
        "setattr(M, '_nz', {})\n"
    )
    assert sorted(_store_access(tree, STORE_ATTRS)) == [
        (1, "_nz"), (2, "_d"), (2, "_k"), (3, "_w"), (4, "_h"), (7, "_nz")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "linmat"],
                         ids=lambda p: p.name)
def test_only_linmat_touches_the_exact_store(path):
    # the store holds only nonzero values, which operations may re-encode
    # in place; entries are read through .rows, nonzero_entries or relation
    attrs = frozenset(STORE_ATTRS) - OWN_ATTRS.get(path.stem, frozenset())
    found = sorted(_store_access(ast.parse(path.read_text(), filename=str(path)), attrs))
    assert not found, (f"{path.name} touches the matrix store at {found}; "
                       "read entries through .rows or nonzero_entries")


#: the only package module that evaluates a Scalar at a sample q0
SPECIALIZE_READERS = frozenset(("scalars",))


def test_read_scan_sees_every_specialize_form():
    tree = ast.parse(
        "from .scalars import specialize\n"
        "x = specialize(s, 2.0)\n"
        "y = scalars.specialize(s, q0)\n"
        "def f(v=specialize): pass\n"
        "specialized = 1\n"
    )
    assert sorted(_reads(tree, "specialize")) == [2, 3, 4]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.stem not in SPECIALIZE_READERS],
                         ids=lambda p: p.name)
def test_specialize_only_in_scalars_and_series(path):
    lines = sorted(_reads(ast.parse(path.read_text(), filename=str(path)), "specialize"))
    assert not lines, (f"{path.name} reads specialize at lines {lines}; "
                       "exact code must not leave Q(q)")


#: (module, enclosing function) of the only numpy imports in the package
NUMPY_IMPORTERS = {("spectra", "_numeric_fit")}


def _numpy_imports(tree):
    """(enclosing module-level function or None, line) per numpy import."""
    for top in tree.body:
        owner = top.name if isinstance(top, _DEFS + (ast.ClassDef,)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(n == "numpy" or n.startswith("numpy.") for n in names):
                yield owner, node.lineno


def test_numpy_scan_sees_every_import_form():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy.linalg import eig\n"
        "import numpyish\n"
        "def fit():\n"
        "    import numpy\n"
        "class K:\n"
        "    def m(self):\n"
        "        from numpy import roots\n"
    )
    assert list(_numpy_imports(tree)) == [(None, 1), (None, 2), ("fit", 5), ("K", 8)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_numpy_only_in_the_numeric_fit(path):
    found = sorted((path.stem, owner, line)
                   for owner, line in _numpy_imports(ast.parse(path.read_text())))
    stray = [f for f in found if f[:2] not in NUMPY_IMPORTERS]
    assert not stray, (f"{path.name} imports numpy at {stray}; "
                       "exact code must not need it")


_NO_NUMPY_RUN = """
import importlib, pkgutil, sys
import qonsager
for info in pkgutil.iter_modules(qonsager.__path__):
    importlib.import_module("qonsager." + info.name)
sys.path.insert(0, sys.argv[1])
from workloads import WORKLOADS
work = WORKLOADS["rank1-shift-T13"]
params = work["variants"][0]
stages = work["verdict"](params, work["setup"](params))
assert all(e[2] for entries in stages.values() for e in entries), stages
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""


def _run_fresh(code, *args):
    """Standard output of ``code`` run in a fresh interpreter on the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code, *args],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_exact_verdict_loads_no_numpy():
    assert _run_fresh(_NO_NUMPY_RUN, str(ROOT / "perfbench")) == "[]"


_NO_NUMPY_NUMERIC_RUN = """
import sys
from qonsager.loopsl2 import EvalParams, build_evaluation, tensor
from qonsager.onsager import OnsagerParams, generate_family, verify_presentation
from qonsager.scalars import NumericField, parse_scalar
from qonsager.spectra import factorization_check
nf = NumericField(1.3)
mod = tensor(*(build_evaluation(EvalParams(n, parse_scalar(a)), window=1, T=6, field=nf)
               for n, a in ((2, "q"), (1, "q^3"))))
fam = generate_family(OnsagerParams(parse_scalar("q^2"), parse_scalar("q^-1"), 0, 0),
                      mod, T=6, R=6)
reports = [verify_presentation(fam, rwin=2, mmax=3), factorization_check(fam, 6)[0]]
assert all(rep.ok for rep in reports), [rep.summary() for rep in reports]
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""


def test_numeric_verdict_loads_no_numpy():
    """The numeric rank-one route (generation, presentation, factorization)
    runs on plain Python numbers.  Importing numpy alone adds about 13.8 MB
    of resident memory (13.0 to 26.8 MB), against a numeric benchmark
    workload that peaks near 33 MB with a 10% memory bound."""
    assert _run_fresh(_NO_NUMPY_NUMERIC_RUN) == "[]"


#: what makes a certified value without its certificate, and the one
#: module-level definition in the package allowed to use it
BYPASS_OWNERS = {"__new__(AffineModule)": "AffineModule",
                 "object.__setattr__": "AffineModule",
                 "LoopData()": "loop_data", "dataclasses.replace": "loop_data"}


def _names(node, name):
    """Whether node is ``name`` or an attribute ``.name``."""
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def _bypasses(tree):
    """(line, bypass) of every use of a BYPASS_OWNERS entry outside its
    owner: a ``__new__`` call on ``AffineModule``, a read of
    ``object.__setattr__`` or ``dataclasses.replace``, a ``LoopData`` call,
    and an import of ``replace`` from ``dataclasses``."""
    for top in tree.body:
        owner = top.name if isinstance(top, _DEFS + (ast.ClassDef,)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and _names(node.func, "__new__"):
                used = "__new__(AffineModule)" if any(
                    _names(a, "AffineModule") for a in node.args) else None
            elif isinstance(node, ast.Call) and _names(node.func, "LoopData"):
                used = "LoopData()"
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and isinstance(node.ctx, ast.Load)):
                used = f"{node.value.id}.{node.attr}"
            elif (isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                    and any(a.name == "replace" for a in node.names)):
                used = "dataclasses.replace"
            else:
                continue
            if used in BYPASS_OWNERS and BYPASS_OWNERS[used] != owner:
                yield node.lineno, used


def test_bypass_scan_flags_a_planted_access():
    tree = ast.parse(
        "from dataclasses import dataclass, replace\n"
        "class AffineModule:\n"
        "    def __setattr__(self, name, value):\n"
        "        object.__setattr__(self, name, value)\n"
        "def loop_data(M):\n"
        "    return LoopData(M, 1, 1)\n"
        "def thaw(M, L):\n"
        "    copy = object.__new__(AffineModule)\n"
        "    object.__setattr__(copy, 'E', {})\n"
        "    deeper = loopsl2.LoopData(M, 2, 2)\n"
        "    return dataclasses.replace(L, T=2), deeper\n"
        "def fresh(cls, M: LoopData):\n"
        "    return object.__new__(cls), loopsl2.AffineModule.__new__(loopsl2.AffineModule)\n"
    )
    assert sorted(_bypasses(tree)) == [
        (1, "dataclasses.replace"), (8, "__new__(AffineModule)"), (9, "object.__setattr__"),
        (10, "LoopData()"), (11, "dataclasses.replace"), (13, "__new__(AffineModule)")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_certificate_bypass_in_the_package(path):
    found = sorted(_bypasses(ast.parse(path.read_text(), filename=str(path))))
    assert not found, (f"{path.name} makes a certified value without its certificate "
                       f"at {found}; build it through its constructor or loop_data")
