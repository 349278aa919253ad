"""Every exported name resolves, so no __all__ lists removed API, no
module imports a name it never uses, only rings imports fractions,
exponent tuples reach from_terms only where a template is drawn, only
groebner reads the inside of a GroebnerBasis, only rings and groebner
read how a polynomial is stored, and every private module-level name
has a reader in the program."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import cremona

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(cremona.__path__))
SOURCES = sorted(Path(cremona.__file__).parent.glob("*.py")) + [
    Path(__file__).parent / "oracles.py"]


@pytest.mark.parametrize("name", ["cremona"] + ["cremona." + m
                                                for m in SUBMODULES])
def test_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def unused_imports(source):
    """Names bound by the imports of a module that no expression reads
    and __all__ does not re-export."""
    tree = ast.parse(source)
    imported = []
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used | exported]


def test_unused_imports_are_found():
    assert unused_imports("import os\nimport a.b\nfrom c import d as e\n"
                          "from __future__ import annotations\n"
                          "__all__ = ['e']\n") == ["os", "a"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source):
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module)
    return out


def test_only_rings_imports_fractions():
    """Polynomials keep Fractions inside rings: every other module works
    on their integer terms and scales."""
    package = Path(cremona.__file__).parent
    users = sorted(path.name for path in package.glob("*.py")
                   if "fractions" in imported_modules(path.read_text()))
    assert users == ["rings.py"]


def from_terms_callers(source):
    """Qualified names of the functions whose bodies call from_terms."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "from_terms"):
                out.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return out


def test_from_terms_callers_are_found():
    assert from_terms_callers("class A:\n    def f(self, r):\n"
                              "        return r.from_terms([])\n"
                              "r.from_terms({})\n") == ["A.f", ""]


def test_from_terms_only_at_the_edges():
    """Polynomials are read and built on packed keys: outside rings,
    only the draw of a template's entries passes exponent tuples."""
    package = Path(cremona.__file__).parent
    callers = sorted((path.stem, name) for path in package.glob("*.py")
                     if path.name != "rings.py"
                     for name in from_terms_callers(path.read_text()))
    assert callers == [("families", "_draw_template")]


def basis_internals_read(source):
    """Lines at which the source reads the attribute _elts or _po, the
    engine terms and packed order inside a GroebnerBasis."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("_elts", "_po"))


def test_basis_internals_read_are_found():
    assert basis_internals_read("po = gb._po\nn = 1\n"
                                "ts = [g.terms for g in gb._elts]\n"
                                "x = gb.polys\n") == [1, 3]


def test_only_groebner_reads_basis_internals():
    """The format of a basis, engine terms on packed keys, is known by
    groebner alone: other modules go through GroebnerBasis and the
    helpers beside it."""
    package = Path(cremona.__file__).parent
    readers = sorted(path.name for path in package.glob("*.py")
                     if basis_internals_read(path.read_text()))
    assert readers == ["groebner.py"]


# a Polynomial's terms and scale, its ring's packed order and unit scale
STORAGE_ATTRS = ("_t", "_s", "_packed", "_unit")
# the rings helpers that build or take apart that stored form
STORAGE_HELPERS = ("_canonical", "_primitive", "_from_sums", "_times",
                   "_packed_order")


def storage_read(source):
    """Lines at which the source reads an attribute of STORAGE_ATTRS or
    imports a name of STORAGE_HELPERS from rings."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in STORAGE_ATTRS:
            out.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").rpartition(".")[2] == "rings"
              and any(a.name in STORAGE_HELPERS for a in node.names)):
            out.append(node.lineno)
    return sorted(out)


def test_storage_reads_are_found():
    assert storage_read("from .rings import PolyRing, _canonical\n"
                        "from .rings import transfer\n"
                        "k = ring._packed\nn = f._s * 2\n"
                        "x = f.terms\nt = g._t\nu = R._unit\n"
                        "from cremona.rings import _times\n"
                        "ok = I.is_unit()\n") == [1, 3, 4, 6, 7, 8]


def test_only_rings_and_groebner_read_polynomial_storage():
    """A polynomial is stored as a scale times integer terms on packed
    keys, and only rings and groebner know it: other modules go through
    Polynomial, PolyRing and the helpers of those two modules."""
    package = Path(cremona.__file__).parent
    readers = sorted(path.name for path in package.glob("*.py")
                     if storage_read(path.read_text()))
    assert readers == ["groebner.py", "rings.py"]


def unreferenced_private_names(sources):
    """module.name of each module-level _name defined in the sources, a
    {module: text} dict, that no Name or attribute reads outside the
    body of its own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name, node) for name in names
                        if name.startswith("_") and not name.startswith("__")]

    def reads(node):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr
                       for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    everywhere = sum(map(reads, trees.values()), Counter())
    return sorted("%s.%s" % (module, name) for module, name, node in defined
                  if everywhere[name] == reads(node)[name])


def test_unreferenced_private_names_are_found():
    sources = {"a": "def _loop():\n    return _loop()\n"
                    "class _Kept:\n    pass\n"
                    "_CONST, _other = 1, 2\n"
                    "def _used():\n    return _other\n",
               "b": "import a\nfrom a import _used\n"
                    "x = _used(a._Kept)\n"}
    assert unreferenced_private_names(sources) == ["a._CONST", "a._loop"]


def test_private_helpers_have_program_callers():
    """A private helper that no program code reaches is dead: tests
    alone do not keep it."""
    package = Path(cremona.__file__).parent
    sources = {path.stem: path.read_text()
               for path in package.glob("*.py")}
    assert unreferenced_private_names(sources) == []
