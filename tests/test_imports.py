"""Every name a library module imports is used in that module, and every
public function or class a library module defines, and every method but a
dunder of a library class, is read by the library; and no public function
or method hands one of its parameters to a one-argument ``Fraction``.

``__init__.py`` is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "effmeas"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that nothing reads.

    A name counts as read where it appears as an expression, also inside an
    annotation written as a string.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_the_check_sees_an_unused_import():
    source = "from typing import Union, Optional\nimport os\n\ndef f(x: 'Optional[int]'):\n    return x\n"
    assert unused_imports(source) == ["Union", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# Public names no library module reads, each kept for the role its comment
# gives.  A name leaves this list when a module starts to read it or when it
# is deleted; the gate fails on a stale entry as on a missing one.
UNREAD_KEPT = {
    # read by tests/test_acceptance.py
    "make_cauchy",
    "closed_neighborhood",
    "dist_point_to_closed",
    # independent oracles, and the paper's enumeration of almost decidable balls
    "prokhorov_discrete_bruteforce",
    "almost_decidable_ball",
    "almost_decidable_cover",
    # read by perfbench
    "uniformize_vague",
    "limit_from_vague",
    "supported_from_poly",
    # the inverses of the file parsers
    "serialize_measure",
    "serialize_function",
    "serialize_modulus",
    # the inverses of the code decoders; codes.py leaves with perfbench's
    # import of it (ROADMAP items 6 and 22)
    "encode_open_interval",
    "encode_pair_code",
    # the semi-decision of membership in an open set, which ROADMAP item 6
    # plans to benchmark
    "sigma_member",
    # the right-c.e. reals, LowerReal's mirror on the same class body
    "UpperReal",
    # the hat-shaped test function, beside the tents and trapezoids the
    # converters build
    "hat_function",
}


def _read_names(trees) -> set[str]:
    """The names every ``Name`` and ``Attribute`` in ``trees`` reads."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def unread_public_names(sources: list[str]) -> list[str]:
    """The public top-level functions and classes defined in ``sources`` that
    no ``Name`` or ``Attribute`` in any of them reads."""
    trees = [ast.parse(source) for source in sources]
    defined = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]
    read = _read_names(trees)
    return sorted(name for name in defined if name not in read)


def test_the_check_sees_an_unread_function():
    used = "def used():\n    return 1\n\nclass Kept:\n    pass\n"
    reader = "from .a import used\nimport m\n\ndef _private():\n    return used() + m.Kept\n"
    planted = "def planted():\n    return 2\n"
    assert unread_public_names([used, reader]) == []
    assert unread_public_names([used, reader, planted]) == ["planted"]


def test_every_public_name_has_a_reader():
    unread = unread_public_names([path.read_text() for path in MODULES])
    assert set(unread) == UNREAD_KEPT


# Methods, as ``Class.method``, whose name no library module reads, each kept
# for the role its comment gives; stale entries fail as missing ones do.
UNREAD_METHODS_KEPT = {
    # the Cauchy name of mu(R): a computable total mass is the paper's
    # criterion for a computable vague limit (ROADMAP item 13 reads it)
    "Measure.total_mass_real",
    "ReconstructedMeasure.total_mass_real",
    # mu(U) from below for an effectively open U, the paper's primitive of a
    # computable measure
    "Measure.open_mass",
    "ReconstructedMeasure.open_mass",
    "LazyDiscreteMeasure.open_mass",
    # the uniform density the tests build
    "PolyDensityMeasure.uniform",
    # the almost-decidability test the suite runs on a pair
    "AlmostDecidablePair.check",
    # how many elements a stream has pulled, read by perfbench/spans.py
    "Stream.pulled",
}


def unread_methods(sources: list[str]) -> list[str]:
    """``Class.method`` for each method but a dunder of a top-level class in
    ``sources`` whose name no ``Attribute`` in any of them reads.  A bare
    ``Name`` does not count: a method is read as ``obj.method``, and a local
    function of the same name is not a reader of it."""
    trees = [ast.parse(source) for source in sources]
    read = {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return sorted(
        f"{cls.name}.{node.name}"
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
    )


def test_the_check_sees_an_unread_method():
    kept = "class Kept:\n    def __init__(self):\n        self.used()\n\n    def used(self):\n        return 1\n"
    planted = "class Planted:\n    def _planted(self):\n        return 2\n"
    assert unread_methods([kept]) == []
    assert unread_methods([kept, planted]) == ["Planted._planted"]
    # a local function, and a call of it, named as the method read nothing
    local = "def build():\n    def _planted():\n        return 3\n\n    return _planted()\n"
    assert unread_methods([kept, planted, local]) == ["Planted._planted"]


def test_every_method_has_a_reader():
    unread = unread_methods([path.read_text() for path in MODULES])
    assert set(unread) == UNREAD_METHODS_KEPT


def parameters_taken_by_fraction(source: str) -> list[str]:
    """``function(parameter)``, or ``Class.method(parameter)``, for each public
    top-level function, or method of a top-level class but a private one,
    that passes one of its own parameters to a one-argument ``Fraction(...)``.
    That call takes a float at its binary value; a public rational input goes
    through ``reals._fraction``, which refuses it."""
    tree = ast.parse(source)
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = [(node.name, node) for node in tree.body if isinstance(node, funcs)]
    defs += [
        (f"{cls.name}.{node.name}", node)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, funcs)
    ]
    found = set()
    for name, fn in defs:
        if fn.name.startswith("_") and not fn.name.endswith("__"):
            continue
        params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Fraction"
                and len(node.args) == 1
                and not node.keywords
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in params
            ):
                found.add(f"{name}({node.args[0].id})")
    return sorted(found)


def test_the_check_sees_a_parameter_taken_by_fraction():
    kept = (
        "class Kept:\n"
        "    def __init__(self, q):\n        self.q = _fraction(q)\n\n"
        "    def _private(self, q):\n        return Fraction(q)\n\n"
        "    def scaled(self, q, k):\n        return Fraction(q, k) + Fraction(k * q) + Fraction(1)\n\n"
        "def _private(q):\n    return Fraction(q)\n"
    )
    planted = (
        "class Planted:\n    def __post_init__(self, r):\n        self.r = Fraction(r)\n\n"
        "def public(a, b):\n    def inner():\n        return Fraction(b)\n\n    return inner()\n"
    )
    assert parameters_taken_by_fraction(kept) == []
    assert parameters_taken_by_fraction(kept + "\n\n" + planted) == ["Planted.__post_init__(r)", "public(b)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_public_parameter_taken_by_fraction(path):
    assert parameters_taken_by_fraction(path.read_text()) == []
