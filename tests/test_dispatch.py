"""A measure class is dispatched in its own methods, not by ``isinstance``.

What a measure can answer lives in the :class:`~effmeas.measures.Measure`
protocol.  An ``isinstance`` test against a ``Measure`` class is allowed
only where the class itself is the question: the discrete-only guards of
``prokhorov_discrete`` and ``eps_from_weak``, the file writer's choice of
format, and the CLI's choice between an exact distance and a bracket.

A function's kind is fixed by the contract of its consumer: a vague oracle
takes a ``PolyFunc``, :func:`~effmeas.convergence.uniformize_vague` a
``SupportedFunc``.  The one place that takes either kind of name, and so
tests it, is :func:`~effmeas.measures.integrate_named`.
"""

import ast
from pathlib import Path

import effmeas  # noqa: F401  (imports every module, so every Measure class exists)
from effmeas.measures import Measure

SRC = Path(__file__).resolve().parents[1] / "src" / "effmeas"
ALLOWED = {"prokhorov_discrete", "eps_from_weak", "serialize_measure", "cmd_prokhorov"}
FUNCTION_CLASSES = {"SupportedFunc", "CompactOpenName", "PolyFunc"}


def measure_class_names() -> set[str]:
    """The names of ``Measure`` and of every class derived from it."""
    names, todo = set(), [Measure]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


def measure_dispatch_sites(source: str, classes: set[str]) -> list[tuple[str, int]]:
    """(enclosing function, line) of each ``isinstance(_, C)`` in ``source``
    whose ``C``, or a member of a tuple ``C``, is one of the names ``classes``;
    the function is the innermost ``def`` around the call, or ``<module>``."""

    def is_measure_class(node: ast.AST) -> bool:
        if isinstance(node, ast.Tuple):
            return any(is_measure_class(e) for e in node.elts)
        return isinstance(node, ast.Name) and node.id in classes

    sites = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and is_measure_class(node.args[1])
        ):
            sites.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sites


def test_the_check_sees_a_dispatch_site():
    source = (
        "def bounds(mu):\n"
        "    e = sum(not isinstance(m, DiscreteMeasure) for m in mu)\n"
        "    return isinstance(mu, (int, PolyDensityMeasure)) or isinstance(mu, int)\n"
    )
    assert measure_dispatch_sites(source, measure_class_names()) == [("bounds", 2), ("bounds", 3)]


def test_measure_classes_are_dispatched_only_where_the_class_is_the_question():
    classes = measure_class_names()
    assert {"DiscreteMeasure", "PolyDensityMeasure", "ReconstructedMeasure"} <= classes
    stray = []
    for path in sorted(SRC.glob("*.py")):
        for owner, line in measure_dispatch_sites(path.read_text(), classes):
            if owner not in ALLOWED:
                stray.append(f"{path.name}:{line} in {owner}")
    assert stray == []


def test_function_kinds_are_dispatched_only_in_integrate_named():
    owners = [
        (path.name, owner)
        for path in sorted(SRC.glob("*.py"))
        for owner, _ in measure_dispatch_sites(path.read_text(), FUNCTION_CLASSES)
    ]
    assert owners == [("measures.py", "integrate_named")]
