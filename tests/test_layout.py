"""Static checks of the package's modules, read from their source with ``ast``.

No route borrows from another (README "Layout"):

* ``oracle``, ``partitions`` (the middle) and ``sampler`` import no
  module of the package except the shared leaf ``series``;
* ``series`` imports none;
* the rhs code in ``verify`` (``RHS_ROOTS`` and every definition of
  ``verify`` that they read, followed to the end) reads no name that
  ``verify`` imports from ``oracle``, ``partitions`` or ``sampler``.

These hold for every (q, N), where ``TestRouteIndependence`` in
``test_verify.py`` records the calls of one run.  Every name a module
imports is also read in it, or listed in ``__all__`` of ``__init__.py``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "clpartitions"
LEAF = "series"
ROUTES = ("oracle", "partitions", "sampler")
RHS_ROOTS = (
    "eq1_rhs_series",
    "eq2_rhs_series",
    "sum_wellknown_identity_lhs",
    "pochhammer_infinite_u_over_q",
)


def _sources():
    """Module name -> source text, for every module of the package."""
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _imports(tree):
    """(bound name, package module or None) of every import in *tree*.

    The module is None for an import from outside the package, and
    ``from __future__`` imports bind nothing.
    """
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                module = rest.partition(".")[0] or "__init__"
                if top != "clpartitions":
                    module = None
                bound.append((alias.asname or top, module))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            path = node.module or ""
            if node.level == 0:
                top, _, path = path.partition(".")
                if top != "clpartitions":
                    bound.extend((a.asname or a.name, None) for a in node.names)
                    continue
            for alias in node.names:
                module = path.partition(".")[0] or alias.name
                bound.append((alias.asname or alias.name, module))
    return bound


def _read_names(node):
    """Every name that *node* loads, its annotations included."""
    return {
        n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _definitions(tree):
    """Top-level name -> the statement that binds it (def, class or assignment)."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node
    return defined


def route_violations(sources):
    """Each breach of the three route rules in *sources*, as one line."""
    found = []
    for name in (*ROUTES, LEAF):
        allowed = set() if name == LEAF else {LEAF}
        imported = {m for _, m in _imports(ast.parse(sources[name]))} - {None}
        found.extend(f"{name} imports {m}" for m in sorted(imported - allowed))
    tree = ast.parse(sources["verify"])
    borrowed = {n: m for n, m in _imports(tree) if m in ROUTES}
    defined = _definitions(tree)
    seen, todo = set(), list(RHS_ROOTS)
    while todo:
        function = todo.pop()
        if function in seen:
            continue
        seen.add(function)
        if function not in defined:
            found.append(f"verify defines no {function}")
            continue
        for read in sorted(_read_names(defined[function])):
            if read in borrowed:
                found.append(
                    f"verify.{function} reads {read}, imported from {borrowed[read]}"
                )
            elif read in defined:
                todo.append(read)
    return found


def dead_imports(name, source):
    """The names that module *name* imports and never reads."""
    tree = ast.parse(source)
    used = _read_names(tree)
    if name == "__init__":
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
    return sorted({bound for bound, _ in _imports(tree)} - used)


def test_no_route_borrows_from_another():
    assert route_violations(_sources()) == []


# module, text replaced, replacement, the one violation it must raise
FAULTS = {
    "rhs-calls-a-middle": (
        "verify",
        "    return list(accumulate(sums))\n",
        "    return list(accumulate(sums)) or eq1_middle_series(q, order)\n",
        "verify.eq1_rhs_series reads eq1_middle_series, imported from partitions",
    ),
    "rhs-helper-reads-the-weight-series": (
        "verify",
        "    euler = pochhammer_infinite_u_over_q(q, order)\n",
        "    euler = middle_series(q, order)[2]\n",
        "verify._inverse_euler reads middle_series, imported from partitions",
    ),
    "rhs-reads-a-route-module": (
        "verify",
        "    _, b, ps = _pochhammer_numerators(q, order)\n",
        "    _, b, ps = _pochhammer_numerators(q, order)\n"
        "    partitions.aut_order\n",
        "verify.pochhammer_infinite_u_over_q reads partitions, "
        "imported from partitions",
    ),
    "oracle-imports-the-middle": (
        "oracle",
        "from .series import Partition\n",
        "from .partitions import Partition\n",
        "oracle imports partitions",
    ),
    "sampler-imports-the-oracle-absolutely": (
        "sampler",
        "from .series import Partition, Rational\n",
        "from .series import Partition, Rational\nimport clpartitions.oracle\n",
        "sampler imports oracle",
    ),
    "leaf-imports-a-route": (
        "series",
        "from typing import Sequence, Union\n",
        "from typing import Sequence, Union\n\nfrom . import sampler\n",
        "series imports sampler",
    ),
    "rhs-renamed-away": (
        "verify",
        "def sum_wellknown_identity_lhs(",
        "def sum_wellknown_identity_lhs_moved(",
        "verify defines no sum_wellknown_identity_lhs",
    ),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_guard_names_each_violation(fault):
    module, old, new, violation = FAULTS[fault]
    sources = _sources()
    assert sources[module].count(old) == 1
    sources[module] = sources[module].replace(old, new)
    assert route_violations(sources) == [violation]


@pytest.mark.parametrize("name", sorted(_sources()))
def test_every_import_is_read(name):
    assert dead_imports(name, _sources()[name]) == []


@pytest.mark.parametrize(
    "name, source, dead",
    [
        ("verify", "import operator\nfrom . import oracle\noracle.P\n", ["operator"]),
        (
            "__init__",
            "from .series import Partition, power\n__all__ = ['power']\n",
            ["Partition"],
        ),
        ("cli", "from __future__ import annotations\nimport os.path\nos.sep\n", []),
    ],
)
def test_dead_import_is_named(name, source, dead):
    assert dead_imports(name, source) == dead
