"""The package names that the benchmark reaches, read from `benchmarks/`
by `ast`: every `Target(...)` of `benchmarks/layers.py`, every
`supertransform` import of `benchmarks/*.py` and every attribute taken
from a package module bound by those imports must resolve.  A rename or
a deletion in the package then fails here, not only in the benchmark's
traced run.  The benchmark's files are read, never imported or changed.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
PACKAGE = "supertransform"


def _in_package(dotted):
    return dotted.split(".")[0] == PACKAGE


def _targets(tree):
    """(module, attr) of every Target(name, module, attr, ...) call on a
    package module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and getattr(node.func, "id", None) == "Target":
            module, attr = (ast.literal_eval(arg) for arg in node.args[1:3])
            if _in_package(module):
                yield module, attr


def _dotted(node):
    """'a.b.c' for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def _imports(tree):
    """(module, attr) of every package import, and of every attribute
    chain taken from a name that such an import binds to a module."""
    bound = {}                          # local name -> dotted module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _in_package(node.module):
            for alias in node.names:
                yield node.module, alias.name
                bound[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _in_package(alias.name):
                    yield alias.name, ""
                    bound[alias.asname or PACKAGE] = \
                        alias.name if alias.asname else PACKAGE
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        if chain:
            head, _, rest = chain.partition(".")
            if head in bound and _is_module(bound[head]):
                yield bound[head], rest


def _is_module(dotted):
    try:
        importlib.import_module(dotted)
    except ImportError:
        return False
    return True


def _resolve(module, attr):
    """The object `from module import attr` (dotted attr: then its
    attributes in turn) would bind; a submodule is imported."""
    obj = importlib.import_module(module)
    for part in filter(None, attr.split(".")):
        if inspect.ismodule(obj) and not hasattr(obj, part):
            obj = importlib.import_module(f"{obj.__name__}.{part}")
        else:
            obj = getattr(obj, part)
    return obj


def _names():
    names = set()
    for path in sorted(BENCHMARKS.glob("*.py")):
        tree = ast.parse(path.read_text())
        names.update(_imports(tree))
        if path.name == "layers.py":
            names.update(_targets(tree))
    return sorted(names)


NAMES = _names()


def test_the_scan_sees_targets_imports_and_attribute_chains():
    assert {("supertransform.superalg", "sp_rename"),
            ("supertransform.superalg", "sp_mul"),
            ("supertransform.scalars", "ExactScalar.__mul__"),
            ("supertransform.fourier", "parseval_check"),
            ("supertransform.cli", "_render_radon"),
            ("supertransform.fourier", "super_fourier")} <= set(NAMES)


@pytest.mark.parametrize("module, attr", NAMES,
                         ids=[f"{m}:{a}" for m, a in NAMES])
def test_benchmark_names_resolve(module, attr):
    _resolve(module, attr)
