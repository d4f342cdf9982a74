"""Static guards against dead code in the package: every function or method
it defines is used by the package or the benchmark, and every name a module
imports is used in that module.  Tests do not count as users, and neither
does an export in `__all__`."""

import ast
import os

import coxart

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src", "coxart")


def _trees(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name)) as fh:
                out[name] = ast.parse(fh.read(), name)
    return out


def _used_names(tree):
    """Identifiers read as a bare name or as an attribute; strings and
    comments do not count."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_function_is_used():
    src = _trees(_SRC)
    used = set()
    for tree in list(src.values()) + list(_trees(os.path.join(_ROOT, "perfbench")).values()):
        used |= _used_names(tree)
    unused = sorted(
        "%s:%d %s" % (module, node.lineno, node.name)
        for module, tree in src.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    )
    assert not unused, unused


def test_every_import_is_used():
    unused = []
    for module, tree in _trees(_SRC).items():
        used = _used_names(tree)
        exported = set(coxart.__all__) if module == "__init__.py" else set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used and bound not in exported:
                        unused.append("%s:%d %s" % (module, node.lineno, bound))
    assert not unused, unused
