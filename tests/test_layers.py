"""Static guard on the layer order of the package: a module imports, by a
relative import, only modules that come before it in LAYERS."""

import ast
import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src", "coxart")

#: the package's modules, lowest layer first
LAYERS = ("diagram", "wgroup", "garside", "raag", "nerve", "homology", "folding",
          "curves", "suites", "cli")


def _relative_imports(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.lineno, node.module.split(".")[0]
            else:  # from . import name
                for alias in node.names:
                    yield node.lineno, alias.name


def test_every_module_has_a_layer():
    modules = {name[:-3] for name in os.listdir(_SRC)
               if name.endswith(".py") and name != "__init__.py"}
    assert sorted(modules - set(LAYERS)) == []


def test_imports_point_down_the_layers():
    upward = []
    for name in sorted(os.listdir(_SRC)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        module = name[:-3]
        below = LAYERS[:LAYERS.index(module)] if module in LAYERS else ()
        for lineno, target in _relative_imports(os.path.join(_SRC, name)):
            if target not in below:
                upward.append("%s:%d imports %s" % (name, lineno, target))
    assert upward == []
