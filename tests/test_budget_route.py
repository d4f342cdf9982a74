"""Static guards that the letter budget has one route: no function takes a
`budget` parameter, `letter_budget` is read only by the Garside layer and the
CLI, and only the CLI sets RUN_BUDGET."""

import ast
import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src", "coxart")


def _trees():
    out = {}
    for name in sorted(os.listdir(_SRC)):
        if name.endswith(".py"):
            with open(os.path.join(_SRC, name)) as fh:
                out[name] = ast.parse(fh.read(), name)
    return out


def _called(node):
    """The name a call node calls, bare or as an attribute."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_no_function_takes_a_budget():
    found = sorted(
        "%s:%d %s" % (module, node.lineno, node.name)
        for module, tree in _trees().items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and any(a.arg == "budget" for a in ast.walk(node.args) if isinstance(a, ast.arg))
    )
    assert not found, found


def test_letter_budget_is_read_by_garside_and_cli_only():
    callers = {module for module, tree in _trees().items() for node in ast.walk(tree)
               if isinstance(node, ast.Call) and _called(node) == "letter_budget"}
    assert callers == {"garside.py", "cli.py"}


def test_run_budget_is_set_by_the_cli_only():
    setters = {module for module, tree in _trees().items() for node in ast.walk(tree)
               if isinstance(node, ast.Call) and _called(node) == "set"
               and isinstance(node.func, ast.Attribute)
               and isinstance(node.func.value, ast.Name)
               and node.func.value.id == "RUN_BUDGET"}
    assert setters == {"cli.py"}
