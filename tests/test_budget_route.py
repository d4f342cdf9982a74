"""Guards that the letter budget has one route: no function takes a `budget`
parameter, `letter_budget` is read only by the Garside layer and the CLI, only
the CLI sets RUN_BUDGET, and every count that is not a word's letters meets
the budget through `garside.check_size`, past the one floor it names."""

import ast
import os

import pytest

from coxart import garside
from coxart.cli import _load_group
from coxart.curves import build_an
from coxart.diagram import type_diagram
from coxart.folding import build_folded
from coxart.homology import reflection_labels
from coxart.nerve import spherical_subsets
from coxart.raag import FlagComplex, WordSystem, enumerate_reduced_words, pp_search_all
from coxart.wgroup import build_group

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


def test_only_garside_names_the_floor():
    names = {"SIZE_FLOOR", "DEFAULT_LETTER_BUDGET"}
    found = sorted(
        "%s:%d" % (module, node.lineno)
        for module, tree in _trees().items() if module != "garside.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.alias) and node.name in names
    )
    assert not found, found


def test_a_count_that_is_not_letters_meets_the_budget_through_check_size():
    # check_budget names its count only for check_size; elsewhere it reads letters
    found = sorted(
        "%s:%d" % (module, node.lineno)
        for module, tree in _trees().items() if module != "garside.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called(node) == "check_budget"
        and len(node.args) + len(node.keywords) > 2
    )
    assert not found, found


_STU = WordSystem(FlagComplex("stu", [("s", "t"), ("t", "u"), ("s", "u")]), {
    frozenset("stu"): [("s", 1), ("t", 1), ("u", 1)],
    frozenset("st"): [("s", 1), ("t", 1)],
})


#: each layer that bounds a count that is not letters: its name, its message
#: and a call that reaches `count`
_SIZES = [
    ("coxeter group", "group of %d roots", 12, lambda: _load_group("type A 3")),
    # N = 4 fiber copies of 2 generators
    ("fold", "fold of %d generators", 8, lambda: build_folded(type_diagram("I", 2, 5))),
    ("reflection labels", "table of %d root images", 98,
     lambda: reflection_labels(build_group(type_diagram("I", 2, 7)), [0])),
    # A_3's 7 spherical subsets hold 3 + 6 + 3 letters
    ("nerve walk", "lattice holding %d vertex letters", 12,
     lambda: spherical_subsets(type_diagram("A", 3))),
    ("word enumeration", "walk of %d words", 52,
     lambda: list(enumerate_reduced_words(FlagComplex("ab", []), 3))),
    ("pp search", "search of %d choice pairs", 6, lambda: list(pp_search_all(_STU))),
    # A_3's 7 interval curves
    ("curve system", "system of %d curve pairs", 21, lambda: build_an(3)),
]


@pytest.mark.parametrize("layer, what, count, call", _SIZES, ids=[s[0].replace(" ", "-") for s in _SIZES])
def test_a_count_at_the_floor_passes_and_one_past_it_is_refused(
        monkeypatch, layer, what, count, call):
    token = garside.RUN_BUDGET.set(1)
    try:
        monkeypatch.setattr(garside, "SIZE_FLOOR", count)
        call()
        monkeypatch.setattr(garside, "SIZE_FLOOR", count - 1)
        with pytest.raises(garside.BudgetExceeded) as info:
            call()
    finally:
        garside.RUN_BUDGET.reset(token)
    assert str(info.value) == "%s: %s exceeds the letter budget 1" % (layer, what % count)
