"""coxart's records and suite options, built without `dataclasses` or
`inspect`: what importing coxart loads, how records compare, hash and
refuse assignment, and which option names `run_suite` accepts."""

import inspect
import os
import subprocess
import sys

import pytest

import coxart
from coxart import suites
from coxart.cli import main
from coxart.diagram import ComponentType, CoxeterDiagram, type_diagram
from coxart.garside import delta_word
from coxart.homology import H1Vector
from coxart.raag import ChoiceMap, FlagComplex


def test_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import coxart, coxart.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n")
    src = os.path.dirname(os.path.dirname(coxart.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_flag_complex_compares_vertices_and_neighbours():
    a = FlagComplex("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    b = FlagComplex("dcba", [("d", "c"), ("c", "b"), ("b", "a")])
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != FlagComplex("abcd", [("a", "b"), ("b", "c")])
    assert a != FlagComplex("abce", [("a", "b"), ("b", "c"), ("c", "e")])
    assert a != (a.vertices, a.neighbours)
    assert len({a, b}) == 1
    assert repr(a) == ("FlagComplex(vertices=('a', 'b', 'c', 'd'), "
                       "neighbours=(2, 5, 10, 4))")


def test_coxeter_diagram_compares_vertices_and_labels_and_is_unhashable():
    d = type_diagram("B", 3)
    assert d == CoxeterDiagram(d.vertices, dict(d.labels))
    assert d != type_diagram("A", 3) and d != type_diagram("B", 3, prefix="t")
    assert d != (d.vertices, d.labels)
    with pytest.raises(TypeError):
        hash(d)
    assert repr(CoxeterDiagram(("a",), {})) == "CoxeterDiagram(vertices=('a',), labels={})"


def test_a_filled_word_table_is_invisible_to_equality_and_repr():
    d = type_diagram("D", 5)
    shown = repr(d)
    for subset in (None, ("s1", "s2"), ("s3", "s4", "s5")):
        delta_word(d, subset, 2)
    assert len(d._longest_words) == 3
    fresh = type_diagram("D", 5)
    assert d == fresh and not d != fresh
    assert fresh == d and fresh._longest_words == {}
    assert repr(d) == shown == repr(fresh)


def test_tuple_records_compare_and_hash_by_their_fields():
    t = ComponentType("A", 2, ("s1", "s2"))
    assert t == ComponentType("A", 2, ("s1", "s2"), p=0) and t.p == 0
    assert hash(t) == hash(ComponentType("A", 2, ("s1", "s2")))
    assert t != ComponentType("I", 2, ("s1", "s2"), p=3)
    assert repr(t) == "ComponentType(family='A', rank=2, order=('s1', 's2'), p=0)"
    v = H1Vector.from_dict({3: 1, 0: -2, 5: 0})
    assert v == H1Vector(((0, -2), (3, 1))) and hash(v) == hash(H1Vector(v.coeffs))
    assert v != H1Vector(((0, -2),))
    assert v.as_dict() == {0: -2, 3: 1}
    cm = ChoiceMap({frozenset("ab"): "a"})
    assert cm == ChoiceMap({frozenset("ba"): "a"}) != ChoiceMap({frozenset("ab"): "b"})
    assert cm.assignment == {frozenset("ba"): "a"}
    with pytest.raises(TypeError):  # its assignment is a dict
        hash(cm)


@pytest.mark.parametrize("record, field", [
    (FlagComplex("ab", [("a", "b")]), "vertices"),
    (FlagComplex("ab", [("a", "b")]), "_index"),
    (type_diagram("A", 2), "labels"),
    (ComponentType("A", 1, ("s1",)), "rank"),
    (H1Vector(()), "coeffs"),
    (ChoiceMap({}), "assignment"),
])
def test_immutable_records_refuse_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        setattr(record, "new_field", None)
    with pytest.raises(AttributeError):
        delattr(record, field)


def _accepts(name, key):
    """Whether run_suite reads the option `key` of suite `name`.  An unread
    key that sorts after every identifier rides along, so the call stops
    with a usage error before any check runs, naming `key` if it is unread."""
    with pytest.raises(ValueError, match="reads no option") as exc:
        suites.run_suite(name, {key: None, "~unread": None})
    return "'~unread'" in str(exc.value)


@pytest.mark.parametrize("name", suites.SUITES)
def test_run_suite_accepts_exactly_the_keyword_parameters(name, capsys):
    suite = suites._SUITE_FUNCS[name]
    params = {p.name for p in inspect.signature(suite).parameters.values()
              if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)}
    # the generator's locals share its code object's names with its parameters
    candidates = params | set(suite.__code__.co_varnames) | {"seed", "config"}
    assert {key for key in candidates if _accepts(name, key)} == params
    assert main(["verify", name, "--config", '{"no_such_option": 1}']) == 2
    err = capsys.readouterr().err
    assert err == "error: suite %s reads no option 'no_such_option'\n" % name
