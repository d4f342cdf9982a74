import ast
import hashlib
import os
from itertools import combinations

import pytest

import coxart

from coxart.diagram import (
    DiagramError,
    finite_type,
    irreducible_components,
    parse_diagram,
    type_diagram,
    INF,
    sort_key,
)
from coxart.folding import build_folded
from coxart.nerve import subdivision
from test_nerve import PINNED_DIAGRAMS


def test_parse_type_shorthand():
    d = parse_diagram("type A 3")
    assert len(d.vertices) == 3
    assert d.m("s1", "s2") == 3 and d.m("s2", "s3") == 3 and d.m("s1", "s3") == 2


def test_parse_vertices_no_edge():
    d = parse_diagram("vertex a; vertex b")
    assert d.m("a", "b") == 2
    assert not d.edges()


def test_parse_label_below_two_rejected():
    with pytest.raises(DiagramError):
        parse_diagram("vertex a; vertex b; edge a b 1")


def test_parse_duplicate_vertex_rejected():
    with pytest.raises(DiagramError):
        parse_diagram("vertex a; vertex a")


def test_parse_unknown_type_rejected():
    with pytest.raises(DiagramError):
        parse_diagram("type Q 3")


def test_parse_label_two_not_stored():
    d = parse_diagram("vertex a; vertex b; edge a b 2")
    assert not d.edges()


def test_parse_inf_label():
    d = parse_diagram("vertex a; vertex b; edge a b inf")
    assert d.m("a", "b") == INF


@pytest.mark.parametrize("text", [
    "vertex s; vertex t; edge s t 3; edge t s 3",
    "vertex s; vertex t; edge s t 2; edge s t inf",
    "type A 3; edge s1 s3 4",
])
def test_parse_second_label_for_a_pair_rejected(text):
    with pytest.raises(DiagramError, match="second label for the pair"):
        parse_diagram(text)


def test_parse_edges_leaving_a_type_line_accepted():
    d = parse_diagram("type A 2; vertex x; edge s2 x 4; edge s1 x 2")
    assert d.m("s2", "x") == 4 and d.m("s1", "x") == 2 and d.m("s1", "s2") == 3


def test_parse_comments():
    d = parse_diagram("# a diagram\nvertex a # trailing\nvertex b\nedge a b 5")
    assert d.m("a", "b") == 5


def test_finite_type_h3():
    rep = finite_type(type_diagram("H", 3))
    assert rep.is_spherical
    assert [c.tag for c in rep.components] == ["H_3"]


def test_finite_type_236_triangle_not_spherical():
    d = parse_diagram(
        "vertex a; vertex b; vertex c; edge a b 3; edge b c 6; edge a c 2"
    )
    assert not finite_type(d).is_spherical
    for pair in (("a", "b"), ("b", "c"), ("a", "c")):
        assert finite_type(d, pair).is_spherical


def test_finite_type_empty_subset():
    d = type_diagram("A", 3)
    rep = finite_type(d, ())
    assert rep.is_spherical and rep.components == ()


def test_finite_type_all_standard_types():
    expected = {
        ("A", 5, None): "A_5",
        ("B", 4, None): "B_4",
        ("D", 6, None): "D_6",
        ("E", 6, None): "E_6",
        ("E", 7, None): "E_7",
        ("E", 8, None): "E_8",
        ("F", 4, None): "F_4",
        ("G", 2, None): "G_2",
        ("H", 4, None): "H_4",
        ("I", 2, 9): "I_2(9)",
    }
    for (fam, n, p), tag in expected.items():
        rep = finite_type(type_diagram(fam, n, p))
        assert rep.is_spherical and rep.components[0].tag == tag


def test_finite_type_recognition_is_isomorphism_invariant():
    # same H_3 shape under scrambled names and declaration order
    d = parse_diagram(
        "vertex zz; vertex q; vertex m; edge m q 3; edge zz m 5"
    )
    rep = finite_type(d)
    assert rep.is_spherical and rep.components[0].tag == "H_3"
    assert rep.components[0].order == ("zz", "m", "q")


def test_affine_shapes_rejected():
    # a cycle is never spherical
    d = parse_diagram(
        "vertex a; vertex b; vertex c; edge a b 3; edge b c 3; edge a c 3"
    )
    assert not finite_type(d).is_spherical
    # B-style path with the 4 in the middle of rank 5 is affine F_4-like
    d = parse_diagram("type F 4")
    big = parse_diagram(
        "vertex a; vertex b; vertex c; vertex d; vertex e;"
        "edge a b 3; edge b c 4; edge c d 3; edge d e 3"
    )
    assert finite_type(d).is_spherical
    assert not finite_type(big).is_spherical


def test_irreducible_components_path_endpoints():
    d = type_diagram("A", 3)
    comps = irreducible_components(d, ("s1", "s3"))
    assert sorted(sorted(c) for c in comps) == [["s1"], ["s3"]]


def test_irreducible_components_d5_connected():
    d = type_diagram("D", 5)
    assert len(irreducible_components(d)) == 1


def test_irreducible_components_b3_far_pair():
    d = type_diagram("B", 3)
    comps = irreducible_components(d, ("s1", "s3"))
    assert len(comps) == 2


def test_irreducible_spherical_messages_of_both_callers():
    # delta_power and complex_on_subsets share one check: irreducibility
    # first, then sphericity, with the same messages
    from coxart.garside import delta_power
    from coxart.nerve import complex_on_subsets

    a3 = type_diagram("A", 3)
    triangle = parse_diagram(
        "vertex a; vertex b; vertex c; edge a b 3; edge b c 3; edge a c 3")
    cases = ((a3, {"s1", "s3"}, "subset ['s1', 's3'] is not irreducible"),
             (triangle, {"a", "b", "c"},
              "subset ['a', 'b', 'c'] is not spherical"))
    for diagram, subset, message in cases:
        for call in (lambda: delta_power(diagram, subset, 2),
                     lambda: complex_on_subsets(diagram, [subset])):
            with pytest.raises(DiagramError) as exc:
                call()
            assert str(exc.value) == message


def test_neighbors_match_a_scan_of_the_labels():
    d = parse_diagram("type E 8; vertex x; edge x s1 inf; vertex y")
    for subset in (None, ("s1", "s3", "s4", "x"), ()):
        keep = set(d.vertices if subset is None else subset)
        for v in d.vertices:
            scanned = {w for pair in d.labels if v in pair
                       for w in pair - {v} if w in keep}
            assert d.neighbors(v, subset) == scanned
    assert d.neighbors("nowhere") == set()
    assert d.neighbors("y") == set()


#: sha256 of the (tag, order) of every `finite_type` component: for a
#: catalogue type, of the whole diagram and then of each irreducible spherical
#: subset by name; for ("fold", ...), of the fold target of that source.
#: Recorded before paths and branches were walked by one helper.
COMPONENT_DIGESTS = {
    ("A", 1, None): "e4f6591903468158a5818eb4f3efc966c522e2023526c8e9ebe1b5c9d93eee65",
    ("A", 2, None): "426555781091ef54ae9596a741cadc6ba145ba909af89cf993fb612fa2f7d4d2",
    ("A", 3, None): "2ebb26ff9a8785973e278d63fe22bbcb9baad8b1d8c613f85a1f3ca7cb30d7be",
    ("A", 4, None): "aa8bcba0f14b2d85e326c56e121805e10db03b6fa4a165119ce2adf46c6fc8e1",
    ("B", 2, None): "6369643a9df627065fa99ce13961ed6b2f201867f27933c546ae2ee5cb3dd6b6",
    ("B", 3, None): "96d2eb5ca7704bae918812afc4d541740c938c97d33b7f194516219a36d57c99",
    ("B", 4, None): "6ce61cca6917b3981e85c656b85fb4fb2985eed719696fd0b67bc33a338f87e7",
    ("D", 4, None): "01e7dd4513e0021f0ad912b828e3072c2dff346da943c5914be9c990b4105525",
    ("F", 4, None): "1e949ba6a3666148629dcbf361dceced03f9fa4212b039dbef39e058e9c57f76",
    ("G", 2, None): "b5f4449ef94a01f6fcfa45ab9f74e0621db142ae9ab84d014cd3943a1f7a2301",
    ("H", 2, None): "d30e3b72e013745dee6d03ca5eb49d1bb3bf3ac69e0e919140bcee234d3512cf",
    ("H", 3, None): "56080a426abd92115d047022d3ee29e7c101f31f94b9babef32003c0e78a02a0",
    ("H", 4, None): "83970b484d4f3cdd36ab4f27af2b170692ba3a0a2861997b9a1a61f9629ac204",
    ("I", 2, 7): "62e8e38d0e7b0d72355bae3b6c6c64d0a6f1e2bf2cb22d78c59bbcb3b2b2d04a",
    ("D", 5, None): "5c4f88a49a6a18b9e8b6665982c6bed528fd96dfd982aee2f516dd68c207142c",
    ("D", 6, None): "42b9fd46b0f5ab7e9e5be6049d815a18340aa16babbc90ae21a4d8443f38772d",
    ("A", 7, None): "7effcb3f4a03f8d9a06e59ad7c624ec9d560879cc22da6ad2d955828aaa5f30c",
    ("E", 6, None): "3dbc14a0a710f760df5ca1f356178157883cb732a026dce417ce8d1ff5c6187f",
    ("E", 7, None): "e7850cd70f677cdf2f832950629009667903b047f884fe54d6e70402021122b6",
    ("E", 8, None): "b71bc2d742e453b45444182577babcd0aa9ad91ac72416010a5b513305bf0297",
    ("fold", "I", 2, 3): "62e5c430150338ceae064ed56e0dffc8adf2b4c9f51a6a826954625486e90692",
    ("fold", "I", 2, 4): "0dba2ff0430c3359f574cf6555d1408a067234796e55d555f41d5788c4200165",
    ("fold", "I", 2, 5): "034b719586029c8d88fd7be630690eaf74c02d876d683291770d84034bd6ee72",
    ("fold", "I", 2, 6): "13f48ed6dd8c2b8f6a65c4fae9fcbc479913a9eea4e2e8a1e3d2f87b38802561",
    ("fold", "B", 3, None): "ee03e0da639350b6e3c710860f25c58ff2955996dca4530d1f5ae46b9dc6c69c",
    ("fold", "H", 3, None): "9daa1d49ca7f585b5e92834cc289af40d92c5580878f114a3ee9294924eb4fd7",
    ("fold", "F", 4, None): "305ce7e00d7ddc9893654020c935de1646a9b8d2140b5cb02fe9c2fdcef23098",
    ("fold", "H", 4, None): "a6ac13a000db75254e6f629825c6f9c3077cb82d44fbdbd4e9927ae54f4f46ec",
}


def _components(diagram, subset=None):
    return [(c.tag, c.order) for c in finite_type(diagram, subset).components]


@pytest.mark.parametrize("key", sorted(COMPONENT_DIGESTS, key=str))
def test_component_orders_pinned(key):
    if key[0] == "fold":
        blob = _components(build_folded(type_diagram(*key[1:])).target)
    else:
        d = type_diagram(*key)
        subsets = subdivision(d).vertex_subsets
        blob = [_components(d)] + [_components(d, subsets[k]) for k in sorted(subsets)]
    assert hashlib.sha256(repr(blob).encode()).hexdigest() == COMPONENT_DIGESTS[key]


# -- the classifier against its earlier edge-scan spelling ----------------------

def _scanned_edges(diagram, keep):
    """[(a, b, m)] of the labels on pairs inside `keep`, each pair in
    sort_key order, the list sorted: every label of the diagram is scanned."""
    out = []
    for pair, m in diagram.labels.items():
        a, b = sorted(pair, key=sort_key)
        if a in keep and b in keep:
            out.append((a, b, m))
    out.sort(key=lambda e: (sort_key(e[0]), sort_key(e[1])))
    return out


def _scanned_chain(diagram, comp, prev, v):
    chain = [v]
    while True:
        nxt = [w for w in diagram.neighbors(chain[-1], comp) if w != prev]
        if not nxt:
            return chain
        prev = chain[-1]
        chain.append(nxt[0])


def _scanned_classify(diagram, comp):
    """The classifier as it read a component's edges off `_scanned_edges`:
    (family, rank, order, p), or None if the component is not spherical."""
    keep, comp = comp, sorted(comp, key=sort_key)
    n = len(comp)
    if n == 1:
        return ("A", 1, tuple(comp), 0)
    if n == 2:
        m = diagram.m(*comp)
        if m == INF:
            return None
        family = {3: "A", 4: "B", 5: "H", 6: "G"}.get(m, "I")
        return (family, 2, tuple(comp), m if family == "I" else 0)
    edges = _scanned_edges(diagram, keep)
    if len(edges) != n - 1 or any(m == INF for _, _, m in edges):
        return None
    big = [(a, b, m) for a, b, m in edges if m >= 4]
    if len(big) > 1 or any(m >= 6 for _, _, m in big):
        return None
    degs = [len(diagram.neighbors(v, keep)) for v in comp]
    if max(degs) > 2:
        if big or max(degs) > 3 or degs.count(3) != 1:
            return None
        center = comp[degs.index(3)]
        branches = sorted(
            (_scanned_chain(diagram, keep, center, v)
             for v in diagram.neighbors(center, keep)),
            key=lambda b: (len(b), sort_key(b[0])))
        lens = tuple(len(b) for b in branches)
        if lens[0] == 1 and lens[1] == 1:
            tail = branches[2][::-1] + [center]
            forks = sorted((branches[0][0], branches[1][0]), key=sort_key)
            return ("D", n, tuple(tail) + tuple(forks), 0)
        if lens[0] == 1 and lens[1] == 2 and lens[2] in (2, 3, 4):
            chain = branches[1][::-1] + [center] + branches[2]
            return ("E", n, tuple(chain) + (branches[0][0],), 0)
        return None
    path = _scanned_chain(diagram, keep, None, comp[degs.index(1)])
    if not big:
        return ("A", n, tuple(path), 0)
    a, b, m = big[0]
    pos = sorted((path.index(a), path.index(b)))
    if m == 4:
        if pos == [n - 2, n - 1]:
            return ("B", n, tuple(path), 0)
        if pos == [0, 1]:
            return ("B", n, tuple(path[::-1]), 0)
        if n == 4 and pos == [1, 2]:
            order = path if sort_key(path[0]) < sort_key(path[-1]) else path[::-1]
            return ("F", 4, tuple(order), 0)
        return None
    if n > 4:
        return None
    if pos == [0, 1]:
        return ("H", n, tuple(path), 0)
    if pos == [n - 2, n - 1]:
        return ("H", n, tuple(path[::-1]), 0)
    return None


def _finite_types(diagram, subset):
    """finite_type's components as (family, rank, order, p), else None."""
    report = finite_type(diagram, subset)
    return tuple(map(tuple, report.components)) if report.is_spherical else None


def _scanned_finite_types(diagram, subset):
    types = tuple(_scanned_classify(diagram, c)
                  for c in irreducible_components(diagram, subset))
    return None if None in types else types


#: E_8 beside an inf-labelled triangle, joined to it by inf and 5: labels
#: outside a subset of E_8's vertices that no such subset may see
E8_AND_A_CYCLE = ("type E 8; vertex x; vertex y; vertex z; edge x y inf; "
                  "edge y z 3; edge x z 3; edge x s1 inf; edge z s8 5")


@pytest.mark.parametrize("source", list(PINNED_DIAGRAMS.values()) + [E8_AND_A_CYCLE] + [
    "type %s %d%s" % (key[0], key[1], "" if key[2] is None else " %d" % key[2])
    for key in COMPONENT_DIGESTS if key[0] != "fold"])
def test_finite_type_matches_the_edge_scan_on_every_subset(source):
    d = parse_diagram(source)
    for r in range(len(d.vertices) + 1):
        for subset in combinations(d.vertices, r):
            assert _finite_types(d, subset) == _scanned_finite_types(d, subset), subset


def test_labels_outside_a_subset_leave_its_type_alone():
    d, e8 = parse_diagram(E8_AND_A_CYCLE), type_diagram("E", 8)
    for r in range(9):
        for subset in combinations(e8.vertices, r):
            assert _finite_types(d, subset) == _finite_types(e8, subset), subset
    assert _finite_types(d, ("x", "y", "z")) is None
    assert _finite_types(d, ("s1", "x")) is None and _finite_types(d, ("s8", "z")) == (
        ("H", 2, ("z", "s8"), 0),)


def test_subset_names_round_trip_and_plus_names_are_refused():
    from coxart.diagram import CoxeterDiagram, name_subset, subset_name
    from coxart.raag import RaagError, complex_from_json

    for subset in ({"s1"}, {"s2", "s10", "s1"}, {"a~1", "b~2"}):
        assert name_subset(subset_name(subset)) == frozenset(subset)
    # the singleton {s1+s2} and the pair {s1, s2} would share one name
    with pytest.raises(DiagramError, match=r"^vertex name 's1\+s2' holds '\+'"):
        parse_diagram("vertex s1; vertex s2; vertex s1+s2; edge s1 s2 3")
    with pytest.raises(DiagramError, match=r"'\+b'"):
        CoxeterDiagram(("a", "+b"), {})
    with pytest.raises(RaagError, match=r"^vertex name 'a\+b' holds '\+'"):
        complex_from_json({"vertices": ["a", "b", "a+b"], "edges": [["a", "b"]]})


def _plus_splits_and_joins(tree):
    """The calls in `tree` that join on "+" or split on it."""
    def is_plus(node):
        return isinstance(node, ast.Constant) and node.value == "+"
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and (node.func.attr == "join" and is_plus(node.func.value)
                 or node.func.attr in ("split", "rsplit", "partition", "rpartition")
                 and node.args and is_plus(node.args[0]))]


def test_only_the_diagram_module_spells_subset_names():
    # subset_name and name_subset own the "+"-joined format of subset names
    src = os.path.dirname(coxart.__file__)
    found = {}
    for module in sorted(os.listdir(src)):
        if module.endswith(".py"):
            with open(os.path.join(src, module)) as fh:
                found[module] = _plus_splits_and_joins(ast.parse(fh.read(), module))
    assert len(found.pop("diagram.py")) == 2  # the detector sees the owner's pair
    assert not any(found.values()), found
