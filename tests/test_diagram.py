import pytest

from coxart.diagram import (
    DiagramError,
    cone_diagram,
    finite_type,
    irreducible_components,
    parse_diagram,
    type_diagram,
    INF,
)


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


def test_cone_over_empty():
    d = type_diagram("A", 2)
    coned = cone_diagram(d, (), "c")
    assert coned.m("c", "s1") == INF and coned.m("c", "s2") == INF


def test_cone_over_singleton():
    d = type_diagram("A", 2)
    coned = cone_diagram(d, ("s1",), "c")
    assert coned.m("c", "s1") == 2
    assert coned.m("c", "s2") == INF


def test_cone_over_everything():
    d = type_diagram("A", 2)
    coned = cone_diagram(d, d.vertices, "c")
    assert coned.m("c", "s1") == 2 and coned.m("c", "s2") == 2


def test_cone_name_collision():
    d = type_diagram("A", 2)
    with pytest.raises(DiagramError):
        cone_diagram(d, (), "s1")


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
