import pytest

from coxart.diagram import DiagramError, parse_diagram, type_diagram
from coxart.garside import ArtinEngine, BudgetExceeded, delta_power, parse_word
from coxart.homology import independence_check
from coxart.nerve import (
    complex_on_subsets,
    nerve,
    nested_or_commuting,
    phi_word,
    spherical_subsets,
    subdivision,
    subset_name,
)
from coxart.wgroup import build_group

BRAID4 = parse_diagram("vertex s; vertex t; vertex u; edge s t 3; edge t u 3")


def test_nerve_a2_is_full_simplex():
    nv = nerve(type_diagram("A", 2))
    assert frozenset(("s1", "s2")) in nv.simplices


def test_nerve_infinite_edge_has_no_edge():
    d = parse_diagram("vertex a; vertex b; edge a b inf")
    nv = nerve(d)
    assert [sum(len(s) == k + 1 for s in nv.simplices) for k in (0, 1)] == [2, 0]


def test_nerve_236_triangle():
    d = parse_diagram(
        "vertex a; vertex b; vertex c; edge a b 3; edge b c 6"
    )
    nv = nerve(d)
    assert [sum(len(s) == k + 1 for s in nv.simplices) for k in (0, 1, 2)] == [3, 3, 0]


def test_nerve_rank_guard():
    d = type_diagram("A", 13)
    with pytest.raises(DiagramError):
        nerve(d)
    assert nerve(d, max_rank=13)  # override allowed


def test_subdivision_braid4_counts():
    sub = subdivision(BRAID4)
    assert len(sub.complex.vertices) == 6
    assert len(sub.complex.edges) == 10
    assert sum(len(c) == 3 for c in sub.complex.cliques(3)) == 5


def test_subdivision_a2_shape():
    sub = subdivision(type_diagram("A", 2))
    assert sorted(sub.complex.vertices) == ["s1", "s1+s2", "s2"]
    assert sub.complex.adjacent("s1", "s1+s2")
    assert sub.complex.adjacent("s2", "s1+s2")
    assert not sub.complex.adjacent("s1", "s2")


def test_subdivision_single_vertex():
    d = parse_diagram("vertex a")
    sub = subdivision(d)
    assert sub.complex.vertices == ("a",)
    assert not sub.complex.edges


def test_subdivision_an_vertex_count():
    # irreducible subsets of a path are the intervals: n(n+1)/2 of them
    for n in (2, 3, 4, 5, 6):
        sub = subdivision(type_diagram("A", n))
        assert len(sub.complex.vertices) == n * (n + 1) // 2


def test_subdivision_monotone_under_full_subdiagrams():
    d = type_diagram("B", 4)
    sub_full = subdivision(d)
    keep = ("s1", "s2", "s3")
    sub_small = subdivision(d.induced(keep))
    small_vertices = {
        v for v, s in sub_full.vertex_subsets.items() if s <= set(keep)
    }
    assert small_vertices == set(sub_small.complex.vertices)
    induced = sub_full.complex.full_subcomplex(small_vertices)
    assert induced.edges == sub_small.complex.edges


def test_complex_on_subsets_matches_subdivision():
    sub = subdivision(BRAID4)
    cx, named = complex_on_subsets(BRAID4, sub.vertex_subsets.values())
    assert set(cx.vertices) == set(sub.complex.vertices)
    assert cx.edges == sub.complex.edges


def test_phi_word_singleton_power():
    d = type_diagram("A", 2)
    word = phi_word(d, 3, [("s1", 1)])
    assert word == [("s1", 1)] * 6  # z_s -> s^(2N)


def test_phi_word_edge_is_delta_power():
    d = parse_diagram("vertex s; vertex t; edge s t 3")
    eng = ArtinEngine(build_group(d))
    word = phi_word(d, 1, [(subset_name(("s", "t")), 1)])
    assert eng.equals(word, parse_word("s t") * 3)


def test_phi_is_homomorphism_on_edges_of_a3_subdivision():
    d = type_diagram("A", 3)
    sub = subdivision(d)
    eng = ArtinEngine(build_group(d))
    for edge in sub.complex.edges:
        a, b = sorted(edge)
        wa = phi_word(d, 1, [(a, 1)], sub)
        wb = phi_word(d, 1, [(b, 1)], sub)
        assert eng.commutes(wa, wb), (a, b)


def test_simplex_images_free_abelian_certificate():
    # simplices of the subdivision give commuting images with independent
    # abelianization classes
    d = type_diagram("A", 3)
    sub = subdivision(d)
    group = build_group(d)
    eng = ArtinEngine(group)
    for tri in (c for c in sub.complex.cliques(3) if len(c) == 3):
        words = [phi_word(d, 1, [(v, 1)], sub) for v in tri]
        for i in range(3):
            for j in range(i + 1, 3):
                assert eng.commutes(words[i], words[j])
        assert independence_check(group, words)


def test_spherical_subsets_prune_upward():
    d = parse_diagram(
        "vertex a; vertex b; vertex c; edge a b 3; edge b c 6"
    )
    subs = spherical_subsets(d)
    assert frozenset("ab") in subs and frozenset("abc") not in subs


def test_nested_subset_generators_commute_in_subdivision():
    # z_T and z_U commute when U is contained in T
    sub = subdivision(type_diagram("A", 3))
    assert sub.complex.adjacent("s1", "s1+s2")
    assert sub.complex.adjacent("s1+s2", "s1+s2+s3")
    assert sub.complex.adjacent("s1", "s1+s2+s3")
    # and when all cross labels are 2
    assert sub.complex.adjacent("s1", "s3")
    # but not otherwise
    assert not sub.complex.adjacent("s1+s2", "s2+s3")


@pytest.mark.parametrize("diagram", [
    type_diagram("E", 8), type_diagram("H", 4), type_diagram("F", 4),
    type_diagram("D", 6), type_diagram("B", 4), type_diagram("I", 2, 7),
    # the (4,5,inf) triangle and the affine A~3, a 4-cycle of label 3
    parse_diagram("vertex a; vertex b; vertex c; edge a b 4; edge b c 5; edge a c inf"),
    parse_diagram("vertex a; vertex b; vertex c; vertex d; "
                  "edge a b 3; edge b c 3; edge c d 3; edge d a 3"),
], ids=["E8", "H4", "F4", "D6", "B4", "I2(7)", "triangle-4-5-inf", "A~3"])
def test_nested_or_commuting_matches_the_label_table(diagram):
    # the rule as the Davis-Huang subdivision states it, read label by label
    def by_labels(a, b):
        return a <= b or b <= a or (not (a & b) and all(
            diagram.m(x, y) == 2 for x in a for y in b))

    subsets = list(subdivision(diagram).vertex_subsets.values())
    verdicts = {(a, b): nested_or_commuting(diagram, a, b)
                for a in subsets for b in subsets}
    assert verdicts == {pair: by_labels(*pair) for pair in verdicts}
    # some disjoint pair is joined by a label, so the cross labels decide it
    assert not all(v for (a, b), v in verdicts.items() if a.isdisjoint(b))


def test_subdivision_e7_counts():
    # 21 path intervals, the singleton branch vertex, and 12 branched
    # subsets: 34 irreducible spherical subsets in all
    sub = subdivision(type_diagram("E", 7))
    assert len(sub.complex.vertices) == 34
    assert len(sub.complex.edges) == 331


def test_b3_simplex_free_abelian_certificates():
    from coxart.garside import ArtinEngine, delta_word

    d = type_diagram("B", 3)
    sub = subdivision(d)
    group = build_group(d)
    eng = ArtinEngine(group)
    for tri in (c for c in sub.complex.cliques(3) if len(c) == 3):
        words = [delta_word(d, sub.vertex_subsets[v], 2) for v in tri]
        for i in range(3):
            for j in range(i + 1, 3):
                assert eng.commutes(words[i], words[j])
        assert independence_check(group, words)


def test_phi_word_meets_the_letter_budget_before_expanding(monkeypatch):
    import tracemalloc

    monkeypatch.delenv("COXART_LETTER_BUDGET", raising=False)
    d = type_diagram("A", 3)
    sub = subdivision(d)
    word = [(subset_name(d.vertices), 1), ("s1", -1)]  # |Delta_T| = 6 and 1
    assert len(phi_word(d, 1, word, sub)) == 2 * 7
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as info:
            phi_word(d, 10 ** 6, word, sub)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == ("phi word: word of 14000000 letters exceeds the "
                               "letter budget 1000000")
    assert peak < 100_000, "refusing the word peaked at %d bytes" % peak
