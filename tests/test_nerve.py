import hashlib
import importlib
import itertools
import json

import pytest

from coxart.cli import main
from coxart.diagram import (
    CoxeterDiagram,
    DiagramError,
    finite_type,
    parse_diagram,
    sort_key,
    type_diagram,
)
from coxart.garside import ArtinEngine, BudgetExceeded, delta_power, delta_word, parse_word
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
from coxart.wgroup import build_group, longest_word

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
    cx = complex_on_subsets(BRAID4, sub.vertex_subsets.values())
    assert set(cx.vertices) == set(sub.complex.vertices)
    assert cx.edges == sub.complex.edges


def test_phi_word_singleton_power():
    d = type_diagram("A", 2)
    word = phi_word(d, 3, [("s1", 1)], subdivision(d))
    assert word == [("s1", 1)] * 6  # z_s -> s^(2N)


def test_phi_word_edge_is_delta_power():
    d = parse_diagram("vertex s; vertex t; edge s t 3")
    eng = ArtinEngine(build_group(d))
    word = phi_word(d, 1, [(subset_name(("s", "t")), 1)], subdivision(d))
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


# -- the nerve and subdivision outputs, pinned --------------------------------

#: diagram sources: the spherical types the paper folds or folds into, a
#: reducible diagram, and five non-spherical ones
PINNED_DIAGRAMS = {
    "A3": "type A 3",
    "B4": "type B 4",
    "D5": "type D 5",
    "F4": "type F 4",
    "H4": "type H 4",
    "E8": "type E 8",
    "I2(7)": "type I 2 7",
    "A2+A1": "vertex a; vertex b; vertex c; edge a b 3",
    "triangle-3-3-3": "vertex a; vertex b; vertex c; edge a b 3; edge b c 3; edge a c 3",
    "triangle-2-3-7": "vertex a; vertex b; vertex c; edge b c 3; edge a c 7",
    "triangle-4-5-inf": "vertex a; vertex b; vertex c; edge a b 4; edge b c 5; edge a c inf",
    "A~3": "vertex a; vertex b; vertex c; vertex d; "
           "edge a b 3; edge b c 3; edge c d 3; edge d a 3",
    "square-3-inf": "vertex a; vertex b; vertex c; vertex d; edge a b 3; edge b c 3; "
                    "edge c d 3; edge d a 3; edge a c inf; edge b d inf",
}

#: sha256 of `export --what nerve` (json), of `export --what subdivision`
#: (json, then dot), and of the orders of nerve(d).simplices and of
#: subdivision(d).vertex_subsets, as JSON lists
NERVE_DIGESTS = {
    "A3": (
        "21442591dd9dbab9568429074f09201a97d1353f728191764d7bf7e278d72223",
        "8f37de60456456520ac33b8c0c2aab62bc7297f9eb0d559a44916cc40556b973",
        "df083757a9f269f4c9f9533b2cd749456e4fbaa493cea6f53e5ba79e410dba8c",
        "87bcfc4e89d390dc61793304df91b6505b33027d3eee294ce32269be86bcb67f",
        "0df538531bde05b7c7ed85559d228212500e2aac266ce3c56c02dea3c7bb709d",
    ),
    "B4": (
        "ebecbd0095b347bdbe4fb5774963b218aa0bd060e3a6477d28a0ad8250812156",
        "785f2476d7b2edda3eba9f3ac59d01bd2be99cb49caaa307653de60fecdfe807",
        "33b4038b11a35a08c57e6714c2c294db6bda7d1970e536e1d472fdcf8fffb9f8",
        "36e979693705a657e9b31270617d728499504bd177c1698aa52bbd8c0daa06e2",
        "47eabfec6bd302f6970e30d7a702f3cc002f0e2981b33193a91c2b21cf8cb1f9",
    ),
    "D5": (
        "fc1004020864734bb0bb4dc4d0330eed2ee8a3691386f118751522cef7e5aa34",
        "7f82c15483dac7f513a3ce8552ecc190349a0f26ce01ed752e69ec7db3d07cd8",
        "9f31758c920d4039d5316ad076e09f969a8d04e5b85c1c52e1685dcb919793af",
        "80dfa82aef1d97beeafd534a53935aeae9603bacf8f5c850d5242fdc65d46c95",
        "b605f80218866b40433b3e819c1e41dee82222f5a157e20af5b7c40d29056073",
    ),
    "F4": (
        "ebecbd0095b347bdbe4fb5774963b218aa0bd060e3a6477d28a0ad8250812156",
        "785f2476d7b2edda3eba9f3ac59d01bd2be99cb49caaa307653de60fecdfe807",
        "33b4038b11a35a08c57e6714c2c294db6bda7d1970e536e1d472fdcf8fffb9f8",
        "36e979693705a657e9b31270617d728499504bd177c1698aa52bbd8c0daa06e2",
        "47eabfec6bd302f6970e30d7a702f3cc002f0e2981b33193a91c2b21cf8cb1f9",
    ),
    "H4": (
        "ebecbd0095b347bdbe4fb5774963b218aa0bd060e3a6477d28a0ad8250812156",
        "785f2476d7b2edda3eba9f3ac59d01bd2be99cb49caaa307653de60fecdfe807",
        "33b4038b11a35a08c57e6714c2c294db6bda7d1970e536e1d472fdcf8fffb9f8",
        "36e979693705a657e9b31270617d728499504bd177c1698aa52bbd8c0daa06e2",
        "47eabfec6bd302f6970e30d7a702f3cc002f0e2981b33193a91c2b21cf8cb1f9",
    ),
    "E8": (
        "ef5d88e869a90f25d492cbf50512c2ee43d147718acd91210c3b16b32e52318a",
        "7b643e8da1bec5e98d11693dfc840aa4d10b85965d09eebcb922506ef50a8607",
        "0b62a09c1a2b15e55e469b1b00824d9108be9a8f7dd1b36af7c0aad780547879",
        "de3117adb95d46247b41c527b45ad42e989ea1f0a4308e6c6cc66b1f133d9249",
        "587b81060524be16a3dcf57ece9b207b6c275dcd5496569c43dc1bd01b4ed857",
    ),
    "I2(7)": (
        "2e0368942e687f718c9f230a0913a7eab8055251edb5f7e497a92b1ff6f0c440",
        "29d1ba4a9b9d901cba01bbb4dbc2914b55deaead12899656bf93bd5981729b37",
        "66b765abc0fa3d650f0ab58059293e7ad1007b233d1d7c5c3dd58ef92039179d",
        "0df9aae755ace89e7e8021636fc06b076105452a0f15f0a778ed5be8482a3818",
        "0d2d37579e6e8b9a129e467961482f69b9e813980dc77feb2d1ba5277f14163b",
    ),
    "A2+A1": (
        "69d66f6f0ffabbcd65908552d99df10d8d8ca3ee40517bff5af96ea2b7a3a549",
        "f53ddd35b2db1cc2b641d86ba5573383e4b4b7a0225c314e088689f51e02c0d0",
        "5c31477f1f96e2fddbda397309de95749782cc219b74101f68397557ecac7e54",
        "bf409ca7dd3cee9fa26a6c1fb3eae43e8da19baa6406b2b30e4cb65cfeae3b74",
        "2187c951644f86773b79f6de3fed74b31f55ed31928e54e5c5cf2e2b16bb5e8d",
    ),
    "triangle-3-3-3": (
        "9e17313151b60e542ebba6692a13d1238200179cefb55b3eba94775bd6658828",
        "cc81c7596ef244baac732e405f32794efe2c92aecac91d30643ea8d913e4437e",
        "25f89cc669ffb6a8ad2f42a047b66d11c070969856f564d0052b232209e711d4",
        "a6692686d350031bf8288ead6446261e5a30570936691303647e49172e4c370a",
        "9f76085185048b114756a52db622a011d931cc5977297d9cdc365d71d3fae273",
    ),
    "triangle-2-3-7": (
        "9e17313151b60e542ebba6692a13d1238200179cefb55b3eba94775bd6658828",
        "717f00ef0c6506c1858c3ebb4584740796766143d3c6e59d765b7477fb092dd5",
        "cecd1719a3e8e11cfc37953ca6735bfbadd2512abc888a76788ba68401ad6395",
        "a6692686d350031bf8288ead6446261e5a30570936691303647e49172e4c370a",
        "951a0320364df9b1e6db5333e4ea16fe097062aa6c33827a84c30d916a0f6d36",
    ),
    "triangle-4-5-inf": (
        "7e940f2ceefacf6a293a14ea51f1af445a6f3ce9e3cd3025e08fd06248eadc66",
        "0f6d27d5e9becd59b06c8bf5e8e9686a26f66b820b1ebcdc889bbcb5cb580b2f",
        "c69791810ec5f91a117fbe6032d65cbcb9a98e5aaafc79b2f459d86cf3aeb90c",
        "baab088401fd262efdce6238811d4f8acef8ff6c718c4015ce3a1d1ad9d9ef36",
        "da571e2b0dc569b9365b148b2693479d4de92ccc31aa02d91350c4608ee0b017",
    ),
    "A~3": (
        "3221c5b995fc03383bbc1291dfc2da58b7c091ccf596474ff7d4ed2590f3e598",
        "ddb5daef8170917a5ffd1e1b2e20271bbad83aeee2d3414c775663b32337a448",
        "fa49d8159ab229ac1698839cbb8e615849f33f6b407044d50d5b02150e03a105",
        "b21beb4d6be549686a1f047ad43943e99820b5ad0840fc2da5dcf8bb6aa9d503",
        "1a34b89811a2d3a1a6dfc9a2697a77139bde01f68c1bbf45920f360a1479d748",
    ),
    "square-3-inf": (
        "ef5eed2f080439ec6d2100a2d36ee530c8a0e4a4d13c9aad07fbe99fa13bd311",
        "2bfa5f7d49b0ff9240c8f7f3b113200c304046471bebcc4d98514c9edc7f3f5f",
        "abfbe184af3dc620c099deefd5b3833cb9e016c90cf99d0e951cd537609042b0",
        "941dd8575fef292a653cf6d9090515b88845d20e9ab144868609c4fd55107cca",
        "277439ac9a1e26005b97c05a03cb59cd3529b423c512ced0cd7fb38bb0bcdf07",
    ),
}


def _pinned_outputs(capsys, source):
    outs = []
    for what, fmt in (("nerve", "json"), ("subdivision", "json"), ("subdivision", "dot")):
        assert main(["export", "--what", what, "--format", fmt, "--diagram", source]) == 0
        outs.append(capsys.readouterr().out)
    d = parse_diagram(source)
    outs.append(json.dumps([sorted(s, key=sort_key) for s in nerve(d).simplices]))
    outs.append(json.dumps(list(subdivision(d).vertex_subsets)))
    return [hashlib.sha256(out.encode()).hexdigest() for out in outs]


@pytest.mark.parametrize("name", list(PINNED_DIAGRAMS))
def test_nerve_and_subdivision_outputs_are_pinned(capsys, name):
    assert _pinned_outputs(capsys, PINNED_DIAGRAMS[name]) == list(NERVE_DIGESTS[name])


# -- an oracle for the walk that shares no code with finite_type --------------

def _standard_diagrams(rank, labels):
    """Hand-written edge lists (i, j, label) on 0..rank-1 of the irreducible
    finite types of this rank; I_2(m) for each finite label m in `labels`."""
    path = [(i, i + 1, 3) for i in range(rank - 1)]
    out = [path]  # A_n
    if rank >= 2:
        out.append(path[:-1] + [(rank - 2, rank - 1, 4)])  # B_n
    if rank >= 4:
        out.append(path[:-1] + [(rank - 3, rank - 1, 3)])  # D_n
    if rank in (6, 7, 8):
        out.append(path[:-1] + [(2, rank - 1, 3)])  # E_n
    if rank == 2:
        out.extend([(0, 1, m)] for m in labels if m != float("inf"))  # I_2(m)
    if rank == 3:
        out.append([(0, 1, 5), (1, 2, 3)])  # H_3
    if rank == 4:
        out.append([(0, 1, 3), (1, 2, 4), (2, 3, 3)])  # F_4
        out.append([(0, 1, 5), (1, 2, 3), (2, 3, 3)])  # H_4
    return out


@pytest.mark.parametrize("name", list(PINNED_DIAGRAMS))
def test_spherical_subsets_match_a_networkx_oracle(name):
    # a subset is spherical iff each connected component of its labelled
    # graph is isomorphic, labels matched, to a standard diagram
    nx = pytest.importorskip("networkx")
    d = parse_diagram(PINNED_DIAGRAMS[name])
    graph = nx.Graph()
    graph.add_nodes_from(d.vertices)
    for pair, m in d.labels.items():
        graph.add_edge(*pair, m=m)

    def standard(component):
        sub = graph.subgraph(component)
        labels = {m for _, _, m in sub.edges(data="m")}
        for edges in _standard_diagrams(len(component), labels):
            model = nx.Graph()
            model.add_nodes_from(range(len(component)))
            model.add_edges_from((i, j, {"m": m}) for i, j, m in edges)
            if nx.is_isomorphic(sub, model, edge_match=lambda e, f: e["m"] == f["m"]):
                return True
        return False

    expected = {}
    for k in range(1, len(d.vertices) + 1):
        for subset in map(frozenset, itertools.combinations(d.vertices, k)):
            sub = graph.subgraph(subset)
            if all(standard(c) for c in nx.connected_components(sub)):
                expected[subset] = nx.is_connected(sub)
    assert spherical_subsets(d) == expected


def test_nerve_walk_meets_the_letter_budget_past_the_default(capsys, monkeypatch):
    # the package exports the function nerve, which hides the module's name
    nerve_module = importlib.import_module("coxart.nerve")
    argv = ["export", "--what", "nerve", "--diagram", "type A 11"]  # 2047 subsets, 11264 letters
    monkeypatch.setenv("COXART_LETTER_BUDGET", "1000")
    assert main(argv) == 0  # below the default budget, only words are bounded
    capsys.readouterr()
    monkeypatch.setattr(nerve_module, "DEFAULT_LETTER_BUDGET", 1000)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "resource budget exceeded: nerve walk: lattice "
                                   "holding 1005 vertex letters exceeds the letter budget "
                                   "1000\n")
    monkeypatch.delenv("COXART_LETTER_BUDGET")
    assert main(argv) == 0  # the default budget of 10**6 holds the walk


# -- the per-diagram table of Delta_T words ------------------------------------

SPHERICAL_PINNED = [name for name, source in PINNED_DIAGRAMS.items()
                    if finite_type(parse_diagram(source)).is_spherical]


def test_spherical_pinned_diagrams_are_the_expected_ones():
    assert SPHERICAL_PINNED == ["A3", "B4", "D5", "F4", "H4", "E8", "I2(7)", "A2+A1"]


@pytest.mark.parametrize("name", SPHERICAL_PINNED)
def test_word_table_holds_the_words_a_fresh_diagram_derives(name):
    d = parse_diagram(PINNED_DIAGRAMS[name])
    subsets = list(spherical_subsets(d))
    words = {s: longest_word(d, s) for s in subsets}
    assert d._longest_words == words
    for s in subsets:
        again = longest_word(d, sorted(s, key=sort_key, reverse=True))
        assert again is words[s]  # a hit, whatever order the subset comes in
        assert longest_word(CoxeterDiagram(d.vertices, dict(d.labels)), s) == words[s]
    assert longest_word(d, None) is words[frozenset(d.vertices)]
    assert len(d._longest_words) == len(subsets)


def test_delta_words_are_fresh_lists_over_the_table():
    d = type_diagram("E", 8)
    e7 = [v for v in d.vertices if v != "s7"]
    first = delta_word(d, e7, 2)
    expected = list(first)
    first.append(("s7", 1))
    first[0] = ("s8", -3)
    assert delta_word(d, e7, 2) == expected
    word = delta_power(d, e7, 1)
    word.reverse()
    assert delta_power(d, e7, 1) == expected[:len(expected) // 2]
    assert isinstance(d._longest_words[frozenset(e7)], tuple)
    assert list(d._longest_words) == [frozenset(e7)]


def test_a_refused_subset_leaves_no_table_entry():
    d = parse_diagram(PINNED_DIAGRAMS["A~3"])
    with pytest.raises(DiagramError, match="not spherical"):
        delta_word(d, d.vertices, 1)
    with pytest.raises(DiagramError, match="unknown vertices"):
        delta_word(d, ("a", "x"), 1)
    with pytest.raises(DiagramError, match="not irreducible"):
        delta_power(d, ("a", "c"), 1)
    assert d._longest_words == {}
    assert delta_word(d, ("a", "b"), 1) == [("a", 1), ("b", 1), ("a", 1)]


@pytest.mark.parametrize("name", list(PINNED_DIAGRAMS))
def test_walks_and_group_builds_leave_the_table_empty(name):
    d = parse_diagram(PINNED_DIAGRAMS[name])
    nerve(d)
    subdivision(d)
    for s in spherical_subsets(d):
        finite_type(d, s)
        sub = d.induced(s)
        build_group(sub)
        assert sub._longest_words == {}
    assert d._longest_words == {}
