import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import coxart

from coxart.diagram import INF, CoxeterDiagram, DiagramError, parse_diagram, type_diagram
from coxart.folding import (
    _validate_fold,
    build_folded,
    component_report,
    component_subsets,
    f_word,
    fold_images,
    psi_word,
)
from coxart.garside import ArtinEngine, word_length
from coxart.nerve import complex_on_subsets, phi_word, subdivision, subset_name
from coxart.raag import enumerate_reduced_words, raag_normal_form
from coxart.suites import _tag, f_preserves_reduced, raaginj_mechanics, run_suite
from coxart.wgroup import build_group
from test_wgroup import coxeter_number, element_order


def test_fold_i23_is_two_a2():
    fold = build_folded(type_diagram("I", 2, 3))
    assert fold.fiber_size == 2
    assert len(fold.target.vertices) == 4
    assert sorted(r.tag for r in component_report(fold)) == ["A_2", "A_2"]


def test_fold_h3_two_d6():
    fold = build_folded(type_diagram("H", 3))
    assert fold.fiber_size == 4
    assert len(fold.target.vertices) == 12
    reports = component_report(fold)
    assert sorted(r.tag for r in reports) == ["D_6", "D_6"]
    assert all(r.coxeter_number == 10 for r in reports)


def test_fold_b3_types():
    reports = component_report(build_folded(type_diagram("B", 3)))
    assert sorted(r.tag for r in reports) == ["A_5", "A_5", "D_4", "D_4"]
    assert {r.coxeter_number for r in reports} == {6}


def test_fold_f4_h4():
    for fam, expected, h in (("F", "E_6", 12), ("H", "E_8", 30)):
        reports = component_report(build_folded(type_diagram(fam, 4)))
        assert {r.tag for r in reports} == {expected}
        assert {r.coxeter_number for r in reports} == {h}


def test_fold_rejects_disconnected_or_infinite():
    with pytest.raises(DiagramError):
        build_folded(parse_diagram("vertex a; vertex b"))
    with pytest.raises(DiagramError):
        build_folded(parse_diagram("vertex a; vertex b; edge a b inf"))


def test_validate_fold_raises_under_python_O():
    # a B_3 fold whose target lost every edge: the check must not rest on
    # assert statements, which python -O strips
    code = ("from coxart.diagram import CoxeterDiagram, DiagramError, type_diagram\n"
            "from coxart.folding import _validate_fold, build_folded\n"
            "fold = build_folded(type_diagram('B', 3))\n"
            "broken = fold._replace(target=CoxeterDiagram(fold.target.vertices, {}))\n"
            "try:\n"
            "    _validate_fold(broken)\n"
            "except DiagramError as exc:\n"
            "    print('DiagramError:', exc)\n")
    src = os.path.dirname(os.path.dirname(coxart.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("DiagramError: fold: "), proc.stdout


def test_psi_generator_image():
    fold = build_folded(type_diagram("I", 2, 3))
    s = fold.source.vertices[0]
    image = psi_word(fold, [(s, 1)])
    assert [g for g, _ in image] == list(fold.fibers[s])
    assert psi_word(fold, []) == []


def test_psi_respects_braid_relation_i24():
    fold = build_folded(type_diagram("I", 2, 4))
    s, t = fold.source.vertices
    eng = ArtinEngine(build_group(fold.target))
    lhs = psi_word(fold, [(s, 1), (t, 1), (s, 1), (t, 1)])
    rhs = psi_word(fold, [(t, 1), (s, 1), (t, 1), (s, 1)])
    assert eng.equals(lhs, rhs)


def test_f_word_splits_edge_generator():
    fold = build_folded(type_diagram("I", 2, 3))
    s, t = fold.source.vertices
    images = fold_images(fold, subdivision(fold.source).vertex_subsets)
    image = f_word(images, [(subset_name((s, t)), 1)])
    assert len(image) == 2  # the two A_2 components
    comps = component_subsets(fold, (s, t))
    assert sorted(n for n, _ in image) == sorted(subset_name(c) for c in comps)
    # singleton: one letter per fiber element
    image_s = f_word(images, [(subset_name((s,)), 1)])
    assert len(image_s) == fold.fiber_size


def test_compatibility_square():
    # Phi_N(F(w)) = Psi(Phi_N(w)) for sample words, per component
    for spec in ("type I 2 3", "type B 3", "type H 3"):
        source = parse_diagram(spec)
        fold = build_folded(source)
        sub = subdivision(source)
        images = fold_images(fold, sub.vertex_subsets)
        names = sorted(sub.vertex_subsets)
        samples = [
            [(names[0], 1)],
            [(names[-1], 1)],
            [(names[0], 1), (names[-1], -1)],
            [(names[-1], 2), (names[0], 1)],
        ]
        comps = [frozenset(c) for c in component_subsets(fold, fold.source.vertices)]
        engines = {c: ArtinEngine(build_group(fold.target.induced(c))) for c in comps}
        for word in samples:
            via_f = []
            for name, exp in f_word(images, word):
                subset = frozenset(name.split("+"))
                via_f.extend(
                    phi_word(fold.target, 1,
                             [(subset_name(subset), exp)],
                             _sub_for(fold.target, subset))
                )
            via_psi = psi_word(fold, phi_word(source, 1, word, sub))
            for comp, eng in engines.items():
                wl = [(g, e) for g, e in via_f if g in comp]
                wr = [(g, e) for g, e in via_psi if g in comp]
                assert eng.equals(wl, wr), (spec, word, sorted(comp))


def test_fold_images_are_preimage_components():
    # oracle: networkx components of each preimage, read off the target's
    # labels without irreducible_components
    nx = pytest.importorskip("networkx")
    from coxart.suites import _FOLD_CASES

    for fam, n, p, _ in _FOLD_CASES:
        tag, source = (fam, n, p), type_diagram(fam, n, p)
        fold = build_folded(source)
        sub = subdivision(source)
        images = fold_images(fold, sub.vertex_subsets)
        assert images.keys() == sub.vertex_subsets.keys()
        graph = nx.Graph()
        graph.add_nodes_from(fold.target.vertices)
        graph.add_edges_from(tuple(p) for p, m in fold.target.labels.items()
                             if m != 2)
        for name, subset in sub.vertex_subsets.items():
            pre = [x for g in subset for x in fold.fibers[g]]
            expected = [frozenset(c) for c in
                        nx.connected_components(graph.subgraph(pre))]
            assert images[name] == {subset_name(c): c for c in expected}, (
                tag, name)


class _MiniSub:
    def __init__(self, names):
        self.vertex_subsets = names


def _sub_for(diagram, subset):
    # a tiny subdivision stub exposing just the one named subset
    return _MiniSub({subset_name(subset): frozenset(subset)})


def test_f_word_letters_commute():
    # the component letters of one image pairwise commute in RA
    fold = build_folded(type_diagram("H", 3))
    sub = subdivision(fold.source)
    full = sorted(sub.vertex_subsets)[-1]
    image = f_word(fold_images(fold, sub.vertex_subsets), [(full, 1)])
    subsets = [frozenset(n.split("+")) for n, _ in image]
    cx = complex_on_subsets(fold.target, subsets)
    word = [(n, 1) for n, _ in image]
    rev = [(n, 1) for n, _ in reversed(image)]
    assert raag_normal_form(cx, word) == raag_normal_form(cx, rev)


def test_coxeter_element_transports_to_components():
    # the image of a Coxeter element hits every fiber vertex exactly once,
    # so its restriction to a component is a Coxeter element there
    for spec in ("type I 2 5", "type B 3", "type H 3", "type F 4"):
        fold = build_folded(parse_diagram(spec))
        word = psi_word(fold, [(g, 1) for g in fold.source.vertices])
        letters = [g for g, _ in word]
        assert sorted(letters) == sorted(fold.target.vertices)
        for comp in component_subsets(fold, fold.source.vertices):
            restricted = [g for g in letters if g in comp]
            assert sorted(restricted) == sorted(comp)
            group = build_group(fold.target.induced(comp))
            order = element_order(group, group.word_to_element(restricted))
            assert order == coxeter_number(group)


def test_delta_square_image_factors_through_components():
    # Psi(Delta_T^2) equals the product of the component fundamental-element
    # squares, for every irreducible spherical subset of the source
    from coxart.garside import delta_word

    for spec in ("type I 2 3", "type I 2 4", "type I 2 5", "type I 2 6",
                  "type B 3", "type H 3", "type F 4"):
        source = parse_diagram(spec)
        fold = build_folded(source)
        sub = subdivision(source)
        comps = [frozenset(c) for c in component_subsets(fold, fold.source.vertices)]
        engines = {c: ArtinEngine(build_group(fold.target.induced(c))) for c in comps}
        for name, subset in sub.vertex_subsets.items():
            image = psi_word(fold, delta_word(source, subset, 2))
            product = []
            for part in component_subsets(fold, subset):
                product.extend(delta_word(fold.target, part, 2))
            for comp, eng in engines.items():
                lhs = [(g, e) for g, e in image if g in comp]
                rhs = [(g, e) for g, e in product if g in comp]
                assert eng.equals(lhs, rhs), (spec, name, sorted(comp))


def test_h4_delta_square_image_is_e8_delta_square():
    # the image of the H_4 fundamental-element square is exactly the
    # fundamental-element square of each E_8 component
    from coxart.garside import delta_word

    source = type_diagram("H", 4)
    fold = build_folded(source)
    sub = subdivision(source)
    comps = [frozenset(c) for c in component_subsets(fold, fold.source.vertices)]
    engines = {c: ArtinEngine(build_group(fold.target.induced(c))) for c in comps}

    image = psi_word(fold, delta_word(source, source.vertices, 2))
    for comp, eng in engines.items():
        restricted = [(g, e) for g, e in image if g in comp]
        nf = eng.normal_form(restricted)
        assert nf.inf == 2 and nf.canon == ()

    # and the factorization holds for every proper irreducible subset
    for name, subset in sub.vertex_subsets.items():
        if len(subset) == len(source.vertices):
            continue
        img = psi_word(fold, delta_word(source, subset, 2))
        product = []
        for part in component_subsets(fold, subset):
            product.extend(delta_word(fold.target, part, 2))
        for comp, eng in engines.items():
            lhs = [(g, e) for g, e in img if g in comp]
            rhs = [(g, e) for g, e in product if g in comp]
            assert eng.equals(lhs, rhs), (name, sorted(comp))


#: sha256 of `build_folded(type_diagram(fam, n, p)).to_json()` (keys sorted)
#: for the folding suite's sources, recorded before the zig-zag wiring was
#: read off directly
FOLD_DIGESTS = {
    ("I", 2, 3): "2655b6a65ca755d78cbe5023151327fe91ef2a404d7cf22a6fe46f7e0df613d8",
    ("I", 2, 4): "5c5532594977e4bc011eec4d59dee92a2c83da2aeac5f0f71c6726ae4077ae9f",
    ("I", 2, 5): "be7f3897e52a05f44e287a82d0c3f6e3cd1779021fdc2b510542f1814c6f4f4c",
    ("I", 2, 6): "54ec9b55ab731a3d33db8e7d478e7febe2ceefeaf055872a13d1011daeeb72d0",
    ("B", 3, None): "6e24d6b5ab54ff346f608e15f4ce5be90b53696cb7abc54cd67b0fdf11141412",
    ("H", 3, None): "bcbff60d46d3985b236765454054db2c3b711b9e6ae04b2d0f02672ff4f4f6ca",
    ("F", 4, None): "a86c76e584c3834d11b43c79655a50a830108c61713cfdcf50fd933f33d6e9c3",
    ("H", 4, None): "1eb8d0103e4305c0f690513985aa06c55e6827d406618c117161d72c87c50bc0",
}


@pytest.mark.parametrize("fam,n,p", sorted(FOLD_DIGESTS, key=str))
def test_fold_json_pinned(fam, n, p):
    text = json.dumps(build_folded(type_diagram(fam, n, p)).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == FOLD_DIGESTS[fam, n, p]


def _relabelled(fold, add=(), drop=()):
    """`fold` with target labels 3 added on the pairs `add` and removed from
    the pairs `drop`."""
    labels = {p: m for p, m in fold.target.labels.items() if p not in map(frozenset, drop)}
    labels.update((frozenset(p), 3) for p in add)
    return fold._replace(target=CoxeterDiagram(fold.target.vertices, labels))


def test_validate_fold_names_each_planted_fault():
    i24 = build_folded(type_diagram("I", 2, 4))  # N = 3, one copy of Gamma(4)
    a3 = build_folded(type_diagram("A", 3))  # s1 and s3 commute
    _validate_fold(i24)
    _validate_fold(a3)
    planted = (
        (i24._replace(fibers=dict(i24.fibers, s1=i24.fibers["s1"][:2])),
         "fold: fiber of s1 has 2 vertices, not 3"),
        (_relabelled(i24, add=[("s1~3", "s1~2"), ("s2~1", "s2~3")]),
         "fold: edge s1~2-s1~3 inside the fiber of s1"),
        (_relabelled(a3, add=[("s3~2", "s1~1")]),
         "fold: fibers of commuting generators s1, s3 touch"),
        (_relabelled(i24, drop=[next(iter(i24.target.labels))]),
         "fold: fibers of s1, s2 are not 2 paths of type A_3"),
    )
    for fold, message in planted:
        with pytest.raises(DiagramError) as info:
            _validate_fold(fold)
        assert str(info.value) == message


def test_fold_with_a_large_label_is_not_quadratic():
    # fiber size 4800: a quadratic scan of the fibers or of the target's
    # vertex tuple would take minutes here
    t0 = time.perf_counter()
    fold = build_folded(type_diagram("I", 2, 4801))
    json.dumps(fold.to_json(), sort_keys=True)
    assert time.perf_counter() - t0 < 5.0
    assert fold.fiber_size == 4800 and len(fold.target.labels) == 2 * 4799
    assert [r.tag for r in component_report(fold)] == ["A_4800", "A_4800"]


# -- the injectivity check of folding-suite, one word per sign orbit ---------

def _fold_and_images(fam, n, p=None):
    fold = build_folded(type_diagram(fam, n, p))
    src = subdivision(fold.source)
    return fold, src, fold_images(fold, src.vertex_subsets)


def _count_normal_forms(monkeypatch):
    from coxart import suites

    calls = []

    def counted(complex_, word):
        calls.append(word)
        return raag_normal_form(complex_, word)

    monkeypatch.setattr(suites, "raag_normal_form", counted)
    return calls


@pytest.mark.parametrize("fam,n,p,words,normal_forms", [
    ("I", 2, 3, 98, 27),
    ("B", 3, None, 716, 143),
])
def test_f_preserves_reduced_puts_one_word_per_sign_orbit_into_normal_form(
        monkeypatch, fam, n, p, words, normal_forms):
    calls = _count_normal_forms(monkeypatch)
    fold, src, images = _fold_and_images(fam, n, p)
    assert f_preserves_reduced(fold, src, images, 3) == words
    assert len(calls) == normal_forms


def test_f_preserves_reduced_names_each_planted_fault(monkeypatch):
    fold, src, images = _fold_and_images("I", 2, 3)
    assert not src.complex.adjacent("s1", "s2")
    # s1~1 and s2~1 commute in the target, so s1 and s2 get commuting images
    commuting = dict(images, s1={"s1~1": frozenset({"s1~1"})},
                     s2={"s2~1": frozenset({"s2~1"})})

    calls = _count_normal_forms(monkeypatch)
    shared = dict(images, s2=dict(images["s2"], **images["s1"]))
    with pytest.raises(AssertionError) as info:
        f_preserves_reduced(fold, src, shared, 3)
    assert str(info.value) == "distinct subsets share a fold component: s2 s1"
    assert not calls  # refused before any normal form

    # at length 2 no image cancels, but F(s1 s2) = F(s2 s1)
    with pytest.raises(AssertionError) as info:
        f_preserves_reduced(fold, src, commuting, 2)
    assert str(info.value) == "F is not injective on the sample"

    # at length 3 F(s1 s2 s1^-1) cancels; the first failing word of the
    # whole sample, found here word by word, is the one named
    cx = complex_on_subsets(fold.target, [
        c for image in commuting.values() for c in image.values()])
    first = next(
        w for w in enumerate_reduced_words(src.complex, 3)
        if word_length(raag_normal_form(cx, f_word(commuting, w)))
        < sum(abs(e) * len(commuting[v]) for v, e in w))
    assert first == [("s1", 1), ("s2", 1), ("s1", -1)]
    with pytest.raises(AssertionError) as info:
        f_preserves_reduced(fold, src, commuting, 3)
    assert str(info.value) == (
        "F does not preserve reduced length on %s" % (first,))


def test_raaginj_mechanics_names_a_component_with_no_partner():
    fold, src, images = _fold_and_images("I", 2, 3)
    raaginj_mechanics(fold, src, images)
    assert not src.complex.adjacent("s1", "s2")
    # s1 keeps only s1~1, which commutes with s2~1, so s2~1 has no partner
    doctored = dict(images, s1={"s1~1": images["s1"]["s1~1"]})
    with pytest.raises(AssertionError) as info:
        raaginj_mechanics(fold, src, doctored)
    assert str(info.value) == (
        "component ['s2~1'] of s2 has no non-commuting partner in s1")


# -- the folding suite end to end, and its checks on planted faults -----------

#: sha256 of `run_suite("folding-suite", {"f_max_len": k}).to_json()` (keys
#: sorted); the default k = 4 is pinned in test_acceptance.SUITE_DIGESTS
FOLDING_SUITE_DIGESTS = {
    1: "8aecc53b007f9525b00a18d01dea0828c34164be1a6869dec5ea31dc1ef2c2bd",
    2: "e32638a067a79a44dbbbb61ba33214b893263b095467d106a475a26e90a28318",
    3: "ed1580ce3cf131046467a0019cd6d0b4a4fc85af219ac2e7240f9d5b072f1836",
}


@pytest.mark.parametrize("k", sorted(FOLDING_SUITE_DIGESTS))
def test_folding_suite_json_pinned(k):
    text = json.dumps(run_suite("folding-suite", {"f_max_len": k}).to_json(),
                      sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == FOLDING_SUITE_DIGESTS[k]


def _doctored_suite(monkeypatch, case, doctor):
    """folding-suite at f_max_len 3 on the one fold case `case`, whose fold
    is passed through `doctor`: {check id: CheckResult}."""
    from coxart import suites

    monkeypatch.setattr(suites, "_FOLD_CASES", (case,))
    monkeypatch.setattr(suites, "build_folded", lambda d: doctor(build_folded(d)))
    return {c.id: c for c in run_suite("folding-suite", {"f_max_len": 3}).checks}


@pytest.mark.parametrize("case,edge,relation", [
    (("I", 2, 3, {"A_2"}), ("s1~1", "s2~2"), "s1s2"),
    (("B", 3, None, {"D_4", "A_5"}), ("s2~1", "s3~2"), "s2s3"),
])
def test_psi_relations_fails_on_a_dropped_target_edge(monkeypatch, case, edge, relation):
    checks = _doctored_suite(monkeypatch, case, lambda f: _relabelled(f, drop=[edge]))
    check = checks["psi-relations-%s" % _tag(*case[:3])]
    assert check.status == "fail"
    assert check.detail.startswith("relation %s broken" % relation), check.detail


def test_f_injective_fails_on_a_non_spherical_image_before_any_normal_form(monkeypatch):
    def doctor(fold):
        labels = dict(fold.target.labels)
        labels[frozenset(("s1~1", "s2~2"))] = INF
        return fold._replace(target=CoxeterDiagram(fold.target.vertices, labels))

    calls = _count_normal_forms(monkeypatch)
    check = _doctored_suite(monkeypatch, ("I", 2, 3, {"A_2"}), doctor)["f-injective-I2(3)"]
    assert check.status == "fail"
    assert "not spherical" in check.detail, check.detail
    assert not calls


def test_folding_suite_builds_one_engine_per_fold_case(monkeypatch):
    from coxart import suites

    built = []

    class Counted(ArtinEngine):
        def __init__(self, wgroup):
            built.append(set(wgroup.gens))
            super().__init__(wgroup)

    monkeypatch.setattr(suites, "ArtinEngine", Counted)
    assert run_suite("folding-suite", {"f_max_len": 1}).ok
    # one engine on the whole fold target, not one per component
    assert built == [set(build_folded(type_diagram(fam, n, p)).target.vertices)
                     for fam, n, p, _ in suites._FOLD_CASES]
    assert len(built) == 8


@pytest.mark.parametrize("budget,expected", [
    # the budget meets each side of a relation's whole psi image, 6 to 30
    # letters; the count is of the components the relations touch
    (5, "skipped 2|skipped 2|skipped 2|skipped 2|skipped 8|skipped 4|skipped 12|skipped 6"),
    (12, "pass 2|pass 2|skipped 2|skipped 2|skipped 8|skipped 2|skipped 12|skipped 2"),
    (20, "pass 2|pass 2|pass 2|skipped 2|skipped 4|pass 4|skipped 4|pass 6"),
])
def test_psi_relations_under_a_letter_budget(monkeypatch, budget, expected):
    monkeypatch.setenv("COXART_LETTER_BUDGET", str(budget))
    checks = run_suite("folding-suite", {"f_max_len": 1}).checks
    assert "|".join("%s %s" % (c.status, c.detail.split()[0]) for c in checks
                    if c.id.startswith("psi-relations-")) == expected
