import hashlib
import itertools
import json

import pytest

from coxart.curves import (
    _interval_commutes,
    audit_system,
    build_an,
    build_dn,
    build_e6_folded,
    build_e7_figure,
    build_e8_folded,
    build_system,
    e7_kernel_check,
    lantern_check,
    multitwist_word,
    reference_choice,
    to_word_system,
)
from coxart.diagram import DiagramError, type_diagram
from coxart.nerve import nested_or_commuting, subset_name
from coxart.raag import FlagComplex, pp_search

ALL_BUILDERS = [
    ("An", 5), ("An", 7), ("Dn", 4), ("Dn", 6),
    ("E6F", None), ("E8F", None), ("E7FIG", None),
]


@pytest.mark.parametrize("family,rank", ALL_BUILDERS)
def test_structural_audit_clean(family, rank):
    system = build_system(family, rank)
    assert audit_system(system) == []


def _flip(system, a, b):
    """The system with the intersection of curves a and b flipped."""
    edges = system.complex.edges ^ {frozenset((a, b))}
    return system._replace(complex=FlagComplex(system.curves, edges))


@pytest.mark.parametrize("a, b, defect", [
    ("t1:3", "t1:3'", "multicurve of t1+t2+t3 is not disjoint: t1:3,t1:3'"),
    ("t1:1", "t3:3", "commuting t3 / t1 intersect: ('t3:3', 't1:1')"),
    ("t1:1", "t2:2", "non-commuting t2 / t1 have disjoint boundaries"),
])
def test_structural_audit_names_a_flipped_intersection(a, b, defect):
    system = build_an(4)
    assert audit_system(_flip(system, a, b)) == [defect]


def test_build_system_rejects_bad_input():
    with pytest.raises(DiagramError):
        build_system("An", 1)
    with pytest.raises(DiagramError):
        build_system("Dn", 3)
    with pytest.raises(DiagramError):
        build_system("Qn", 5)


def test_an_boundary_shapes():
    system = build_an(5)
    t = lambda i: "t%d" % i
    assert system.boundary[frozenset((t(1),))] == ("t1:1",)
    assert system.boundary[frozenset((t(1), t(2)))] == ("t1:2",)
    assert system.boundary[frozenset((t(1), t(2), t(3)))] == ("t1:3", "t1:3'")
    assert system.boundary[frozenset(t(i) for i in range(1, 5))] == ("t1:4",)


def test_an_even_interval_meets_everything_noncommuting():
    system = build_an(5)
    t = lambda i: "t%d" % i
    even = frozenset(t(i) for i in range(1, 5))  # |T| = 4, single curve
    (curve,) = system.boundary[even]
    for other in system.subsets():
        if other == even or nested_or_commuting(system.diagram, even, other):
            continue
        for c in system.boundary[other]:
            assert system.intersects(curve, c), (curve, c)


def test_interval_rule_is_the_commute_or_nest_rule():
    # the A family's index arithmetic for intervals [i, j] of generators
    # agrees with nested_or_commuting on their subsets, equal pairs included
    pairs = 0
    for n in range(1, 13):
        diagram = type_diagram("A", n)
        intervals = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        for (i1, j1), (i2, j2) in itertools.product(intervals, repeat=2):
            a = frozenset(diagram.vertices[i1 - 1:j1])
            b = frozenset(diagram.vertices[i2 - 1:j2])
            assert _interval_commutes(i1, j1, i2, j2) == nested_or_commuting(
                diagram, a, b), (n, (i1, j1), (i2, j2))
            pairs += 1
    assert pairs == 18382


def test_an_same_parity_mixed_pairs_disjoint():
    system = build_an(7)
    assert system.intersects("t1:3", "t3:5")
    assert system.intersects("t1:3'", "t3:5'")
    assert not system.intersects("t1:3", "t3:5'")
    assert not system.intersects("t1:3'", "t3:5")
    # different start parity: all four intersect
    for a in ("t2:4", "t2:4'"):
        for b in ("t3:5", "t3:5'"):
            assert system.intersects(a, b)


@pytest.mark.parametrize("build, ranks", [(build_an, range(2, 13)),
                                          (build_dn, range(4, 13))])
def test_curve_budget_meets_the_exact_pair_count(build, ranks):
    from coxart.garside import RUN_BUDGET, BudgetExceeded

    for n in ranks:
        curves = len(build(n).curves)
        pairs = curves * (curves - 1) // 2
        token = RUN_BUDGET.set(pairs)
        try:
            assert len(build(n).curves) == curves
            RUN_BUDGET.set(pairs - 1)
            with pytest.raises(BudgetExceeded) as info:
                build(n)
        finally:
            RUN_BUDGET.reset(token)
        assert str(info.value) == (
            "curve system: system of %d curve pairs exceeds the letter budget %d"
            % (pairs, pairs - 1))


def test_dn_r_curves_all_cross():
    system = build_dn(6)
    for i in range(2, 6):
        for j in range(2, 6):
            assert system.intersects("r%d" % i, "r%d'" % j)
            assert not system.intersects("r%d" % i, "r%d" % j)


def test_dn_family1_boundary_contains_s0():
    for n in (4, 5, 6, 7):
        system = build_dn(n)
        for subset, curves in system.boundary.items():
            if "s" in subset and "s'" in subset:
                assert "s0" in curves
                assert len(curves) in (2, 3)


def test_dn_s0_is_isolated():
    system = build_dn(6)
    for c in system.curves:
        assert not system.intersects("s0", c)


def test_multitwist_words():
    system = build_dn(6)
    w = multitwist_word(system, ("t2",))
    assert w == [("t2:2", 1)]
    # D_4-type subset: three boundary curves
    d4 = ("s", "s'", "t1", "t2")
    w = multitwist_word(system, d4)
    assert sorted(c for c, _ in w) == ["s0", "s3", "s3'"]
    # odd A-type interval: two curves
    w = multitwist_word(system, ("t1", "t2", "t3"))
    assert len(w) == 2
    with pytest.raises(DiagramError):
        multitwist_word(system, ("t1", "t3"))


def test_an_reference_choice_unprimed():
    system = build_an(5)
    result = reference_choice(system)
    assert result.kind == "choice"
    assert result.by_subset[subset_name(("t2", "t3", "t4"))] == "t2:4"
    assert result.by_subset[subset_name(("t1",))] == "t1:1"


def test_dn_reference_split_and_global_pp():
    # the split certifies for every rank; the figure-scale obstruction
    # kills global PP from rank 5 up, while at rank 4 every intersection
    # is forced and a global choice exists (see DECISIONS.md, entry D-1)
    expectations = {4: True, 5: False, 6: False, 7: False}
    for n, global_found in expectations.items():
        result = reference_choice(build_dn(n))
        assert result.kind == "split"
        assert result.global_pp_found is global_found, n


# -- independent oracle for the rank-4 ruling (DECISIONS.md, entry D-1) -------
# Shares no code with the PP engine: the intersection relation is derived
# from the boundary data and the commuting rule alone, and choice maps are
# enumerated by brute force.

def _z_commute(diagram, a, b):
    """z_a and z_b commute: nested, or disjoint with every cross label 2."""
    if a <= b or b <= a:
        return True
    return not (a & b) and all(diagram.m(x, y) == 2 for x in a for y in b)


def _forced_relation(system):
    """Curve pairs that the three audit constraints force to be disjoint,
    and those they force to intersect (the only open cross pair of a
    non-commuting pair of subsets)."""
    disjoint = set()
    for curves in system.boundary.values():
        disjoint |= {frozenset(p) for p in itertools.combinations(curves, 2)}
    non_commuting = []
    for a, b in itertools.combinations(system.boundary, 2):
        cross = {
            frozenset((x, y))
            for x in system.boundary[a]
            for y in system.boundary[b]
            if x != y
        }
        if _z_commute(system.diagram, a, b):
            disjoint |= cross
        else:
            non_commuting.append(cross)
    meeting = set()
    for cross in non_commuting:
        open_pairs = cross - disjoint
        assert open_pairs  # otherwise no relation satisfies the constraints
        if len(open_pairs) == 1:
            meeting |= open_pairs
    return disjoint, meeting


def _brute_force_pp(system, subsets, meeting):
    """Every choice map on subsets (one boundary curve each) such that
    chosen curves are distinct and disjoint exactly for commuting subsets."""
    found = []
    for pick in itertools.product(*(system.boundary[s] for s in subsets)):
        if len(set(pick)) < len(pick):
            continue
        if all(
            _z_commute(system.diagram, subsets[i], subsets[j])
            == (frozenset((pick[i], pick[j])) not in meeting)
            for i, j in itertools.combinations(range(len(subsets)), 2)
        ):
            found.append(dict(zip(subsets, pick)))
    return found


def test_dn4_relation_forced_by_audit_constraints():
    system = build_dn(4)
    curves = {c for cs in system.boundary.values() for c in cs}
    pairs = {frozenset(p) for p in itertools.combinations(curves, 2)}
    disjoint, meeting = _forced_relation(system)
    assert (len(curves), len(pairs)) == (13, 78)
    assert len(disjoint) == 57 and len(meeting) == 21
    assert not disjoint & meeting
    assert pairs - disjoint - meeting == set()  # no pair is left free
    assert meeting == system.intersections


def test_dn4_brute_force_admits_exactly_three_pp_maps():
    system = build_dn(4)
    _, meeting = _forced_relation(system)
    subsets = sorted(system.boundary, key=sorted)
    candidates = 1
    for s in subsets:
        candidates *= len(system.boundary[s])
    assert candidates == 24
    found = _brute_force_pp(system, subsets, meeting)
    assert len(found) == 3
    # the maps differ only at the whole diagram, whose Delta^2 is central
    # and whose multicurve meets no curve
    whole = frozenset(system.diagram.vertices)
    assert system.boundary[whole] == ("s0", "s3", "s3'")
    assert sorted(m[whole] for m in found) == ["s0", "s3", "s3'"]
    rest = [{s: c for s, c in m.items() if s != whole} for m in found]
    assert rest[0] == rest[1] == rest[2]
    assert not any(c in p for c in system.boundary[whole] for p in meeting)


def test_dn5_core_admits_no_pp_map():
    system = build_dn(5)
    disjoint, meeting = _forced_relation(system)
    # build_dn(5) is one of the relations the constraints allow
    assert meeting <= system.intersections
    assert not disjoint & system.intersections
    d4 = frozenset(("s", "s'", "t1", "t2"))
    s_side = frozenset(("s", "t1", "t2", "t3"))
    sp_side = frozenset(("s'", "t1", "t2", "t3"))
    core = [d4, s_side, sp_side]
    assert [system.boundary[s] for s in core] == [
        ("s0", "s3", "s3'"), ("r4",), ("r4'",)
    ]
    assert not any(
        _z_commute(system.diagram, a, b)
        for a, b in itertools.combinations(core, 2)
    )
    # every choice for the D_4 subset is forced disjoint from r4 or r4',
    # so no relation satisfying the constraints admits PP on the core
    for choice in system.boundary[d4]:
        assert any(frozenset((choice, r)) in disjoint for r in ("r4", "r4'"))
    # the same by brute force against the relation most favourable to PP
    # here (the core subsets pairwise do not commute): every pair not
    # forced disjoint intersects
    curves = {c for cs in system.boundary.values() for c in cs}
    widest = {frozenset(p) for p in itertools.combinations(curves, 2)} - disjoint
    assert _brute_force_pp(system, core, widest) == []


def test_folded_choices_pass():
    for builder in (build_e6_folded, build_e8_folded):
        result = reference_choice(builder())
        assert result.kind == "choice"
        assert "b" in result.by_subset.values()  # the ambient boundary for S


_A_REASON = "stated interval choice satisfies Property PP"
_FOLDED_REASON = "stated folded-target choice satisfies Property PP"


@pytest.mark.parametrize("builder,reason,by_subset", [
    (lambda: build_an(3), _A_REASON, {
        "t1": "t1:1", "t1+t2": "t1:2", "t1+t2+t3": "t1:3",
        "t2": "t2:2", "t2+t3": "t2:3", "t3": "t3:3"}),
    (lambda: build_an(5), _A_REASON, {
        "+".join("t%d" % k for k in range(i, j + 1)): "t%d:%d" % (i, j)
        for i in range(1, 6) for j in range(i, 6)}),
    (build_e6_folded, _FOLDED_REASON, {
        "s": "c1", "t": "c2", "u": "c3", "v": "c0", "s+t": "a1:2", "t+u": "a2:4",
        "u+v": "q", "s+t+u": "a1:5", "t+u+v": "wL", "s+t+u+v": "b"}),
    (build_e8_folded, _FOLDED_REASON, {
        "s": "c0", "t": "c3", "u": "c2", "v": "c1", "s+t": "A4b", "t+u": "a2:3",
        "u+v": "a1:2", "s+t+u": "eL", "t+u+v": "f1:3", "s+t+u+v": "b"}),
])
def test_stated_reference_choices_are_pinned(builder, reason, by_subset):
    result = reference_choice(builder())
    assert result.kind == "choice"
    assert result.verdict_reason == reason
    assert result.by_subset == by_subset
    assert result.global_pp_found is None


def test_e7fig_has_no_reference_choice():
    with pytest.raises(DiagramError):
        reference_choice(build_e7_figure())


def test_e7_figure_relations():
    system = build_e7_figure()
    # nested and commuting subsets stay disjoint
    assert not system.intersects("cs", "gUp")
    assert not system.intersects("cs", "bDn")
    assert not system.intersects("rUp", "bDn")
    assert system.intersects("cs", "rUp")
    assert system.intersects("gDn", "bDn")


def test_word_system_roundtrip():
    system = build_an(4)
    ws = to_word_system(system)
    assert pp_search(ws) is not None
    assert len(ws.words) == len(system.boundary)


def test_lantern_check():
    report = lantern_check()
    assert report.artin_commute and not report.raag_commute
    red, blue = report.retraction_pair
    assert red == [("t1+t2+t3+t4+t5", 1)]
    assert blue == [("t3+t4+t5+t6+t7", 1)]
    assert not report.retraction_commute


def test_e7_kernel_check():
    report = e7_kernel_check(1)
    assert report.raag_nontrivial
    assert report.artin_nontrivial
    assert report.curve_raag_trivial
    assert report.detail["artin_word_length"] == 404


def test_system_json_shape():
    doc = build_an(3).to_json()
    assert doc["family"] == "An"
    assert set(doc) >= {"curves", "intersections", "boundary"}
    # boundary keys are canonical subset names
    assert "t1+t2" in doc["boundary"]


def test_gtc_bounded_large_power_example():
    # the bounded certificate should hold for any exponent >= 2
    from coxart.diagram import type_diagram
    from coxart.suites import gtc_bounded_check

    report = gtc_bounded_check(type_diagram("A", 3), 9, 4)
    assert report.ok
    assert report.words_checked == 4320


def test_e7_kernel_z_word_normal_form_is_short():
    from coxart.curves import e7_kernel_word_z
    from coxart.diagram import CoxeterDiagram, type_diagram
    from coxart.nerve import subdivision
    from coxart.raag import raag_normal_form

    e7 = type_diagram("E", 7, prefix="x")
    rename = {"x%d" % i: "t%d" % i for i in range(1, 7)}
    rename["x7"] = "s"
    diagram = CoxeterDiagram(
        tuple(rename[v] for v in e7.vertices),
        {frozenset(rename[v] for v in p): m for p, m in e7.labels.items()},
    )
    nf = raag_normal_form(subdivision(diagram).complex, e7_kernel_word_z())
    assert len(nf) == 12
    assert sum(abs(e) for _, e in nf) == 12


def test_folding_suite_budget_marks_skipped(monkeypatch):
    from coxart.suites import run_suite

    monkeypatch.setenv("COXART_LETTER_BUDGET", "5")
    result = run_suite("folding-suite", {"f_max_len": 2})
    assert result.ok  # skipped checks do not fail the suite
    skipped = [c for c in result.checks if c.status == "skipped"]
    assert skipped and all(c.id.startswith("psi-") for c in skipped)
    # the detail names the layer and the letters, not only the count
    assert all("garside" in c.detail and "letter budget 5" in c.detail
               for c in skipped)


def test_gtc_bounded_budget_marks_skipped(monkeypatch):
    from coxart.suites import run_suite

    monkeypatch.setenv("COXART_LETTER_BUDGET", "3")
    result = run_suite("gtc-bounded", {"type": "type A 3", "N": 1,
                                       "max_len": 4})
    assert result.ok
    [check] = result.checks
    assert check.status == "skipped"
    assert "garside" in check.detail and "letter budget 3" in check.detail


@pytest.mark.parametrize("spec, detail", [
    # every image is handed to the engine with a commuting partner
    ("type A 2", "garside normal form: word of 8000000 letters exceeds the "
                 "letter budget 10"),
    # a lone vertex has no partner; only the h1 certificate would walk it
    ("type A 1", "h1 image: word of 2000000 letters exceeds the letter "
                 "budget 10"),
])
def test_gtc_bounded_budget_is_met_before_the_images_are_built(
        monkeypatch, spec, detail):
    from coxart import suites

    def expanded(*args):
        raise AssertionError("an image was expanded")

    monkeypatch.setattr(suites, "delta_power", expanded)
    monkeypatch.setenv("COXART_LETTER_BUDGET", "10")
    result = suites.run_suite("gtc-bounded", {"type": spec, "N": 10 ** 6,
                                              "max_len": 1})
    [check] = result.checks
    assert (check.status, check.detail) == ("skipped", detail)


def test_e7_kernel_word_lives_on_a_path():
    # the four letters span the path T - s - V - U of the E_7 subdivision,
    # and the kernel word is already nontrivial in the RAAG of that path
    from coxart.curves import e7_kernel_word_z
    from coxart.nerve import subdivision
    from coxart.raag import raag_is_trivial

    zword = e7_kernel_word_z()
    sub = subdivision(build_e7_figure().diagram)
    path = sub.complex.full_subcomplex({name for name, _ in zword})
    t, u, v = "s+t1+t2+t3+t4", "t2+t3+t4+t5+t6", "s+t2+t3+t4+t5+t6"
    assert sorted(path.vertices) == sorted((t, "s", v, u))
    assert path.edges == {frozenset(p) for p in ((t, "s"), ("s", v), (v, u))}
    assert not raag_is_trivial(path, zword)


def test_a22_curve_complex_holds_under_a_megabyte():
    import tracemalloc

    build_an(3)  # imports and module-level caches
    tracemalloc.start()
    try:
        cx = build_an(22).complex  # the rest of the system is dropped
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1_000_000, "the complex holds %d bytes" % held
    assert len(cx.vertices) == 363
    assert sum(m.bit_count() for m in cx.neighbours) == 2 * 44342


def test_a22_build_peaks_under_a_megabyte():
    import tracemalloc

    build_an(3)  # imports and module-level caches
    tracemalloc.start()
    try:
        system = build_an(22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, "building A_22 peaked at %d bytes" % peak
    assert len(system.curves) == 363
    assert len(system.intersections) == 363 * 362 // 2 - 44342


def test_intersects_is_false_for_an_unknown_curve():
    system = build_an(4)
    assert not system.intersects("t1:3", "nowhere")
    assert not system.intersects("nowhere", "nowhere")
    assert not system.intersects("t1:3", "t1:3")
    assert all(system.intersects(*sorted(p)) for p in system.intersections)


#: sha256 of `build_system(family, rank).to_json()` (keys sorted), recorded
#: before the A_n diagram came from `type_diagram` and the pair rule lost its
#: equal-interval clause
SYSTEM_DIGESTS = {
    ("An", 2): "c4c8fd13f7c954377ebac655a65841a2f4a19b456fcd9676783218ba0fa4fee9",
    ("An", 3): "a3e946e84cd7075a6cf02f59a6ddc30313f98e6400b78b6faaf006e10a2cd923",
    ("An", 4): "3c2c0e0570fbbc31c5185377ffde854183db69fb152ef55b96a5cc0de8e803ef",
    ("An", 5): "bab52a78f6fbe6f9008c4b600dcb626ee2370a929ff4e21b8486ee0911bdf5b4",
    ("An", 6): "3a381d3d7cacb2ee04e24ed481810bd5784c3d29c9f11601de2f8d6ed7a3e414",
    ("An", 7): "f34bf781fe1779ede70da82e4c625b0cfd5f8ff7e718f5afda1e81fcd3929d50",
    ("An", 8): "d1243aee3b86369b0f30c2f464977575fc561137dd679b5c17c8c889f5fc289e",
    ("Dn", 4): "e484f6339fdcde7f1c5388f1d070e5158c62c27d44e74054cce31864aee9891a",
    ("Dn", 5): "9d59099af80da6c69e7d28851f0a15d07831a11ef7f6f89c7316b93309ee9676",
    ("Dn", 6): "53d72b42ae170080f16c3e1a5b31cfbaefbc50dbeb4ab610fe33279c5640c859",
    ("Dn", 7): "f1dc43959110c3d9a454b18daf56c626f5907eb0a9246ee918a8267568cf93d9",
    ("Dn", 8): "0795425a8fea3980c41466261a61817813047febc48694e3c24fd8ff6457c8c6",
    ("E6F", None): "af1d39f20388884c71bdcbca8884acd6e4e1e3e5e45fadea82a8135d5adcd6e4",
    ("E8F", None): "35b63ebb939fbe6e69cc0489e31cd6deac0a42504ef231eebe8fe3734fa16dae",
    ("E7FIG", None): "d6ffb255cbde146940f00fe26fd834695cbcfc3664028ccf5562810a1a7bcdf0",
}


@pytest.mark.parametrize("family,rank", sorted(SYSTEM_DIGESTS, key=str))
def test_system_json_pinned(family, rank):
    text = json.dumps(build_system(family, rank).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SYSTEM_DIGESTS[family, rank]
