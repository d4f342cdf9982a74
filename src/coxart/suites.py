"""Named verification suites: each check reproduces one of the concrete
computations behind the theorems, exactly and deterministically.

A suite is a generator whose keyword parameters are its options; it yields
(check id, check) pairs, and a check returns a detail string or raises.
`run_suite` alone times, catches and records each check.
"""

from __future__ import annotations

import functools
import json
import time
from collections import namedtuple
from functools import partial

from .curves import (
    audit_system,
    build_an,
    build_dn,
    e7_kernel_check,
    lantern_check,
    reference_choice,
    to_word_system,
)
from .diagram import (
    ComponentType,
    finite_type,
    irreducible_components,
    parse_diagram,
    sort_key,
    subset_name,
    type_diagram,
)
from .folding import build_folded, component_report, f_word, fold_images, psi_word
from .garside import (
    ArtinEngine,
    BudgetExceeded,
    check_budget,
    delta_power,
    delta_word,
    word_length,
)
from .homology import h1_image, independence_check, longest_hyperplane_audit
from .nerve import (DEFAULT_MAX_RANK, complex_on_subsets, nested_or_commuting,
                    spherical_subsets, subdivision)
from .raag import (
    FlagComplex,
    RaagError,
    WordSystem,
    avoidance_check,
    ChoiceMap,
    enumerate_reduced_words,
    generalized_pp_check,
    pp_search,
    pp_search_all,
    raag_commutator,
    raag_inverse,
    raag_is_trivial,
    raag_normal_form,
    validate_choice,
    verify_injectivity_bounded,
)
from .wgroup import build_group

#: irreducible spherical types of rank at most 4, plus a generic odd dihedral
RANK4_TYPES = (
    ("A", 1, None), ("A", 2, None), ("A", 3, None), ("A", 4, None),
    ("B", 2, None), ("B", 3, None), ("B", 4, None),
    ("D", 4, None),
    ("F", 4, None),
    ("G", 2, None),
    ("H", 2, None), ("H", 3, None), ("H", 4, None),
    ("I", 2, 7),
)


#: `status` is pass, fail or skipped
CheckResult = namedtuple("CheckResult", "id status elapsed detail")


class SuiteResult(namedtuple("SuiteResult", "suite checks")):
    __slots__ = ()

    @property
    def ok(self):
        return all(c.status != "fail" for c in self.checks)

    @property
    def exit_code(self):
        return 0 if self.ok else 1

    def to_json(self):
        # elapsed stays out of the JSON so output is run-to-run identical
        return {
            "suite": self.suite,
            "ok": self.ok,
            "checks": [
                {"id": c.id, "status": c.status, "detail": c.detail}
                for c in self.checks
            ],
        }

    def to_text(self):
        lines = ["[%s] %-7s %s%s" % (self.suite, c.status.upper(), c.id,
                                     " -- " + c.detail if c.detail else "")
                 for c in self.checks]
        lines.append("[%s] %s (%d checks)"
                     % (self.suite, "OK" if self.ok else "FAILED", len(self.checks)))
        return "\n".join(lines)


def _lazy(build, *args):
    """A zero-argument function returning build(*args), built on its first
    call.  A build that raises is tried again on the next call, so it fails
    every check that needs it."""
    return functools.cache(partial(build, *args))


def _int_option(key, value, least):
    """A suite option that must be an integer >= least; anything else is a
    usage error, not a failed check."""
    if type(value) is not int or value < least:
        raise ValueError("suite option %r must be an integer >= %d, got %s"
                         % (key, least, json.dumps(value)))
    return value


def _tag(fam, n, p):
    return ComponentType(fam, n, (), p).tag.replace("_", "")


def _alternating(a, b, m):
    return [((a, b)[i % 2], 1) for i in range(m)]


def _engine(fam, n, p=None):
    return ArtinEngine(build_group(type_diagram(fam, n, p)))


# -- garside-core --------------------------------------------------------

def suite_garside_core():
    extra = (("D", 5, None), ("D", 6, None), ("A", 7, None))
    for fam, n, p in RANK4_TYPES + extra:
        tag = _tag(fam, n, p)
        engine = _lazy(_engine, fam, n, p)
        yield "delta-sq-coxeter-%s" % tag, partial(_delta_sq_coxeter, engine)
        yield "delta-sq-central-%s" % tag, partial(_delta_sq_central, engine)
        yield "delta-conjugation-permutes-%s" % tag, partial(_delta_tau, engine)


def _delta_sq_coxeter(engine):
    eng = engine()
    group = eng.w
    diagram = group.diagram
    h = finite_type(diagram).components[0].coxeter_number  # every type here is irreducible
    nf = eng.normal_form(delta_word(diagram, diagram.vertices, 2))
    elements = _coxeter_elements(group)
    for ordering in elements.values():
        word = [(g, 1) for g in ordering] * h
        assert eng.normal_form(word) == nf, (
            "sigma(c)^h != Delta^2 for ordering %s" % (ordering,)
        )
    return "%d distinct Coxeter elements, h=%d" % (len(elements), h)


def _coxeter_elements(group):
    """Every distinct Coxeter element of `group`, each mapped to one ordering
    of the generators that gives it.  The elements over a set S of generators
    that end in g are those over S - g times s_g, so they are built set by
    set, not from all n! orderings."""
    layer = {frozenset(): {group.identity: ()}}
    for _ in group.gens:
        larger = {}
        for subset, elements in layer.items():
            for g in group.gens:
                if g not in subset:
                    into = larger.setdefault(subset | {g}, {})
                    for c, ordering in elements.items():
                        into.setdefault(group.times[g](c), ordering + (g,))
        layer = larger
    (elements,) = layer.values()
    return elements


def _delta_sq_central(engine):
    eng = engine()
    diagram = eng.w.diagram
    delta_sq = delta_word(diagram, diagram.vertices, 2)
    for g in diagram.vertices:
        assert eng.commutes(delta_sq, [(g, 1)]), (
            "Delta^2 does not commute with %s" % g
        )


def _delta_tau(engine):
    eng = engine()
    w, diagram = eng.w, eng.w.diagram
    delta = delta_word(diagram, diagram.vertices, 1)
    by_simple = {w.simple(h): h for h in diagram.vertices}
    for g in diagram.vertices:
        image = by_simple.get(eng.tau(w.simple(g)))
        assert image is not None, "conjugation by Delta must permute generators"
        # word level: Delta^-1 x_g Delta = x_tau(g)
        lhs = raag_inverse(delta) + [(g, 1)] + delta
        assert eng.equals(lhs, [(image, 1)])


# -- tits-classic ---------------------------------------------------------

def suite_tits_classic():
    for m in (3, 4, 5):
        yield "squares-free-I2(%d)" % m, partial(_squares_free, m)
    yield "squares-commute-A3-ends", _squares_commute_far


def _squares_free(m):
    eng = _engine("I", 2, m)
    s, t = eng.w.gens
    assert not eng.commutes([(s, 2)], [(t, 2)]), "[s^2,t^2] = 1 in I_2(%d)" % m


def _squares_commute_far():
    eng = _engine("A", 3)
    assert eng.commutes([("s1", 2)], [("s3", 2)]), "[s^2,u^2] != 1 with m=2"


# -- dihedral-audit (word identities, hyperplane audit, h1 lemma) ----------

def dihedral_identity_words(n):
    """Delta^(2n) = s t^(2n) s (t^2 s^2 ... with 2n-1 factors), in A_2."""
    tail = [(("t", "s")[i % 2], 2) for i in range(2 * n - 1)]
    pos = [("s", 1), ("t", 2 * n), ("s", 1)] + tail
    swap = {"s": "t", "t": "s"}
    return pos, [(swap[g], e) for g, e in pos]


def suite_dihedral_audit():
    a2 = _lazy(lambda: ArtinEngine(build_group(
        parse_diagram("vertex s; vertex t; edge s t 3"))))
    for n in (1, 2, 3):
        yield "delta-power-identity-n%d" % n, partial(_delta_power_identity, a2, n)
    for m in (3, 4, 5):
        yield "longest-hyperplane-m%d" % m, partial(_longest_hyperplane, m)
    for fam, n, p in RANK4_TYPES:
        yield "h1-delta-sq-%s" % _tag(fam, n, p), partial(_h1_delta_sq, fam, n, p)
    yield "h1-delta-sq-parabolic", _h1_delta_sq_parabolic
    for fam, n in (("A", 3), ("B", 3)):
        yield ("h1-simplex-independence-%s%d" % (fam, n),
               partial(_h1_simplex_independence, fam, n))


def _delta_power_identity(a2, n):
    eng = a2()
    diagram = eng.w.diagram
    delta_2n = delta_word(diagram, diagram.vertices, 2 * n)
    pos, pos_sym = dihedral_identity_words(n)
    assert eng.equals(delta_2n, pos), "Delta^{2n} identity fails"
    assert eng.equals(delta_2n, pos_sym), "tau-symmetric identity fails"
    neg_expected = delta_word(diagram, diagram.vertices, -2 * n)
    assert eng.equals(neg_expected, raag_inverse(pos)), "Delta^{-2n} identity fails"


def _longest_hyperplane(m):
    report = longest_hyperplane_audit(m, exponent_bound=3)
    assert report.ok, "violations: %s" % report.failures[:1]
    return "%d pure words among %d scanned" % (
        report.pure_words, report.words_scanned
    )


def _h1_delta_sq_rule(group, subset, tag):
    """h1(Delta_T^2) is the sum of e_r over the positive roots r that w_T
    inverts; returns how many roots that is."""
    delta = delta_word(group.diagram, subset, 1)
    w_t = group.word_to_element([g for g, _ in delta])
    inverted = {r: 1 for r in range(group.n_pos) if w_t[r] >= group.n_pos}
    assert h1_image(group, delta * 2).as_dict() == inverted, (
        "h1(Delta_T^2) wrong for T=%s in %s" % (subset_name(subset), tag))
    return len(inverted)


def _h1_delta_sq(fam, n, p):
    group = build_group(type_diagram(fam, n, p))
    inverted = _h1_delta_sq_rule(group, group.diagram.vertices, _tag(fam, n, p))
    assert inverted == group.n_pos, "w_S inverts %d of %d roots" % (inverted, group.n_pos)


def _h1_delta_sq_parabolic():
    # proper irreducible spherical subsets inside larger groups
    for fam, n in (("A", 4), ("B", 4), ("D", 5), ("F", 4), ("H", 4)):
        group = build_group(type_diagram(fam, n))
        for subset in [s for s, irr in spherical_subsets(group.diagram).items() if irr]:
            _h1_delta_sq_rule(group, subset, _tag(fam, n, None))


def _h1_simplex_independence(fam, n):
    diagram = type_diagram(fam, n)
    group = build_group(diagram)
    sub = subdivision(diagram)
    cliques = [c for c in sub.complex.cliques() if len(c) >= 2]
    for clique in cliques:
        words = [delta_word(diagram, sub.vertex_subsets[v], 2) for v in clique]
        assert independence_check(group, words), (
            "h1 images of simplex %s are dependent" % sorted(clique)
        )
    return "%d simplices checked" % len(cliques)


# -- pp-suite -------------------------------------------------------------

def badpp_system(n=1):
    """Casals' words a^n, d^n, (bc)^n in F_2 x F_2."""
    return _abcd_system([("a", "b"), ("a", "d"), ("c", "b"), ("c", "d")], n)


def path_system():
    """The words a, d, bc on the path a - b - c - d."""
    return _abcd_system([("a", "b"), ("b", "c"), ("c", "d")], 1)


def _abcd_system(edges, n):
    words = {
        frozenset("a"): [("a", n)],
        frozenset("d"): [("d", n)],
        frozenset(("b", "c")): [("b", n), ("c", n)],
    }
    return WordSystem(FlagComplex("abcd", edges), words)


def suite_pp():
    yield "braid4-subdivision-counts", _braid4_subdivision_counts
    yield "badpp-example", partial(_badpp_example, 1)
    yield "badpp-example-cubes", partial(_badpp_example, 3)
    yield "path-generalized-pp", _path_generalized_pp
    yield "badpp-no-split-certifies", _badpp_no_split_certifies
    yield "avoidance-conditions", _avoidance_conditions


def _braid4_subdivision_counts():
    d = parse_diagram("vertex s; vertex t; vertex u; edge s t 3; edge t u 3")
    cx = subdivision(d).complex
    v, e, t = len(cx.vertices), len(cx.edges), sum(len(c) == 3 for c in cx.cliques(3))
    assert (v, e, t) == (6, 10, 5), "got %s" % ((v, e, t),)
    return "6 vertices, 10 edges, 5 triangles"


def _badpp_example(n):
    system = badpp_system(n)
    assert pp_search(system) is None, "PP should fail for a,d,bc"
    u = [("b", n), ("c", n), ("d", n), ("c", -n), ("b", -n)]
    rel = raag_commutator([("a", n)], u)
    assert raag_is_trivial(system.complex, rel), "[a,(bc)d(bc)^-1] should be trivial"


def _path_generalized_pp():
    system = path_system()
    assert pp_search(system) is None, "PP should fail on the path"
    verdict = generalized_pp_check(system, "abc", "bcd")
    assert verdict.certified, verdict.reason
    assert "free of rank 3" in verdict.conclusion, verdict.conclusion
    return verdict.conclusion


def _badpp_no_split_certifies():
    system = badpp_system()
    splits = [
        ("abc", "bcd"), ("abd", "acd"), ("abcd", "bc"),
        ("ab", "abcd"), ("abcd", "abcd"),
    ]
    for l1, l2 in splits:
        try:
            verdict = generalized_pp_check(system, l1, l2)
        except RaagError:
            # abc/bcd and abd/acd are no splits: an edge lies in neither part
            continue
        assert not verdict.certified, "split %s/%s should fail" % (l1, l2)


def _avoidance_conditions():
    # words stu and st on a 2-simplex avoid u only vacuously: condition 2
    cx = FlagComplex("stu", [("s", "t"), ("t", "u"), ("s", "u")])
    system = WordSystem(cx, {
        frozenset("stu"): [("s", 1), ("t", 1), ("u", 1)],
        frozenset(("s", "t")): [("s", 1), ("t", 1)],
    })
    assert pp_search(system) is not None
    bad = all(not avoidance_check(system, "u", c) for c in pp_search_all(system))
    assert bad, "no choice should avoid {u}: condition 2 must fail"
    # the motivating path example does avoid
    psys = path_system().restricted(set("abc"))
    cm2 = ChoiceMap({frozenset("a"): "a", frozenset(("b", "c")): "c"})
    assert avoidance_check(psys, set("bc"), cm2)


# -- curve suites ----------------------------------------------------------

def _an_lemma_checks(system):
    subs = system.subsets()
    position = {v: i for i, v in enumerate(system.diagram.vertices)}
    for i, t1 in enumerate(subs):
        for t2 in subs[:i]:
            if nested_or_commuting(system.diagram, t1, t2):
                continue
            b1, b2 = system.boundary[t1], system.boundary[t2]
            for a, b in ((b1, b2), (b2, b1)):
                if len(a) == 1:
                    for c in b:
                        assert system.intersects(a[0], c), (
                            "single boundary %s misses %s" % (a[0], c)
                        )
            if len(b1) == 2 and len(b2) == 2:
                for c in b1:
                    assert any(system.intersects(c, d) for d in b2), (
                        "curve %s misses all of %s" % (c, subset_name(t2))
                    )
                # intervals whose starts differ in parity: all four pairs meet
                i1, i2 = (min(map(position.get, t)) for t in (t1, t2))
                if i1 % 2 != i2 % 2:
                    for c in b1:
                        for d in b2:
                            assert system.intersects(c, d), (
                                "mixed parity pair %s %s disjoint" % (c, d)
                            )


def suite_an_curves(max_rank=7):
    for n in range(2, _int_option("max_rank", max_rank, 2) + 1):
        yield "an-system-n%d" % n, partial(_an_system, n)


def _an_system(n):
    system = build_an(n)
    defects = audit_system(system)
    assert not defects, defects[0]
    _an_lemma_checks(system)
    assert reference_choice(system).kind == "choice"
    assert pp_search(to_word_system(system)) is not None
    return "%d curves, stated choice verified" % len(system.curves)


def _dn_lemma_checks(system):
    n = system.rank
    t = lambda i: "t%d" % i
    # item (1)/(2): the designated inner component of a family-(1) boundary
    for j in range(1, n - 1):
        t1 = frozenset(("s", "s'")) | {t(i) for i in range(1, j + 1)}
        inner = [c for c in system.boundary[t1] if c != "s0"]
        for t2 in system.subsets():
            if nested_or_commuting(system.diagram, t1, t2):
                continue
            b2 = system.boundary[t2]
            hit = [
                (a, b) for a in inner for b in b2 if system.intersects(a, b)
            ]
            assert hit, "inner boundary of %s misses %s" % (
                subset_name(t1), subset_name(t2)
            )
            if "s" not in t2 and "s'" not in t2 and j % 2 == 1:
                for b in b2:
                    assert system.intersects(inner[0], b), (
                        "odd D inner component misses %s" % b
                    )
    # item (2) furthermore: one component for the s side, one for the s' side
    for j in range(2, n - 1, 2):
        t1 = frozenset(("s", "s'")) | {t(i) for i in range(1, j + 1)}
        down, up = "s%d" % (j + 1), "s%d'" % (j + 1)
        for k in range(j + 2, n):
            s_side = frozenset(("s",)) | {t(i) for i in range(1, k)}
            sp_side = frozenset(("s'",)) | {t(i) for i in range(1, k)}
            assert any(
                system.intersects(down, c) for c in system.boundary[s_side]
            ), "component %s misses the s-side rank %d" % (down, k)
            assert any(
                system.intersects(up, c) for c in system.boundary[sp_side]
            ), "component %s misses the s'-side rank %d" % (up, k)
    # item (3): the r curves of opposite sides always intersect
    for k in range(2, n):
        for l in range(2, n):
            assert system.intersects("r%d" % k, "r%d'" % l)


#: ranks at which the D-family system does admit global PP, with the exact
#: number of choice maps; at rank 4 the audit constraints force every
#: intersection and only the whole-diagram choice varies (DECISIONS.md)
_DN_GLOBAL_PP_MAPS = {4: 3}


def suite_dn_curves(ranks=(4, 5, 6, 7)):
    if not isinstance(ranks, (list, tuple)) or not ranks:
        raise ValueError("suite option 'ranks' must be a nonempty list of integers, "
                         "got %s" % json.dumps(ranks))
    ranks = [_int_option("ranks", n, 4) for n in ranks]
    if len(set(ranks)) != len(ranks):
        raise ValueError("suite option 'ranks' repeats a rank: %s" % json.dumps(ranks))
    for n in ranks:
        system = _lazy(build_dn, n)
        yield "dn-system-n%d" % n, partial(_dn_system, system)
        if n in _DN_GLOBAL_PP_MAPS:
            yield "dn-global-pp-holds-n%d" % n, partial(_dn_global_pp_holds, system)
        else:
            yield "dn-global-pp-fails-n%d" % n, partial(_dn_global_pp_fails, system)
        yield "dn-split-certifies-n%d" % n, partial(_dn_split_certifies, system)


def _dn_system(system):
    system = system()
    defects = audit_system(system)
    assert not defects, defects[0]
    _dn_lemma_checks(system)
    return "%d curves audited" % len(system.curves)


def _dn_global_pp_holds(system):
    system = system()
    ws = to_word_system(system)
    maps = list(pp_search_all(ws))
    expected = _DN_GLOBAL_PP_MAPS[system.rank]
    assert len(maps) == expected, (
        "D_%d admits %d global PP choice maps, expected %d"
        % (system.rank, len(maps), expected)
    )
    for cm in maps:
        defects = validate_choice(ws, cm)
        assert not defects, defects[0]
    return "%d global choice maps, each validated" % len(maps)


def _dn_global_pp_fails(system):
    system = system()
    assert pp_search(to_word_system(system)) is None, (
        "global PP unexpectedly satisfiable for D_%d "
        "(every intersection here is forced by the stated "
        "disjointness constraints; see the noPP figure scale)" % system.rank
    )


def _dn_split_certifies(system):
    result = reference_choice(system())
    assert result.kind == "split"
    return result.verdict_reason


# -- folding-suite ----------------------------------------------------------

#: each folded source type with the tags of its target's components
_FOLD_CASES = (
    ("I", 2, 3, {"A_2"}),
    ("I", 2, 4, {"A_3"}),
    ("I", 2, 5, {"A_4"}),
    ("I", 2, 6, {"A_5"}),
    ("B", 3, None, {"D_4", "A_5"}),
    ("H", 3, None, {"D_6"}),
    ("F", 4, None, {"E_6"}),
    ("H", 4, None, {"E_8"}),
)


def _psi_relations(fold):
    """Every defining braid relation lands on a Garside equality in the fold
    target, read by one engine for all its components.  A relation counts
    as one check per component its letters touch; any relation over the
    letter budget skips the check."""
    fold = fold()
    engine = ArtinEngine(build_group(fold.target))
    component = {x: i for i, c in enumerate(irreducible_components(fold.target))
                 for x in c}
    checked = skipped = 0
    first_skip = None
    for a, b, m in fold.source.edges():
        lhs = psi_word(fold, _alternating(a, b, m))
        touched = len({component[g] for g, _ in lhs})
        try:
            assert engine.equals(lhs, psi_word(fold, _alternating(b, a, m))), (
                "relation %s%s broken" % (a, b))
            checked += touched
        except BudgetExceeded as exc:
            skipped += touched
            first_skip = first_skip or str(exc)
    if skipped:
        raise BudgetExceeded(
            "%d relation checks skipped over budget: %s" % (skipped, first_skip)
        )
    return "%d per-component relation checks" % checked


def f_preserves_reduced(fold, src, images, max_len):
    """F maps reduced words to reduced words and is injective on the sample.

    `src` is the source subdivision and `images` its `fold_images` map.

    Inverting every letter of one vertex is an automorphism of a RAAG, and
    the normal form commutes with it.  F commutes with it too, because
    distinct source vertices own disjoint sets of components.  So only the
    representative of each sign orbit, the word whose first syllable on
    each vertex is positive, is put into normal form: the other 2^k - 1
    words of the orbit, k the number of vertices in the word, have the
    images of its normal form under those inversions."""
    owner = {}
    for name in sorted(images, key=sort_key):
        shared = sorted({owner[c] for c in images[name] if c in owner}, key=sort_key)
        assert not shared, (
            "distinct subsets share a fold component: %s %s" % (name, shared[0])
        )
        owner.update((c, name) for c in images[name])
    image_subsets = {c for image in images.values() for c in image.values()}
    # F lands in the full subcomplex on these vertices, which computes the
    # same normal forms as the whole target subdivision
    tgt_complex = complex_on_subsets(fold.target, image_subsets)
    size = {name: len(image) for name, image in images.items()}
    seen_img = set()
    count = representatives = mapped = 0
    for word in enumerate_reduced_words(src.complex, max_len):
        count += 1
        met = set()  # the vertices whose first syllable is positive
        for v, e in word:
            if v not in met:
                if e < 0:
                    break
                met.add(v)
        else:
            representatives += 1
            nf = raag_normal_form(tgt_complex, f_word(images, word))
            expected_len = sum(abs(e) * size[v] for v, e in word)
            assert word_length(nf) == expected_len, (
                "F does not preserve reduced length on %s" % (word,)
            )
            mapped += 1 << len(met)
            # No letter cancelled, so the letters of each component keep
            # their order, and the first comes from its owner's first
            # syllable, which is positive.  So the 2^k words of the orbit
            # have distinct images, and two orbits share an image only if
            # their representatives do.
            seen_img.add(tuple(nf))
    assert mapped == count, "sign orbits cover %d of %d words" % (mapped, count)
    assert len(seen_img) == representatives, "F is not injective on the sample"
    return count


def raaginj_mechanics(fold, src, images):
    """The combinatorial fact behind injectivity of F, on the source
    subdivision `src` and its `fold_images` map, besides the disjoint
    images that `f_preserves_reduced` checks."""
    names = sorted(src.vertex_subsets, key=sort_key)
    for i, a in enumerate(names):
        for b in names[:i]:
            if src.complex.adjacent(a, b):
                continue
            for ca in images[a].values():
                partners = [
                    cb
                    for cb in images[b].values()
                    if not nested_or_commuting(fold.target, ca, cb)
                ]
                assert partners, (
                    "component %s of %s has no non-commuting partner in %s"
                    % (sorted(ca), a, b)
                )


def suite_folding(f_max_len=4):
    max_len = _int_option("f_max_len", f_max_len, 1)
    for fam, n, p, expected in _FOLD_CASES:
        tag = _tag(fam, n, p)
        fold = _lazy(build_folded, type_diagram(fam, n, p))
        yield "fold-components-%s" % tag, partial(_fold_components, fold, expected)
        yield "psi-relations-%s" % tag, partial(_psi_relations, fold)
        yield "f-injective-%s" % tag, partial(_f_injective, fold, max_len)


def _fold_components(fold, expected):
    reports = component_report(fold())
    tags = {r.tag for r in reports}
    assert tags == expected, "components %s, expected %s" % (tags, expected)
    # component_report has checked every component's h against the source's
    return "components %s, h=%d" % (sorted(tags), reports[0].coxeter_number)


def _f_injective(fold, max_len):
    fold = fold()
    src = subdivision(fold.source)
    images = fold_images(fold, src.vertex_subsets)
    count = f_preserves_reduced(fold, src, images, max_len)
    raaginj_mechanics(fold, src, images)
    return "%d reduced words mapped" % count


# -- gtc-bounded -----------------------------------------------------------

def gtc_bounded_check(diagram, n_power, max_len):
    """Certify no nontrivial word of RA of length <= max_len dies under the
    substitution z_T -> Delta_T^(2N) into the Artin group."""
    sub = subdivision(diagram)
    group = build_group(diagram)
    eng = ArtinEngine(group)
    # Delta_T^(2N) has 2N letters per reflection of T.  The budget is met
    # before any image is expanded: the commuting-pair checks hand two
    # images at a time to the engine, and the h1 certificate walks each one.
    letters = {name: 2 * n_power * len(delta_word(diagram, subset))
               for name, subset in sub.vertex_subsets.items()}
    for a, b in sub.complex.edge_pairs():
        check_budget("garside normal form", letters[a] + letters[b])
    for count in letters.values():
        check_budget("h1 image", count)
    images = {
        name: delta_power(diagram, subset, 2 * n_power)
        for name, subset in sub.vertex_subsets.items()
    }
    # generator images are pure with independent abelianization classes,
    # so only exponent-sum-zero words need the Garside engine
    h1_ok = independence_check(group, list(images.values()))
    return verify_injectivity_bounded(
        sub.complex,
        images,
        eng.is_trivial,
        max_len,
        commute_check=eng.commutes,
        abelian_certificate=h1_ok,
    )


#: the cases run when no 'type' is given: diagram, N, max_len
_GTC_CASES = (
    ("type I 2 4", 1, 6),
    ("type I 2 5", 1, 6),
    ("type A 2", 2, 6),
    ("type A 3", 2, 6),
)


def suite_gtc_bounded(type=None, N=None, max_len=None):
    """The default cases, or the one case `type` with N (default 1) and
    max_len (default 6)."""
    if type is None:
        given = [key for key, value in (("N", N), ("max_len", max_len))
                 if value is not None]
        if given:
            raise ValueError("suite option %r is read only with 'type'" % given[0])
        cases = _GTC_CASES
    else:
        if not isinstance(type, str):
            raise ValueError("suite option 'type' must be a diagram string, "
                             "got %s" % json.dumps(type))
        # a malformed, non-spherical or too large diagram is a usage error
        diagram = parse_diagram(type)
        if not finite_type(diagram).is_spherical:
            raise ValueError("gtc-bounded needs a spherical diagram, got %s"
                             % json.dumps(type))
        if not diagram.vertices:
            raise ValueError("gtc-bounded needs a diagram with generators, got %s"
                             % json.dumps(type))
        if len(diagram.vertices) > DEFAULT_MAX_RANK:
            raise ValueError("gtc-bounded needs at most %d generators, got %d"
                             % (DEFAULT_MAX_RANK, len(diagram.vertices)))
        cases = [(type, _int_option("N", 1 if N is None else N, 1),
                  _int_option("max_len", 6 if max_len is None else max_len, 1))]
    for spec, n_power, max_len in cases:
        yield ("gtc-%s-N%d-len%d" % (spec.replace(" ", ""), n_power, max_len),
               partial(_gtc_case, spec, n_power, max_len))


def _gtc_case(spec, n_power, max_len):
    report = gtc_bounded_check(parse_diagram(spec), n_power, max_len)
    assert report.ok, "%s (word %s)" % (report.detail, report.violation)
    return "%d words, %d through the Garside engine" % (
        report.words_checked, report.slow_path_checked
    )


# -- e7-kernel and lantern ---------------------------------------------------

def suite_e7_kernel(power=1):
    report = _lazy(e7_kernel_check, _int_option("power", power, 1))
    yield "raag-commutator-nontrivial", partial(_e7_leg, report, "raag_nontrivial")
    yield "artin-commutator-nontrivial", partial(_e7_leg, report, "artin_nontrivial")
    yield "curve-raag-commutator-trivial", partial(_e7_leg, report, "curve_raag_trivial")


def _artin_leg(verdict):
    """A set piece's verdict; an Artin leg kept over budget skips its check."""
    if isinstance(verdict, BudgetExceeded):
        raise verdict
    return verdict


def _e7_leg(report, key):
    report = report()
    assert _artin_leg(getattr(report, key)), report.detail
    return json.dumps(report.detail) if key == "artin_nontrivial" else ""


def suite_lantern():
    report = _lazy(lantern_check)
    yield "artin-twists-commute", partial(_lantern_artin, report)
    yield "raag-words-do-not-commute", partial(_lantern_raag, report)
    yield "retraction-to-F2-separates", partial(_lantern_retraction, report)


def _lantern_artin(report):
    assert _artin_leg(report().artin_commute), "lantern twists must commute in the Artin group"


def _lantern_raag(report):
    assert not report().raag_commute, "z-words must not commute in RA"


def _lantern_retraction(report):
    r = report()
    red, blue = r.retraction_pair
    assert red != blue and red and blue
    assert not r.retraction_commute
    return "images %s vs %s" % (red, blue)


_SUITE_FUNCS = {
    "garside-core": suite_garside_core,
    "tits-classic": suite_tits_classic,
    "gtc-bounded": suite_gtc_bounded,
    "dihedral-audit": suite_dihedral_audit,
    "pp-suite": suite_pp,
    "an-curves": suite_an_curves,
    "dn-curves": suite_dn_curves,
    "folding-suite": suite_folding,
    "e7-kernel": suite_e7_kernel,
    "lantern": suite_lantern,
}

SUITES = tuple(_SUITE_FUNCS)


def run_suite(name, config=None):
    """Run a suite's checks in order.  The config keys are the suite
    function's keyword parameters; any other key is a usage error."""
    if not __debug__:  # every verdict is an assert statement
        raise ValueError("python -O strips the asserts that decide each check")
    if name not in _SUITE_FUNCS:
        raise KeyError("unknown suite %r (choose from %s)" % (name, SUITES))
    suite = _SUITE_FUNCS[name]
    config = config or {}
    code = suite.__code__
    params = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
    unread = sorted(set(config) - set(params))
    if unread:
        raise ValueError("suite %s reads no option %r" % (name, unread[0]))
    result = SuiteResult(name, [])
    for check_id, check in suite(**config):
        t0 = time.monotonic()
        try:
            status, detail = "pass", check() or ""
        except BudgetExceeded as exc:
            status, detail = "skipped", str(exc)
        except AssertionError as exc:
            status, detail = "fail", str(exc)
        except Exception as exc:  # a crashed check is a failed check
            status, detail = "fail", "%s: %s" % (type(exc).__name__, exc)
        result.checks.append(
            CheckResult(check_id, status, time.monotonic() - t0, detail)
        )
    return result
