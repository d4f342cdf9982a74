"""Named verification suites: each check reproduces one of the concrete
computations behind the theorems, exactly and deterministically."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .diagram import finite_type, parse_diagram, sort_key, type_diagram
from .garside import (
    ArtinEngine,
    BudgetExceeded,
    delta_power,
    delta_word,
)
from .homology import (
    h1_image,
    independence_check,
    longest_hyperplane_audit,
)
from .nerve import nested_or_commuting, subdivision, subset_name
from .raag import (
    FlagComplex,
    WordSystem,
    avoidance_check,
    ChoiceMap,
    enumerate_reduced_words,
    generalized_pp_check,
    pp_search,
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


@dataclass
class CheckResult:
    id: str
    status: str  # pass / fail / skipped
    elapsed: float
    detail: str = ""


@dataclass
class SuiteResult:
    suite: str
    checks: list = field(default_factory=list)

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
        lines = []
        for c in self.checks:
            lines.append(
                "[%s] %-7s %s%s"
                % (
                    self.suite,
                    c.status.upper(),
                    c.id,
                    (" -- " + c.detail) if c.detail else "",
                )
            )
        lines.append(
            "[%s] %s (%d checks)"
            % (self.suite, "OK" if self.ok else "FAILED", len(self.checks))
        )
        return "\n".join(lines)


class _Recorder:
    def __init__(self, suite):
        self.result = SuiteResult(suite)

    def run(self, check_id, fn):
        t0 = time.monotonic()
        try:
            detail = fn()
            status = "pass"
            detail = detail or ""
        except BudgetExceeded as exc:
            status = "skipped"
            detail = str(exc)
        except AssertionError as exc:
            status = "fail"
            detail = str(exc)
        except Exception as exc:  # a crashed check is a failed check
            status = "fail"
            detail = "%s: %s" % (type(exc).__name__, exc)
        self.result.checks.append(
            CheckResult(check_id, status, time.monotonic() - t0, detail)
        )


def _int_option(key, value, least):
    """A suite option that must be an integer >= least; anything else is a
    usage error, not a failed check."""
    if type(value) is not int or value < least:
        raise ValueError("suite option %r must be an integer >= %d, got %s"
                         % (key, least, json.dumps(value)))
    return value


def _budget(config):
    """The letter budget option: absent (the engine default) or an integer >= 1."""
    budget = config.get("budget")
    return None if budget is None else _int_option("budget", budget, 1)


def _alternating(a, b, m):
    return [((a, b)[i % 2], 1) for i in range(m)]


def _engines_for(types):
    for fam, n, p in types:
        diagram = type_diagram(fam, n, p)
        tag = fam + str(n) + (("(%d)" % p) if p else "")
        yield tag, diagram, ArtinEngine(build_group(diagram))


# -- garside-core --------------------------------------------------------

def suite_garside_core(config=None):
    rec = _Recorder("garside-core")
    extra = (("D", 5, None), ("D", 6, None), ("A", 7, None))
    for tag, diagram, eng in _engines_for(RANK4_TYPES + extra):
        group = eng.w

        def check_delta_sq(eng=eng, group=group, diagram=diagram):
            h = group.coxeter_number()
            delta_sq = delta_word(diagram, diagram.vertices, 2)
            nf = eng.normal_form(delta_sq)
            seen = set()
            from itertools import permutations

            for ordering in permutations(group.gens):
                c = group.word_to_element(ordering)
                if c in seen:
                    continue
                seen.add(c)
                word = [(g, 1) for g in ordering] * h
                assert eng.normal_form(word) == nf, (
                    "sigma(c)^h != Delta^2 for ordering %s" % (ordering,)
                )
            return "%d distinct Coxeter elements, h=%d" % (len(seen), h)

        def check_central(eng=eng, diagram=diagram):
            delta_sq = delta_word(diagram, diagram.vertices, 2)
            for g in diagram.vertices:
                assert eng.commutes(delta_sq, [(g, 1)]), (
                    "Delta^2 does not commute with %s" % g
                )

        def check_tau(eng=eng, diagram=diagram):
            for g in diagram.vertices:
                image = eng.tau_generator(g)
                assert image in diagram.vertices
                # word level: Delta^-1 x_g Delta = x_tau(g)
                delta = delta_word(diagram, diagram.vertices, 1)
                lhs = raag_inverse(delta) + [(g, 1)] + delta
                assert eng.equals(lhs, [(image, 1)])

        rec.run("delta-sq-coxeter-%s" % tag, check_delta_sq)
        rec.run("delta-sq-central-%s" % tag, check_central)
        rec.run("delta-conjugation-permutes-%s" % tag, check_tau)
    return rec.result


# -- tits-classic ---------------------------------------------------------

def suite_tits_classic(config=None):
    rec = _Recorder("tits-classic")
    for m in (3, 4, 5):
        def check(m=m):
            eng = ArtinEngine(build_group(type_diagram("I", 2, m)))
            s, t = eng.w.gens
            assert not eng.commutes([(s, 2)], [(t, 2)]), (
                "[s^2,t^2] = 1 in I_2(%d)" % m
            )
        rec.run("squares-free-I2(%d)" % m, check)

    def check_far():
        diagram = type_diagram("A", 3)
        eng = ArtinEngine(build_group(diagram))
        assert eng.commutes([("s1", 2)], [("s3", 2)]), "[s^2,u^2] != 1 with m=2"
    rec.run("squares-commute-A3-ends", check_far)
    return rec.result


# -- dihedral-audit (word identities, hyperplane audit, h1 lemma) ----------

def dihedral_identity_words(n):
    """Delta^(2n) = s t^(2n) s (t^2 s^2 ... with 2n-1 factors), in A_2."""
    tail = [(("t", "s")[i % 2], 2) for i in range(2 * n - 1)]
    pos = [("s", 1), ("t", 2 * n), ("s", 1)] + tail
    tail_ts = [(("s", "t")[i % 2], 2) for i in range(2 * n - 1)]
    pos_sym = [("t", 1), ("s", 2 * n), ("t", 1)] + tail_ts
    return pos, pos_sym


def suite_dihedral_audit(config=None):
    rec = _Recorder("dihedral-audit")
    a2 = parse_diagram("vertex s; vertex t; edge s t 3")
    eng = ArtinEngine(build_group(a2))

    for n in (1, 2, 3):
        def check_identity(n=n):
            delta_2n = delta_word(a2, a2.vertices, 2 * n)
            pos, pos_sym = dihedral_identity_words(n)
            assert eng.equals(delta_2n, pos), "Delta^{2n} identity fails"
            assert eng.equals(delta_2n, pos_sym), "tau-symmetric identity fails"
            neg = raag_inverse(pos)
            neg_expected = delta_word(a2, a2.vertices, -2 * n)
            assert eng.equals(neg_expected, neg), "Delta^{-2n} identity fails"
        rec.run("delta-power-identity-n%d" % n, check_identity)

    for m in (3, 4, 5):
        def check_audit(m=m):
            report = longest_hyperplane_audit(m, exponent_bound=3)
            assert report.ok, "violations: %s" % report.failures[:1]
            return "%d pure words among %d scanned" % (
                report.pure_words, report.words_scanned
            )
        rec.run("longest-hyperplane-m%d" % m, check_audit)

    for fam, n, p in RANK4_TYPES:
        def check_h1(fam=fam, n=n, p=p):
            diagram = type_diagram(fam, n, p)
            group = build_group(diagram)
            vec = h1_image(group, delta_word(diagram, diagram.vertices, 2))
            expected = {r: 1 for r in range(group.n_pos)}
            assert vec.as_dict() == expected, "h1(Delta^2) != sum of e_r"
        rec.run("h1-delta-sq-%s%d%s" % (fam, n, "(%d)" % p if p else ""), check_h1)

    def check_h1_subsets():
        # proper irreducible spherical subsets inside larger groups
        for fam, n in (("A", 4), ("B", 4), ("D", 5), ("F", 4), ("H", 4)):
            diagram = type_diagram(fam, n)
            group = build_group(diagram)
            sub = subdivision(diagram)
            for name, subset in sub.vertex_subsets.items():
                word = delta_word(diagram, subset, 2)
                vec = h1_image(group, word)
                wt = group.word_to_element(
                    [g for g, _ in delta_word(diagram, subset, 1)]
                )
                expected = {
                    r: 1 for r in range(group.n_pos) if wt[r] >= group.n_pos
                }
                assert vec.as_dict() == expected, (
                    "h1(Delta_T^2) wrong for T=%s in %s%d" % (name, fam, n)
                )
    rec.run("h1-delta-sq-parabolic", check_h1_subsets)

    for fam, n in (("A", 3), ("B", 3)):
        def check_indep(fam=fam, n=n):
            diagram = type_diagram(fam, n)
            group = build_group(diagram)
            sub = subdivision(diagram)
            cliques = [c for c in sub.complex.cliques() if len(c) >= 2]
            for clique in cliques:
                words = [
                    delta_word(diagram, sub.vertex_subsets[v], 2) for v in clique
                ]
                assert independence_check(group, words), (
                    "h1 images of simplex %s are dependent" % sorted(clique)
                )
            return "%d simplices checked" % len(cliques)
        rec.run("h1-simplex-independence-%s%d" % (fam, n), check_indep)
    return rec.result


# -- pp-suite -------------------------------------------------------------

def badpp_system(n=1):
    """Casals' words a^n, d^n, (bc)^n in F_2 x F_2."""
    cx = FlagComplex.build(
        "abcd", [("a", "b"), ("a", "d"), ("c", "b"), ("c", "d")]
    )
    words = {
        frozenset("a"): [("a", n)],
        frozenset("d"): [("d", n)],
        frozenset(("b", "c")): [("b", n), ("c", n)],
    }
    return WordSystem(cx, words)


def path_system():
    cx = FlagComplex.build(
        "abcd", [("a", "b"), ("b", "c"), ("c", "d")]
    )
    words = {
        frozenset("a"): [("a", 1)],
        frozenset("d"): [("d", 1)],
        frozenset(("b", "c")): [("b", 1), ("c", 1)],
    }
    return WordSystem(cx, words)


def suite_pp(config=None):
    rec = _Recorder("pp-suite")

    def check_subdivision_counts():
        d = parse_diagram("vertex s; vertex t; vertex u; edge s t 3; edge t u 3")
        sub = subdivision(d)
        v, e, t = len(sub.complex.vertices), len(sub.complex.edges), len(sub.triangles())
        assert (v, e, t) == (6, 10, 5), "got %s" % ((v, e, t),)
        return "6 vertices, 10 edges, 5 triangles"
    rec.run("braid4-subdivision-counts", check_subdivision_counts)

    def check_badpp():
        system = badpp_system()
        assert pp_search(system) is None, "PP should fail for a,d,bc"
        cx = system.complex
        u = [("b", 1), ("c", 1), ("d", 1), ("c", -1), ("b", -1)]
        rel = raag_commutator([("a", 1)], u)
        assert raag_is_trivial(cx, rel), "[a,(bc)d(bc)^-1] should be trivial"
    rec.run("badpp-example", check_badpp)

    def check_badpp_powers():
        system = badpp_system(3)
        cx = system.complex
        u = [("b", 3), ("c", 3), ("d", 3), ("c", -3), ("b", -3)]
        rel = raag_commutator([("a", 3)], u)
        assert raag_is_trivial(cx, rel)
    rec.run("badpp-example-cubes", check_badpp_powers)

    def check_path_split():
        system = path_system()
        assert pp_search(system) is None, "PP should fail on the path"
        verdict = generalized_pp_check(system, "abc", "bcd")
        assert verdict.certified, verdict.reason
        assert "free of rank 3" in verdict.conclusion, verdict.conclusion
        return verdict.conclusion
    rec.run("path-generalized-pp", check_path_split)

    def check_badpp_no_split():
        system = badpp_system()
        splits = [
            ("abc", "bcd"), ("abd", "acd"), ("abcd", "bc"),
            ("ab", "abcd"), ("abcd", "abcd"),
        ]
        for l1, l2 in splits:
            try:
                verdict = generalized_pp_check(system, l1, l2)
            except Exception:
                continue
            assert not verdict.certified, "split %s/%s should fail" % (l1, l2)
    rec.run("badpp-no-split-certifies", check_badpp_no_split)

    def check_avoidance_conditions():
        # words stu and st on a 2-simplex avoid u only vacuously: condition 2
        cx = FlagComplex.build("stu", [("s", "t"), ("t", "u"), ("s", "u")])
        system = WordSystem(cx, {
            frozenset("stu"): [("s", 1), ("t", 1), ("u", 1)],
            frozenset(("s", "t")): [("s", 1), ("t", 1)],
        })
        cm = pp_search(system)
        assert cm is not None
        bad = all(
            not avoidance_check(system, "u", c)
            for c in _all_choices(system)
        )
        assert bad, "no choice should avoid {u}: condition 2 must fail"
        # the motivating path example does avoid
        psys = path_system().restricted(set("abc"))
        cm2 = ChoiceMap({frozenset("a"): "a", frozenset(("b", "c")): "c"})
        assert avoidance_check(psys, set("bc"), cm2)
    rec.run("avoidance-conditions", check_avoidance_conditions)
    return rec.result


def _all_choices(system):
    from .raag import pp_search_all

    return list(pp_search_all(system))


# -- curve suites ----------------------------------------------------------

def _an_lemma_checks(system):
    subs = system.subsets()
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
                i1 = min(int(x[1:].split(":")[0]) for x in (b1[0],))
                i2 = min(int(x[1:].split(":")[0]) for x in (b2[0],))
                if i1 % 2 != i2 % 2:
                    for c in b1:
                        for d in b2:
                            assert system.intersects(c, d), (
                                "mixed parity pair %s %s disjoint" % (c, d)
                            )


def suite_an_curves(config=None):
    from .curves import audit_system, build_an, reference_choice, to_word_system

    rec = _Recorder("an-curves")
    top = _int_option("max_rank", (config or {}).get("max_rank", 7), 2)
    for n in range(2, top + 1):
        def check(n=n):
            system = build_an(n)
            defects = audit_system(system)
            assert not defects, defects[0]
            _an_lemma_checks(system)
            result = reference_choice(system)
            assert result.kind == "choice"
            found = pp_search(to_word_system(system))
            assert found is not None
            return "%d curves, stated choice verified" % len(system.curves)
        rec.run("an-system-n%d" % n, check)
    return rec.result


def _dn_lemma_checks(system):
    n = system.rank
    gens = system.diagram.vertices
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


def suite_dn_curves(config=None):
    from .curves import audit_system, build_dn, reference_choice, to_word_system

    rec = _Recorder("dn-curves")
    ranks = (config or {}).get("ranks", (4, 5, 6, 7))
    if not isinstance(ranks, (list, tuple)):
        raise ValueError("suite option 'ranks' must be a list of integers, "
                         "got %s" % json.dumps(ranks))
    for n in [_int_option("ranks", n, 4) for n in ranks]:
        def check_system(n=n):
            system = build_dn(n)
            defects = audit_system(system)
            assert not defects, defects[0]
            _dn_lemma_checks(system)
            return "%d curves audited" % len(system.curves)
        rec.run("dn-system-n%d" % n, check_system)

        def check_global_pp_holds(n=n):
            ws = to_word_system(build_dn(n))
            maps = _all_choices(ws)
            expected = _DN_GLOBAL_PP_MAPS[n]
            assert len(maps) == expected, (
                "D_%d admits %d global PP choice maps, expected %d"
                % (n, len(maps), expected)
            )
            for cm in maps:
                defects = validate_choice(ws, cm)
                assert not defects, defects[0]
            return "%d global choice maps, each validated" % len(maps)

        def check_global_pp_fails(n=n):
            system = build_dn(n)
            found = pp_search(to_word_system(system))
            assert found is None, (
                "global PP unexpectedly satisfiable for D_%d "
                "(every intersection here is forced by the stated "
                "disjointness constraints; see the noPP figure scale)" % n
            )
        if n in _DN_GLOBAL_PP_MAPS:
            rec.run("dn-global-pp-holds-n%d" % n, check_global_pp_holds)
        else:
            rec.run("dn-global-pp-fails-n%d" % n, check_global_pp_fails)

        def check_split(n=n):
            system = build_dn(n)
            result = reference_choice(system)
            assert result.kind == "split"
            return result.verdict_reason
        rec.run("dn-split-certifies-n%d" % n, check_split)
    return rec.result


# -- folding-suite ----------------------------------------------------------

_FOLD_EXPECTED = {
    "I2(3)": {"A_2"},
    "I2(4)": {"A_3"},
    "I2(5)": {"A_4"},
    "I2(6)": {"A_5"},
    "B3": {"D_4", "A_5"},
    "H3": {"D_6"},
    "F4": {"E_6"},
    "H4": {"E_8"},
}


def _fold_cases():
    yield "I2(3)", type_diagram("I", 2, 3)
    yield "I2(4)", type_diagram("I", 2, 4)
    yield "I2(5)", type_diagram("I", 2, 5)
    yield "I2(6)", type_diagram("I", 2, 6)
    yield "B3", type_diagram("B", 3)
    yield "H3", type_diagram("H", 3)
    yield "F4", type_diagram("F", 4)
    yield "H4", type_diagram("H", 4)


def _restrict_to(vertices, word):
    keep = set(vertices)
    return [(g, e) for g, e in word if g in keep]


def psi_preserves_relations(fold, budget=None):
    """Check every defining braid relation lands on a Garside equality in
    each component of the fold target.  Returns (checked, skipped, the
    first over-budget message or None)."""
    from .diagram import irreducible_components
    from .folding import psi_word

    checked = skipped = 0
    first_skip = None
    comps = irreducible_components(fold.target)
    engines = {}
    for a, b, m in fold.source.edges():
        lhs = psi_word(fold, _alternating(a, b, m))
        rhs = psi_word(fold, _alternating(b, a, m))
        for comp in comps:
            wl = _restrict_to(comp, lhs)
            wr = _restrict_to(comp, rhs)
            if not wl and not wr:
                continue
            key = frozenset(comp)
            if key not in engines:
                engines[key] = ArtinEngine(
                    build_group(fold.target, comp), budget
                )
            try:
                assert engines[key].equals(wl, wr), (
                    "relation %s%s broken in component %s"
                    % (a, b, sorted(comp))
                )
                checked += 1
            except BudgetExceeded as exc:
                skipped += 1
                first_skip = first_skip or str(exc)
    return checked, skipped, first_skip


def f_preserves_reduced(fold, src, images, max_len=4):
    """F maps reduced words to reduced words and is injective on the sample.

    `src` is the source subdivision and `images` its `fold_images` map."""
    from .folding import f_word
    from .nerve import complex_on_subsets

    image_subsets = {c for image in images.values() for c in image.values()}
    # F lands in the full subcomplex on these vertices, which computes the
    # same normal forms as the whole target subdivision
    tgt_complex, _ = complex_on_subsets(fold.target, image_subsets)
    seen_src = set()
    seen_img = set()
    count = 0
    for word in enumerate_reduced_words(src.complex, max_len):
        count += 1
        image = f_word(images, word)
        nf = raag_normal_form(tgt_complex, image)
        expected_len = sum(abs(e) * len(images[v]) for v, e in word)
        assert sum(abs(e) for _, e in nf) == expected_len, (
            "F does not preserve reduced length on %s" % (word,)
        )
        seen_src.add(tuple(word))
        seen_img.add(tuple(nf))
    assert len(seen_src) == len(seen_img), "F is not injective on the sample"
    return count


def raaginj_mechanics(fold, src, images):
    """The two combinatorial facts behind injectivity of F, on the source
    subdivision `src` and its `fold_images` map."""
    names = sorted(src.vertex_subsets, key=sort_key)
    for i, a in enumerate(names):
        for b in names[:i]:
            assert not set(images[a].values()) & set(images[b].values()), (
                "distinct subsets share a fold component: %s %s" % (a, b)
            )
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


def suite_folding(config=None):
    from .folding import build_folded, component_report, fold_images

    rec = _Recorder("folding-suite")
    budget = _budget(config or {})
    max_len = _int_option("f_max_len", (config or {}).get("f_max_len", 4), 1)
    for tag, diagram in _fold_cases():
        def check_components(tag=tag, diagram=diagram):
            fold = build_folded(diagram)
            reports = component_report(fold)
            tags = {r.tag for r in reports}
            assert tags == _FOLD_EXPECTED[tag], (
                "components %s, expected %s" % (tags, _FOLD_EXPECTED[tag])
            )
            hs = {r.coxeter_number for r in reports}
            assert len(hs) == 1
            return "components %s, h=%d" % (sorted(tags), hs.pop())
        rec.run("fold-components-%s" % tag, check_components)

        def check_psi(tag=tag, diagram=diagram):
            fold = build_folded(diagram)
            checked, skipped, first_skip = psi_preserves_relations(fold, budget)
            if skipped:
                raise BudgetExceeded(
                    "%d relation checks skipped over budget: %s"
                    % (skipped, first_skip)
                )
            return "%d per-component relation checks" % checked
        rec.run("psi-relations-%s" % tag, check_psi)

        def check_f(tag=tag, diagram=diagram):
            fold = build_folded(diagram)
            src = subdivision(fold.source)
            images = fold_images(fold, src.vertex_subsets)
            count = f_preserves_reduced(fold, src, images, max_len)
            raaginj_mechanics(fold, src, images)
            return "%d reduced words mapped" % count
        rec.run("f-injective-%s" % tag, check_f)
    return rec.result


# -- gtc-bounded -----------------------------------------------------------

def gtc_bounded_check(diagram, n_power, max_len, budget=None):
    """Certify no nontrivial word of RA of length <= max_len dies under the
    substitution z_T -> Delta_T^(2N) into the Artin group."""
    sub = subdivision(diagram)
    group = build_group(diagram)
    eng = ArtinEngine(group, budget)
    images = {
        name: delta_power(diagram, subset, 2 * n_power)
        for name, subset in sub.vertex_subsets.items()
    }
    # generator images are pure with independent abelianization classes,
    # so only exponent-sum-zero words need the Garside engine
    h1_ok = independence_check(group, list(images.values()))
    report = verify_injectivity_bounded(
        sub.complex,
        images,
        eng.is_trivial,
        max_len,
        commute_check=eng.commutes,
        abelian_certificate=h1_ok,
    )
    return report


def suite_gtc_bounded(config=None):
    rec = _Recorder("gtc-bounded")
    config = config or {}
    budget = _budget(config)
    if "type" in config:
        if not isinstance(config["type"], str):
            raise ValueError("suite option 'type' must be a diagram string, "
                             "got %s" % json.dumps(config["type"]))
        # a malformed or non-spherical diagram is a usage error
        if not finite_type(parse_diagram(config["type"])).is_spherical:
            raise ValueError("gtc-bounded needs a spherical diagram, got %s"
                             % json.dumps(config["type"]))
        cases = [(config["type"], _int_option("N", config.get("N", 1), 1),
                  _int_option("max_len", config.get("max_len", 6), 1))]
    else:
        unread = sorted({"N", "max_len"} & config.keys())
        if unread:
            raise ValueError("suite option %r is read only with 'type'" % unread[0])
        cases = [
            ("type I 2 4", 1, 6),
            ("type I 2 5", 1, 6),
            ("type A 2", 2, 6),
            ("type A 3", 2, 6),
        ]
    for spec, n_power, max_len in cases:
        def check(spec=spec, n_power=n_power, max_len=max_len):
            diagram = parse_diagram(spec)
            report = gtc_bounded_check(diagram, n_power, max_len, budget)
            assert report.ok, "%s (word %s)" % (report.detail, report.violation)
            return "%d words, %d through the Garside engine" % (
                report.words_checked, report.slow_path_checked
            )
        rec.run(
            "gtc-%s-N%d-len%d" % (spec.replace(" ", ""), n_power, max_len),
            check,
        )
    return rec.result


# -- e7-kernel and lantern ---------------------------------------------------

def suite_e7_kernel(config=None):
    from .curves import e7_kernel_check

    rec = _Recorder("e7-kernel")
    power = _int_option("power", (config or {}).get("power", 1), 1)
    state = {}

    def leg(name, key):
        def run():
            if not state:
                state["report"] = e7_kernel_check(power)
            report = state["report"]
            assert getattr(report, key), report.detail
            return json.dumps(report.detail) if key == "artin_nontrivial" else ""
        return run

    rec.run("raag-commutator-nontrivial", leg("raag", "raag_nontrivial"))
    rec.run("artin-commutator-nontrivial", leg("artin", "artin_nontrivial"))
    rec.run("curve-raag-commutator-trivial", leg("curve", "curve_raag_trivial"))
    return rec.result


def suite_lantern(config=None):
    from .curves import lantern_check

    rec = _Recorder("lantern")
    state = {}

    def get():
        if not state:
            state["report"] = lantern_check()
        return state["report"]

    def check_artin():
        assert get().artin_commute, "lantern twists must commute in the Artin group"

    def check_raag():
        assert not get().raag_commute, "z-words must not commute in RA"

    def check_retraction():
        r = get()
        red, blue = r.retraction_pair
        assert red != blue and red and blue
        assert not r.detail["retraction_images_commute"]
        return "images %s vs %s" % (red, blue)

    rec.run("artin-twists-commute", check_artin)
    rec.run("raag-words-do-not-commute", check_raag)
    rec.run("retraction-to-F2-separates", check_retraction)
    return rec.result


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

#: the config keys each suite reads; any other key is a usage error
_OPTIONS = {
    "gtc-bounded": ("type", "N", "max_len", "budget"),
    "an-curves": ("max_rank",),
    "dn-curves": ("ranks",),
    "folding-suite": ("budget", "f_max_len"),
    "e7-kernel": ("power",),
}


def run_suite(name, config=None):
    if name not in _SUITE_FUNCS:
        raise KeyError("unknown suite %r (choose from %s)" % (name, SUITES))
    unread = sorted(set(config or ()) - set(_OPTIONS.get(name, ())))
    if unread:
        raise ValueError("suite %s reads no option %r" % (name, unread[0]))
    return _SUITE_FUNCS[name](config)
