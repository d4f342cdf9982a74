"""Combinatorial models of the boundary-curve systems attached to the
standard surface representations: the interval curves for type A, the
s/t/r families for type D, the folded F_4 and H_4 targets, and the fixed
seven-curve configuration exhibiting the kernel element in type E_7.

Curves are abstract vertices with a symmetric intersection relation; the
relation is generated by closed-form rules and audited against every
constraint the accompanying lemmas state.  No surface topology is computed.
"""

from __future__ import annotations

import json
from collections import namedtuple
from importlib import resources

from .diagram import (CoxeterDiagram, DiagramError, name_subset, sort_key, subset_key,
                      subset_name, type_diagram)
from .garside import ArtinEngine, BudgetExceeded, check_size, word_length
from .nerve import nested_or_commuting, phi_word, subdivision
from .raag import (
    ChoiceMap,
    FlagComplex,
    WordSystem,
    generalized_pp_check,
    pp_search,
    raag_commutator,
    raag_commutes,
    raag_is_trivial,
    raag_normal_form,
    retraction,
    substitute,
    validate_choice,
)
from .wgroup import build_group


class CurveSystem(namedtuple("CurveSystem", "family rank diagram complex boundary")):
    """`diagram` is the ambient Artin diagram the subsets live in, `complex`
    the FlagComplex of the curves, adjacent when disjoint, and `boundary`
    maps each frozenset subset to its tuple of curve names."""

    __slots__ = ()

    @property
    def curves(self):
        return self.complex.vertices

    def intersects(self, c1, c2):
        cx = self.complex
        return c1 != c2 and c1 in cx and c2 in cx and not cx.adjacent(c1, c2)

    def subsets(self):
        return sorted(self.boundary, key=subset_key)

    def to_json(self):
        cx, curves = self.complex, self.curves
        return {
            "family": self.family,
            "rank": self.rank,
            "curves": list(curves),
            # the curves are in sort_key order, so the pairs are too
            "intersections": [[a, b] for i, a in enumerate(curves) for b in curves[i + 1:]
                              if not cx.adjacent(a, b)],
            "boundary": {subset_name(s): list(cs) for s, cs in self.boundary.items()},
        }


def multitwist_word(system, subset):
    """The commuting product of the boundary curves of subset, exponents 1."""
    key = frozenset(subset)
    if key not in system.boundary:
        raise DiagramError("no boundary data for %s" % sorted(subset, key=sort_key))
    return [(c, 1) for c in sorted(system.boundary[key], key=sort_key)]


def to_word_system(system):
    """WordSystem on the curve complex: one multitwist word per subset."""
    words = {
        frozenset(curves): multitwist_word(system, subset)
        for subset, curves in system.boundary.items()
    }
    return WordSystem(system.complex, words)


def audit_system(system):
    """Check the three structural constraints every curve system satisfies:
    multicurves are internally disjoint, commuting subsets have disjoint
    boundaries, non-commuting subsets have at least one intersecting pair.
    Returns a list of defect strings (empty = clean)."""
    defects = []
    for s, curves in system.boundary.items():
        for i, a in enumerate(curves):
            for b in curves[i + 1:]:
                if system.intersects(a, b):
                    defects.append(
                        "multicurve of %s is not disjoint: %s,%s"
                        % (subset_name(s), a, b)
                    )
    subs = system.subsets()
    for i, s1 in enumerate(subs):
        for s2 in subs[:i]:
            crossing = [
                (a, b)
                for a in system.boundary[s1]
                for b in system.boundary[s2]
                if system.intersects(a, b)
            ]
            if nested_or_commuting(system.diagram, s1, s2):
                if crossing:
                    defects.append(
                        "commuting %s / %s intersect: %s"
                        % (subset_name(s1), subset_name(s2), crossing[0])
                    )
            elif not crossing:
                defects.append(
                    "non-commuting %s / %s have disjoint boundaries"
                    % (subset_name(s1), subset_name(s2))
                )
    return defects


def _check_pairs(curves):
    """Meet the budget with a system's curve pairs before it is built: `_system`
    asks each pair once; a ranked family's subsets hold memory cubic in the rank."""
    check_size("curve system", curves * (curves - 1) // 2, "system of %d curve pairs")


def _system(family, rank, diagram, curves, meets, boundary):
    """The CurveSystem on `curves` whose complex joins each pair that
    `meets(a, b)` (asked once per pair, a before b) calls disjoint."""
    cs = sorted(curves, key=sort_key)
    cx = FlagComplex(cs, (
        (a, b) for i, a in enumerate(cs) for b in cs[i + 1:] if not meets(a, b)
    ))
    return CurveSystem(family, rank, diagram, cx, boundary)


# -- type A ------------------------------------------------------------------

def _interval_commutes(i1, j1, i2, j2):
    nested = (i1 >= i2 and j1 <= j2) or (i2 >= i1 and j2 <= j1)
    far = i2 > j1 + 1 or i1 > j2 + 1
    return nested or far


def _t_single(i, j):
    return i == j or (j - i + 1) % 2 == 0


def _an_curve_count(n):
    """Curves of the A_n system: one per interval, and a second for each
    interval of odd length >= 3; k = (n-1)//2 odd lengths run from 3 to n."""
    k = (n - 1) // 2
    return n * (n + 1) // 2 + k * (n - 1 - k)


def _an_pair_intersects(c1, c2):
    """c = ("t", i, j, primed); rule per the interval lemmas.  Equal
    intervals nest, so the curves of one multicurve never meet."""
    (_, i1, j1, p1), (_, i2, j2, p2) = c1, c2
    if _interval_commutes(i1, j1, i2, j2):
        return False
    if _t_single(i1, j1) or _t_single(i2, j2):
        return True  # a lone boundary curve meets every curve of the other
    if i1 % 2 == i2 % 2:
        return p1 == p2  # same start parity: like meets like
    return True  # different start parity: all four pairs intersect


def _interval_curves(m, desc, boundary):
    """Add the interval curves on t1..tm, the A_m system that D_(m+2)
    contains too: one per interval t_i..t_j, described as ("t", i, j,
    primed), and a primed second for each interval of odd length >= 3."""
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            names = []
            for primed in (False,) if _t_single(i, j) else (False, True):
                names.append("t%d:%d%s" % (i, j, "'" if primed else ""))
                desc[names[-1]] = ("t", i, j, primed)
            boundary[frozenset("t%d" % k for k in range(i, j + 1))] = tuple(names)


def build_an(n):
    """Boundary curves of the interval subsurfaces for the A_n system."""
    if n < 2:
        raise DiagramError("the A family needs rank >= 2")
    _check_pairs(_an_curve_count(n))
    desc, boundary = {}, {}
    _interval_curves(n, desc, boundary)
    return _system("An", n, type_diagram("A", n, prefix="t"), desc,
                   lambda a, b: _an_pair_intersects(desc[a], desc[b]), boundary)


# -- type D ------------------------------------------------------------------

def _dn_diagram(n):
    gens = ("s", "s'") + tuple("t%d" % i for i in range(1, n - 1))
    labels = {
        frozenset(("s", "t1")): 3,
        frozenset(("s'", "t1")): 3,
    }
    for i in range(1, n - 2):
        labels[frozenset(("t%d" % i, "t%d" % (i + 1)))] = 3
    return CoxeterDiagram(gens, labels)


def _side_of(desc):
    """Which sheet a curve lives on: 'up', 'down', 'both' or None (outer)."""
    kind = desc[0]
    if kind == "s0":
        return None
    if kind == "s":
        _, m, primed = desc
        if m % 2 == 0:
            return "both"
        if m == 1:
            return "down" if primed else "up"
        return "up" if primed else "down"
    if kind == "t":
        _, i, j, primed = desc
        if _t_single(i, j):
            return "both"
        if i % 2 == 1:  # both ends odd: either member meets both sheets
            return "both"
        return "up" if primed else "down"
    if kind == "r":
        _, k, primed = desc
        return "up" if primed else "down"
    raise AssertionError(desc)


def _sides_meet(a, b):
    return a is not None and b is not None and (a == "both" or b == "both" or a == b)


def _dn_pair_intersects(d1, d2):
    if d1[0] == "s0" or d2[0] == "s0":
        return False
    kinds = (d1[0], d2[0])
    if kinds == ("s", "s"):
        return False
    if kinds == ("r", "r"):
        return d1[2] != d2[2]  # every r meets every r', never its own side
    if "r" in kinds and "s" in kinds:
        r, s = (d1, d2) if d1[0] == "r" else (d2, d1)
        return s[1] <= r[1] - 1 and _sides_meet(_side_of(r), _side_of(s))
    if "r" in kinds and "t" in kinds:
        r, t = (d1, d2) if d1[0] == "r" else (d2, d1)
        return t[1] <= r[1] <= t[2] and _sides_meet(_side_of(r), _side_of(t))
    if "s" in kinds and "t" in kinds:
        s, t = (d1, d2) if d1[0] == "s" else (d2, d1)
        return t[1] <= s[1] <= t[2] and _sides_meet(_side_of(s), _side_of(t))
    if kinds == ("t", "t"):
        return _an_pair_intersects(d1, d2)
    raise AssertionError((d1, d2))


def build_dn(n):
    """The s/t/r curve families for the D_n system."""
    if n < 4:
        raise DiagramError("the D family needs rank >= 4")
    # s0; s_m for m = 1..n-1, primed too when m is odd; the t-intervals of
    # A_(n-2); r_m and r_m' for m = 2..n-1
    _check_pairs(1 + (n - 1) + n // 2 + _an_curve_count(n - 2) + 2 * (n - 2))
    diagram = _dn_diagram(n)
    t = lambda i: "t%d" % i

    desc = {}

    def add(name, d):
        desc[name] = d
        return name

    def s_curve(m, primed=False):
        if m == 0:
            return add("s0", ("s0",))
        if m % 2 == 0:
            return add("s%d" % m, ("s", m, False))
        return add("s%d%s" % (m, "'" if primed else ""), ("s", m, primed))

    boundary = {}
    # family (1): {s, s', t_1..t_j} of type D_(j+2)
    for j in range(1, n - 1):
        subset = frozenset(("s", "s'")) | {t(i) for i in range(1, j + 1)}
        if j % 2 == 1:
            boundary[subset] = (s_curve(0), s_curve(j + 1))
        else:
            boundary[subset] = (s_curve(0), s_curve(j + 1, False), s_curve(j + 1, True))
    # family (2): t-intervals, singletons included
    _interval_curves(n - 2, desc, boundary)
    # families (3) and (4): {s, t_1..t_j} and {s', t_1..t_j} of type A_(j+1)
    for primed, root in ((False, "s"), (True, "s'")):
        rname = "r%d%s"
        for j in range(0, n - 1):
            subset = frozenset((root,)) | {t(i) for i in range(1, j + 1)}
            if j == 0:
                boundary[subset] = (s_curve(1, primed),)
            elif j % 2 == 1:
                boundary[subset] = (
                    add(rname % (j + 1, "'" if primed else ""), ("r", j + 1, primed)),
                )
            else:
                boundary[subset] = (
                    s_curve(j + 1, not primed),
                    add(rname % (j + 1, "'" if primed else ""), ("r", j + 1, primed)),
                )

    return _system("Dn", n, diagram, desc,
                   lambda a, b: _dn_pair_intersects(desc[a], desc[b]), boundary)


# -- folded F_4 and H_4 targets, and the E_7 figure ---------------------------

def _fixture(name):
    text = resources.files("coxart.data").joinpath(name).read_text()
    return json.loads(text)


def _system_from_fixture(family, rank, doc):
    diagram = CoxeterDiagram(
        tuple(doc["generators"]),
        {
            frozenset((a, b)): m
            for a, b, m in doc["edges"]
        },
    )
    boundary = {
        name_subset(key): tuple(val)
        for key, val in doc["boundary"].items()
    }
    meets = {frozenset(p) for p in doc["intersections"]}
    return _system(family, rank, diagram, {c for cs in boundary.values() for c in cs},
                   lambda a, b: frozenset((a, b)) in meets, boundary)


def build_e6_folded():
    """Curves of one E_6 component of the folded F_4 system."""
    return _system_from_fixture("E6F", 4, _fixture("e6_folded.json"))


def build_e8_folded():
    """Curves of one E_8 component of the folded H_4 system."""
    return _system_from_fixture("E8F", 4, _fixture("e8_folded.json"))


def build_e7_figure():
    """The seven-curve configuration witnessing the E_7 kernel element."""
    return _system_from_fixture("E7FIG", 7, _fixture("e7_figure.json"))


#: family -> (builder, whether it takes a rank)
_BUILDERS = {"An": (build_an, True), "Dn": (build_dn, True), "E6F": (build_e6_folded, False),
             "E8F": (build_e8_folded, False), "E7FIG": (build_e7_figure, False)}
FAMILIES = tuple(_BUILDERS)


def build_system(family, rank=None):
    if family not in _BUILDERS:
        raise DiagramError("unknown curve family %r (choose from %s)" % (family, FAMILIES))
    build, ranked = _BUILDERS[family]
    if ranked and rank is None:
        raise DiagramError("the %s family needs a rank" % family)
    if not ranked and rank is not None:
        raise DiagramError("the %s family takes no rank" % family)
    return build(rank) if ranked else build()


# -- reference choices --------------------------------------------------------

#: `kind` is "choice" or "split"; `by_subset` maps subset_name -> curve (for
#: "choice"), or per side
ReferenceResult = namedtuple("ReferenceResult",
                             "kind by_subset verdict_reason global_pp_found",
                             defaults=(None,))


def reference_choice(system):
    """The stated representative choice (A and folded families) or the
    r-versus-r' split for type D; verified by the ping-pong engine."""
    ws = to_word_system(system)
    if system.family in ("An", "E6F", "E8F"):
        if system.family == "An":  # the unprimed curve, extended to i = 1
            by_subset = {s: curves[0] for s, curves in system.boundary.items()}
            reason = "stated interval choice satisfies Property PP"
            failure = "stated A-family choice fails PP: %s"
        else:
            doc = _fixture("e6_folded.json" if system.family == "E6F" else "e8_folded.json")
            by_subset = {name_subset(k): v for k, v in doc["choice"].items()}
            reason = "stated folded-target choice satisfies Property PP"
            failure = "stated folded choice fails PP: %s"
        cm = ChoiceMap({frozenset(system.boundary[s]): c for s, c in by_subset.items()})
        defects = validate_choice(ws, cm)
        if defects:
            raise AssertionError(failure % defects[0])
        return ReferenceResult(
            "choice",
            {subset_name(s): c for s, c in by_subset.items()},
            reason,
        )
    if system.family == "Dn":
        found = pp_search(ws)
        # side 1 drops the primed r curves, side 2 the unprimed ones
        side1 = [c for c in system.curves if not (c.startswith("r") and c.endswith("'"))]
        side2 = [c for c in system.curves if not (c.startswith("r") and not c.endswith("'"))]
        verdict = generalized_pp_check(ws, side1, side2)
        if not verdict.certified:
            raise AssertionError("D-family split failed: %s" % verdict.reason)
        sides = {}
        for label, cmap in zip(("side1", "side2"), verdict.split):
            sides[label] = cmap.to_json()
        return ReferenceResult(
            "split",
            sides,
            verdict.reason + "; " + verdict.conclusion,
            global_pp_found=found is not None,
        )
    raise DiagramError("no reference choice for family %r" % system.family)


# -- the two verification set pieces ------------------------------------------

KernelReport = namedtuple("KernelReport",
                          "raag_nontrivial artin_nontrivial curve_raag_trivial detail")


def e7_kernel_word_z(power=1):
    """[z_T z_U z_s z_U^-1 z_T^-1, z_V] over the E_7 subdivision vertices."""
    t_set = frozenset(("t1", "t2", "t3", "t4", "s"))
    u_set = frozenset(("t2", "t3", "t4", "t5", "t6"))
    v_set = frozenset(("t2", "t3", "t4", "t5", "t6", "s"))
    z = lambda s, e: (subset_name(s), e * power)
    inner = [z(t_set, 1), z(u_set, 1), z(frozenset(("s",)), 1),
             z(u_set, -1), z(t_set, -1)]
    return raag_commutator(inner, [z(v_set, 1)])


def e7_kernel_check(power):
    """Three-leg verification of the E_7 kernel element with m = `power`.

    (i) nontrivial in RA of the E_7 subdivision, (ii) nontrivial in the
    Artin group by Garside normal form, (iii) trivial in the curve RAAG of
    the figure system after substituting multitwist words.  An Artin leg over
    the letter budget holds its BudgetExceeded, and legs (i) and (iii) decide.
    """
    system = build_e7_figure()
    diagram = system.diagram
    sub = subdivision(diagram)
    zword = e7_kernel_word_z(power)
    leg1 = not raag_is_trivial(sub.complex, zword)
    # the four generators span a path, so the word is nontrivial already there
    path = sub.complex.full_subcomplex({name for name, _ in zword})
    leg1_path = not raag_is_trivial(path, zword)

    detail = {"raag_retraction_nontrivial": leg1_path}
    try:
        # the power is already in the exponents of zword
        artin_word = phi_word(diagram, 1, zword, sub)
        nf = ArtinEngine(build_group(diagram)).normal_form(artin_word)
        leg2 = not nf.is_trivial()
        detail.update(artin_word_length=word_length(artin_word),
                      artin_normal_form_inf=nf.inf,
                      artin_canonical_length=nf.canonical_length)
    except BudgetExceeded as exc:
        leg2 = exc

    # each z_T becomes the multitwist about the boundary curves of T
    w_curves = e7_kernel_word_z()
    images = {name: multitwist_word(system, name_subset(name)) for name, _ in w_curves}
    leg3 = raag_is_trivial(system.complex, substitute(images, w_curves))

    return KernelReport(leg1 and leg1_path, leg2, leg3, detail)


LanternReport = namedtuple("LanternReport",
                           "artin_commute raag_commute retraction_pair retraction_commute")


def _puncture_interval_gens(a, b):
    """Generators t_a..t_(b-1): the braid subgroup around punctures a..b."""
    return tuple("t%d" % i for i in range(a, b))


def lantern_check():
    """The lantern-relation counterexample for braids on 8 strands.

    The two boundary twists commute in the Artin group while the defining
    z-words do not commute in RA of the subdivision; the retraction onto
    the two six-puncture generators already separates them.  Twists over
    the letter budget leave their BudgetExceeded as `artin_commute`.
    """
    diagram = type_diagram("A", 7, prefix="t")
    # The two leading inverse twists of each word commute with the four
    # boundary twists but not with each other; the unique order making both
    # words into twists about the two disjoint curves puts the shared
    # 3456-twist first in each.
    intervals_r = [((3, 6), -1), ((1, 4), -1), ((1, 2), 1), ((3, 4), 1),
                   ((5, 6), 1), ((1, 6), 1)]
    intervals_b = [((3, 6), -1), ((5, 8), -1), ((3, 4), 1), ((5, 6), 1),
                   ((7, 8), 1), ((3, 8), 1)]

    def z_word(spec):
        return [
            (subset_name(_puncture_interval_gens(a, b)), sign)
            for (a, b), sign in spec
        ]

    z_red, z_blue = z_word(intervals_r), z_word(intervals_b)
    sub = subdivision(diagram)
    try:
        artin_commute = ArtinEngine(build_group(diagram)).commutes(
            phi_word(diagram, 1, z_red, sub), phi_word(diagram, 1, z_blue, sub))
    except BudgetExceeded as exc:
        artin_commute = exc
    raag_comm = raag_commutes(sub.complex, z_red, z_blue)

    keep = [
        subset_name(_puncture_interval_gens(1, 6)),
        subset_name(_puncture_interval_gens(3, 8)),
    ]
    red_image = raag_normal_form(sub.complex, retraction(sub.complex, keep, z_red))
    blue_image = raag_normal_form(sub.complex, retraction(sub.complex, keep, z_blue))
    return LanternReport(artin_commute, raag_comm, (red_image, blue_image),
                         raag_commutes(sub.complex, red_image, blue_image))
