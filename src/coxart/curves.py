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
from dataclasses import dataclass, field
from importlib import resources

from .diagram import CoxeterDiagram, DiagramError, sort_key
from .garside import delta_power
from .nerve import nested_or_commuting, subdivision, subset_name
from .raag import (
    ChoiceMap,
    FlagComplex,
    WordSystem,
    generalized_pp_check,
    pp_search,
    raag_commutator,
    raag_inverse,
    raag_is_trivial,
    raag_normal_form,
    validate_choice,
)

FAMILIES = ("An", "Dn", "E6F", "E8F", "E7FIG")


@dataclass(frozen=True)
class CurveSystem:
    family: str
    rank: int
    diagram: CoxeterDiagram  # the ambient Artin diagram the subsets live in
    curves: tuple
    intersections: frozenset  # frozensets {c1, c2} of intersecting curves
    boundary: dict  # frozenset subset -> tuple of curve names

    def intersects(self, c1, c2):
        return c1 != c2 and frozenset((c1, c2)) in self.intersections

    def subsets(self):
        return sorted(self.boundary, key=lambda s: (len(s), sorted(map(sort_key, s))))

    def curve_complex(self):
        """Flag complex on the curves; adjacency = disjointness."""
        cs = self.curves
        return FlagComplex.build(cs, (
            (a, b) for i, a in enumerate(cs) for b in cs[i + 1:]
            if not self.intersects(a, b)
        ))

    def multicurve(self, subset):
        return self.boundary[frozenset(subset)]

    def to_json(self):
        return {
            "family": self.family,
            "rank": self.rank,
            "curves": list(self.curves),
            "intersections": sorted(
                [sorted(p, key=sort_key) for p in self.intersections],
                key=lambda p: (sort_key(p[0]), sort_key(p[1])),
            ),
            "boundary": {
                subset_name(s): list(cs)
                for s, cs in sorted(
                    self.boundary.items(),
                    key=lambda kv: (len(kv[0]), sorted(map(sort_key, kv[0]))),
                )
            },
        }


def multitwist_word(system, subset):
    """The commuting product of the boundary curves of subset, exponents 1."""
    key = frozenset(subset)
    if key not in system.boundary:
        raise DiagramError("no boundary data for %s" % sorted(subset, key=sort_key))
    return [(c, 1) for c in sorted(system.boundary[key], key=sort_key)]


def to_word_system(system):
    """WordSystem on the curve complex: one multitwist word per subset."""
    cx = system.curve_complex()
    words = {
        frozenset(curves): [(c, 1) for c in sorted(curves, key=sort_key)]
        for curves in system.boundary.values()
    }
    return WordSystem(cx, words)


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


# -- type A ------------------------------------------------------------------

def _interval_commutes(i1, j1, i2, j2):
    nested = (i1 >= i2 and j1 <= j2) or (i2 >= i1 and j2 <= j1)
    far = i2 > j1 + 1 or i1 > j2 + 1
    return nested or far


def _t_name(i, j, primed):
    return "t%d:%d%s" % (i, j, "'" if primed else "")


def _t_single(i, j):
    return i == j or (j - i + 1) % 2 == 0


def _an_pair_intersects(c1, c2):
    """c = (i, j, primed); distinct intervals, rule per the interval lemmas."""
    (i1, j1, p1), (i2, j2, p2) = c1, c2
    if (i1, j1) == (i2, j2):
        return False  # same multicurve
    if _interval_commutes(i1, j1, i2, j2):
        return False
    if _t_single(i1, j1) or _t_single(i2, j2):
        return True  # a lone boundary curve meets every curve of the other
    if i1 % 2 == i2 % 2:
        return p1 == p2  # same start parity: like meets like
    return True  # different start parity: all four pairs intersect


def build_an(n):
    """Boundary curves of the interval subsurfaces for the A_n system."""
    if n < 2:
        raise DiagramError("the A family needs rank >= 2")
    gens = tuple("t%d" % i for i in range(1, n + 1))
    labels = {frozenset((gens[i], gens[i + 1])): 3 for i in range(n - 1)}
    diagram = CoxeterDiagram(gens, labels)

    desc = {}
    boundary = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            subset = frozenset(gens[i - 1:j])
            names = [_t_name(i, j, False)]
            desc[names[0]] = (i, j, False)
            if not _t_single(i, j):
                prim = _t_name(i, j, True)
                names.append(prim)
                desc[prim] = (i, j, True)
            boundary[subset] = tuple(names)

    curves = tuple(sorted(desc, key=sort_key))
    inters = set()
    for a in curves:
        for b in curves:
            if sort_key(a) < sort_key(b) and _an_pair_intersects(desc[a], desc[b]):
                inters.add(frozenset((a, b)))
    return CurveSystem("An", n, diagram, curves, frozenset(inters), boundary)


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
        return _an_pair_intersects(d1[1:], d2[1:])
    raise AssertionError((d1, d2))


def build_dn(n):
    """The s/t/r curve families for the D_n system."""
    if n < 4:
        raise DiagramError("the D family needs rank >= 4")
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
    for i in range(1, n - 1):
        for j in range(i, n - 1):
            subset = frozenset(t(k) for k in range(i, j + 1))
            names = [add(_t_name(i, j, False), ("t", i, j, False))]
            if not _t_single(i, j):
                names.append(add(_t_name(i, j, True), ("t", i, j, True)))
            boundary[subset] = tuple(names)
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

    curves = tuple(sorted(desc, key=sort_key))
    inters = set()
    for a in curves:
        for b in curves:
            if sort_key(a) < sort_key(b) and _dn_pair_intersects(desc[a], desc[b]):
                inters.add(frozenset((a, b)))
    return CurveSystem("Dn", n, diagram, curves, frozenset(inters), boundary)


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
        frozenset(key.split("+")): tuple(val)
        for key, val in doc["boundary"].items()
    }
    curves = tuple(sorted({c for cs in boundary.values() for c in cs}, key=sort_key))
    inters = frozenset(frozenset(p) for p in doc["intersections"])
    return CurveSystem(family, rank, diagram, curves, inters, boundary)


def build_e6_folded():
    """Curves of one E_6 component of the folded F_4 system."""
    return _system_from_fixture("E6F", 4, _fixture("e6_folded.json"))


def build_e8_folded():
    """Curves of one E_8 component of the folded H_4 system."""
    return _system_from_fixture("E8F", 4, _fixture("e8_folded.json"))


def build_e7_figure():
    """The seven-curve configuration witnessing the E_7 kernel element."""
    return _system_from_fixture("E7FIG", 7, _fixture("e7_figure.json"))


def build_system(family, rank=None):
    if family in ("An", "Dn") and rank is None:
        raise DiagramError("the %s family needs a rank" % family)
    if family in ("E6F", "E8F", "E7FIG") and rank is not None:
        raise DiagramError("the %s family takes no rank" % family)
    if family == "An":
        return build_an(rank)
    if family == "Dn":
        return build_dn(rank)
    if family == "E6F":
        return build_e6_folded()
    if family == "E8F":
        return build_e8_folded()
    if family == "E7FIG":
        return build_e7_figure()
    raise DiagramError("unknown curve family %r (choose from %s)" % (family, FAMILIES))


# -- reference choices --------------------------------------------------------

@dataclass
class ReferenceResult:
    kind: str  # "choice" or "split"
    by_subset: dict  # subset_name -> curve (for "choice"), or per side
    verdict_reason: str
    global_pp_found: bool | None = None


def _choice_from_by_subset(system, by_subset):
    assignment = {}
    for subset, curve in by_subset.items():
        simplex = frozenset(system.boundary[frozenset(subset)])
        assignment[simplex] = curve
    return ChoiceMap(assignment)


def choice_by_subset_an(system):
    out = {}
    for subset, curves in system.boundary.items():
        out[subset] = curves[0]  # the unprimed curve, extended to i = 1
    return out


def reference_choice(system):
    """The stated representative choice (A and folded families) or the
    r-versus-r' split for type D; verified by the ping-pong engine."""
    ws = to_word_system(system)
    if system.family == "An":
        by_subset = choice_by_subset_an(system)
        cm = _choice_from_by_subset(system, by_subset)
        defects = validate_choice(ws, cm)
        if defects:
            raise AssertionError("stated A-family choice fails PP: %s" % defects[0])
        return ReferenceResult(
            "choice",
            {subset_name(s): c for s, c in by_subset.items()},
            "stated interval choice satisfies Property PP",
        )
    if system.family in ("E6F", "E8F"):
        doc = _fixture("e6_folded.json" if system.family == "E6F" else "e8_folded.json")
        by_subset = {frozenset(k.split("+")): v for k, v in doc["choice"].items()}
        cm = _choice_from_by_subset(system, by_subset)
        defects = validate_choice(ws, cm)
        if defects:
            raise AssertionError("stated folded choice fails PP: %s" % defects[0])
        return ReferenceResult(
            "choice",
            {subset_name(s): c for s, c in by_subset.items()},
            "stated folded-target choice satisfies Property PP",
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

@dataclass
class KernelReport:
    raag_nontrivial: bool
    artin_nontrivial: bool
    curve_raag_trivial: bool
    detail: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.raag_nontrivial and self.artin_nontrivial and self.curve_raag_trivial


def e7_kernel_word_z(power=1):
    """[z_T z_U z_s z_U^-1 z_T^-1, z_V] over the E_7 subdivision vertices."""
    t_set = frozenset(("t1", "t2", "t3", "t4", "s"))
    u_set = frozenset(("t2", "t3", "t4", "t5", "t6"))
    v_set = frozenset(("t2", "t3", "t4", "t5", "t6", "s"))
    z = lambda s, e: (subset_name(s), e * power)
    inner = [z(t_set, 1), z(u_set, 1), z(frozenset(("s",)), 1),
             z(u_set, -1), z(t_set, -1)]
    return raag_commutator(inner, [z(v_set, 1)])


def e7_kernel_check(power=1, artin_engine=None):
    """Three-leg verification of the E_7 kernel element with m = `power`.

    (i) nontrivial in RA of the E_7 subdivision, (ii) nontrivial in the
    Artin group by Garside normal form, (iii) trivial in the curve RAAG of
    the figure system after substituting multitwist words.
    """
    from .diagram import type_diagram
    from .garside import ArtinEngine
    from .wgroup import build_group

    e7 = type_diagram("E", 7, prefix="x")
    # name the generators to match the figure system: chain t1..t6, s on t3
    rename = {"x%d" % i: "t%d" % i for i in range(1, 7)}
    rename["x7"] = "s"
    diagram = CoxeterDiagram(
        tuple(rename[v] for v in e7.vertices),
        {frozenset(rename[v] for v in pair): m for pair, m in e7.labels.items()},
    )

    sub = subdivision(diagram)
    zword = e7_kernel_word_z(power)
    leg1 = not raag_is_trivial(sub.complex, zword)
    # the four generators span a path, so the retraction already detects it
    path_names = [subset_name(s) for s in (
        frozenset(("t1", "t2", "t3", "t4", "s")),
        frozenset(("s",)),
        frozenset(("t2", "t3", "t4", "t5", "t6", "s")),
        frozenset(("t2", "t3", "t4", "t5", "t6")),
    )]
    from .raag import retraction

    leg1_retract = not raag_is_trivial(
        sub.complex, retraction(sub.complex, path_names, zword)
    )

    t_set = ("t1", "t2", "t3", "t4", "s")
    u_set = ("t2", "t3", "t4", "t5", "t6")
    v_set = ("t2", "t3", "t4", "t5", "t6", "s")
    dp = lambda sub_, e: delta_power(diagram, sub_, 2 * power * e)
    inner = dp(t_set, 1) + dp(u_set, 1) + [("s", 2 * power)] + dp(u_set, -1) + dp(t_set, -1)
    artin_word = inner + dp(v_set, 1) + raag_inverse(inner) + dp(v_set, -1)
    eng = artin_engine
    if eng is None:
        eng = ArtinEngine(build_group(diagram))
    nf = eng.normal_form(artin_word)
    leg2 = not nf.is_trivial()

    system = build_e7_figure()
    cx = system.curve_complex()
    mt = lambda s: multitwist_word(system, frozenset(s))
    w_inner = (mt(t_set) + mt(u_set) + mt(("s",))
               + [(c, -e) for c, e in reversed(mt(u_set))]
               + [(c, -e) for c, e in reversed(mt(t_set))])
    w_comm = raag_commutator(w_inner, mt(v_set))
    leg3 = raag_is_trivial(cx, w_comm)

    return KernelReport(
        leg1 and leg1_retract,
        leg2,
        leg3,
        {
            "raag_retraction_nontrivial": leg1_retract,
            "artin_word_length": sum(abs(e) for _, e in artin_word),
            "artin_normal_form_inf": nf.inf,
            "artin_canonical_length": nf.canonical_length,
        },
    )


@dataclass
class LanternReport:
    artin_commute: bool
    raag_commute: bool
    retraction_pair: tuple
    detail: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.artin_commute and not self.raag_commute


def _puncture_interval_gens(a, b):
    """Generators t_a..t_(b-1): the braid subgroup around punctures a..b."""
    return tuple("t%d" % i for i in range(a, b))


def lantern_check(artin_engine=None):
    """The lantern-relation counterexample for braids on 8 strands.

    The two boundary twists commute in the Artin group while the defining
    z-words do not commute in RA of the subdivision; the retraction onto
    the two six-puncture generators already separates them.
    """
    from .diagram import type_diagram
    from .garside import ArtinEngine
    from .wgroup import build_group

    diagram = type_diagram("A", 7, prefix="t")
    # The two leading inverse twists of each word commute with the four
    # boundary twists but not with each other; the unique order making both
    # words into twists about the two disjoint curves puts the shared
    # 3456-twist first in each.
    intervals_r = [((3, 6), -1), ((1, 4), -1), ((1, 2), 1), ((3, 4), 1),
                   ((5, 6), 1), ((1, 6), 1)]
    intervals_b = [((3, 6), -1), ((5, 8), -1), ((3, 4), 1), ((5, 6), 1),
                   ((7, 8), 1), ((3, 8), 1)]

    def artin_word(spec):
        out = []
        for (a, b), sign in spec:
            out.extend(delta_power(diagram, _puncture_interval_gens(a, b), 2 * sign))
        return out

    w_red, w_blue = artin_word(intervals_r), artin_word(intervals_b)
    eng = artin_engine
    if eng is None:
        eng = ArtinEngine(build_group(diagram))
    artin_commute = eng.commutes(w_red, w_blue)

    sub = subdivision(diagram)

    def z_word(spec):
        return [
            (subset_name(_puncture_interval_gens(a, b)), sign)
            for (a, b), sign in spec
        ]

    z_red, z_blue = z_word(intervals_r), z_word(intervals_b)
    from .raag import raag_commutes, retraction

    raag_comm = raag_commutes(sub.complex, z_red, z_blue)

    keep = [
        subset_name(_puncture_interval_gens(1, 6)),
        subset_name(_puncture_interval_gens(3, 8)),
    ]
    red_image = raag_normal_form(sub.complex, retraction(sub.complex, keep, z_red))
    blue_image = raag_normal_form(sub.complex, retraction(sub.complex, keep, z_blue))
    retraction_commute = raag_commutes(sub.complex, red_image, blue_image)

    return LanternReport(
        artin_commute,
        raag_comm,
        (red_image, blue_image),
        {
            "retraction_images_commute": retraction_commute,
            "red_image": red_image,
            "blue_image": blue_image,
        },
    )
