import hashlib
import random
from itertools import permutations

import pytest
from sympy.liealgebras.root_system import RootSystem

from coxart.diagram import finite_type, parse_diagram, sort_key, type_diagram
from coxart.garside import ArtinEngine
from coxart.suites import _coxeter_elements, _tag, suite_garside_core
from coxart.wgroup import build_group, phi_mul, phi_sign

RANK_LE4 = [
    ("A", 1, None), ("A", 2, None), ("A", 3, None), ("A", 4, None),
    ("B", 2, None), ("B", 3, None), ("B", 4, None),
    ("D", 4, None),
    ("F", 4, None), ("G", 2, None),
    ("H", 2, None), ("H", 3, None), ("H", 4, None),
    ("I", 2, 7),
]
#: the types of the garside-core suite
GARSIDE_CORE_TYPES = RANK_LE4 + [("D", 5, None), ("D", 6, None), ("A", 7, None)]


def element_order(group, w):
    """The order of w, by multiplying until the identity: the tests' oracle,
    which shares no code with the classification's Coxeter numbers."""
    k, cur = 1, w
    while cur != group.identity:
        cur = group.compose(cur, w)
        k += 1
    return k


def coxeter_number(group):
    """The order of the Coxeter element of the generators in group order."""
    return element_order(group, group.word_to_element(group.gens))


#: sha256 of (n_pos, simple permutations, reflection permutations), recorded
#: from the coordinate-table constructor this one replaced; root indices are
#: visible in outputs, so the order of the roots must not move
GOLDEN_PERMS = {
    ("A", 1, None): "f8f4de929139336fe8fd152a00ff7c7effadc98f9a9c3cee3a6170471d6e31e1",
    ("A", 2, None): "8a66a0354a199b969b9923fbdcb9b53c393f7285ba16f4081d6e71c0be48656d",
    ("A", 3, None): "f2a952e71d0d00825d8a021adbba7a39e891eafe5b1b1b980e641f2764105d4b",
    ("A", 4, None): "3fcfa5f62f294f648288e12952cfe3ae5723646af3c0d017ee8ef0aff25262b5",
    ("A", 5, None): "e8359e0ed62589eedee15a4323e168aca913d3912d45cff5b53c22f252c943b5",
    ("A", 6, None): "84b1cbca6eb4d61b734b5ec678ff5800165f192af5f6583d871805b71a46e002",
    ("A", 7, None): "1cb2ef35f4dceea4a937e05d3c2aa7f613c8eed396089ccf241dedae36df8b4f",
    ("A", 8, None): "3556e27e02c670e3170ac22e3708f53b473f01d0d2564e4506a013c41ec4d1d3",
    ("B", 2, None): "d921d084293d3f9f4e6803f9e7790279b73e03d72b4abe854cdd6e2ff21bc1c7",
    ("B", 3, None): "8e4a9771a72bdfee7cc8d390ebc75edefd2a6ba0c7a854ad924d4d3a2c380edd",
    ("B", 4, None): "d42ce15f420446e7a743d7ef8ca73485a0a3d2886e3fb2b48ba6a8a504ddd65c",
    ("B", 5, None): "414eff084f2c560a79ba65c3841c607acb6a9f2ed97472236b3cd8f02d467564",
    ("B", 6, None): "467a6d17f9756441302f20c93f1215b1fde791aa83996e91c9bbbc1371dc5176",
    ("B", 7, None): "109f690dbe7b78e1d32ab48129a11a8e946efb388ce84dec7f734a0c59219122",
    ("B", 8, None): "cca76fad9cc1336ebe0ff878ab1ef9357a45f958196e7d671592a0739c621dc7",
    ("D", 4, None): "306d2a747031f73a21a904a3d0d36ebeec974474be882f46028a918fff440c41",
    ("D", 5, None): "dfb752ce421b43ae0987b3beb6b65b483acad391414781603a983d343c5a54d5",
    ("D", 6, None): "7a556b8db2744ede187542e8c327cfba7ff2d786a99a198c772188c1eb40891b",
    ("D", 7, None): "4f5cdad9f5a43013e7524ece9dc7ffd921bff8c5d0e5f069fda41182488ec04d",
    ("D", 8, None): "76308c63f89bb831506884e4ce2ffaddd575096930b207c7249758524b09867b",
    ("E", 6, None): "a095d1869f2700da55d3d96ab95911efbb6a0a0caa1c84b5f063fe25df363b10",
    ("E", 7, None): "0d98566b5cb64d88be53660272f7a417378ca70250528af45e4cfa138c3232a2",
    ("E", 8, None): "dd4fdf2bbda573f8ec41fed23e2706884977959485269f35923e49bc91d916db",
    ("F", 4, None): "0d5baf94467055cf9b6b12cdefb209cc0f7990c21b3d1c47c31a7b4913a55506",
    ("G", 2, None): "4c2ecc888f4bf60ae2d33ea26039705b6e8d1d6792932c033ad088b2e1481516",
    ("H", 2, None): "ec44a48388ff3596b8228e3e8912b86968ff9ed6b5acdaea4f5653e8fd3ea3a0",
    ("H", 3, None): "0638d1955ef626d229e58a81e0bae963048ac2b2179c3570060c7378662a88b6",
    ("H", 4, None): "f731a6ac340a454c3f99c1227f00099dfb4c881708270984f9ce801f91ac5ee2",
    ("I", 2, 7): "87a384e65c46fff88dd4f4dd63758b746d03bbff6287eddcb492f662b43b9378",
}


def test_phi_arithmetic():
    phi = (0, 1)
    assert phi_mul(phi, phi) == (1, 1)  # phi^2 = phi + 1
    assert phi_mul((2, -1), (1, 1)) == (1, 0)  # (2 - phi)(1 + phi) = 1
    assert phi_sign((2, -1)) > 0  # 2 - phi
    assert phi_sign((1, -1)) < 0  # 1 - phi
    assert phi_sign((-3, 2)) > 0 and phi_sign((3, -2)) < 0  # 2 phi - 3
    assert phi_sign((0, 0)) == 0


@pytest.mark.parametrize("fam,n,p", sorted(GOLDEN_PERMS, key=str))
def test_root_permutations_golden(fam, n, p):
    g = build_group(type_diagram(fam, n, p))
    blob = repr((g.n_pos, tuple(g.simple(x) for x in g.gens), tuple(g.reflections())))
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN_PERMS[fam, n, p]


SYMPY_TYPES = (
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)] + [("E", 6), ("E", 7), ("E", 8)]
    + [("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("fam,n", SYMPY_TYPES)
def test_root_count_matches_sympy(fam, n):
    g = build_group(type_diagram(fam, n))
    assert len(RootSystem("%s%d" % (fam, n)).all_roots()) == 2 * g.n_pos


@pytest.mark.parametrize("fam,n,p", RANK_LE4)
def test_reflection_count_equals_longest_length(fam, n, p):
    g = build_group(type_diagram(fam, n, p))
    assert g.length(g.w0) == g.n_pos == len(g.reflections())


@pytest.mark.parametrize("fam,n,p", RANK_LE4)
def test_longest_conjugation_permutes_simples(fam, n, p):
    g = build_group(type_diagram(fam, n, p))
    simples = {g.simple(x) for x in g.gens}
    for x in g.gens:
        conj = g.compose(g.w0, g.compose(g.simple(x), g.w0))
        assert conj in simples


@pytest.mark.parametrize("fam,n,p", RANK_LE4)
def test_reflections_are_conjugates_of_simples(fam, n, p):
    g = build_group(type_diagram(fam, n, p))
    for r in g.reflections():
        word = g.reduced_word(r)
        assert len(word) % 2 == 1
        assert g.word_to_element(word) == r
        # r negates exactly one positive root among those it inverts oddly;
        # check it is an involution of length counting the inverted roots
        assert g.compose(r, r) == g.identity


def _central(group):
    w0 = group.w0
    return all(
        group.compose(w0, group.simple(x)) == group.compose(group.simple(x), w0)
        for x in group.gens
    )


def test_longest_element_centrality_pattern():
    # the diagram involution is nontrivial exactly for A_n (n >= 2),
    # D_n with n odd, E_6 and I_2(p) with p odd
    central_cases = [
        ("A", 1, None, True),
        ("A", 2, None, False),
        ("A", 3, None, False),
        ("D", 4, None, True),
        ("D", 5, None, False),
        ("D", 6, None, True),
        ("E", 6, None, False),
        ("B", 3, None, True),
        ("F", 4, None, True),
        ("H", 3, None, True),
        ("I", 2, 5, False),
        ("I", 2, 6, True),
        ("I", 2, 7, False),
    ]
    for fam, n, p, expect in central_cases:
        g = build_group(type_diagram(fam, n, p))
        assert _central(g) == expect, (fam, n, p)


@pytest.mark.parametrize("fam,n,p", [t for t in RANK_LE4 if t[1] <= 4])
def test_coxeter_element_order_independent_of_ordering(fam, n, p):
    g = build_group(type_diagram(fam, n, p))
    h = coxeter_number(g)
    orders = {
        element_order(g, g.word_to_element(perm)) for perm in permutations(g.gens)
    }
    assert orders == {h}


def test_coxeter_numbers_match_classification():
    # garside-core reads h from the classification; the oracle covers every
    # type the suite runs
    tags = {i.rsplit("-", 1)[1] for i, _ in suite_garside_core()}
    assert tags == {_tag(*t) for t in GARSIDE_CORE_TYPES}
    for fam, n, p in GARSIDE_CORE_TYPES:
        g = build_group(type_diagram(fam, n, p))
        (ct,) = finite_type(g.diagram).components
        assert coxeter_number(g) == ct.coxeter_number, (fam, n, p)


def _dihedral_oracle_elements(p):
    """All 2p elements of the dihedral group as (rotation, flip) pairs."""
    return [(r, f) for f in (0, 1) for r in range(p)]


def _dihedral_mul(p, a, b):
    # s = (0,1), t = flip then rotate: model: (r,f): x -> rot^r flip^f
    (r1, f1), (r2, f2) = a, b
    if f1 == 0:
        return ((r1 + r2) % p, f2)
    return ((r1 - r2) % p, 1 - f2)


def test_word_to_element_matches_dihedral_multiplication_table():
    # exhaustive comparison with an independent dihedral model, p <= 6
    for p in (3, 4, 5, 6):
        g = build_group(type_diagram("I", 2, p))
        s, t = g.gens
        # s and t are reflections with st a rotation by one step
        word_of = {}

        def build(word):
            out = (0, 0)
            for letter in word:
                out = _dihedral_mul(p, out, (0, 1) if letter == s else (1, 1))
            return out

        # t = flip-then-rotate: check relations first
        assert _dihedral_mul(p, (0, 1), (0, 1)) == (0, 0)
        assert _dihedral_mul(p, (1, 1), (1, 1)) == (0, 0)
        # enumerate all alternating words up to length p and compare equality
        words = []
        for start in (s, t):
            other = t if start == s else s
            for length in range(0, p + 1):
                words.append(tuple(start if i % 2 == 0 else other
                                   for i in range(length)))
        for w1 in words:
            for w2 in words:
                lhs = g.word_to_element(w1) == g.word_to_element(w2)
                rhs = build(w1) == build(w2)
                assert lhs == rhs, (p, w1, w2)


def test_orders_of_products():
    g = build_group(type_diagram("A", 2))
    s, t = g.gens
    assert element_order(g, g.word_to_element((s, t))) == 3
    assert g.word_to_element((s, s)) == g.identity
    assert g.word_to_element((s, t, s)) == g.word_to_element((t, s, t))


def test_braid_relation_orders_in_all_models():
    for fam, n, p in RANK_LE4:
        d = type_diagram(fam, n, p)
        g = build_group(d)
        for a in g.gens:
            for b in g.gens:
                if a == b:
                    continue
                m = d.m(a, b)
                assert element_order(g, g.word_to_element((a, b))) == m


def test_conjugate_closure_gives_all_reflections_a3():
    # independent reflection count: close the simples under conjugation
    g = build_group(type_diagram("A", 3))
    seen = set(g.simple(x) for x in g.gens)
    frontier = list(seen)
    while frontier:
        w = frontier.pop()
        for x in g.gens:
            c = g.compose(g.simple(x), g.compose(w, g.simple(x)))
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    assert len(seen) == 6 == g.n_pos


def test_product_group_roots():
    d = parse_diagram("vertex a; vertex b; vertex c; edge a b 3")
    g = build_group(d)  # A_2 x A_1
    assert g.n_pos == 4
    assert g.length(g.w0) == 4
    assert coxeter_number(g) == 6  # lcm(3, 2)


def test_e8_root_closure_240_roots():
    g = build_group(type_diagram("E", 8))
    assert g.n_pos == 120
    assert g.length(g.w0) == 120


# -- compose as one gather, and reflections lifted on demand ----------------

COMPOSE_TYPES = [("A", 1, None), ("I", 2, 7), ("H", 4, None), ("E", 8, None)]


@pytest.mark.parametrize("fam,n,p", COMPOSE_TYPES)
def test_compose_is_a_gather_and_associative(fam, n, p):
    import random

    g = build_group(type_diagram(fam, n, p))
    rng = random.Random("compose:%s%d:%s" % (fam, n, p))
    elements = [g.word_to_element([rng.choice(g.gens) for _ in range(rng.randrange(12))])
                for _ in range(6)]
    for u, v, w in zip(elements, elements[1:], elements[2:]):
        uv = g.compose(u, v)
        assert isinstance(uv, tuple) and len(uv) == g.size
        assert all(uv[r] == u[v[r]] for r in range(g.size))
        assert g.compose(uv, w) == g.compose(u, g.compose(v, w))
        for x in g.gens:
            word = g.reduced_word(u)
            assert g.times[x](u) == g.word_to_element(word + (x,))
            assert g.compose(g.simple(x), u) == g.word_to_element((x,) + word)
        assert g.compose(g.inverse(u), u) == g.identity == g.compose(u, g.inverse(u))


def test_trivial_group_composes_and_normalises():
    from coxart.garside import ArtinEngine

    g = build_group(type_diagram("A", 3).induced(()))
    assert g.size == 0 and g.identity == () == g.w0
    assert g.compose(g.identity, g.identity) == ()
    assert g.reflections() == []
    nf = ArtinEngine(g).normal_form([])
    assert nf.is_trivial() and nf.inf == 0 and nf.canon == ()


def test_reflections_of_a_reducible_group_negate_their_roots():
    d = parse_diagram("vertex a; vertex b; vertex c; vertex d; vertex e; "
                      "edge a b 3; edge d e 5")
    g = build_group(d)  # A_2 x A_1 x H_2
    refl = g.reflections()
    assert len(refl) == g.n_pos == 3 + 1 + 5
    for k, r in enumerate(refl):
        assert r[k] == k + g.n_pos  # the root it negates
        assert g.compose(r, r) == g.identity
        assert g.word_to_element(g.reduced_word(r)) == r


def test_second_e8_build_holds_no_reflection_tables():
    import tracemalloc

    d = type_diagram("E", 8)
    build_group(d)  # the root model is cached from here on
    tracemalloc.start()
    try:
        g = build_group(d)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 64_000, "a second E8 group holds %d bytes" % held
    assert len(g.reflections()) == 120


# -- reflections derived from the simple reflections ------------------------

@pytest.mark.parametrize("p", [3, 4, 5, 6, 7, 12, 97])
def test_dihedral_reflections_match_closed_form(p):
    # independent oracle: on rays at angle j*pi/p (j mod 2p, positives
    # j < p) the reflection negating ray k sends j to 2k + p - j
    g = build_group(type_diagram("I", 2, p))
    table = g.reflections()
    assert g.n_pos == len(table) == p
    for k in range(p):
        closed = tuple((2 * k + p - j) % (2 * p) for j in range(2 * p))
        assert table[k] == closed


def _held_bytes(build):
    import tracemalloc

    tracemalloc.start()
    try:
        kept = build()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return kept, held


def test_many_dihedral_builds_hold_under_two_megabytes():
    # the model cache is bounded and keeps only simple permutations
    groups, held = _held_bytes(
        lambda: [build_group(type_diagram("I", 2, p)).n_pos for p in range(3, 200)])
    assert groups == list(range(3, 200))
    assert held < 2_000_000, "I_2(3)..I_2(199) hold %d bytes" % held


def test_large_dihedral_build_holds_under_a_megabyte():
    g, held = _held_bytes(lambda: build_group(type_diagram("I", 2, 2000)))
    assert held < 1_000_000, "I_2(2000) holds %d bytes" % held
    assert g.n_pos == 2000 and g.length(g.w0) == 2000


# -- oracles for the lifted w0, the scan-free reduced word and the Coxeter
# -- elements by subset; each multiplies permutations with its own code

def _times(u, v):
    """u then-after v, composed here rather than by WGroup.compose."""
    return tuple(u[i] for i in v)


def _walked_longest(g):
    """w0 as the end of any walk that keeps lengthening on the right."""
    w = tuple(range(g.size))
    while True:
        up = [x for x in g.gens if w[g.alpha_index(x)] < g.n_pos]
        if not up:
            return w
        w = _times(w, g.simple(up[0]))


@pytest.mark.parametrize("spec", [
    "type I 2 5", "type I 2 6", "type I 2 7", "type E 6", "type D 5",
    "vertex a; vertex b; vertex c; vertex d; vertex e; edge a b 3; edge d e 5",
    "vertex a; vertex b; vertex c; vertex d; vertex e; vertex f; "
    "edge a b 6; edge c d 3; edge d e 3; edge e f 4",
])
def test_lifted_longest_element_matches_the_walk(spec):
    g = build_group(parse_diagram(spec))
    assert g.w0 == _walked_longest(g)
    assert all(g.w0[i] >= g.n_pos for i in range(g.n_pos))


def _scan_reduced_word(g, w):
    """The greedy smallest-left-descent word, finding each left descent by
    scanning w for the simple root (w^-1(alpha_x) = w.index(alpha_x))."""
    out = []
    identity = tuple(range(g.size))
    while w != identity:
        x = min((x for x in g.gens if w.index(g.alpha_index(x)) >= g.n_pos),
                key=sort_key)
        out.append(x)
        w = _times(g.simple(x), w)
    return tuple(out)


@pytest.mark.parametrize("fam,n,p", [("E", 8, None), ("H", 4, None),
                                     ("F", 4, None), ("I", 2, 7)])
def test_reduced_word_matches_index_scan_greedy(fam, n, p):
    g = build_group(type_diagram(fam, n, p))
    rng = random.Random("%s%d" % (fam, n))
    randoms = []
    for _ in range(20):
        w = tuple(range(g.size))
        for x in rng.choices(g.gens, k=rng.randrange(1, 3 * g.n_pos)):
            w = _times(w, g.simple(x))
        randoms.append(w)
    for w in g.reflections() + [g.w0] + randoms:
        word = g.reduced_word(w)
        assert word == _scan_reduced_word(g, w)
        assert len(word) == g.length(w)


def _brute_force_coxeter_elements(g):
    elements = set()
    for ordering in permutations(g.gens):
        w = tuple(range(g.size))
        for x in ordering:
            w = _times(w, g.simple(x))
        elements.add(w)
    return elements


@pytest.mark.parametrize("fam,n", [("A", 4), ("B", 4), ("D", 5), ("F", 4), ("H", 4)])
def test_coxeter_elements_by_subset_match_all_orderings(fam, n):
    g = build_group(type_diagram(fam, n))
    found = _coxeter_elements(g)
    assert set(found) == _brute_force_coxeter_elements(g)
    for c, ordering in found.items():
        assert sorted(ordering, key=sort_key) == list(g.gens)
        assert g.word_to_element(ordering) == c


@pytest.mark.parametrize("fam,n", [("A", 7), ("D", 6)])
def test_tree_diagrams_have_two_to_the_n_minus_one_coxeter_elements(fam, n):
    assert len(_coxeter_elements(build_group(type_diagram(fam, n)))) == 2 ** (n - 1)


# -- per-generator and pair gathers and the rank-2 reduced word ----------------------

def _seeded_elements(g, seed, count=30):
    rng = random.Random(seed)
    out = [tuple(range(g.size)), g.w0]
    for _ in range(count):
        w = tuple(range(g.size))
        for x in rng.choices(g.gens, k=rng.randrange(1, 2 * g.n_pos + 2)):
            w = _times(w, g.simple(x))
        out.append(w)
    return out


@pytest.mark.parametrize("spec", [
    "vertex a; vertex b", "type I 2 500", "type E 8",
])
def test_every_gather_step_is_a_right_multiplication(spec):
    g = build_group(parse_diagram(spec))
    for w in _seeded_elements(g, spec):
        for x in g.gens:
            right = g.compose(w, g.simple(x))
            assert right == _times(w, g.simple(x))
            assert g.times[x](w) == right
    rng = random.Random(spec)
    word = rng.choices(g.gens, k=50)
    expected = tuple(range(g.size))
    for x in word:
        expected = _times(expected, g.simple(x))
    assert g.word_to_element(word) == expected


PAIR_SPECS = ["type E 8", "type H 4", "type F 4", "type B 3", "type I 2 7",
              "vertex a; vertex b",
              "vertex x10; vertex Y_2; vertex x9; vertex beta; "
              "edge Y_2 x9 4; edge x9 beta 3; edge x10 Y_2 3"]


@pytest.mark.parametrize("spec", PAIR_SPECS)
def test_pair_gather_is_two_generator_steps(spec):
    g = build_group(parse_diagram(spec))
    elements = _seeded_elements(g, "pairs:" + spec, count=6)
    for a in g.gens:
        for b in g.gens:
            step = g.pair_times(a, b)
            assert step is g.pair_times(a, b)
            for w in elements:
                assert step(w) == g.times[b](g.times[a](w)) == _times(
                    _times(w, g.simple(a)), g.simple(b))


@pytest.mark.parametrize("spec", PAIR_SPECS)
def test_a_group_holds_at_most_one_pair_gather_per_ordered_pair(spec):
    g = build_group(parse_diagram(spec))
    assert not g._pairs  # built on first use, not with the group
    cap = len(g.gens) ** 2
    rng = random.Random("pair-cap:" + spec)
    eng = ArtinEngine(g)
    for _ in range(20):
        eng.normal_form([(rng.choice(g.gens), rng.choice((-3, -1, 1, 2)))
                         for _ in range(rng.randrange(1, 60))])
        assert len(g._pairs) <= cap
    pairs = [(a, b) for a in g.gens for b in g.gens]
    for a, b in pairs + rng.sample(pairs, cap):
        g.pair_times(a, b)
        assert len(g._pairs) <= cap
    assert len(g._pairs) == cap


def _all_elements(g):
    """Every element of g, closed under right multiplication by simples."""
    seen = {tuple(range(g.size))}
    frontier = list(seen)
    for w in frontier:
        for x in g.gens:
            v = _times(w, g.simple(x))
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return sorted(seen)


@pytest.mark.parametrize("spec", ["vertex a; vertex b"] + [
    "type I 2 %d" % p for p in range(3, 25)])
def test_rank_two_reduced_word_is_the_generic_greedy_on_every_element(spec):
    g = build_group(parse_diagram(spec))
    elements = _all_elements(g)
    assert len(elements) == (4 if spec.startswith("vertex") else 2 * g.n_pos)
    for w in elements:
        assert g.reduced_word(w) == _scan_reduced_word(g, w)
