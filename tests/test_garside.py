import random
from collections import Counter
from itertools import combinations

import pytest

from coxart.diagram import (
    DiagramError,
    finite_type,
    irreducible_components,
    parse_diagram,
    type_diagram,
)
from coxart.garside import (
    ArtinEngine,
    BudgetExceeded,
    _NFState,
    delta_power,
    delta_word,
    parse_word,
    word_length,
)
from coxart.raag import raag_inverse as inverse_word
from coxart.wgroup import build_group

A2 = parse_diagram("vertex s; vertex t; edge s t 3")


@pytest.fixture(scope="module")
def a2_engine():
    return ArtinEngine(build_group(A2))


def test_parse_word_syntax():
    assert parse_word("s^2 t^-2 s") == [("s", 2), ("t", -2), ("s", 1)]
    assert parse_word("") == []


def _sigma_lift(eng, element):
    """The Tits section: a positive reduced word for a W-element."""
    return [(g, 1) for g in eng.w.reduced_word(element)]


def test_sigma_lift_identity_and_generator(a2_engine):
    eng = a2_engine
    assert _sigma_lift(eng, eng.w.identity) == []
    g = eng.w.gens[0]
    assert _sigma_lift(eng, eng.w.simple(g)) == [(g, 1)]


def test_sigma_lift_longest_is_delta(a2_engine):
    eng = a2_engine
    lift = _sigma_lift(eng, eng.w.w0)
    nf = eng.normal_form(lift)
    assert nf.inf == 1 and nf.canon == ()
    # both reduced words of the longest element are the same group element
    assert eng.equals(parse_word("s t s"), parse_word("t s t"))


def test_braid_relation_trivial_word(a2_engine):
    assert a2_engine.is_trivial(parse_word("s t s t^-1 s^-1 t^-1"))


def test_delta_squared_two_positive_forms(a2_engine):
    delta_sq = delta_word(A2, A2.vertices, 2)
    assert a2_engine.equals(delta_sq, parse_word("s t^2 s t^2"))
    assert a2_engine.equals(delta_sq, parse_word("t^2 s t^2 s"))


def test_i24_braid_relation():
    d = type_diagram("I", 2, 4)
    eng = ArtinEngine(build_group(d))
    nf1 = eng.normal_form(parse_word("s1 s2 s1 s2"))
    nf2 = eng.normal_form(parse_word("s2 s1 s2 s1"))
    assert nf1 == nf2
    assert nf1.inf == 1 and nf1.canon == ()


def test_equals_examples(a2_engine):
    eng = a2_engine
    assert eng.equals(parse_word("s^2"), parse_word("s^2"))
    assert not eng.equals(parse_word("s^2 t^2"), parse_word("t^2 s^2"))
    delta_sq = delta_word(A2, A2.vertices, 2)
    assert eng.equals(delta_sq + [("s", 1)], [("s", 1)] + delta_sq)


def test_commutes_examples():
    d = parse_diagram("vertex s; vertex t; vertex u; edge s t 3; edge t u 3")
    eng = ArtinEngine(build_group(d))
    assert eng.commutes(parse_word("s^2"), parse_word("u^2"))
    assert not eng.commutes(parse_word("s^2"), parse_word("t^2"))


def test_delta_power_rank1():
    d = type_diagram("A", 3)
    assert delta_power(d, ("s1",), 4) == [("s1", 1)] * 4


def test_delta_power_a2_length_and_value(a2_engine):
    word = delta_power(A2, ("s", "t"), 2)
    assert word_length(word) == 6
    assert a2_engine.equals(word, parse_word("s t") * 3)


def test_delta_power_requires_irreducible():
    d = type_diagram("A", 3)
    with pytest.raises(Exception):
        delta_power(d, ("s1", "s3"), 2)


def test_delta_power_braid_subgroup_central():
    # Delta^2 of the 5-strand braid subgroup is central in that subgroup
    d = type_diagram("A", 7)
    subset = ("s1", "s2", "s3", "s4")
    word = delta_power(d, subset, 2)
    eng = ArtinEngine(build_group(d.induced(subset)))
    for g in subset:
        assert eng.commutes(word, [(g, 1)])


def test_negative_letters_and_inverses(a2_engine):
    eng = a2_engine
    w = parse_word("s t^-2 s^3 t")
    assert eng.is_trivial(w + inverse_word(w))
    nf = eng.normal_form(parse_word("t^-1"))
    assert nf.inf == -1 and len(nf.canon) == 1


def test_round_trip_random_words(a2_engine):
    rng = random.Random(7)
    eng = a2_engine
    gens = list(A2.vertices)
    for _ in range(60):
        word = [(rng.choice(gens), rng.choice((-2, -1, 1, 2))) for _ in range(7)]
        nf = eng.normal_form(word)
        back = delta_word(A2, A2.vertices, nf.inf)
        for simple in nf.canon:
            back = back + [(g, 1) for g in eng.w.reduced_word(simple)]
        assert eng.normal_form(back) == nf


def _left_descents(group, v):
    """Generators g with l(s_g v) < l(v), from lengths alone."""
    return {g for g in group.gens
            if group.length(group.compose(group.simple(g), v)) < group.length(v)}


def _right_descents(group, u):
    """Generators g with l(u s_g) < l(u), from lengths alone."""
    return {g for g in group.gens
            if group.length(group.compose(u, group.simple(g))) < group.length(u)}


def test_canonical_form_is_left_weighted(a2_engine):
    rng = random.Random(11)
    eng = a2_engine
    group = eng.w
    gens = list(A2.vertices)
    for _ in range(40):
        word = [(rng.choice(gens), 1) for _ in range(9)]
        nf = eng.normal_form(word)
        assert all(u != group.identity and u != group.w0 for u in nf.canon)
        for u, v in zip(nf.canon, nf.canon[1:]):
            assert _left_descents(group, v) <= _right_descents(group, u)


def test_delta_conjugation_sends_generators_to_generators():
    for fam, n, p in (("A", 3, None), ("B", 3, None), ("I", 2, 5)):
        d = type_diagram(fam, n, p)
        eng = ArtinEngine(build_group(d))
        delta = delta_word(d, d.vertices, 1)
        for g in d.vertices:
            (image,) = [h for h in d.vertices if eng.w.simple(h) == eng.tau(eng.w.simple(g))]
            assert eng.equals(
                inverse_word(delta) + [(g, 1)] + delta, [(image, 1)]
            )


def test_budget_guard(monkeypatch):
    monkeypatch.setenv("COXART_LETTER_BUDGET", "10")
    eng = ArtinEngine(build_group(A2))
    with pytest.raises(BudgetExceeded, match=r"^garside normal form: word of "
                       r"12 letters exceeds the letter budget 10$"):
        eng.normal_form([("s", 6), ("t", 6)])
    assert eng.normal_form([("s", 5)]).canonical_length == 5


# -- multiplying normal forms, against the normal form of the whole word ------

ORACLE_TYPES = [("A", 3, None), ("B", 4, None), ("D", 5, None), ("F", 4, None),
                ("H", 3, None), ("H", 4, None), ("E", 6, None), ("E", 7, None),
                ("E", 8, None), ("I", 2, 7)]


def _mixed_word(rng, d):
    """A seeded word of letters with exponents +-1 and +-2, now and then with
    Delta^+-1 spliced in, so that odd and negative infima both occur."""
    word = []
    for _ in range(rng.randrange(1, 4)):
        if rng.random() < 0.3:
            word += delta_word(d, d.vertices, rng.choice((-1, 1)))
        word += [(rng.choice(d.vertices), rng.choice((-2, -1, 1, 2)))
                 for _ in range(rng.randrange(6))]
    return word


@pytest.mark.parametrize("fam,n,p", ORACLE_TYPES)
def test_multiply_matches_the_normal_form_of_the_concatenation(fam, n, p):
    d = type_diagram(fam, n, p)
    eng = ArtinEngine(build_group(d))
    group = eng.w
    rng = random.Random("multiply:%s%d:%s" % (fam, n, p))
    right_infs, mixed = set(), 0
    for _ in range(110):
        w1, w2 = _mixed_word(rng, d), _mixed_word(rng, d)
        mixed += len({e > 0 for _, e in w1 + w2}) == 2
        a, b = eng.normal_form(w1), eng.normal_form(w2)
        product = eng.multiply(a, b)
        assert product == eng.normal_form(w1 + w2), (w1, w2)
        for u, v in zip(product.canon, product.canon[1:]):
            assert _left_descents(group, v) <= _right_descents(group, u)
        right_infs.add(b.inf)
    # at least 100 mixed-sign pairs per type, and the twist tau^j(A) is
    # exercised: odd and negative j both occur
    assert mixed >= 100
    assert any(j % 2 for j in right_infs) and any(j < 0 for j in right_infs)


def _greedy_longest_word(d, subset):
    """The generic greedy: build W_T and peel the smallest left descent of
    its longest element, scanning for each descent with the test's own
    arithmetic."""
    g = build_group(d.induced(subset))
    w, out = g.w0, []
    while True:
        inv = tuple(sorted(range(g.size), key=w.__getitem__))
        x = next((x for x in g.gens if inv[g.alpha_index(x)] >= g.n_pos), None)
        if x is None:
            return out
        out.append(x)
        w = tuple(g.simple(x)[i] for i in w)


def _spherical_subsets(d):
    return [t for r in range(len(d.vertices) + 1)
            for t in combinations(d.vertices, r)
            if finite_type(d, t).is_spherical]


@pytest.mark.parametrize("spec", [
    "type A 7", "type B 5", "type D 6", "type E 6", "type E 7", "type E 8",
    "type F 4", "type H 3", "type H 4", "type I 2 7",
    # names whose sort_key order differs from the standard order of B_4
    "vertex b; vertex a; vertex zz; vertex c; edge a b 3; edge b c 4; edge zz a 3",
])
def test_delta_word_is_the_greedy_word_of_the_longest_element(spec):
    d = parse_diagram(spec)
    for subset in _spherical_subsets(d):
        lift = [(g, 1) for g in _greedy_longest_word(d, subset)]
        assert delta_word(d, subset, 1) == lift
        assert delta_word(d, subset, 2) == lift * 2
        assert delta_word(d, subset, -2) == inverse_word(lift) * 2


def _connected_subsets(d, largest):
    return [t for k in range(1, largest + 1) for t in combinations(d.vertices, k)
            if len(irreducible_components(d, t)) == 1]


@pytest.mark.parametrize("fam,n,p", ORACLE_TYPES)
def test_commutes_matches_normal_forms_of_both_orders(fam, n, p):
    d = type_diagram(fam, n, p)
    eng = ArtinEngine(build_group(d))

    def from_scratch(w1, w2):
        return eng.normal_form(w1 + w2) == eng.normal_form(w2 + w1)

    # Delta_T^2 against each generator: it commutes with x_s exactly when s
    # is in T or every label between s and T is 2
    for t in _connected_subsets(d, 3) + [tuple(d.vertices)]:
        delta_sq = delta_word(d, t, 2)
        for s in d.vertices:
            expected = s in t or all(d.m(s, x) == 2 for x in t)
            assert eng.commutes(delta_sq, [(s, 1)]) == expected, (t, s)
            assert from_scratch(delta_sq, [(s, 1)]) == expected, (t, s)
    rng = random.Random("commutes:%s%d:%s" % (fam, n, p))
    for _ in range(20):
        w1, w2 = _mixed_word(rng, d), _mixed_word(rng, d)
        for pair in ((w1, w2), (w1, w1 + w1), (w1, inverse_word(w1)),
                     (w1, delta_word(d, d.vertices, rng.choice((-2, 2))) + w1)):
            assert eng.commutes(*pair) == from_scratch(*pair), pair


# -- brute-force oracle: positive-word equality in the dihedral Artin monoid --
#
# Positive words are equal in the Artin group iff they lie in the same orbit
# under braid-relation replacements (the monoid embeds for spherical type).
# The orbit enumeration is independent of the Garside machinery.

def _alt(a, b, m):
    return tuple((a, b)[i % 2] for i in range(m))


def _braid_orbit(word, s, t, m, cap=200000):
    lhs, rhs = _alt(s, t, m), _alt(t, s, m)
    seen = {word}
    stack = [word]
    while stack:
        w = stack.pop()
        for i in range(len(w) - m + 1):
            seg = w[i:i + m]
            if seg == lhs:
                new = w[:i] + rhs + w[i + m:]
            elif seg == rhs:
                new = w[:i] + lhs + w[i + m:]
            else:
                continue
            if new not in seen:
                if len(seen) > cap:
                    raise RuntimeError("orbit cap exceeded")
                seen.add(new)
                stack.append(new)
    return seen


@pytest.mark.parametrize("m", (3, 4, 5))
def test_equals_agrees_with_rewriting_oracle(m):
    from itertools import product

    d = type_diagram("I", 2, m)
    eng = ArtinEngine(build_group(d))
    s, t = d.vertices
    words = [w for length in range(9) for w in product((s, t), repeat=length)]
    # the orbit of a positive word under braid replacements is its whole
    # equivalence class; words are equal iff they share an orbit
    rep = {}
    for w in words:
        if w in rep:
            continue
        orbit = _braid_orbit(w, s, t, m)
        canon = min(orbit)
        for member in orbit:
            rep[member] = canon
    engine_nf = {w: eng.normal_form([(g, 1) for g in w]) for w in words}
    for w1 in words:
        for w2 in words:
            oracle = rep[w1] == rep[w2]
            assert (engine_nf[w1] == engine_nf[w2]) == oracle, (m, w1, w2)


def _e8_conjugation_word(n_power, g, k=1):
    """Delta_E7^(2N) x_g^k Delta_E7^(-2N) inside E8, E7 = E8 minus s7."""
    d = type_diagram("E", 8)
    e7 = [v for v in d.vertices if v != "s7"]
    return (delta_word(d, e7, 2 * n_power) + [(g, k)]
            + delta_word(d, e7, -2 * n_power))


@pytest.mark.parametrize("n_power", (5, 20))
def test_e7_delta_power_centralises_only_e7_in_e8(n_power):
    # z_T^N = Delta_T^2N is central in the parabolic subgroup of T only
    eng = ArtinEngine(build_group(type_diagram("E", 8)))
    assert eng.equals(_e8_conjugation_word(n_power, "s6"), [("s6", 1)])
    assert not eng.equals(_e8_conjugation_word(n_power, "s7"), [("s7", 1)])


def test_memory_flat_across_repeated_normal_forms():
    # the engine keeps nothing per element it has seen: each round is a new
    # word (a new power of x_s7), so a cache of simples would keep growing
    import tracemalloc

    eng = ArtinEngine(build_group(type_diagram("E", 8)))
    words = [_e8_conjugation_word(2, "s7", k) for k in range(1, 21)]
    sizes = []
    tracemalloc.start()
    try:
        for word in words:
            eng.normal_form(word)
            sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert sizes[19] - sizes[1] <= 64 * 1024, sizes


def test_held_first_word_gives_a_fresh_engines_answers():
    # commutes keeps its last first word; interleaved first words, list
    # syllables and words the caller mutates between calls must all get the
    # answers of an engine that has seen nothing
    d = type_diagram("E", 6)
    eng = ArtinEngine(build_group(d))
    words = [delta_word(d, d.vertices, 2), delta_word(d, ["s1", "s2"], 2),
             [("s1", 2)], [("s2", -1), ("s4", 3)]]

    def answers(w1):
        got = [eng.commutes(w1, [(g, 1)]) for g in d.vertices]
        assert got == [ArtinEngine(eng.w).commutes(w1, [(g, 1)])
                       for g in d.vertices], w1
        return got

    for w1 in words + words[::-1] + [w for w in words for _ in range(2)]:
        assert answers([list(x) for x in w1]) == answers(w1)
    # each change to the caller's list changes the answers
    word = [["s1", 2]]
    seen = [answers(word)]
    for change in (lambda: word[0].__setitem__(0, "s2"),
                   lambda: word.append(["s3", 1]),
                   lambda: word[0].__setitem__(1, 0)):
        change()
        seen.append(answers(word))
        assert seen[-1] != seen[-2], word


def test_commutes_leaves_no_cycle_through_the_engine():
    # the held entry is (inf, canon), not an element, so the engine dies with
    # its last reference and not at the next cyclic collection
    import gc
    import weakref

    d = type_diagram("E", 6)
    eng = ArtinEngine(build_group(d))
    assert eng.commutes(delta_word(d, d.vertices, 2), [("s1", 1)])
    ref = weakref.ref(eng)
    gc.disable()
    try:
        del eng
        assert ref() is None
    finally:
        gc.enable()


def test_memory_flat_across_new_first_words_of_commutes():
    # one held entry: each call's first word is new and longer than the last,
    # so a cache of first words would keep growing
    import tracemalloc

    eng = ArtinEngine(build_group(type_diagram("E", 8)))
    words = [_e8_conjugation_word(2, "s7", k) for k in range(1, 21)]
    sizes = []
    tracemalloc.start()
    try:
        for word in words:
            eng.commutes(word, [("s6", 1)])
            sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert sizes[19] - sizes[1] <= 64 * 1024, sizes


def test_held_first_word_still_meets_the_budget():
    from coxart.garside import RUN_BUDGET

    d = type_diagram("E", 6)
    eng = ArtinEngine(build_group(d))
    delta_sq = delta_word(d, d.vertices, 2)
    assert eng.commutes(delta_sq, [("s1", 1)])
    token = RUN_BUDGET.set(len(delta_sq))
    try:
        with pytest.raises(BudgetExceeded):
            eng.commutes(delta_sq, [("s1", 1)])
    finally:
        RUN_BUDGET.reset(token)


def test_delta_squared_central_e7_restricted():
    # the restricted large-type check: Delta^2 commutes with every generator
    d = type_diagram("E", 7)
    eng = ArtinEngine(build_group(d))
    delta_sq = delta_word(d, d.vertices, 2)
    for g in d.vertices:
        assert eng.commutes(delta_sq, [(g, 1)])


# -- property tests ----------------------------------------------------------

from hypothesis import given, settings, strategies as st

_letters = st.lists(
    st.tuples(st.sampled_from(("s", "t")), st.sampled_from((-2, -1, 1, 2))),
    max_size=6,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_letters)
def test_word_times_inverse_is_trivial(word):
    eng = ArtinEngine(build_group(A2))
    assert eng.is_trivial(list(word) + inverse_word(word))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_letters, _letters)
def test_equals_is_a_congruence(w1, w2):
    eng = ArtinEngine(build_group(A2))
    # appending the same tail preserves equality/inequality
    tail = [("t", 1), ("s", -1)]
    assert eng.equals(list(w1), list(w2)) == eng.equals(
        list(w1) + tail, list(w2) + tail
    )


@pytest.mark.parametrize("spec", ("type A 3", "type B 3", "type I 2 6"))
def test_round_trip_across_types(spec):
    d = parse_diagram(spec)
    eng = ArtinEngine(build_group(d))
    rng = random.Random(13)
    gens = list(d.vertices)
    for _ in range(25):
        word = [(rng.choice(gens), rng.choice((-2, -1, 1, 2))) for _ in range(6)]
        nf = eng.normal_form(word)
        back = delta_word(d, d.vertices, nf.inf)
        for simple in nf.canon:
            back = back + [(g, 1) for g in eng.w.reduced_word(simple)]
        assert eng.normal_form(back) == nf
        for u, v in zip(nf.canon, nf.canon[1:]):
            assert _left_descents(eng.w, v) <= _right_descents(eng.w, u)


# -- independent oracle: the reduced Burau representation of the 3-strand
# braid group, faithful for this group, over exact Laurent polynomials ----

def _lp(d=None):
    return {k: v for k, v in (d or {}).items() if v}


def _lp_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
        if not out[k]:
            del out[k]
    return out


def _lp_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            k = i + j
            out[k] = out.get(k, 0) + x * y
            if not out[k]:
                del out[k]
    return out


def _mat_mul(p, q):
    return tuple(
        tuple(
            _lp_add(_lp_mul(p[i][0], q[0][j]), _lp_mul(p[i][1], q[1][j]))
            for j in range(2)
        )
        for i in range(2)
    )


def _freeze(m):
    return tuple(tuple(tuple(sorted(e.items())) for e in row) for row in m)


def test_equals_matches_burau_on_signed_words():
    one, zero, tt = _lp({0: 1}), _lp(), _lp({1: 1})
    tinv, neg_t, neg_tinv = _lp({-1: 1}), _lp({1: -1}), _lp({-1: -1})
    burau = {
        ("s", 1): ((neg_t, one), (zero, one)),
        ("t", 1): ((one, zero), (tt, neg_t)),
        ("s", -1): ((neg_tinv, tinv), (zero, one)),
        ("t", -1): ((one, zero), (one, neg_tinv)),
    }
    ident = ((one, zero), (zero, one))
    for key in (("s", 1), ("t", 1)):
        inv = (key[0], -1)
        assert _freeze(_mat_mul(burau[key], burau[inv])) == _freeze(ident)

    def burau_of(word):
        m = ident
        for g, e in word:
            step = burau[(g, 1 if e > 0 else -1)]
            for _ in range(abs(e)):
                m = _mat_mul(m, step)
        return _freeze(m)

    eng = ArtinEngine(build_group(A2))
    rng = random.Random(21)
    gens = list(A2.vertices)
    words = [
        [(rng.choice(gens), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randrange(0, 6))]
        for _ in range(40)
    ]
    mats = [burau_of(w) for w in words]
    nfs = [eng.normal_form(w) for w in words]
    for i in range(len(words)):
        for j in range(len(words)):
            assert (nfs[i] == nfs[j]) == (mats[i] == mats[j]), (
                words[i], words[j]
            )


def test_reducible_spherical_group_normal_form():
    # the engine works verbatim on products: A_1 x A_1 and A_2 x A_1
    d = parse_diagram("vertex a; vertex b")
    eng = ArtinEngine(build_group(d))
    assert eng.equals(parse_word("a b"), parse_word("b a"))
    nf = eng.normal_form(parse_word("a b"))
    assert nf.inf == 1 and nf.canon == ()  # Delta = ab for A_1 x A_1

    d2 = parse_diagram("vertex a; vertex b; vertex c; edge a b 3")
    eng2 = ArtinEngine(build_group(d2))
    assert eng2.commutes(parse_word("c^3"), parse_word("a b a"))
    delta_sq = delta_word(d2, d2.vertices, 2)
    for g in d2.vertices:
        assert eng2.commutes(delta_sq, [(g, 1)])


def test_normalize_letters_merges_adjacent():
    from coxart.raag import normalize_syllables as normalize_letters

    assert normalize_letters([("s", 1), ("s", 2), ("t", 0), ("s", -3)]) == []
    assert normalize_letters([("s", 1), ("t", 1), ("t", -1), ("s", 1)]) == [
        ("s", 2)
    ]


# -- independent oracle for run grouping: a disguised copy of a signed word
# with long same-sign runs, made by one defining relation and one cancelling
# pair without coxart.garside, must have the same normal form -------------

def _signed_runs(gens):
    run = st.lists(st.sampled_from(gens), min_size=1, max_size=8)
    return st.lists(st.tuples(st.sampled_from((1, -1)), run), max_size=4).map(
        lambda runs: [(g, sign) for sign, letters in runs for g in letters]
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(("A", "B", "H")), st.data())
def test_disguised_signed_words_agree(family, data):
    d = type_diagram(family, 3)
    gens = list(d.vertices)
    prefix = data.draw(_signed_runs(gens))
    suffix = data.draw(_signed_runs(gens))
    a, b = data.draw(st.permutations(gens))[:2]
    m = d.m(a, b)  # 2 gives a commutation relation
    lhs = [((a, b)[i % 2], 1) for i in range(m)]
    rhs = [((b, a)[i % 2], 1) for i in range(m)]
    if data.draw(st.booleans()):
        lhs = [(g, -e) for g, e in reversed(lhs)]
        rhs = [(g, -e) for g, e in reversed(rhs)]
    word = prefix + lhs + suffix
    disguised = prefix + rhs + suffix
    at = data.draw(st.integers(0, len(disguised)))
    x, e = data.draw(st.sampled_from(gens)), data.draw(st.sampled_from((1, -1, 2)))
    disguised[at:at] = [(x, e), (x, -e)]

    eng = ArtinEngine(build_group(d))
    assert eng.normal_form(word) == eng.normal_form(disguised)
    assert eng.is_trivial(word + [(g, -e) for g, e in reversed(word)])


# -- reading two letters per gather, against a letter-by-letter reading ------

class _LetterwiseState(_NFState):
    """The normal-form state reading one letter per gather: each letter of a
    run steps through WGroup.times, and a pair's moved prefix grows one
    generator per gather.  `ends` records each run that a later letter
    ended, as (its length, "sign" or "descent")."""

    __slots__ = ("ends",)

    def push_word(self, word):
        w = self.engine.w
        n = w.n_pos
        run, sign, length = w.identity, 0, 0
        self.ends = []
        for g, e in word:
            step = 1 if e > 0 else -1
            for _ in range(abs(e)):
                if step != sign or run[w.alpha_index(g)] >= n:
                    if length:
                        self.ends.append((length, "sign" if step != sign else "descent"))
                    self._push_run(run, sign)
                    run, sign, length = w.identity, step, 0
                run = w.times[g](run)
                length += 1
        self._push_run(run, sign)

    def _fix_pair(self, i):
        w = self.engine.w
        n = w.n_pos
        u, v = self.seq[i], self.seq[i + 1]
        v_neg = set(v[n:])
        m = w.identity
        grown = True
        while grown:
            grown = False
            for g in w.gens:
                r = m[w.alpha_index(g)]
                if r in v_neg and u[r] < n:
                    m = w.times[g](m)
                    grown = True
        if m == w.identity:
            return False
        self.seq[i] = w.compose(u, m)
        rest = w.compose(w.inverse(m), v)
        if rest == w.identity:
            del self.seq[i + 1]
        else:
            self.seq[i + 1] = rest
        return True


def _runs_word(rng, d):
    """A seeded word of same-sign stretches of 1-9 letters, exponents up to
    3 in size, now and then with Delta^+-1 spliced in."""
    word = []
    for _ in range(rng.randrange(1, 6)):
        sign = rng.choice((1, -1))
        if rng.random() < 0.2:
            word += delta_word(d, d.vertices, sign)
        word += [(rng.choice(d.vertices), sign * rng.choice((1, 1, 1, 2, 3)))
                 for _ in range(rng.randrange(1, 10))]
    return word


@pytest.mark.parametrize("spec", [
    "type A 3", "type B 4", "type D 5", "type F 4", "type H 3", "type H 4",
    "type E 6", "type E 7", "type E 8", "type I 2 7", "type G 2",
    "vertex a; vertex b",
])
def test_pair_stepping_matches_a_letterwise_reading(spec):
    d = parse_diagram(spec)
    eng = ArtinEngine(build_group(d))
    rng = random.Random("pairs:" + spec)
    ends = Counter()
    for _ in range(60):
        word = _runs_word(rng, d)
        reference = _LetterwiseState(eng)
        reference.push_word(word)
        assert eng.normal_form(word) == reference.readout(), word
        ends.update((length % 2, why) for length, why in reference.ends)
    # odd runs, whose last letter is held back, end both at a sign switch
    # and at a descent, and so do even ones
    assert all(ends[parity, why] for parity in (0, 1) for why in ("sign", "descent"))


def test_unknown_generator_after_a_held_back_letter_raises(a2_engine):
    for word in ([("s", 1), ("u", 1)], [("s", 3), ("u", -1)],
                 [("s", 1), ("t", 1), ("s", 1), ("u", 2)]):
        with pytest.raises(DiagramError, match="^unknown generator 'u'$"):
            a2_engine.normal_form(word)


# -- the normal forms themselves, pinned: a change to the engine or to the
# group layer under it must leave every (inf, canon) as it was ------------

#: sha256 of _garside_digest(), recorded before WGroup.compose became one
#: C-level gather and reflection tables were built on demand
GARSIDE_NF_SHA256 = "8e5e2d6b13dfb11fa0eadf694d0ff26895abc5d9818b69e8a261ab777302d863"


def _garside_digest():
    import hashlib

    digest = hashlib.sha256()
    for family, rank, p in (("E", 8, None), ("H", 4, None), ("F", 4, None),
                            ("D", 6, None), ("I", 2, 7)):
        d = type_diagram(family, rank, p)
        eng = ArtinEngine(build_group(d))
        rng = random.Random("garside-pin:%s%d:%s" % (family, rank, p))
        for _ in range(4):
            word = [(rng.choice(d.vertices), rng.choice((1, -1, 2, -2)))
                    for _ in range(40)]
            nf = eng.normal_form(word)
            digest.update(repr((nf.inf, nf.canon)).encode())
    return digest.hexdigest()


def test_garside_normal_forms_match_pinned_digest():
    assert _garside_digest() == GARSIDE_NF_SHA256


def test_garside_elements_compare_by_engine_inf_and_canon():
    word = parse_word("s t^-1 s^2 t")
    eng = ArtinEngine(build_group(A2))
    other = ArtinEngine(build_group(A2))
    a, b = eng.normal_form(word), eng.normal_form(list(word))
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # the same word from a second engine of the same type is another element
    c = other.normal_form(word)
    assert (c.inf, c.canon) == (a.inf, a.canon)
    assert a != c and c != a
    assert a != eng.normal_form(parse_word("s t"))
    assert (a.canonical_length, a.is_trivial()) == (len(a.canon), False)
    one = eng.normal_form(parse_word("s s^-1"))
    assert (one.inf, one.canon, one.canonical_length, one.is_trivial()) == (0, (), 0, True)
    delta = eng.normal_form(parse_word("s t s"))
    assert (delta.inf, delta.canonical_length, delta.is_trivial()) == (1, 0, False)
