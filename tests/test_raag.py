import random

import pytest
from hypothesis import given, settings, strategies as st

from coxart.raag import (
    ChoiceMap,
    FlagComplex,
    RaagError,
    WordSystem,
    avoidance_check,
    enumerate_reduced_words,
    generalized_pp_check,
    pp_search,
    pp_search_all,
    raag_commutator,
    raag_commutes,
    raag_equals,
    raag_inverse,
    raag_is_trivial,
    raag_normal_form,
    retraction,
    validate_choice,
    verify_injectivity_bounded,
)

F2F2 = FlagComplex("abcd", [("a", "b"), ("a", "d"), ("c", "b"), ("c", "d")])
PATH = FlagComplex("abcd", [("a", "b"), ("b", "c"), ("c", "d")])


def test_commuting_pair_cancels():
    word = [("a", 1), ("d", 1), ("a", -1), ("d", -1)]
    assert raag_is_trivial(F2F2, word)  # a and d commute there
    assert not raag_is_trivial(PATH, word)  # but not on the path


def test_badpp_relation_trivial_in_f2f2():
    u = [("b", 1), ("c", 1), ("d", 1), ("c", -1), ("b", -1)]
    rel = raag_commutator([("a", 1)], u)
    assert raag_is_trivial(F2F2, rel)


def test_badpp_relation_nontrivial_on_path():
    u = [("b", 1), ("c", 1), ("d", 1), ("c", -1), ("b", -1)]
    rel = raag_commutator([("a", 1)], u)
    assert not raag_is_trivial(PATH, rel)


def test_normal_form_shares_unchanged_syllables():
    word = [("c", 1), ("a", 2), ("a", 1), ("d", -1)]
    nf = raag_normal_form(PATH, word)
    assert nf == [("c", 1), ("a", 3), ("d", -1)]
    assert nf[0] is word[0] and nf[2] is word[3]  # kept, not copied
    # syllables given as lists still come out as tuples
    assert raag_normal_form(PATH, [list(s) for s in word]) == nf


def test_unknown_vertex_rejected():
    with pytest.raises(RaagError):
        raag_normal_form(PATH, [("z", 1)])


def test_retraction_examples():
    word = [("a", 1), ("b", 2), ("d", -1), ("a", 1)]
    assert retraction(PATH, (), word) == []
    assert retraction(PATH, PATH.vertices, word) == word
    assert retraction(PATH, ("a",), word) == [("a", 2)]


# -- oracle: orbit of a word under commutation shuffles and cancellations ----

def _expand(word):
    out = []
    for v, e in word:
        out.extend([(v, 1 if e > 0 else -1)] * int(abs(e)))
    return tuple(out)


def _orbit(cx, word, cap=300000):
    seen = {word}
    stack = [word]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            (va, ea), (vb, eb) = w[i], w[i + 1]
            if va == vb and ea == -eb:
                new = w[:i] + w[i + 2:]
                if new not in seen:
                    seen.add(new)
                    stack.append(new)
            if va != vb and cx.adjacent(va, vb):
                new = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                if new not in seen:
                    if len(seen) > cap:
                        raise RuntimeError("orbit cap")
                    seen.add(new)
                    stack.append(new)
    return seen


def _oracle_equal(cx, w1, w2):
    return bool(_orbit(cx, _expand(w1)) & _orbit(cx, _expand(w2)))


@pytest.mark.parametrize("cx", (F2F2, PATH), ids=("f2xf2", "path"))
def test_equality_matches_shuffle_oracle(cx):
    rng = random.Random(5)
    letters = [(v, e) for v in cx.vertices for e in (-1, 1)]
    words = [
        tuple(rng.choice(letters) for _ in range(rng.randrange(0, 6)))
        for _ in range(60)
    ]
    for w1 in words[:30]:
        for w2 in words[30:]:
            assert raag_equals(cx, list(w1), list(w2)) == _oracle_equal(
                cx, list(w1), list(w2)
            )


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from([-2, -1, 1, 2])), max_size=8),
       st.integers(0, 6))
def test_normal_form_idempotent_and_shuffle_invariant(word, pos):
    for cx in (F2F2, PATH):
        nf = raag_normal_form(cx, word)
        assert raag_normal_form(cx, nf) == nf
        # apply one legal commutation shuffle to the input, same normal form
        w = list(word)
        if len(w) >= 2:
            i = pos % (len(w) - 1)
            a, b = w[i], w[i + 1]
            if a[0] != b[0] and cx.adjacent(a[0], b[0]):
                w[i], w[i + 1] = b, a
        assert raag_normal_form(cx, w) == nf


def test_enumerate_reduced_words_counts_free_group():
    free = FlagComplex("ab", [])
    words = list(enumerate_reduced_words(free, 3))
    # free group on 2 letters: 4 + 12 + 36 elements of length 1..3
    assert len(words) == 52
    canon = {tuple(raag_normal_form(free, w)) for w in words}
    assert len(canon) == 52


def test_enumerate_reduced_words_abelian():
    ab = FlagComplex("ab", [("a", "b")])
    words = list(enumerate_reduced_words(ab, 2))
    # Z^2 elements of length 1..2: (+-1, 0), (0, +-1), (+-2, 0), (0, +-2),
    # and the four (+-1, +-1)
    assert len(words) == 12


def test_word_system_validation():
    with pytest.raises(RaagError):  # not a simplex
        WordSystem(PATH, {frozenset(("a", "c")): [("a", 1), ("c", 1)]})
    with pytest.raises(RaagError):  # support must be the whole simplex
        WordSystem(PATH, {frozenset(("b", "c")): [("b", 1)]})
    with pytest.raises(RaagError):  # mixed signs rejected
        WordSystem(PATH, {frozenset(("b", "c")): [("b", 1), ("c", -1)]})
    ws = WordSystem(PATH, {frozenset(("b", "c")): [("b", -1), ("c", -2)]})
    assert len(ws.words) == 1


def test_pp_search_single_word():
    ws = WordSystem(PATH, {frozenset(("b", "c")): [("b", 1), ("c", 1)]})
    cm = pp_search(ws)
    assert cm is not None
    assert cm.assignment[frozenset(("b", "c"))] in ("b", "c")


def test_pp_search_badpp_none():
    ws = WordSystem(F2F2, {
        frozenset("a"): [("a", 1)],
        frozenset("d"): [("d", 1)],
        frozenset(("b", "c")): [("b", 1), ("c", 1)],
    })
    assert pp_search(ws) is None


def test_pp_search_respects_commutation_exactly():
    # words z_T for nested/commuting supports must land on adjacent images
    cx = FlagComplex("xyz", [("x", "y")])
    ws = WordSystem(cx, {
        frozenset("x"): [("x", 1)],
        frozenset(("x", "y")): [("x", 2), ("y", 1)],
        frozenset("z"): [("z", 3)],
    })
    cm = pp_search(ws)
    assert cm is not None
    assert all(
        cx.adjacent(cm.assignment[a], cm.assignment[b]) == ws.commute(a, b)
        for a in ws.words for b in ws.words if a != b
    )
    # on the path x-y-z the same words admit no choice: the image of the
    # pair would have to be y, which is adjacent to the non-commuting z
    cx2 = FlagComplex("xyz", [("x", "y"), ("y", "z")])
    ws2 = WordSystem(cx2, dict(ws.words))
    assert pp_search(ws2) is None


def test_avoidance_stu_remark():
    cx = FlagComplex("stu", [("s", "t"), ("t", "u"), ("s", "u")])
    ws = WordSystem(cx, {
        frozenset("stu"): [("s", 1), ("t", 1), ("u", 1)],
        frozenset(("s", "t")): [("s", 1), ("t", 1)],
    })
    # the words avoid u in the naive sense but condition 2 always fails
    assert all(
        not avoidance_check(ws, "u", cm) for cm in pp_search_all(ws)
    )


def test_avoidance_path_example():
    cx = PATH.full_subcomplex("abc")
    ws = WordSystem(cx, {
        frozenset("a"): [("a", 1)],
        frozenset(("b", "c")): [("b", 1), ("c", 1)],
    })
    cm = ChoiceMap({frozenset("a"): "a", frozenset(("b", "c")): "c"})
    assert avoidance_check(ws, ("b", "c"), cm)
    # if everything lies in L0 the conditions hold vacuously
    assert avoidance_check(ws, "abc", cm)


def test_generalized_pp_path():
    ws = WordSystem(PATH, {
        frozenset("a"): [("a", 1)],
        frozenset("d"): [("d", 1)],
        frozenset(("b", "c")): [("b", 1), ("c", 1)],
    })
    verdict = generalized_pp_check(ws, "abc", "bcd")
    assert verdict.certified
    assert "free of rank 3" in verdict.conclusion


def test_generalized_pp_needs_edge_cover():
    ws = WordSystem(PATH, {frozenset("a"): [("a", 1)]})
    with pytest.raises(RaagError):
        generalized_pp_check(ws, "ab", "cd")  # edge b-c in neither side


def test_koberda_injectivity_after_pp():
    # words {a, bc} on the path satisfy PP; the map z -> w is injective on
    # short words, checked against the RAAG normal form
    cx = PATH.full_subcomplex("abc")
    ws = WordSystem(cx, {
        frozenset("a"): [("a", 1)],
        frozenset(("b", "c")): [("b", 1), ("c", 1)],
    })
    assert pp_search(ws) is not None
    lprime = FlagComplex(["za", "zbc"], [])
    images = {"za": [("a", 1)], "zbc": [("b", 1), ("c", 1)]}
    report = verify_injectivity_bounded(
        lprime, images, lambda w: raag_is_trivial(cx, w), 6,
        commute_check=lambda u, v: raag_commutes(cx, u, v),
    )
    assert report.ok, report.detail


def test_amalgam_membership_by_retraction():
    # L = path a-b-c-d split over {b,c}; the subgroup generated by {a, bc}
    # meets the b,c part exactly in the powers of bc
    cx = PATH
    gens = {"A": [("a", 1)], "M": [("b", 1), ("c", 1)]}
    seen = {}
    for word in enumerate_reduced_words(FlagComplex("AM", []), 4):
        image = []
        for v, e in word:
            img = gens[v]
            if e > 0:
                image.extend(list(img) * e)
            else:
                image.extend([(g, -x) for g, x in reversed(img)] * (-e))
        nf = tuple(raag_normal_form(cx, image))
        support = {v for v, _ in nf}
        if support <= {"b", "c"}:
            # must be a power of bc, i.e. the retraction to {b,c} of some
            # (bc)^k, with matching exponents
            exps = {v: sum(e for u, e in nf if u == v) for v in ("b", "c")}
            assert exps["b"] == exps["c"]
            assert nf == tuple(raag_normal_form(cx, [("b", exps["b"]), ("c", exps["c"])]))


def test_choice_map_json_roundtrip():
    cm = ChoiceMap({frozenset(("b", "c")): "c", frozenset("a"): "a"})
    assert cm.to_json() == {"a": "a", "b+c": "c"}


def test_enumerator_matches_brute_force_element_count():
    # every element of length <= 4 appears exactly once: compare against
    # canonicalizing all raw letter sequences
    from itertools import product

    letters = [(v, e) for v in PATH.vertices for e in (1, -1)]
    brute = set()
    for length in range(1, 5):
        for seq in product(letters, repeat=length):
            nf = tuple(raag_normal_form(PATH, list(seq)))
            if nf and sum(abs(e) for _, e in nf) <= 4:
                brute.add(nf)
    # raw sequences of length 4 cover all elements of length <= 4
    enumerated = {
        tuple(raag_normal_form(PATH, w))
        for w in enumerate_reduced_words(PATH, 4)
    }
    listed = list(enumerate_reduced_words(PATH, 4))
    assert len(listed) == len(enumerated), "enumerator emitted a duplicate"
    assert enumerated == brute


def test_raag_length_is_geodesic_length():
    def length(cx, word):
        return sum(abs(e) for _, e in raag_normal_form(cx, word))

    assert length(PATH, [("a", 2), ("b", 1), ("b", -1), ("a", -2)]) == 0
    assert length(F2F2, [("a", 1), ("b", 1), ("a", -1)]) == 1


def test_injectivity_report_names_least_failing_pair():
    # the images of b,c and c,d fail to commute; a,b comes first but passes
    images = {v: [(v, 1)] for v in "abcd"}
    report = verify_injectivity_bounded(
        PATH, images, lambda w: False, 1,
        commute_check=lambda u, v: {u[0][0], v[0][0]} == {"a", "b"},
    )
    assert not report.ok
    assert report.violation == [("b", 1), ("c", 1)]
    assert report.detail == "images of commuting pair b,c do not commute"


def test_bad_edges_are_rejected():
    with pytest.raises(RaagError, match=r"bad edge \['a'\]"):
        FlagComplex("ab", [("a",), ("a", "zz")])
    with pytest.raises(RaagError, match=r"bad edge \['a', 'zz'\]"):
        FlagComplex("ab", [("a", "b"), ("zz", "a")])
    with pytest.raises(RaagError, match=r"bad edge \['a', 'a'\]"):
        FlagComplex("ab", [("a", "a")])


def test_flag_complex_is_an_immutable_value():
    cx = FlagComplex("abcd", [("c", "b"), ("a", "b"), ("c", "d")])
    assert cx == PATH and hash(cx) == hash(PATH)
    assert cx != F2F2
    assert FlagComplex(PATH.vertices, PATH.edges) == PATH
    assert PATH.edges == {frozenset("ab"), frozenset("bc"), frozenset("cd")}
    with pytest.raises(AttributeError):
        cx.vertices = ("a",)


# -- the adjacency index against networkx ------------------------------------

def _commute_or_nest(labels, s, t):
    """The test's own rule: nested, or disjoint with every cross label 2."""
    return s <= t or t <= s or not s & t and all(
        labels.get(frozenset((x, y)), 2) == 2 for x in s for y in t
    )


def _oracle_graph(name):
    """(complex, vertices, edge pairs), the pairs computed without FlagComplex."""
    from coxart.curves import build_an, build_dn
    from coxart.diagram import type_diagram
    from coxart.nerve import subdivision

    if name.endswith("-curves"):
        system = (build_an if name[0] == "A" else build_dn)(int(name[1:-7]))
        vs = list(system.curves)
        pairs = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]
                 if frozenset((a, b)) not in system.intersections]
        return system.complex, vs, pairs
    diagram = type_diagram(name[0], int(name[1:]))
    sub = subdivision(diagram)
    named = sub.vertex_subsets
    vs = sorted(named)
    pairs = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]
             if _commute_or_nest(diagram.labels, named[a], named[b])]
    return sub.complex, vs, pairs


@pytest.mark.parametrize(
    "name", ("A4", "B3", "D5", "E6", "H4", "A10-curves", "D8-curves"))
def test_flag_complex_matches_networkx(name):
    from itertools import combinations, takewhile

    nx = pytest.importorskip("networkx")
    cx, vs, pairs = _oracle_graph(name)
    graph = nx.Graph()
    graph.add_nodes_from(vs)
    graph.add_edges_from(pairs)
    assert sorted(cx.vertices) == sorted(vs)

    probe = list(cx.vertices) + ["no-such-vertex"]
    for a in probe:
        for b in probe:
            assert cx.adjacent(a, b) == graph.has_edge(a, b), (a, b)
    assert cx.edges == {frozenset(e) for e in graph.edges}

    # every clique of a curve complex is too many; stop at triangles there
    max_size = 3 if name.endswith("-curves") else None
    mine = cx.cliques(max_size)
    assert len(mine) == len(set(mine))
    theirs = takewhile(lambda c: max_size is None or len(c) <= max_size,
                       nx.enumerate_all_cliques(graph))
    assert set(mine) == {frozenset(c) for c in theirs}
    assert all(cx.is_clique(c) for c in mine)

    rng = random.Random(name)
    non_cliques = 0
    for _ in range(300):
        sample = rng.sample(vs, rng.randint(2, 5))
        want = all(graph.has_edge(a, b) for a, b in combinations(sample, 2))
        assert cx.is_clique(sample) == want, sample
        non_cliques += not want
    assert non_cliques > 100

    for _ in range(20):
        keep = rng.sample(vs, rng.randint(0, len(vs)))
        sub = cx.full_subcomplex(keep)
        assert sub.vertices == tuple(v for v in cx.vertices if v in keep)
        assert sub.edges == {frozenset(e) for e in graph.subgraph(keep).edges}


# -- a pin on the normal form ------------------------------------------------
#
# The digest was taken before the adjacency index existed; a later rewrite
# of the normal form must keep it.

NORMAL_FORMS_SHA256 = (
    "3b07271ac1e594ab4651222f93bb3a5e6982806b153db49b36ae62ae922bea92"
)


def _random_word(rng, vertices, syllables):
    word = []
    while len(word) < syllables:
        v = rng.choice(vertices)
        if not word or word[-1][0] != v:
            word.append((v, rng.choice((1, -1, 2, -2))))
    return word


def _disguised(rng, cx, word):
    """The same element: commuting neighbours swapped, and cancelling pairs
    x^e ... x^-e put around runs of letters that commute with x."""
    word = list(word)
    for _ in range(len(word)):
        i = rng.randrange(len(word) - 1)
        if cx.adjacent(word[i][0], word[i + 1][0]):
            word[i], word[i + 1] = word[i + 1], word[i]
    for _ in range(len(word) // 8):
        x, e = rng.choice(cx.vertices), rng.choice((1, -1, 2, -2))
        i = j = rng.randrange(len(word) + 1)
        while j < len(word) and cx.adjacent(word[j][0], x):
            j += 1
        word[j:j] = [(x, -e)]
        word[i:i] = [(x, e)]
    return word


def _normal_forms_digest():
    import hashlib
    import json

    from coxart.diagram import type_diagram
    from coxart.nerve import subdivision

    digest = hashlib.sha256()
    for family, rank in (("A", 7), ("D", 6), ("E", 7)):
        cx = subdivision(type_diagram(family, rank)).complex
        rng = random.Random("nf-pin:%s%d" % (family, rank))
        for _ in range(5):
            word = _random_word(rng, cx.vertices, 400)
            for w in (word, _disguised(rng, cx, word)):
                digest.update(json.dumps(raag_normal_form(cx, w)).encode())
    return digest.hexdigest()


def test_normal_forms_match_pinned_digest():
    assert _normal_forms_digest() == NORMAL_FORMS_SHA256


def _inverted(word, vertices):
    """`word` with every letter of the given vertices inverted."""
    return [(v, -e if v in vertices else e) for v, e in word]


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 5), ("E", 7)])
def test_normal_form_commutes_with_inverting_vertices(family, rank):
    # the symmetry the folding suite's injectivity check rests on
    from coxart.diagram import type_diagram
    from coxart.nerve import subdivision

    cx = subdivision(type_diagram(family, rank)).complex
    rng = random.Random("invert:%s%d" % (family, rank))
    for _ in range(300):
        word = _random_word(rng, cx.vertices, rng.randint(4, 24))
        i = rng.randrange(len(word))
        word = word + _disguised(rng, cx, word) + raag_inverse(word[i:])
        flipped = set(rng.sample(cx.vertices, rng.randint(1, len(cx.vertices))))
        assert raag_normal_form(cx, _inverted(word, flipped)) == \
            _inverted(raag_normal_form(cx, word), flipped), (word, flipped)


# -- vertices kept in sort_key order -----------------------------------------

def _key(v):
    """The test's own copy of the vertex order: short names first."""
    return (len(v), v)


@pytest.mark.parametrize("family,rank", [("A", 4), ("D", 5), ("E", 6)])
def test_shuffled_vertices_give_the_sorted_complex(family, rank):
    from coxart.diagram import type_diagram
    from coxart.nerve import subdivision

    cx = subdivision(type_diagram(family, rank)).complex
    rng = random.Random("shuffle:%s%d" % (family, rank))
    vs = list(cx.vertices)
    rng.shuffle(vs)
    pairs = [p if rng.random() < 0.5 else p[::-1] for p in cx.edge_pairs()]
    rng.shuffle(pairs)
    ordered = FlagComplex(sorted(vs, key=_key), pairs)
    with pytest.raises(RaagError, match="duplicate vertex"):
        FlagComplex(vs + vs[:5], pairs)
    other = FlagComplex(vs, pairs)
    assert other.vertices == ordered.vertices == tuple(sorted(vs, key=_key))
    assert other.neighbours == ordered.neighbours
    assert other == ordered and other.edges == ordered.edges
    assert other.to_json() == ordered.to_json()
    assert other.cliques() == ordered.cliques()
    for _ in range(20):
        word = _random_word(rng, vs, 40)
        assert raag_normal_form(other, word) == raag_normal_form(ordered, word)
    edges = ordered.to_json()["edges"]
    assert edges == sorted((sorted(p, key=_key) for p in pairs),
                           key=lambda p: (_key(p[0]), _key(p[1])))


# -- oracle: the least ordering of the cancelled word, by breadth-first search

def _least_reachable(commute, word):
    """Search every syllable word reachable from `word` by swapping adjacent
    syllables on distinct commuting vertices and merging adjacent syllables
    on one vertex.  Of the shortest words (letters, then syllables), return
    the least in the vertex order, as a list."""
    from collections import deque

    def rank(w):
        return (sum(abs(e) for _, e in w), len(w), [(_key(v), e) for v, e in w])

    start = tuple(word)
    seen, queue, best = {start}, deque([start]), start
    while queue:
        w = queue.popleft()
        if rank(w) < rank(best):
            best = w
        for i in range(len(w) - 1):
            (a, ea), (b, eb) = w[i], w[i + 1]
            if a == b:
                merged = ((a, ea + eb),) if ea + eb else ()
                nxt = w[:i] + merged + w[i + 2:]
            elif commute(a, b):
                nxt = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
            else:
                continue
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return list(best)


def _pairwise_commuting(commute, vertices, rng, size):
    """Up to `size` vertices that commute pairwise, found greedily."""
    pool = list(vertices)
    rng.shuffle(pool)
    clique = []
    for v in pool:
        if len(clique) < size and all(commute(v, u) for u in clique):
            clique.append(v)
    return clique


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4), ("E", 6)])
def test_normal_form_is_least_reachable_ordering(family, rank):
    from coxart.diagram import type_diagram
    from coxart.nerve import subdivision

    diagram = type_diagram(family, rank)
    sub = subdivision(diagram)
    named = sub.vertex_subsets

    def commute(a, b):
        return _commute_or_nest(diagram.labels, named[a], named[b])

    rng = random.Random("least:%s%d" % (family, rank))
    names = sorted(named)
    words = []
    for _ in range(40):  # few letters, so that syllables meet and cancel
        pool = rng.sample(names, rng.randint(2, 4))
        words.append([(rng.choice(pool), rng.choice((1, -1, 2, -2)))
                      for _ in range(rng.randint(0, 8))])
    widest = 0
    for _ in range(6):  # words whose syllables all commute pairwise
        clique = _pairwise_commuting(commute, names, rng, 8)
        widest = max(widest, len(clique))
        words.append([(v, rng.choice((1, -1, 2))) for v in clique])
        words.append([(rng.choice(clique), rng.choice((1, -1, 2)))
                      for _ in range(8)])
    assert widest >= 3
    for word in words:
        assert raag_normal_form(sub.complex, word) == \
            _least_reachable(commute, word), word


def test_validate_choice_names_each_defect():
    cx = FlagComplex("xyz", [("x", "y")])
    ws = WordSystem(cx, {
        frozenset("x"): [("x", 1)],
        frozenset("xy"): [("x", 2), ("y", 1)],
        frozenset("z"): [("z", 3)],
    })
    good = {frozenset("x"): "x", frozenset("xy"): "y", frozenset("z"): "z"}
    assert validate_choice(ws, ChoiceMap(good)) == []
    missing = {s: v for s, v in good.items() if s != frozenset("z")}
    assert validate_choice(ws, ChoiceMap(missing)) == ["no choice for ['z']"]
    outside = dict(good)
    outside[frozenset("z")] = "w"
    assert validate_choice(ws, ChoiceMap(outside)) == [
        "choice for ['z'] is not one of its vertices"]
    reused = dict(good)
    reused[frozenset("xy")] = "x"
    assert validate_choice(ws, ChoiceMap(reused)) == [
        "choice 'x' reused", "pair ['x', 'y'] / ['x'] breaks PP"]
    # on the path a-b-c-d, bc -> b is adjacent to a although z_bc and z_a
    # do not commute
    path = WordSystem(PATH, {frozenset("a"): [("a", 1)], frozenset("d"): [("d", 1)],
                             frozenset("bc"): [("b", 1), ("c", 1)]})
    choice = {frozenset("a"): "a", frozenset("bc"): "b", frozenset("d"): "d"}
    assert validate_choice(path, ChoiceMap(choice)) == ["pair ['b', 'c'] / ['a'] breaks PP"]


def test_injectivity_report_names_a_word_mapped_to_identity():
    # a and b generate F_2, but both go to x: a b^-1 dies
    target = FlagComplex("x", [])
    report = verify_injectivity_bounded(
        FlagComplex("ab", []), {"a": [("x", 1)], "b": [("x", 1)]},
        lambda w: raag_is_trivial(target, w), 2, lambda u, v: True,
    )
    assert not report.ok
    assert report.violation == [("a", 1), ("b", -1)]
    assert report.detail == "nontrivial word maps to identity"
    assert (report.words_checked, report.slow_path_checked) == (3, 3)
