"""Independent checks on coxart's outputs.

Nothing here imports coxart: every expected value comes from the
benchmark's own diagram tables, from networkx and sympy, or from a property
that the mathematics requires of the answer.  A checker returns a list of
defect strings; an empty list means the output passed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

#: Coxeter diagrams by their coxeter names: vertices and the labels m >= 3
#: (every missing pair has m = 2).  The naming follows `type_diagram`.
DIAGRAMS = {
    "I2(3)": (("s1", "s2"), {("s1", "s2"): 3}),
    "I2(4)": (("s1", "s2"), {("s1", "s2"): 4}),
    "I2(5)": (("s1", "s2"), {("s1", "s2"): 5}),
    "I2(6)": (("s1", "s2"), {("s1", "s2"): 6}),
    "B3": (("s1", "s2", "s3"), {("s1", "s2"): 3, ("s2", "s3"): 4}),
    "H3": (("s1", "s2", "s3"), {("s1", "s2"): 5, ("s2", "s3"): 3}),
    "F4": (("s1", "s2", "s3", "s4"),
           {("s1", "s2"): 3, ("s2", "s3"): 4, ("s3", "s4"): 3}),
    "H4": (("s1", "s2", "s3", "s4"),
           {("s1", "s2"): 5, ("s2", "s3"): 3, ("s3", "s4"): 3}),
    "A7": (("s1", "s2", "s3", "s4", "s5", "s6", "s7"),
           {("s1", "s2"): 3, ("s2", "s3"): 3, ("s3", "s4"): 3, ("s4", "s5"): 3,
            ("s5", "s6"): 3, ("s6", "s7"): 3}),
    "D6": (("s1", "s2", "s3", "s4", "s5", "s6"),
           {("s1", "s2"): 3, ("s2", "s3"): 3, ("s3", "s4"): 3, ("s4", "s5"): 3,
            ("s4", "s6"): 3}),
    "E7": (("s1", "s2", "s3", "s4", "s5", "s6", "s7"),
           {("s1", "s2"): 3, ("s2", "s3"): 3, ("s3", "s4"): 3, ("s4", "s5"): 3,
            ("s5", "s6"): 3, ("s3", "s7"): 3}),
    "E8": (("s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8"),
           {("s1", "s2"): 3, ("s2", "s3"): 3, ("s3", "s4"): 3, ("s4", "s5"): 3,
            ("s5", "s6"): 3, ("s6", "s7"): 3, ("s3", "s8"): 3}),
}

#: Coxeter numbers of the fold sources
FOLD_SOURCE_H = {"I2(3)": 3, "I2(4)": 4, "I2(5)": 5, "I2(6)": 6,
                 "B3": 6, "H3": 10, "F4": 12, "H4": 30}

#: positive-root counts of the non-crystallographic types, which sympy lacks
_H_POSITIVE_ROOTS = {2: 5, 3: 15, 4: 60}


def label(labels, a, b):
    """m(a, b) from a label table that lists only the pairs with m >= 3."""
    return labels.get((a, b), labels.get((b, a), 2))


def connected_subsets(vertices, labels):
    """Every nonempty vertex set that is connected by edges with m >= 3.

    On a finite-type diagram these are exactly the irreducible spherical
    subsets.
    """
    out = []
    for k in range(1, len(vertices) + 1):
        for subset in combinations(vertices, k):
            seen = {subset[0]}
            todo = [subset[0]]
            while todo:
                v = todo.pop()
                for u in subset:
                    if u not in seen and label(labels, u, v) >= 3:
                        seen.add(u)
                        todo.append(u)
            if len(seen) == k:
                out.append(frozenset(subset))
    return out


def commutes_rule(labels, subset, s):
    """Delta_T^2 commutes with x_s exactly when s is in T or every label
    between s and T is 2."""
    return s in subset or all(label(labels, s, t) == 2 for t in subset)


def subdivision_graph(vertices, labels):
    """networkx graph of the partial barycentric subdivision of a
    finite-type diagram: irreducible spherical subsets, joined when nested
    or when they are disjoint with every cross label 2."""
    import networkx as nx

    graph = nx.Graph()
    subsets = connected_subsets(vertices, labels)
    graph.add_nodes_from(subsets)
    for a, b in combinations(subsets, 2):
        if a <= b or b <= a or (
            not a & b and all(label(labels, x, y) == 2 for x in a for y in b)
        ):
            graph.add_edge(a, b)
    return graph


def clique_polynomial(graph):
    """Coefficients [1, c_1, c_2, ...]: c_k counts the k-cliques."""
    import networkx as nx

    coeffs = [1]
    for clique in nx.enumerate_all_cliques(graph):
        while len(coeffs) <= len(clique):
            coeffs.append(0)
        coeffs[len(clique)] += 1
    return coeffs


def growth_count(clique_coeffs, max_len):
    """Number of nontrivial RAAG elements of word length <= max_len.

    The spherical growth series of the RAAG is 1/C(-2t/(1+t)), with C the
    clique polynomial; the sum of its coefficients of t^1..t^max_len is the
    count.  Exact integer power series, truncated at t^max_len.
    """
    n = max_len + 1

    def mul(p, q):
        out = [0] * n
        for i, a in enumerate(p):
            if a:
                for j, b in enumerate(q[: n - i]):
                    out[i + j] += a * b
        return out

    # x = -2t/(1+t) = sum_{k>=1} -2 (-1)^(k-1) t^k
    x = [0] + [-2 * (-1) ** (k - 1) for k in range(1, n)]
    c_of_x = [0] * n
    power = [1] + [0] * (n - 1)
    for c in clique_coeffs:
        c_of_x = [a + c * b for a, b in zip(c_of_x, power)]
        power = mul(power, x)
    # invert the series c_of_x, whose constant term is 1
    inv = [Fraction(0)] * n
    inv[0] = Fraction(1, c_of_x[0])
    for k in range(1, n):
        inv[k] = -sum(c_of_x[j] * inv[k - j] for j in range(1, k + 1)) / c_of_x[0]
    assert all(a.denominator == 1 for a in inv)
    return int(sum(inv[1:]))


def positive_root_count(family, rank, p=None):
    """|Phi+| from sympy.liealgebras for A-G; known values for H and I."""
    if family == "I":
        return p
    if family == "H":
        return _H_POSITIVE_ROOTS[rank]
    from sympy.liealgebras.cartan_type import CartanType

    return len(CartanType("%s%d" % (family, rank)).positive_roots())


def root_count_defects(family, rank, p, n_pos):
    """2 * n_pos must equal the number of roots of the type."""
    want = 2 * positive_root_count(family, rank, p)
    if 2 * n_pos != want:
        return ["%s%d%s has %d roots, expected %d" % (
            family, rank, "(%d)" % p if p else "", 2 * n_pos, want)]
    return []


def classify(subset, labels):
    """(family, rank, p) of a connected subset of a tree diagram whose
    labels are 3 and at most one 5 at an end, as in E_n and H_n."""
    k = len(subset)
    marks = sorted(label(labels, a, b) for a, b in combinations(subset, 2)
                   if label(labels, a, b) >= 3)
    if 5 in marks:
        return ("I", 2, 5) if k == 2 else ("H", k, None)
    degree = {v: sum(1 for u in subset if label(labels, u, v) >= 3) for v in subset}
    branch = [v for v in subset if degree[v] == 3]
    if not branch:
        return ("A", k, None)
    # arm lengths from the branch vertex
    centre = branch[0]
    arms = []
    for start in subset:
        if label(labels, centre, start) < 3:
            continue
        length, prev, cur = 1, centre, start
        while True:
            nxt = [u for u in subset if u not in (prev, cur)
                   and label(labels, cur, u) >= 3]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return ("D", k, None)
    return ("E", k, None)


def coxeter_number_of_tag(tag):
    """h of an irreducible crystallographic type written like 'E_6'."""
    family, rank = tag.split("_")
    rank = int(rank)
    return {"A": rank + 1, "D": 2 * rank - 2}.get(
        family, {"E6": 12, "E7": 18, "E8": 30}.get(family + str(rank)))


def pp_defects(simplices, adjacent, choice):
    """Property PP of a choice map, from its definition.

    `simplices` are frozensets of vertices (each the support of a word that
    is a product of commuting generators); `adjacent(a, b)` is the complex's
    edge relation; `choice` maps each simplex to a vertex.  Two such words
    commute exactly when every vertex of one difference is adjacent to every
    vertex of the other (the retraction onto a non-adjacent pair is free).
    The map must be injective, pick a vertex of each simplex, and send
    commuting words, and only those, to adjacent vertices.
    """
    defects = []
    used = {}
    for s in simplices:
        v = choice.get(s)
        if v not in s:
            defects.append("choice %r for %s is not in the simplex" % (v, sorted(s)))
        if v in used:
            defects.append("simplices %s and %s both choose %r"
                           % (sorted(used[v]), sorted(s), v))
        used[v] = s
    for a, b in combinations(simplices, 2):
        commute = all(adjacent(x, y) for x in a - b for y in b - a)
        va, vb = choice.get(a), choice.get(b)
        if va != vb and commute != adjacent(va, vb):
            defects.append("%s / %s: words %s but choices %s" % (
                sorted(a), sorted(b), "commute" if commute else "do not commute",
                "adjacent" if adjacent(va, vb) else "not adjacent"))
    return defects


def avoidance_defects(simplices, l0, choice):
    """A choice avoids L0: a simplex not inside L0 chooses a vertex outside
    L0 that lies in no other simplex."""
    defects = []
    for s in simplices:
        if s <= l0:
            continue
        v = choice.get(s)
        if v in l0 or any(t != s and v in t for t in simplices):
            defects.append("choice %r for %s does not avoid L0" % (v, sorted(s)))
    return defects


def free_reduce(letters):
    out = []
    for v, e in letters:
        if out and out[-1][0] == v:
            e += out.pop()[1]
        if e:
            out.append((v, e))
    return out


def vertex_order(name):
    """The order of coxart's canonical RAAG forms: shorter names first,
    then alphabetical."""
    return (len(name), name)


def raag_defects(adjacent, word, nf):
    """A RAAG normal form must be reduced, canonical and represent the
    input word.

    Reduced: no zero exponent, and no two syllables of one vertex with only
    letters commuting with it in between.  Canonical: it is the
    lexicographically least of its shuffles, i.e. no syllable commutes past
    a run of commuting letters to overtake a larger vertex (the
    Anisimov-Knuth characterisation of lexicographic normal forms).  Same
    element: equal exponent sums and, for every non-adjacent pair {a, b},
    equal free reductions of the retractions onto the free group F(a, b).
    Swapping two adjacent syllables of non-adjacent vertices always changes
    such a retraction.
    """
    defects = []
    for i, (v, e) in enumerate(nf):
        if not e:
            defects.append("zero exponent at syllable %d" % i)
        for j in range(i + 1, len(nf)):
            u = nf[j][0]
            if u == v:
                defects.append("syllables %d and %d of %r cancel or merge" % (i, j, v))
                break
            if not adjacent(u, v):
                break
        for j in range(i - 1, -1, -1):
            u = nf[j][0]
            if u == v or not adjacent(u, v):
                break
            if vertex_order(u) > vertex_order(v):
                defects.append("syllable %d (%r) can move before %r: not the least shuffle"
                               % (i, v, u))
                break
    positions = {}
    for i, (v, _) in enumerate(word):
        positions.setdefault(v, []).append(i)
    nf_positions = {}
    for i, (v, _) in enumerate(nf):
        nf_positions.setdefault(v, []).append(i)
    verts = sorted(set(positions) | set(nf_positions))
    for v in verts:
        s_in = sum(word[i][1] for i in positions.get(v, ()))
        s_out = sum(nf[i][1] for i in nf_positions.get(v, ()))
        if s_in != s_out:
            defects.append("exponent sum of %r: %d in, %d out" % (v, s_in, s_out))
    for a, b in combinations(verts, 2):
        if adjacent(a, b):
            continue
        p_in = free_reduce(word[i] for i in sorted(positions.get(a, []) + positions.get(b, [])))
        p_out = free_reduce(nf[i] for i in sorted(nf_positions.get(a, []) + nf_positions.get(b, [])))
        if p_in != p_out:
            defects.append("retraction onto {%s, %s} differs" % (a, b))
    return defects
