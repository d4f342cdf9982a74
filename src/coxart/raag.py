"""Right-angled Artin groups on flag complexes: normal form, word problem,
Property PP search, avoidance and the generalized ping-pong certificate.

Words are syllable lists [(vertex, exponent)].  A complex keeps its vertices
in `sort_key` order, so a vertex's position is its rank.  The canonical form
is the shuffle of the fully reduced word that is least in vertex position,
so equality of group elements is equality of canonical forms.
"""

from __future__ import annotations

import heapq
from collections import namedtuple

from .diagram import FrozenRecord, check_names, sort_key, subset_key, subset_name


class RaagError(ValueError):
    pass


def bit_positions(mask):
    """Positions of the set bits of a nonnegative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FlagComplex(FrozenRecord):
    """A flag simplicial complex, stored as its graph (simplices = cliques).

    `vertices` are kept in `sort_key` order; `neighbours[i]` is the bitmask
    of the vertices adjacent to `vertices[i]`, bit j standing for
    `vertices[j]`; `edges` is derived from it on demand.  `_index` maps each
    vertex to its position.
    """

    _fields = ("vertices", "neighbours")

    def __init__(self, vertices, edges):
        """`edges` is an iterable of 2-element collections of vertices."""
        vertices = tuple(sorted(vertices, key=sort_key))
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise RaagError("duplicate vertex in %r" % (vertices,))
        nbrs = [0] * len(vertices)
        for e in edges:
            try:
                i, j = (index[v] for v in e)
            except (KeyError, TypeError, ValueError):
                i = j = None
            if i == j:  # a malformed edge or a loop
                raise RaagError("bad edge %r" % (sorted(e, key=repr),))
            nbrs[i] |= 1 << j
            nbrs[j] |= 1 << i
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "neighbours", tuple(nbrs))
        object.__setattr__(self, "_index", index)

    @property
    def edges(self):
        """The edge set, as a frozenset of 2-element frozensets."""
        return frozenset(frozenset(p) for p in self.edge_pairs())

    def edge_pairs(self):
        """Every edge once, as (a, b) with a before b, in vertex order."""
        vs = self.vertices
        for i, m in enumerate(self.neighbours):
            for j in bit_positions(m & -(2 << i)):  # the neighbours after i
                yield vs[i], vs[j]

    def __contains__(self, v):
        return v in self._index

    def adjacent(self, a, b):
        index = self._index
        try:
            return self.neighbours[index[a]] >> index[b] & 1 == 1
        except KeyError:  # an unknown vertex
            return False

    def is_clique(self, vs):
        ids = [self._index.get(v) for v in vs]
        if len(ids) < 2:
            return True
        if None in ids:
            return False
        mask = 0
        for i in ids:
            mask |= 1 << i
        if mask.bit_count() != len(ids):  # a repeated vertex
            return False
        return all((self.neighbours[i] | 1 << i) & mask == mask for i in ids)

    def vertex_set(self, vs):
        """`vs` as a set; RaagError unless each is a vertex."""
        vs = set(vs)
        unknown = vs - self._index.keys()
        if unknown:
            raise RaagError("unknown vertices %s" % sorted(unknown))
        return vs

    def full_subcomplex(self, keep):
        keep = self.vertex_set(keep)
        vs = self.vertices
        kept = [i for i, v in enumerate(vs) if v in keep]
        mask = sum(1 << i for i in kept)
        return FlagComplex(
            [vs[i] for i in kept],
            ((vs[i], vs[j]) for i in kept
             for j in bit_positions(self.neighbours[i] & mask & -(2 << i))),
        )

    def cliques(self, max_size=None):
        """All nonempty cliques, smallest-vertex-first enumeration order."""
        vs, nbrs = self.vertices, self.neighbours
        out = []

        def grow(base, candidates):
            for i in bit_positions(candidates):
                cur = base + [vs[i]]
                out.append(frozenset(cur))
                if max_size is None or len(cur) < max_size:
                    grow(cur, candidates & nbrs[i] & -(2 << i))

        grow([], (1 << len(vs)) - 1)
        return out

    def to_json(self):
        return {
            "vertices": list(self.vertices),
            "edges": [list(p) for p in self.edge_pairs()],
        }

    def to_dot(self, name="complex"):
        lines = ["graph %s {" % name]
        for v in self.vertices:
            lines.append('  "%s";' % v)
        for a, b in self.edge_pairs():
            lines.append('  "%s" -- "%s";' % (a, b))
        lines.append("}")
        return "\n".join(lines)


def complex_from_json(doc):
    """The complex of {"vertices": [name, ...], "edges": [[a, b], ...]}."""
    if not isinstance(doc, dict):
        raise RaagError("a complex must be a JSON object")
    vertices, edges = doc.get("vertices"), doc.get("edges")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise RaagError("'vertices' must be a list of strings")
    if not isinstance(edges, list):
        raise RaagError("'edges' must be a list of vertex pairs")
    for e in edges:
        if not isinstance(e, list) or len(e) != 2 or not all(isinstance(v, str) for v in e):
            raise RaagError("bad edge %r" % (e,))
    check_names(vertices, RaagError)  # pp-check keys join vertex names
    return FlagComplex(vertices, [tuple(e) for e in edges])


# -- words -------------------------------------------------------------------
#
# Artin words and RAAG words are both syllable lists [(generator, exponent)];
# these helpers serve both.

def normalize_syllables(word):
    """Merge adjacent equal generators, drop zero exponents.  A syllable
    tuple that passes through unchanged is kept, not copied, so a normal
    form shares its syllables with the word it was read from."""
    out = []
    for syl in word:
        v, e = syl
        if e == 0:
            continue
        if out and out[-1][0] == v:
            m = out[-1][1] + e
            out.pop()
            if m:
                out.append((v, m))
        else:
            out.append(syl if type(syl) is tuple else (v, e))
    return out


def raag_inverse(word):
    return [(v, -e) for v, e in reversed(word)]


def raag_commutator(w1, w2):
    return list(w1) + list(w2) + raag_inverse(w1) + raag_inverse(w2)


def substitute(images, word):
    """The homomorphism given by one image word per letter: x^e -> images[x]^e."""
    out = []
    for v, e in word:
        image = images[v] if e > 0 else raag_inverse(images[v])
        out.extend(list(image) * abs(e))
    return out


def _check_letters(complex_, word):
    index = complex_._index
    for v, _ in word:
        if v not in index:
            raise RaagError("unknown vertex %r" % (v,))


def raag_normal_form(complex_, word):
    """Canonical shortest representative of a RAAG word.

    Cancels syllables separated by commuting letters, then emits the
    lexicographically least ordering reachable by commutation moves.
    Inverting every letter of a set of vertices commutes with it: the
    normal form of the inverted word is the inverted normal form.
    """
    _check_letters(complex_, word)
    sylls = normalize_syllables(word)

    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(sylls):
            v = sylls[i][0]
            j = i + 1
            while j < len(sylls):
                u = sylls[j][0]
                if u == v:
                    merged = sylls[i][1] + sylls[j][1]
                    del sylls[j]
                    if merged:
                        sylls[i] = (v, merged)
                    else:
                        del sylls[i]
                    changed = True
                    break
                if not complex_.adjacent(u, v):
                    break
                j += 1
            if changed:
                break
            i += 1

    # greedy least-vertex linearization of the syllable dependency order
    n = len(sylls)
    idx = list(range(n))  # shared ints, so the lists below hold pointers only
    preds = [0] * n
    succs = [[] for _ in range(n)]
    for i in range(n):
        for j in idx[i + 1:]:
            if sylls[i][0] == sylls[j][0] or not complex_.adjacent(sylls[i][0], sylls[j][0]):
                preds[j] += 1
                succs[i].append(j)
    pos = [complex_._index[v] for v, _ in sylls]
    ready = [(pos[i], i) for i in range(n) if preds[i] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        i = heapq.heappop(ready)[1]
        out.append(sylls[i])
        for j in succs[i]:
            preds[j] -= 1
            if preds[j] == 0:
                heapq.heappush(ready, (pos[j], j))
    return out


def raag_equals(complex_, w1, w2):
    return raag_normal_form(complex_, w1) == raag_normal_form(complex_, w2)


def raag_is_trivial(complex_, word):
    return not raag_normal_form(complex_, word)


def raag_commutes(complex_, w1, w2):
    return raag_equals(complex_, list(w1) + list(w2), list(w2) + list(w1))


def retraction(complex_, keep, word):
    """Kill the letters outside `keep`; a retraction onto a full subcomplex."""
    keep = complex_.vertex_set(keep)
    _check_letters(complex_, word)
    return normalize_syllables([(v, e) for v, e in word if v in keep])


def enumerate_reduced_words(complex_, max_len, skip_cyclically_reducible=False):
    """Yield every nontrivial element of length <= max_len exactly once,
    as its canonical syllable form.

    Generates only lexicographic normal forms: a syllable may be appended
    when no commuting-past earlier syllable has the same vertex (reduced)
    or a larger vertex (canonical).  Prefixes of canonical words are
    canonical, so the search tree has no dead duplicates.
    """
    verts, nbrs = complex_.vertices, complex_.neighbours
    # The vertices that may follow a word, as a mask: after a syllable on
    # vertex i, those not adjacent to it (free[i]), and those adjacent to it,
    # after it, that the word before it allowed (keep[i]).
    every = (1 << len(verts)) - 1
    free = [every & ~(m | 1 << i) for i, m in enumerate(nbrs)]
    keep = [m & -(2 << i) for i, m in enumerate(nbrs)]

    def rec(word, used, allowed):
        for i in bit_positions(allowed):
            v = verts[i]
            after = free[i] | allowed & keep[i]
            for mag in range(1, max_len - used + 1):
                for e in (mag, -mag):
                    word.append((v, e))
                    # x^a u x^b, a and b of opposite signs, is conjugate to a shorter word
                    if not (skip_cyclically_reducible and used and word[0][0] == v
                            and (word[0][1] > 0) != (e > 0)):
                        yield list(word)
                    if used + mag < max_len:
                        yield from rec(word, used + mag, after)
                    word.pop()

    yield from rec([], 0, every)


# -- word systems and Property PP --------------------------------------------

class WordSystem(object):
    """Words w_sigma attached to simplices of a flag complex.

    Each nontrivial word uses a nontrivial power of every vertex of its
    simplex, with all exponents of one sign.  `words` maps each frozenset
    simplex to its syllable list, nontrivial entries only.
    """

    def __init__(self, complex, words):
        self.complex = complex
        clean = {}
        for simplex, word in words.items():
            simplex = frozenset(simplex)
            word = normalize_syllables(word)
            if not word:
                continue
            if not all(v in complex for v in simplex):
                raise RaagError("simplex %s not in complex" % sorted(simplex))
            if not complex.is_clique(simplex):
                raise RaagError("%s is not a simplex" % sorted(simplex))
            support = {v for v, _ in word}
            if support != simplex:
                raise RaagError(
                    "word on %s must use every vertex" % sorted(simplex)
                )
            signs = {e > 0 for _, e in word}
            if len(signs) != 1:
                raise RaagError(
                    "word on %s must have all positive or all negative powers"
                    % sorted(simplex)
                )
            clean[simplex] = word
        self.words = clean

    def simplices(self):
        return sorted(self.words, key=subset_key)

    def commute(self, s1, s2):
        """w_s1 and w_s2 commute iff s1 * s2 is a simplex."""
        return self.complex.is_clique(s1 | s2)

    def restricted(self, keep_vertices):
        keep = set(keep_vertices)
        return WordSystem(
            self.complex.full_subcomplex(keep),
            {s: w for s, w in self.words.items() if s <= keep},
        )


class ChoiceMap(namedtuple("ChoiceMap", "assignment")):
    """A Property PP witness: simplex -> representative vertex."""

    __slots__ = ()

    def to_json(self):
        # sorted although JSON output sorts its keys: pp-check prints the
        # dict's repr in text mode
        return {subset_name(s): v for s, v in sorted(
            self.assignment.items(), key=lambda kv: sorted(map(sort_key, kv[0])))}


def _pp_consistent(system, sims, chosen, i):
    """Chosen vertices so far must reproduce commutation exactly."""
    a = sims[i]
    va = chosen[a]
    for j in range(i):
        b = sims[j]
        vb = chosen[b]
        if va == vb:
            return False
        commute = system.commute(a, b)
        if commute != system.complex.adjacent(va, vb):
            return False
    return True


def pp_search_all(system):
    """Yield every valid Property PP choice map (exhaustive backtracking),
    trying the simplices that commute with the most others first."""
    sims = system.simplices()
    deg = {a: sum(1 for b in sims if b != a and system.commute(a, b))
           for a in sims}
    sims = sorted(sims, key=lambda s: (-deg[s], sorted(map(sort_key, s))))
    chosen = {}

    def rec(i):
        if i == len(sims):
            yield ChoiceMap(dict(chosen))
            return
        simplex = sims[i]
        for v in sorted(simplex, key=sort_key):
            chosen[simplex] = v
            if _pp_consistent(system, sims, chosen, i):
                yield from rec(i + 1)
            del chosen[simplex]

    yield from rec(0)


def pp_search(system):
    """First Property PP choice map, or None when none exists."""
    for cm in pp_search_all(system):
        return cm
    return None


def validate_choice(system, choice):
    """Check a candidate map satisfies Property PP; returns list of defects."""
    sims = system.simplices()
    defects = []
    for s in sims:
        v = choice.assignment.get(s)
        if v is None:
            defects.append("no choice for %s" % sorted(s))
        elif v not in s:
            defects.append("choice for %s is not one of its vertices" % sorted(s))
    seen = {}
    for s in sims:
        v = choice.assignment.get(s)
        if v in seen:
            defects.append("choice %r reused" % (v,))
        seen[v] = s
    for i, a in enumerate(sims):
        for b in sims[:i]:
            va, vb = choice.assignment.get(a), choice.assignment.get(b)
            if va is None or vb is None:
                continue
            if system.commute(a, b) != system.complex.adjacent(va, vb):
                defects.append(
                    "pair %s / %s breaks PP" % (sorted(a), sorted(b))
                )
    return defects


def avoidance_check(system, l0_vertices, choice):
    """Both conditions for the choice map to avoid the subcomplex on l0."""
    l0 = system.complex.vertex_set(l0_vertices)
    sims = system.simplices()
    for s in sims:
        if s <= l0:
            continue
        v = choice.assignment[s]
        if v in l0:
            return False
        for t in sims:
            if t != s and v in t:
                return False
    return True


#: `split` is (choice1, choice2) for a certified split
PPVerdict = namedtuple("PPVerdict", "certified reason split conclusion",
                       defaults=(None, ""))


def _describe_subgroup(system):
    """The shape of the RAAG on L': one vertex per word, joined where the
    words commute."""
    sims = system.simplices()
    n = len(sims)
    m = sum(1 for i, a in enumerate(sims) for b in sims[:i] if system.commute(a, b))
    if m == 0:
        shape = "free of rank %d" % n
    elif m == n * (n - 1) // 2:
        shape = "free abelian of rank %d" % n
    else:
        shape = "RAAG on %d vertices and %d edges" % (n, m)
    return "subgroup generated by the words is %s" % shape


def generalized_pp_check(system, l1_vertices, l2_vertices):
    """Certify the generalized ping-pong condition over L = L1 union L2.

    Requires every edge of L to lie in L1 or L2; searches all PP choices
    per side for one avoiding L0 = L1 cap L2.
    """
    l1, l2 = set(l1_vertices), set(l2_vertices)
    if l1 | l2 != system.complex._index.keys():
        raise RaagError("L1 and L2 must cover the vertex set")
    for a, b in system.complex.edge_pairs():
        if not (a in l1 and b in l1 or a in l2 and b in l2):
            raise RaagError("edge %s lies in neither part" % [a, b])
    l0 = l1 & l2

    sides = []
    for li in (l1, l2):
        sub = system.restricted(li)
        found = None
        for cm in pp_search_all(sub):
            if avoidance_check(sub, l0 & li, cm):
                found = cm
                break
        if found is None:
            return PPVerdict(
                False,
                "no PP choice avoiding the intersection on side %s"
                % sorted(li, key=sort_key),
            )
        sides.append(found)
    return PPVerdict(
        True,
        "each side satisfies PP avoiding the intersection",
        split=tuple(sides),
        conclusion=_describe_subgroup(system),
    )


# -- bounded injectivity certificates ----------------------------------------

InjectivityReport = namedtuple(
    "InjectivityReport", "ok words_checked slow_path_checked violation detail")


def verify_injectivity_bounded(
    complex_, images, target_is_trivial, max_len, commute_check,
    abelian_certificate=None,
):
    """Certify no nontrivial word of length <= max_len dies in the target.

    `images` maps each vertex to a target word; `target_is_trivial` decides
    triviality of a substituted word.  `commute_check(w1, w2)` is used first
    on every commuting generator pair (the homomorphism precondition).
    When `abelian_certificate` is true, words with a nonzero exponent-sum
    vector are accepted without calling the target: the generator images
    were proven independent in the target's abelianization.
    """
    missing = [v for v in complex_.vertices if v not in images]
    if missing:
        raise RaagError("no image for vertices %s" % missing)
    for a, b in complex_.edge_pairs():
        if not commute_check(images[a], images[b]):
            return InjectivityReport(
                False, 0, 0, [(a, 1), (b, 1)],
                "images of commuting pair %s,%s do not commute" % (a, b),
            )

    checked = 0
    slow = 0
    for word in enumerate_reduced_words(
        complex_, max_len, skip_cyclically_reducible=True
    ):
        checked += 1
        if abelian_certificate:
            sums = {}
            for v, e in word:
                sums[v] = sums.get(v, 0) + e
            if any(sums.values()):
                continue
        slow += 1
        if target_is_trivial(substitute(images, word)):
            return InjectivityReport(
                False, checked, slow, word, "nontrivial word maps to identity"
            )
    return InjectivityReport(True, checked, slow, None, "no violation")
