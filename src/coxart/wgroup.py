"""Finite Coxeter groups as permutation groups on their root systems.

Elements are permutations of the root index set; all coordinates are exact
(integers, and Z[phi] as integer pairs for H).  Rank-2 components act on
root rays by closed-form index arithmetic; every other root system is built
from its Cartan matrix in simple-root coordinates.  Either way an
irreducible type contributes only its simple reflections, the indices of
its simple roots and its longest element, kept in a bounded cache; every
other reflection is derived from them by WGroup.reflections().

A group builds one gather per generator (an itemgetter over s_g), so that
w -> w s_g is one C-level call, and, on first use, one gather per ordered
pair of generators (over s_g s_h), so that w -> w s_g s_h is one call too:
at most |S|^2 of them, and nothing is cached per element.  The
greedy word of the longest element of a spherical subset, which spells
Delta_T, is read off the type models with no group built for the subset:
each type and vertex ranking keeps one word in a bounded cache, and each
diagram keeps the merged word of every subset it was asked for in its own
table, which goes with the diagram.
"""

from __future__ import annotations

from functools import cmp_to_key, lru_cache
from heapq import merge
from operator import itemgetter

from .diagram import (
    ComponentType,
    DiagramError,
    finite_type,
    sort_key,
    type_diagram,
)


def phi_mul(x, y):
    """Product of x = a + b*phi and y = c + d*phi in Z[phi], phi^2 = phi + 1,
    each held as the integer pair (a, b)."""
    a, b = x
    c, d = y
    return (a * c + b * d, a * d + b * c + b * d)


def phi_sign(x):
    """Exact sign of a + b*phi, from 2(a + b*phi) = (2a + b) + b*sqrt(5)."""
    a, b = x
    u = 2 * a + b
    if u >= 0 and b >= 0:
        return 1 if u or b else 0
    if u <= 0 and b <= 0:
        return -1
    # opposite signs: the term with the larger square decides
    return (1 if u > 0 else -1) if u * u > 5 * b * b else (1 if b > 0 else -1)


#: Cartan entry <alpha_i, alpha_j^vee> for a label m(i, j) > 2, the nonzero
#: entries off the diagonal; m = 4 gives -2 instead when alpha_j is the short
#: root of the pair
_CARTAN = {3: (-1, 0), 4: (-1, 0), 5: (0, -1)}


def _root_model(family, diagram):
    """Close the simple roots under the simple reflections and return the
    type model (see _type_model) in the vertex order of `diagram`.

    Roots are coefficient tuples in the simple-root basis, read off the
    Cartan matrix of `diagram`; positive roots are sorted lexicographically
    by their exact coefficient values.  Each s_j(root) is recorded as the
    walk meets the root, so the roots are reflected once.
    """
    names = diagram.vertices
    n = len(names)
    # the only per-family data: which simple roots are short
    short = {"B": (n - 1,), "F": (2, 3)}.get(family, ())

    def cartan_column(j):
        """(i, e, phi*e) for the nonzero off-diagonal entries e of column j,
        so that (c + d phi)*e = c*e + d*(phi*e)."""
        out = []
        for i in range(n):
            m = diagram.m(names[i], names[j])
            if m in _CARTAN:
                e = (-2, 0) if m == 4 and j in short else _CARTAN[m]
                out.append((i,) + e + phi_mul((0, 1), e))
        return out

    columns = [cartan_column(j) for j in range(n)]
    simples = [tuple((int(i == j), 0) for i in range(n)) for j in range(n)]
    found = list(simples)
    seen = set(simples)
    images = {}  # positive root -> its images under s_0 .. s_{n-1}
    for root in found:
        images[root] = row = []
        for j, col in enumerate(columns):
            # s_j(root) = root - <root, alpha_j^vee> alpha_j changes only
            # coordinate j; the diagonal entry of the pairing is 2
            a, b = root[j]
            p0, p1 = a + a, b + b
            for i, e0, e1, f0, f1 in col:
                c, d = root[i]
                p0 += c * e0 + d * f0
                p1 += c * e1 + d * f1
            if not (p0 or p1):
                row.append(root)
                continue
            image = root[:j] + ((a - p0, b - p1),) + root[j + 1:]
            row.append(image)
            # positive, since root != alpha_j
            if image not in seen and root != simples[j]:
                seen.add(image)
                found.append(image)
    expected = ComponentType(family, n, names).reflection_count
    assert len(found) == expected, (
        "unexpected root count for %s_%d: %d" % (family, n, len(found))
    )

    # rank the few distinct coefficient values exactly, then sort the roots
    # by their tuples of ranks
    values = sorted({c for root in found for c in root},
                    key=cmp_to_key(lambda x, y: phi_sign((x[0] - y[0], x[1] - y[1]))))
    rank_of = dict(zip(values, range(len(values)))).__getitem__
    positives = sorted(found, key=lambda root: tuple(map(rank_of, root)))
    n_pos = len(positives)
    index = {root: i for i, root in enumerate(positives)}
    alphas = tuple(index[a] for a in simples)
    for j, root in enumerate(simples):
        index[images[root][j]] = n_pos + alphas[j]  # s_j(alpha_j) = -alpha_j
    negate = (*range(n_pos, 2 * n_pos), *range(n_pos))  # root -> -root
    perms = []
    for column in zip(*(images[root] for root in positives)):
        top = tuple(map(index.__getitem__, column))
        perms.append(top + tuple(map(negate.__getitem__, top)))  # s_j(-root) = -s_j(root)

    # w0: multiply by simple reflections that lengthen until none does
    w0 = tuple(range(2 * n_pos))
    lengthen = [(a, itemgetter(*perm)) for a, perm in zip(alphas, perms)]
    while min(w0[:n_pos]) < n_pos:
        for a, times in lengthen:
            if w0[a] < n_pos:
                w0 = times(w0)
    return tuple(perms), alphas, w0


def _dihedral_model(p):
    """I_2(p) on root indices: rays at angle k*pi/p, k mod 2p, positives k < p.
    The simple roots are rays 0 and p - 1; w0 is -1 for even p and the
    reflection j -> 2p - 1 - j across ray (p - 1)/2 for odd p."""
    n = 2 * p
    perms = (tuple((p - j) % n for j in range(n)),
             tuple((p - 2 - j) % n for j in range(n)))
    w0 = tuple(range(p, n)) + tuple(range(p)) if p % 2 == 0 else tuple(range(n - 1, -1, -1))
    return perms, (0, p - 1), w0


@lru_cache(maxsize=32)  # all suites together build 21 distinct types
def _type_model(family, rank, p):
    """One irreducible type on its local root indices (positives
    0..n_pos-1, then their negatives), in the standard vertex order of
    type_diagram: the simple-reflection permutations, the index of each
    simple root, and the longest element."""
    diagram = type_diagram(family, rank, p or None)
    if rank == 2:
        return _dihedral_model(diagram.m(*diagram.vertices))
    return _root_model(family, diagram)


def _greedy_word(inv, steps, n):
    """The greedy smallest-left-descent word of the element w whose inverse
    is `inv`, as the labels of `steps`: (simple-root index, gather of s,
    label) for each generator, smallest first.  g is a left descent of w
    when w^-1 sends alpha_g negative, and peeling s_g off the left of w
    takes w^-1 to w^-1 s_g."""
    out = []
    while True:
        step = next((step for step in steps if inv[step[0]] >= n), None)
        if step is None:
            return out
        out.append(step[2])
        inv = step[1](inv)


@lru_cache(maxsize=128)  # all suites and benchmark rounds together use 32
def _component_longest_word(family, rank, p, ranking):
    """The greedy word of the longest element of one irreducible type, as
    local generator indices, when `ranking` lists the local indices from
    the smallest vertex name to the largest."""
    perms, alphas, w0 = _type_model(family, rank, p)
    steps = [(alphas[i], itemgetter(*perms[i]), i) for i in ranking]
    return tuple(_greedy_word(w0, steps, len(w0) // 2))  # w0 is an involution


def _spherical_components(diagram, subset):
    """The subset in sort_key order and its irreducible components; errors
    unless it is spherical."""
    subset = tuple(sorted(diagram.vertices if subset is None else subset,
                          key=sort_key))
    report = finite_type(diagram, subset)
    if not report.is_spherical:
        raise DiagramError("subset %s is not spherical" % (list(subset),))
    return subset, report.components


def longest_word(diagram, subset):
    """The greedy smallest-left-descent word of the longest element of W_T,
    read off the type models without building W_T.  Its components commute,
    so the greedy word is their greedy words merged by smallest head.  The
    word is derived once per diagram and subset and kept, as a tuple, in the
    diagram's table."""
    key = frozenset(diagram.vertices if subset is None else subset)
    table = diagram._longest_words
    word = table.get(key)
    if word is None:
        words = []
        for c in _spherical_components(diagram, subset)[1]:
            ranking = tuple(sorted(range(c.rank), key=lambda i: sort_key(c.order[i])))
            words.append([c.order[i]
                          for i in _component_longest_word(c.family, c.rank, c.p, ranking)])
        word = table[key] = tuple(merge(*words, key=sort_key))
    return word


class WGroup(object):
    """A finite Coxeter group acting on its root index set.

    Elements are tuples: position i holds the image of root i.  Roots
    0..n_pos-1 are positive; root i + n_pos is the negative of root i.
    """

    def __init__(self, diagram):
        self.gens, components = _spherical_components(diagram, None)
        self.diagram = diagram

        self.n_pos = sum(c.reflection_count for c in components)
        self.size = 2 * self.n_pos
        self.identity = tuple(range(self.size))

        # each component's positive roots follow those of the one before
        self._simple = {}
        self._alpha = {}  # index of the simple root of each generator
        self.w0 = self.identity
        offset = 0
        for c in components:
            perms, alphas, w0 = _type_model(c.family, c.rank, c.p)
            self._simple.update(
                zip(c.order, (self._lift(p, offset, self.identity) for p in perms)))
            self._alpha.update(zip(c.order, (offset + a for a in alphas)))
            self.w0 = self._lift(w0, offset, self.w0)
            offset += c.reflection_count
        #: times[g](w) is w s_g, one gather
        self.times = {g: itemgetter(*s) for g, s in self._simple.items()}
        self._pairs = {}  # (g, h) -> gather of s_g s_h, see pair_times

    # -- basic permutation algebra -------------------------------------

    def _lift(self, local, offset, rest):
        """The permutation acting as the component permutation `local` on the
        component whose positive roots start at `offset`, and as `rest` on
        the other roots."""
        n = len(local) // 2
        if n == self.n_pos:
            return local  # the only component: local indices are global
        ident = self.identity
        # global index of each local root: positives, then their negatives
        neg = self.n_pos + offset
        where = ident[offset:offset + n] + ident[neg:neg + n]
        full = list(rest)
        for j, img in zip(where, local):
            full[j] = where[img]
        return tuple(full)

    def compose(self, u, v):
        """u then-after v, i.e. the element acting by r -> u(v(r))."""
        # one C-level gather; itemgetter() of no index raises, hence the guard
        return itemgetter(*v)(u) if v else ()

    def pair_times(self, g, h):
        """The gather of s_g s_h: pair_times(g, h)(w) is w s_g s_h, one
        C-level call.  Built on first use and kept, at most one per ordered
        pair of generators."""
        step = self._pairs.get((g, h))
        if step is None:
            s_g = self._simple[g]
            step = self._pairs[g, h] = itemgetter(*map(s_g.__getitem__, self._simple[h]))
        return step

    def inverse(self, w):
        inv = [0] * self.size
        for i, image in enumerate(w):
            inv[image] = i
        return tuple(inv)

    def simple(self, g):
        return self._simple[g]

    def alpha_index(self, g):
        return self._alpha[g]

    def length(self, w):
        n = self.n_pos
        return sum(1 for i in range(n) if w[i] >= n)

    def word_to_element(self, word):
        """Product of simple reflections, letters applied left to right."""
        w = self.identity
        times = self.times
        for g in word:
            step = times.get(g)
            if step is None:
                raise DiagramError("unknown generator %r" % (g,))
            w = step(w)
        return w

    def reduced_word(self, w):
        """A reduced word for w, greedy on smallest left descent.

        In a group of rank 2 that word is the alternating word of length
        l(w) that starts at the smallest left descent of w: every other
        element has one reduced word, and w0, whose left descents are both
        generators, continues alternating after the first.  A left descent
        g is found as alpha_g among the images of the negative roots.
        """
        n = self.n_pos
        gens = self.gens
        if len(gens) == 2:
            length = self.length(w)
            first = 0 if self._alpha[gens[0]] in w[n:] else 1
            return tuple(gens[(first + i) % 2] for i in range(length))
        steps = [(self._alpha[g], self.times[g], g) for g in gens]
        return tuple(_greedy_word(self.inverse(w), steps, n))

    def reflections(self):
        """Reflection permutations indexed by the positive root they negate,
        derived on each call: start from the simple reflections and walk the
        positive roots, s_{s_g(beta)} = s_g s_beta s_g."""
        n = self.n_pos
        table = [None] * n
        for g, r in self._alpha.items():
            table[r] = self._simple[g]
        frontier = list(self._alpha.values())
        for r in frontier:
            for s in self._simple.values():
                q = s[r]
                if q < n and table[q] is None:
                    table[q] = self.compose(s, self.compose(table[r], s))
                    frontier.append(q)
        return table


def build_group(diagram):
    """WGroup for a spherical diagram; errors otherwise."""
    return WGroup(diagram)
