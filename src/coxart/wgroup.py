"""Finite Coxeter groups as permutation groups on their root systems.

Elements are permutations of the root index set; all coordinates are exact
(integers, and Z[phi] as integer pairs for H).  Rank-2 components act on
root rays by closed-form index arithmetic; every other root system is built
from its Cartan matrix in simple-root coordinates.  Either way an
irreducible type contributes only its simple reflections, kept in a bounded
cache; every other reflection is derived from them by WGroup.reflections().
"""

from __future__ import annotations

from functools import cmp_to_key, lru_cache
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


def _lex_compare(r, s):
    """Exact lexicographic comparison of two Z[phi] coefficient tuples."""
    for (a, b), (c, d) in zip(r, s):
        sign = phi_sign((a - c, b - d))
        if sign:
            return sign
    return 0


#: Cartan entry <alpha_i, alpha_j^vee> for the label m(i, j); m = 4 gives -2
#: instead when alpha_j is the short root of the pair
_CARTAN = {1: (2, 0), 2: (0, 0), 3: (-1, 0), 4: (-1, 0), 5: (0, -1)}


def _root_model(family, diagram):
    """Close the simple roots under the simple reflections and return the
    simple-reflection permutations, in the vertex order of `diagram`.

    Roots are coefficient tuples in the simple-root basis, read off the
    Cartan matrix of `diagram`; positive roots are sorted lexicographically
    by their coefficients.
    """
    names = diagram.vertices
    n = len(names)
    # the only per-family data: which simple roots are short
    short = {"B": (n - 1,), "F": (2, 3)}.get(family, ())

    def entry(i, j):
        m = diagram.m(names[i], names[j])
        return (-2, 0) if m == 4 and j in short else _CARTAN[m]

    cartan = [[entry(i, j) for j in range(n)] for i in range(n)]

    def reflect(j, root):
        """s_j(root) = root - <root, alpha_j^vee> alpha_j."""
        c0 = c1 = 0
        for i, x in enumerate(root):
            p0, p1 = phi_mul(x, cartan[i][j])
            c0 += p0
            c1 += p1
        a, b = root[j]
        return root[:j] + ((a - c0, b - c1),) + root[j + 1:]

    simples = [tuple((int(i == j), 0) for i in range(n)) for j in range(n)]
    found = list(simples)
    seen = set(simples)
    for root in found:
        for j in range(n):
            if root != simples[j]:
                image = reflect(j, root)  # positive, since root != alpha_j
                if image not in seen:
                    seen.add(image)
                    found.append(image)
    expected = ComponentType(family, n, names).reflection_count
    assert len(found) == expected, (
        "unexpected root count for %s_%d: %d" % (family, n, len(found))
    )

    positives = sorted(found, key=cmp_to_key(_lex_compare))
    ordered = positives + [tuple((-a, -b) for a, b in r) for r in positives]
    index = {root: i for i, root in enumerate(ordered)}
    return tuple(tuple(index[reflect(j, root)] for root in ordered) for j in range(n))


def _dihedral_model(p):
    """I_2(p) on root indices: rays at angle k*pi/p, k mod 2p, positives k < p."""
    n = 2 * p
    return (tuple((p - j) % n for j in range(n)),
            tuple((p - 2 - j) % n for j in range(n)))


@lru_cache(maxsize=32)  # all suites together build 21 distinct types
def _simple_perms(family, rank, p):
    """Simple-reflection permutations of one irreducible type on its local
    root indices (positives 0..n_pos-1, then their negatives), in the
    standard vertex order of type_diagram."""
    diagram = type_diagram(family, rank, p or None)
    if rank == 2:
        return _dihedral_model(diagram.m(*diagram.vertices))
    return _root_model(family, diagram)


class WGroup(object):
    """A finite Coxeter group acting on its root index set.

    Elements are tuples: position i holds the image of root i.  Roots
    0..n_pos-1 are positive; root i + n_pos is the negative of root i.
    """

    def __init__(self, diagram, subset=None):
        subset = tuple(sorted(diagram.vertices if subset is None else subset,
                              key=sort_key))
        report = finite_type(diagram, subset)
        if not report.is_spherical:
            raise DiagramError("subset %s is not spherical" % (list(subset),))
        self.diagram = diagram
        self.gens = subset

        self.n_pos = sum(c.reflection_count for c in report.components)
        self.size = 2 * self.n_pos
        self.identity = tuple(range(self.size))

        # each component's positive roots follow those of the one before
        self._simple = {}
        offset = 0
        for c in report.components:
            perms = _simple_perms(c.family, c.rank, c.p)
            self._simple.update(zip(c.order, (self._lift(p, offset) for p in perms)))
            offset += c.reflection_count

        # index of the simple root of each generator: the unique positive
        # root its reflection sends negative
        self._alpha = {}
        for g, perm in self._simple.items():
            sent = [i for i in range(self.n_pos) if perm[i] >= self.n_pos]
            assert len(sent) == 1
            self._alpha[g] = sent[0]

        self.w0 = self._longest()

    # -- basic permutation algebra -------------------------------------

    def _lift(self, local, offset):
        """The permutation acting as the component permutation `local` on the
        component whose positive roots start at `offset`, fixing the rest."""
        n = len(local) // 2
        # global index of each local root: positives, then their negatives
        where = tuple(range(offset, offset + n)) + tuple(
            range(self.n_pos + offset, self.n_pos + offset + n))
        full = list(self.identity)
        for j, img in zip(where, local):
            full[j] = where[img]
        return tuple(full)

    def compose(self, u, v):
        """u then-after v, i.e. the element acting by r -> u(v(r))."""
        # one C-level gather; itemgetter() of no index raises, hence the guard
        return itemgetter(*v)(u) if v else ()

    def mul_gen(self, w, g):
        """w * s_g (right multiplication by a generator)."""
        return self.compose(w, self._simple[g])

    def gen_mul(self, g, w):
        """s_g * w."""
        return self.compose(self._simple[g], w)

    def simple(self, g):
        return self._simple[g]

    def alpha_index(self, g):
        return self._alpha[g]

    def length(self, w):
        n = self.n_pos
        return sum(1 for i in range(n) if w[i] >= n)

    def right_descents(self, w):
        """Generators g with l(w s_g) < l(w): w sends alpha_g negative."""
        n = self.n_pos
        return frozenset(g for g in self.gens if w[self._alpha[g]] >= n)

    def left_descents(self, w):
        """Generators g with l(s_g w) < l(w): w^-1 sends alpha_g negative."""
        n = self.n_pos
        return frozenset(g for g in self.gens if w.index(self._alpha[g]) >= n)

    def word_to_element(self, word):
        """Product of simple reflections, letters applied left to right."""
        w = self.identity
        for g in word:
            if g not in self._simple:
                raise DiagramError("unknown generator %r" % (g,))
            w = self.mul_gen(w, g)
        return w

    def reduced_word(self, w):
        """A reduced word for w, greedy on smallest left descent."""
        out = []
        cur = w
        while cur != self.identity:
            g = min(self.left_descents(cur), key=sort_key)
            out.append(g)
            cur = self.gen_mul(g, cur)
        return tuple(out)

    def order(self, w):
        k = 1
        cur = w
        while cur != self.identity:
            cur = self.compose(cur, w)
            k += 1
        return k

    # -- distinguished elements -----------------------------------------

    def _longest(self):
        w = self.identity
        n = self.n_pos
        while True:
            up = [g for g in self.gens if w[self._alpha[g]] < n]
            if not up:
                return w
            w = self.mul_gen(w, up[0])

    def coxeter_element(self):
        return self.word_to_element(self.gens)

    def coxeter_number(self):
        return self.order(self.coxeter_element())

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

    def reflection_perm(self, root_index):
        if not 0 <= root_index < self.n_pos:
            raise IndexError("no positive root %r" % (root_index,))
        return self.reflections()[root_index]


def build_group(diagram, subset=None):
    """WGroup for a spherical (subset of a) diagram; errors otherwise."""
    return WGroup(diagram, subset)
