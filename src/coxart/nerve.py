"""Nerves of Coxeter systems, their partial barycentric subdivision, and the
word-level substitution z_T -> Delta_T^(2N) into the Artin group."""

from __future__ import annotations

from collections import namedtuple

from .diagram import (
    DiagramError,
    finite_type,
    require_irreducible_spherical,
    sort_key,
    subset_key,
    subset_name,
)
from .garside import DEFAULT_LETTER_BUDGET, check_budget, delta_power
from .raag import FlagComplex, RaagError, substitute

DEFAULT_MAX_RANK = 12


def spherical_subsets(diagram, max_rank=DEFAULT_MAX_RANK):
    """Every nonempty spherical subset, in `subset_key` order, mapped to
    whether it is irreducible.

    One walk on an explicit stack (a set may outgrow Python's recursion
    limit) grows each spherical set by the vertices after its last one and
    classifies each candidate once; a non-spherical set has no spherical
    superset, so it is not grown.  Past the default letter budget, the
    letters the found sets hold, the sum of their sizes, meet the budget.
    """
    if len(diagram.vertices) > max_rank:
        raise DiagramError("diagram has %d vertices; raise max_rank to walk its "
                           "subset lattice" % len(diagram.vertices))
    verts = sorted(diagram.vertices, key=sort_key)
    found, letters = {}, 0
    stack = [(frozenset(), 0)]
    while stack:
        base, start = stack.pop()
        for i in range(start, len(verts)):
            cand = base | {verts[i]}
            report = finite_type(diagram, cand)
            if report.is_spherical:
                found[cand] = len(report.components) == 1
                letters += len(cand)
                if letters > DEFAULT_LETTER_BUDGET:
                    check_budget("nerve walk", letters, "lattice holding %d vertex letters")
                stack.append((cand, i + 1))
    return {s: found[s] for s in sorted(found, key=subset_key)}


class Nerve(namedtuple("Nerve", "simplices")):
    """Simplicial complex of spherical subsets; generally not flag.
    `simplices` holds every nonempty spherical subset, as frozensets."""

    __slots__ = ()

    def to_json(self):
        return {
            "vertices": sorted((v for s in self.simplices if len(s) == 1 for v in s),
                               key=sort_key),
            "simplices": [sorted(s, key=sort_key)
                          for s in sorted(self.simplices, key=subset_key)],
        }


def nerve(diagram, max_rank=DEFAULT_MAX_RANK):
    """The nerve: T spans a simplex iff T is spherical."""
    return Nerve(tuple(spherical_subsets(diagram, max_rank)))


class SubdividedNerve(namedtuple("SubdividedNerve", "complex vertex_subsets")):
    """Davis-Huang partial barycentric subdivision as a flag complex.

    Vertices are the irreducible spherical subsets; two are joined iff one
    contains the other or all cross labels are 2.  `vertex_subsets` maps
    each vertex name to its frozenset of generators.
    """

    __slots__ = ()

    def to_json(self):
        doc = self.complex.to_json()
        doc["vertex_subsets"] = {name: sorted(sub, key=sort_key)
                                 for name, sub in self.vertex_subsets.items()}
        return doc


def nested_or_commuting(diagram, a, b):
    """z_a and z_b commute: one subset contains the other, or they are
    disjoint with every cross label equal to 2, that is, no vertex of a has
    a neighbour in b."""
    if a <= b or b <= a:
        return True
    return a.isdisjoint(b) and all(diagram.neighbors(x).isdisjoint(b) for x in a)


def _subset_complex(diagram, named):
    """Flag complex on named subsets, joining the nested or commuting pairs."""
    ordered = sorted(named, key=sort_key)
    edges = [
        (na, nb)
        for i, na in enumerate(ordered)
        for nb in ordered[i + 1:]
        if nested_or_commuting(diagram, named[na], named[nb])
    ]
    return FlagComplex(ordered, edges)


def subdivision(diagram, max_rank=DEFAULT_MAX_RANK):
    """The partial barycentric subdivision of the nerve."""
    names = {subset_name(s): s
             for s, irreducible in spherical_subsets(diagram, max_rank).items() if irreducible}
    return SubdividedNerve(_subset_complex(diagram, names), names)


def complex_on_subsets(diagram, subsets):
    """The full subcomplex of the subdivision spanned by the given
    irreducible spherical subsets, built without walking the whole lattice."""
    named = {}
    for s in subsets:
        s = frozenset(s)
        require_irreducible_spherical(diagram, s)
        named[subset_name(s)] = s
    return _subset_complex(diagram, named)


def phi_word(diagram, n_power, raag_word, subdivided=None):
    """Substitute z_T^e -> Delta_T^(2*N*e); the image is an Artin word.

    Letters of `raag_word` are subdivision vertex names.
    """
    if n_power < 1:
        raise ValueError("N must be a positive integer")
    sub = subdivided if subdivided is not None else subdivision(diagram)
    deltas = {}
    for name, _ in raag_word:
        if name not in sub.vertex_subsets:
            raise RaagError("unknown subdivision vertex %r" % (name,))
        if name not in deltas:
            deltas[name] = delta_power(diagram, sub.vertex_subsets[name], 1)
    letters = 2 * n_power * sum(abs(e) * len(deltas[v]) for v, e in raag_word)
    check_budget("phi word", letters)  # before the image is built
    return substitute({name: d * (2 * n_power) for name, d in deltas.items()}, raag_word)
