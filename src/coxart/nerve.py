"""Nerves of Coxeter systems, their partial barycentric subdivision, and the
word-level substitution z_T -> Delta_T^(2N) into the Artin group."""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (
    DiagramError,
    finite_type,
    irreducible_components,
    require_irreducible_spherical,
    sort_key,
)
from .garside import delta_power
from .raag import FlagComplex, RaagError, bit_positions

DEFAULT_MAX_RANK = 12


def subset_name(subset):
    """Canonical printable name of a generator subset."""
    return "+".join(sorted(subset, key=sort_key))


def spherical_subsets(diagram, max_rank=DEFAULT_MAX_RANK):
    """All nonempty spherical subsets, found by an upward lattice walk.

    Sphericality is inherited downward, so supersets of a non-spherical
    set are pruned without testing.
    """
    if len(diagram.vertices) > max_rank:
        raise DiagramError(
            "diagram has %d vertices; raise max_rank to walk its subset lattice"
            % len(diagram.vertices)
        )
    verts = sorted(diagram.vertices, key=sort_key)
    found = {frozenset((v,)) for v in verts}
    out = sorted(found, key=lambda s: sorted(map(sort_key, s)))
    level = list(out)
    while level:
        nxt = set()
        for s in level:
            top = max(verts.index(v) for v in s)
            for v in verts[top + 1:]:
                cand = s | {v}
                if cand in nxt:
                    continue
                # all maximal proper subsets must already be spherical
                if all(cand - {u} in found for u in cand):
                    if finite_type(diagram, cand).is_spherical:
                        nxt.add(cand)
        level = sorted(nxt, key=lambda s: sorted(map(sort_key, s)))
        found |= nxt
        out.extend(level)
    return out


@dataclass(frozen=True)
class Nerve:
    """Simplicial complex of spherical subsets; generally not flag."""

    diagram: object
    simplices: tuple  # frozensets, every nonempty spherical subset

    def vertices(self):
        return tuple(sorted((v for s in self.simplices if len(s) == 1 for v in s),
                            key=sort_key))

    def faces_of_dim(self, k):
        return [s for s in self.simplices if len(s) == k + 1]

    def to_json(self):
        return {
            "vertices": list(self.vertices()),
            "simplices": [
                sorted(s, key=sort_key)
                for s in sorted(self.simplices,
                                key=lambda s: (len(s), sorted(map(sort_key, s))))
            ],
        }


def nerve(diagram, max_rank=DEFAULT_MAX_RANK):
    """The nerve: T spans a simplex iff T is spherical."""
    subs = spherical_subsets(diagram, max_rank)
    return Nerve(diagram, tuple(subs))


@dataclass(frozen=True)
class SubdividedNerve:
    """Davis-Huang partial barycentric subdivision as a flag complex.

    Vertices are the irreducible spherical subsets; two are joined iff one
    contains the other or all cross labels are 2.
    """

    diagram: object
    complex: FlagComplex
    vertex_subsets: dict  # name -> frozenset of generators

    def triangles(self):
        out = []
        vs, nbrs = self.complex.vertices, self.complex.neighbours
        for i, m in enumerate(nbrs):
            later = m & -(2 << i)  # the neighbours after vertex i
            for j in bit_positions(later):
                for k in bit_positions(later & nbrs[j] & -(2 << j)):
                    out.append((vs[i], vs[j], vs[k]))
        return out

    def to_json(self):
        doc = self.complex.to_json()
        doc["vertex_subsets"] = {
            name: sorted(sub, key=sort_key)
            for name, sub in sorted(self.vertex_subsets.items(),
                                    key=lambda kv: sort_key(kv[0]))
        }
        return doc


def nested_or_commuting(diagram, a, b):
    """z_a and z_b commute: one subset contains the other, or they are
    disjoint with every cross label equal to 2."""
    if a <= b or b <= a:
        return True
    return not (a & b) and all(diagram.m(x, y) == 2 for x in a for y in b)


def _subset_complex(diagram, named):
    """Flag complex on named subsets, joining the nested or commuting pairs."""
    ordered = sorted(named, key=sort_key)
    edges = [
        (na, nb)
        for i, na in enumerate(ordered)
        for nb in ordered[i + 1:]
        if nested_or_commuting(diagram, named[na], named[nb])
    ]
    return FlagComplex.build(ordered, edges)


def subdivision(diagram, max_rank=DEFAULT_MAX_RANK):
    """The partial barycentric subdivision of the nerve."""
    subs = spherical_subsets(diagram, max_rank)
    irr = [s for s in subs if len(irreducible_components(diagram, s)) == 1]
    names = {subset_name(s): s for s in irr}
    return SubdividedNerve(diagram, _subset_complex(diagram, names), names)


def complex_on_subsets(diagram, subsets):
    """The full subcomplex of the subdivision spanned by the given
    irreducible spherical subsets, built without walking the whole lattice."""
    named = {}
    for s in subsets:
        s = frozenset(s)
        require_irreducible_spherical(diagram, s)
        named[subset_name(s)] = s
    return _subset_complex(diagram, named), named


def phi_word(diagram, n_power, raag_word, subdivided=None):
    """Substitute z_T^e -> Delta_T^(2*N*e); the image is an Artin word.

    Letters of `raag_word` are subdivision vertex names.
    """
    if n_power < 1:
        raise ValueError("N must be a positive integer")
    sub = subdivided if subdivided is not None else subdivision(diagram)
    out = []
    for name, exp in raag_word:
        if name not in sub.vertex_subsets:
            raise RaagError("unknown subdivision vertex %r" % (name,))
        subset = sub.vertex_subsets[name]
        out.extend(delta_power(diagram, subset, 2 * n_power * exp))
    return out
