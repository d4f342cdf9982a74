"""The Crisp-Paris folding of an Artin group into a small-type Artin group.

Each generator s gets a fiber I(s) of N = lcm(m_st - 1) fresh generators;
every labeled edge is replaced by parallel copies of the diagram of
A_(m-1) x A_(m-1), wired in the standard zig-zag pattern.  The layout is
deterministic so folds are reproducible.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm

from .diagram import (
    INF,
    CoxeterDiagram,
    DiagramError,
    diagram_to_json,
    finite_type,
    irreducible_components,
    sort_key,
    subset_name,
)
from .raag import substitute


class FoldedDiagram(namedtuple("FoldedDiagram",
                                "source target fibers fiber_size block_layout")):
    """`fibers` maps each generator to the tuple of its fiber vertex names;
    `block_layout` gives, per labeled edge, the fiber-index blocks, each
    wired as one copy of the A_(m-1) x A_(m-1) diagram."""

    __slots__ = ()

    def to_json(self):
        return {
            "source": diagram_to_json(self.source),
            "target": diagram_to_json(self.target),
            "fiber_size": self.fiber_size,
            "fibers": {g: list(f) for g, f in self.fibers.items()},
            "blocks": {"%s|%s" % tuple(sorted(pair, key=sort_key)): blocks
                       for pair, blocks in self.block_layout.items()},
        }


def build_folded(diagram):
    """Fold a connected diagram with finite labels into small type."""
    comps = irreducible_components(diagram)
    if len(comps) != 1:
        raise DiagramError("folding needs a connected diagram")
    if INF in diagram.labels.values():
        raise DiagramError("folding needs finite labels")
    labels = [m for _, _, m in diagram.edges()]
    n = lcm(*[m - 1 for m in labels]) if labels else 1

    fibers = {
        g: tuple("%s~%d" % (g, i) for i in range(1, n + 1))
        for g in diagram.vertices
    }
    vertices = tuple(v for g in sorted(diagram.vertices, key=sort_key)
                     for v in fibers[g])
    new_labels = {}
    layout = {}
    for a, b, m in diagram.edges():
        block = m - 1
        blocks = []
        for j in range(n // block):
            lo = j * block
            blocks.append(list(range(lo + 1, lo + block + 1)))
            left = fibers[a][lo:lo + block]
            right = fibers[b][lo:lo + block]
            # Gamma(m): the alternating paths left[0]-right[1]-left[2]-...
            # and right[0]-left[1]-..., edge by edge
            for i in range(block - 1):
                new_labels[frozenset((left[i], right[i + 1]))] = 3
                new_labels[frozenset((right[i], left[i + 1]))] = 3
        layout[frozenset((a, b))] = blocks
    fold = FoldedDiagram(diagram, CoxeterDiagram(vertices, new_labels),
                         fibers, n, layout)
    _validate_fold(fold)
    return fold


def _validate_fold(fold):
    """Raise DiagramError unless `fold` has the Crisp-Paris shape: fibers of
    equal size with no edge inside, no edge between the fibers of commuting
    generators, and N/(m-1) copies of Gamma(m) between the fibers of an
    edge labelled m."""
    src, tgt = fold.source, fold.target
    fibers = {g: set(f) for g, f in fold.fibers.items()}
    for g in src.vertices:
        fib = fold.fibers[g]
        if len(fib) != fold.fiber_size:
            raise DiagramError("fold: fiber of %s has %d vertices, not %d"
                               % (g, len(fib), fold.fiber_size))
        # the first vertex with a neighbour in its fiber meets it later on
        for x in fib:
            inside = tgt.neighbors(x, fibers[g])
            if inside:
                raise DiagramError("fold: edge %s-%s inside the fiber of %s"
                                   % (x, min(inside, key=fib.index), g))
    for a in src.vertices:
        for b in src.vertices:
            if sort_key(a) >= sort_key(b):
                continue
            m = src.m(a, b)
            if m == 2:
                if not all(tgt.neighbors(x).isdisjoint(fibers[b]) for x in fibers[a]):
                    raise DiagramError("fold: fibers of commuting generators %s, %s "
                                       "touch" % (a, b))
                continue
            # the induced graph on the two fibers must be exactly
            # N/(m-1) copies of Gamma(m), i.e. 2N/(m-1) paths of type A_(m-1)
            paths = 2 * fold.fiber_size // (m - 1)
            report = finite_type(tgt.induced(fibers[a] | fibers[b]))
            if not report.is_spherical or [
                    ct[:2] for ct in report.components] != [("A", m - 1)] * paths:
                raise DiagramError("fold: fibers of %s, %s are not %d paths of type "
                                   "A_%d" % (a, b, paths, m - 1))


def psi_word(fold, word):
    """Image of an Artin word: each letter becomes the product of its fiber."""
    return substitute({g: [(x, 1) for x in f] for g, f in fold.fibers.items()}, word)


def component_subsets(fold, subset=None):
    """Connected components of the preimage of `subset` in the fold target."""
    fibers = fold.fibers
    return irreducible_components(fold.target, {
        x for g in (fold.source.vertices if subset is None else subset)
        for x in fibers[g]})


def fold_images(fold, vertex_subsets):
    """F on generators: each source subdivision vertex, given as
    {name: subset}, maps to the irreducible components of its preimage,
    as {component name: component subset}.  `complex_on_subsets` refuses
    a component that is not spherical."""
    return {name: {subset_name(c): c for c in component_subsets(fold, subset)}
            for name, subset in vertex_subsets.items()}


def f_word(images, raag_word):
    """Image of a word of RA(source) in RA(target): z_T becomes the product
    of the z's of the components of the preimage of T, read from the
    `fold_images` map."""
    return [(c, exp) for name, exp in raag_word for c in images[name]]


def component_report(fold):
    """The `ComponentType` of every component of the fold target.

    Each component's Coxeter number must equal that of the source system.
    """
    src_report = finite_type(fold.source)
    if not src_report.is_spherical or len(src_report.components) != 1:
        raise DiagramError("component report needs an irreducible spherical source")
    h_src = src_report.components[0].coxeter_number
    report = finite_type(fold.target)
    if not report.is_spherical:
        raise AssertionError("fold produced a non-spherical component")
    for ct in report.components:
        if ct.coxeter_number != h_src:
            raise AssertionError(
                "component %s has Coxeter number %d, source has %d"
                % (ct.tag, ct.coxeter_number, h_src)
            )
    return report.components
