"""Coxeter diagrams: parsing, finite-type recognition, component analysis.

A diagram stores only the labels m(s,t) != 2; an absent pair commutes.
Labels are integers >= 3 or INF.
"""

from __future__ import annotations

import re
from collections import namedtuple

INF = float("inf")

#: Coxeter numbers of the irreducible finite types, keyed by family.
#: A_n: n+1, B_n: 2n, D_n: 2(n-1), I_2(p): p, plus the exceptional values.
_EXCEPTIONAL_H = {
    ("E", 6): 12,
    ("E", 7): 18,
    ("E", 8): 30,
    ("F", 4): 12,
    ("G", 2): 6,
    ("H", 2): 5,
    ("H", 3): 10,
    ("H", 4): 30,
}


class DiagramError(ValueError):
    """Malformed diagram source or invalid diagram operation."""


def _pair(a, b):
    return frozenset((a, b))


def sort_key(name):
    """Deterministic vertex ordering; short names before long ones."""
    return (len(name), name)


def subset_key(subset):
    """Deterministic subset ordering: smaller sets first, then by their
    sorted vertices."""
    return (len(subset), sorted(map(sort_key, subset)))


def subset_name(subset):
    """Canonical printable name of a generator subset."""
    return "+".join(sorted(subset, key=sort_key))


def name_subset(name):
    """The generator subset that `subset_name` names `name`."""
    return frozenset(name.split("+"))


def check_names(names, error=DiagramError):
    """Raise `error` at a name holding '+', the joiner of subset names."""
    for v in names:
        if "+" in v:
            raise error("vertex name %r holds '+', which joins subset names" % (v,))


class FrozenRecord(object):
    """Base of an immutable record whose fields are plain instance
    attributes, which are faster to read than those of a tuple: closed to
    assignment, and equal to a record of its own class, hashed and shown by
    the fields named in `_fields`.  Its `__init__` sets each attribute with
    `object.__setattr__`; going through `__dict__` instead would slow down
    every later read."""

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def _key(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % pair for pair in zip(self._fields, self._key())))


class CoxeterDiagram(FrozenRecord):
    """A Coxeter diagram: ordered vertex names plus labels m(s,t) != 2.
    Its labels dict makes it unhashable.  The neighbours of each vertex are
    read off the labels once, when the diagram is made.  `_longest_words`,
    empty until then, holds the greedy word of w_T for each subset T whose
    Delta_T word was built (wgroup.longest_word); like `_near`, it is not a
    field, so equality and repr never see it."""

    _fields = ("vertices", "labels")

    def __init__(self, vertices, labels):
        near = {v: set() for v in vertices}
        if len(near) != len(vertices):
            raise DiagramError("duplicate vertex name")
        check_names(vertices)
        for pair, m in labels.items():
            if len(pair) != 2:
                raise DiagramError("self-label or malformed edge %r" % (pair,))
            if not all(v in near for v in pair):
                raise DiagramError("edge with unknown vertex %r" % (pair,))
            if m != INF and (not isinstance(m, int) or m < 3):
                raise DiagramError("label must be an integer >= 3 or inf, got %r" % (m,))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "labels", labels)
        for a, b in labels:
            near[a].add(b)
            near[b].add(a)
        object.__setattr__(self, "_near", {v: frozenset(ws) for v, ws in near.items()})
        object.__setattr__(self, "_longest_words", {})

    def m(self, a, b):
        """Coxeter label m(a,b); 2 when no edge is stored, 1 on the diagonal."""
        if a == b:
            return 1
        return self.labels.get(_pair(a, b), 2)

    def edges(self):
        """Edge list [(a, b, m)] of the diagram, deterministic order."""
        out = [tuple(sorted(pair, key=sort_key)) + (m,) for pair, m in self.labels.items()]
        out.sort(key=lambda e: (sort_key(e[0]), sort_key(e[1])))
        return out

    def neighbors(self, v, subset=None):
        """The vertices of `subset` (default: all, the stored frozenset) joined to v."""
        near = self._near.get(v, frozenset())
        return near if subset is None else near.intersection(subset)

    def induced(self, subset):
        """Full subdiagram on `subset`, vertex order inherited."""
        keep = set(subset)
        unknown = keep - set(self.vertices)
        if unknown:
            raise DiagramError("unknown vertices %s" % sorted(unknown))
        verts = tuple(v for v in self.vertices if v in keep)
        labels = {p: m for p, m in self.labels.items() if p <= keep}
        return CoxeterDiagram(verts, labels)


def irreducible_components(diagram, subset=None):
    """Partition `subset` into connected components of the induced diagram.

    Edges are the pairs with m != 2, so components correspond to the
    irreducible factors of the special subgroup.  Each component grows from
    its least vertex, met in order, so they come out ordered by least vertex.
    """
    verts = set(diagram.vertices if subset is None else subset)
    unknown = verts - diagram._near.keys()
    if unknown:
        raise DiagramError("unknown vertices %s" % sorted(unknown))
    seen = set()
    comps = []
    for start in sorted(verts, key=sort_key):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in diagram.neighbors(v, verts):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


class ComponentType(namedtuple("ComponentType", "family rank order p", defaults=(0,))):
    """Classified irreducible finite type with vertices in standard order.

    `family` is one of A B D E F G H I, `order` lists the vertices in the
    standard enumeration for the family, and `p` is the dihedral label,
    only for family I."""

    __slots__ = ()

    @property
    def tag(self):
        if self.family == "I":
            return "I_2(%d)" % self.p
        return "%s_%d" % (self.family, self.rank)

    @property
    def coxeter_number(self):
        if self.family == "A":
            return self.rank + 1
        if self.family == "B":
            return 2 * self.rank
        if self.family == "D":
            return 2 * (self.rank - 1)
        if self.family == "I":
            return self.p
        return _EXCEPTIONAL_H[(self.family, self.rank)]

    @property
    def reflection_count(self):
        # |R| = rank * h / 2 for every irreducible finite type.
        n = self.rank * self.coxeter_number
        assert n % 2 == 0
        return n // 2


#: `components` holds a ComponentType per spherical component, () if not spherical
FiniteTypeReport = namedtuple("FiniteTypeReport", "is_spherical components")


#: the label of a rank-2 component -> its family; any other label is I_2(m)
_RANK2_FAMILY = {3: "A", 4: "B", 5: "H", 6: "G"}


def _chain(near, prev, v):
    """The vertices of a tree from v to a leaf, walking away from prev, where
    `near` maps each tree vertex to its neighbours; no vertex past v may
    branch."""
    chain = [v]
    while True:
        nxt = [w for w in near[chain[-1]] if w != prev]
        if not nxt:
            return chain
        prev = chain[-1]
        chain.append(nxt[0])


def _classify_component(diagram, comp):
    """ComponentType of a connected induced subdiagram, or None if infinite."""
    keep, comp = comp, sorted(comp, key=sort_key)
    n = len(comp)
    if n == 1:
        return ComponentType("A", 1, tuple(comp))
    if n == 2:
        m = diagram.m(*comp)
        if m == INF:
            return None
        family = _RANK2_FAMILY.get(m, "I")
        return ComponentType(family, 2, tuple(comp), p=m if family == "I" else 0)

    near = {v: diagram.neighbors(v, keep) for v in comp}
    degs = [len(near[v]) for v in comp]
    if sum(degs) != 2 * (n - 1):  # more than n - 1 edges: a cycle, never finite
        return None
    # the tree's labels >= 4, each pair once; inf fails as a label >= 6
    edges = [(a, b, diagram.labels[_pair(a, b)]) for a in comp for b in near[a] if a < b]
    big = [(a, b, m) for a, b, m in edges if m >= 4]
    if len(big) > 1 or any(m >= 6 for _, _, m in big):
        return None

    # a tree: either a path or branched at a single vertex of degree 3
    if max(degs) > 2:
        if big or max(degs) > 3 or degs.count(3) != 1:
            return None  # label >= 4 on a branched tree, or two branch points
        # simply laced D_n or E_n; each branch listed from the center outward
        center = comp[degs.index(3)]
        branches = sorted(
            (_chain(near, center, v) for v in near[center]),
            key=lambda b: (len(b), sort_key(b[0])))
        lens = tuple(len(b) for b in branches)
        if lens[0] == 1 and lens[1] == 1:
            # D_n: long tail first, then the two forks
            tail = branches[2][::-1] + [center]
            forks = sorted((branches[0][0], branches[1][0]), key=sort_key)
            return ComponentType("D", n, tuple(tail) + tuple(forks))
        if lens[0] == 1 and lens[1] == 2 and lens[2] in (2, 3, 4):
            # E_n, standard order: long t-chain then the short branch vertex
            chain = branches[1][::-1] + [center] + branches[2]
            return ComponentType("E", n, tuple(chain) + (branches[0][0],))
        return None

    # a path, read from its first end
    path = _chain(near, None, comp[degs.index(1)])
    if not big:
        return ComponentType("A", n, tuple(path))
    a, b, m = big[0]
    pos = sorted((path.index(a), path.index(b)))
    if m == 4:
        if pos == [n - 2, n - 1]:
            return ComponentType("B", n, tuple(path))
        if pos == [0, 1]:
            return ComponentType("B", n, tuple(path[::-1]))
        if n == 4 and pos == [1, 2]:
            order = path if sort_key(path[0]) < sort_key(path[-1]) else path[::-1]
            return ComponentType("F", 4, tuple(order))
        return None
    # m == 5: H_3 / H_4 carry the 5-label on the first edge
    if n > 4:
        return None
    if pos == [0, 1]:
        return ComponentType("H", n, tuple(path))
    if pos == [n - 2, n - 1]:
        return ComponentType("H", n, tuple(path[::-1]))
    return None


def finite_type(diagram, subset=None):
    """Decompose the induced diagram and match each component against the
    classification of irreducible finite Coxeter groups.

    >>> d = type_diagram("H", 3)
    >>> finite_type(d).components[0].tag
    'H_3'
    """
    comps = irreducible_components(diagram, subset)
    out = []
    for comp in comps:
        t = _classify_component(diagram, comp)
        if t is None:
            return FiniteTypeReport(False, ())
        out.append(t)
    return FiniteTypeReport(True, tuple(out))


def require_irreducible_spherical(diagram, subset):
    """Raise DiagramError unless `subset` is irreducible and spherical."""
    comps = irreducible_components(diagram, subset)
    if len(comps) != 1:
        raise DiagramError("subset %s is not irreducible" % sorted(subset, key=sort_key))
    if _classify_component(diagram, comps[0]) is None:
        raise DiagramError("subset %s is not spherical" % sorted(subset, key=sort_key))


def type_diagram(family, n, p=None, prefix="s"):
    """The standard diagram of an irreducible finite type.

    Vertices are named prefix1..prefixN along the standard enumeration
    (the one produced by finite_type).
    """
    family = family.upper()
    if p is not None and family != "I":
        raise DiagramError("only type I takes a dihedral label, got %r for type %s"
                           % (p, family))
    names = tuple("%s%d" % (prefix, i) for i in range(1, n + 1))
    labels = {}

    def edge(i, j, m=3):
        labels[_pair(names[i], names[j])] = m

    if family == "A":
        if n < 1:
            raise DiagramError("A_n needs n >= 1")
        for i in range(n - 1):
            edge(i, i + 1)
    elif family == "B" or family == "C":
        if n < 2:
            raise DiagramError("B_n needs n >= 2")
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 2, n - 1, 4)
    elif family == "D":
        if n < 4:
            raise DiagramError("D_n needs n >= 4")
        for i in range(n - 3):
            edge(i, i + 1)
        edge(n - 3, n - 2)
        edge(n - 3, n - 1)
    elif family == "E":
        if n not in (6, 7, 8):
            raise DiagramError("E_n needs n in 6..8")
        for i in range(n - 2):
            edge(i, i + 1)
        edge(2, n - 1)  # short branch at the third chain vertex
    elif family == "F":
        if n != 4:
            raise DiagramError("F_n needs n = 4")
        edge(0, 1)
        edge(1, 2, 4)
        edge(2, 3)
    elif family == "G":
        if n != 2:
            raise DiagramError("G_n needs n = 2")
        edge(0, 1, 6)
    elif family == "H":
        if n not in (2, 3, 4):
            raise DiagramError("H_n needs n in 2..4")
        edge(0, 1, 5)
        for i in range(1, n - 1):
            edge(i, i + 1)
    elif family == "I":
        if n != 2 or p is None or p < 3:
            raise DiagramError("I_2(p) needs rank 2 and p >= 3")
        edge(0, 1, p)
    else:
        raise DiagramError("unknown type tag %r" % family)
    return CoxeterDiagram(names, labels)


def read_int(token):
    """The integer a token spells as an optional sign and ASCII digits, else
    None; int() alone also takes underscores and other scripts' digits."""
    return int(token) if re.fullmatch("[+-]?[0-9]+", token) else None


def _int_token(token, what, line):
    value = read_int(token)
    if value is None:
        raise DiagramError("bad %s %r in line %r" % (what, token, line))
    return value


def parse_diagram(text):
    """Parse the textual diagram format.

    Lines: ``vertex <name>``, ``edge <a> <b> <m|inf>`` or
    ``type <letter> <n> [<p>]``.  Comments start with '#'; semicolons
    separate logical lines.  Each pair gets its label from one line at most:
    a ``type`` line gives every pair of its own vertices one.
    """
    vertices = []
    labels = {}
    labelled = set()  # pairs an edge line has given a label
    type_line = {}  # vertex -> the type line that made it

    def add_vertex(name):
        if name in vertices:
            raise DiagramError("duplicate vertex %r" % name)
        vertices.append(name)

    lines = []
    for raw in text.replace(";", "\n").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    for line_no, line in enumerate(lines):
        parts = line.split()
        kind = parts[0].lower()
        if kind == "vertex" and len(parts) == 2:
            add_vertex(parts[1])
        elif kind == "edge" and len(parts) == 4:
            a, b, raw_m = parts[1], parts[2], parts[3]
            for v in (a, b):
                if v not in vertices:
                    raise DiagramError("edge references unknown vertex %r" % v)
            if a == b:
                raise DiagramError("self-edge on %r" % a)
            pair = _pair(a, b)
            same_type = a in type_line and type_line[a] == type_line.get(b)
            if pair in labelled or same_type:
                raise DiagramError("second label for the pair %s %s in line %r"
                                   % (a, b, line))
            labelled.add(pair)
            m = (INF if raw_m.lower() in ("inf", "infinity", "oo")
                 else _int_token(raw_m, "label", line))
            if m != INF and m < 2:
                raise DiagramError("label below 2 on edge %s %s" % (a, b))
            if m != 2:  # m = 2 is the default and is not stored
                labels[pair] = m
        elif kind == "type" and len(parts) in (3, 4):
            fam = parts[1]
            n = _int_token(parts[2], "rank", line)
            p = _int_token(parts[3], "dihedral label", line) if len(parts) == 4 else None
            sub = type_diagram(fam, n, p)
            for v in sub.vertices:
                add_vertex(v)
                type_line[v] = line_no
            labels.update(sub.labels)
        else:
            raise DiagramError("cannot parse line %r" % line)
    return CoxeterDiagram(tuple(vertices), labels)


def diagram_to_json(diagram):
    return {
        "vertices": list(diagram.vertices),
        "edges": [[a, b, "inf" if m == INF else m] for a, b, m in diagram.edges()],
    }
