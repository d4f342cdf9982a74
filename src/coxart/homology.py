"""The abelianization of the pure Artin group: Z^R via signed hyperplane
crossings, linear independence certificates, and the dihedral audit that the
image of a short pure word misses a longest hyperplane.

A word's class is read in one walk: each syllable adds its exponent on one
hyperplane, and the prefix in W moves only at odd syllables, two of them
per gather (WGroup.pair_times), so purity is read off the final prefix.  A
reflection's label is its greedy reduced word; in rank 2 that word is read
off in closed form."""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .diagram import DiagramError, type_diagram
from .garside import check_budget, word_length
from .wgroup import build_group


class H1Vector(namedtuple("H1Vector", "coeffs")):
    """Finitely supported vector over the reflection basis e_r.

    Coordinates are keyed by the positive root index of the reflection;
    `coeffs` is the sorted tuple of (root_index, coefficient).
    """

    __slots__ = ()

    @staticmethod
    def from_dict(d):
        return H1Vector(tuple(sorted((r, c) for r, c in d.items() if c)))

    def as_dict(self):
        return dict(self.coeffs)


def h1_image(group, word):
    """Class of a pure Artin word in H_1 of the pure Artin group.

    Walks the word once, one syllable at a time; the letter x_s^(+-1)
    after a prefix mapping to w crosses the hyperplane of the reflection
    w s w^-1, i.e. the one keyed by the positive root w(alpha_s).  Since
    w s (alpha_s) = -w(alpha_s), all letters of a syllable x_s^e cross that
    one hyperplane, so it adds e there, and the prefix moves by s only when
    e is odd.  As in push_word, an odd letter p is held back, so that the
    prefix is w s_p and the next letter's root is w(s_p(alpha_s)); the next
    odd letter enters with p by one pair gather, and a letter still held at
    the end by its own gather.  The word is pure when the final prefix is
    the identity.  Every hyperplane is crossed an even number of times for
    a pure word, and the class is half of the accumulated signed count.  A
    word of more letters than the letter budget raises BudgetExceeded
    before the walk, an unknown letter DiagramError.
    """
    check_budget("h1 image", word_length(word))
    n = group.n_pos
    times = group.times
    pair = group.pair_times
    acc = {}
    prefix = group.identity
    p = None  # the held-back letter: the prefix so far is prefix s_p
    for g, e in word:
        if g not in times:
            raise DiagramError("unknown generator %r" % (g,))
        alpha = group.alpha_index(g)
        root = (prefix[alpha] if p is None else prefix[p_s[alpha]]) % n
        acc[root] = acc.get(root, 0) + e
        if e % 2:
            if p is None:
                p, p_s = g, group.simple(g)
            else:
                prefix = pair(p, g)(prefix)
                p = None
    if p is not None:
        prefix = times[p](prefix)
    if prefix != group.identity:
        raise DiagramError("word is not pure")
    for r, c in acc.items():
        if c % 2:
            raise AssertionError(
                "odd crossing count on hyperplane %d for a pure word" % r
            )
    return H1Vector.from_dict({r: c // 2 for r, c in acc.items()})


def integer_rank(rows):
    """Rank over Q of integer row vectors, by forward elimination over Z:
    row <- pivot * row - c * top, then the row is divided by its gcd."""
    mat = [list(row) for row in rows if any(row)]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        for i in range(rank + 1, len(mat)):
            c = mat[i][col]
            if c:
                row = [top[col] * a - c * b for a, b in zip(mat[i], top)]
                g = gcd(*row) or 1
                mat[i] = [a // g for a in row]
        rank += 1
    return rank


def independence_check(group, words):
    """True iff the H1 images of the given pure words are Z-independent."""
    vectors = [h1_image(group, w) for w in words]
    support = sorted({r for v in vectors for r, _ in v.coeffs})
    idx = {r: i for i, r in enumerate(support)}
    rows = []
    for v in vectors:
        row = [0] * len(support)
        for r, c in v.coeffs:
            row[idx[r]] = c
        rows.append(row)
    return integer_rank(rows) == len(words)


def reflection_labels(group, root_indices):
    """Reduced words of the reflections negating the given positive roots,
    read off one reflection table."""
    table = group.reflections()
    return ["".join(group.reduced_word(table[r])) for r in root_indices]


def longest_hyperplane_indices(m):
    """Root indices of the longest hyperplane(s) in the dihedral model.

    One middle root when m is odd, the two middle roots when m is even.
    """
    if m % 2:
        return ((m - 1) // 2,)
    return (m // 2 - 1, m // 2)


AuditReport = namedtuple("AuditReport", "ok words_scanned pure_words failures")


def longest_hyperplane_audit(m, exponent_bound):
    """Exhaustively check that pure dihedral words of syllable length < m
    have an H1 image missing a longest hyperplane.

    This is exactly the inductive claim inside the dihedral distance
    proposition; failures are collected and reported loudly.
    """
    if m < 3:
        raise DiagramError("dihedral audit needs m >= 3")
    group = build_group(type_diagram("I", 2, m))
    s, t = group.gens
    longest = longest_hyperplane_indices(m)

    exps = [e for e in range(-exponent_bound, exponent_bound + 1) if e]
    scanned = 0
    pure = 0
    failures = []

    def extend(word, prefix, remaining, last):
        # prefix is the image of word in W; only an odd syllable moves it
        nonlocal scanned, pure
        scanned += 1
        if word and prefix == group.identity:
            pure += 1
            if set(longest) <= h1_image(group, word).as_dict().keys():
                failures.append(list(word))
        if remaining == 0:
            return
        for g in (s, t):
            if g == last:
                continue
            odd = group.times[g](prefix)
            for e in exps:
                word.append((g, e))
                extend(word, odd if e % 2 else prefix, remaining - 1, g)
                word.pop()

    extend([], group.identity, m - 1, None)
    return AuditReport(not failures, scanned, pure, failures)
