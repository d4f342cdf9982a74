"""Garside normal form and exact word arithmetic in spherical Artin groups.

An element is held as Delta^inf times a left-greedy sequence of simples,
each simple a W-permutation.  This solves the word problem: two words are
equal iff their (inf, canon) pairs coincide.
"""

from __future__ import annotations

import os
from collections import deque

from .diagram import DiagramError, finite_type, irreducible_components, sort_key
from .raag import raag_inverse
from .wgroup import WGroup

DEFAULT_LETTER_BUDGET = 10 ** 6
_BUDGET_ENV = "COXART_LETTER_BUDGET"


class BudgetExceeded(RuntimeError):
    """A word expansion passed the configured letter budget."""


def letter_budget(override=None):
    if override is not None:
        return override
    return int(os.environ.get(_BUDGET_ENV, DEFAULT_LETTER_BUDGET))


# -- Artin words -------------------------------------------------------------

def parse_word(text):
    """Parse whitespace-separated ``gen^exp`` tokens into an Artin word.

    >>> parse_word("s^2 t^-2 s")
    [('s', 2), ('t', -2), ('s', 1)]
    """
    word = []
    for token in text.split():
        if "^" in token:
            gen, raw = token.split("^", 1)
            exp = int(raw)
        else:
            gen, exp = token, 1
        if not gen:
            raise ValueError("empty generator in token %r" % token)
        if exp != 0:
            word.append((gen, exp))
    return word


def word_length(word):
    return sum(abs(e) for _, e in word)


# -- normal form -------------------------------------------------------------

class GarsideElement(object):
    """Canonical form Delta^inf * x_1 ... x_l with a left-greedy tail."""

    __slots__ = ("engine", "inf", "canon")

    def __init__(self, engine, inf, canon):
        self.engine = engine
        self.inf = inf
        self.canon = canon

    def __eq__(self, other):
        return (
            isinstance(other, GarsideElement)
            and self.engine is other.engine
            and self.inf == other.inf
            and self.canon == other.canon
        )

    def __hash__(self):
        return hash((self.inf, self.canon))

    @property
    def canonical_length(self):
        return len(self.canon)

    def is_trivial(self):
        return self.inf == 0 and not self.canon

    def describe(self):
        words = ["".join(self.engine.w.reduced_word(u)) for u in self.canon]
        return "inf=%d; canon=%s" % (self.inf, "|".join(words))


class ArtinEngine(object):
    """Normal-form machine for the spherical Artin group of a WGroup."""

    def __init__(self, wgroup, budget=None):
        self.w = wgroup
        self.budget = letter_budget(budget)
        self._tau_cache = {}
        w = wgroup
        self._tau_gen = {}
        for g in w.gens:
            image = self.tau(w.simple(g))
            match = [h for h in w.gens if w.simple(h) == image]
            assert len(match) == 1, "conjugation by Delta must permute generators"
            self._tau_gen[g] = match[0]

    def tau(self, u):
        """Delta^-1 u Delta on simples, i.e. conjugation by the longest element."""
        out = self._tau_cache.get(u)
        if out is None:
            w = self.w
            out = w.compose(w.w0, w.compose(u, w.w0))
            self._tau_cache[u] = out
        return out

    def tau_generator(self, g):
        return self._tau_gen[g]

    # -- incremental state ----------------------------------------------

    def new_state(self):
        return _NFState(self)

    def state_from_word(self, word):
        st = self.new_state()
        st.push_word(word)
        return st

    def normal_form(self, word):
        """Canonical (inf, canon) of an Artin word over the group generators."""
        return self.state_from_word(word).readout()

    def equals(self, w1, w2):
        return self.normal_form(w1) == self.normal_form(w2)

    def is_trivial(self, word):
        return self.normal_form(word).is_trivial()

    def commutes(self, w1, w2):
        a = list(w1) + list(w2)
        b = list(w2) + list(w1)
        return self.normal_form(a) == self.normal_form(b)

    def sigma_lift(self, element):
        """Positive reduced word for a W-element (Tits section)."""
        return [(g, 1) for g in self.w.reduced_word(element)]


class _NFState(object):
    """Delta^k * tau^parity(seq), seq kept left-greedy after every push."""

    __slots__ = ("engine", "k", "parity", "seq")

    def __init__(self, engine):
        self.engine = engine
        self.k = 0
        self.parity = 0
        self.seq = []

    def push_word(self, word, budget_used=0):
        used = budget_used + word_length(word)
        if used > self.engine.budget:
            raise BudgetExceeded(
                "word expansion of %d letters exceeds budget %d"
                % (used, self.engine.budget)
            )
        for g, e in word:
            if g not in self.engine.w._simple:
                raise DiagramError("unknown generator %r" % (g,))
            step = 1 if e > 0 else -1
            for _ in range(abs(e)):
                self._push_letter(g, step)
        return used

    def _push_letter(self, g, sign):
        eng = self.engine
        w = eng.w
        if sign > 0:
            simple = w.simple(g)
            if self.parity:
                simple = eng.tau(simple)
            self._append(simple)
        else:
            # x_g^-1 = Delta^-1 * sigma(w0 s_g); pushing Delta^-1 through the
            # accumulated tail twists it by tau, tracked lazily via parity.
            self.k -= 1
            self.parity ^= 1
            simple = w.compose(w.w0, w.simple(g))
            if self.parity:
                simple = eng.tau(simple)
            self._append(simple)

    def _append(self, simple):
        w = self.engine.w
        if simple == w.identity:
            return
        seq = self.seq
        seq.append(simple)
        if len(seq) == 1:
            self._absorb_front()
            return
        work = deque([len(seq) - 2])
        while work:
            i = work.popleft()
            if i < 0 or i + 1 >= len(seq):
                continue
            changed = self._fix_pair(i)
            if changed:
                if i - 1 >= 0:
                    work.append(i - 1)
                work.append(i + 1)
        while seq and seq[-1] == w.identity:
            seq.pop()
        self._absorb_front()

    def _fix_pair(self, i):
        w = self.engine.w
        seq = self.seq
        u, v = seq[i], seq[i + 1]
        changed = False
        while True:
            move = w.left_descents(v) - w.right_descents(u)
            if not move:
                break
            g = min(move, key=sort_key)
            u = w.mul_gen(u, g)
            v = w.gen_mul(g, v)
            changed = True
        if changed:
            if v == w.identity:
                seq[i] = u
                del seq[i + 1]
            else:
                seq[i], seq[i + 1] = u, v
        return changed

    def _absorb_front(self):
        w = self.engine.w
        while self.seq and self.seq[0] == w.w0:
            self.seq.pop(0)
            self.k += 1

    def readout(self):
        eng = self.engine
        w = eng.w
        canon = []
        for u in self.seq:
            if self.parity:
                u = eng.tau(u)
            canon.append(u)
        assert all(u != w.identity and u != w.w0 for u in canon)
        return GarsideElement(eng, self.k, tuple(canon))


# -- words built from fundamental elements -----------------------------------

def delta_word(diagram, subset, power=1):
    """sigma(w_T)^power as an Artin word over the generators of T.

    T must be a spherical subset; it sits inside any ambient Artin group
    containing those generators (special subgroups embed).
    """
    sub = WGroup(diagram, subset)
    lift = [(g, 1) for g in sub.reduced_word(sub.w0)]
    if power >= 0:
        return lift * power
    return raag_inverse(lift) * (-power)


def delta_power(diagram, subset, power):
    """sigma(w_T)^power for an irreducible spherical subset T."""
    comps = irreducible_components(diagram, subset)
    if len(comps) != 1:
        raise DiagramError("subset %s is not irreducible" % sorted(subset, key=sort_key))
    if not finite_type(diagram, subset).is_spherical:
        raise DiagramError("subset %s is not spherical" % sorted(subset, key=sort_key))
    return delta_word(diagram, subset, power)
