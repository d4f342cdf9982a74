"""Garside normal form and exact word arithmetic in spherical Artin groups.

An element is held as Delta^inf times a left-greedy sequence of simples,
each simple a W-permutation.  This solves the word problem: two words are
equal iff their (inf, canon) pairs coincide.

A word is read in maximal runs of same-sign letters whose product in W stays
reduced, two letters per step through the gather of their pair
(WGroup.pair_times) and a run's odd last letter through its generator's
gather (WGroup.times); each run enters as one simple (a negative run as
Delta^-1 times a simple), so Delta_T^k costs k factors.  One backward sweep
of pairwise left-weighting restores the normal form after each factor
(Epstein et al., Word Processing in Groups, ch. 9).  A pair u|v is
left-weighted by moving onto u the longest prefix of v that keeps u simple;
that prefix is grown by root lookups, with no descent sets, two generators
per gather.  Two normal forms multiply without re-reading either word,
Delta^i A Delta^j B = Delta^(i+j) tau^j(A) B, which is how two words are
tested for commuting.  An engine holds only the first word of its last
`commutes` with that word's (inf, canon), so Delta_T^2 tested against each
generator in turn is read once; not an element, whose engine reference would
make a cycle.  The budget bounds the letters of a word.  The word of
Delta_T is the greedy word of the longest element of W_T, read off the
cached type models once per diagram and subset and then kept in the
diagram's table (wgroup.longest_word), so building it builds no group.
"""

from __future__ import annotations

import contextvars
import os
from collections import namedtuple
from operator import itemgetter

from .diagram import DiagramError, read_int, require_irreducible_spherical
from .wgroup import longest_word

DEFAULT_LETTER_BUDGET = 10 ** 6
_BUDGET_ENV = "COXART_LETTER_BUDGET"
#: the letter budget of the current context (one CLI command); None reads the variable
RUN_BUDGET = contextvars.ContextVar("RUN_BUDGET", default=None)


class BudgetExceeded(RuntimeError):
    """A word expansion passed the configured letter budget."""


def letter_budget():
    """RUN_BUDGET, else COXART_LETTER_BUDGET, else the default; the variable
    must hold an integer >= 1."""
    budget = RUN_BUDGET.get()
    if budget is not None:
        return budget
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return DEFAULT_LETTER_BUDGET
    value = read_int(raw)
    if value is None or value < 1:
        raise ValueError("%s must be an integer >= 1, got %r" % (_BUDGET_ENV, raw))
    return value


def check_budget(layer, count, what="word of %d letters"):
    """Raise BudgetExceeded before `layer` reads a word of more letters than
    the letter budget; `what` names the count when it is not of letters."""
    budget = letter_budget()
    if count > budget:
        raise BudgetExceeded("%s: %s exceeds the letter budget %d"
                             % (layer, what % count, budget))


# -- Artin words -------------------------------------------------------------

def parse_word(text, gens=None):
    """Parse whitespace-separated ``gen^exp`` tokens into an Artin word; a
    letter outside `gens`, when given, raises DiagramError even at exponent 0.

    >>> parse_word("s^2 t^-2 s")
    [('s', 2), ('t', -2), ('s', 1)]
    """
    word = []
    for token in text.split():
        if "^" in token:
            gen, raw = token.split("^", 1)
            exp = read_int(raw)
            if exp is None:
                raise ValueError("bad exponent in token %r" % token)
        else:
            gen, exp = token, 1
        if not gen:
            raise ValueError("empty generator in token %r" % token)
        if gens is not None and gen not in gens:
            raise DiagramError("unknown generator %r" % (gen,))
        if exp != 0:
            word.append((gen, exp))
    return word


_exponent = itemgetter(1)


def word_length(word):
    """The number of letters of a syllable word, summed at C level."""
    return sum(map(abs, map(_exponent, word)))


# -- normal form -------------------------------------------------------------

class GarsideElement(namedtuple("GarsideElement", "engine inf canon")):
    """Canonical form Delta^inf * x_1 ... x_l with a left-greedy tail.  Two
    elements are equal when they share the engine object, inf and canon."""

    __slots__ = ()

    @property
    def canonical_length(self):
        return len(self.canon)

    def is_trivial(self):
        return self.inf == 0 and not self.canon


class ArtinEngine(object):
    """Normal-form machine for the spherical Artin group of a WGroup."""

    def __init__(self, wgroup):
        self.w = w = wgroup
        # generator -> (index of alpha_g, gather of s_g, s_g), for push_word
        # and _fix_pair, which apply letters in pairs through w.pair_times
        self._steps = {g: (w.alpha_index(g), w.times[g], w.simple(g)) for g in w.gens}
        # commutes' last first word, as a tuple of tuples, and its (inf, canon)
        self._held = None, None

    def tau(self, u):
        """Delta^-1 u Delta on simples, i.e. conjugation by the longest element."""
        w = self.w
        return w.compose(w.w0, w.compose(u, w.w0))

    def normal_form(self, word):
        """Canonical (inf, canon) of an Artin word over the group generators."""
        check_budget("garside normal form", word_length(word))
        return self._read(word)

    def _read(self, word):
        """The normal form of a word the budget has already passed."""
        state = _NFState(self)
        state.push_word(word)
        return state.readout()

    def equals(self, w1, w2):
        return self.normal_form(w1) == self.normal_form(w2)

    def is_trivial(self, word):
        return self.normal_form(word).is_trivial()

    def multiply(self, a, b):
        """Normal form of the product of two normal forms a and b:
        Delta^i A Delta^j B = Delta^(i+j) tau^j(A) B, so the factors of B are
        pushed onto the left-greedy A under the twist of parity j."""
        state = _NFState(self, a.inf + b.inf, b.inf & 1, a.canon)
        for x in b.canon:
            state._push_run(x, 1)
        return state.readout()

    def commutes(self, w1, w2):
        """Whether w1 w2 = w2 w1, each word read once; a w1 equal to the last
        call's is not read again (one entry held, so memory stays flat)."""
        check_budget("garside normal form", word_length(w1) + word_length(w2))
        key = tuple(map(tuple, w1))  # a copy: the caller may mutate w1
        if key != self._held[0]:
            a = self._read(key)
            self._held = key, (a.inf, a.canon)
        a, b = GarsideElement(self, *self._held[1]), self._read(w2)
        return self.multiply(a, b) == self.multiply(b, a)


class _NFState(object):
    """Delta^k * tau^parity(seq), seq kept left-greedy after every push.

    A word enters one simple per maximal run of same-sign letters whose
    product stays reduced.  Each appended simple is left-weighted into seq
    by one backward sweep that stops at the first pair left unchanged; a
    factor that becomes Delta leaves seq for the power k at once, so seq
    never holds the identity or Delta.  A pair is fixed by root lookups
    (_fix_pair); a state may also start from a normal form's factors, which
    is how ArtinEngine.multiply continues one normal form by another.
    """

    __slots__ = ("engine", "k", "parity", "seq")

    def __init__(self, engine, k=0, parity=0, seq=()):
        self.engine = engine
        self.k = k
        self.parity = parity
        self.seq = list(seq)

    def push_word(self, word):
        """Push a word run by run.  A run holds its last letter p back: the
        next same-sign letter g extends run s_p iff (run s_p)(alpha_g) =
        run(s_p(alpha_g)) is positive, and then both letters enter by one
        pair gather; a run's odd last letter enters by the gather of p."""
        eng = self.engine
        w = eng.w
        n = w.n_pos
        steps = eng._steps
        pair = w.pair_times
        run, sign = w.identity, 0
        p = None  # the held-back letter: the run so far is run s_p
        for g, e in word:
            if g not in steps:
                raise DiagramError("unknown generator %r" % (g,))
            alpha, times, s = steps[g]
            step = 1 if e > 0 else -1
            for _ in range(abs(e)):
                if p is not None:
                    if step == sign and run[p_s[alpha]] < n:
                        run = pair(p, g)(run)
                        p = None
                        continue
                    self._push_run(p_times(run), sign)
                    run, sign = w.identity, step
                elif step != sign or run[alpha] >= n:
                    self._push_run(run, sign)
                    run, sign = w.identity, step
                p, p_times, p_s = g, times, s
        self._push_run(run if p is None else p_times(run), sign)

    def _push_run(self, run, sign):
        """Push sigma(run)^sign for a reduced run = s_g1...s_gm; the identity
        run of sign 0 pushes nothing."""
        eng = self.engine
        w = eng.w
        if sign < 0:
            # x_g1^-1...x_gm^-1 = sigma(run^-1)^-1 = Delta^-1 * sigma(w0 run);
            # pushing Delta^-1 through the accumulated tail twists it by tau,
            # tracked lazily via parity.
            self.k -= 1
            self.parity ^= 1
            run = w.compose(w.w0, run)
        if run != w.identity:
            self._append(eng.tau(run) if self.parity else run)

    def _append(self, simple):
        eng = self.engine
        w0 = eng.w.w0
        seq = self.seq
        seq.append(simple)
        # seq[:-1] was left-weighted, so fixing pairs right to left restores
        # every pair, and the first pair left unchanged ends the sweep
        i = len(seq) - 1
        while i and seq[i] != w0 and self._fix_pair(i - 1):
            i -= 1
        if seq[i] == w0:
            # A Delta B = Delta tau(A) B = Delta tau(A tau(B)): Delta joins the
            # power at once instead of moving to the front pair by pair, and
            # only the part the sweep touched is twisted
            seq[i:] = [eng.tau(x) for x in seq[i + 1:]]
            self.k += 1
            self.parity ^= 1

    def _fix_pair(self, i):
        """Left-weight seq[i], seq[i + 1] = u, v: move onto u the longest
        prefix m of v with u m still simple; report whether m is nontrivial.

        m grows by root lookups.  s_h extends m when h is a left descent of
        m^-1 v, i.e. v^-1 sends m(alpha_h) negative, i.e. m(alpha_h) is the
        image under v of a negative root; and u m s_h stays simple when u m
        sends alpha_h positive.  As in push_word, the last generator found
        is held back and the next one enters with it by one pair gather.
        The left-weighted pair is unique, so the order of the moves does not
        matter.  A single generator is its own inverse, so m = s_h needs no
        inversion.
        """
        eng = self.engine
        w = eng.w
        pair = w.pair_times
        n = w.n_pos
        seq = self.seq
        u, v = seq[i], seq[i + 1]
        v_neg = set(v[n:])
        m = w.identity
        p = None  # the held-back generator: the prefix so far is m s_p
        moved = 0
        grown = True
        while grown:
            grown = False
            for h, (alpha, times, s) in eng._steps.items():
                r = m[alpha] if p is None else m[p_s[alpha]]
                if r in v_neg and u[r] < n:
                    if p is None:
                        p, p_times, p_s = h, times, s
                    else:
                        m = pair(p, h)(m)
                        p = None
                    moved += 1
                    grown = True
        if not moved:
            return False
        if p is not None:
            m = p_times(m)
        seq[i] = w.compose(u, m)
        rest = w.compose(p_s if moved == 1 else w.inverse(m), v)
        if rest == w.identity:
            del seq[i + 1]
        else:
            seq[i + 1] = rest
        return True

    def readout(self):
        eng = self.engine
        canon = tuple(eng.tau(u) if self.parity else u for u in self.seq)
        assert all(u != eng.w.identity and u != eng.w.w0 for u in canon)
        return GarsideElement(eng, self.k, canon)


# -- words built from fundamental elements -----------------------------------

def delta_word(diagram, subset, power=1):
    """sigma(w_T)^power as an Artin word over the generators of T.

    T must be a spherical subset; it sits inside any ambient Artin group
    containing those generators (special subgroups embed).
    """
    word = longest_word(diagram, subset)
    if power >= 0:
        return [(g, 1) for g in word] * power
    return [(g, -1) for g in reversed(word)] * (-power)


def delta_power(diagram, subset, power):
    """sigma(w_T)^power for an irreducible spherical subset T."""
    require_irreducible_spherical(diagram, subset)
    return delta_word(diagram, subset, power)
