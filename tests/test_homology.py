import os
import random
import subprocess
import sys

import pytest

import coxart
from coxart.diagram import DiagramError, parse_diagram, type_diagram
from coxart.garside import BudgetExceeded, check_budget, delta_word, parse_word, word_length
from coxart import homology
from coxart.homology import (
    AuditReport,
    H1Vector,
    h1_image,
    independence_check,
    longest_hyperplane_audit,
    longest_hyperplane_indices,
)
from coxart.raag import raag_inverse as inverse_word
from coxart.suites import run_suite
from coxart.wgroup import build_group

A2 = parse_diagram("vertex s; vertex t; edge s t 3")


def is_pure(group, word):
    """True iff the word lies in the kernel of A -> W, which sends both signs
    of a letter to its simple reflection: a purity oracle apart from
    h1_image's walk.  An unknown letter is passed on whatever its power, so
    that word_to_element names it."""
    return group.word_to_element(
        g for g, e in word if e % 2 or g not in group.gens) == group.identity


@pytest.fixture(scope="module")
def a2():
    return build_group(A2)


def test_purity(a2):
    assert is_pure(a2, parse_word("s^2"))
    assert not is_pure(a2, parse_word("s t"))
    assert is_pure(a2, delta_word(A2, A2.vertices, 2))
    assert is_pure(a2, parse_word("s^-2 t^4"))


def test_h1_generator_square(a2):
    vec = h1_image(a2, parse_word("s^2"))
    assert vec.as_dict() == {a2.alpha_index("s"): 1}


def test_h1_delta_squared_hits_every_reflection(a2):
    vec = h1_image(a2, delta_word(A2, A2.vertices, 2))
    assert vec.as_dict() == {0: 1, 1: 1, 2: 1}


def test_h1_commutator_vanishes(a2):
    assert h1_image(a2, parse_word("s^2 t^2 s^-2 t^-2")).as_dict() == {}


def _sum(*vectors):
    """The sum of H1 vectors, as a dict without zero coordinates."""
    out = {}
    for vec in vectors:
        for r, c in vec.coeffs:
            out[r] = out.get(r, 0) + c
    return {r: c for r, c in out.items() if c}


def test_h1_conjugated_square_is_basis_vector(a2):
    # a x_s^2 a^-1 classes sweep the basis e_r as a ranges over lifts
    word = parse_word("t s^2 t^-1")
    vec = h1_image(a2, word)
    t_perm = a2.simple("t")
    expected_root = t_perm[a2.alpha_index("s")] % a2.n_pos
    assert vec.as_dict() == {expected_root: 1}


def test_h1_rejects_impure(a2):
    with pytest.raises(Exception):
        h1_image(a2, parse_word("s"))


def test_h1_errors_in_order(a2, monkeypatch):
    # the budget is met before any letter is read, unknown letter or not
    with monkeypatch.context() as m, pytest.raises(BudgetExceeded):
        m.setenv("COXART_LETTER_BUDGET", "4")
        h1_image(a2, parse_word("s q t^2 s"))
    # an unknown letter is named wherever it stands, also in a non-pure word
    for text in ("s^2 q^2", "s q", "q^-3 s^2"):
        with pytest.raises(DiagramError, match="unknown generator 'q'"):
            h1_image(a2, parse_word(text))
    # a non-pure word is reported as such, not by its odd crossing counts
    for text in ("s", "s t", "s^3 t^2", "s t s t"):
        with pytest.raises(DiagramError, match="^word is not pure$"):
            h1_image(a2, parse_word(text))


def test_h1_additive_on_random_pure_words(a2):
    rng = random.Random(3)
    gens = list(A2.vertices)

    def random_pure():
        while True:
            w = [(rng.choice(gens), rng.choice((-2, -1, 1, 2))) for _ in range(6)]
            if is_pure(a2, w):
                return w

    for _ in range(25):
        u, v = random_pure(), random_pure()
        assert h1_image(a2, u + v).as_dict() == _sum(h1_image(a2, u), h1_image(a2, v))
        assert _sum(h1_image(a2, inverse_word(u)), h1_image(a2, u)) == {}


def test_h1_conjugation_permutes_coordinates(a2):
    rng = random.Random(9)
    gens = list(A2.vertices)
    for _ in range(25):
        w = [(rng.choice(gens), rng.choice((-2, 2))) for _ in range(4)]
        a = [(rng.choice(gens), rng.choice((-2, -1, 1, 2))) for _ in range(4)]
        assert is_pure(a2, w)
        conj = a + w + inverse_word(a)
        vec = h1_image(a2, conj).as_dict()
        base = h1_image(a2, w).as_dict()
        p = a2.word_to_element([g for g, e in a if e % 2])
        permuted = {p[r] % a2.n_pos: c for r, c in base.items()}
        assert vec == permuted


def test_independence_examples(a2):
    assert independence_check(a2, [parse_word("s^2"), parse_word("t^2")])
    assert not independence_check(a2, [parse_word("s^2"), parse_word("s^4")])
    delta_sq = delta_word(A2, A2.vertices, 2)
    assert independence_check(
        a2, [parse_word("s^2"), parse_word("t^2"), delta_sq]
    )


def test_longest_hyperplane_indices():
    assert longest_hyperplane_indices(3) == (1,)
    assert longest_hyperplane_indices(4) == (1, 2)
    assert longest_hyperplane_indices(5) == (2,)


def test_longest_reflections_have_maximal_word_length():
    for m in (3, 4, 5, 6):
        g = build_group(type_diagram("I", 2, m))
        lengths = [len(g.reduced_word(r)) for r in g.reflections()]
        longest = set(longest_hyperplane_indices(m))
        top = max(lengths)
        assert {i for i, l in enumerate(lengths) if l == top} == longest


@pytest.mark.parametrize("m", (3, 4, 5))
def test_longest_hyperplane_audit_passes(m):
    report = longest_hyperplane_audit(m, exponent_bound=2)
    assert report.ok
    assert report.pure_words > 0


def test_delta_squared_outside_audited_family(a2):
    # Delta^2 itself has syllable length 4 in A_2 and hits the longest
    # hyperplane, so it sits outside the audited family as expected
    vec = h1_image(a2, delta_word(A2, A2.vertices, 2))
    (longest,) = longest_hyperplane_indices(3)
    assert vec.as_dict()[longest] == 1


def test_audit_failure_reporting_is_possible():
    # sanity of the report structure: scanning with bound 1 still passes
    report = longest_hyperplane_audit(3, exponent_bound=1)
    assert report.ok and report.failures == []


def _per_word_audit(m, exponent_bound):
    """The audit as first written: purity and the H1 image of every scanned
    word are read from the whole word."""
    group = build_group(type_diagram("I", 2, m))
    s, t = group.gens
    longest = homology.longest_hyperplane_indices(m)
    exps = [e for e in range(-exponent_bound, exponent_bound + 1) if e]
    scanned = pure = 0
    failures = []

    def extend(word, remaining, last):
        nonlocal scanned, pure
        scanned += 1
        if word and is_pure(group, word):
            pure += 1
            if set(longest) <= h1_image(group, word).as_dict().keys():
                failures.append(list(word))
        if remaining:
            for g in (s, t):
                if g != last:
                    for e in exps:
                        word.append((g, e))
                        extend(word, remaining - 1, g)
                        word.pop()

    extend([], m - 1, None)
    return AuditReport(not failures, scanned, pure, failures)


def _plant_root_zero(monkeypatch):
    """Audit against the hyperplane of alpha_s1, which s1^2 crosses."""
    monkeypatch.setattr(homology, "longest_hyperplane_indices", lambda m: (0,))


@pytest.mark.parametrize("planted", (False, True))
@pytest.mark.parametrize("bound", (1, 2, 3))
@pytest.mark.parametrize("m", (3, 4, 5, 6))
def test_audit_matches_the_per_word_audit(monkeypatch, m, bound, planted):
    if planted:
        _plant_root_zero(monkeypatch)
    report = longest_hyperplane_audit(m, exponent_bound=bound)
    assert report == _per_word_audit(m, bound)
    # with exponents +-1 no word shorter than m is pure
    assert report.ok == (not planted or bound == 1)


def test_audit_reports_its_failures(monkeypatch):
    _plant_root_zero(monkeypatch)
    report = longest_hyperplane_audit(3, exponent_bound=3)
    assert not report.ok
    assert report.failures[0] == [("s1", -2)]
    checks = {c.id: c for c in run_suite("dihedral-audit").checks}
    assert checks["longest-hyperplane-m3"].status == "fail"
    assert checks["longest-hyperplane-m3"].detail == "violations: [[('s1', -2)]]"


def _seeded_matrix(rng):
    """An integer matrix up to 8x8 with negative entries, zero rows and rows
    planted as integer combinations of earlier rows."""
    n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
    rows = []
    for _ in range(n_rows):
        kind = rng.random()
        if kind < 0.15:
            rows.append([0] * n_cols)
        elif kind < 0.45 and rows:
            picks = [(rng.randint(-3, 3), rng.choice(rows)) for _ in range(rng.randint(1, 3))]
            rows.append([sum(c * row[j] for c, row in picks) for j in range(n_cols)])
        else:
            bound = rng.choice((1, 3, 50))
            rows.append([rng.randint(-bound, bound) for _ in range(n_cols)])
    rng.shuffle(rows)
    return rows


def test_integer_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2026)
    for _ in range(1200):
        rows = _seeded_matrix(rng)
        assert homology.integer_rank(rows) == sympy.Matrix(rows).rank(), rows


def test_integer_rank_edge_cases():
    assert homology.integer_rank([]) == 0
    assert homology.integer_rank([[0, 0], [0, 0]]) == 0
    assert homology.integer_rank([[2, 4], [-3, -6], [0, 0]]) == 1
    assert homology.integer_rank([[0, 5], [7, 0], [7, 5]]) == 2


def test_import_loads_no_number_tower():
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import coxart, coxart.cli\n"
            "print(sorted({'fractions', 'decimal'} & (set(sys.modules) - before)))\n")
    src = os.path.dirname(os.path.dirname(coxart.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# -- the walk two odd letters per gather against one gather per letter ---------

def _h1_one_gather_per_letter(group, word):
    """The reference walk: the prefix steps through the generator's own
    gather at every odd syllable, and the class is read as in h1_image."""
    check_budget("h1 image", word_length(word))
    n = group.n_pos
    acc = {}
    prefix = group.identity
    for g, e in word:
        times = group.times.get(g)
        if times is None:
            raise DiagramError("unknown generator %r" % (g,))
        root = prefix[group.alpha_index(g)] % n
        acc[root] = acc.get(root, 0) + e
        if e % 2:
            prefix = times(prefix)
    if prefix != group.identity:
        raise DiagramError("word is not pure")
    for r, c in acc.items():
        if c % 2:
            raise AssertionError("odd crossing count on hyperplane %d for a pure word" % r)
    return H1Vector.from_dict({r: c // 2 for r, c in acc.items()})


def _outcome(walk, group, word):
    try:
        return walk(group, word)
    except (DiagramError, BudgetExceeded) as exc:
        return type(exc), str(exc)


def _seeded_word(rng, group, syllables):
    """Runs of same-sign odd powers, mostly +-1 (a letter may repeat),
    between even syllables."""
    gens = group.gens
    word = []
    while len(word) < syllables:
        if rng.random() < 0.6:
            sign = rng.choice((1, -1))
            word += [(rng.choice(gens), sign * rng.choice((1, 1, 3)))
                     for _ in range(rng.randrange(1, 6))]
        else:
            word.append((rng.choice(gens), rng.choice((-4, -2, 2, 4))))
    return word


def _closed(rng, group, word):
    """`word` followed by a reduced word of the inverse of its image in W,
    each letter of random sign, with an even syllable in its middle: a pure
    word."""
    w = group.word_to_element(g for g, e in word if e % 2)
    back = [(g, rng.choice((1, -1))) for g in group.reduced_word(group.inverse(w))]
    back.insert(rng.randrange(len(back) + 1), (rng.choice(group.gens), 2))
    return word + back


@pytest.mark.parametrize("source", ("type A 3", "type B 4", "type H 4", "type E 8"))
def test_two_letter_walk_matches_one_gather_per_letter(source, monkeypatch):
    group = build_group(parse_diagram(source))
    rng = random.Random(source)
    for _ in range(40):
        pure = _closed(rng, group, _seeded_word(rng, group, rng.randrange(1, 30)))
        assert is_pure(group, pure)
        expected = _h1_one_gather_per_letter(group, pure)
        assert h1_image(group, pure) == expected
        # a letter repeated, so that a pair gather steps s_g s_g
        g = rng.choice(group.gens)
        doubled = pure + [(g, 1), (g, 1)]
        assert h1_image(group, doubled) == _h1_one_gather_per_letter(group, doubled)
        # a pure word and one odd letter ends on a held letter; a seeded
        # word mostly is not pure either
        held = pure + [(rng.choice(group.gens), rng.choice((1, -1, 3)))]
        assert _outcome(h1_image, group, held) == (DiagramError, "word is not pure")
        for impure in (held, _seeded_word(rng, group, rng.randrange(1, 12))):
            assert (_outcome(h1_image, group, impure)
                    == _outcome(_h1_one_gather_per_letter, group, impure))
        # an unknown letter is named wherever it stands
        i = rng.randrange(len(pure) + 1)
        unknown = pure[:i] + [("q", rng.choice((-2, -1, 1, 2)))] + pure[i:]
        assert (_outcome(h1_image, group, unknown)
                == _outcome(_h1_one_gather_per_letter, group, unknown)
                == (DiagramError, "unknown generator 'q'"))
        # a word over the budget is refused before the walk
        with monkeypatch.context() as m:
            m.setenv("COXART_LETTER_BUDGET", str(word_length(pure) - 1))
            over = _outcome(h1_image, group, pure)
            assert over == _outcome(_h1_one_gather_per_letter, group, pure)
            assert over[0] is BudgetExceeded
