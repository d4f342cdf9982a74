"""Tests of the benchmark's own oracles on cases known by hand.

    python3 -m pytest -q perfbench/test_oracles.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402


def test_growth_series_counts_f2_times_z():
    # the subdivision of I2(5) is the path s1 - s1+s2 - s2, so its RAAG is
    # F2 x Z; an element (g, n) has length |g| + |n|, with 4*3^(k-1) elements
    # of length k >= 1 in F2 and 2 of each length j >= 1 in Z
    vertices, labels = oracles.DIAGRAMS["I2(5)"]
    graph = oracles.subdivision_graph(vertices, labels)
    assert oracles.clique_polynomial(graph) == [1, 3, 2]

    def f2(k):
        return 1 if k == 0 else 4 * 3 ** (k - 1)

    def z(j):
        return 1 if j == 0 else 2

    by_hand = sum(f2(k) * z(n - k) for n in range(1, 5) for k in range(n + 1))
    assert by_hand == 312
    assert oracles.growth_count(oracles.clique_polynomial(graph), 4) == by_hand


def test_root_count_accepts_a3_and_rejects_a_wrong_count():
    assert oracles.root_count_defects("A", 3, None, 6) == []
    assert oracles.root_count_defects("A", 3, None, 7)
    assert oracles.root_count_defects("H", 4, None, 60) == []
    assert oracles.root_count_defects("I", 2, 7, 7) == []


def test_pp_checker_rejects_two_simplices_on_one_vertex():
    # the path a - b - c with words on {a, b} and {b, c}: both choose b
    edges = {frozenset("ab"), frozenset("bc")}

    def adjacent(x, y):
        return frozenset((x, y)) in edges

    ab, bc = frozenset("ab"), frozenset("bc")
    defects = oracles.pp_defects([ab, bc], adjacent, {ab: "b", bc: "b"})
    assert any("both choose" in d for d in defects)
    assert oracles.pp_defects([ab, bc], adjacent, {ab: "a", bc: "c"}) == []


def test_raag_checker_flags_swapped_non_commuting_syllables():
    # a and c commute, b commutes with neither
    edges = {frozenset("ac")}

    def adjacent(x, y):
        return frozenset((x, y)) in edges

    word = [("c", 1), ("a", 2), ("b", -1), ("a", -1), ("c", 3)]
    nf = [("a", 2), ("c", 1), ("b", -1), ("a", -1), ("c", 3)]
    assert oracles.raag_defects(adjacent, word, nf) == []
    swapped = [("a", 2), ("c", 1), ("a", -1), ("b", -1), ("c", 3)]
    defects = oracles.raag_defects(adjacent, word, swapped)
    assert any("{a, b}" in d for d in defects)
    # swapping two commuting syllables keeps the element but not the order
    unordered = [("c", 1), ("a", 2), ("b", -1), ("a", -1), ("c", 3)]
    defects = oracles.raag_defects(adjacent, word, unordered)
    assert defects and all("least shuffle" in d for d in defects)
    # a form that still cancels across commuting letters is not reduced
    assert oracles.raag_defects(adjacent, [("a", 1), ("c", 1), ("a", -1)],
                                [("a", 1), ("c", 1), ("a", -1)])


def test_commutes_rule_and_classification_on_e8():
    vertices, labels = oracles.DIAGRAMS["E8"]
    subsets = oracles.connected_subsets(vertices, labels)
    assert len(subsets) == 44
    e7 = frozenset(vertices) - {"s7"}
    assert oracles.classify(e7, labels) == ("E", 7, None)
    assert oracles.classify(frozenset(("s2", "s3", "s4", "s8")), labels) == ("D", 4, None)
    assert oracles.commutes_rule(labels, frozenset(("s1", "s2")), "s4")
    assert not oracles.commutes_rule(labels, frozenset(("s1", "s2")), "s3")
