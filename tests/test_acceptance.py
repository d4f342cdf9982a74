"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its runtime against the stated budget.

Criterion 9 asserts the true global-PP statement at each rank of type D:
at rank 4 every curve intersection is forced by the stated disjointness
constraints and exactly three global choice maps exist; from rank 5 on no
global map exists; the r/r' split certifies at every rank (see
DECISIONS.md, entry D-1).
"""

import time

from coxart.suites import run_suite


def _report(num, label, budget, started, failures):
    elapsed = time.monotonic() - started
    status = "PASS" if not failures else "FAIL"
    print(
        "[criterion %02d] %s %s (%.1fs < %ds)"
        % (num, status, label, elapsed, budget)
    )
    assert not failures, "; ".join(failures)
    assert elapsed < budget, "budget exceeded: %.1fs" % elapsed


def _suite_failures(result, id_prefix=None):
    return [
        "%s: %s" % (c.id, c.detail)
        for c in result.checks
        if c.status == "fail" and (id_prefix is None or c.id.startswith(id_prefix))
    ]


def test_criterion_01_garside_core():
    t0 = time.monotonic()
    result = run_suite("garside-core")
    _report(1, "Garside core (Delta^2 = sigma(c)^h, centrality, tau)", 30,
            t0, _suite_failures(result))


def test_criterion_02_tits_classic():
    t0 = time.monotonic()
    result = run_suite("tits-classic")
    _report(2, "classic Tits spot checks", 5, t0, _suite_failures(result))


def test_criterion_03_dihedral_identities():
    t0 = time.monotonic()
    result = run_suite("dihedral-audit")
    _report(3, "dihedral word identities", 5, t0,
            _suite_failures(result, "delta-power-identity"))


def test_criterion_04_longest_hyperplane():
    t0 = time.monotonic()
    result = run_suite("dihedral-audit")
    _report(4, "longest-hyperplane audit m in {3,4,5}", 120, t0,
            _suite_failures(result, "longest-hyperplane"))


def test_criterion_05_abelianization():
    t0 = time.monotonic()
    result = run_suite("dihedral-audit")
    failures = _suite_failures(result, "h1-")
    _report(5, "h1 of Delta_T^2 and simplex independence", 10, t0, failures)


def test_criterion_06_subdivision_counts():
    t0 = time.monotonic()
    result = run_suite("pp-suite")
    _report(6, "braid-on-4 subdivision counts", 1, t0,
            _suite_failures(result, "braid4-"))


def test_criterion_07_pp_engine():
    t0 = time.monotonic()
    result = run_suite("pp-suite")
    failures = _suite_failures(result, "badpp") + _suite_failures(result, "path-")
    _report(7, "PP engine examples", 5, t0, failures)


def test_criterion_08_an_curves():
    t0 = time.monotonic()
    result = run_suite("an-curves")
    _report(8, "A-family curve systems n <= 7", 30, t0,
            _suite_failures(result))


def test_criterion_09_dn_curves():
    t0 = time.monotonic()
    result = run_suite("dn-curves")
    _report(9, "D-family curves: global PP holds at rank 4, fails at 5..7, "
            "split certifies", 120, t0,
            _suite_failures(result))


def test_criterion_10_lantern():
    t0 = time.monotonic()
    result = run_suite("lantern")
    _report(10, "lantern counterexample on 8 strands", 60, t0,
            _suite_failures(result))


def test_criterion_11_e7_kernel():
    t0 = time.monotonic()
    result = run_suite("e7-kernel")
    _report(11, "E_7 kernel element, three legs", 600, t0,
            _suite_failures(result))


def test_criterion_12_folding():
    t0 = time.monotonic()
    result = run_suite("folding-suite")
    _report(12, "folding: components, Psi relations, F injectivity", 300, t0,
            _suite_failures(result))
    # the injectivity sample of each fold is pinned, so no change can shrink it
    details = {c.id: c.detail for c in result.checks}
    for tags, words in ((("I2(3)", "I2(4)", "I2(5)", "I2(6)"), 312),
                        (("B3", "H3"), 4608), (("F4", "H4"), 34976)):
        for tag in tags:
            assert details["f-injective-" + tag] == (
                "%d reduced words mapped" % words)


def test_criterion_13_gtc_bounded():
    t0 = time.monotonic()
    result = run_suite("gtc-bounded")
    _report(13, "bounded injectivity certificates", 600, t0,
            _suite_failures(result))
