"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its runtime against the stated budget.

Criterion 9 asserts the true global-PP statement at each rank of type D:
at rank 4 every curve intersection is forced by the stated disjointness
constraints and exactly three global choice maps exist; from rank 5 on no
global map exists; the r/r' split certifies at every rank (see
DECISIONS.md, entry D-1).
"""

import hashlib
import json
import time

from coxart.suites import run_suite

#: sha256 of each suite's JSON (`to_json()`, keys sorted), so a change that
#: alters any suite's output, a detail string included, fails here
SUITE_DIGESTS = {
    "garside-core":
        "1af5cd6c9cd067ed252bde63538edc70db41ec3bf1be4f0ab5dc0e8df25e9d34",
    "tits-classic":
        "801798d9a5f167fbfd0a27fd2dd746c8ff860a41c14c95bbfbbf13d3fa11c6b6",
    "gtc-bounded":
        "5357b3d4f58d23af05480f7bff5fb15ee8443ec1737807a28f686d4775d0abb3",
    "dihedral-audit":
        "39e019b0b5a17b70c5eee1859be749d97f587860ff1d0a75f37ec8e0470864aa",
    "pp-suite":
        "5ce1b95d6f17d20e24ad1f633c678e8f0d50e2b5b5c22acf89d4e284511194f9",
    "an-curves":
        "3e28c730aef1c009755c63971c421a407f5ade3e82eeba4566aa119f2fdfbdb1",
    "dn-curves":
        "7c257fe720f48c75d73d89481351101e79eb1cc4eb8776a735ab48151d62ef12",
    "folding-suite":
        "f9f4f774e6bd54bca60de2a28ec83f4bb4367cde4092ea96f6e7e1160800debf",
    "e7-kernel":
        "f7cd5ceae33725f0bbfcdbd71bc4736dbd930e466e320f62a361f0686d366970",
    "lantern":
        "464a1fe149a6ba089360db715dbdd49d4d9b4e36c97ed8d13f7d7c86616cdf75",
}


def _report(num, label, budget, started, failures):
    elapsed = time.monotonic() - started
    status = "PASS" if not failures else "FAIL"
    print(
        "[criterion %02d] %s %s (%.1fs < %ds)"
        % (num, status, label, elapsed, budget)
    )
    assert not failures, "; ".join(failures)
    assert elapsed < budget, "budget exceeded: %.1fs" % elapsed


def _assert_pinned(result):
    text = json.dumps(result.to_json(), sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == SUITE_DIGESTS[result.suite], (
        "%s output changed: %s" % (result.suite, text))


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
    _assert_pinned(result)


def test_criterion_02_tits_classic():
    t0 = time.monotonic()
    result = run_suite("tits-classic")
    _report(2, "classic Tits spot checks", 5, t0, _suite_failures(result))
    _assert_pinned(result)


def test_criterion_03_dihedral_identities():
    t0 = time.monotonic()
    result = run_suite("dihedral-audit")
    _report(3, "dihedral word identities", 5, t0,
            _suite_failures(result, "delta-power-identity"))
    _assert_pinned(result)


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
    _assert_pinned(result)


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
    _assert_pinned(result)


def test_criterion_09_dn_curves():
    t0 = time.monotonic()
    result = run_suite("dn-curves")
    _report(9, "D-family curves: global PP holds at rank 4, fails at 5..7, "
            "split certifies", 120, t0,
            _suite_failures(result))
    _assert_pinned(result)


def test_criterion_10_lantern():
    t0 = time.monotonic()
    result = run_suite("lantern")
    _report(10, "lantern counterexample on 8 strands", 60, t0,
            _suite_failures(result))
    _assert_pinned(result)


def test_criterion_11_e7_kernel():
    t0 = time.monotonic()
    result = run_suite("e7-kernel")
    _report(11, "E_7 kernel element, three legs", 600, t0,
            _suite_failures(result))
    _assert_pinned(result)


def test_criterion_12_folding():
    t0 = time.monotonic()
    result = run_suite("folding-suite")
    _report(12, "folding: components, Psi relations, F injectivity", 300, t0,
            _suite_failures(result))
    _assert_pinned(result)
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
    _assert_pinned(result)
