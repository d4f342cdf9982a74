"""The three workloads: the Coxeter types each sets up, the operations of one
round (with their inputs made from the seed), and the independent checks of
their outputs.

An operation is (name, run, observe).  `run(state)` is the timed call into
coxart and returns its raw result; `state` is a fresh dict per round, so
each round rebuilds its engines and their caches.  `observe(raw)` turns the
result into plain data outside the timed region.  `check` and its helpers
run in the parent process on that data and import no coxart.

coxart is imported inside the functions that run in the worker, so the
parent can import this module without it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import re

import oracles

#: word length of the folding suite's injectivity sample.  The suite's own
#: default, 4, takes about 70 s per round on the reference machine: more than
#: the whole run budget allows; see README.md.
FOLD_MAX_LEN = 3
FOLD_TAGS = ("I2(3)", "I2(4)", "I2(5)", "I2(6)", "B3", "H3", "F4", "H4")

#: the spherical catalogue: RANK4_TYPES of the suites plus larger types
CATALOGUE = (
    ("A", 1, None), ("A", 2, None), ("A", 3, None), ("A", 4, None),
    ("B", 2, None), ("B", 3, None), ("B", 4, None), ("D", 4, None),
    ("F", 4, None), ("G", 2, None), ("H", 2, None), ("H", 3, None),
    ("H", 4, None), ("I", 2, 7),
    ("D", 5, None), ("D", 6, None), ("A", 7, None),
    ("E", 6, None), ("E", 7, None), ("E", 8, None),
)
DELTA_POWERS = (1, 2, 4, 8)  # k in Delta^(2k)
COMMUTE_TYPES = (("E8", ("E", 8, None)), ("H4", ("H", 4, None)))

CONJ_POWERS = (1, 2)  # N in Delta_E7^(2N) x_g Delta_E7^(-2N) inside E8
CONJ_GENERATORS = ("s7", "s6")  # s7 is outside E7 = E8 - s7; s6 is in it
RAAG_TYPES = (("A7", ("A", 7, None)), ("D6", ("D", 6, None)), ("E7", ("E", 7, None)))
RAAG_SYLLABLES = (400, 1600)
IDEMPOTENCY_SYLLABLES = 400
AN_RANKS = (10, 14, 18, 22)
DN_RANKS = (8, 10, 12, 14)

#: Coxeter types whose groups each workload builds, the components of its
#: parabolic subgroups included; set-up builds them all.  coxart caches root
#: models by type, so a type left out would be built inside the first round
#: and make it slower than the others.
SETUP_TYPES = {
    "fold-inject": (
        ("A", 2, None), ("A", 3, None), ("A", 4, None), ("A", 5, None),
        ("D", 4, None), ("D", 6, None), ("E", 6, None), ("E", 8, None),
    ),
    "garside-catalogue": CATALOGUE + (
        ("I", 2, 3), ("I", 2, 4), ("I", 2, 5),
        ("A", 5, None), ("A", 6, None), ("D", 7, None),
    ),
    "raag-substitution": (
        ("A", 1, None), ("A", 2, None), ("A", 3, None), ("A", 5, None),
        ("D", 5, None), ("D", 6, None), ("I", 2, 4), ("I", 2, 5),
        ("A", 7, None), ("E", 7, None), ("E", 8, None),
    ),
}

WORKLOADS = tuple(SETUP_TYPES)


def setup(name):
    """Import coxart and build every group the workload uses."""
    import coxart
    import coxart.cli
    import coxart.curves
    import coxart.folding
    import coxart.suites

    for family, rank, p in SETUP_TYPES[name]:
        coxart.build_group(coxart.type_diagram(family, rank, p))


def _tag(family, rank, p):
    return "%s%d%s" % (family, rank, "(%d)" % p if p else "")


# -- operations (worker side) --------------------------------------------------

def _suite(name, config=None):
    from coxart import cli

    argv = ["verify", name, "--json"]
    if config:
        argv += ["--config", json.dumps(config)]

    def run(state):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def observe(raw):
        code, text = raw
        doc = json.loads(text)
        return {"kind": "suite", "suite": name, "exit": code, "ok": doc["ok"],
                "checks": [[c["id"], c["status"], c["detail"]] for c in doc["checks"]]}
    return "suite:" + name, run, observe


def _engine(state, family, rank, p=None):
    from coxart import garside, wgroup
    from coxart.diagram import type_diagram

    key = (family, rank, p)
    if key not in state:
        diagram = type_diagram(family, rank, p)
        state[key] = diagram, garside.ArtinEngine(wgroup.build_group(diagram))
    return state[key]


def _positive(family, rank, p):
    from coxart import garside

    def run(state):
        diagram, eng = _engine(state, family, rank, p)
        nfs = [eng.normal_form(garside.delta_word(diagram, diagram.vertices, 2 * k))
               for k in DELTA_POWERS]
        return eng.w.n_pos, nfs

    def observe(raw):
        n_pos, nfs = raw
        return {"kind": "positive", "type": [family, rank, p], "n_pos": n_pos,
                "powers": [[k, nf.inf, len(nf.canon)] for k, nf in zip(DELTA_POWERS, nfs)]}
    return "positive:" + _tag(family, rank, p), run, observe


def _commutes(name, typ, subset):
    from coxart import garside

    def run(state):
        diagram, eng = _engine(state, *typ)
        delta_sq = garside.delta_word(diagram, subset, 2)
        return {s: eng.commutes(delta_sq, [(s, 1)]) for s in diagram.vertices}

    def observe(raw):
        return {"kind": "commutes", "diagram": name, "T": sorted(subset), "commutes": raw}
    return "commutes:%s:%s" % (name, "+".join(sorted(subset))), run, observe


def _h1(name, typ, subset):
    from coxart import garside, homology

    def run(state):
        diagram, eng = _engine(state, *typ)
        return homology.h1_image(eng.w, garside.delta_word(diagram, subset, 2))

    def observe(raw):
        return {"kind": "h1", "diagram": name, "T": sorted(subset),
                "coefficients": sorted(raw.as_dict().values())}
    return "h1:%s:%s" % (name, "+".join(sorted(subset))), run, observe


def _conjugation(n_power, g):
    from coxart import garside

    def run(state):
        diagram, eng = _engine(state, "E", 8)
        e7 = [v for v in diagram.vertices if v != "s7"]
        word = (garside.delta_word(diagram, e7, 2 * n_power) + [(g, 1)]
                + garside.delta_word(diagram, e7, -2 * n_power))
        return eng, eng.normal_form(word), sum(abs(e) for _, e in word)

    def observe(raw):
        eng, nf, letters = raw
        return {"kind": "conjugation", "N": n_power, "g": g, "letters": letters,
                "inf": nf.inf, "canon": [list(eng.w.reduced_word(u)) for u in nf.canon]}
    return "conjugation:N%d:%s" % (n_power, g), run, observe


def random_raag_word(rng, vertices, syllables):
    """Syllables (v, e) with e in {+-1, +-2} and no two neighbours equal."""
    word = []
    while len(word) < syllables:
        v = rng.choice(vertices)
        if word and word[-1][0] == v:
            continue
        word.append((v, rng.choice((1, -1, 2, -2))))
    return word


def disguise(rng, word, adjacent):
    """The same element, written differently: random swaps of adjacent
    commuting syllables, then cancelling pairs x^e ... x^-e inserted around
    runs of letters that commute with x."""
    word = list(word)
    vertices = sorted({v for v, _ in word})
    for _ in range(len(word)):
        i = rng.randrange(len(word) - 1)
        if adjacent(word[i][0], word[i + 1][0]):
            word[i], word[i + 1] = word[i + 1], word[i]
    for _ in range(len(word) // 8):
        x = rng.choice(vertices)
        e = rng.choice((1, -1, 2, -2))
        i = rng.randrange(len(word) + 1)
        j = i
        while j < len(word) and adjacent(word[j][0], x) and rng.random() < 0.8:
            j += 1
        word[j:j] = [(x, -e)]
        word[i:i] = [(x, e)]
    return word


def _raag_word(name, cx, syllables, seed):
    from coxart import raag

    rng = random.Random("%s:%s:%d" % (seed, name, syllables))
    word = random_raag_word(rng, list(cx.vertices), syllables)
    disguised = disguise(rng, word, cx.adjacent)

    def run(state):
        nf = raag.raag_normal_form(cx, word)
        # idempotency on the short words only: at 1600 syllables it would add
        # a quarter to the round, and the disguised copy already re-derives nf
        again = raag.raag_normal_form(cx, nf) if syllables <= IDEMPOTENCY_SYLLABLES else None
        return (nf, again, raag.raag_normal_form(cx, disguised),
                raag.raag_normal_form(cx, word + raag.raag_inverse(word)))

    def observe(raw):
        nf, again, of_disguised, of_w_winv = raw
        return {"kind": "raag-word", "complex": name, "word": word, "disguised": disguised,
                "nf": nf, "nf_of_nf": again, "nf_of_disguised": of_disguised,
                "nf_of_w_winv": of_w_winv}
    return "raag-word:%s:%d" % (name, syllables), run, observe


def _word_system_data(ws):
    cx = ws.complex
    curves = list(cx.vertices)
    return {
        "curves": curves,
        "intersections": [[a, b] for i, a in enumerate(curves) for b in curves[i + 1:]
                          if not cx.adjacent(a, b)],
        "simplices": [sorted(s) for s in ws.simplices()],
    }


def _pp_an(n):
    from coxart import curves, raag

    def run(state):
        ws = curves.to_word_system(curves.build_an(n))
        return ws, raag.pp_search(ws)

    def observe(raw):
        ws, found = raw
        return dict(_word_system_data(ws), kind="pp-an", rank=n,
                    choice=None if found is None else found.to_json())
    return "pp-an:%d" % n, run, observe


def _split_dn(n):
    from coxart import curves

    def run(state):
        system = curves.build_dn(n)
        return curves.to_word_system(system), curves.reference_choice(system)

    def observe(raw):
        ws, ref = raw
        return dict(_word_system_data(ws), kind="split-dn", rank=n, result=ref.kind,
                    global_pp_found=ref.global_pp_found, sides=ref.by_subset)
    return "split-dn:%d" % n, run, observe


def operations(name, seed):
    """The operations of one round of the workload, inputs made from seed,
    and plain-data copies of the complexes its RAAG words live on."""
    if name == "fold-inject":
        return [_suite("folding-suite", {"f_max_len": FOLD_MAX_LEN})], {}
    if name == "garside-catalogue":
        ops = [_suite(s) for s in ("garside-core", "tits-classic", "dihedral-audit")]
        ops += [_positive(*t) for t in CATALOGUE]
        for dname, typ in COMMUTE_TYPES:
            vertices, labels = oracles.DIAGRAMS[dname]
            subsets = oracles.connected_subsets(vertices, labels)
            ops += [_commutes(dname, typ, t) for t in subsets]
            ops += [_h1(dname, typ, t) for t in subsets]
        return ops, {}
    if name == "raag-substitution":
        from coxart.diagram import type_diagram

        # the package exports a function named nerve over the module's name
        nerve = importlib.import_module("coxart.nerve")

        ops = [_suite(s) for s in ("gtc-bounded", "pp-suite", "an-curves", "dn-curves",
                                   "e7-kernel", "lantern")]
        ops += [_conjugation(n, g) for n in CONJ_POWERS for g in CONJ_GENERATORS]
        docs = {}
        for cname, typ in RAAG_TYPES:
            cx = nerve.subdivision(type_diagram(*typ)).complex
            ops += [_raag_word(cname, cx, n, seed) for n in RAAG_SYLLABLES]
            docs[cname] = {"vertices": list(cx.vertices),
                           "edges": sorted(sorted(e) for e in cx.edges)}
        ops += [_pp_an(n) for n in AN_RANKS]
        ops += [_split_dn(n) for n in DN_RANKS]
        return ops, docs
    raise KeyError(name)


# -- checks (parent side) -------------------------------------------------------

def _check_suite(obs):
    """A failed check is a failed operation, counted by the worker; here
    only the suite's own summary must agree with its checks."""
    passed = all(c[1] == "pass" for c in obs["checks"])
    if not obs["checks"]:
        return ["%s ran no checks" % obs["suite"]]
    if (obs["exit"] == 0) != passed or obs["ok"] != passed:
        return ["%s: exit %d and ok=%s disagree with its checks"
                % (obs["suite"], obs["exit"], obs["ok"])]
    return []


def _check_folding(obs):
    defects = []
    ids = {c[0] for c in obs["checks"]}
    details = {c[0]: c[2] for c in obs["checks"] if c[1] == "pass"}
    for tag in FOLD_TAGS:
        wanted = ("f-injective-" + tag, "fold-components-" + tag)
        defects += ["folding-suite ran no check %s" % i for i in wanted if i not in ids]
        if not all(i in details for i in wanted):
            continue  # missing, or failed and counted as a failed operation
        vertices, labels = oracles.DIAGRAMS[tag]
        want = oracles.growth_count(
            oracles.clique_polynomial(oracles.subdivision_graph(vertices, labels)),
            FOLD_MAX_LEN)
        m = re.match(r"(\d+) reduced words mapped", details.get("f-injective-" + tag, ""))
        if not m or int(m.group(1)) != want:
            defects.append("f-injective-%s: %r, growth series gives %d"
                           % (tag, details.get("f-injective-" + tag), want))
        m = re.match(r"components \[(.*)\], h=(\d+)", details.get("fold-components-" + tag, ""))
        h = oracles.FOLD_SOURCE_H[tag]
        tags = re.findall(r"'(\w+)'", m.group(1)) if m else []
        if not m or int(m.group(2)) != h or not tags or any(
                oracles.coxeter_number_of_tag(t) != h for t in tags):
            defects.append("fold-components-%s: %r, source has h=%d"
                           % (tag, details.get("fold-components-" + tag), h))
    return defects


def _check_positive(obs):
    family, rank, p = obs["type"]
    defects = oracles.root_count_defects(family, rank, p, obs["n_pos"])
    for k, inf, tail in obs["powers"]:
        if inf != 2 * k or tail:
            defects.append("%s: Delta^%d has inf %d and %d tail factors"
                           % (_tag(family, rank, p), 2 * k, inf, tail))
    return defects


def _check_commutes(obs):
    _, labels = oracles.DIAGRAMS[obs["diagram"]]
    subset = frozenset(obs["T"])
    return ["%s: commutes(Delta_T^2, x_%s) = %s for T=%s" % (obs["diagram"], s, got, obs["T"])
            for s, got in obs["commutes"].items()
            if got != oracles.commutes_rule(labels, subset, s)]


def _check_h1(obs):
    _, labels = oracles.DIAGRAMS[obs["diagram"]]
    want = oracles.positive_root_count(*oracles.classify(frozenset(obs["T"]), labels))
    coeffs = obs["coefficients"]
    if coeffs != [1] * want:
        return ["%s: h1(Delta_T^2) for T=%s has coefficients %s, expected %d ones"
                % (obs["diagram"], obs["T"], coeffs, want)]
    return []


def _check_conjugation(obs):
    is_xg = obs["inf"] == 0 and obs["canon"] == [[obs["g"]]]
    central = obs["g"] != "s7"
    if is_xg != central:
        return ["Delta_E7^%d x_%s Delta_E7^-%d has normal form (%d, %s)" % (
            2 * obs["N"], obs["g"], 2 * obs["N"], obs["inf"], obs["canon"])]
    return []


def _adjacency(doc):
    edges = {frozenset(e) for e in doc["edges"]}
    return lambda a, b: a != b and frozenset((a, b)) in edges


def _check_complex(name, doc):
    """The program's subdivision against the benchmark's own."""
    vertices, labels = oracles.DIAGRAMS[name]
    graph = oracles.subdivision_graph(vertices, labels)
    got_vertices = {frozenset(v.split("+")) for v in doc["vertices"]}
    got_edges = {frozenset(frozenset(v.split("+")) for v in e) for e in doc["edges"]}
    want_edges = {frozenset(e) for e in graph.edges}
    if got_vertices != set(graph.nodes) or got_edges != want_edges:
        return ["subdivision of %s differs from the independent construction" % name]
    return []


def _check_raag_word(obs, adjacent):
    word = [tuple(s) for s in obs["word"]]
    nf = [tuple(s) for s in obs["nf"]]
    tag = "%s word of %d syllables" % (obs["complex"], len(word))
    defects = ["%s: %s" % (tag, d) for d in oracles.raag_defects(adjacent, word, nf)]
    disguised = [tuple(s) for s in obs["disguised"]]
    defects += ["%s, disguised: %s" % (tag, d)
                for d in oracles.raag_defects(adjacent, disguised, nf)]
    if obs["nf_of_nf"] is not None and obs["nf_of_nf"] != obs["nf"]:
        defects.append("%s: the normal form is not idempotent" % tag)
    if obs["nf_of_disguised"] != obs["nf"]:
        defects.append("%s: commutation moves and cancelling pairs change the normal form" % tag)
    if obs["nf_of_w_winv"]:
        defects.append("%s: w w^-1 does not normalise to the empty word" % tag)
    return defects


def _curve_adjacency(obs):
    meets = {frozenset(p) for p in obs["intersections"]}
    return lambda a, b: a != b and frozenset((a, b)) not in meets


def _choice(doc):
    return {frozenset(k.split("+")): v for k, v in doc.items()}


def _check_pp_an(obs):
    if obs["choice"] is None:
        return ["A_%d: no Property PP map found" % obs["rank"]]
    simplices = [frozenset(s) for s in obs["simplices"]]
    return ["A_%d: %s" % (obs["rank"], d) for d in
            oracles.pp_defects(simplices, _curve_adjacency(obs), _choice(obs["choice"]))]


def _check_split_dn(obs):
    n = obs["rank"]
    if obs["global_pp_found"] or obs["result"] != "split":
        return ["D_%d: global PP found=%s, result %s" % (n, obs["global_pp_found"], obs["result"])]
    curves = set(obs["curves"])
    # the r-versus-r' split: side 1 drops the primed r curves, side 2 the others
    primed_r = {c for c in curves if c.startswith("r") and c.endswith("'")}
    plain_r = {c for c in curves if c.startswith("r") and not c.endswith("'")}
    sides = (curves - primed_r, curves - plain_r)
    l0 = sides[0] & sides[1]
    adjacent = _curve_adjacency(obs)
    defects = []
    for label, side in zip(("side1", "side2"), sides):
        simplices = [frozenset(s) for s in obs["simplices"] if set(s) <= side]
        choice = _choice(obs["sides"][label])
        defects += ["D_%d %s: %s" % (n, label, d) for d in
                    oracles.pp_defects(simplices, adjacent, choice)
                    + oracles.avoidance_defects(simplices, l0, choice)]
    return defects


_CHECKS = {
    "positive": _check_positive,
    "commutes": _check_commutes,
    "h1": _check_h1,
    "conjugation": _check_conjugation,
    "pp-an": _check_pp_an,
    "split-dn": _check_split_dn,
}


def check(name, observations, complexes_doc):
    """Defects found in one round's observations of the workload."""
    defects = []
    adjacency = {}
    for cname, doc in complexes_doc.items():
        defects += _check_complex(cname, doc)
        adjacency[cname] = _adjacency(doc)
    for obs in observations:
        if "error" in obs:
            continue  # a failed operation, counted as failed, not as wrong
        kind = obs["kind"]
        if kind == "suite":
            defects += _check_suite(obs)
            if obs["suite"] == "folding-suite":
                defects += _check_folding(obs)
        elif kind == "raag-word":
            defects += _check_raag_word(obs, adjacency[obs["complex"]])
        else:
            defects += _CHECKS[kind](obs)
    return defects
