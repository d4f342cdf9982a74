"""Per-layer tracing from outside the program.

The tracer replaces public functions of the coxart modules by wrappers that
record a span per call (name, start, end, parent span, operation), and
replaces two hot methods by wrappers that only count.  A module-level
function is replaced in every coxart module that holds it by name, so calls
between modules are seen too.  Spans stay in memory and are written out
when the run ends.  The layer of a span is the module of its function; a
layer's self time is the time of its spans minus the time their child
spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("diagram", "folding", "nerve", "raag", "wgroup", "garside",
          "homology", "curves", "suites", "cli")

#: (module, function) -> metric key; the functions given spans.  Several
#: functions may share a key; a key's time counts only its outermost span.
SPANNED = {
    ("diagram", "finite_type"): "diagram.finite_type",
    ("diagram", "irreducible_components"): "diagram.irreducible_components",
    ("diagram", "type_diagram"): "diagram.type_diagram",
    ("diagram", "parse_diagram"): "diagram.parse_diagram",
    ("folding", "build_folded"): "folding.build_folded",
    ("folding", "psi_word"): "folding.psi_word",
    ("folding", "component_subsets"): "folding.component_subsets",
    ("folding", "f_word"): "folding.f_word",
    ("folding", "component_report"): "folding.component_report",
    ("nerve", "subdivision"): "nerve.subdivision",
    ("nerve", "complex_on_subsets"): "nerve.complex_on_subsets",
    ("nerve", "nerve"): "nerve.nerve",
    ("raag", "raag_normal_form"): "raag.normal_form",
    ("raag", "enumerate_reduced_words"): "raag.enumerate",
    ("raag", "pp_search_all"): "raag.pp_search",
    ("raag", "validate_choice"): "raag.validate_choice",
    ("raag", "generalized_pp_check"): "raag.generalized_pp_check",
    ("raag", "verify_injectivity_bounded"): "raag.injectivity",
    ("wgroup", "build_group"): "wgroup.build_group",
    ("garside", "delta_word"): "garside.delta_word",
    ("garside", "delta_power"): "garside.delta_power",
    ("homology", "h1_image"): "homology.h1_image",
    ("homology", "independence_check"): "homology.independence_check",
    ("homology", "longest_hyperplane_audit"): "homology.longest_hyperplane_audit",
    ("curves", "build_an"): "curves.build",
    ("curves", "build_dn"): "curves.build",
    ("curves", "build_e6_folded"): "curves.build",
    ("curves", "build_e8_folded"): "curves.build",
    ("curves", "build_e7_figure"): "curves.build",
    ("curves", "build_system"): "curves.build",
    ("curves", "to_word_system"): "curves.to_word_system",
    ("curves", "audit_system"): "curves.audit_system",
    ("curves", "reference_choice"): "curves.reference_choice",
    ("curves", "e7_kernel_check"): "curves.e7_kernel_check",
    ("curves", "lantern_check"): "curves.lantern_check",
    ("cli", "main"): "cli.main",
}

#: generator functions: a span covers each resumption, not the caller's work
GENERATORS = {"raag.enumerate", "raag.pp_search"}

#: coxart.suites.SUITES, repeated because the parent process imports no coxart
SUITES = ("garside-core", "tits-classic", "gtc-bounded", "dihedral-audit",
          "pp-suite", "an-curves", "dn-curves", "folding-suite", "e7-kernel",
          "lantern")


def per_layer_names():
    """The per-layer metrics a traced run reports, with unit and direction."""
    rows = [
        ("diagram.finite_type.calls", "count", "lower"),
        ("diagram.finite_type.s", "s", "lower"),
        ("diagram.irreducible_components.calls", "count", "lower"),
        ("diagram.irreducible_components.s", "s", "lower"),
        ("diagram.neighbors.calls", "count", "lower"),
        ("folding.f_word.calls", "count", "lower"),
        ("folding.f_word.s", "s", "lower"),
        ("folding.component_subsets.calls", "count", "lower"),
        ("folding.component_subsets.s", "s", "lower"),
        ("folding.words_mapped", "count", "higher"),
        ("folding.component_subsets_per_word", "count/word", "lower"),
        ("nerve.subdivision.calls", "count", "lower"),
        ("nerve.subdivision.s", "s", "lower"),
        ("nerve.complex_on_subsets.s", "s", "lower"),
        ("raag.normal_form.calls", "count", "lower"),
        ("raag.normal_form.s", "s", "lower"),
        ("raag.syllables_in", "count", "higher"),
        ("raag.syllables_per_s", "1/s", "higher"),
        ("raag.enumerate.words", "count", "higher"),
        ("raag.enumerate.s", "s", "lower"),
        ("raag.pp_search.calls", "count", "lower"),
        ("raag.pp_search.s", "s", "lower"),
        ("raag.pp_maps_yielded", "count", "higher"),
        ("raag.injectivity.words_checked", "count", "higher"),
        ("raag.injectivity.slow_path_words", "count", "lower"),
        ("raag.injectivity.slow_path_ratio", "ratio", "lower"),
        ("wgroup.build_group.calls", "count", "lower"),
        ("wgroup.build_group.s", "s", "lower"),
        ("wgroup.compose.calls", "count", "lower"),
        ("garside.normal_form.calls", "count", "lower"),
        ("garside.normal_form.s", "s", "lower"),
        ("garside.positive.letters", "count", "higher"),
        ("garside.positive.letters_per_s", "1/s", "higher"),
        ("garside.mixed.letters", "count", "higher"),
        ("garside.mixed.letters_per_s", "1/s", "higher"),
        ("garside.canon_factors", "count", "lower"),
        ("homology.h1_image.calls", "count", "lower"),
        ("homology.h1_image.s", "s", "lower"),
        ("homology.independence_check.s", "s", "lower"),
        ("curves.build.s", "s", "lower"),
        ("curves.audit_system.s", "s", "lower"),
        ("curves.reference_choice.s", "s", "lower"),
        ("curves.e7_kernel_check.s", "s", "lower"),
        ("curves.lantern_check.s", "s", "lower"),
    ]
    rows += [("suites.%s.s" % s, "s", "lower") for s in SUITES]
    rows += [("cli.main.calls", "count", "lower"), ("cli.main.s", "s", "lower")]
    rows += [("%s.self_s" % layer, "s", "lower") for layer in LAYERS]
    return rows


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans = []  # (id, parent id, operation, key, start, end)
        self.stack = []  # [id, key, start, child seconds]
        self.depth = Counter()  # key -> spans of that key open
        self.inclusive = defaultdict(float)  # key -> outermost span seconds
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.counts = Counter()
        self.sums = defaultdict(float)
        self.operation = None
        self._originals = []

    # -- spans ----------------------------------------------------------

    def enter(self, key):
        self.depth[key] += 1
        self.stack.append([len(self.spans) + len(self.stack), key,
                           time.perf_counter(), 0.0])

    def exit(self):
        end = time.perf_counter()
        span_id, key, start, child = self.stack.pop()
        duration = end - start
        self.depth[key] -= 1
        if not self.depth[key]:
            self.inclusive[key] += duration
        self.self_s[key.split(".", 1)[0]] += duration - child
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][3] += duration
        self.spans.append((span_id, parent, self.operation, key, start, end))
        return duration

    def _span(self, key, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key + ".calls"] += 1
            tracer.enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(tracer, args, result)
            return result
        return wrapper

    def _generator(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key + ".calls"] += 1
            inner = fn(*args, **kwargs)
            while True:
                tracer.enter(key)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                tracer.counts[key + ".yielded"] += 1
                yield item
        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ---------------------------------------------------

    def _replace(self, owner, name, new):
        self._originals.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self):
        """Wrap the coxart functions; every coxart module must be imported."""
        mods = {name[len("coxart."):]: mod for name, mod in sys.modules.items()
                if name.startswith("coxart.")}
        holders = [sys.modules["coxart"]] + list(mods.values())
        after = {
            "raag.normal_form": _after_raag_nf,
            "raag.injectivity": _after_injectivity,
            "folding.f_word": _after_f_word,
            "folding.component_subsets": _after_component_subsets,
        }
        for (layer, fname), key in SPANNED.items():
            original = getattr(mods[layer], fname)
            if key in GENERATORS:
                wrapped = self._generator(key, original)
            else:
                wrapped = self._span(key, original, after.get(key))
            for holder in holders:
                if holder.__dict__.get(fname) is original:
                    self._replace(holder, fname, wrapped)
        suites, cli = mods["suites"], mods["cli"]
        run_suite = self._span_by_name(suites.run_suite)
        for holder in (suites, cli):
            self._replace(holder, "run_suite", run_suite)
        self._replace(mods["garside"].ArtinEngine, "normal_form",
                      self._garside_nf(mods["garside"].ArtinEngine.normal_form))
        self._replace(mods["wgroup"].WGroup, "compose",
                      self._count("wgroup.compose.calls", mods["wgroup"].WGroup.compose))
        self._replace(mods["diagram"].CoxeterDiagram, "neighbors",
                      self._count("diagram.neighbors.calls",
                                  mods["diagram"].CoxeterDiagram.neighbors))

    def uninstall(self):
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def _span_by_name(self, run_suite):
        tracer = self

        @functools.wraps(run_suite)
        def wrapper(name, config=None):
            tracer.enter("suites.%s" % name)
            try:
                return run_suite(name, config)
            finally:
                tracer.exit()
        return wrapper

    def _garside_nf(self, normal_form):
        tracer = self

        @functools.wraps(normal_form)
        def wrapper(engine, word):
            word = list(word)
            signs = {e > 0 for _, e in word if e}
            letters = sum(abs(e) for _, e in word)
            tracer.counts["garside.normal_form.calls"] += 1
            tracer.enter("garside.normal_form")
            try:
                result = normal_form(engine, word)
            finally:
                duration = tracer.exit()
            kind = "mixed" if len(signs) == 2 else "positive" if signs == {True} else None
            if kind:
                tracer.counts["garside.%s.letters" % kind] += letters
                tracer.sums["garside.%s.s" % kind] += duration
            tracer.counts["garside.canon_factors"] += len(result.canon)
            return result
        return wrapper

    # -- output ---------------------------------------------------------

    def metrics(self):
        """Every per-layer metric, 0 where the layer did no such work."""
        c, incl, sums = self.counts, self.inclusive, self.sums

        def ratio(a, b):
            return a / b if b else 0.0

        values = {}
        for name, unit, _ in per_layer_names():
            if name.endswith(".calls"):
                value = c[name]
            elif name.endswith(".self_s"):
                value = self.self_s[name[: -len(".self_s")]]
            elif name.endswith(".s"):
                value = incl[name[: -len(".s")]]
            else:
                value = None
            values[name] = value
        values.update({
            "folding.words_mapped": c["folding.words_mapped"],
            "folding.component_subsets_per_word": ratio(
                c["folding.component_subsets_in_f_word"], c["folding.words_mapped"]),
            "raag.syllables_in": c["raag.syllables_in"],
            "raag.syllables_per_s": ratio(c["raag.syllables_in"], incl["raag.normal_form"]),
            "raag.enumerate.words": c["raag.enumerate.yielded"],
            "raag.pp_maps_yielded": c["raag.pp_search.yielded"],
            "raag.injectivity.words_checked": c["raag.injectivity.words_checked"],
            "raag.injectivity.slow_path_words": c["raag.injectivity.slow_path_words"],
            "raag.injectivity.slow_path_ratio": ratio(
                c["raag.injectivity.slow_path_words"], c["raag.injectivity.words_checked"]),
            "garside.positive.letters": c["garside.positive.letters"],
            "garside.positive.letters_per_s": ratio(
                c["garside.positive.letters"], sums["garside.positive.s"]),
            "garside.mixed.letters": c["garside.mixed.letters"],
            "garside.mixed.letters_per_s": ratio(
                c["garside.mixed.letters"], sums["garside.mixed.s"]),
            "garside.canon_factors": c["garside.canon_factors"],
        })
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _ in per_layer_names()}

    def write(self, path, summary):
        """The spans, one JSON array per line, after a summary line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(summary) + "\n")
            fh.write(json.dumps(["id", "parent", "operation", "name",
                                 "start_s", "end_s"]) + "\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def _after_raag_nf(tracer, args, result):
    tracer.counts["raag.syllables_in"] += len(args[1])


def _after_injectivity(tracer, args, result):
    tracer.counts["raag.injectivity.words_checked"] += result.words_checked
    tracer.counts["raag.injectivity.slow_path_words"] += result.slow_path_checked


def _after_f_word(tracer, args, result):
    tracer.counts["folding.words_mapped"] += 1


def _after_component_subsets(tracer, args, result):
    if tracer.depth["folding.f_word"]:
        tracer.counts["folding.component_subsets_in_f_word"] += 1
