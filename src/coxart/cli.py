"""Command-line front end.

Exit codes: 0 all good, 1 a verification check failed, 2 usage or
resource-budget error, 141 (128 + SIGPIPE) the reader closed the output.
The subcommands that print a verdict or a value take --json for machine
output; the others print JSON or dot already.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .curves import FAMILIES, build_system
from .diagram import DiagramError, finite_type, name_subset, parse_diagram, read_int
from .folding import build_folded
from .garside import (DEFAULT_LETTER_BUDGET, RUN_BUDGET, ArtinEngine, BudgetExceeded,
                      check_budget, letter_budget, parse_word)
from .homology import h1_image, reflection_labels
from .nerve import DEFAULT_MAX_RANK, nerve, subdivision
from .raag import RaagError, WordSystem, complex_from_json, generalized_pp_check, pp_search
from .suites import SUITES, run_suite
from .wgroup import build_group


def _load_diagram(spec):
    """A diagram from a file path or inline source text.  Every line of
    diagram text has two tokens or more, so a single token that does not
    parse names a file that is missing."""
    if os.path.exists(spec):
        with open(spec) as fh:
            return parse_diagram(fh.read())
    try:
        return parse_diagram(spec)
    except DiagramError:
        if len(spec.split()) == 1:
            raise DiagramError("no such file %r" % spec) from None
        raise


def _load_group(spec):
    """The Coxeter group of a diagram argument.  A group of more roots
    (2|Phi+|) than the letter budget is refused before it is built, once it
    is past the default budget too: a smaller budget bounds words only."""
    diagram = _load_diagram(spec)
    roots = 2 * sum(c.reflection_count for c in finite_type(diagram).components)
    if roots > DEFAULT_LETTER_BUDGET:
        check_budget("coxeter group", roots, "group of %d roots")
    return build_group(diagram)


def _emit(args, doc, text):
    out = json.dumps(doc, indent=2, sort_keys=True) if args.json else text
    print(out)


def cmd_nf(args):
    eng = ArtinEngine(_load_group(args.group))
    nf = eng.normal_form(parse_word(args.word, eng.w.gens))
    canon = ["".join(eng.w.reduced_word(u)) for u in nf.canon]
    _emit(args, {"inf": nf.inf, "canon": canon},
          "inf=%d; canon=%s" % (nf.inf, "|".join(canon)))
    return 0


def cmd_commute(args):
    eng = ArtinEngine(_load_group(args.group))
    result = eng.commutes(parse_word(args.w1, eng.w.gens),
                          parse_word(args.w2, eng.w.gens))
    _emit(args, {"commute": result}, "commute" if result else "do not commute")
    return 0


def cmd_h1(args):
    group = _load_group(args.group)
    vec = h1_image(group, parse_word(args.word, group.gens))
    labels = reflection_labels(group, [r for r, _ in vec.coeffs])
    entries = {label: c for label, (_, c) in zip(labels, vec.coeffs)}
    if len(entries) < len(labels):
        clash = next(label for i, label in enumerate(labels) if label in labels[:i])
        raise ValueError("two reflections print as %r; rename the generators" % clash)
    text = " ".join("%s:%d" % (k, v) for k, v in sorted(entries.items()))
    _emit(args, {"coefficients": entries}, text or "0")
    return 0


def cmd_fold(args):
    fold = build_folded(_load_diagram(args.diagram))
    print(json.dumps(fold.to_json(), indent=2, sort_keys=True))
    return 0


def cmd_curves(args):
    system = build_system(args.family, args.rank)
    if args.out == "dot":
        print(system.complex.to_dot("curves"))
    else:
        print(json.dumps(system.to_json(), indent=2, sort_keys=True))
    return 0


def cmd_pp_check(args):
    with open(args.words) as fh:
        doc = json.load(fh)
    cx = complex_from_json(doc)
    words = doc.get("words", {})
    if not isinstance(words, dict) or not all(isinstance(w, str) for w in words.values()):
        raise RaagError("'words' must map simplex names to word strings")
    system = WordSystem(cx, {name_subset(key): parse_word(val, cx.vertices)
                             for key, val in words.items()})
    if args.split:
        l1, l2 = (part.split(",") for part in args.split)
        verdict = generalized_pp_check(system, l1, l2)
        result = {
            "certified": verdict.certified,
            "reason": verdict.reason,
            "conclusion": verdict.conclusion,
        }
        if verdict.split:
            result["choices"] = [cm.to_json() for cm in verdict.split]
        _emit(args, result, "%s -- %s" % (
            "certified" if verdict.certified else "refuted", verdict.reason))
        return 0 if verdict.certified else 1
    found = pp_search(system)
    if found is None:
        _emit(args, {"pp": False}, "no Property PP choice exists")
        return 1
    _emit(args, {"pp": True, "choice": found.to_json()},
          "PP choice: %s" % found.to_json())
    return 0


def cmd_verify(args):
    config = {}
    if args.config:
        try:
            if os.path.exists(args.config):
                with open(args.config) as fh:
                    config = json.load(fh)
            else:
                config = json.loads(args.config)
        except json.JSONDecodeError as exc:
            raise ValueError("--config is not valid JSON: %s" % exc) from None
        if not isinstance(config, dict):
            raise ValueError("--config must be a JSON object, got %s"
                             % type(config).__name__)
    result = run_suite(args.suite, config)
    _emit(args, result.to_json(), result.to_text())
    return result.exit_code


def cmd_export(args):
    if args.what == "nerve" and args.format == "dot":
        raise DiagramError("nerve export supports json only")
    diagram = _load_diagram(args.diagram)
    if args.what == "nerve":
        obj = nerve(diagram, max_rank=args.max_rank)
        print(json.dumps(obj.to_json(), indent=2, sort_keys=True))
    else:
        sub = subdivision(diagram, max_rank=args.max_rank)
        if args.format == "dot":
            print(sub.complex.to_dot("subdivision"))
        else:
            print(json.dumps(sub.to_json(), indent=2, sort_keys=True))
    return 0


def _integer(text):
    """An integer flag, read as diagram.read_int reads a token, else a usage
    error naming the flag."""
    value = read_int(text)
    if value is None:
        raise argparse.ArgumentTypeError("must be an integer, got %r" % text)
    return value


def _budget(text):
    """The --budget flag: an integer >= 1, else a usage error naming it."""
    value = read_int(text)
    if value is None or value < 1:
        raise argparse.ArgumentTypeError("must be an integer >= 1, got %r" % text)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coxart",
        description="Exact computations in Artin and Coxeter groups. "
        "Group/diagram arguments take a file path or inline text such as "
        "'type A 3' or 'vertex s; vertex t; edge s t 4'. The letter budget "
        "is --budget, else the COXART_LETTER_BUDGET environment variable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget_flag=True):
        p.add_argument("--json", action="store_true", help="emit JSON")
        if budget_flag:
            p.add_argument("--budget", type=_budget, default=None,
                           help="letter budget override")

    p = sub.add_parser("nf", help="Garside normal form of a word")
    p.add_argument("--group", required=True)
    p.add_argument("--word", required=True)
    common(p)
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("commute", help="do two words commute")
    p.add_argument("--group", required=True)
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
    common(p)
    p.set_defaults(func=cmd_commute)

    p = sub.add_parser("h1", help="abelianization class of a pure word")
    p.add_argument("--group", required=True)
    p.add_argument("--word", required=True)
    common(p)
    p.set_defaults(func=cmd_h1)

    p = sub.add_parser("fold", help="fold into a small-type diagram")
    p.add_argument("--diagram", required=True)
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("curves", help="emit a curve system")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--rank", type=_integer, default=None)
    p.add_argument("--out", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("pp-check", help="Property PP search on a word system")
    p.add_argument("--words", required=True,
                   help="JSON file: vertices, edges, words")
    p.add_argument("--split", nargs=2, metavar=("L1", "L2"),
                   help="comma-separated vertex lists for the two parts")
    common(p, budget_flag=False)
    p.set_defaults(func=cmd_pp_check)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--config", default=None,
                   help="JSON options, inline or a file path")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="export a complex")
    p.add_argument("--what", choices=("nerve", "subdivision"), required=True)
    p.add_argument("--diagram", required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--max-rank", type=_integer, default=DEFAULT_MAX_RANK)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    token = None
    try:
        # one budget for the whole command: --budget, else the caller's, else
        # the variable read once here, so a malformed one is a usage error
        token = RUN_BUDGET.set(getattr(args, "budget", None) or letter_budget())
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the exit flush
        return code
    except BudgetExceeded as exc:
        print("resource budget exceeded: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:  # the Python docs' SIGPIPE note: exit flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        if token is not None:
            RUN_BUDGET.reset(token)


if __name__ == "__main__":
    sys.exit(main())
