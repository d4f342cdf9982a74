import hashlib
import json
import os

import pytest

import coxart
from coxart.cli import main
from coxart.diagram import type_diagram
from coxart.garside import delta_word


def subprocess_env(hash_seed):
    """The environment for a coxart subprocess: this one, with the hash seed
    set and the directory coxart was imported from first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(coxart.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_nf_text_output(capsys):
    code, out, _ = run(capsys, "nf", "--group", "type A 2",
                       "--word", "s1 s2 s1")
    assert code == 0
    assert out.strip() == "inf=1; canon="


def test_nf_json_output(capsys):
    code, out, _ = run(capsys, "nf", "--group", "type A 2",
                       "--word", "s1^2", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc == {"inf": 0, "canon": ["s1", "s1"]}


def test_commute_exit_zero_either_way(capsys):
    code, out, _ = run(capsys, "commute", "--group", "type I 2 4",
                       "--w1", "s1^2", "--w2", "s2^2")
    assert code == 0 and "do not commute" in out


def test_h1_output(capsys):
    code, out, _ = run(capsys, "h1", "--group", "vertex s; vertex t; edge s t 3",
                       "--word", "s t s s t s")
    assert code == 0
    assert out.split() == ["s:1", "sts:1", "t:1"]


#: sha256 of the text output of `coxart h1` on Delta^2 (every reflection label
#: with coefficient 1), recorded before reflections were derived from the
#: simple reflections
H1_DELTA_SQUARE = {
    "type E 8": (("E", 8, None), 120,
                 "cf2b2903110308afaee533e6be18b736ce4253fc23fb41907c5eb07bf6311a13"),
    "type I 2 12": (("I", 2, 12), 12,
                    "884cf447239ab0ac9037dc9bbc492a41a866890ceba95485bd5c932887be70d2"),
}


@pytest.mark.parametrize("tag", sorted(H1_DELTA_SQUARE))
def test_h1_labels_of_delta_square_match_pinned_digest(capsys, tag):
    typ, count, digest = H1_DELTA_SQUARE[tag]
    d = type_diagram(*typ)
    word = " ".join("%s^%d" % ge for ge in delta_word(d, d.vertices, 2))
    code, out, _ = run(capsys, "h1", "--group", tag, "--word", word)
    assert code == 0
    entries = out.split()
    assert len(entries) == count and all(e.endswith(":1") for e in entries)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_export_subdivision_dot(capsys):
    code, out, _ = run(capsys, "export", "--what", "subdivision", "--format",
                       "dot", "--diagram",
                       "vertex s; vertex t; vertex u; edge s t 3; edge t u 3")
    assert code == 0
    assert out.count("--") == 10


def test_export_nerve_json(capsys):
    code, out, _ = run(capsys, "export", "--what", "nerve",
                       "--diagram", "type A 2")
    doc = json.loads(out)
    assert doc["vertices"] == ["s1", "s2"]
    assert ["s1", "s2"] in doc["simplices"]


def test_curves_json(capsys):
    code, out, _ = run(capsys, "curves", "--family", "An", "--rank", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 3


def test_fold_json(capsys):
    code, out, _ = run(capsys, "fold", "--diagram", "type I 2 3")
    doc = json.loads(out)
    assert code == 0 and doc["fiber_size"] == 2


def test_pp_check_file(tmp_path, capsys):
    doc = {
        "vertices": ["a", "b", "c", "d"],
        "edges": [["a", "b"], ["b", "c"], ["c", "d"]],
        "words": {"a": "a", "d": "d", "b+c": "b c"},
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "pp-check", "--words", str(path))
    assert code == 1 and "no Property PP" in out
    code, out, _ = run(capsys, "pp-check", "--words", str(path),
                       "--split", "a,b,c", "b,c,d")
    assert code == 0 and "certified" in out


def test_pp_check_malformed_files_exit_two(tmp_path, capsys):
    docs = (
        ({"vertices": ["a", "b"], "edges": [5]}, "bad edge 5"),
        ({"vertices": [1, 2], "edges": []}, "'vertices'"),
        ({"vertices": ["a", "b"], "edges": [], "words": {"a": 3}}, "'words'"),
        ({"vertices": ["a", "a", "b"], "edges": [["a", "b"]], "words": {"a": "a"}},
         "duplicate vertex in ('a', 'a', 'b')"),
        ({"vertices": ["a", "b"], "edges": [], "words": {"a": "a^2", "b": "b^2 zz^0"}},
         "unknown generator 'zz'"),
    )
    for doc, message in docs:
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "pp-check", "--words", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err, err


def test_plus_in_a_vertex_name_is_a_usage_error(tmp_path, capsys):
    # subset names join generator names with '+', so the singleton {s1+s2}
    # and the pair {s1, s2} would share a subdivision vertex
    code, out, err = run(capsys, "export", "--what", "subdivision", "--diagram",
                         "vertex s1; vertex s2; vertex s1+s2; edge s1 s2 3")
    assert (code, out, err) == (
        2, "", "error: vertex name 's1+s2' holds '+', which joins subset names\n")
    code, out, err = run(capsys, "verify", "gtc-bounded", "--config", json.dumps(
        {"type": "vertex a; vertex b; edge a b 3; vertex a+b"}))
    assert (code, out, err) == (
        2, "", "error: vertex name 'a+b' holds '+', which joins subset names\n")
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"vertices": ["a", "b", "a+b"], "edges": [["a", "b"]],
                                "words": {"a": "a", "b": "b", "a+b": "a b"}}))
    code, out, err = run(capsys, "pp-check", "--words", str(path))
    assert (code, out, err) == (
        2, "", "error: vertex name 'a+b' holds '+', which joins subset names\n")


def test_verify_exit_codes_and_determinism(capsys):
    code1, out1, _ = run(capsys, "verify", "tits-classic", "--json")
    code2, out2, _ = run(capsys, "verify", "tits-classic", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["ok"] and all(c["status"] == "pass" for c in doc["checks"])


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, "nf", "--group", "type A 2", "--word", "zz")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "nf", "--group", "type Q 9", "--word", "s")
    assert code == 2
    for argv in (("curves", "--family", "Dn"),
                 ("curves", "--family", "E6F", "--rank", "3"),
                 ("curves", "--family", "E8F", "--rank", "4"),
                 ("curves", "--family", "E7FIG", "--rank", "7"),
                 ("verify", "an-curves", "--config", "[1]"),
                 ("verify", "an-curves", "--config", '{"max_rank": "x"}'),
                 ("verify", "gtc-bounded", "--config",
                  '{"type": "type A 2", "N": 0}'),
                 ("verify", "gtc-bounded", "--config", '{"type": "type Q 9"}'),
                 ("verify", "gtc-bounded", "--config",
                  '{"type": "vertex a; vertex b; vertex c; edge a b 3; '
                  'edge b c 3; edge a c 3", "max_len": 2}'),
                 ("verify", "gtc-bounded", "--config",
                  '{"type": "type A 13", "max_len": 1}'),
                 ("verify", "gtc-bounded", "--config", '{"type": ""}'),
                 ("verify", "gtc-bounded", "--config", '{"type": "# none"}'),
                 ("verify", "dn-curves", "--config", '{"ranks": [3]}'),
                 ("verify", "dn-curves", "--config", '{"ranks": []}'),
                 ("verify", "dn-curves", "--config", '{"ranks": [4, 5, 4]}'),
                 ("verify", "e7-kernel", "--config", '{"power": 0}'),
                 ("verify", "an-curves", "--config", '{"max_rnk": 3}'),
                 ("verify", "folding-suite", "--config",
                  '{"budget": "x", "f_max_len": 1}'),
                 ("verify", "tits-classic", "--config", "nonsense")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_config_that_is_neither_file_nor_json_names_the_flag(capsys):
    code, out, err = run(capsys, "verify", "tits-classic", "--config", "nonsense")
    assert (code, out) == (2, "")
    assert err == ("error: --config is not valid JSON: "
                   "Expecting value: line 1 column 1 (char 0)\n")


def test_verify_refuses_optimized_python():
    # python -O strips assert statements, and with them every check's verdict
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-O", "-m", "coxart.cli", "verify", "tits-classic"],
        capture_output=True, text=True, env=subprocess_env("0"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: python -O ")
    assert "Traceback" not in proc.stderr


def test_every_json_dump_sorts_its_keys():
    # the printers alone fix the key order of every JSON output: the
    # to_json methods leave their dict items unsorted
    import ast
    import inspect

    import coxart.cli

    calls = [node for node in ast.walk(ast.parse(inspect.getsource(coxart.cli)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "dumps"]
    assert calls
    for call in calls:
        assert any(k.arg == "sort_keys" and isinstance(k.value, ast.Constant)
                   and k.value.value is True for k in call.keywords), ast.dump(call)


def test_verify_has_no_seed_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "tits-classic", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("nf", "--group", "type A 2", "--word", ""),
    ("commute", "--group", "type A 2", "--w1", "s1", "--w2", "s2"),
    ("h1", "--group", "type A 2", "--word", "s1^2"),
])
@pytest.mark.parametrize("budget", ["-1", "0", "x", "1_0", "\u0661\u0660"])
def test_budget_below_one_is_a_usage_error_naming_the_flag(capsys, argv, budget):
    with pytest.raises(SystemExit) as exc:
        main(list(argv) + ["--budget", budget])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --budget: must be an integer >= 1, got '%s'" % budget in out.err


def test_budget_of_one_is_accepted(capsys):
    code, out, _ = run(capsys, "nf", "--group", "type A 2", "--word", "s1",
                       "--budget", "1")
    assert code == 0 and out.strip() == "inf=0; canon=s1"


@pytest.mark.parametrize("argv", [
    ("nf", "--group", "type A 2", "--word", ""),
    ("verify", "tits-classic"),
])
@pytest.mark.parametrize("value", ["-5", "0", "abc", "2.5", "1_0", "\u0661\u0660"])
def test_bad_letter_budget_variable_is_a_usage_error(capsys, monkeypatch,
                                                      argv, value):
    monkeypatch.setenv("COXART_LETTER_BUDGET", value)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == ("error: COXART_LETTER_BUDGET must be an integer >= 1, "
                   "got '%s'\n" % value)


def test_letter_budget_variable_is_honoured(capsys, monkeypatch):
    monkeypatch.setenv("COXART_LETTER_BUDGET", "3")
    code, _, err = run(capsys, "nf", "--group", "type A 2", "--word", "s1^3")
    assert code == 0 and err == ""
    code, _, err = run(capsys, "nf", "--group", "type A 2", "--word", "s1^4")
    assert code == 2 and "letter budget 3" in err


class _CountingEnviron(dict):
    """A stand-in for os.environ that counts the reads of one variable."""

    def __init__(self, key):
        super().__init__(os.environ)
        self.key, self.reads = key, 0

    def get(self, key, default=None):
        self.reads += key == self.key
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += key == self.key
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads += key == self.key
        return super().__contains__(key)


@pytest.mark.parametrize("value", [None, "50000"])
@pytest.mark.parametrize("argv", [
    ("verify", "garside-core"),
    ("nf", "--group", "type E 6", "--word", "s1 s2^-3 s6 s4^2 s1^-1"),
    ("h1", "--group", "type B 3", "--word", "s1^2 s3^-4 s2^2"),
])
def test_a_command_reads_the_budget_variable_once(capsys, monkeypatch, argv, value):
    if value is not None:
        monkeypatch.setenv("COXART_LETTER_BUDGET", value)
    env = _CountingEnviron("COXART_LETTER_BUDGET")
    monkeypatch.setattr(os, "environ", env)
    assert run(capsys, *argv)[0] == 0
    assert env.reads == 1


def test_every_command_refuses_a_bad_budget_variable(capsys, monkeypatch, tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"vertices": ["a", "b"], "edges": [],
                                "words": {"a": "a^2", "b": "b^2"}}))
    monkeypatch.setenv("COXART_LETTER_BUDGET", "abc")
    message = "error: COXART_LETTER_BUDGET must be an integer >= 1, got 'abc'\n"
    for argv in (("fold", "--diagram", "type B 3"), ("pp-check", "--words", str(path))):
        assert run(capsys, *argv) == (2, "", message)


@pytest.mark.parametrize("variable", ["7", "abc"])
@pytest.mark.parametrize("caller", [None, 4])
def test_the_callers_budget_stands_after_a_command(capsys, monkeypatch, caller, variable):
    from coxart.garside import RUN_BUDGET

    monkeypatch.setenv("COXART_LETTER_BUDGET", variable)
    token = RUN_BUDGET.set(caller)
    try:
        code, _, err = run(capsys, "nf", "--group", "type A 2", "--word", "s1^5")
        # the caller's budget comes before the variable, which is then unread
        if caller is not None:
            assert (code, err) == (2, "resource budget exceeded: garside normal form: "
                                      "word of 5 letters exceeds the letter budget 4\n")
        elif variable == "abc":
            assert code == 2 and err.startswith("error: COXART_LETTER_BUDGET")
        else:
            assert (code, err) == (0, "")
        assert RUN_BUDGET.get() == caller
    finally:
        RUN_BUDGET.reset(token)


def test_a_signed_budget_reads_as_its_digits(capsys, monkeypatch):
    # "+10" is an optional sign and ASCII digits, so it reads as 10
    argv = ("nf", "--group", "type A 2", "--word", "s1^12")
    message = ("resource budget exceeded: garside normal form: word of 12 "
               "letters exceeds the letter budget 10\n")
    assert run(capsys, *argv, "--budget", "+10") == (2, "", message)
    monkeypatch.setenv("COXART_LETTER_BUDGET", "+10")
    assert run(capsys, *argv) == (2, "", message)


@pytest.mark.parametrize("argv, flag", [
    (("curves", "--family", "An", "--rank"), "--rank"),
    (("export", "--what", "nerve", "--diagram", "type A 3", "--max-rank"), "--max-rank"),
])
@pytest.mark.parametrize("value", ["1_2", "\u0663", "3.0", "x"])
def test_integer_flags_read_a_sign_and_ascii_digits_only(capsys, argv, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(list(argv) + [value])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument %s: must be an integer, got %r" % (flag, value) in out.err
    code, text, _ = run(capsys, *argv, "+3")
    assert code == 0 and text


def test_curve_system_meets_the_budget_before_it_is_built(capsys, monkeypatch):
    import tracemalloc

    monkeypatch.delenv("COXART_LETTER_BUDGET", raising=False)
    # A_22 has 363 curves, 65,703 pairs
    code, out, _ = run(capsys, "curves", "--family", "An", "--rank", "22")
    assert code == 0 and len(json.loads(out)["curves"]) == 363
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "curves", "--family", "An", "--rank", "400")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == ("resource budget exceeded: curve system: system of 7199940000 "
                   "curve pairs exceeds the letter budget 1000000\n")
    assert peak < 100_000, "refusing the system peaked at %d bytes" % peak
    # D_44, the first D rank over the default budget: 1473 curves
    code, _, err = run(capsys, "curves", "--family", "Dn", "--rank", "44")
    assert err == ("resource budget exceeded: curve system: system of 1084128 "
                   "curve pairs exceeds the letter budget 1000000\n")


@pytest.mark.parametrize("cmd", [
    ("nf", "--word", "s1"),
    ("commute", "--w1", "s1", "--w2", "s2"),
    ("h1", "--word", "s1^2"),
])
def test_group_commands_meet_the_budget_before_building_the_group(
        capsys, monkeypatch, cmd):
    from coxart import cli

    def built(diagram):
        raise ValueError("built")

    monkeypatch.setattr(cli, "build_group", built)
    monkeypatch.delenv("COXART_LETTER_BUDGET", raising=False)
    argv = (cmd[0], "--group", "type I 2 1000000") + cmd[1:]
    assert run(capsys, *argv) == (2, "", (
        "resource budget exceeded: coxeter group: group of 2000000 roots "
        "exceeds the letter budget 1000000\n"))
    # a larger budget admits the group; a smaller one bounds words only
    assert run(capsys, *argv, "--budget", "2000000") == (2, "", "error: built\n")
    argv = (cmd[0], "--group", "type I 2 500000") + cmd[1:]
    assert run(capsys, *argv, "--budget", "1") == (2, "", "error: built\n")


@pytest.mark.parametrize("word", ["s1^", "s1^x", "s2 s1^-", "s1^1_0", "s1^\u0663"])
def test_bad_exponent_names_the_token(capsys, word):
    code, out, err = run(capsys, "nf", "--group", "type A 2", "--word", word)
    assert code == 2 and out == ""
    assert err == "error: bad exponent in token %r\n" % word.split()[-1]


@pytest.mark.parametrize("diagram,message", [
    ("type A 2 7", "only type I takes a dihedral label, got 7 for type A"),
    ("type E 6 2", "only type I takes a dihedral label, got 2 for type E"),
    ("type A two", "bad rank 'two' in line 'type A two'"),
    ("type I 2 x", "bad dihedral label 'x' in line 'type I 2 x'"),
    ("type A 1_2", "bad rank '1_2' in line 'type A 1_2'"),
    ("type I 2 \u0665", "bad dihedral label '\u0665' in line 'type I 2 \u0665'"),
    ("vertex a; vertex b; edge a b 1_0", "bad label '1_0' in line 'edge a b 1_0'"),
    ("vertex s; vertex t; edge s t x", "bad label 'x' in line 'edge s t x'"),
    ("vertex s; vertex t; edge s t 2.5", "bad label '2.5' in line 'edge s t 2.5'"),
    ("vertex s; vertex t; edge s t 3; edge s t 4",
     "second label for the pair s t in line 'edge s t 4'"),
    ("type A 2; edge s1 s2 2", "second label for the pair s1 s2 in line 'edge s1 s2 2'"),
])
def test_bad_diagram_line_names_the_token(capsys, diagram, message):
    code, out, err = run(capsys, "export", "--what", "nerve", "--diagram", diagram)
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("argv", [
    ("nf", "--word", "x^0"), ("nf", "--word", "s1 x^0"), ("h1", "--word", "x^0"),
    ("commute", "--w1", "x^0", "--w2", "s1"), ("commute", "--w1", "s1", "--w2", "x^0"),
])
def test_unknown_letter_at_exponent_zero_is_a_usage_error(capsys, argv):
    # the message and exit code of a plain unknown letter
    argv = (argv[0], "--group", "type A 2") + argv[1:]
    assert run(capsys, *argv) == (2, "", "error: unknown generator 'x'\n")


def test_generator_at_exponent_zero_is_the_identity(capsys):
    assert run(capsys, "nf", "--group", "type A 2", "--word", "s1^0") == (
        0, "inf=0; canon=\n", "")
    assert run(capsys, "h1", "--group", "type A 2", "--word", "s2^0") == (0, "0\n", "")
    assert run(capsys, "commute", "--group", "type A 2", "--w1", "s1^0",
               "--w2", "s2") == (0, "commute\n", "")


@pytest.mark.parametrize("argv, lines", [
    (("export", "--what", "nerve", "--diagram", "type A 12"), 1),
    (("nf", "--group", "type A 2", "--word", "s1"), 0),
])
def test_closed_output_pipe_exits_141_quietly(argv, lines):
    # a reader that takes one line of a 350 KB export closes the pipe while
    # more than a pipe's capacity is still to write; a reader that takes
    # nothing closes it before the short nf line is flushed at exit.  stdout
    # is block-buffered, as it is where PYTHONUNBUFFERED is unset
    import subprocess
    import sys

    env = subprocess_env("0")
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen([sys.executable, "-m", "coxart.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines):
        assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "nf", "--group", "type A 2",
                       "--word", "s1^50", "--budget", "10")
    assert code == 2 and "budget" in err and "garside" in err


def test_commute_budget_counts_both_words(capsys):
    # each word fits the budget, the two together do not
    code, out, err = run(capsys, "commute", "--group", "type A 2", "--w1", "s1^3",
                         "--w2", "s2^3", "--budget", "5")
    assert (code, out) == (2, "")
    assert err == ("resource budget exceeded: garside normal form: word of 6 "
                   "letters exceeds the letter budget 5\n")


def test_group_argument_from_file(tmp_path, capsys):
    path = tmp_path / "diagram.txt"
    path.write_text("vertex a\nvertex b\nedge a b 5\n")
    code, out, _ = run(capsys, "nf", "--group", str(path), "--word", "a b a b a")
    assert code == 0 and out.strip() == "inf=1; canon="


def test_verify_with_config(capsys):
    code, out, _ = run(capsys, "verify", "gtc-bounded", "--config",
                       '{"type": "type I 2 4", "N": 1, "max_len": 4}')
    assert code == 0 and "PASS" in out


def test_failing_suite_exits_one(capsys, monkeypatch):
    # every shipped suite passes, so route one name to a suite whose single
    # check fails through the ordinary runner
    from coxart import suites

    def check():
        raise AssertionError("deliberate failure")

    def failing_suite():
        yield "always-fails", check

    monkeypatch.setitem(suites._SUITE_FUNCS, "tits-classic", failing_suite)
    code, out, _ = run(capsys, "verify", "tits-classic")
    assert code == 1
    assert any(
        "FAIL" in line and "always-fails" in line for line in out.splitlines()
    )
    code, out, _ = run(capsys, "verify", "tits-classic", "--json")
    assert code == 1
    assert '"ok": false' in out
    doc = json.loads(out)
    assert doc["checks"] == [
        {"id": "always-fails", "status": "fail", "detail": "deliberate failure"}
    ]


def test_nerve_dot_is_refused_before_the_nerve_is_built(capsys, monkeypatch):
    from coxart import cli

    monkeypatch.setattr(cli, "nerve", lambda *args, **kwargs: pytest.fail("nerve built"))
    code, out, err = run(capsys, "export", "--what", "nerve", "--format", "dot",
                         "--diagram", "type A 3")
    assert (code, out, err) == (2, "", "error: nerve export supports json only\n")


def test_export_empty_diagram(capsys):
    code, out, _ = run(capsys, "export", "--what", "nerve", "--diagram", "#")
    assert code == 0
    assert json.loads(out) == {"vertices": [], "simplices": []}


def test_cross_process_determinism(tmp_path):
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "coxart.cli", "verify", "an-curves", "--json"]
    outs = set()
    for seed in ("0", "12345"):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=subprocess_env(seed))
        assert proc.returncode == 0
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_error_messages_do_not_depend_on_hash_seed(tmp_path):
    import subprocess
    import sys

    split = tmp_path / "split.json"
    split.write_text(json.dumps({
        "vertices": list("abcdef"),
        "edges": [["a", "b"], ["c", "d"], ["e", "f"], ["a", "c"]],
    }))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": ["a", "b"],
                               "edges": [["a"], ["zz", "a"]]}))
    cases = (
        (["--words", str(split), "--split", "a,c,e", "b,d,f"],
         "error: edge ['a', 'b'] lies in neither part\n"),
        (["--words", str(bad)], "error: bad edge ['a']\n"),
    )
    for argv, want in cases:
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "coxart.cli", "pp-check"] + argv,
                capture_output=True, text=True, env=subprocess_env(seed))
            assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", want)


def test_h1_budget_is_met_before_the_walk(capsys):
    # 4M letters against a budget of 10 are refused before the walk starts
    code, out, err = run(capsys, "h1", "--group", "type A 2", "--word",
                         "s1^2000000 s1^-2000000", "--budget", "10")
    assert (code, out) == (2, "")
    assert err == ("resource budget exceeded: h1 image: word of 4000000 "
                   "letters exceeds the letter budget 10\n")


@pytest.mark.parametrize("suite, builder, checks", [
    ("dn-curves", "build_dn", 12),
    ("folding-suite", "build_folded", 24),
])
def test_planted_build_failure_fails_each_dependent_check(
        capsys, monkeypatch, suite, builder, checks):
    from coxart import suites

    calls = []

    def broken(*args):
        calls.append(args)
        raise RuntimeError("planted build failure")

    monkeypatch.setattr(suites, builder, broken)
    code, out, err = run(capsys, "verify", suite, "--json")
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert [c["status"] for c in doc["checks"]] == ["fail"] * checks
    assert {c["detail"] for c in doc["checks"]} == {
        "RuntimeError: planted build failure"}
    # a failed build is not kept: each dependent check tries it again
    assert len(calls) == checks
    code, out, err = run(capsys, "verify", suite)
    assert code == 1 and err == "" and "Traceback" not in out
    assert out.splitlines()[-1] == "[%s] FAILED (%d checks)" % (suite, checks)


@pytest.mark.parametrize("suite, config, builder, builds", [
    ("dn-curves", {"ranks": [4, 5]}, "build_dn", 2),
    ("folding-suite", {"f_max_len": 1}, "build_folded", 8),
    ("lantern", None, "lantern_check", 1),
])
def test_each_shared_value_is_built_once_per_run(
        monkeypatch, suite, config, builder, builds):
    from coxart import suites

    original = getattr(suites, builder)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(suites, builder, counted)
    assert suites.run_suite(suite, config).ok
    assert len(calls) == builds


def test_badpp_no_split_fails_on_an_unexpected_error(monkeypatch):
    # only RaagError marks a split as impossible; any other error is a fault
    from coxart import suites

    def broken(system, l1, l2):
        raise TypeError("planted fault")

    monkeypatch.setattr(suites, "generalized_pp_check", broken)
    checks = {c.id: c for c in suites.run_suite("pp-suite").checks}
    check = checks["badpp-no-split-certifies"]
    assert (check.status, check.detail) == ("fail", "TypeError: planted fault")


def test_missing_diagram_file_is_reported_as_missing(tmp_path, capsys):
    missing = str(tmp_path / "no-such-diagram.txt")
    for argv in (("nf", "--group", missing, "--word", "s1"),
                 ("h1", "--group", missing, "--word", "s1^2"),
                 ("fold", "--diagram", missing),
                 ("export", "--what", "nerve", "--diagram", missing)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: no such file %r\n" % missing
    # text of two tokens or more is still parsed, and named when it fails
    code, _, err = run(capsys, "nf", "--group", "vertex", "--word", "s1")
    assert (code, err) == (2, "error: no such file 'vertex'\n")
    code, _, err = run(capsys, "nf", "--group", "vertex a b", "--word", "s1")
    assert (code, err) == (2, "error: cannot parse line 'vertex a b'\n")


def test_gtc_h1_leg_meets_the_budget_flag(capsys, monkeypatch):
    # the lone image has 1,200,000 letters: over the default budget, under
    # the flag's; the h1 certificate walks it, no Garside pair reads it
    monkeypatch.delenv("COXART_LETTER_BUDGET", raising=False)
    code, out, err = run(capsys, "verify", "gtc-bounded", "--budget", "3000000",
                         "--config", '{"type": "type A 1", "N": 600000, "max_len": 1}')
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == ("[gtc-bounded] PASS    gtc-typeA1-N600000-len1 "
                                   "-- 2 words, 0 through the Garside engine")


def test_gtc_word_walk_meets_the_budget_past_its_floor(capsys, monkeypatch):
    # max_len 7 on A_3 walks 1,059,588 words, past the floor of 10^6
    monkeypatch.delenv("COXART_LETTER_BUDGET", raising=False)
    argv = ("verify", "gtc-bounded", "--config", '{"type": "type A 3", "N": 1, "max_len": 7}')
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == (
        "[gtc-bounded] SKIPPED gtc-typeA3-N1-len7 -- word enumeration: "
        "walk of 1000001 words exceeds the letter budget 1000000")
    code, out, err = run(capsys, *argv, "--budget", "2000000")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == ("[gtc-bounded] PASS    gtc-typeA3-N1-len7 "
                                   "-- 1059588 words, 400 through the Garside engine")


def _crafted_pp_file(tmp_path, k):
    """The 4-cycle zza-zzb-zzc-zzd with the words zza, zzd and zzb zzc, which
    admit no PP map, beside k disjoint edges a_i-b_i with the words a_i b_i.
    The degree order tries {zzb, zzc} last, so the search has 2^(k+2) nodes."""
    vertices = ["zza", "zzb", "zzc", "zzd"]
    edges = [["zza", "zzb"], ["zzb", "zzc"], ["zzc", "zzd"], ["zzd", "zza"]]
    words = {"zza": "zza", "zzd": "zzd", "zzb+zzc": "zzb zzc"}
    for i in range(1, k + 1):
        a, b = "a%d" % i, "b%d" % i
        vertices += [a, b]
        edges.append([a, b])
        words["%s+%s" % (a, b)] = "%s %s" % (a, b)
    path = tmp_path / "crafted.json"
    path.write_text(json.dumps({"vertices": vertices, "edges": edges, "words": words}))
    return str(path)


def test_pp_search_meets_the_budget_past_its_floor(tmp_path, capsys, monkeypatch):
    # k = 4: the whole search compares 321 choice pairs
    from coxart import garside

    path = _crafted_pp_file(tmp_path, 4)
    monkeypatch.setattr(garside, "SIZE_FLOOR", 100)
    monkeypatch.setenv("COXART_LETTER_BUDGET", "100")
    assert run(capsys, "pp-check", "--words", path) == (
        2, "", "resource budget exceeded: pp search: search of 106 choice pairs "
               "exceeds the letter budget 100\n")
    monkeypatch.setenv("COXART_LETTER_BUDGET", "321")
    assert run(capsys, "pp-check", "--words", path) == (
        1, "no Property PP choice exists\n", "")


def test_fold_meets_the_budget_past_its_floor(capsys, monkeypatch):
    # N = lcm(4, 6) = 12 fiber copies of each of 3 generators
    from coxart import garside

    argv = ("fold", "--diagram", "vertex a; vertex b; vertex c; edge a b 5; edge b c 7")
    monkeypatch.setattr(garside, "SIZE_FLOOR", 30)
    monkeypatch.setenv("COXART_LETTER_BUDGET", "35")
    assert run(capsys, *argv) == (
        2, "", "resource budget exceeded: fold: fold of 36 generators exceeds "
               "the letter budget 35\n")
    monkeypatch.setenv("COXART_LETTER_BUDGET", "36")
    code, out, err = run(capsys, *argv)
    assert (code, err, json.loads(out)["fiber_size"]) == (0, "", 12)


def test_reflection_labels_meet_the_budget_past_their_floor(capsys, monkeypatch):
    # I_2(7) has 7 positive roots: a table of 7 * 14 root images
    from coxart import garside

    argv = ("h1", "--group", "type I 2 7", "--word", "s1^2")
    monkeypatch.setattr(garside, "SIZE_FLOOR", 90)
    assert run(capsys, *argv, "--budget", "97") == (
        2, "", "resource budget exceeded: reflection labels: table of 98 root images "
               "exceeds the letter budget 97\n")
    assert run(capsys, *argv, "--budget", "98") == (0, "s1:1\n", "")


@pytest.mark.parametrize("argv, message", [
    (("fold", "--diagram", "vertex a; vertex b; vertex c; vertex d; vertex e; "
      "edge a b 38; edge b c 42; edge c d 44; edge d e 48"),
     "fold: fold of 15329285 generators"),
    (("h1", "--group", "type I 2 20000", "--word", "s1^2"),
     "reflection labels: table of 800000000 root images"),
])
def test_default_budget_refuses_a_huge_fold_or_label_table(capsys, monkeypatch, argv, message):
    monkeypatch.delenv("COXART_LETTER_BUDGET", raising=False)
    assert run(capsys, *argv) == (
        2, "", "resource budget exceeded: %s exceeds the letter budget 1000000\n" % message)


def test_budget_flag_is_read_by_every_suite(capsys):
    code, out, err = run(capsys, "verify", "tits-classic", "--budget", "3", "--json")
    assert (code, err) == (0, "")
    checks = json.loads(out)["checks"]
    assert checks and {c["status"] for c in checks} == {"skipped"}
    assert all(c["detail"].endswith("letter budget 3") for c in checks)


@pytest.mark.parametrize("suite, budget, builder, skipped", [
    ("e7-kernel", "100", "e7_kernel_check", "artin-commutator-nontrivial"),
    ("lantern", "10", "lantern_check", "artin-twists-commute"),
])
def test_set_piece_over_budget_skips_only_its_artin_leg(
        capsys, monkeypatch, suite, budget, builder, skipped):
    from coxart import suites

    original = getattr(suites, builder)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(suites, builder, counted)
    code, out, err = run(capsys, "verify", suite, "--budget", budget, "--json")
    assert (code, err) == (0, "")
    statuses = {c["id"]: (c["status"], c["detail"]) for c in json.loads(out)["checks"]}
    status, detail = statuses.pop(skipped)
    assert status == "skipped"
    assert detail.endswith("exceeds the letter budget %s" % budget)
    assert len(statuses) == 2 and {s for s, _ in statuses.values()} == {"pass"}
    assert len(calls) == 1


@pytest.mark.parametrize("argv, exit_code", [
    (("nf", "--group", "type A 2", "--word", "s1", "--budget", "7"), 0),
    (("nf", "--group", "type Q 2", "--word", "s1", "--budget", "7"), 2),
    (("nf", "--group", "type A 2", "--word", "s1^9", "--budget", "7"), 2),
    (("fold", "--diagram", "type A 3"), 0),
])
def test_budget_flag_holds_for_one_command(capsys, argv, exit_code):
    from coxart.garside import RUN_BUDGET

    assert RUN_BUDGET.get() is None
    assert run(capsys, *argv)[0] == exit_code
    assert RUN_BUDGET.get() is None


def test_budget_flag_overrides_the_callers_budget(capsys):
    from coxart.garside import RUN_BUDGET

    token = RUN_BUDGET.set(2)
    try:
        # without the flag the caller's budget stands, with it the flag's
        code, _, err = run(capsys, "nf", "--group", "type A 2", "--word", "s1^3")
        assert code == 2 and err.endswith("letter budget 2\n")
        code, _, err = run(capsys, "nf", "--group", "type A 2", "--word", "s1^3",
                           "--budget", "3")
        assert (code, err) == (0, "")
        assert RUN_BUDGET.get() == 2
    finally:
        RUN_BUDGET.reset(token)


def test_h1_refuses_two_reflections_with_one_label(capsys):
    # s_x s_y s_x and the generator xyx both print as "xyx"; a dict keyed by
    # label would keep only one of their coefficients
    group = "vertex x; vertex y; vertex xyx; edge x y 3"
    code, out, err = run(capsys, "h1", "--group", group, "--word",
                         "x^2 y^2 xyx^2 x y^2 x^-1", "--json")
    assert (code, out) == (2, "")
    assert err == "error: two reflections print as 'xyx'; rename the generators\n"
    # distinct labels print as before
    code, out, _ = run(capsys, "h1", "--group", group, "--word", "x^2 y^2 xyx^2")
    assert (code, out) == (0, "x:1 xyx:1 y:1\n")
