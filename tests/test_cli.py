import json

import pytest

from coxart.cli import main


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


def test_subdivide_dot(capsys):
    code, out, _ = run(capsys, "subdivide", "--out", "dot", "--diagram",
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
                 ("verify", "dn-curves", "--config", '{"ranks": [3]}'),
                 ("verify", "e7-kernel", "--config", '{"power": 0}')):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_verify_has_no_seed_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "tits-classic", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "nf", "--group", "type A 2",
                       "--word", "s1^50", "--budget", "10")
    assert code == 2 and "budget" in err and "garside" in err


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
    # check fails through the ordinary recorder
    from coxart import suites

    def failing_suite(config=None):
        rec = suites._Recorder("tits-classic")

        def check():
            raise AssertionError("deliberate failure")
        rec.run("always-fails", check)
        return rec.result

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
        env = dict(__import__("os").environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_error_messages_do_not_depend_on_hash_seed(tmp_path):
    import os
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
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "coxart.cli", "pp-check"] + argv,
                capture_output=True, text=True, env=env)
            assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", want)
