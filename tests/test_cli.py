"""CLI subcommands: schemas, pipelines, determinism and exit codes."""

import json

import pytest

from latsimplex import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_code_emits_group_json(capsys):
    code, obj = run_json(capsys, "code", "--r", "3")
    assert code == 0
    assert obj == {"e": 7, "den": 2, "generators": [
        [1, 1, 1, 0, 1, 0, 0], [1, 1, 0, 1, 0, 1, 0], [1, 0, 1, 1, 0, 0, 1]]}


def test_code_matrix_text(capsys):
    code, out = run_cli(capsys, "code", "--r", "2", "--matrix")
    assert code == 0
    assert out == "1/2 1/2 0\n1/2 0 1/2\n"


def test_pipeline_code_analyze(capsys, tmp_path, monkeypatch):
    _, group_json = run_cli(capsys, "code", "--r", "3")
    path = tmp_path / "b3.json"
    path.write_text(group_json)
    code, obj = run_json(capsys, "analyze", str(path))
    assert code == 0
    assert obj == {
        "order": 8, "degree": 2, "volume": 8, "hstar": [1, 0, 7],
        "isPyramid": False, "fullSupport": True, "integerSum": True,
    }


def test_analyze_reads_stdin(capsys, monkeypatch):
    _, group_json = run_cli(capsys, "code", "--r", "2")
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(group_json))
    code, obj = run_json(capsys, "analyze", "-")
    assert code == 0
    assert obj["hstar"] == [1, 3]


def test_analyze_trivial_group(capsys, tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({"e": 3, "den": 1, "generators": [[0, 0, 0]]}))
    code, obj = run_json(capsys, "analyze", str(path))
    assert code == 0
    assert obj["hstar"] == [1]
    assert obj["isPyramid"] is True


def test_cayley_subcommand(capsys, tmp_path):
    _, group_json = run_cli(capsys, "code", "--r", "3")
    path = tmp_path / "b3.json"
    path.write_text(group_json)
    code, obj = run_json(capsys, "cayley", str(path))
    assert code == 0
    assert obj["C"] == 2
    assert sorted(len(b) for b in obj["partition"]) == [3, 4]


def test_counterexample_matrix_text(capsys):
    code, out = run_cli(capsys, "counterexample", "--s", "3", "--matrix")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(set(line.split()) <= {"0", "1/2"} for line in lines)
    assert lines[3] == "0 0 0 0 0 0 0 1/2 1/2 0"


def test_counterexample_conjecture_pipeline(capsys, tmp_path):
    _, group_json = run_cli(capsys, "counterexample", "--s", "3")
    path = tmp_path / "cx3.json"
    path.write_text(group_json)
    code, obj = run_json(capsys, "conjecture", str(path))
    assert code == 0
    assert obj["originalGap"] == 1
    assert obj["verdicts"]["original"] == "violates the Cayley conjecture"


def test_realize_and_ehrhart_pipeline(capsys, tmp_path):
    _, group_json = run_cli(capsys, "code", "--r", "2")
    gpath = tmp_path / "b2.json"
    gpath.write_text(group_json)
    code, simplex = run_json(capsys, "realize", str(gpath))
    assert code == 0
    assert simplex["d"] == 2
    spath = tmp_path / "b2_simplex.json"
    spath.write_text(json.dumps(simplex))
    code, obj = run_json(capsys, "ehrhart", str(spath), "--max-n", "3")
    assert code == 0
    assert obj["counts"][0] == 1
    assert obj["hstar"] == [1, 3]


def test_classify_subcommand(capsys):
    code, obj = run_json(capsys, "classify", "--e", "3", "--degree", "1",
                         "--max-den", "6", "--max-gen", "3")
    assert code == 0
    assert obj["complete"] is True
    assert len(obj["found"]) == 1
    assert "banner" in obj


def test_verify_subcommand(capsys):
    code, obj = run_json(capsys, "verify", "--suite", "main1", "--r", "0")
    assert code == 0
    assert obj["reports"][0]["status"] == "pass"
    code, obj = run_json(capsys, "verify", "--suite", "bounds")
    assert code == 0
    assert obj["reports"][0]["allPassed"] is True


def test_outputs_are_byte_identical(capsys):
    _, first = run_cli(capsys, "code", "--r", "4")
    _, second = run_cli(capsys, "code", "--r", "4")
    assert first == second
    _, r1 = run_cli(capsys, "verify", "--suite", "main1", "--r", "0")
    _, r2 = run_cli(capsys, "verify", "--suite", "main1", "--r", "0")
    assert r1 == r2


# (case, expected error code, file contents or None, argv with {path})
DOMAIN_ERROR_CASES = [
    ("non-integral heights", "non-integral-heights",
     json.dumps({"e": 3, "den": 2, "generators": [[1, 0, 0]]}),
     ["analyze", "{path}"]),
    ("malformed JSON", "invalid-input", '{"e": 3, "den": 2, ',
     ["analyze", "{path}"]),
    ("missing generators", "invalid-input", json.dumps({"e": 3, "den": 2}),
     ["analyze", "{path}"]),
    ("numerator >= den", "invalid-input",
     json.dumps({"e": 3, "den": 2, "generators": [[2, 0, 0]]}),
     ["analyze", "{path}"]),
    ("den 0", "invalid-input",
     json.dumps({"e": 3, "den": 0, "generators": [[0, 0, 0]]}),
     ["analyze", "{path}"]),
    ("generator length", "invalid-input",
     json.dumps({"e": 3, "den": 2, "generators": [[1, 1]]}),
     ["analyze", "{path}"]),
    ("missing file", "invalid-input", None, ["analyze", "{path}"]),
    ("wrong vertex count", "invalid-input",
     json.dumps({"d": 2, "vertices": [[0, 0], [1, 0]]}),
     ["ehrhart", "{path}", "--max-n", "2"]),
    ("negative max-n", "invalid-input",
     json.dumps({"d": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}),
     ["ehrhart", "{path}", "--max-n", "-1"]),
    ("code r 1", "invalid-input", None, ["code", "--r", "1"]),
    ("classify e 0", "invalid-input", None,
     ["classify", "--e", "0", "--degree", "1", "--max-den", "2",
      "--max-gen", "1"]),
    ("verify main1 r 2", "invalid-input", None,
     ["verify", "--suite", "main1", "--r", "2"]),
]


def test_domain_error_json_and_exit_code(capsys, tmp_path):
    # one test over a case table, so the test keeps its single name
    for i, (case, error, contents, argv) in enumerate(DOMAIN_ERROR_CASES):
        path = tmp_path / f"case{i}.json"
        if contents is not None:
            path.write_text(contents)
        code, out = run_cli(capsys, *[a.format(path=path) for a in argv])
        assert code == 1, case
        obj = json.loads(out)
        assert list(obj) == ["error", "message"], case
        assert obj["error"] == error, case
        assert obj["message"], case


def test_solver_cap_error_is_machine_readable(capsys, tmp_path):
    _, group_json = run_cli(capsys, "code", "--r", "5")
    path = tmp_path / "b5.json"
    path.write_text(group_json)
    code, obj = run_json(capsys, "cayley", str(path))
    assert code == 1
    assert obj["error"] == "solver-cap-exceeded"
    code, obj = run_json(capsys, "cayley", str(path), "--branch-and-bound")
    assert code == 0
    assert obj["C"] == 10


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["code"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 2


def test_report_text_and_csv(capsys):
    code, out = run_cli(capsys, "report")
    assert code == 0
    assert "simplex-code families" in out
    assert "counterexample families" in out
    code, csv_out = run_cli(capsys, "report", "--format", "csv")
    assert code == 0
    lines = csv_out.strip().splitlines()
    assert lines[0].startswith("section,param,e,")
    assert len(lines) == 1 + 4 + 7
    code, obj = run_json(capsys, "report", "--format", "json")
    assert code == 0
    assert [row["C"] for row in obj["codeFamilies"]] == [1, 2, 5, 10]
    assert obj["codeFamilies"][0]["originalGap"] == 0
    assert obj["codeFamilies"][2]["C"] == 5
    gaps = [row["originalGap"] for row in obj["counterexamples"]]
    assert all(g > 0 for g in gaps)
    s4 = obj["counterexamples"][2]
    assert (s4["s"], s4["e"], s4["originalGap"]) == (4, 15, 2)
