"""CLI subcommands: schemas, pipelines, determinism and exit codes."""

import argparse
import inspect
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from contextlib import redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latsimplex
from latsimplex import classify, cli, groups


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


def test_largest_code_rows_print_without_their_closure(capsys):
    # B_12's table holds 4096 x 4095 cells; the rows alone print at once
    for argv in (["counterexample", "--s", "1024"], ["code", "--r", "12"]):
        start = time.perf_counter()
        code, obj = run_json(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 0
        assert (obj["e"], obj["den"], len(obj["generators"])) == (4095, 2, 12)
    for s in (2, 3, 7, 12):
        _, obj = run_json(capsys, "counterexample", "--s", str(s))
        assert obj == latsimplex.counterexample_simplex(s).to_json()


def test_counterexample_conjecture_pipeline(capsys, tmp_path):
    _, group_json = run_cli(capsys, "counterexample", "--s", "3")
    path = tmp_path / "cx3.json"
    path.write_text(group_json)
    code, obj = run_json(capsys, "conjecture", str(path))
    assert code == 0
    assert obj["originalGap"] == 1
    assert obj["verdicts"]["original"] == "violates the Cayley conjecture"


def test_conjecture_on_the_trivial_group(capsys, tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({"e": 2, "den": 1, "generators": []}))
    code, obj = run_json(capsys, "conjecture", str(path))
    assert code == 0
    assert obj["verdicts"] == {"original": "satisfies the Cayley conjecture",
                               "modified": "not applicable (s = 0)"}


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
    code, obj = run_json(capsys, "ehrhart", str(spath), "--max-n", "21")
    assert code == 0
    assert len(obj["counts"]) == 22
    assert obj["hstar"] == [1, 3]
    # a small det (625) with long edges
    spath.write_text(json.dumps({"d": 3, "vertices": [
        [0, 0, 0], [25, 0, 0], [0, 25, 0], [0, 0, 1]]}))
    code, obj = run_json(capsys, "ehrhart", str(spath), "--max-n", "21")
    assert code == 0
    assert obj["counts"][:3] == [1, 352, 1678]
    assert obj["hstar"] == [1, 348, 276]


def test_b4_realization_pipeline(capsys, monkeypatch):
    _, group_json = run_cli(capsys, "code", "--r", "4")
    monkeypatch.setattr("sys.stdin", io.StringIO(group_json))
    _, simplex_json = run_cli(capsys, "realize", "-")
    # d = 14, so h* needs --max-n 14; --max-n 3 reports only the counts
    for max_n, counts, hstar in (("3", [1, 15, 120, 680], None),
                                 ("14", None, [1, 0, 0, 0, 15])):
        monkeypatch.setattr("sys.stdin", io.StringIO(simplex_json))
        code, obj = run_json(capsys, "ehrhart", "-", "--max-n", max_n)
        assert code == 0
        assert obj["d"] == 14
        assert obj["hstar"] == hstar
        if counts:
            assert obj["counts"] == counts


def test_ehrhart_refuses_dimension_before_elimination(capsys, tmp_path,
                                                      monkeypatch):
    # the residue group of a d-simplex lies on d + 1 coordinates, budgeted
    # as a realization's
    def unit_simplex(d):
        return json.dumps({"d": d, "vertices": [[0] * d] + [
            [int(i == j) for j in range(d)] for i in range(d)]})

    path = tmp_path / "unit.json"
    path.write_text(unit_simplex(31))
    code, obj = run_json(capsys, "ehrhart", str(path), "--max-n", "1")
    assert code == 0
    assert obj["counts"] == [1, 32]

    def no_elimination(mat):
        raise AssertionError("elimination started past the dimension budget")

    monkeypatch.setattr(latsimplex.geometry, "_det_adjugate", no_elimination)
    path.write_text(unit_simplex(32))
    code, obj = run_json(capsys, "ehrhart", str(path), "--max-n", "1")
    assert code == 1
    assert obj["error"] == "budget-exceeded"


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
def _dense_simplex(d, seed):
    rng = random.Random(seed)
    return json.dumps({"d": d, "vertices": [
        [rng.randint(-9, 9) for _ in range(d)] for _ in range(d + 1)]})


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
    # no generators stand for the zero row, which takes den and e as given
    ("den 0 without generators", "invalid-input",
     json.dumps({"e": 3, "den": 0, "generators": []}),
     ["analyze", "{path}"]),
    ("e 0 without generators", "invalid-input",
     json.dumps({"e": 0, "den": 1, "generators": []}),
     ["analyze", "{path}"]),
    ("e -2 without generators", "invalid-input",
     json.dumps({"e": -2, "den": 1, "generators": []}),
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
    ("verify main1 with --s", "invalid-input", None,
     ["verify", "--suite", "main1", "--s", "3"]),
    ("verify bounds with --r", "invalid-input", None,
     ["verify", "--suite", "bounds", "--r", "1"]),
    ("classify degree -1", "invalid-input", None,
     ["classify", "--e", "3", "--degree", "-1", "--max-den", "2",
      "--max-gen", "1"]),
    ("float den and entry", "invalid-input",
     json.dumps({"e": 3, "den": 2.9, "generators": [[1, 1, 0.5]]}),
     ["analyze", "{path}"]),
    ("integral float den", "invalid-input",
     json.dumps({"e": 3, "den": 2.0, "generators": [[1, 1, 0]]}),
     ["analyze", "{path}"]),
    ("boolean den", "invalid-input",
     json.dumps({"e": 3, "den": True, "generators": [[0, 0, 0]]}),
     ["analyze", "{path}"]),
    ("string den", "invalid-input",
     json.dumps({"e": 3, "den": "2", "generators": [[1, 1, 0]]}),
     ["analyze", "{path}"]),
    ("float vertex coordinate", "invalid-input",
     json.dumps({"d": 2, "vertices": [[0, 0], [1.7, 0], [0, 1]]}),
     ["ehrhart", "{path}", "--max-n", "2"]),
    # each dilation sums d + 1 terms
    ("dilation past the count budget", "budget-exceeded",
     json.dumps({"d": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}),
     ["ehrhart", "{path}", "--max-n", "262144"]),
    # det 2 * 10^6; unchecked, the closure builds 2^20 elements before it
    # is refused
    ("det past the order cap", "group-too-large",
     json.dumps({"d": 2, "vertices": [[0, 0], [2000, 0], [0, 1000]]}),
     ["ehrhart", "{path}", "--max-n", "1"]),
    ("counterexample s 10^8", "group-too-large", None,
     ["counterexample", "--s", "100000000"]),
    ("counterexample s 10^9", "group-too-large", None,
     ["counterexample", "--s", "1000000000"]),
    # unchecked, each builds code groups for about a second or more (B_12,
    # of 4096 x 4095 cells, at s = 2047) before a block sum is refused
    ("counterexample s 600", "group-too-large", None,
     ["counterexample", "--s", "600"]),
    ("counterexample s 1023", "group-too-large", None,
     ["counterexample", "--s", "1023"]),
    ("counterexample s 2047", "group-too-large", None,
     ["counterexample", "--s", "2047"]),
    # its exponent 10^9 passes the order cap; unchecked, the closure builds
    # 2^20 elements before it is refused
    ("analyze exponent past the order cap", "group-too-large",
     json.dumps({"e": 2, "den": 10 ** 9, "generators": [[1, 10 ** 9 - 1]]}),
     ["analyze", "{path}"]),
    ("realize past the coordinate budget", "budget-exceeded",
     json.dumps({"e": 80, "den": 1, "generators": []}),
     ["realize", "{path}"]),
    # each passes the cell budget with its first table row; unchecked, each
    # builds a table or a zero row of hundreds of MB before it is refused
    ("analyze e past the cell budget", "group-too-large",
     json.dumps({"e": 16777217, "den": 1, "generators": []}),
     ["analyze", "{path}"]),
    ("realize e 3*10^7", "group-too-large",
     json.dumps({"e": 30000000, "den": 1, "generators": []}),
     ["realize", "{path}"]),
    ("classify e 10^8", "budget-exceeded", None,
     ["classify", "--e", "100000000", "--degree", "1", "--max-den", "2",
      "--max-gen", "1", "--max-order", "2"]),
    # its probe tables alone would take hours
    ("classify den 10^5", "budget-exceeded", None,
     ["classify", "--e", "2", "--degree", "1", "--max-den", "100000",
      "--max-gen", "1", "--max-order", "100000"]),
    # its closures may pass the cell budget; unchecked, the walk grows past
    # 2 GB (its packing units alone hold about 1 GB at |H| = 2^15)
    ("classify order cap past the cell budget", "budget-exceeded", None,
     ["classify", "--e", "30", "--degree", "15", "--max-den", "2",
      "--max-gen", "22", "--max-order", "4194304"]),
    # its degeneracy check alone would take seconds
    ("dense d 300", "budget-exceeded", _dense_simplex(300, 300),
     ["ehrhart", "{path}", "--max-n", "2"]),
    ("dense d 32", "budget-exceeded", _dense_simplex(32, 32),
     ["ehrhart", "{path}", "--max-n", "2"]),
]


def test_domain_error_json_and_exit_code(capsys, tmp_path):
    # one test over a case table, so the test keeps its single name; every
    # case is refused before the work, so well within a second
    for i, (case, error, contents, argv) in enumerate(DOMAIN_ERROR_CASES):
        path = tmp_path / f"case{i}.json"
        if contents is not None:
            path.write_text(contents)
        start = time.perf_counter()
        code, out = run_cli(capsys, *[a.format(path=path) for a in argv])
        assert time.perf_counter() - start < 1, case
        assert code == 1, case
        obj = json.loads(out)
        assert list(obj) == ["error", "message"], case
        assert obj["error"] == error, case
        assert obj["message"], case


# any JSON value, kept small: numbers, strings, lists and objects
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats()
    | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner,
                                     max_size=3)),
    max_leaves=6)
NON_INTEGERS = JSON_VALUES.filter(lambda v: type(v) is not int)


@st.composite
def cli_inputs(draw):
    """(argv, document, whether an integer field holds a non-integer).

    A valid group (integral rows) or simplex (upper triangular, so never
    degenerate) document, then at most one change: an integer field (e,
    den, an entry, d or a coordinate) becomes a non-integer, or a key or
    the whole document becomes any JSON value.
    """
    if draw(st.booleans()):
        e = draw(st.integers(1, 6))
        den = draw(st.integers(1, 8))
        rows = draw(st.lists(st.lists(st.integers(0, den - 1), min_size=e,
                                      max_size=e), max_size=3))
        for row in rows:
            row[-1] = -sum(row[:-1]) % den
        doc = {"e": e, "den": den, "generators": rows}
        command = draw(st.sampled_from(["analyze", "cayley", "realize"]))
        argv = [command, "-"]
        rows_key, scalar_key = "generators", "e"
    else:
        d = draw(st.integers(0, 3))
        vertices = [[0] * d]
        for i in range(d):
            vertices.append([0] * i + [draw(st.integers(1, 3))]
                            + draw(st.lists(st.integers(-2, 2),
                                            min_size=d - i - 1,
                                            max_size=d - i - 1)))
        doc = {"d": d, "vertices": vertices}
        argv = ["ehrhart", "-", "--max-n", str(draw(st.integers(-1, 3)))]
        rows_key, scalar_key = "vertices", "d"
    change = draw(st.sampled_from(["none", "integer", "any"]))
    if change == "integer":
        fields = [(doc, key) for key in doc if key != rows_key]
        fields += [(row, j) for row in doc[rows_key]
                   for j in range(len(row))]
        target, key = draw(st.sampled_from(fields))
        target[key] = draw(NON_INTEGERS)
        return argv, doc, True
    if change == "any":
        key = draw(st.sampled_from([None, scalar_key, rows_key]))
        value = draw(JSON_VALUES)
        if key is None:
            doc = value
        else:
            doc[key] = value
    return argv, doc, False


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cli_inputs())
def test_cli_survives_arbitrary_json(case):
    argv, doc, non_integer = case
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))), \
            redirect_stdout(out), pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "DEFAULT_MAX_ORDER", 64)
        code = cli.main(argv)
    assert code in (0, 1)
    if code == 1:
        obj = json.loads(out.getvalue())
        assert list(obj) == ["error", "message"]
        assert obj["error"] and obj["message"]
    assert not (non_integer and code == 0)


def test_budgets_are_module_constants(monkeypatch):
    """Budgets are read from the module that owns them, not passed per call:
    no public callable takes ``node_budget``, only ``close`` and the
    search's own ``SearchBudget`` take ``max_order``, and only ``classify``
    has ``--max-order``, whose default is ``SearchBudget``'s."""
    takes = {}
    for name in latsimplex.__all__:
        obj = getattr(latsimplex, name)
        if callable(obj):
            params = inspect.signature(obj).parameters
            for knob in ("node_budget", "max_order"):
                if knob in params:
                    takes.setdefault(knob, set()).add(name)
    assert takes == {"max_order": {"close", "SearchBudget"}}
    [subparsers] = [a for a in cli._build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    assert [name for name, p in subparsers.choices.items()
            if "--max-order" in p._option_string_actions] == ["classify"]
    monkeypatch.setattr(classify.SearchBudget, "max_order", 4097)
    args = cli._build_parser().parse_args(
        ["classify", "--e", "3", "--degree", "1", "--max-den", "2",
         "--max-gen", "1"])
    assert args.max_order == 4097


def test_solver_cap_error_is_machine_readable(capsys, tmp_path):
    # the cyclic group of order 40 on 40 coordinates has one null block,
    # all of them; ruling out the smaller ones passes the node budget
    path = tmp_path / "cyclic40.json"
    path.write_text(json.dumps({"e": 40, "den": 40,
                                "generators": [[1] * 40]}))
    start = time.perf_counter()
    code, obj = run_json(capsys, "cayley", str(path))
    assert time.perf_counter() - start < 5
    assert code == 1
    assert list(obj) == ["error", "message"]
    assert obj["error"] == "solver-cap-exceeded"
    _, group_json = run_cli(capsys, "code", "--r", "5")
    path = tmp_path / "b5.json"
    path.write_text(group_json)
    code, obj = run_json(capsys, "cayley", str(path))
    assert code == 0
    assert obj["C"] == 10


def test_cayley_partition_deeper_than_the_recursion_limit(capsys, tmp_path):
    path = tmp_path / "trivial1200.json"
    path.write_text(json.dumps({"e": 1200, "den": 1, "generators": []}))
    code, obj = run_json(capsys, "cayley", str(path))
    assert code == 0
    assert obj["C"] == 1200
    assert obj["partition"] == [[i] for i in range(1, 1201)]


def test_python_dash_m_runs_the_cli():
    src = str(Path(latsimplex.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))

    def run(module):
        return subprocess.run([sys.executable, "-m", module, "code", "--r",
                               "2"], capture_output=True, text=True,
                              env=env, check=True).stdout

    out = run("latsimplex")
    assert json.loads(out)["e"] == 3
    assert out == run("latsimplex.cli")


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
