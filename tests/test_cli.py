import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from overlap_lab.cli import main, parse_range, parse_weights

from fractions import Fraction


def run_cli(args, tmp_path=None, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run(
        [sys.executable, "-m", "overlap_lab.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )
    return proc


def test_parse_range():
    assert parse_range("4..7") == [4, 5, 6, 7]
    assert parse_range("1,3,9") == [1, 3, 9]
    assert parse_range("1..2,5") == [1, 2, 5]
    with pytest.raises(ValueError):
        parse_range("7..4")
    with pytest.raises(ValueError):
        parse_range("")


def test_parse_weights():
    assert parse_weights("2,1") == (Fraction(2), Fraction(1))
    assert parse_weights("7/2,1/2") == (Fraction(7, 2), Fraction(1, 2))


def test_bounds_grid_row_count(tmp_path):
    out = tmp_path / "hilton.json"
    assert main(["bounds", "--name", "hilton", "--n", "4..7", "--k", "2", "--m", "1..4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 16
    # the row that the malformed resume files below corrupt
    assert doc["rows"][0] == _BOUNDS_ROW
    assert doc["summary"]["status"] == "pass"
    assert doc["tool_version"]


def test_bounds_g_grid(tmp_path):
    out = tmp_path / "g.json"
    assert main(["bounds", "--name", "g", "--n", "8", "--k", "2", "--p", "1", "--s", "2", "--i", "0..2", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 3
    by_i = {r["params"]["i"]: r["value"] for r in rows}
    assert by_i[0] == 56  # 2 * C(8,2), the identity branch


def test_bounds_unknown_formula_usage_error():
    proc = run_cli(["bounds", "--name", "bogus", "--n", "4"])
    assert proc.returncode == 2


def test_bounds_missing_axis_usage_error():
    proc = run_cli(["bounds", "--name", "hilton", "--n", "4"])
    assert proc.returncode == 2


def test_search_both_solvers(tmp_path):
    out = tmp_path / "s.json"
    code = main(["search", "--n", "4", "--k", "2", "--weights", "2,1", "--solver", "both", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    row = doc["rows"][0]
    assert row["optimum"] == 9
    assert row["solvers_agree"] is True
    assert row["oracle"]["optimum"] == row["shifted"]["optimum"] == 9


def test_search_k1_matches_closed_form(tmp_path):
    out = tmp_path / "s2.json"
    assert main(["search", "--n", "8", "--k", "1", "--weights", "5,1,1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["rows"][0]["optimum"] == 16


def test_search_node_limit_exit_code(tmp_path):
    out = tmp_path / "s3.json"
    code = main(["search", "--n", "7", "--k", "2", "--weights", "2,1", "--limit-nodes", "10", "--out", str(out)])
    assert code == 3
    row = json.loads(out.read_text())["rows"][0]
    assert row["status"] == "incomplete"


def test_search_usage_errors(capsys):
    for extra in ([], ["--weights", "2,1", "--m", "3"], ["--s", "2", "--m", "1"], ["--s", "2", "--weights", "2,1"]):
        assert main(["search", "--n", "4", "--k", "2", *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_verify_bde_passes(tmp_path):
    out = tmp_path / "bde.json"
    assert main(["verify", "--suite", "bde", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["status"] == "pass"


def test_verify_ci_requires_seed():
    proc = run_cli(["verify", "--suite", "cyclic", "--ci", "--trials", "9"])
    assert proc.returncode == 2
    assert proc.stderr == "error: --ci requires an explicit --seed for randomized suites\n"
    proc = run_cli(["verify", "--suite", "thm3", "--ci"])
    assert proc.returncode == 0  # deterministic suite needs no seed


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--suite", "cyclic", "--seed", "42", "--trials", "36"]
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# sha256 of `verify --suite S --seed 42 --trials 300` reports: any change to
# a sampler's draws, its arithmetic or the report writer shows up here
PINNED_REPORTS = {
    ("cyclic", "json"): "61905108d08cbb7be966e6d768c7778e291bd35f3288481afa93edd1c8f152a3",
    ("partition", "json"): "4aad00e989d112e6351cefb479927cd7408e5bb986916992f457a5d6131cc1fc",
    ("random-matching", "json"): "bffe7bafb128800e6751429cf1335b1c4a804543349912c0a7fe20f69a9c114a",
    ("random-matching", "csv"): "768f9df35137676ea8a688be274fd26e54cf27016e2b2a08eeda0d10a0949a45",
}


@pytest.mark.parametrize("suite, fmt", sorted(PINNED_REPORTS))
def test_sampled_reports_are_pinned(tmp_path, suite, fmt):
    import hashlib

    out = tmp_path / f"report.{fmt}"
    args = ["verify", "--suite", suite, "--seed", "42", "--trials", "300", "--format", fmt, "--out", str(out)]
    assert main(args) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_REPORTS[suite, fmt]


def test_csv_json_value_agreement(tmp_path):
    import csv as csv_mod

    j, c = tmp_path / "r.json", tmp_path / "r.csv"
    base = ["bounds", "--name", "hilton", "--n", "4..5", "--k", "2", "--m", "2"]
    assert main([*base, "--out", str(j)]) == 0
    assert main([*base, "--format", "csv", "--out", str(c)]) == 0
    rows = json.loads(j.read_text())["rows"]
    with open(c, newline="") as fh:
        csv_rows = list(csv_mod.DictReader(fh))
    assert len(csv_rows) == len(rows)
    for row, csv_row in zip(rows, csv_rows):
        assert str(row["value"]) == csv_row["value"]
        assert row["name"] == csv_row["name"]


def test_resume_skips_done_rows(tmp_path):
    full = tmp_path / "full.json"
    args = ["bounds", "--name", "hilton", "--n", "4..7", "--k", "2", "--m", "1..4"]
    assert main([*args, "--out", str(full)]) == 0
    # simulate an interrupted stream: header plus the first five row lines
    doc = json.loads(full.read_text())
    partial = tmp_path / "partial.json"
    lines = [json.dumps({"tool_version": "x", "config": doc["config"]})]
    lines += [json.dumps(r, sort_keys=True) for r in doc["rows"][:5]]
    partial.write_text("\n".join(lines) + "\n" + '{"trunc')  # torn final line
    resumed = tmp_path / "resumed.json"
    assert main([*args, "--resume", str(partial), "--out", str(resumed)]) == 0
    assert json.loads(resumed.read_text())["rows"] == doc["rows"]


def test_resume_in_place(tmp_path):
    # crash-recovery flow: resume from and write to the same path
    target = tmp_path / "sweep.json"
    args = ["bounds", "--name", "hilton", "--n", "4..6", "--k", "2", "--m", "1..2"]
    assert main([*args, "--out", str(target)]) == 0
    finished = target.read_bytes()
    doc = json.loads(finished)
    stream_lines = [json.dumps({"tool_version": "x", "config": doc["config"]})]
    stream_lines += [json.dumps(r, sort_keys=True) for r in doc["rows"][:3]]
    target.write_text("\n".join(stream_lines) + "\n")
    assert main([*args, "--resume", str(target), "--out", str(target)]) == 0
    assert target.read_bytes() == finished


@pytest.mark.parametrize(
    "argv, corrupt",
    [
        (["bounds", "--name", "hilton", "--n", "4..5", "--k", "2", "--m", "1"], lambda row: row.update(value="junk")),
        (["search", "--n", "4..5", "--k", "2", "--weights", "1,1"], lambda row: row.update(status="weird")),
        (["verify", "--suite", "bde"], lambda row: row.pop("summary")),
    ],
    ids=["bounds", "search", "verify"],
)
def test_refused_in_place_resume_leaves_its_file(tmp_path, capsys, argv, corrupt):
    target = tmp_path / "sweep.json"
    assert main([*argv, "--out", str(target)]) == 0
    doc = json.loads(target.read_text())
    corrupt(doc["rows"][-1])
    target.write_text(json.dumps(doc))
    kept = target.read_bytes()
    capsys.readouterr()
    assert main([*argv, "--resume", str(target), "--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: resume file holds a malformed row for cell ")
    assert target.read_bytes() == kept


def test_csv_run_stopped_by_an_error_leaves_its_out_file(tmp_path):
    # n = 3 has a row; n = 1 has no sign change, a usage error found mid-grid
    out = tmp_path / "f.csv"
    out.write_text("kept\n")
    argv = ["bounds", "--name", "u-zero", "--n", "3,1", "--k", "2", "--p", "1", "--format", "csv", "--out", str(out)]
    assert main(argv) == 2
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, fmt):
    out = tmp_path / "missing" / "x.json"
    assert main(["bounds", "--name", "hilton", "--n", "4", "--k", "2", "--m", "1", "--format", fmt, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    # the message names --out itself, not the temporary file a CSV report is written through
    assert "x.json'" in err and ".tmp" not in err


def test_failed_write_leaves_no_temporary_file(tmp_path, capsys):
    # a directory as --out: a CSV report is written beside it, then the rename onto it fails
    out = tmp_path / "d"
    out.mkdir()
    assert main(["bounds", "--name", "hilton", "--n", "4", "--k", "2", "--m", "1", "--format", "csv", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["d"]
    assert not any(out.iterdir())


def test_jobs_preserve_row_order(tmp_path):
    seq, par = tmp_path / "seq.json", tmp_path / "par.json"
    args = ["search", "--n", "4..6", "--k", "2", "--weights", "2,1"]
    assert main([*args, "--out", str(seq)]) == 0
    assert main([*args, "--jobs", "2", "--out", str(par)]) == 0
    assert seq.read_bytes() == par.read_bytes()


def test_resume_interleaves_resumed_and_pooled_rows(tmp_path):
    seq, partial, resumed = tmp_path / "seq.json", tmp_path / "partial.json", tmp_path / "resumed.json"
    args = ["search", "--n", "4..6", "--k", "2", "--weights", "2,1"]
    assert main([*args, "--out", str(seq)]) == 0
    # an interrupted stream holding only the middle cell: n = 4 and 6 go to the pool
    doc = json.loads(seq.read_text())
    header = json.dumps({"tool_version": "x", "config": doc["config"]})
    partial.write_text(header + "\n" + json.dumps(doc["rows"][1], sort_keys=True) + "\n")
    assert main([*args, "--jobs", "2", "--resume", str(partial), "--out", str(resumed)]) == 0
    assert resumed.read_bytes() == seq.read_bytes()


@pytest.mark.parametrize(
    "grid, limit",
    [
        (["--n", "5..6", "--weights", "1,1"], ["--limit-nodes", "1"]),
        (["--n", "6", "--weights", "2,1"], ["--limit-nodes", "2"]),
    ],
    ids=["limit-nodes", "limit-shifted-candidates"],
)
def test_resume_recomputes_rows_a_limit_left_incomplete(tmp_path, grid, limit):
    # a finished row does not depend on the limit, so a resume may raise or drop it;
    # the budget of 2 stops the shifted solver at its third candidate at (6,2,(2,1)),
    # which takes 27 (at weights 1,1 a B_1 that holds the clique empties B_0, and 2 close it)
    r1, r2, fresh = tmp_path / "r1.json", tmp_path / "r2.json", tmp_path / "fresh.json"
    args = ["search", *grid, "--k", "2"]
    assert main([*args, *limit, "--out", str(r1)]) == 3
    assert main([*args, "--resume", str(r1), "--out", str(r2)]) == 0
    assert main([*args, "--out", str(fresh)]) == 0
    assert r2.read_bytes() == fresh.read_bytes()


def test_downset_cache_env_is_ignored(tmp_path):
    # a truncated downset list under OVERLAP_LAB_CACHE once changed the optimum
    cache = tmp_path / "cache"
    cache.mkdir()
    planted = '{"n": 6, "k": 2, "bitsets": [0, 1, 3, 5]}'
    (cache / "downsets-n6-k2.json").write_text(planted)
    args = ["search", "--n", "6", "--k", "2", "--weights", "1,1", "--solver", "shifted"]
    with_env = run_cli(args, env={"OVERLAP_LAB_CACHE": str(cache)})
    assert with_env.returncode == 0, with_env.stderr
    assert json.loads(with_env.stdout)["rows"][0]["optimum"] == 15
    assert with_env.stdout == run_cli(args).stdout
    assert [p.name for p in cache.iterdir()] == ["downsets-n6-k2.json"]
    assert (cache / "downsets-n6-k2.json").read_text() == planted


def test_matching_subcommand(tmp_path, capsys):
    fam_file = tmp_path / "fam.json"
    fam_file.write_text(json.dumps({"n": 6, "k": 2, "sets": [[1, 2], [3, 4], [5, 6]]}))
    assert main(["matching", "--family", str(fam_file)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["matching_number"] == 3 and out["size"] == 3

    chain_file = tmp_path / "chain.json"
    chain_file.write_text(
        json.dumps({"n": 6, "k": 2, "families": [[], [[1, 2], [3, 4]]], "weights": [2, 1]})
    )
    assert main(["matching", "--chain", str(chain_file)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rainbow_matching_number"] == 1
    assert out["is_overlapping"] is True
    assert main(["matching"]) == 2
    assert capsys.readouterr().err == "error: matching needs exactly one of --family or --chain\n"


_BOUNDS_ARGV = ["bounds", "--name", "hilton", "--n", "4", "--k", "2", "--m", "1"]
_BOUNDS_ROW = {
    "attained_by": "empty-then-full",
    "cell": '{"k":2,"m":1,"n":4}',
    "flags": [],
    "name": "hilton",
    "params": {"k": 2, "m": 1, "n": 4},
    "value": 6,
}
_CHAIN = '{"n": 4, "k": 2, "families": [[[1, 2]], [[1, 2]]], "weights": %s}'


@pytest.mark.parametrize(
    "argv, content",
    [
        (["matching", "--family", "{path}"], "[[1, 2], [3, 4]]"),
        (["matching", "--family", "{path}"], None),
        (["matching", "--family", "{path}"], '{"n": 6, "k": 2, "sets": [[1, "2"]]}'),
        ([*_BOUNDS_ARGV, "--resume", "{path}"], '{"rows": 5}'),
        ([*_BOUNDS_ARGV, "--resume", "{path}"], '{"rows": [{"cell": [1, 2]}]}'),
        ([*_BOUNDS_ARGV, "--resume", "{path}"], json.dumps({"rows": [dict(_BOUNDS_ROW, value="junk")]})),
        ([*_BOUNDS_ARGV, "--resume", "{path}"], json.dumps({"rows": [dict(_BOUNDS_ROW, name="thm1")]})),
        (["matching", "--chain", "{path}"], '{"n": 6, "k": 2, "families": 3}'),
        (["verify", "--suite", "thm3", "--resume", "{path}"], '{"rows": [{"cell": "{\\"suite\\":\\"thm3\\"}"}]}'),
        (
            ["search", "--n", "4", "--k", "2", "--weights", "2,1", "--resume", "{path}"],
            json.dumps({"rows": [{"cell": '{"k":2,"m":null,"n":4,"s":1,"weights":["2","1"]}', "optimum": 7}]}),
        ),
        (["matching", "--chain", "{path}"], _CHAIN % '["1/0", 1]'),
        (["matching", "--chain", "{path}"], _CHAIN % "[true, 1]"),
        (["matching", "--chain", "{path}"], _CHAIN % "[Infinity, 1]"),
    ],
    ids=[
        "family-list",
        "family-missing",
        "family-string-element",
        "resume-rows-int",
        "resume-cell-list",
        "resume-bounds-wrong-value",
        "resume-bounds-wrong-name",
        "chain-families-int",
        "resume-verify-no-summary",
        "resume-search-no-status",
        "chain-weight-zero-denominator",
        "chain-weight-bool",
        "chain-weight-infinite",
    ],
)
def test_malformed_input_files_are_usage_errors(tmp_path, capsys, argv, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    assert main([a.replace("{path}", str(path)) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_chain_file_shape_names_every_weight_form(tmp_path):
    from overlap_lab.cli import _FILE_SHAPES

    path = tmp_path / "chain.json"
    for weights, form in (("[2, 1]", "int"), ("[2, 1.5]", "float"), ('["7/2", "1/3"]', '"a/b"')):
        assert form in _FILE_SHAPES["chain"]
        path.write_text(_CHAIN % weights)
        assert main(["matching", "--chain", str(path)]) == 0


def test_weight_errors_print_weights_as_written(capsys):
    assert main(["bounds", "--name", "thm3", "--k", "1", "--s", "1", "--weights", "1,0"]) == 2
    err = capsys.readouterr().err
    assert "Fraction(" not in err
    assert err == "error: weights must be positive, got (1, 0)\n"


def test_thm3_refuses_an_s_its_weights_do_not_fix(tmp_path, capsys):
    # refused before any row is computed: no --out is written, and a file
    # already there keeps its bytes
    out = tmp_path / "t.json"
    argv = ["bounds", "--name", "thm3", "--k", "2", "--s", "1..2", "--weights", "2,1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --weights fix s = 1, got --s [1, 2]\n"
    assert not out.exists()
    out.write_text("kept")
    assert main(argv) == 2
    assert out.read_text() == "kept"
    assert main([*argv[:6], "1", *argv[7:]]) == 0
    assert [row["params"]["s"] for row in json.loads(out.read_text())["rows"]] == [1]


@pytest.mark.parametrize("solver", ["oracle", "shifted", "both"])
def test_search_rejects_k_zero(solver, tmp_path, capsys):
    argv = ["search", "--n", "3", "--k", "0", "--s", "1", "--weights", "1,1", "--solver", solver]
    assert main([*argv, "--out", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == "error: k must be at least 1, got 0\n"


def test_search_names_the_ground_set_bound(tmp_path, capsys):
    argv = ["search", "--n", "70", "--k", "2", "--weights", "1,1", "--out", str(tmp_path / "out.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: ground set size 70 outside 0..64\n"


def test_limit_stopped_run_keeps_header_for_resume(tmp_path, capsys):
    # the run stops at its first solver call; an unclosed --out stream would fail
    # this test through the ResourceWarning filter in pyproject.toml
    out = tmp_path / "out.json"
    assert main(["verify", "--suite", "thm1", "--limit-nodes", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("resource limit: ")
    (header,) = map(json.loads, out.read_text().splitlines())
    assert header["config"]["suite"] == "thm1"
    assert main(["verify", "--suite", "thm1", "--resume", str(out), "--out", str(tmp_path / "done.json")]) == 0


def test_verify_all_resume_computes_only_the_unfinished_suite(monkeypatch, tmp_path):
    # the limit stops the run in conj2, after ten finished suites; the resume
    # reads them back from the JSON-lines stream and computes conj2 alone
    from overlap_lab import cli
    from overlap_lab.suites import SUITES

    out = tmp_path / "a.json"
    argv = ["verify", "--suite", "all", "--seed", "42", "--ci"]
    assert main([*argv, "--limit-nodes", "20000", "--out", str(out)]) == 3
    header, *rows = map(json.loads, out.read_text().splitlines())
    assert "config" in header
    assert [row["suite"] for row in rows] == list(SUITES)[:-1]
    ran = []
    real = cli.run_suite

    def spy(name, **kwargs):
        ran.append(name)
        return real(name, **kwargs)

    monkeypatch.setattr(cli, "run_suite", spy)
    assert main([*argv, "--resume", str(out), "--out", str(out)]) == 0
    assert ran == ["conj2"]
    assert [row["suite"] for row in json.loads(out.read_text())["rows"]] == list(SUITES)


def test_limit_validation():
    assert main(["search", "--n", "4", "--k", "2", "--weights", "1,1", "--jobs", "0"]) == 2
    assert main(["verify", "--suite", "bde", "--trials", "-3"]) == 2


_BASE_ARGV = {
    "bounds": ["bounds", "--name", "hilton", "--n", "4", "--k", "2", "--m", "1"],
    "search": ["search", "--n", "4", "--k", "2", "--weights", "2,1"],
    "verify": ["verify", "--suite", "thm3"],
    "verify-bde": ["verify", "--suite", "bde"],
}


@pytest.mark.parametrize(
    "command, extra",
    [
        ("verify", "--warm-start off"),
        ("verify", "--jobs 2"),
        ("bounds", "--seed 1"),
        ("bounds", "--ci"),
        ("bounds", "--limit-nodes 5"),
        ("bounds", "--warm-start on"),
        ("bounds", "--jobs 2"),
        ("bounds", "--p 7"),
        ("bounds", "--weights 3,1"),
        ("search", "--seed 1"),
        ("search", "--warm-start off"),
        ("search", "--ci"),
        ("bounds", "--format csv --resume r.json"),
        ("search", "--format csv --resume r.json"),
        ("verify", "--format csv --resume r.json"),
        ("verify", "--trials 5"),
        ("verify", "--seed 3"),
        ("verify-bde", "--trials 5 --seed 3"),
        ("verify-bde", "--limit-nodes 1"),
    ],
)
def test_unhonoured_flags_are_usage_errors(command, extra, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*_BASE_ARGV[command], *extra.split()])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_verify_all_takes_every_suite_flag(monkeypatch, tmp_path):
    import dataclasses

    from overlap_lab.suites import SUITES

    def passing(name, cells, trials, seed, limit_nodes):
        return {"suite": name, "rows": [], "summary": {"rows": 0, "violations": 0, "status": "pass"}}

    for name in list(SUITES):
        monkeypatch.setitem(SUITES, name, dataclasses.replace(SUITES[name], report=passing))
    argv = ["verify", "--suite", "all", "--seed", "1", "--trials", "5", "--limit-nodes", "5"]
    assert main([*argv, "--out", str(tmp_path / "all.json")]) == 0
    assert main(["verify", "--suite", "conj1", "--limit-nodes", "5", "--out", str(tmp_path / "c.json")]) == 0


def test_verify_all_hands_limit_nodes_to_every_searching_suite(monkeypatch, tmp_path):
    import dataclasses

    from overlap_lab import search
    from overlap_lab.suites import SUITES

    # every suite cut to its first cell, with its own report builder
    for name in list(SUITES):
        monkeypatch.setitem(SUITES, name, dataclasses.replace(SUITES[name], cells=SUITES[name].cells[:1]))
    budgets = {"exact_f_shifted": [], "max_min_overlapping": []}

    def spy(name):
        real = getattr(search, name)

        def call(*args, limit_nodes=None):
            budgets[name].append(limit_nodes)
            return real(*args, limit_nodes=limit_nodes)

        monkeypatch.setattr(search, name, call)

    # the shifted solver serves the theorem suites and conj1, the hunt conj2
    spy("exact_f_shifted")
    spy("max_min_overlapping")
    argv = ["verify", "--suite", "all", "--seed", "1", "--trials", "5", "--limit-nodes", "100000"]
    assert main([*argv, "--out", str(tmp_path / "all.json")]) == 0
    rows = {row["suite"]: row for row in json.loads((tmp_path / "all.json").read_text())["rows"]}
    assert rows.keys() == SUITES.keys()
    assert rows["conj2"]["status"] == "pass"
    assert all(budgets.values())
    assert {b for calls in budgets.values() for b in calls} == {100000}


def test_verify_conj2_stops_at_the_node_limit(tmp_path, capsys):
    # (9,3,2) visits 11 720 feasible downsets and (10,3,2) 46 588, so the hunt stops at (10,3,2)
    out = tmp_path / "c.json"
    assert main(["verify", "--suite", "conj2", "--limit-nodes", "20000", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource limit: conj2 hunt exceeded 20000 downsets for (n=10, k=3, s=2)")


def test_resume_from_another_config_is_usage_error(tmp_path, capsys):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cyclic = ["verify", "--suite", "cyclic", "--trials"]
    assert main([*cyclic, "36", "--seed", "1", "--out", str(r1)]) == 0
    capsys.readouterr()
    assert main([*cyclic, "72", "--seed", "2", "--resume", str(r1), "--out", str(r2)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not r2.exists()
    # a stream cut after its header (with a torn row line) carries the config too
    header = json.loads(r1.read_text())["config"]
    r1.write_text(json.dumps({"tool_version": "x", "config": dict(header, seed=2)}) + '\n{"trunc')
    assert main([*cyclic, "36", "--seed", "1", "--resume", str(r1), "--out", str(r2)]) == 2
    # the grid may differ: search cells and the verify suite are looked up row by row
    s1, s2, fresh = tmp_path / "s1.json", tmp_path / "s2.json", tmp_path / "fresh.json"
    search = ["search", "--k", "2", "--weights", "2,1"]
    assert main([*search, "--n", "4..5", "--out", str(s1)]) == 0
    assert main([*search, "--n", "4..6", "--resume", str(s1), "--out", str(s2)]) == 0
    assert main([*search, "--n", "4..6", "--out", str(fresh)]) == 0
    assert s2.read_bytes() == fresh.read_bytes()
    capsys.readouterr()
    assert main([*search, "--n", "4..6", "--solver", "oracle", "--resume", str(s1), "--out", str(s2)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_violation_exit_code(monkeypatch, tmp_path):
    import dataclasses

    from overlap_lab.suites import SUITES

    def fake_report(name, cells, trials, seed, limit_nodes):
        return {
            "suite": name,
            "rows": [{"status": "VIOLATION"}],
            "summary": {"rows": 1, "violations": 1, "status": "fail"},
        }

    monkeypatch.setitem(SUITES, "thm3", dataclasses.replace(SUITES["thm3"], report=fake_report))
    out = tmp_path / "v.json"
    assert main(["verify", "--suite", "thm3", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["summary"]["status"] == "fail"


def test_verify_fails_on_a_suite_that_fails_without_violations(monkeypatch, tmp_path):
    import dataclasses

    from overlap_lab import cyclic
    from overlap_lab.suites import SUITES

    check = cyclic._check_arc_chain

    def check_broken(arc, arc_sets, p):
        lhs, rhs, total = check(arc, arc_sets, p)
        return lhs, rhs, total + 1

    # every sampled chain now fails the identity, which cyclic counts apart from its violations
    monkeypatch.setattr(cyclic, "_check_arc_chain", check_broken)
    for name in list(SUITES):
        monkeypatch.setitem(SUITES, name, dataclasses.replace(SUITES[name], cells=SUITES[name].cells[:1]))
    for suite in ("cyclic", "all"):
        out = tmp_path / f"{suite}.json"
        assert main(["verify", "--suite", suite, "--seed", "1", "--trials", "20", "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["summary"]["violations"] == 0
        assert doc["summary"]["status"] == "fail"
        assert [row["status"] for row in doc["rows"] if row["status"] != "pass"] == ["fail"]


def test_verify_resume_reuses_suite_rows(monkeypatch, tmp_path):
    import dataclasses

    from overlap_lab.suites import SUITES

    def not_called(*args):
        raise AssertionError("a resumed suite ran again")

    monkeypatch.setitem(SUITES, "thm3", dataclasses.replace(SUITES["thm3"], report=not_called))
    planted = {
        "cell": '{"suite":"thm3"}',
        "suite": "thm3",
        "summary": {"rows": 8, "violations": 2, "status": "fail"},
        "status": "fail",
        "rows": [{"status": "VIOLATION"}, {"status": "VIOLATION"}],
        "planted": [1, "x"],
    }
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"tool_version": "x", "config": {}}) + "\n" + json.dumps(planted) + "\n")
    out = tmp_path / "v.json"
    assert main(["verify", "--suite", "thm3", "--resume", str(partial), "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["rows"] == [planted]
    assert doc["summary"] == {"suites": 1, "violations": 2, "status": "fail"}


def test_verify_resume_from_one_suite_into_all_is_byte_identical(tmp_path):
    # the partition row keeps its rows under --suite partition; under --suite all a passing suite drops them
    argv = ["verify", "--seed", "42", "--trials", "30"]
    one, fresh, resumed = tmp_path / "one.json", tmp_path / "fresh.json", tmp_path / "resumed.json"
    assert main([*argv, "--suite", "partition", "--out", str(one)]) == 0
    assert main([*argv, "--suite", "all", "--out", str(fresh)]) == 0
    assert main([*argv, "--suite", "all", "--resume", str(one), "--out", str(resumed)]) == 0
    assert resumed.read_bytes() == fresh.read_bytes()


def test_verify_resume_from_all_into_one_suite_is_byte_identical(tmp_path):
    # the reverse: the partition row under --suite all has no rows, which --suite partition writes
    argv = ["verify", "--seed", "42", "--trials", "30"]
    every, fresh, resumed = tmp_path / "all.json", tmp_path / "fresh.json", tmp_path / "resumed.json"
    assert main([*argv, "--suite", "all", "--out", str(every)]) == 0
    assert main([*argv, "--suite", "partition", "--out", str(fresh)]) == 0
    assert main([*argv, "--suite", "partition", "--resume", str(every), "--out", str(resumed)]) == 0
    assert resumed.read_bytes() == fresh.read_bytes()


def _declared_console_scripts():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def test_console_entry_point():
    # The installed console script exists only after `pip install`; the
    # declared target is run the way the generated wrapper runs it, so the
    # check holds with the package merely on PYTHONPATH.
    target = _declared_console_scripts()["overlap-lab"]
    assert target == "overlap_lab.cli:main"
    module, _, attr = target.partition(":")
    wrapper = (
        "import importlib, sys\n"
        f"func = getattr(importlib.import_module({module!r}), {attr!r})\n"
        "sys.argv = ['overlap-lab', '--help']\n"
        "sys.exit(func())\n"
    )
    declared = subprocess.run([sys.executable, "-c", wrapper], capture_output=True, text=True)
    assert declared.returncode == 0, declared.stderr
    assert "usage: overlap-lab" in declared.stdout
    assert "bounds" in declared.stdout and "verify" in declared.stdout

    as_module = subprocess.run([sys.executable, "-m", "overlap_lab", "--help"], capture_output=True, text=True)
    assert (as_module.returncode, as_module.stdout) == (declared.returncode, declared.stdout)

    script = shutil.which("overlap-lab")
    if script is not None:
        installed = subprocess.run([script, "--help"], capture_output=True, text=True)
        assert (installed.returncode, installed.stdout) == (declared.returncode, declared.stdout)


def test_verify_all_smoke(tmp_path):
    # tiny trial counts: this exercises suite wiring, not the acceptance budgets
    out = tmp_path / "all.json"
    code = main(["verify", "--suite", "all", "--seed", "7", "--trials", "30", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["status"] == "pass"
    assert [row["suite"] for row in doc["rows"]] == [
        "hilton", "thm1", "thm2", "thm3", "thm4", "bde", "cyclic", "partition", "random-matching", "conj1", "conj2"
    ]


def test_public_surface_is_pinned():
    # a name added to or dropped from the package's exports fails here, so the change shows in review
    import overlap_lab

    assert sorted(overlap_lab.__all__) == [
        "ArcFamily", "BipartiteGraph", "Chain", "CyclicOrder", "ExtremalRecord", "Family", "SUITES", "Suite",
        "arcs", "bde_check", "binom", "colex_rank", "compress_pair", "conj1_value", "conj2_bound",
        "construction_chain", "cover_family", "d_vec", "evaluate_bound", "exact_f_shifted", "g", "g_argmax",
        "gb_emc_bound", "hilton_bound", "is_overlapping", "is_shifted", "ksets", "matching_number",
        "max_bipartite_matching", "min_vertex_cover", "nestify", "oracle_f", "rainbow_matching_number",
        "reduce_to_weighted", "run_suite", "shift_closure", "shift_ij", "shift_leq", "thm1_bound", "thm2_value",
        "thm3_value", "thm4_value", "u_eval", "u_zero", "verify_partition_bound", "verify_random_matching_bound",
        "weight_vector",
    ]
    # every name exported is bound, and the package still loads every submodule
    assert all(hasattr(overlap_lab, name) for name in overlap_lab.__all__)
    assert {"bounds", "combinatorics", "cyclic", "family", "matching", "search", "suites"} <= set(vars(overlap_lab))
