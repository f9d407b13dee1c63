import json
import subprocess
import sys

import pytest

from policheck.cli import main

KB = "func has_data\nrange has_data AnyData\n"
VOCAB = "sub Location AnyData\nsub Email AnyData\ndisj Location Email\n"


@pytest.fixture
def files(tmp_path):
    (tmp_path / "main.plkb").write_text(KB)
    (tmp_path / "vocab.horn").write_text(VOCAB)
    (tmp_path / "biz.plp").write_text("(and (some has_data Location) (int dur 0 100))\n")
    (tmp_path / "consent.plp").write_text("(and (some has_data AnyData) (int dur 0 365))\n")
    (tmp_path / "refused.plp").write_text("(some has_data Email)\n")
    return tmp_path


def _check_args(files, lhs="biz.plp", rhs="consent.plp", *extra):
    return [
        "check",
        "--kb", str(files / "main.plkb"),
        "--oracle", str(files / "vocab.horn"),
        "--lhs", str(files / lhs),
        "--rhs", str(files / rhs),
        *extra,
    ]


def test_check_true(files, capsys):
    assert main(_check_args(files)) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "TRUE"
    assert "oracle_calls=" in out


def test_check_false_and_exit_status(files, capsys):
    assert main(_check_args(files, "biz.plp", "refused.plp")) == 0
    assert capsys.readouterr().out.splitlines()[0] == "FALSE"
    assert main(_check_args(files, "biz.plp", "refused.plp", "--exit-status")) == 1
    capsys.readouterr()
    assert main(_check_args(files, "biz.plp", "consent.plp", "--exit-status")) == 0


def test_check_reflexive(files, capsys):
    assert main(_check_args(files, "biz.plp", "biz.plp")) == 0
    assert capsys.readouterr().out.splitlines()[0] == "TRUE"


def test_check_json_stats(files, capsys):
    assert main(_check_args(files, "biz.plp", "consent.plp", "--stats", "json")) == 0
    lines = capsys.readouterr().out.splitlines()
    stats = json.loads(lines[1])
    assert stats["answer"] is True
    for key in (
        "wall_ms", "oracle_calls", "cache_hits",
        "disj_before", "disj_after_norm", "disj_after_split", "ni",
    ):
        assert key in stats


def test_no_cache_same_answer_different_calls(tmp_path, capsys):
    # interval splitting duplicates name queries across the split copies, so
    # the cached run issues fewer oracle calls for the same answer
    (tmp_path / "main.plkb").write_text(KB)
    (tmp_path / "vocab.horn").write_text(VOCAB)
    (tmp_path / "lhs.plp").write_text(
        "(and (some has_data Location) (int d1 0 30))\n"
    )
    (tmp_path / "rhs.plp").write_text(
        "(or (and (some has_data AnyData) (int d1 0 10)) "
        "(and (some has_data AnyData) (int d1 11 40)))\n"
    )
    args = _check_args(tmp_path, "lhs.plp", "rhs.plp", "--stats", "json")
    assert main(args) == 0
    cached = json.loads(capsys.readouterr().out.splitlines()[1])
    assert main(args + ["--no-cache"]) == 0
    uncached = json.loads(capsys.readouterr().out.splitlines()[1])
    assert cached["answer"] == uncached["answer"]
    assert uncached["oracle_calls"] > cached["oracle_calls"]
    assert uncached["cache_hits"] == 0


def test_usage_error_exit_2(capsys):
    assert main(["check", "--kb", "x"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["check", "--kb", "a", "--lhs", "b", "--rhs", "c"]) == 2  # no oracle


def test_parse_error_exit_3(files, capsys):
    (files / "bad.plp").write_text("(and A (or B C))\n")
    assert main(_check_args(files, "bad.plp", "consent.plp")) == 3
    err = capsys.readouterr().err
    assert "parse error" in err and "1:" in err


def test_signature_violation_exit_4(files, capsys):
    (files / "sharedrole.horn").write_text("subex has_data A B\n")
    code = main(
        [
            "check",
            "--kb", str(files / "main.plkb"),
            "--oracle", str(files / "sharedrole.horn"),
            "--lhs", str(files / "biz.plp"),
            "--rhs", str(files / "consent.plp"),
        ]
    )
    assert code == 4
    assert "has_data" in capsys.readouterr().err


def test_oracle_failure_exit_5(files, capsys, monkeypatch):
    monkeypatch.setenv("POLICHECK_ORACLE_TIMEOUT", "0.5")
    code = main(
        [
            "check",
            "--kb", str(files / "main.plkb"),
            "--oracle-cmd", f"{sys.executable} -c 'import time; time.sleep(60)'",
            "--lhs", str(files / "biz.plp"),
            "--rhs", str(files / "consent.plp"),
        ]
    )
    assert code == 5


def test_missing_file_exit_6(files):
    assert main(_check_args(files, "nope.plp", "consent.plp")) == 6


def test_check_with_external_oracle(files, capsys, monkeypatch):
    monkeypatch.setenv("POLICHECK_ORACLE_TIMEOUT", "15")
    cmd = f"{sys.executable} -m policheck.oracle_server {files / 'vocab.horn'}"
    code = main(
        [
            "check",
            "--kb", str(files / "main.plkb"),
            "--oracle-cmd", cmd,
            "--lhs", str(files / "biz.plp"),
            "--rhs", str(files / "consent.plp"),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "TRUE"


def test_classify(files, tmp_path, capsys):
    (tmp_path / "chain.horn").write_text("sub A B\nsub B C\n")
    assert main(["classify", "--oracle", str(tmp_path / "chain.horn"), "--class", "A"]) == 0
    assert capsys.readouterr().out.strip() == "A B C Top"
    assert main(["classify", "--oracle", str(tmp_path / "chain.horn")]) == 0
    table = capsys.readouterr().out
    assert "A: A B C Top" in table and "C: C Top" in table
    assert main(["classify", "--oracle", str(tmp_path / "chain.horn"), "--class", "Zz"]) == 7


def test_classify_single_class_empty_ontology(tmp_path, capsys):
    (tmp_path / "empty.horn").write_text("")
    assert main(["classify", "--oracle", str(tmp_path / "empty.horn"), "--class", "A"]) == 7


def test_gen_bench_round_trip(tmp_path, capsys):
    out = tmp_path / "suite"
    code = main(
        [
            "gen",
            "--preset", "K1", "--policy-preset", "P1",
            "--seed", "7", "--count", "6",
            "--synthetic-classes", "80",
            "--out", str(out),
        ]
    )
    assert code == 0
    manifest = out / "suite.manifest"
    assert manifest.exists()

    report_file = tmp_path / "report.json"
    code = main(
        [
            "bench",
            "--suite", str(manifest),
            "--report", str(report_file),
            "--stats", "json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["queries"] == 6
    assert report["errors"] == 0
    assert report["mismatches"] == 0
    assert report["ni_buckets"]

    detail = json.loads(report_file.read_text())
    assert detail["summary"]["queries"] == 6
    assert len(detail["queries"]) == 6
    # aggregate equals the sum of per-query counters
    assert detail["summary"]["total_oracle_calls"] == sum(
        q["oracle_calls"] for q in detail["queries"]
    )


def test_bench_cached_vs_uncached_calls(tmp_path, capsys):
    out = tmp_path / "suite"
    main(
        [
            "gen", "--seed", "3", "--count", "4",
            "--synthetic-classes", "60", "--no-expected",
            "--out", str(out),
        ]
    )
    main(["bench", "--suite", str(out / "suite.manifest"), "--stats", "json"])
    cached = json.loads(capsys.readouterr().out)
    main(["bench", "--suite", str(out / "suite.manifest"), "--stats", "json", "--no-cache"])
    uncached = json.loads(capsys.readouterr().out)
    assert uncached["total_oracle_calls"] >= cached["total_oracle_calls"]
    assert uncached["total_cache_hits"] == 0


def test_bench_empty_suite(tmp_path, capsys):
    manifest = tmp_path / "empty.manifest"
    manifest.write_text("")
    assert main(["bench", "--suite", str(manifest)]) == 0
    assert "queries=0" in capsys.readouterr().out


def test_gen_determinism_across_processes(tmp_path):
    # subprocesses have different hash seeds; byte-identical output proves
    # generation never leans on set iteration order
    def run(out_dir):
        subprocess.run(
            [
                sys.executable, "-m", "policheck.cli",
                "gen", "--seed", "11", "--count", "3",
                "--synthetic-classes", "50", "--out", str(out_dir),
            ],
            check=True,
            capture_output=True,
        )

    run(tmp_path / "one")
    run(tmp_path / "two")
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "two").iterdir())
    for name in names:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_gen_count_zero_manifest_only(tmp_path):
    out = tmp_path / "suite"
    assert main(["gen", "--seed", "1", "--count", "0", "--out", str(out)]) == 0
    assert (out / "suite.manifest").read_text() == ""


def test_bench_accepts_suite_directory_and_threads(tmp_path, capsys):
    out = tmp_path / "suite"
    main(
        [
            "gen", "--seed", "5", "--count", "4",
            "--synthetic-classes", "40", "--out", str(out),
        ]
    )
    assert main(["bench", "--suite", str(out), "--threads", "4", "--stats", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["queries"] == 4
    assert report["mismatches"] == 0
    for bucket in report["ni_buckets"].values():
        assert bucket["p50_wall_ms"] <= bucket["p95_wall_ms"] <= bucket["p99_wall_ms"]
        assert bucket["p99_wall_ms"] > 0.0
