"""Command-line surface: exit codes, report formats, and file outputs."""

import argparse
import dataclasses
import itertools
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import shlinear
from shlinear import bounds, cli, fileio, fixtures, linalg, shset
from shlinear import code as code_mod


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fx(name):
    return str(fixtures.fixture_path(name))


DATA_DIR = os.path.dirname(fx(fixtures.SET_F3_R5))


def test_verify_linear_collision_exit_1(capsys):
    code, out, _ = run(capsys, "verify", "--set", fx(fixtures.SET_F3_R5), "--h", "2")
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 2
    # two-line witness: both sides end with the same value
    assert lines[0].endswith("= 2 0 0 2 2")
    assert lines[1].endswith("= 2 0 0 2 2")


def test_verify_plain_mode_exit_0(capsys):
    code, out, _ = run(
        capsys, "verify", "--set", fx(fixtures.SET_F3_R5), "--h", "2", "--mode", "plain"
    )
    assert code == 0
    assert out.strip() == "OK"


def test_verify_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--set", "/nonexistent.set", "--h", "2")
    assert code == 2
    assert "not found" in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--h", "2"])  # --set missing
    assert info.value.code == 2


def test_mindist_f5_fixture(capsys):
    code, out, _ = run(capsys, "mindist", "--matrix", fx(fixtures.PARITY_F5_8X12), "--role", "parity")
    assert code == 0
    assert "d=7" in out


def test_mindist_at_least(capsys):
    code, out, _ = run(
        capsys, "mindist", "--matrix", fx(fixtures.PARITY_F2_8X14), "--at-least", "5"
    )
    assert code == 0 and "d>=5: true" in out
    code, out, _ = run(
        capsys, "mindist", "--matrix", fx(fixtures.PARITY_F2_8X14), "--at-least", "6"
    )
    assert code == 1
    assert "d>=6: false" in out
    assert "dependent_columns=" in out


def test_hspan_writes_sorted_values(tmp_path, capsys):
    out_path = tmp_path / "span.set"
    code, out, _ = run(
        capsys, "hspan", "--set", fx(fixtures.SET_F3_R3), "--h", "2", "--out", str(out_path)
    )
    assert code == 0
    assert "count=8" in out
    _, _, vectors = fileio.load_vectors(out_path)
    assert len(vectors) == 8


@pytest.mark.parametrize("name", [f for f in fixtures.ALL_FIXTURES if f.endswith(".set")])
def test_hspan_file_equals_saved_sorted_span(tmp_path, capsys, name):
    """The span is written from sorted packed values; the file is the one
    save_vectors makes of the FqVector span sorted by encoding."""
    for h in (1, 2, 3):
        out_path, expected = tmp_path / f"span{h}.set", tmp_path / f"expected{h}.set"
        code, _, _ = run(capsys, "hspan", "--set", fx(name), "--h", str(h), "--out", str(out_path))
        assert code == 0
        candidate = fileio.load_set(fx(name), h)
        span = sorted(shset.h_span(candidate), key=lambda v: v.encode())
        fileio.save_vectors(expected, candidate.ctx, candidate.r, span)
        assert out_path.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("q", [11, 16, 27, 121, 243, 251, 256])
@pytest.mark.parametrize("r", [1, 3])
def test_hspan_file_equals_saved_sorted_span_over_larger_fields(tmp_path, capsys, q, r):
    """Multi-digit codes, and coordinates wider than a byte (q = 27, 243,
    251), which the shipped fixtures do not reach."""
    ctx = shlinear.field_of_order(q)
    rng = random.Random(q * 10 + r)
    h = 2 if r == 1 or q <= 27 else 1
    codes = rng.sample(range(q ** r), 4)
    vectors = [shlinear.linalg.decode_vector(ctx, r, c) for c in codes]
    set_path, out_path, expected = (tmp_path / f for f in ("set.set", "span.set", "expected.set"))
    fileio.save_vectors(set_path, ctx, r, vectors)
    code, out, _ = run(capsys, "hspan", "--set", str(set_path), "--h", str(h), "--out", str(out_path))
    assert code == 0
    span = sorted(shset.h_span(fileio.load_set(set_path, h)), key=lambda v: v.encode())
    assert f"count={len(span)}" in out
    fileio.save_vectors(expected, ctx, r, span)
    assert out_path.read_bytes() == expected.read_bytes()


def test_python_m_shlinear_runs_the_cli():
    src = os.path.dirname(os.path.dirname(shlinear.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "shlinear", "--help"], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0
    assert "search-max" in done.stdout


def test_to_set_to_code_round_trip_via_files(tmp_path, capsys):
    set_path = tmp_path / "cols.set"
    code, out, _ = run(
        capsys, "to-set", "--matrix", fx(fixtures.PARITY_F2_8X14), "--h", "2",
        "--out", str(set_path),
    )
    assert code == 0
    assert "set_size=15" in out

    mat_path = tmp_path / "rebuilt.mat"
    code, out, _ = run(
        capsys, "to-code", "--set", str(set_path), "--h", "2", "--out", str(mat_path)
    )
    assert code == 0
    assert "n=14" in out and "k=6" in out
    rebuilt = fileio.load_matrix(mat_path)
    assert (rebuilt.rows, rebuilt.cols) == (8, 14)


def test_to_set_refuses_small_distance(tmp_path, capsys):
    code, out, _ = run(
        capsys, "to-set", "--matrix", fx(fixtures.PARITY_F2_8X14), "--h", "3",
        "--out", str(tmp_path / "x.set"),
    )
    assert code == 1
    assert "d>=7: false" in out


def test_to_code_collision_exit_1(tmp_path, capsys):
    code, out, _ = run(
        capsys, "to-code", "--set", fx(fixtures.SET_F3_R5), "--h", "2",
        "--out", str(tmp_path / "x.mat"),
    )
    assert code == 1
    assert "verdict=not_sh_linear" in out


def test_extend_reports_sizes(capsys):
    code, out, _ = run(capsys, "extend", "--set", fx(fixtures.SET_F3_R3), "--h", "2")
    assert code == 0
    assert "initial_size=3" in out
    assert "maximal_size=" in out


def test_search_max_binary(capsys):
    code, out, _ = run(capsys, "search-max", "--q", "2", "--r", "4", "--h", "2")
    assert code == 0
    assert "max=6" in out


def test_search_max_contains_zero_changes_nothing(capsys):
    # every maximum contains 0 (translation for q = 2 and plain mode, the
    # zero lemma for q >= 3), so the flag is accepted and changes nothing
    argv = ["search-max", "--q", "3", "--r", "3", "--h", "2", "-v"]
    unflagged = run(capsys, *argv)
    assert run(capsys, *argv, "--contains-zero") == unflagged
    code, out, _ = unflagged
    assert code == 0 and out.splitlines()[:2] == ["max=4", "0 0 0"]


def _leaf_parsers(parser, path=()):
    """(subcommand words, parser) of every runnable subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_parsers(sub, path + (name,))
            return
    yield path, parser


def test_readme_synopsis_lists_every_long_option():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command-line usage", 1)[1].split("```")[1]
    synopsis = {}
    for line in block.replace("\\\n", " ").splitlines():
        words = line.split()
        if words[:1] == ["shlinear"]:
            command = tuple(itertools.takewhile(lambda w: w[0].isalpha(), words[1:]))
            synopsis[command] = set(re.findall(r"--[a-z][a-z-]*", line))
    leaves = dict(_leaf_parsers(cli.build_parser()))
    assert set(synopsis) == set(leaves)
    for command, parser in leaves.items():
        options = {
            o for a in parser._actions for o in a.option_strings if o.startswith("--")
        } - {"--help"}
        assert synopsis[command] == options, command


def test_bounds_vbar_exact(capsys):
    code, out, _ = run(capsys, "bounds", "vbar", "--q", "2", "--h", "2", "--n", "8", "--exact")
    assert code == 0
    assert "vbar=6" in out
    assert "exact=true" in out
    assert "bmax_log=2" in out


def test_bounds_table_grid(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run(
        capsys, "bounds", "table", "--q", "2", "--r-min", "4", "--r-max", "9",
        "--out", str(out_path),
    )
    assert code == 0
    text = out_path.read_text()
    assert text.splitlines()[0] == "r,h=2,h=3,h=4,h=5,h=6,h=7,h=8"
    assert "24" in text


def test_bounds_table_vbar_series(capsys):
    code, out, _ = run(
        capsys, "bounds", "table", "--q", "2", "--mode", "vbar", "--h", "2",
        "--n-min", "5", "--n-max", "8",
    )
    assert code == 0
    assert out.strip().splitlines() == ["n,vbar", "5,4", "6,5", "7,6", "8,6"]


def test_bounds_ingest(capsys):
    code, out, _ = run(capsys, "bounds", "ingest", "--file", fx(fixtures.SNAPSHOT))
    assert code == 0
    assert out.startswith("entries=")


def test_bounds_ingest_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("2,5,1\n")
    code, _, err = run(capsys, "bounds", "ingest", "--file", str(path))
    assert code == 2
    assert "line 1" in err


def test_snapshot_env_override(tmp_path, capsys, monkeypatch):
    path = tmp_path / "mini.csv"
    path.write_text("2,8,2,5,5\n")
    monkeypatch.setenv(fixtures.SNAPSHOT_ENV, str(path))
    code, out, _ = run(capsys, "bounds", "vbar", "--q", "2", "--h", "2", "--n", "8")
    assert code == 0
    assert "vbar=6" in out


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "1", "--trials", "10")
    assert code == 0
    assert "counting_law: pass" in out
    assert "combination_oracle_agreement: pass" in out
    assert "search_oracle_agreement: pass" in out
    assert "certificate_oracle_agreement: pass" in out
    assert "distance_cross_validation: pass" in out


def test_selftest_checks_f4_certificates(capsys, monkeypatch):
    """The certificate check covers F_4 (p = 2, m = 2 packing): a wrong
    verdict there alone makes selftest fail."""
    exists = bounds.exists_code_with_distance

    def wrong_over_f4(q, n, k, d, *args):
        cert = exists(q, n, k, d, *args)
        return dataclasses.replace(cert, exists=not cert.exists) if q == 4 else cert

    monkeypatch.setattr(bounds, "exists_code_with_distance", wrong_over_f4)
    code, out, _ = run(capsys, "selftest", "--seed", "1", "--trials", "10")
    assert code == 1
    assert "certificate_oracle_agreement: FAIL" in out


@pytest.mark.parametrize("change", [
    lambda cert: dataclasses.replace(cert, exists=not cert.exists) if cert.q == 5 else cert,
    lambda cert: cert if cert.exists else dataclasses.replace(cert, candidates=cert.candidates - 1),
], ids=["f5_verdict", "none_count"])
def test_selftest_checks_f5_verdicts_and_none_counts(capsys, monkeypatch, change):
    """The certificate check covers F_5, where column scaling cuts the
    enumeration, and the count of a "none" certificate: a wrong verdict over
    F_5 or a "none" short of the Gaussian binomial alone makes selftest
    fail."""
    exists = bounds.exists_code_with_distance
    monkeypatch.setattr(bounds, "exists_code_with_distance", lambda *args: change(exists(*args)))
    code, out, _ = run(capsys, "selftest", "--seed", "1", "--trials", "10")
    assert code == 1
    assert "certificate_oracle_agreement: FAIL" in out


def test_selftest_checks_f4_distances(capsys, monkeypatch):
    """The distance cross-validation covers F_4 (p = 2, m = 2 packing): a
    wrong minimum distance there alone makes selftest fail."""
    min_distance = code_mod.min_distance

    def wrong_over_f4(built, *args):
        d = min_distance(built, *args)
        return d + 1 if built.ctx.q == 4 else d

    monkeypatch.setattr(code_mod, "min_distance", wrong_over_f4)
    code, out, _ = run(capsys, "selftest", "--seed", "1", "--trials", "10")
    assert code == 1
    assert "distance_cross_validation: FAIL" in out


def test_selftest_checks_the_column_walk(capsys, monkeypatch):
    """The distance cross-validation asks the column walk itself, not
    distance_at_least, which answers small codes from the codeword walk: a
    wrong column walk over F_4 alone makes selftest fail."""
    first_dependent = linalg.PackedSpace.first_dependent

    def wrong_over_f4(space, xs, most):
        return None if space.q == 4 else first_dependent(space, xs, most)

    monkeypatch.setattr(linalg.PackedSpace, "first_dependent", wrong_over_f4)
    code, out, _ = run(capsys, "selftest", "--seed", "1", "--trials", "10")
    assert code == 1
    assert "distance_cross_validation: FAIL" in out
    assert out.count("FAIL") == 1


def test_selftest_distance_check_skips_distance_at_least(capsys, monkeypatch):
    """distance_at_least may answer from the codeword walk of min_distance,
    so the cross-validation does not ask it: a wrong distance_at_least
    leaves selftest passing."""
    monkeypatch.setattr(code_mod, "distance_at_least", lambda built, d: (True, None))
    code, out, _ = run(capsys, "selftest", "--seed", "1", "--trials", "10")
    assert code == 0
    assert "distance_cross_validation: pass" in out


@pytest.mark.parametrize("argv", [
    ["search-max", "--q", "2", "--r", "3", "--h", "0"],
    ["bounds", "vbar", "--q", "2", "--h", "3", "--n", "5"],
    ["mindist", "--matrix", fx(fixtures.PARITY_F2_8X8), "--at-least", "0"],
    ["mindist", "--matrix", fx(fixtures.PARITY_F2_8X8), "--at-least", "-3"],
    ["to-set", "--matrix", fx(fixtures.PARITY_F2_8X8), "--h", "-1", "--out", os.devnull],
    ["search-max", "--q", "2", "--r", "-1", "--h", "2"],
    ["search-max", "--q", "3", "--r", "0", "--h", "2"],
    ["search-max", "--q", "3", "--r", "0", "--h", "1"],
    ["bounds", "vbar", "--exact", "--q", "4", "--h", "0", "--n", "6"],
    ["bounds", "vbar", "--q", "4", "--h", "-1", "--n", "6"],
    ["bounds", "table", "--q", "2", "--h-min", "0", "--h-max", "2"],
    ["bounds", "table", "--q", "2", "--mode", "vbar", "--h", "0"],
    ["bounds", "vbar", "--exact", "--q", "4", "--h", "2", "--n", "6", "--budget", "0"],
    # a directory where a file is expected, as input or as output
    ["verify", "--set", DATA_DIR, "--h", "2"],
    ["mindist", "--matrix", DATA_DIR],
    ["hspan", "--set", fx(fixtures.SET_F3_R5), "--h", "2", "--out", DATA_DIR],
    ["to-set", "--matrix", fx(fixtures.PARITY_F2_8X8), "--h", "1", "--out", DATA_DIR],
    ["to-code", "--set", fx(fixtures.SET_F2_R10), "--h", "3", "--out", DATA_DIR],
    ["extend", "--set", fx(fixtures.SET_F3_R3), "--h", "2", "--out", DATA_DIR],
    ["search-max", "--q", "2", "--r", "3", "--h", "2", "--out", DATA_DIR],
    ["search-max", "--q", "4", "--r", "2", "--h", "2", "--poly", "1,x,1"],
    # a field order that is not a prime power
    ["bounds", "table", "--q", "6"],
    ["bounds", "table", "--q", "1"],
    ["bounds", "table", "--q", "6", "--mode", "vbar", "--h", "2"],
    ["bounds", "vbar", "--q", "6", "--h", "2", "--n", "7"],
    # no check to run
    ["selftest", "--trials", "0"],
    ["selftest", "--trials", "-1"],
    # an empty range, or r or n below 1: the offending option comes last
    ["bounds", "table", "--q", "2", "--r-max", "3", "--r-min", "5"],
    ["bounds", "table", "--q", "2", "--h-max", "2", "--h-min", "4"],
    ["bounds", "table", "--q", "2", "--mode", "vbar", "--h", "2", "--n-max", "5", "--n-min", "9"],
    ["bounds", "table", "--q", "2", "--r-min", "0"],
    ["bounds", "table", "--q", "2", "--mode", "vbar", "--h", "2", "--n-min", "0"],
    # a codeword budget below 1
    ["mindist", "--matrix", fx(fixtures.PARITY_F2_8X8), "--budget", "0"],
    # a header key below its least value; an argument holding lines of text
    # names a file with that text
    ["verify", "--set", "q=2 r=0\n1\n", "--h", "1"],
    ["hspan", "--set", "q=3 r=-1\n", "--h", "1", "--out", os.devnull],
    ["mindist", "--matrix", "q=2 rows=-1 cols=3\n"],
    ["mindist", "--matrix", "q=2 rows=0 cols=-3\n"],
    ["mindist", "--matrix", "q=2 rows=0 cols=0\n"],
    ["to-set", "--matrix", "q=3 rows=0 cols=0\n", "--h", "1", "--out", os.devnull],
])
def test_bad_parameters_exit_2(capsys, tmp_path, argv):
    texts = [arg for arg in argv if "\n" in arg]
    for i, text in enumerate(texts):
        path = tmp_path / f"input{i}"
        path.write_text(text)
        argv = [str(path) if arg == text else arg for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    if texts:
        bad = re.search(r"header (\w+=-?\d+) must be >= [01]$", err.strip())
        assert bad and bad.group(1) in texts[0].split()
    elif "--budget" in argv:
        assert "--budget" in err
    elif "--poly" in argv:
        assert "--poly" in err
    elif "--trials" in argv:
        assert "--trials" in err
    elif argv[-2] in ("--r-min", "--h-min", "--n-min"):
        assert argv[-2] in err
    elif argv[0] == "bounds" and argv[argv.index("--q") + 1] in ("1", "6"):
        assert "field order must be >= 2" in err or "6 is not a prime power" in err
    elif argv[0] == "bounds":
        assert "h=" in err


def test_whole_space_code_accepted(tmp_path, capsys):
    # no parity checks: the [4,4,1] code of all of F_2^4
    path = tmp_path / "whole.mat"
    path.write_text("q=2 rows=0 cols=4\n")
    assert run(capsys, "mindist", "--matrix", str(path)) == (0, "d=1\n", "")


def test_mindist_budget_below_1_refused_for_k0_code(tmp_path, capsys):
    # a k = 0 code needs no enumeration, so the budget used to go unread
    # and --budget -5 printed d=0
    path = tmp_path / "identity.mat"
    path.write_text("q=2 rows=3 cols=3\n1 0 0\n0 1 0\n0 0 1\n")
    code, out, err = run(capsys, "mindist", "--matrix", str(path), "--budget", "-5")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "--budget" in err
    assert run(capsys, "mindist", "--matrix", str(path), "--budget", "1")[:2] == (0, "d=0\n")


@pytest.mark.parametrize("q, message", [
    ("1", "field order must be >= 2"),
    ("6", "not a prime power"),
])
def test_vbar_exact_bad_field_order_exit_2(capsys, q, message):
    code, _, err = run(capsys, "bounds", "vbar", "--exact", "--q", q, "--h", "2", "--n", "8")
    assert code == 2
    assert err.startswith("error: ") and message in err


def test_verify_repeated_vector_exit_2(tmp_path, capsys):
    path = tmp_path / "dup.set"
    path.write_text("q=3 r=2\n1 0\n1 0\n")
    code, _, err = run(capsys, "verify", "--set", str(path), "--h", "1")
    assert code == 2
    assert "duplicate" in err


def test_consecutive_calls_do_not_share_options(capsys):
    code, out, _ = run(
        capsys, "verify", "--set", fx(fixtures.SET_F3_R5), "--h", "2", "--mode", "plain"
    )
    assert (code, out.strip()) == (0, "OK")
    code, out, _ = run(capsys, "search-max", "--q", "2", "--r", "3", "--h", "2", "-v")
    assert code == 0 and len(out.strip().splitlines()) > 1
    code, out, _ = run(capsys, "search-max", "--q", "2", "--r", "3", "--h", "2")
    assert (code, out.strip()) == (0, "max=4")
    code, out, _ = run(capsys, "verify", "--set", fx(fixtures.SET_F3_R5), "--h", "2")
    assert code == 1  # the linear default, not the plain mode of the first call
