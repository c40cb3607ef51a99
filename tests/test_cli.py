"""CLI surface: outputs, exit codes, determinism, environment seed."""

import csv
import math
import os
import subprocess
import sys

import pytest

import projlin
from projlin.cli import EXIT_CAP, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, format_rational, main
from fractions import Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_format_rational():
    assert format_rational(Fraction(8)) == "8"
    assert format_rational(Fraction(41, 6)) == "41/6"
    assert format_rational(Fraction(8, 3), 4) == "2.6667"
    assert format_rational(Fraction(-1, 8), 2) == "-0.13"
    assert format_rational(Fraction(5, 2), 0) == "3"


def test_expected_star(capsys):
    code, out, _ = run(capsys, "expected", "--tree", "0 1 1 1 1")
    assert code == EXIT_OK and out == "8\n"


def test_expected_variants_and_methods(capsys):
    code, out, _ = run(capsys, "expected", "--tree", "0 1 2 3 4", "--variant", "minus_one")
    assert code == EXIT_OK and out == "3\n"
    # the closed form is the only method, and there is no option to pick one
    code, out, _ = run(capsys, "expected", "--tree", "0 1 2 3 4", "--method", "closed")
    assert code == EXIT_USAGE and out == ""
    code, out, _ = run(capsys, "expected", "--tree", "0 1 1", "--decimal", "4")
    assert code == EXIT_OK and out == "2.6667\n"


def test_expected_tree_file(tmp_path, capsys):
    path = tmp_path / "tree.txt"
    path.write_text("0 1 1 1 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "expected", "--tree-file", str(path))
    assert code == EXIT_OK and out == "8\n"


def test_count_chain(capsys):
    code, out, _ = run(capsys, "count", "--tree", "0 1 2 3")
    assert code == EXIT_OK and out == "8\n"


def test_enumerate_output(capsys):
    code, out, _ = run(capsys, "enumerate", "--tree", "0 1")
    assert code == EXIT_OK
    assert sorted(out.splitlines()) == ["1 2", "2 1"]


def test_classes_row(capsys):
    code, out, _ = run(capsys, "classes", "--class", "star_leaf", "--n", "6")
    assert code == EXIT_OK and out == "240 11\n"
    code, out, _ = run(capsys, "classes", "--class", "linear_k", "--n", "6", "--k", "2")
    assert code == EXIT_OK and out == "48 26/3\n"


def test_minima_row(capsys):
    code, out, _ = run(capsys, "minima", "--n", "4")
    assert code == EXIT_OK
    assert out.startswith("4, 9/2, 2, ")
    code, out, _ = run(capsys, "minima", "--n", "3", "--all")
    assert [line.split(",")[0] for line in out.splitlines()] == ["1", "2", "3"]


def test_maxima_row(capsys):
    code, out, _ = run(capsys, "maxima", "--n", "8")
    assert code == EXIT_OK and out == "8, 21, 0 1 1 1 1 1 1 1\n"


def test_sample_deterministic(capsys):
    code, first, _ = run(capsys, "sample", "--tree", "0 1 1 2", "--z", "5", "--seed", "3")
    assert code == EXIT_OK and len(first.splitlines()) == 5
    _, second, _ = run(capsys, "sample", "--tree", "0 1 1 2", "--z", "5", "--seed", "3")
    assert first == second
    _, other, _ = run(capsys, "sample", "--tree", "0 1 1 2", "--z", "5", "--seed", "4")
    assert other != first


def test_sample_mean(capsys):
    code, out, _ = run(capsys, "sample", "--tree", "0 1", "--z", "50", "--seed", "1", "--mean")
    assert code == EXIT_OK and out == "1.0\n"


def test_env_seed_used_and_overridden(capsys, monkeypatch):
    monkeypatch.setenv("PROJLIN_SEED", "3")
    _, env_out, _ = run(capsys, "sample", "--tree", "0 1 1 2", "--z", "5")
    _, flag_out, _ = run(capsys, "sample", "--tree", "0 1 1 2", "--z", "5", "--seed", "3")
    assert env_out == flag_out
    _, overridden, _ = run(capsys, "sample", "--tree", "0 1 1 2", "--z", "5", "--seed", "4")
    assert overridden != env_out
    monkeypatch.setenv("PROJLIN_SEED", "not-a-number")
    code, _, err = run(capsys, "sample", "--tree", "0 1 1 2", "--z", "1")
    assert code == EXIT_VALIDATION and "PROJLIN_SEED" in err


def test_negative_seeds_are_out_of_range(tmp_path, capsys, monkeypatch):
    for extra in ([], ["--mean", "--z", "3"]):
        code, out, err = run(capsys, "sample", "--tree", "0 1 1", "--seed", "-1", *extra)
        assert code == EXIT_VALIDATION and out == ""
        assert err.startswith("OutOfRange") and "--seed" in err
    monkeypatch.setenv("PROJLIN_SEED", "-3")
    code, out, err = run(capsys, "sample", "--tree", "0 1 1")
    assert code == EXIT_VALIDATION and out == ""
    assert err.startswith("OutOfRange") and "PROJLIN_SEED" in err
    monkeypatch.delenv("PROJLIN_SEED")
    corpus = tmp_path / "one.conllu"
    corpus.write_text("1\tw1\t_\tX\t_\t_\t0\t_\t_\t_\n\n", encoding="utf-8")
    prefix = tmp_path / "out"
    code, out, err = run(
        capsys, "analyze", "--input", str(corpus), "--seed", "-1", "--out-prefix", str(prefix)
    )
    assert code == EXIT_VALIDATION and out == "" and err.startswith("OutOfRange")
    assert not (tmp_path / "out.sentences.csv").exists()


def test_exit_codes(capsys):
    code, _, err = run(capsys, "expected", "--tree", "0 0 1")
    assert code == EXIT_VALIDATION and err.startswith("BadRoot")
    code, _, err = run(capsys, "enumerate", "--tree", "0 1 1 1 1 1 1 1", "--cap", "10")
    assert code == EXIT_CAP and err.startswith("CapExceeded")
    code, _, err = run(capsys, "nonsense")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "expected")
    assert code == EXIT_VALIDATION  # no tree given


def test_minima_cap_exit(capsys):
    code, _, err = run(capsys, "minima", "--n", "23", "--cap", "21")
    assert code == EXIT_CAP


def test_analyze_end_to_end(tmp_path, capsys):
    lines = []
    heads_by_sentence = [(0,), (2, 0), (2, 0, 2, 3)]
    for i, heads in enumerate(heads_by_sentence):
        lines.append(f"# sent_id = s{i}")
        for v, h in enumerate(heads, start=1):
            lines.append(f"{v}\tw{v}\t_\tX\t_\t_\t{h}\t_\t_\t_")
        lines.append("")
    corpus = tmp_path / "tiny.conllu"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    prefix = str(tmp_path / "out")
    code, out, _ = run(
        capsys, "analyze", "--input", str(corpus), "--z", "10,20", "--seed", "5",
        "--out-prefix", prefix,
    )
    assert code == EXIT_OK
    assert "analyzed 3 sentences, skipped 0" in out
    sentences = (tmp_path / "out.sentences.csv").read_text(encoding="utf-8").splitlines()
    assert len(sentences) == 1 + 3 * 2
    summary = (tmp_path / "out.summary.csv").read_text(encoding="utf-8").splitlines()
    assert summary[0] == "z,n,count,mean_err,ci_low,ci_high,min_err,max_err"
    # identical invocation produces identical files
    prefix2 = str(tmp_path / "again")
    run(capsys, "analyze", "--input", str(corpus), "--z", "10,20", "--seed", "5",
        "--out-prefix", prefix2)
    assert (tmp_path / "again.sentences.csv").read_text(encoding="utf-8") == "\n".join(
        sentences
    ) + "\n"


def test_selfcheck_small(capsys):
    code, out, _ = run(capsys, "selfcheck", "--max-n", "4")
    assert code == EXIT_OK
    assert "all checks passed" in out
    assert "FAIL" not in out


def _all_digits(text):
    """Parse a decimal integer of any length (the 4,300-digit limit lifted)."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(text)
    finally:
        sys.set_int_max_str_digits(previous)


def test_count_prints_every_digit(capsys):
    limit = sys.get_int_max_str_digits()
    star = " ".join(["0"] + ["1"] * 2000)
    code, out, err = run(capsys, "count", "--tree", star)
    assert code == EXIT_OK, err
    assert len(out.strip()) > 4300
    assert _all_digits(out.strip()) == math.factorial(2001)
    assert sys.get_int_max_str_digits() == limit  # lifted only while printing


def test_analyze_writes_rows_for_huge_counts(tmp_path, capsys):
    sentences = [(0,), (0,) + (1,) * 2000, (2, 0)]
    lines = []
    for i, heads in enumerate(sentences):
        lines.append(f"# sent_id = s{i}")
        for v, h in enumerate(heads, start=1):
            lines.append(f"{v}\tw{v}\t_\tX\t_\t_\t{h}\t_\t_\t_")
        lines.append("")
    corpus = tmp_path / "star.conllu"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    prefix = str(tmp_path / "out")
    code, out, err = run(
        capsys, "analyze", "--input", str(corpus), "--z", "10,20", "--seed", "1",
        "--out-prefix", prefix,
    )
    assert code == EXIT_OK, err
    with open(prefix + ".sentences.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["sentence_id"], r["z"]) for r in rows] == [
        (f"s{i}", z) for i in range(3) for z in ("10", "20")
    ]
    star_rows = [r for r in rows if r["sentence_id"] == "s1"]
    assert all(_all_digits(r["projective_arrangements"]) == math.factorial(2001) for r in star_rows)


def test_missing_input_files(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    code, out, err = run(capsys, "expected", "--tree-file", missing)
    assert code == EXIT_VALIDATION and err.startswith("UnreadableInput") and out == ""
    code, out, err = run(capsys, "analyze", "--input", missing)
    assert code == EXIT_VALIDATION and err.startswith("UnreadableInput") and out == ""


def test_input_files_that_are_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes("0 1\n# caf\xe9\n".encode("latin-1"))
    code, _, err = run(capsys, "expected", "--tree-file", str(path))
    assert code == EXIT_VALIDATION and err.startswith("UnreadableInput")
    code, _, err = run(capsys, "analyze", "--input", str(path), "--out-prefix", str(tmp_path / "o"))
    assert code == EXIT_VALIDATION and err.startswith("UnreadableInput")


def test_inputs_with_a_byte_order_mark(tmp_path, capsys):
    tree = tmp_path / "tree.txt"
    tree.write_text("\ufeff0 1 1 1 1\n", encoding="utf-8")
    code, out, err = run(capsys, "expected", "--tree-file", str(tree))
    assert code == EXIT_OK and out == "8\n", err
    corpus = tmp_path / "bom.conllu"
    tokens = ["1\tw1\t_\tX\t_\t_\t0\t_\t_\t_", "2\tw2\t_\tX\t_\t_\t1\t_\t_\t_"]
    corpus.write_text("\ufeff" + "\n".join(tokens) + "\n\n", encoding="utf-8")
    prefix = str(tmp_path / "o")
    code, out, err = run(capsys, "analyze", "--input", str(corpus), "--z", "10", "--out-prefix", prefix)
    assert code == EXIT_OK, err
    assert "analyzed 1 sentences, skipped 0" in out


def test_sample_needs_a_positive_z(capsys):
    for z in ("-3", "0"):
        code, out, err = run(capsys, "sample", "--tree", "0 1", "--z", z)
        assert code == EXIT_VALIDATION and err.startswith("OutOfRange") and out == ""


def test_negative_decimal_digits(capsys):
    code, out, err = run(capsys, "expected", "--tree", "0 1 1", "--decimal", "-1")
    assert code == EXIT_VALIDATION and err.startswith("OutOfRange") and out == ""
    code, out, err = run(capsys, "classes", "--class", "star_hub", "--n", "5", "--decimal", "-1")
    assert code == EXIT_VALIDATION and err.startswith("OutOfRange") and out == ""


def test_cli_import_leaves_out_the_process_pool():
    # concurrent.futures (multiprocessing, logging, socket, ...) is only
    # imported by a run with --jobs above 1
    source = os.path.dirname(os.path.dirname(projlin.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    probe = "import sys, projlin.cli; print('concurrent.futures' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
