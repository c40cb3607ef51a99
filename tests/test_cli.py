"""CLI surface: outputs, exit codes, determinism, environment seed."""

import contextlib
import csv
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import projlin
import projlin.errors
from projlin import TREE_CLASSES, arrangement, make_class, random_tree, sample_projective
from projlin._digits import _decimal_rows
from projlin.cli import EXIT_CAP, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, format_rational, main
from fractions import Fraction
from helpers import caterpillar, oracle_decimal_rows, random_tree_corpus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_corpus(path, heads_by_sentence):
    """A CoNLL-U file with sentence ids s0, s1, ... and the given head lists."""
    lines = []
    for i, heads in enumerate(heads_by_sentence):
        lines.append(f"# sent_id = s{i}")
        lines += [f"{v}\tw{v}\t_\tX\t_\t_\t{h}\t_\t_\t_" for v, h in enumerate(heads, start=1)]
        lines.append("")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


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


def test_enumerate_order_is_pinned(capsys):
    # blocks vary depth first: vertex 3's block fastest, then 4's, then 2's
    # and the root's; breadth first would vary 4's block before 3's
    code, out, _ = run(capsys, "enumerate", "--tree", "0 1 1 2 3 4")
    lines = out.splitlines()
    assert code == EXIT_OK and len(lines) == 48
    assert lines[:2] == ["1 2 4 6 3 5", "1 2 4 6 5 3"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "499a5b387cc365fe20b4c0a667944e9a77b74ee3e2f447433663b5f426e2a2e5"
    )


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


@pytest.mark.parametrize(
    "chunk_cells",
    [None, lambda n: 4 * (2 * n - 1), lambda n: max(1, n // 3)],
    ids=["one_chunk", "several_chunks", "sliced_rows"],
)
def test_sample_prints_successive_sampler_draws(monkeypatch, capsys, chunk_cells):
    # the rows of sample --z are what z sample_projective calls on
    # default_rng(seed) draw, on blocks below and past the pairwise cut-off;
    # chunks of 4 rows each, or a budget below n that writes every row in
    # several slices, whose ids may differ in width: n crosses 9/10,
    # 99/100 and 999/1000
    rng = np.random.default_rng(808)
    trees = [random_tree(int(rng.integers(2, 40)), rng) for _ in range(6)]
    trees += [make_class("star_hub", 13), caterpillar(4, 9)]
    trees += [random_tree(n, n) for n in (10, 100, 1000)]
    for tree in trees:
        z = int(rng.integers(1, 15))
        seed = int(rng.integers(2**32))
        if chunk_cells:
            monkeypatch.setattr(arrangement, "_CHUNK_CELLS", chunk_cells(tree.n))
        args = ["sample", "--tree", tree.head_vector(), "--z", str(z), "--seed", str(seed)]
        code, out, _ = run(capsys, *args)
        draws = np.random.default_rng(seed)
        rows = [sample_projective(tree, draws).inverse[1:] for _ in range(z)]
        assert code == EXIT_OK
        assert out == oracle_decimal_rows(rows, "\n"), (tree, z)


# ids around every power of ten that int32 holds, whose quotients by the
# lower powers pass 255: a kernel whose quotients wrap in uint8 prints
# 16668 for 16622
_DECIMAL_IDS = st.one_of(
    st.integers(0, 9).flatmap(lambda k: st.integers(max(0, 10**k - 3), 10**k + 2)),
    st.integers(2**31 - 3, 2**31 - 1),
    st.integers(0, 2**31 - 1),
)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([np.int32, np.int64]).flatmap(
        lambda dtype: arrays(dtype, st.tuples(st.integers(1, 5), st.integers(1, 40)), elements=_DECIMAL_IDS)
    ),
    st.sampled_from([" ", "\n"]),
)
@example(np.array([[16622]], dtype=np.int32), "\n")
@example(np.array([[0, 9, 10, 99, 100, 2**31 - 1], [1, 999, 1000, 9999, 10**9, 0]], dtype=np.int32), " ")
def test_decimal_rows_equal_the_join_of_strs(ids, end):
    assert _decimal_rows(ids, end) == oracle_decimal_rows(ids.tolist(), end)


class _WriteRecorder:
    """A stdout that keeps every string written to it."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("n", [10, 300], ids=["rows_per_chunk", "slices_per_row"])
def test_sample_writes_at_most_a_chunk_of_vertex_ids(monkeypatch, capsys, n):
    # the cell budget of the draw also bounds each write of its text: under
    # a budget of 64 cells a 10-vertex tree is drawn 3 rows a chunk and a
    # 300-vertex one writes each row in 5 slices
    args = ["sample", "--tree", random_tree(n, 5).head_vector(), "--z", "7", "--seed", "9"]
    code, whole, _ = run(capsys, *args)
    assert code == EXIT_OK
    monkeypatch.setattr(arrangement, "_CHUNK_CELLS", 64)
    recorder = _WriteRecorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    assert main(args) == EXIT_OK
    ids = [len(text.split()) for text in recorder.writes]
    assert max(ids) <= 64
    if n < 64:
        assert max(ids) > n  # the rows of a chunk share one write
    else:
        assert ids.count(64) == 7 * (n // 64)  # every row in full slices and a rest
    assert "".join(recorder.writes) == whole


# sha256 of outputs that depend on the sampler's whole stream: the keys
# drawn, the tied rows dropped, the order of the rows and every offset.
# Any change to the draw loop that moves a single draw changes them.
PINNED_STREAMS = {
    "analyze_sentences": "05ae58f6255a0bdca85bc833ea92191268be21cc417141f974264b870d1373ee",
    "analyze_summary": "2808935f7f4f032b30f6a445e204546242a28edee26255b8573eed2053063fb0",
    "sample": "98924338db1784f8edecdd22766366f3336c0eacc1caaaaf74ee3527ce940511",
    "sample_mean": "2f3407d4ba458425b1d05dea34c0354ccb6976a965063922bbcedb4e300c4be8",
}


def test_outputs_of_the_draw_loop_are_pinned(tmp_path, capsys):
    # random sentences of 1 to 40 words and a 12-vertex star: every block branch
    trees = random_tree_corpus(48, 1, 40, 601) + [make_class("star_hub", 12)]
    corpus = write_corpus(tmp_path / "pinned.conllu", [t.head_vector().split() for t in trees])
    prefix = str(tmp_path / "out")
    args = ["--input", str(corpus), "--z", "10,100,1000", "--seed", "601", "--out-prefix", prefix]
    assert run(capsys, "analyze", *args)[0] == EXIT_OK
    sentences = (tmp_path / "out.sentences.csv").read_bytes()
    summary = (tmp_path / "out.summary.csv").read_bytes()
    # a 30-vertex caterpillar: blocks of 10 and 11 segments, past the pairwise cut-off
    tree = ["--tree", caterpillar(3, 9).head_vector()]
    code, sample, _ = run(capsys, "sample", *tree, "--z", "5", "--seed", "3")
    assert code == EXIT_OK
    code, mean, _ = run(capsys, "sample", *tree, "--mean", "--z", "50", "--seed", "3")
    assert code == EXIT_OK
    digests = {
        "analyze_sentences": hashlib.sha256(sentences).hexdigest(),
        "analyze_summary": hashlib.sha256(summary).hexdigest(),
        "sample": hashlib.sha256(sample.encode()).hexdigest(),
        "sample_mean": hashlib.sha256(mean.encode()).hexdigest(),
    }
    assert digests == PINNED_STREAMS


def _punct_corpus():
    """CoNLL-U text for ``analyze --filter-punct``: every skip reason the
    parser gives, PUNCT leaves, PUNCT tokens that head a word or the
    sentence, multiword ranges and empty nodes, then random sentences whose
    leaves at every third id are PUNCT.  Token lines are written with
    spaces for tabs."""
    handwritten = [
        # PUNCT leaves, a multiword range and an empty node
        "# sent_id = leaves",
        "1-2 dont _ _ _ _ _ _ _ _",
        "1 do do AUX _ _ 3 aux _ _",
        "2 nt not PART _ _ 3 advmod _ _",
        "3 go go VERB _ _ 0 root _ _",
        "3.1 went go VERB _ _ _ _ 3:conj _",
        "4 , , PUNCT _ _ 6 punct _ _",
        "5 now now ADV _ _ 6 advmod _ _",
        "6 stop stop VERB _ _ 3 conj _ _",
        "7 . . PUNCT _ _ 3 punct _ _",
        "",
        # a PUNCT token that heads a word
        "# sent_id = punct-head",
        "1 a a NOUN _ _ 0 root _ _",
        "2 ( ( PUNCT _ _ 1 punct _ _",
        "3 b b NOUN _ _ 2 dep _ _",
        "",
        # a PUNCT root
        "# sent_id = punct-root",
        "1 a a NOUN _ _ 2 dep _ _",
        "2 : : PUNCT _ _ 0 root _ _",
        "3 b b NOUN _ _ 2 dep _ _",
        "",
        # punctuation alone
        "# sent_id = punct-only",
        "1 ! ! PUNCT _ _ 0 root _ _",
        "2 ! ! PUNCT _ _ 1 punct _ _",
        "",
        # a multiword range and an empty node alone
        "# sent_id = no-words",
        "1-2 ab _ _ _ _ _ _ _ _",
        "0.1 e _ _ _ _ _ _ _ _",
        "",
        "# sent_id = nine-columns",
        "1 a a NOUN _ _ 0 root _",
        "2 b b NOUN _ _ 1 dep _ _",
        "",
        "# sent_id = non-numeric",
        "1 a a NOUN _ _ 0 root _ _",
        "2 b b NOUN _ _ x dep _ _",
        "",
        "# sent_id = id-zero",
        "0 a a NOUN _ _ 1 dep _ _",
        "1 b b NOUN _ _ 0 root _ _",
        "",
        "# sent_id = duplicate",
        "1 a a NOUN _ _ 0 root _ _",
        "1 b b NOUN _ _ 1 dep _ _",
        "",
        "# sent_id = no-root",
        "1 a a NOUN _ _ 2 dep _ _",
        "2 b b NOUN _ _ 1 dep _ _",
        "",
        "# sent_id = two-roots",
        "1 a a NOUN _ _ 0 root _ _",
        "2 b b NOUN _ _ 0 root _ _",
        "",
        "# sent_id = missing-head",
        "1 a a NOUN _ _ 0 root _ _",
        "2 b b NOUN _ _ 9 dep _ _",
        "",
        "# sent_id = self-loop",
        "1 a a NOUN _ _ 0 root _ _",
        "2 b b NOUN _ _ 2 dep _ _",
        "",
        "# sent_id = cycle",
        "1 a a NOUN _ _ 0 root _ _",
        "2 b b NOUN _ _ 3 dep _ _",
        "3 c c NOUN _ _ 2 dep _ _",
        "",
        # no sent_id: the sentence's number names it
        "1 a a NOUN _ _ 0 root _ _",
        "2 . . PUNCT _ _ 1 punct _ _",
        "",
    ]
    lines = [line.replace(" ", "\t") for line in handwritten]
    for i, tree in enumerate(random_tree_corpus(24, 1, 30, 17)):
        lines.append(f"# sent_id = r{i}")
        for v, head in enumerate(tree.parent[1:], start=1):
            upos = "PUNCT" if v % 3 == 0 and not tree.children[v] else "X"
            lines.append(f"{v}\tw{v}\t_\t{upos}\t_\t_\t{head}\t_\t_\t_")
        lines.append("")
    return "\n".join(lines) + "\n"


# sha256 of analyze's two CSVs and stdout on _punct_corpus(), with and
# without --filter-punct
PINNED_PUNCT = {
    "filtered_sentences": "18ab05fd46d62c67a20e55f3b13704e1567930542c9773d6bf59bae49afda2b1",
    "filtered_summary": "87b068c71cd15468d9d3448dd6c57a8a36a7a98728ed149b34e8d12808583618",
    "filtered_stdout": "ec76f48337c925d1f48ec8982b702002f5bf372f274dde8f1c977a9f1b95d8b5",
    "kept_sentences": "af6232f8c17d4db1bf1fda7a5afcf94bb38f2b3621f0fcdee6b793dd0a049cd6",
    "kept_summary": "13315d9e29655322b79d88725757459f0300d8d7b103c168d452944236d6cd65",
    "kept_stdout": "12f7753f4f26194cef46b9f4ee91ccaea6ba54a43570471b4d69db3d18f5b31d",
}


def test_analyze_filter_punct_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "punct.conllu").write_text(_punct_corpus(), encoding="utf-8")
    digests = {}
    for name, flags in (("filtered", ["--filter-punct"]), ("kept", [])):
        args = ["--input", "punct.conllu", "--z", "10,100", "--seed", "5", "--out-prefix", name, *flags]
        code, out, err = run(capsys, "analyze", *args)
        assert code == EXIT_OK, err
        csvs = [(tmp_path / f"{name}.{part}.csv").read_bytes() for part in ("sentences", "summary")]
        for part, data in zip(("sentences", "summary", "stdout"), [*csvs, out.encode()]):
            digests[f"{name}_{part}"] = hashlib.sha256(data).hexdigest()
    assert digests == PINNED_PUNCT


def test_nul_bytes_in_paths_are_validation_errors(tmp_path, capsys):
    # open() raises ValueError, not OSError, for a path holding a NUL byte
    corpus = write_corpus(tmp_path / "one.conllu", [["0"]])
    cases = [
        (["count", "--tree-file", "a\x00b"], "UnreadableInput"),
        (["analyze", "--input", "a\x00b"], "UnreadableInput"),
        (["analyze", "--input", str(corpus), "--out-prefix", str(tmp_path / "o\x00x")], "UnwritableOutput"),
    ]
    for argv, error in cases:
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION and out == "", argv
        assert err.startswith(f"{error}: ") and "Traceback" not in err, argv


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
    for argv in (("enumerate", "--tree", "0 1", "--cap", "-1"), ("minima", "--n", "3", "--cap", "-1")):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION and out == "" and err.startswith("OutOfRange"), argv
    code, _, err = run(capsys, "nonsense")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("command", ["expected", "count", "enumerate", "sample"])
def test_tree_flags_are_one_required_choice(tmp_path, capsys, command):
    star = tmp_path / "star.txt"
    star.write_text("0 1 1 1", encoding="utf-8")
    for flags in ([], ["--tree", "0 1", "--tree-file", str(star)]):
        code, out, err = run(capsys, command, *flags)
        assert code == EXIT_USAGE and out == ""
        assert "--tree" in err and "Traceback" not in err


def test_minima_cap_exit(capsys):
    code, _, err = run(capsys, "minima", "--n", "23", "--cap", "21")
    assert code == EXIT_CAP


def test_analyze_end_to_end(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "tiny.conllu", [(0,), (2, 0), (2, 0, 2, 3)])
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


def test_selfcheck_output_is_pinned(capsys):
    # the whole text of the largest size the CLI accepts, every line "ok: "
    code, out, _ = run(capsys, "selfcheck", "--max-n", "8")
    assert code == EXIT_OK and out.endswith("selfcheck: all checks passed\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8191d3df87333b2760dad673626dc585b274f8832ba926b3076e3517c74b9a36"
    )


@pytest.mark.parametrize(
    "module, name, label",
    [
        (arrangement, "count_projective", "enumeration length equals the degree-factorial product"),
        (projlin.expectation, "expected_sum_projective", "enumeration mean equals the closed form"),
    ],
    ids=["count", "closed_form"],
)
def test_selfcheck_fails_when_a_checked_value_is_off_by_one(monkeypatch, capsys, module, name, label):
    # the array checks see a value one off at every size
    exact = getattr(module, name)
    monkeypatch.setattr(module, name, lambda tree: exact(tree) + 1)
    code, out, _ = run(capsys, "selfcheck", "--max-n", "3")
    assert code == EXIT_VALIDATION
    for n in (1, 2, 3):
        assert f"FAIL: n={n}: {label}\n" in out
    assert out.endswith("checks failed\n")


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
    corpus = write_corpus(tmp_path / "star.conllu", [(0,), (0,) + (1,) * 2000, (2, 0)])
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
    # The start-up footprint: concurrent.futures (multiprocessing, logging,
    # socket, ...) is only imported by a run with --jobs above 1, csv only by
    # analyze's CSV writers, numpy.random and numpy.ma only where they are
    # used, and the records are named tuples, so neither dataclasses nor its
    # copy import is loaded.  Taken against import numpy, so a numpy that
    # loads more at import does not change the answer.
    source = os.path.dirname(os.path.dirname(projlin.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    left_out = ["concurrent.futures", "dataclasses", "copy", "csv", "numpy.random", "numpy.ma"]
    probe = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import projlin.cli\n"
        f"print(sorted(set(sys.modules) - before & set({left_out!r})))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_analyze_loads_no_numpy_ma(tmp_path):
    # np.percentile imports numpy.ma (through np.unique), 8-9 ms and about
    # 0.45 MB; the bootstrap interval is taken without it
    corpus = write_corpus(tmp_path / "three.conllu", [["0"], ["0", "1"], ["2", "0", "2"], ["0", "1", "1"]])
    source = os.path.dirname(os.path.dirname(projlin.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    argv = ["analyze", "--input", str(corpus), "--z", "10,100", "--out-prefix", str(tmp_path / "o")]
    probe = (
        "import sys, numpy\n"
        "def ma(): return {m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')}\n"
        "before = ma()\n"
        "from projlin.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, sorted(ma() - before))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "o.summary.csv").read_text(encoding="utf-8").count("\n") == 5


def _one_sentence_corpus(tmp_path):
    corpus = tmp_path / "two.conllu"
    corpus.write_text("1\tw1\t_\tX\t_\t_\t0\t_\t_\t_\n2\tw2\t_\tX\t_\t_\t1\t_\t_\t_\n\n", encoding="utf-8")
    return str(corpus)


def test_analyze_jobs_below_one_are_out_of_range(tmp_path, capsys):
    corpus = _one_sentence_corpus(tmp_path)
    for jobs in ("0", "-2"):
        code, out, err = run(
            capsys, "analyze", "--input", corpus, "--jobs", jobs, "--out-prefix", str(tmp_path / "o")
        )
        assert code == EXIT_VALIDATION and out == "" and err.startswith("OutOfRange")
        assert "jobs" in err
    assert not (tmp_path / "o.sentences.csv").exists()


def test_analyze_repeated_z_is_rejected(tmp_path, capsys):
    corpus = _one_sentence_corpus(tmp_path)
    code, out, err = run(
        capsys, "analyze", "--input", corpus, "--z", "10,10", "--out-prefix", str(tmp_path / "o")
    )
    assert code == EXIT_VALIDATION and out == "" and err.startswith("OutOfRange")
    assert not (tmp_path / "o.sentences.csv").exists()


def test_analyze_bad_z_lists_are_out_of_range(tmp_path, capsys):
    corpus = _one_sentence_corpus(tmp_path)
    for z in ("0", "10,-1", ",", "a", "10,,20", "10,"):
        code, out, err = run(capsys, "analyze", "--input", corpus, "--z", z, "--out-prefix", str(tmp_path / "o"))
        assert code == EXIT_VALIDATION and out == "" and err.startswith("OutOfRange"), z
    assert not (tmp_path / "o.sentences.csv").exists()
    assert not (tmp_path / "o.summary.csv").exists()


def test_analyze_unwritable_output_prefix(tmp_path, capsys):
    corpus = _one_sentence_corpus(tmp_path)
    prefix = str(tmp_path / "no" / "such" / "dir" / "x")
    code, out, err = run(capsys, "analyze", "--input", corpus, "--z", "10", "--out-prefix", prefix)
    assert code == EXIT_VALIDATION and out == ""
    assert err.startswith("UnwritableOutput") and "Traceback" not in err


# The error contract under fuzzing: argv drawn per subcommand from its own
# flags and from bad values, and input files of random bytes, a BOM or
# 5,000-digit integers.  Every number that sets an amount of work is bounded
# (an --decimal of 10^11 or a --z of 10^26 is a request for too much work,
# not a contract failure); seeds and --k may be as large as drawn.

_ERROR_NAMES = {
    name
    for name, value in vars(projlin.errors).items()
    if isinstance(value, type) and issubclass(value, projlin.ProjlinError)
}
_HUGE = "9" * 5000
# int() reads the Arabic-Indic and the mathematical digits, so argparse does
_ODD_VALUES = ["", "-", "--", "x", "é", "١٢", "𝟙", "1e3", "0x10", " 5", "5 ", "½", _HUGE]


def _mostly(common, *rare):
    """``common`` three times in four, else one of ``rare``."""
    return st.sampled_from([common] * 3 * len(rare) + list(rare)).flatmap(lambda s: s)


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


def _numbers(low, high):
    """An int flag's value: within [low, high], odd, or any text int() rejects."""
    return _mostly(
        st.integers(low, high).map(str),
        st.sampled_from(_ODD_VALUES),
        st.text(max_size=6).filter(_not_an_int),
    )


@st.composite
def _head_texts(draw):
    """A head vector of up to 7 entries: a tree, now and then with one
    entry changed or the entries shuffled."""
    n = draw(st.integers(1, 7))
    heads = [0] + [draw(st.integers(1, i)) for i in range(1, n)]
    if draw(st.booleans()):
        heads[draw(st.integers(0, n - 1))] = draw(st.integers(-2, n + 2))
    if draw(st.booleans()):
        heads = draw(st.permutations(heads))
    return " ".join(map(str, heads))


@st.composite
def _conllu_texts(draw):
    """Up to three sentences of ``_head_texts``, now and then with an odd head."""
    sentences = []
    for _ in range(draw(st.integers(0, 3))):
        heads = draw(_head_texts()).split()
        if draw(st.booleans()):
            heads[draw(st.integers(0, len(heads) - 1))] = draw(st.sampled_from(_ODD_VALUES))
        upos = draw(st.sampled_from(["X", "PUNCT"]))
        rows = [f"{v}\tw{v}\t_\t{upos}\t_\t_\t{h}\t_\t_\t_" for v, h in enumerate(heads, 1)]
        sentences.append("\n".join(rows) + "\n")
    return "\n".join(sentences)


_FILE_CONTENTS = st.one_of(
    _head_texts().map(str.encode),
    _conllu_texts().map(str.encode),
    _head_texts().map(lambda text: ("\ufeff" + text).encode()),
    _conllu_texts().map(lambda text: ("\ufeff" + text).encode()),
    st.binary(max_size=64),
    st.text(max_size=40).map(str.encode),
    st.just(f"0 {_HUGE}".encode()),
    st.just(f"1\tw\t_\tX\t_\t_\t{_HUGE}\t_\t_\t_\n\n".encode()),
)

# file names, resolved inside the example's own directory, where in.txt
# holds the drawn content and blocked.sentences.csv is a directory; open()
# rejects a name holding a NUL byte with a ValueError
_PATHS = _mostly(
    st.just("in.txt"), st.sampled_from(["missing.txt", ".", "blocked.sentences.csv", "in\x00.txt"])
)
_PREFIXES = st.sampled_from(["out", "missing/out", "in.txt", "blocked", "o\x00ut"])
_Z_LISTS = _mostly(
    st.lists(st.integers(-2, 300).map(str), min_size=1, max_size=4).map(",".join),
    st.sampled_from(_ODD_VALUES + [",", "10,,20", "10,10"]),
)
_SEEDS = _mostly(st.integers(-3, 2**70).map(str), st.sampled_from(_ODD_VALUES))
_TREES = {
    "--tree": _mostly(_head_texts(), st.sampled_from(_ODD_VALUES), st.text(max_size=12)),
    "--tree-file": _PATHS,
}
_FLAGS = {
    "expected": {
        **_TREES,
        "--variant": _mostly(st.sampled_from(arrangement.VARIANTS), st.sampled_from(_ODD_VALUES)),
        "--decimal": _numbers(-3, 2000),
    },
    "count": _TREES,
    "enumerate": {**_TREES, "--cap": _numbers(-3, 10**12)},
    "sample": {**_TREES, "--z": _numbers(-3, 2000), "--seed": _SEEDS, "--mean": None},
    "classes": {
        "--class": _mostly(st.sampled_from(TREE_CLASSES), st.sampled_from(_ODD_VALUES)),
        "--n": _numbers(-3, 3000),
        "--k": _SEEDS,
        "--decimal": _numbers(-3, 2000),
    },
    "minima": {"--n": _numbers(-3, 10**6), "--all": None, "--cap": _numbers(-3, 25)},
    "maxima": {"--n": _numbers(-3, 10**4)},
    "analyze": {
        "--input": _PATHS,
        "--z": _Z_LISTS,
        "--seed": _SEEDS,
        "--filter-punct": None,
        "--jobs": st.just("1"),
        "--out-prefix": _PREFIXES,
    },
    "selfcheck": {"--max-n": _numbers(-1, 6)},
}
_REQUIRED = {
    **dict.fromkeys(("expected", "count", "enumerate", "sample"), [["--tree", "--tree-file"]]),
    "classes": [["--class"], ["--n"]],
    "minima": [["--n"]],
    "maxima": [["--n"]],
    "analyze": [["--input"]],
}


@st.composite
def _argv(draw):
    """A subcommand, mostly its required flags, then up to five of its
    flags, repeats allowed, and now and then one stray token."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[command]
    names = [draw(st.sampled_from(choice)) for choice in _REQUIRED.get(command, [])]
    names = [name for name in names if draw(st.integers(0, 9))]
    names += draw(st.lists(st.sampled_from(sorted(flags)), max_size=5))
    names = draw(st.permutations(names))
    argv = [command]
    for name in names:
        argv.append(name)
        if flags[name] is not None:
            argv.append(draw(flags[name]))
    if not draw(st.integers(0, 9)):
        stray = draw(st.sampled_from(["--z", "--bogus", "x", "-h"]))
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


@settings(max_examples=200, deadline=None)
@given(_argv(), _FILE_CONTENTS)
def test_fuzzed_argv_and_files_keep_the_error_contract(argv, content):
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "in.txt"), "wb") as fh:
            fh.write(content)
        os.mkdir(os.path.join(tmp, "blocked.sentences.csv"))
        files = {"--tree-file", "--input", "--out-prefix"}
        argv = [
            os.path.join(tmp, arg) if flag in files else arg for flag, arg in zip([""] + argv, argv)
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    stderr = err.getvalue()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_CAP), (argv, stderr)
    assert "Traceback" not in stderr, argv
    if code == EXIT_VALIDATION:
        assert stderr.split(":", 1)[0] in _ERROR_NAMES, (argv, stderr)
    if code == EXIT_CAP:
        assert stderr.startswith("CapExceeded:"), (argv, stderr)
