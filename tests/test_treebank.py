"""CoNLL-U parsing and the per-sentence analysis pipeline."""

import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projlin import (
    LinearArrangement,
    OutOfRange,
    SkipRecord,
    TreebankSentence,
    analyze_treebank,
    canonical_code,
    count_projective,
    expected_sum_projective,
    is_projective,
    make_class,
    parse_conllu,
    parse_head_vector,
    random_tree,
    sample_projective,
    sum_edge_lengths,
    tree_from_heads,
    write_sentence_csv,
    write_summary_csv,
)
from projlin.treebank import _BLOCK_SENTENCES, _analyze_block
from helpers import oracle_edge_sum


def conllu(text):
    return list(parse_conllu(io.StringIO(text)))


def token_line(i, form, head, upos="X"):
    return f"{i}\t{form}\t_\t{upos}\t_\t_\t{head}\t_\t_\t_"


def test_two_token_sentence():
    text = token_line(1, "he", 2) + "\n" + token_line(2, "left", 0) + "\n\n"
    (sentence,) = conllu(text)
    assert isinstance(sentence, TreebankSentence)
    assert sentence.tree.root == 2
    assert sentence.tree.parent[1] == 2
    assert sentence.tree.parent[1:] == (2, 0)


def test_sent_id_comment_and_default_numbering():
    text = (
        "# sent_id = abc\n" + token_line(1, "x", 0) + "\n\n" + token_line(1, "y", 0) + "\n\n"
    )
    first, second = conllu(text)
    assert first.sentence_id == "abc"
    assert second.sentence_id == "2"


def test_multiword_and_empty_nodes_dropped():
    text = "\n".join(
        [
            "3-4\tcannot\t_\t_\t_\t_\t_\t_\t_\t_",
            token_line(1, "a", 2),
            token_line(2, "b", 0),
            "2.1\telided\t_\t_\t_\t_\t_\t_\t_\t_",
            token_line(3, "c", 2),
            token_line(4, "d", 3),
        ]
    ) + "\n\n"
    (sentence,) = conllu(text)
    assert sentence.tree.n == 4
    assert sentence.tree.parent[1:] == (2, 0, 2, 3)


def test_malformed_line_skips_sentence_not_stream():
    bad = token_line(1, "a", 0) + "\nnot a token line\n\n"
    good = token_line(1, "b", 0) + "\n\n"
    records = conllu(bad + good)
    assert isinstance(records[0], SkipRecord)
    assert "MalformedLine" in records[0].reason
    assert isinstance(records[1], TreebankSentence)


def test_root_count_validation():
    none = token_line(1, "a", 2) + "\n" + token_line(2, "b", 1) + "\n\n"
    (record,) = conllu(none)
    assert isinstance(record, SkipRecord) and record.reason == "no root token"

    double = token_line(1, "a", 0) + "\n" + token_line(2, "b", 0) + "\n\n"
    (record,) = conllu(double)
    assert isinstance(record, SkipRecord) and record.reason == "multiple root tokens"


def test_cycle_reported_by_name():
    text = "\n".join(
        [token_line(1, "a", 0), token_line(2, "b", 3), token_line(3, "c", 2)]
    ) + "\n\n"
    (record,) = conllu(text)
    assert isinstance(record, SkipRecord)
    assert record.reason == "CycleDetected"


def test_punct_filtering():
    text = "\n".join(
        [
            token_line(1, "word", 2),
            token_line(2, "verb", 0),
            token_line(3, ".", 2, upos="PUNCT"),
        ]
    ) + "\n\n"
    (plain,) = list(parse_conllu(io.StringIO(text)))
    assert plain.tree.n == 3
    (filtered,) = list(parse_conllu(io.StringIO(text), filter_punct=True))
    assert filtered.tree.n == 2

    # a token headed by removed punctuation cannot be reattached
    bad = "\n".join(
        [
            token_line(1, "word", 2),
            token_line(2, "verb", 0),
            token_line(3, "-", 2, upos="PUNCT"),
            token_line(4, "tail", 3),
        ]
    ) + "\n\n"
    (record,) = list(parse_conllu(io.StringIO(bad), filter_punct=True))
    assert isinstance(record, SkipRecord)
    assert record.reason == "head refers to a removed token"


_FIELDS = st.one_of(st.integers(-2, 8).map(str), st.sampled_from(["1-2", "1.1", "x", ""]))
_UPOS = st.sampled_from(["X", "PUNCT"])
_JUNK = st.one_of(
    st.builds(token_line, _FIELDS, st.just("w"), _FIELDS, _UPOS),
    st.sampled_from(["", "# sent_id = s", "# text = w w", "#", token_line("1-2", "ww", "_")]),
    st.text(st.characters(exclude_characters="\n"), max_size=20),
)


@st.composite
def conllu_sentence(draw):
    """A tree of up to 8 tokens with at most one id or head changed and
    maybe one junk line inserted, or junk lines alone."""
    if draw(st.booleans()):
        return draw(st.lists(_JUNK, max_size=8))
    n = draw(st.integers(1, 8))
    labels = draw(st.permutations(range(1, n + 1)))
    heads = [0] * (n + 1)
    for i in range(1, n):
        heads[labels[i]] = labels[draw(st.integers(0, i - 1))]
    fields = [[v, heads[v]] for v in range(1, n + 1)]
    if draw(st.booleans()):
        fields[draw(st.integers(0, n - 1))][draw(st.integers(0, 1))] = draw(_FIELDS)
    lines = [token_line(i, "w", head, draw(_UPOS)) for i, head in fields]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, n)), draw(_JUNK))
    return lines


def conllu_lines():
    """Sentences separated by one or two blank lines, or run together."""
    separator = st.sampled_from([[""], [""], ["", ""], []])
    parts = st.lists(st.tuples(conllu_sentence(), separator), max_size=6)
    return parts.map(lambda ps: [line for sentence, sep in ps for line in sentence + sep])


@settings(max_examples=300, deadline=None)
@given(conllu_lines())
def test_any_lines_give_one_tree_or_skip_record_per_sentence(lines):
    sentences = sum(
        1 for i, line in enumerate(lines) if line.strip() and (i == 0 or not lines[i - 1].strip())
    )
    for filter_punct in (False, True):
        text = io.StringIO("\n".join(lines) + "\n")
        records = list(parse_conllu(text, filter_punct=filter_punct))
        assert len(records) == sentences
        for record in records:
            if isinstance(record, SkipRecord):
                continue
            assert isinstance(record, TreebankSentence)


@st.composite
def conllu_trees(draw):
    """A tree of up to 30 tokens as CoNLL-U lines, with leaves marked
    PUNCT at random, multiword ranges and empty nodes between the tokens;
    returns the lines, whether to filter punctuation, and the compacted
    head vector the kept tokens must get."""
    n = draw(st.integers(1, 30))
    labels = draw(st.permutations(range(1, n + 1)))
    heads = [0] * (n + 1)
    for i in range(1, n):
        heads[labels[i]] = labels[draw(st.integers(0, i - 1))]
    leaves = sorted(set(range(1, n + 1)) - set(heads) - {labels[0]})
    punct = draw(st.sets(st.sampled_from(leaves))) if leaves else set()
    lines = []
    for v in range(1, n + 1):
        if v < n and draw(st.booleans()):
            lines.append(token_line(f"{v}-{v + 1}", "ww", "_"))
        lines.append(token_line(v, f"w{v}", heads[v], "PUNCT" if v in punct else "X"))
        if draw(st.booleans()):
            lines.append(token_line(f"{v}.1", "e", "_"))
    filter_punct = draw(st.booleans())
    kept = [v for v in range(1, n + 1) if not (filter_punct and v in punct)]
    new_id = {v: i for i, v in enumerate(kept, start=1)}
    return lines, filter_punct, [new_id[heads[v]] if heads[v] else 0 for v in kept]


@settings(max_examples=150, deadline=None)
@given(conllu_trees())
def test_conllu_trees_are_the_trees_of_their_compacted_heads(case):
    lines, filter_punct, compacted = case
    (sentence,) = parse_conllu(io.StringIO("\n".join(lines) + "\n\n"), filter_punct)
    assert isinstance(sentence, TreebankSentence)
    want = tree_from_heads(compacted)
    assert sentence.tree == want
    assert np.array_equal(sentence.tree.size_array, want.size_array)
    assert np.array_equal(sentence.tree.out_degree_array, want.out_degree_array)
    assert (sentence.tree.children, sentence.tree.order) == (want.children, want.order)
    n = sentence.tree.n
    (analysis,) = _analyze_block((0, (sentence,), (10,), 1))
    observed = oracle_edge_sum(sentence.tree, LinearArrangement.identity(n))
    assert analysis.observed_standard == observed
    assert analysis.observed_minus_one == observed - (n - 1)


def test_projective_sentence_fixture_observed_sum():
    # 8 tokens whose surface order yields a projective tree with total 12
    heads = (2, 3, 0, 7, 4, 7, 3, 7)
    lines = "\n".join(token_line(i + 1, f"w{i + 1}", h) for i, h in enumerate(heads))
    (sentence,) = conllu(lines + "\n\n")
    assert sentence.tree.n == 8
    surface = LinearArrangement.identity(8)
    assert sum_edge_lengths(sentence.tree, surface) == 12
    assert is_projective(sentence.tree, surface)
    (analysis,) = _analyze_block((0, (sentence,), (10,), 1))
    assert (analysis.observed_standard, analysis.observed_minus_one) == (12, 5)
    assert analysis.projective is True


def test_nonprojective_sentence_flagged():
    # crossing arcs in surface order: 1->3 and 2->4
    heads = (0, 4, 1, 1)
    lines = "\n".join(token_line(i + 1, f"w{i + 1}", h) for i, h in enumerate(heads))
    (sentence,) = conllu(lines + "\n\n")
    (analysis,) = _analyze_block((0, (sentence,), (10,), 1))
    assert analysis.projective is False


def test_round_trip_canonical_code():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = random_tree(int(rng.integers(2, 40)), rng)
        rebuilt = parse_head_vector(t.head_vector())
        assert canonical_code(rebuilt) == canonical_code(t)


def _synthetic_corpus(count, seed, sizes=(3, 26)):
    """``count`` random trees with ``sizes[0] <= n < sizes[1]`` as CoNLL-U."""
    rng = np.random.default_rng(seed)
    sentences = []
    for i in range(count):
        tree = random_tree(int(rng.integers(*sizes)), rng)
        # encode via the head vector to exercise the parser as well
        lines = "\n".join(
            token_line(v, f"w{v}", tree.parent[v]) for v in range(1, tree.n + 1)
        )
        sentences.append(f"# sent_id = synth-{i}\n{lines}\n")
    return "\n".join(sentences) + "\n"


def test_analyze_treebank_basics():
    # the last sentence is much longer than the others
    text = _synthetic_corpus(12, 7) + _synthetic_corpus(1, 8, sizes=(128, 200))
    parsed = conllu(text)
    report = analyze_treebank(parsed, z_values=(10, 100), seed=5)
    assert len(report.sentences) == 13
    assert report.skips == {}
    for sentence, analysis in zip(parsed, report.sentences):
        surface = LinearArrangement.identity(analysis.n)
        assert analysis.sentence_id == sentence.sentence_id
        assert analysis.observed_standard == sum_edge_lengths(sentence.tree, surface)
        assert analysis.observed_minus_one == analysis.observed_standard - (analysis.n - 1)
        assert analysis.exact == expected_sum_projective(sentence.tree)
        assert analysis.projective == is_projective(sentence.tree, surface)
        assert [z for z, _, _ in analysis.estimates] == [10, 100]


def test_analyze_negative_seed_is_out_of_range():
    # also on a corpus of one-vertex sentences, where no Monte Carlo draw
    # or bootstrap would run
    for text in (_synthetic_corpus(4, 7), token_line(1, "yes", 0) + "\n\n"):
        with pytest.raises(OutOfRange):
            analyze_treebank(conllu(text), z_values=(10,), seed=-1)


def test_analyze_rejects_jobs_below_one_and_repeated_z():
    sentences = conllu(_synthetic_corpus(4, 7))
    for jobs in (0, -2):
        with pytest.raises(OutOfRange, match="jobs"):
            analyze_treebank(sentences, z_values=(10,), jobs=jobs)
    with pytest.raises(OutOfRange, match="distinct"):
        analyze_treebank(sentences, z_values=(10, 100, 10))


def test_analyze_rejects_empty_z_values():
    with pytest.raises(OutOfRange, match="nonempty"):
        analyze_treebank(conllu(_synthetic_corpus(4, 7)), z_values=())


def test_analyze_rejects_z_below_one_before_reading_the_stream():
    skipped = token_line(1, "a", 0) + "\n" + token_line(2, "b", 0) + "\n\n"
    for z_values in ([0, -3], [10, 0]):
        with pytest.raises(OutOfRange, match="positive"):
            analyze_treebank(conllu(skipped), z_values=z_values)
        sentences = iter(conllu(_synthetic_corpus(4, 7)))
        with pytest.raises(OutOfRange, match="positive"):
            analyze_treebank(sentences, z_values=z_values)
        assert len(list(sentences)) == 4


def test_analyze_deterministic_and_parallel_identical():
    text = _synthetic_corpus(10, 11)
    a = analyze_treebank(conllu(text), z_values=(10, 50), seed=3)
    b = analyze_treebank(conllu(text), z_values=(10, 50), seed=3)
    c = analyze_treebank(conllu(text), z_values=(10, 50), seed=3, jobs=3)
    assert a == b == c
    d = analyze_treebank(conllu(text), z_values=(10, 50), seed=4)
    assert d != a


def test_seeds_apart_by_two_to_the_64_give_different_estimates():
    sentences = conllu(_synthetic_corpus(6, 13))
    for seed in (0, 1, 601):
        low, high = (
            analyze_treebank(sentences, z_values=(10, 100), seed=s) for s in (seed, seed + 2**64)
        )
        assert [a.exact for a in low.sentences] == [a.exact for a in high.sentences]
        assert [a.estimates for a in low.sentences] != [a.estimates for a in high.sentences]


def test_analyze_blocks_identical_for_every_jobs_value():
    # three blocks, so two and three processes each take whole blocks
    text = _synthetic_corpus(2 * _BLOCK_SENTENCES + 5, 41)
    reports = [
        analyze_treebank(conllu(text), z_values=(10, 30), seed=9, jobs=jobs) for jobs in (1, 2, 3)
    ]
    assert len(reports[0].sentences) == 2 * _BLOCK_SENTENCES + 5
    assert reports[0] == reports[1] == reports[2]


def test_editing_a_sentence_leaves_the_other_blocks_unchanged():
    block = _BLOCK_SENTENCES
    parsed = conllu(_synthetic_corpus(3 * block, 43))
    edited = list(parsed)
    heads = "\n".join(token_line(v, f"w{v}", 0 if v == 1 else v - 1) for v in range(1, 6))
    (edited[block + 3],) = conllu(f"# sent_id = edited\n{heads}\n\n")
    a = analyze_treebank(parsed, z_values=(10, 100), seed=12)
    b = analyze_treebank(edited, z_values=(10, 100), seed=12)
    assert a.sentences[:block] == b.sentences[:block]
    assert a.sentences[2 * block :] == b.sentences[2 * block :]
    assert b.sentences[block + 3].sentence_id == "edited"


def _projective_relabel(tree, seed):
    """The tree relabeled so that its identity arrangement is a uniform
    projective one."""
    pos = sample_projective(tree, seed).pos
    heads = [0] * tree.n
    for v in range(1, tree.n + 1):
        heads[pos[v] - 1] = pos[tree.parent[v]] if tree.parent[v] else 0
    return tree_from_heads(heads)


# a 12-vertex star rooted at its leaf 6: the hub 1's block of 11 segments
# takes the sort branch of the block kernel, and this labeling is not
# projective (the hub's subtree skips label 6)
LEAF_ROOTED_STAR = parse_head_vector("6 1 1 1 1 0 1 1 1 1 1 1")


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.builds(random_tree, st.integers(1, 25), st.integers(0, 2**32 - 1)),
            st.integers(0, 2**32 - 1),
            st.booleans(),
        ),
        min_size=1,
        max_size=20,
    )
)
@example([(random_tree(1, 0), 0, False)] * 5)
@example(
    [
        (random_tree(1, 0), 0, False),
        (random_tree(7, 7), 7, True),
        (random_tree(1, 0), 0, False),
        (random_tree(12, 12), 12, False),
        (random_tree(1, 0), 0, False),
    ]
)
@example(
    [
        (make_class("star_hub", 12), 7, True),
        (make_class("star_hub", 12), 7, False),
        (LEAF_ROOTED_STAR, 7, True),
        (LEAF_ROOTED_STAR, 7, False),
    ]
)
def test_block_exact_columns_equal_the_per_sentence_oracles(specs):
    # a block of 1 to 20 sentences, some relabeled to be projective
    trees = [
        _projective_relabel(tree, seed) if projective else tree for tree, seed, projective in specs
    ]
    sentences = tuple(TreebankSentence(str(i), t) for i, t in enumerate(trees))
    for tree, analysis in zip(trees, _analyze_block((0, sentences, (1,), 0))):
        surface = LinearArrangement.identity(tree.n)
        assert analysis.observed_standard == oracle_edge_sum(tree, surface)
        assert analysis.projective == is_projective(tree, surface)
        assert analysis.exact == expected_sum_projective(tree)
        assert analysis.arrangement_count == count_projective(tree)


def test_analyze_error_means_shrink_with_z():
    text = _synthetic_corpus(120, 23)
    report = analyze_treebank(conllu(text), z_values=(10, 1000), seed=2)
    by_z = {}
    for z in (10, 1000):
        errors = [abs(e) for s in report.sentences for zz, _, e in s.estimates if zz == z]
        by_z[z] = sum(errors) / len(errors)
    assert by_z[1000] < by_z[10]


def test_analyze_skips_counted_and_single_vertex_excluded():
    text = (
        token_line(1, "only", 0)
        + "\n\n"
        + token_line(1, "a", 2)
        + "\n"
        + token_line(2, "b", 1)
        + "\n\n"
    )
    report = analyze_treebank(conllu(text), z_values=(10,), seed=1)
    assert report.skips == {"no root token": 1}
    assert len(report.sentences) == 1
    single = report.sentences[0]
    assert single.n == 1 and single.estimates[0][2] is None
    assert report.error_stats[10] == []


def test_csv_outputs():
    text = _synthetic_corpus(5, 31)
    report = analyze_treebank(conllu(text), z_values=(10, 20), seed=6)
    sentences_csv = io.StringIO()
    write_sentence_csv(report, sentences_csv)
    lines = sentences_csv.getvalue().splitlines()
    assert lines[0] == (
        "sentence_id,n,z,observed_sum_standard,observed_sum_minus_one,projective,"
        "projective_arrangements,exact_expected_sum,mc_estimate,relative_error"
    )
    assert len(lines) == 1 + 5 * 2  # one row per sentence per z

    summary_csv = io.StringIO()
    write_summary_csv(report, summary_csv)
    summary_lines = summary_csv.getvalue().splitlines()
    assert summary_lines[0] == "z,n,count,mean_err,ci_low,ci_high,min_err,max_err"
    assert len(summary_lines) > 1


def test_exact_column_is_a_fraction_string():
    heads = (0, 1, 1, 2)
    lines = "\n".join(token_line(i + 1, f"w{i + 1}", h) for i, h in enumerate(heads))
    report = analyze_treebank(conllu(lines + "\n\n"), z_values=(10,), seed=0)
    out = io.StringIO()
    write_sentence_csv(report, out)
    row = out.getvalue().splitlines()[1].split(",")
    assert row[7] == str(expected_sum_projective(parse_head_vector("0 1 1 2")))
