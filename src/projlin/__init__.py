"""Projective linear arrangements of rooted trees.

Exact expectations of the total edge length under uniformly random
projective arrangements, counting, enumeration, and uniform sampling of
those arrangements, extremal trees, Monte Carlo error studies, and a
CoNLL-U treebank pipeline.
"""

from .arrangement import (
    DEFAULT_ENUMERATION_CAP,
    LinearArrangement,
    count_projective,
    enumerate_projective,
    is_planar,
    is_projective,
    sample_projective,
    sum_edge_lengths,
)
from .errors import (
    BadRoot,
    CapExceeded,
    CycleDetected,
    Disconnected,
    MalformedLine,
    MultipleHeads,
    OutOfRange,
    ProjlinError,
    SizeMismatch,
    UnreadableInput,
    UnsupportedSize,
    ZeroExact,
)
from .expectation import (
    class_formula,
    edge_length_probability,
    expected_sum_projective,
    expected_sum_unconstrained,
)
from .extrema import (
    DEFAULT_MIN_CAP,
    MemoTable,
    OptimumEntry,
    combine_forests,
    enumerate_rooted_trees,
    max_expected_sum,
    min_expected_sum,
)
from .montecarlo import (
    ErrorStats,
    MCEstimate,
    aggregate_errors,
    estimate_expected_sum,
    relative_error,
)
from .tree import (
    TREE_CLASSES,
    RootedTree,
    build_tree,
    canonical_code,
    make_class,
    parse_head_vector,
    random_tree,
    tree_from_heads,
)
from .treebank import (
    SentenceAnalysis,
    SkipRecord,
    Token,
    TreebankReport,
    TreebankSentence,
    analyze_treebank,
    parse_conllu,
    write_sentence_csv,
    write_summary_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BadRoot",
    "CapExceeded",
    "CycleDetected",
    "DEFAULT_ENUMERATION_CAP",
    "DEFAULT_MIN_CAP",
    "Disconnected",
    "ErrorStats",
    "LinearArrangement",
    "MCEstimate",
    "MalformedLine",
    "MemoTable",
    "MultipleHeads",
    "OptimumEntry",
    "OutOfRange",
    "ProjlinError",
    "RootedTree",
    "SentenceAnalysis",
    "SizeMismatch",
    "SkipRecord",
    "Token",
    "TreebankReport",
    "TreebankSentence",
    "TREE_CLASSES",
    "UnreadableInput",
    "UnsupportedSize",
    "ZeroExact",
    "aggregate_errors",
    "analyze_treebank",
    "build_tree",
    "canonical_code",
    "class_formula",
    "combine_forests",
    "count_projective",
    "edge_length_probability",
    "enumerate_projective",
    "enumerate_rooted_trees",
    "estimate_expected_sum",
    "expected_sum_projective",
    "expected_sum_unconstrained",
    "is_planar",
    "is_projective",
    "make_class",
    "max_expected_sum",
    "min_expected_sum",
    "parse_conllu",
    "parse_head_vector",
    "random_tree",
    "relative_error",
    "sample_projective",
    "sum_edge_lengths",
    "tree_from_heads",
    "write_sentence_csv",
    "write_summary_csv",
]
