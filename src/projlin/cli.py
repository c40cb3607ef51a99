"""Command line interface.

Every number printed here comes from a library call; the CLI only parses
arguments, formats values, and maps errors to exit codes:

    0  success
    1  usage error
    2  validation error (the error class name goes to stderr)
    3  a configured cap was exceeded

Subcommands: expected, count, enumerate, sample, classes, minima, maxima,
analyze, selfcheck.  Seeds default to the PROJLIN_SEED environment
variable when a --seed flag is not given; either way they must be
non-negative integers.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

import numpy as np

from . import arrangement as arr
from . import expectation as expe
from . import extrema
from . import treebank
from ._digits import exact_str
from .errors import CapExceeded, OutOfRange, ProjlinError, UnreadableInput
from .montecarlo import estimate_expected_sum
from .tree import TREE_CLASSES, canonical_code, make_class, parse_head_vector

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CAP = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this CLI reserves 2 for
    validation failures, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def format_rational(value: Fraction, decimals: int | None = None) -> str:
    """Render as "p/q" in lowest terms (or "p"), or as an exact fixed-point
    decimal with the requested number of digits."""
    if decimals is None:
        return exact_str(value)
    if decimals < 0:
        raise OutOfRange(f"decimal digits must be nonnegative, got {decimals}")
    sign = "-" if value < 0 else ""
    scaled, remainder = divmod(abs(value.numerator) * 10**decimals, value.denominator)
    if 2 * remainder >= value.denominator:
        scaled += 1
    digits = exact_str(scaled).rjust(decimals + 1, "0")
    if decimals == 0:
        return sign + digits
    return f"{sign}{digits[:-decimals]}.{digits[-decimals:]}"


def _open_input(path: str):
    """Open an input file as UTF-8 text, skipping a byte-order mark."""
    try:
        return open(path, encoding="utf-8-sig")
    except OSError as exc:
        raise UnreadableInput(f"cannot open {path}: {exc.strerror or exc}") from None


def _not_utf8(path: str, exc: UnicodeDecodeError) -> UnreadableInput:
    return UnreadableInput(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}")


def _tree_from_args(args):
    if getattr(args, "tree_file", None):
        with _open_input(args.tree_file) as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise _not_utf8(args.tree_file, exc) from None
        return parse_head_vector(text)
    if getattr(args, "tree", None) is None:
        raise ProjlinError("a tree is required: pass --tree or --tree-file")
    return parse_head_vector(args.tree)


def _resolve_seed(args) -> int:
    seed, source = args.seed, "--seed"
    if seed is None:
        env = os.environ.get("PROJLIN_SEED")
        if env is None:
            return 0
        try:
            seed, source = int(env), "PROJLIN_SEED"
        except ValueError:
            raise ProjlinError(f"PROJLIN_SEED is not an integer: {env!r}") from None
    if seed < 0:
        raise OutOfRange(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _add_tree_options(parser):
    parser.add_argument("--tree", help="head vector, e.g. '0 1 1 2'")
    parser.add_argument("--tree-file", help="file containing a head vector")


def _cmd_expected(args) -> int:
    value = expe.expected_sum_projective(_tree_from_args(args), args.variant)
    print(format_rational(value, args.decimal))
    return EXIT_OK


def _cmd_count(args) -> int:
    print(exact_str(arr.count_projective(_tree_from_args(args))))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    tree = _tree_from_args(args)
    for arrangement in arr.enumerate_projective(tree, cap=args.cap):
        print(" ".join(str(v) for v in arrangement.inverse[1:]))
    return EXIT_OK


def _cmd_sample(args) -> int:
    tree = _tree_from_args(args)
    seed = _resolve_seed(args)
    if args.z < 1:
        raise OutOfRange(f"--z must be a positive sample count, got {args.z}")
    if args.mean:
        estimate = estimate_expected_sum(tree, args.z, seed)
        print(repr(estimate.mean))
        return EXIT_OK
    rng = np.random.default_rng(seed)
    for _ in range(args.z):
        arrangement = arr.sample_projective(tree, rng)
        print(" ".join(map(str, arrangement.inverse[1:])))
    return EXIT_OK


def _cmd_classes(args) -> int:
    count, value = expe.class_formula(args.tree_class, args.n, args.k)
    print(f"{exact_str(count)} {format_rational(value, args.decimal)}")
    return EXIT_OK


def _cmd_minima(args) -> int:
    memo: extrema.MemoTable = {}
    extrema.min_expected_sum(args.n, memo, cap=args.cap)
    sizes = range(1, args.n + 1) if args.all else [args.n]
    for m in sizes:
        entry = memo[m]
        vectors = "; ".join(t.head_vector() for t in entry.trees)
        print(f"{m}, {entry.value}, {len(entry.trees)}, {vectors}")
    return EXIT_OK


def _cmd_maxima(args) -> int:
    value, tree = extrema.max_expected_sum(args.n)
    print(f"{args.n}, {value}, {tree.head_vector()}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    try:
        z_values = [int(tok) for tok in args.z.split(",") if tok.strip()]
    except ValueError:
        raise ProjlinError(f"--z must be a comma-separated list of integers: {args.z!r}") from None
    if not z_values or any(z < 1 for z in z_values):
        raise ProjlinError("--z needs at least one positive sample count")
    seed = _resolve_seed(args)
    prefix = args.out_prefix or os.path.splitext(args.input)[0]
    with _open_input(args.input) as fh:
        try:
            report = treebank.analyze_treebank(
                treebank.parse_conllu(fh, filter_punct=args.filter_punct),
                z_values,
                seed=seed,
                jobs=args.jobs,
            )
        except UnicodeDecodeError as exc:
            raise _not_utf8(args.input, exc) from None
    sentences_path = prefix + ".sentences.csv"
    summary_path = prefix + ".summary.csv"
    with open(sentences_path, "w", encoding="utf-8", newline="") as fh:
        treebank.write_sentence_csv(report, fh)
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        treebank.write_summary_csv(report, fh)
    skipped = sum(report.skips.values())
    detail = "; ".join(f"{reason}: {count}" for reason, count in sorted(report.skips.items()))
    line = f"analyzed {len(report.sentences)} sentences, skipped {skipped}"
    if detail:
        line += f" ({detail})"
    print(line)
    print(f"wrote {sentences_path} and {summary_path}")
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    import itertools
    from fractions import Fraction as F

    failures = 0

    def report(ok: bool, label: str) -> None:
        nonlocal failures
        print(f"{'ok' if ok else 'FAIL'}: {label}")
        if not ok:
            failures += 1

    memo: extrema.MemoTable = {}
    for n in range(1, args.max_n + 1):
        trees = list(extrema.enumerate_rooted_trees(n))
        count_ok = True
        mean_ok = True
        projective_ok = True
        bruteforce_ok = True
        values = []
        for tree in trees:
            enumerated = list(arr.enumerate_projective(tree))
            if len(enumerated) != arr.count_projective(tree):
                count_ok = False
            if not all(arr.is_projective(tree, a) for a in enumerated):
                projective_ok = False
            total = sum(arr.sum_edge_lengths(tree, a) for a in enumerated)
            exact = F(total, len(enumerated))
            closed = expe.expected_sum_projective(tree)
            if exact != closed:
                mean_ok = False
            if n <= 6:
                brute = sum(
                    1
                    for perm in itertools.permutations(range(1, n + 1))
                    if arr.is_projective(tree, arr.LinearArrangement(perm))
                )
                if brute != len(enumerated):
                    bruteforce_ok = False
            values.append(closed)

        def codes_at(value):
            return sorted(canonical_code(t) for t, v in zip(trees, values) if v == value)

        maximum = max(values)
        minimum = min(values)
        optimum = extrema.min_expected_sum(n, memo)
        star = canonical_code(make_class("star_hub", n))
        report(count_ok, f"n={n}: enumeration length equals the degree-factorial product")
        report(mean_ok, f"n={n}: enumeration mean equals the closed form")
        report(projective_ok, f"n={n}: every enumerated arrangement is projective")
        if n <= 6:
            report(bruteforce_ok, f"n={n}: enumeration count matches the brute-force filter")
        report(
            maximum == F(n * n - 1, 3) and codes_at(maximum) == [star],
            f"n={n}: hub-rooted star is the unique maximizer",
        )
        report(
            minimum == optimum.value
            and codes_at(minimum) == sorted(canonical_code(t) for t in optimum.trees),
            f"n={n}: the minima search returns exactly the minimizers",
        )
    print(f"selfcheck: {'all checks passed' if failures == 0 else f'{failures} checks failed'}")
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


def build_parser() -> _Parser:
    parser = _Parser(prog="projlin", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expected", parents=[], help="exact expected edge-length sum")
    _add_tree_options(p)
    p.add_argument("--variant", choices=["standard", "minus_one"], default="standard")
    p.add_argument("--decimal", type=int, default=None, metavar="DIGITS")
    p.set_defaults(func=_cmd_expected)

    p = sub.add_parser("count", help="number of projective arrangements")
    _add_tree_options(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="stream every projective arrangement")
    _add_tree_options(p)
    p.add_argument("--cap", type=int, default=arr.DEFAULT_ENUMERATION_CAP)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("sample", help="sample projective arrangements uniformly")
    _add_tree_options(p)
    p.add_argument("--z", type=int, default=1, help="number of samples")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mean", action="store_true", help="print the Monte Carlo mean instead")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("classes", help="closed-form count and expectation for a tree class")
    p.add_argument("--class", dest="tree_class", choices=list(TREE_CLASSES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--decimal", type=int, default=None, metavar="DIGITS")
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("minima", help="minimum expectation and all minimizing trees")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--all", action="store_true", help="print one row per size up to n")
    p.add_argument("--cap", type=int, default=extrema.DEFAULT_MIN_CAP)
    p.set_defaults(func=_cmd_minima)

    p = sub.add_parser("maxima", help="maximum expectation and the maximizing tree")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_maxima)

    p = sub.add_parser("analyze", help="per-sentence treebank report with MC errors")
    p.add_argument("--input", required=True, help="CoNLL-U file")
    p.add_argument("--z", default="10,100", help="comma-separated sample counts")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--filter-punct", action="store_true", help="drop UPOS=PUNCT tokens")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("selfcheck", help="exhaustive small-size consistency checks")
    p.add_argument("--max-n", type=int, default=7, choices=range(1, 9), metavar="N")
    p.set_defaults(func=_cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"CapExceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ProjlinError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError:
        return EXIT_OK


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
