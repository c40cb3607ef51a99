"""Output checks written independently of projlin.

Each check takes the program's output and the generated input and returns a
list of problems; an empty list means the output is correct.  Nothing here
imports projlin, so a defect in the code under test cannot hide itself.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from fractions import Fraction

import numpy as np


def tree_arrays(heads: list[int]) -> tuple[list[list[int]], list[int]]:
    """Children lists and a breadth-first order of a head list (1-based ids)."""
    n = len(heads)
    children: list[list[int]] = [[] for _ in range(n + 1)]
    root = 0
    for v, h in enumerate(heads, start=1):
        if h:
            children[h].append(v)
        else:
            root = v
    order = [root]
    for v in order:
        order.extend(children[v])
    if len(order) != n:
        raise ValueError("head list is not a rooted tree")
    return children, order


def expected_sum(heads: list[int]) -> Fraction:
    """(1/6)(-1 + sum_v n_v (2 d_v + 1)) with n_v the subtree size, d_v the out-degree."""
    children, order = tree_arrays(heads)
    size = [1] * (len(heads) + 1)
    for v in reversed(order[1:]):
        size[heads[v - 1]] += size[v]
    total = sum(size[v] * (2 * len(children[v]) + 1) for v in order)
    return Fraction(total - 1, 6)


def path_expected_sum(n: int) -> Fraction:
    return Fraction((n - 1) * (n + 2), 4)


def projective_count(heads: list[int]) -> int:
    """prod_v (d_v + 1)!, grouped by out-degree so it stays fast at 10^6 vertices."""
    out_degree = Counter(h for h in heads if h)
    histogram = Counter(out_degree.values())
    histogram[0] = len(heads) - len(out_degree)
    return math.prod(math.factorial(d + 1) ** m for d, m in histogram.items())


def contiguous_subtrees(heads: list[int], order: list[int], pos: list[int]) -> bool:
    """True when the positions of every subtree form one interval."""
    lo = list(pos)
    hi = list(pos)
    size = [1] * len(pos)
    for v in reversed(order[1:]):
        p = heads[v - 1]
        size[p] += size[v]
        if lo[v] < lo[p]:
            lo[p] = lo[v]
        if hi[v] > hi[p]:
            hi[p] = hi[v]
    return all(hi[v] - lo[v] + 1 == size[v] for v in order)


def check_expected(stdout: str, want: Fraction) -> list[str]:
    try:
        got = Fraction(stdout.strip())
    except ValueError:
        return [f"expected: output is not a rational: {stdout[:80]!r}"]
    return [] if got == want else [f"expected: got {got}, want {want}"]


def check_sample(stdout: str, heads: list[int]) -> list[str]:
    lines = stdout.splitlines()
    if len(lines) != 1:
        return [f"sample: {len(lines)} lines, want 1"]
    n = len(heads)
    seq = np.array(lines[0].split(), dtype=np.int64)
    if seq.size != n or not np.array_equal(np.sort(seq), np.arange(1, n + 1)):
        return ["sample: output is not a permutation of 1..n"]
    pos = np.zeros(n + 1, dtype=np.int64)
    pos[seq] = np.arange(1, n + 1)
    _, order = tree_arrays(heads)
    if not contiguous_subtrees(heads, order, pos.tolist()):
        return ["sample: some subtree is not contiguous"]
    return []


def check_selfcheck(stdout: str) -> list[str]:
    lines = stdout.strip().splitlines()
    if not lines or lines[-1] != "selfcheck: all checks passed":
        return ["selfcheck: last line is not 'selfcheck: all checks passed'"]
    return [f"selfcheck: {line}" for line in lines if not line.startswith(("ok: ", "selfcheck: "))]


def check_minima(stdout: str, n: int) -> list[str]:
    """Rows 'm, value, count, hv; hv; ...' for m = 1..n; every listed tree
    must have m vertices and expectation ``value``."""
    problems = []
    rows = stdout.strip().splitlines()
    if len(rows) != n:
        return [f"minima: {len(rows)} rows, want {n}"]
    for m, row in enumerate(rows, start=1):
        fields = row.split(", ", 3)
        if len(fields) != 4 or fields[0] != str(m):
            problems.append(f"minima: malformed row {row[:80]!r}")
            continue
        value = Fraction(fields[1])
        vectors = fields[3].split("; ")
        if int(fields[2]) != len(vectors) or len(set(vectors)) != len(vectors):
            problems.append(f"minima: m={m} count {fields[2]} does not match its trees")
        for text in vectors:
            heads = [int(tok) for tok in text.split()]
            try:
                got = expected_sum(heads)
            except ValueError:
                problems.append(f"minima: m={m} lists a non-tree {text!r}")
                continue
            if len(heads) != m or got != value:
                problems.append(f"minima: m={m} tree {text!r} has value {got}, row says {value}")
    return problems


# Each defect kind gen.py writes: projlin's skip reason for it, and the
# per-layer metric that counts those skips.
DEFECTS = {
    "two_roots": ("multiple root tokens", "treebank.skipped.multiple_roots"),
    "cycle": ("CycleDetected", "treebank.skipped.cycle"),
    "dangling_head": ("head refers to a missing token", "treebank.skipped.missing_head"),
}


def sentence_row(heads: list[int]) -> dict[str, str]:
    """The exact columns of one sentence, for the identity (surface) order."""
    n = len(heads)
    children, order = tree_arrays(heads)
    standard = sum(abs(v - h) for v, h in enumerate(heads, start=1) if h)
    return {
        "n": str(n),
        "observed_sum_standard": str(standard),
        "observed_sum_minus_one": str(standard - (n - 1)),
        "projective": "true" if contiguous_subtrees(heads, order, list(range(n + 1))) else "false",
        "projective_arrangements": str(math.prod(math.factorial(len(c) + 1) for c in children[1:])),
        "exact_expected_sum": str(expected_sum(heads)),
    }


def check_analyze(
    stdout: str, sentences_csv: str, summary_csv: str, manifest: dict, z_values: list[int]
) -> list[str]:
    """Exact columns must match; Monte Carlo columns must be sane, not pinned."""
    valid = [s for s in manifest["sentences"] if s["heads"] is not None]
    skips = Counter(DEFECTS[s["kind"]][0] for s in manifest["sentences"] if s["kind"])
    detail = "; ".join(f"{reason}: {count}" for reason, count in sorted(skips.items()))
    want_line = f"analyzed {len(valid)} sentences, skipped {sum(skips.values())}"
    if detail:
        want_line += f" ({detail})"
    problems = []
    if not stdout.startswith(want_line + "\n"):
        problems.append(f"analyze: summary line {stdout.splitlines()[:1]}, want {want_line!r}")

    rows = list(csv.DictReader(io.StringIO(sentences_csv)))
    if len(rows) != len(valid) * len(z_values):
        return problems + [f"analyze: {len(rows)} sentence rows, want {len(valid) * len(z_values)}"]
    errors: dict[tuple[int, int], list[float]] = {}
    abs_err: dict[int, list[float]] = {z: [] for z in z_values}
    for i, sentence in enumerate(valid):
        heads = sentence["heads"]
        n = len(heads)
        exact_cols = sentence_row(heads)
        exact = Fraction(exact_cols["exact_expected_sum"])
        for z, row in zip(z_values, rows[i * len(z_values) : (i + 1) * len(z_values)]):
            label = f"analyze: {sentence['id']} z={z}"
            if row["sentence_id"] != sentence["id"] or row["z"] != str(z):
                return problems + [f"{label}: row is {row['sentence_id']} z={row['z']}"]
            wrong = [k for k, v in exact_cols.items() if row[k] != v]
            if wrong:
                problems.append(f"{label}: wrong {', '.join(wrong)}")
            estimate = float(row["mc_estimate"])
            if not (n - 1 <= estimate <= (n - 1) ** 2):
                problems.append(f"{label}: estimate {estimate} outside [{n - 1}, {(n - 1) ** 2}]")
            if n == 1:
                if row["relative_error"] != "":
                    problems.append(f"{label}: relative error given for a zero exact value")
                continue
            err = float(row["relative_error"])
            if not math.isclose(err, (estimate - float(exact)) / float(exact), rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"{label}: relative error {err} does not match the estimate")
            errors.setdefault((z, n), []).append(err)
            abs_err[z].append(abs(err))

    # Monte Carlo sanity: errors shrink with z and the largest z is unbiased
    # to well within its standard error over the whole corpus.
    lo_z, hi_z = min(z_values), max(z_values)
    if abs_err[hi_z]:
        if lo_z < hi_z and not np.mean(abs_err[hi_z]) < np.mean(abs_err[lo_z]):
            problems.append("analyze: mean |error| does not shrink as z grows")
        signed = [e for (z, _), errs in errors.items() if z == hi_z for e in errs]
        if abs(np.mean(signed)) > 0.01:
            problems.append(f"analyze: mean relative error {np.mean(signed):.4f} at z={hi_z}")

    summary = list(csv.DictReader(io.StringIO(summary_csv)))
    if len(summary) != len(errors):
        problems.append(f"analyze: {len(summary)} summary rows, want {len(errors)}")
    for row in summary:
        errs = errors.get((int(row["z"]), int(row["n"])))
        label = f"analyze summary z={row['z']} n={row['n']}"
        if errs is None or int(row["count"]) != len(errs):
            problems.append(f"{label}: unexpected group or count")
            continue
        low, high = float(row["ci_low"]), float(row["ci_high"])
        slack = 1e-12 * max(1.0, max(abs(e) for e in errs))  # a mean of copies of x can round past x
        if (
            float(row["min_err"]) != min(errs)
            or float(row["max_err"]) != max(errs)
            or not math.isclose(float(row["mean_err"]), float(np.mean(errs)), rel_tol=1e-9, abs_tol=1e-12)
            or not min(errs) - slack <= low <= high <= max(errs) + slack
        ):
            problems.append(f"{label}: statistics do not match the sentence rows")
    return problems
