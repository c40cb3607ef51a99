"""Run CLI commands in one process, with or without layer tracing.

Usage: python3 perfbench/inproc.py PLAN.json

The plan names the mode ("plain" or "traced"), the commands (argv for
``projlin.cli.main`` plus files for stdout and stderr), an optional tree
file on which to time ``count_projective``, an optional size up to which to
time ``min_expected_sum`` per size, and the file to write the result to.
Both modes record one top-level span per command and the wall time from
just before the wrappers are installed to the end of the last command, so
the difference of the two wall times is the tracing overhead.
"""

from __future__ import annotations

import io
import json
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import check
from tracer import Tracer, install


def run_command(main, command: dict) -> dict:
    with open(command["stdout"], "w", encoding="utf-8") as out, open(
        command["stderr"], "w", encoding="utf-8"
    ) as err, redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(command["argv"])
        except Exception:  # the result records the traceback as a failure
            traceback.print_exc()
            code = None
    return {"name": command["name"], "exit_code": code}


def prepare_count(path: str):
    """Parse the tree for :func:`count_op` and compute the count the
    benchmark expects, before any wrapper is installed."""
    import projlin.tree

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return projlin.tree.parse_head_vector(text), check.projective_count([int(t) for t in text.split()])


def count_op(tracer: Tracer, tree, want: int) -> dict:
    """Time count_projective, check it against the benchmark's own product
    of factorials, then print it the way ``projlin count`` does, recording
    a failure to print."""
    import projlin.arrangement

    with tracer.span("bench.count_projective"):
        value = projlin.arrangement.count_projective(tree)
    result = {"bits": value.bit_length(), "matches": value == want, "print_error": None}
    try:
        print(value, file=io.StringIO())
    except ValueError as exc:
        result["print_error"] = f"{type(exc).__name__}: {exc}"
    return result


def min_curve(limit: int) -> list[float]:
    """Seconds per call of min_expected_sum(m, memo) for m = 1..limit, with
    one memo shared by all calls, so each call solves only size m."""
    from projlin.extrema import min_expected_sum

    memo: dict = {}
    curve = []
    for m in range(1, limit + 1):
        start = perf_counter()
        min_expected_sum(m, memo, cap=limit)
        curve.append(perf_counter() - start)
    return curve


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    start = perf_counter()
    import projlin.cli

    result = {"import_s": perf_counter() - start}
    counted = prepare_count(plan["count_tree"]) if plan.get("count_tree") else None
    tracer = Tracer()
    wall_start = perf_counter()
    if plan["mode"] == "traced":
        install(tracer)
    commands = []
    for command in plan["commands"]:
        with tracer.span(f"cli.{command['name']}"):
            commands.append(run_command(projlin.cli.main, command))
    result["commands"] = commands
    if counted:
        result["count"] = count_op(tracer, *counted)
    result["wall_s"] = perf_counter() - wall_start
    result["trace"] = tracer.summary()
    if plan.get("min_curve"):
        result["min_curve_s"] = min_curve(plan["min_curve"])
    with open(plan["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
