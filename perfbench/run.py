"""Benchmark of the projlin command line, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark generates its inputs from the seed (``gen.py``), runs real
``projlin`` CLI processes one at a time with ``PYTHONPATH=src`` (through
``launch.py``, which records each one's peak RSS), and checks every output
with its own code (``check.py``).

--trace 0 measures the end-to-end metrics with tracing off: passes of a
fresh interpreter importing projlin.cli (``setup_s``) and the workload's
commands, with runs of the fixed reference work ``ref.py`` among them,
until S seconds from the start of the run have gone.  Each time is taken
relative to the reference runs nearest it, which calibrates it to one
machine speed (``reference_ratios``); the raw medians are reported too.

--trace 1 runs the same commands in one process per run (``inproc.py``):
plain to warm up, with timing wrappers on every public function of the
library modules (``tracer.py``), then plain again.  It reports the self
time and counts of each layer, and the tracing overhead as traced minus
plain wall time.

Every invocation also runs ``analyze`` untimed with --jobs 1 and --jobs 2
on a small corpus and requires byte-identical CSVs.  The metrics printed
are the ones BENCHMARK.json lists; the last line of stdout is one JSON
object, and a fuller record goes to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import numpy as np

import check
import gen

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "src", "projlin")
WORK = os.path.join(ROOT, ".perfbench_work")
HERE = os.path.dirname(os.path.abspath(__file__))

# Input sizes.  The paper's large-n case is 10^6 vertices, but at the parent
# commit one expected+sample pass on such a tree takes 21-26 s (2 cores,
# Python 3.11), leaving room for a single sample per run; 2 * 10^5 vertices
# keeps the same code paths (numpy closed form for the random tree, Python
# path for the path) and gives several passes per run, which steadies the
# statistic over them.  The
# small_exhaustive sizes are cut from --max-n 8 / --n 60 for the same
# reason; the traced run still times min_expected_sum up to size 60.  The
# corpus is cut from 2,000 sentences to 200 so that analyze (0.7-1.0 s) runs
# 13-19 times in a 30 s run.
BIG_N = 200_000
CORPUS_SENTENCES = 200
INVARIANCE_SENTENCES = 100
Z_VALUES = "10,100,1000"
SELFCHECK_MAX_N = 7
MINIMA_N = 50
MIN_CURVE_N = 60
# About ref.py's wall time on the machine the benchmark was tuned on
# (2 vCPUs, Python 3.11; 0.45-0.6 s), so that calibrated times read close
# to raw seconds there; see end_to_end().
REF_NOMINAL_S = 0.5
COMMAND_TIMEOUT_S = 150
RUN_LIMIT_S = 170

MAIN_COMMAND = {
    "big_random": "expected",
    "big_path": "expected",
    "corpus_mc": "analyze",
    "small_exhaustive": "minima",
}


def child_env(peak_rss_file: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = WORK
    env["PERFBENCH_PEAK_RSS_FILE"] = peak_rss_file
    return env


class Ops:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems[:5]))
        return not problems


class Command:
    """One CLI command of a workload and the check of its output."""

    def __init__(self, name: str, args: list[str], checker, outputs=()):
        self.name = name
        self.args = args
        self.checker = checker
        self.outputs = outputs  # files the command writes besides stdout
        self._checked: dict[str, list[str]] = {}

    def check(self, stdout_path: str) -> list[str]:
        """Check the output, once per distinct output."""
        missing = [p for p in [stdout_path, *self.outputs] if not os.path.exists(p)]
        if missing:
            return [f"{self.name}: no output file {os.path.basename(p)}" for p in missing]
        texts = [read(stdout_path)] + [read(p) for p in self.outputs]
        key = hashlib.sha256("\0".join(texts).encode()).hexdigest()
        if key not in self._checked:
            self._checked[key] = self.checker(*texts)
        return self._checked[key]


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def run_process(argv: list[str], stdout_path: str, deadline: float) -> dict:
    """Run one child process; wall time from start to exit, and the peak RSS
    that launch.py records (None for other programs)."""
    timeout = max(1.0, min(COMMAND_TIMEOUT_S, deadline - perf_counter()))
    killed = threading.Event()
    rss_path = stdout_path + ".rss"
    if os.path.exists(rss_path):
        os.remove(rss_path)
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(rss_path), cwd=ROOT)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = exit_problems(proc.returncode, stdout_path + ".err")
    if killed.is_set():
        problems.insert(0, f"timed out after {timeout:.0f} s")
    rss_mb = int(read(rss_path)) / 1024 if os.path.exists(rss_path) else None
    return {"wall_s": wall, "rss_mb": rss_mb, "problems": problems}


def exit_problems(exit_code: int | None, stderr_path: str) -> list[str]:
    """A command fails on a non-zero exit or a traceback."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    stderr = read(stderr_path)
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback: " + stderr.strip().splitlines()[-1])
    return problems


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, os.path.join(HERE, "launch.py"), *args]


# ---------------------------------------------------------------- workloads


def corpus_files(work: str, name: str, sentences: int, seed: int) -> tuple[str, dict]:
    text, manifest = gen.corpus_text(sentences, seed)
    return write(os.path.join(work, name + ".conllu"), text), manifest


def analyze_command(work: str, corpus: str, manifest: dict, seed: int, prefix: str, jobs: int) -> Command:
    out = os.path.join(work, prefix)
    z_values = [int(z) for z in Z_VALUES.split(",")]
    args = ["analyze", "--input", corpus, "--z", Z_VALUES, "--seed", str(seed)]
    args += ["--jobs", str(jobs), "--out-prefix", out]
    return Command(
        "analyze",
        args,
        lambda stdout, sentences, summary: check.check_analyze(stdout, sentences, summary, manifest, z_values),
        (out + ".sentences.csv", out + ".summary.csv"),
    )


def size_stats(sizes: list[int]) -> dict:
    """Mean, extremes and quartiles of the sentence sizes of a corpus."""
    q1, q2, q3 = statistics.quantiles(sizes, n=4)
    return {"mean": statistics.fmean(sizes), "min": min(sizes), "q1": q1, "median": q2, "q3": q3, "max": max(sizes)}


def build_workload(name: str, seed: int, work: str) -> dict:
    """Generate the inputs of a workload and define its commands."""
    inputs: dict[str, dict] = {}

    def note(label: str, path: str, size: int, manifest: dict | None = None) -> None:
        with open(path, "rb") as fh:
            inputs[label] = {"sha256": hashlib.sha256(fh.read()).hexdigest(), "size": size}
        if manifest:
            inputs[label]["sentence_n"] = size_stats([s["n"] for s in manifest["sentences"]])

    workload = {"commands": [], "count_tree": None, "min_curve": 0, "vertex_samples": 0}
    rng = np.random.default_rng(seed)
    if name in ("big_random", "big_path"):
        heads = (gen.random_heads if name == "big_random" else gen.path_heads)(BIG_N, rng)
        tree_file = write(os.path.join(work, "tree.txt"), gen.head_text(heads))
        note("tree", tree_file, BIG_N)
        want = check.expected_sum(heads) if name == "big_random" else check.path_expected_sum(BIG_N)
        workload["commands"] = [
            Command("expected", ["expected", "--tree-file", tree_file], lambda out: check.check_expected(out, want)),
            Command(
                "sample",
                ["sample", "--tree-file", tree_file, "--z", "1", "--seed", str(seed)],
                lambda out: check.check_sample(out, heads),
            ),
        ]
        if name == "big_random":
            workload["count_tree"] = tree_file
    elif name == "corpus_mc":
        corpus, manifest = corpus_files(work, "corpus", CORPUS_SENTENCES, seed)
        note("corpus", corpus, CORPUS_SENTENCES, manifest)
        workload["commands"] = [analyze_command(work, corpus, manifest, seed, "corpus", 1)]
        z_total = sum(int(z) for z in Z_VALUES.split(","))
        accepted = [s["heads"] for s in manifest["sentences"] if s["heads"] is not None]
        workload["vertex_samples"] = z_total * sum(len(h) for h in accepted)
    elif name == "small_exhaustive":
        workload["commands"] = [
            Command("selfcheck", ["selfcheck", "--max-n", str(SELFCHECK_MAX_N)], check.check_selfcheck),
            Command(
                "minima",
                ["minima", "--n", str(MINIMA_N), "--all", "--cap", str(MINIMA_N)],
                lambda out: check.check_minima(out, MINIMA_N),
            ),
        ]
        workload["min_curve"] = MIN_CURVE_N
    else:
        raise ValueError(f"unknown workload {name!r}")
    invariance, manifest = corpus_files(work, "invariance", INVARIANCE_SENTENCES, seed)
    note("invariance_corpus", invariance, INVARIANCE_SENTENCES, manifest)
    workload["invariance"] = [
        analyze_command(work, invariance, manifest, seed, f"invariance-jobs{jobs}", jobs) for jobs in (1, 2)
    ]
    workload["inputs"] = inputs
    return workload


# ---------------------------------------------------------------- measuring


SETUP_ARGV = [sys.executable, "-c", "import projlin.cli"]
REF_ARGV = [sys.executable, os.path.join(HERE, "ref.py")]


def measure(ops: Ops, label: str, argv: list[str], deadline: float, work: str) -> dict:
    """Run one process that writes nothing to check; its wall time is None
    when it fails."""
    result = run_process(argv, os.path.join(work, label + ".out"), deadline)
    return result if ops.record(label, result["problems"]) else dict(result, wall_s=None)


def check_invariance(workload: dict, ops: Ops, deadline: float, work: str) -> None:
    """analyze with --jobs 1 and --jobs 2 must write byte-identical CSVs."""
    one, two = workload["invariance"]
    ran = True
    for command in (one, two):
        stdout_path = command.args[-1] + ".out"
        result = run_process(cli_argv(command.args), stdout_path, deadline)
        problems = result["problems"] or command.check(stdout_path)
        ran = ops.record(f"invariance analyze --jobs {command.args[-3]}", problems) and ran
    if not ran:
        return
    differing = [a for a, b in zip(one.outputs, two.outputs) if read(a) != read(b)]
    ops.record("analyze --jobs 1 vs --jobs 2", [f"{os.path.basename(p)} differs" for p in differing])


def timed_passes(workload: dict, ops: Ops, window_end: float, deadline: float, work: str) -> tuple[list, list]:
    """Passes over the workload's commands until the window ends.

    A pass is a run of ref.py, a fresh import of projlin.cli and the
    workload's commands, with another run of ref.py before each command but
    the first; one more ref.py run follows the last pass, so that every
    timed process has a reference run shortly before and after it.  No pass
    starts that would, at the median pass length so far, end after the
    window.  An import that runs before the passes, and may compile
    bytecode, is discarded.  Returns the passes, each a list of (label,
    result) in the order run, and the closing reference run.
    """
    measure(ops, "setup", SETUP_ARGV, deadline, work)
    passes: list[list] = []
    lengths: list[float] = []
    while not passes or perf_counter() + statistics.median(lengths) <= window_end:
        pass_start = perf_counter()
        steps = [("ref", measure(ops, "reference", REF_ARGV, deadline, work)),
                 ("setup", measure(ops, "setup", SETUP_ARGV, deadline, work))]
        for index, command in enumerate(workload["commands"]):
            if index:
                steps.append(("ref", measure(ops, "reference", REF_ARGV, deadline, work)))
            stdout_path = os.path.join(work, command.name + ".out")
            result = run_process(cli_argv(command.args), stdout_path, deadline)
            problems = result["problems"] or command.check(stdout_path)
            ops.record(command.name, problems)
            steps.append((command.name, result if not problems else dict(result, wall_s=None)))
        passes.append(steps)
        lengths.append(perf_counter() - pass_start)
    return passes, [("ref", measure(ops, "reference", REF_ARGV, deadline, work))]


def run_inproc(workload: dict, mode: str, ops: Ops, deadline: float, work: str, curve: bool = False) -> dict:
    """Run the workload's commands in one process (inproc.py) and check
    each output as soon as that process ends."""
    commands = [
        {
            "name": command.name,
            "argv": command.args,
            "stdout": os.path.join(work, f"{command.name}-{mode}.out"),
            "stderr": os.path.join(work, f"{command.name}-{mode}.out.err"),
        }
        for command in workload["commands"]
    ]
    plan = {
        "mode": mode,
        "commands": commands,
        "count_tree": workload["count_tree"],
        "min_curve": workload["min_curve"] if curve else 0,
        "out": os.path.join(work, f"inproc-{mode}.json"),
    }
    plan_path = write(os.path.join(work, f"plan-{mode}.json"), json.dumps(plan))
    argv = [sys.executable, os.path.join(HERE, "inproc.py"), plan_path]
    result = run_process(argv, os.path.join(work, f"inproc-{mode}.out"), deadline)
    if not ops.record(f"in-process {mode} run", result["problems"]):
        return {}
    outcome = json.loads(read(plan["out"]))
    for spec, command, ran in zip(commands, workload["commands"], outcome["commands"]):
        problems = exit_problems(ran["exit_code"], spec["stderr"]) or command.check(spec["stdout"])
        ops.record(f"{mode} {command.name}", problems)
    if "count" in outcome:
        ops.record(
            f"{mode} count_projective",
            [] if outcome["count"]["matches"] else ["count differs from the product of (d+1)!"],
        )
    outcome["stdout_bytes"] = sum(os.path.getsize(spec["stdout"]) for spec in commands)
    return outcome


# ---------------------------------------------------------------- metrics


def reference_ratios(steps: list) -> dict[str, list[float]]:
    """Each timed process's wall time divided by the mean of the nearest
    reference runs before and after it, by label.

    On a small shared VM the machine's speed drifts by up to 1.7x within
    minutes, more than a statistic over one run can absorb.  ref.py does
    the same kind of work as the commands in a fresh interpreter and never
    changes, so its time, taken shortly before and after a process, tracks
    the machine's speed while that process ran; the ratio follows the
    program and not the machine, and a change that slows the program by
    some share moves the ratio by the same share.
    """
    ratios: dict[str, list[float]] = {}
    last_ref = None
    pending: list[tuple[str, float | None]] = []
    for label, result in steps:
        wall = result["wall_s"]
        if label != "ref":
            pending.append((label, wall))
            continue
        for name, seconds in pending:
            if seconds is not None and wall is not None and last_ref is not None:
                ratios.setdefault(name, []).append(seconds / ((last_ref + wall) / 2))
        pending = []
        last_ref = wall
    return ratios


def interquartile_mean(values: list[float]) -> float:
    """The mean of the middle half of the values: the quarter of them at
    each end is dropped, so a few disturbed runs move it no more than they
    move the median, while averaging the rest makes it steadier."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut : len(values) - cut])


def end_to_end(name: str, passes: list[list], closing: list, workload: dict) -> tuple[dict, dict]:
    """The time metrics are interquartile means over the run of reference
    ratios (``reference_ratios``) times REF_NOMINAL_S, so that they read
    close to raw seconds on a lightly loaded machine of the kind the
    benchmark was tuned on; pass_s sums them over the workload's commands.
    A value that could not be measured (every import, reference run or
    command failed, no command reported its peak RSS) is None.
    """
    steps = [step for steps in passes for step in steps] + closing
    ratios = reference_ratios(steps)
    calibrated = {label: REF_NOMINAL_S * interquartile_mean(r) for label, r in ratios.items()}
    commands = [command.name for command in workload["commands"]]
    values = {
        "setup_s": calibrated.get("setup"),
        "main_cmd_s": calibrated.get(MAIN_COMMAND[name]),
        "pass_s": sum(calibrated[c] for c in commands) if set(commands) <= set(calibrated) else None,
        "peak_rss_mb": max((r["rss_mb"] for label, r in steps if label in commands and r["rss_mb"]), default=None),
    }
    extra = {}
    for label, key in [("ref", "ref_s"), ("setup", "setup_raw_s")] + [(c, f"{c}_s") for c in commands]:
        walls = [r["wall_s"] for lbl, r in steps if lbl == label and r["wall_s"] is not None]
        extra[key] = statistics.median(walls) if walls else None
    if workload["vertex_samples"] and extra["analyze_s"]:
        extra["mc_vertex_samples_per_s"] = workload["vertex_samples"] / extra["analyze_s"]
    return values, extra


def per_layer(plain: dict, traced: dict, spec: dict) -> dict:
    trace = traced["trace"]
    layers, counters = trace["layers"], trace["counters"]

    values = {}
    # LAYER.self_s and LAYER.calls straight from the spans; cli.output.self_s
    # is set below, because it sums the per-command spans.
    for metric in spec["per_layer"]:
        layer, _, field = metric["name"].rpartition(".")
        if field in ("self_s", "calls"):
            values[metric["name"]] = layers.get(layer, {}).get(field, 0)
    count = traced.get("count", {})
    values["arrangement.count_projective.failed"] = int(bool(count.get("print_error")))
    values["arrangement.enumerate_projective.arrangements"] = counters.get("arrangement.enumerate_projective.items", 0)
    samples = counters.get("montecarlo.vertex_samples", 0)
    mc_time = layers.get("montecarlo.estimate_expected_sum", {}).get("total_s", 0.0)
    values["montecarlo.vertex_samples"] = samples
    values["montecarlo.vertex_samples_per_s"] = samples / mc_time if mc_time else 0.0
    values["montecarlo.bootstrap_cells"] = counters.get("montecarlo.bootstrap_cells", 0)
    read_count = counters.get("treebank.parse_conllu.items", 0)
    accepted = counters.get("treebank.sentences_accepted", 0)
    values["treebank.sentences_read"] = read_count
    values["treebank.sentences_accepted"] = accepted
    values["treebank.accepted_ratio"] = accepted / read_count if read_count else 0.0
    skipped = {k[len("treebank.skipped.") :]: v for k, v in counters.items() if k.startswith("treebank.skipped.")}
    for reason, metric in check.DEFECTS.values():
        values[metric] = skipped.pop(reason, 0)
    values["treebank.skipped.other"] = sum(skipped.values())
    values["treebank.write_csv.bytes"] = counters.get("treebank.write_csv.bytes", 0)
    values["extrema.trees_built"] = counters.get("extrema.combine_forests.items", 0)
    values["cli.output.self_s"] = sum(v["self_s"] for k, v in layers.items() if k.startswith("cli."))
    values["cli.output.bytes"] = traced["stdout_bytes"]
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.untraced_wall_s"] = plain["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    values["trace.unaccounted_s"] = traced["wall_s"] - sum(s["end"] - s["start"] for s in trace["top_level"])
    values["trace.import_s"] = traced["import_s"]
    values["trace.spans"] = trace["spans"]
    values["extrema.min_curve_s"] = sum(plain.get("min_curve_s", []))
    return values


# ---------------------------------------------------------------- records


def machine_info() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": platform.processor() or None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), info["cpu_model"]
            )
    except OSError:
        pass
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (read(os.path.join(index, f)).strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        info["caches"][f"L{level} {kind}"] = size
    return info


def source_info() -> dict:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SOURCE, "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = done.stdout.strip() or None
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def run_workload(name: str, seed: int, seconds: int, trace: int, spec: dict) -> dict:
    """One benchmark run; returns the result object.  When the program under
    test is broken the failures are counted and the metrics that could not
    be measured are None."""
    started = perf_counter()
    deadline = started + RUN_LIMIT_S
    work = os.path.join(WORK, f"{name}-seed{seed}-trace{trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload = build_workload(name, seed, work)
    ops = Ops()
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": {"big_n": BIG_N, "corpus_sentences": CORPUS_SENTENCES,
                  "invariance_sentences": INVARIANCE_SENTENCES, "z": Z_VALUES,
                  "selfcheck_max_n": SELFCHECK_MAX_N, "minima_n": MINIMA_N, "min_curve_n": MIN_CURVE_N},
        "inputs": workload["inputs"],
        "machine": machine_info(),
        "source": source_info(),
        "commands": [" ".join(["projlin", *c.args]) for c in workload["commands"]],
    }
    print(f"{name} seed {seed} trace {trace}")
    check_invariance(workload, ops, deadline, work)
    if trace == 0:
        passes, closing = timed_passes(workload, ops, min(started + seconds, deadline - 30), deadline, work)
        values, extra = end_to_end(name, passes, closing, workload)
        record.update(passes=passes, closing=closing, command_times=extra)
        wanted = spec["end_to_end"]
        print(f"  {len(passes)} passes; raw medians in seconds")
        for key, value in extra.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {key:<44} {shown:>14}")
    else:
        # The first plain run only warms up: the first process to touch this
        # much memory after start-up runs slower, which would show as a
        # negative tracing overhead.
        warm = run_inproc(workload, "plain", ops, deadline, work)
        traced = run_inproc(workload, "traced", ops, deadline, work) if warm else {}
        plain = run_inproc(workload, "plain", ops, deadline, work, curve=True) if traced else {}
        values = per_layer(plain, traced, spec) if plain else {}
        record.update(plain=plain, traced=traced)
        if "count" in traced:
            error = traced["count"]["print_error"]
            record["count_note"] = "projlin count is left out of the timed CLI commands; printing the count " + (
                f"failed: {error}" if error else "succeeded"
            )
            print("  " + record["count_note"])
        if "min_curve_s" in plain:
            print("  min_expected_sum seconds per size 1..%d: %s"
                  % (len(plain["min_curve_s"]), " ".join(f"{t:.4g}" for t in plain["min_curve_s"])))
        wanted = spec["per_layer"]
    failed_ratio = len(ops.failures) / ops.attempted
    record.update(attempted=ops.attempted, failures=ops.failures, failed_ratio=failed_ratio, values=values)
    print(f"  {'failed_ratio':<44} {failed_ratio:14.6g}  ({len(ops.failures)} of {ops.attempted})")
    for failure in ops.failures:
        print(f"  FAILED {failure}")
    metrics = {m["name"]: {"value": values[m["name"]] if values else None, "unit": m["unit"]} for m in wanted}
    for metric_name, metric in metrics.items():
        shown = "n/a" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"  {metric_name:<44} {shown:>14} {metric['unit']}")
    print("  info: " + json.dumps({k: record[k] for k in ("sizes", "inputs", "machine", "source")}, sort_keys=True))
    record["elapsed_s"] = perf_counter() - started
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    write(
        os.path.join(WORK, "results", f"{name}-seed{seed}-trace{trace}.json"),
        json.dumps(record, indent=1, default=str),
    )
    shutil.rmtree(work, ignore_errors=True)
    return {"correct": not ops.failures, "attempted": ops.attempted, "failed": len(ops.failures), "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help=f"one of {', '.join(MAIN_COMMAND)}, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SOURCE, "cli.py")):
        print(f"no projlin source at {os.path.relpath(SOURCE)}; run from the root of a checkout", file=sys.stderr)
        return 2
    names = list(MAIN_COMMAND) if args.workload == "all" else [args.workload]
    if not set(names) <= set(MAIN_COMMAND):
        parser.error(f"unknown workload {args.workload!r}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace, spec) for name in names}
    if len(names) == 1:
        final = results[names[0]]
    else:  # one line for all workloads, metric names prefixed by workload
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
