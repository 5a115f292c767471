#!/usr/bin/env python3
"""Decode benchmark for arithdecode.

Run from the root of a checkout:

    python3 bench/run.py --workload lattice_long --seed 1 --seconds 25 --trace 0

With --trace 0 it times whole rounds of the workload for --seconds seconds
and reports the end-to-end metrics; with --trace 1 it runs one round
untraced, traced and untraced again, and reports per-layer metrics. Every
run also checks that corrupted outputs fail the output checks. Either way
the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A fuller record (environment, errors) goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
SETUP_REPEATS = 7
IMPORT_REPEATS = 3

# This machine's speed drifts by 10-30% over minutes (other tenants), for the
# program and for any fixed workload alike. Each timed operation and each
# set-up probe is bracketed by a fixed calibration, and time metrics are
# scaled to the speed at which it takes its reference time (about its median
# on a 2-core Python 3.11.7 box). The calibration does the kinds of work the
# program does (blake2b hashing, small tuples and dicts, float division,
# Fraction arithmetic); a plain integer loop tracked the program about half
# as well.
CALIBRATION_CODE = """
from fractions import Fraction
import hashlib
table, acc = {}, Fraction(0)
for i in range(1500):
    digest = hashlib.blake2b(f"{i}|{i % 7}".encode(), digest_size=32).digest()
    key = tuple(digest[:8])
    table[key] = [x / 255.0 for x in key]
    acc += Fraction(digest[0] + 1, digest[1] + 1)
"""
REFERENCE_LOOP_S = 0.011
# Work that starts processes is calibrated by a fresh interpreter that imports
# numpy and runs the same loop: start-up cost tracks it, not the loop alone.
REFERENCE_SPAWN_S = 0.155

END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    "arith_samples_per_s": "samples/s",
    "ancestral_samples_per_s": "samples/s",
    "arith_batch_p50_ms": "ms",
    "arith_unique_per_batch": "sequences",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "models.conditional.calls": "count",
    "models.conditional.self_s": "s",
    "models.conditional_modified.calls": "count",
    "models.conditional_modified.self_s": "s",
    "models.sequence_logprob.calls": "count",
    "models.sequence_logprob.s": "s",
    "models.load_model.s": "s",
    "codebook.cdf_intervals.calls": "count",
    "codebook.cdf_intervals.self_s": "s",
    "codebook.locate.self_s": "s",
    "codebook.renormalize.self_s": "s",
    "codebook.lattice_codes.s": "s",
    "sampler.decode_code.calls": "count",
    "sampler.decode_code.self_s": "s",
    "sampler.parallel_decode.s": "s",
    "sampler.code_interval_of_sequence.s": "s",
    "oracle.enumerate_joint.s": "s",
    "oracle.exact_codebook.s": "s",
    "oracle.full_period_average.s": "s",
    "evaluation.sentence_bleu.calls": "count",
    "evaluation.sentence_bleu.self_s": "s",
    "evaluation.ngram_diversity.s": "s",
    "evaluation.estimator_sd.self_s": "s",
    "cli.import_s": "s",
    "cli.numpy_import_s": "s",
    "cli.main.self_s": "s",
    "count.conditional_per_sample": "calls/sample",
    "count.distinct_prefixes_per_batch": "prefixes",
    "count.conditional_per_distinct_prefix": "calls/prefix",
    "count.tokens_per_sample": "tokens/sample",
    "trace.overhead_ratio": "ratio",
}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def environment() -> dict:
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(os.path.join(SRC, "arithdecode"))):
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as f:
                digest.update(name.encode() + f.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        commit = proc.stdout.strip() or None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "numpy": numpy_version,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "platform": platform.platform(),
    }


_LOOP = compile(CALIBRATION_CODE, "calibration", "exec")


def calibrate_loop() -> float:
    """Calibration loop time in this process over its reference: above 1
    means the machine runs slow right now."""
    start = time.perf_counter()
    exec(_LOOP, {})
    return (time.perf_counter() - start) / REFERENCE_LOOP_S


def calibrate_spawn() -> float:
    """Time for a fresh interpreter to import numpy and run the calibration
    loop, over its reference."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy\n" + CALIBRATION_CODE], check=True)
    return (time.perf_counter() - start) / REFERENCE_SPAWN_S


def setup_seconds(files: list[str]) -> tuple[float, float]:
    """(raw, speed-scaled) median wall time of a fresh process that imports
    arithdecode.cli and loads the workload's model files: what every user
    pays before decoding."""
    code = "import sys; import arithdecode.cli as c; [c.load_model(p) for p in sys.argv[1:]]"
    raw, scaled = [], []
    before = calibrate_spawn()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, *files], env=child_env(), check=True)
        raw.append(time.perf_counter() - start)
        after = calibrate_spawn()
        scaled.append(raw[-1] * 2 / (before + after))
        before = after
    return statistics.median(raw), statistics.median(scaled)


def import_seconds() -> tuple[float, float]:
    """(arithdecode.cli, numpy) cumulative import times in a fresh process,
    medians of -X importtime readings."""
    cli_s, numpy_s = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import arithdecode.cli"],
                              env=child_env(), capture_output=True, text=True, check=True)
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("arithdecode.cli", "numpy"):
                found[parts[2].strip()] = int(parts[1]) / 1e6
        cli_s.append(found["arithdecode.cli"])
        numpy_s.append(found.get("numpy", 0.0))
    return statistics.median(cli_s), statistics.median(numpy_s)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def build_refs(workload) -> dict:
    """Reference model per model file: SyntheticLMs through their own
    conditionals, tabular and Markov files parsed independently."""
    from arithdecode import models

    refs = {}
    for path in workload.model_files:
        with open(path) as f:
            kind = json.load(f)["type"]
        refs[path] = checks.synthetic_ref(models.load_model(path)) if kind == "synthetic" else checks.file_ref(path)
    return refs


def self_test() -> list[str]:
    """Corrupted outputs must fail the checks that the clean batch passes."""
    from arithdecode import LatticeSpec, SyntheticLM, arithmetic_sample

    model = SyntheticLM(1, 4, 4, 3.0, eos=3)
    ref = checks.synthetic_ref(model)
    n, shift = 64, 0.3141592653589793
    ss = arithmetic_sample(model, LatticeSpec(n, "paper", shift))
    seqs = ss.sequences()
    codes = [e.code for e in ss.entries]
    logprobs = [e.logprob for e in ss.entries]

    def run(seqs=seqs, codes=codes, logprobs=logprobs):
        return checks.check_batch(ref, seqs, n, arithmetic=True, codes=codes, shift=shift, logprobs=logprobs)

    i = next(k for k in range(n - 1) if seqs[k] != seqs[k + 1])
    swapped = seqs[:i] + [seqs[i + 1], seqs[i]] + seqs[i + 2:]
    off_lattice = codes[:7] + [codes[7] + 1e-6] + codes[8:]
    changed = logprobs[:3] + [logprobs[3] + 1e-6] + logprobs[4:]
    problems = [f"clean batch fails: {e}" for e in run()[:3]]
    for label, errors in (
        ("swapped sequences", run(seqs=swapped)),
        ("swapped sequences without codes", checks.check_batch(ref, swapped, n, arithmetic=True)),
        ("code moved off the lattice", run(codes=off_lattice)),
        ("changed logprob", run(logprobs=changed)),
        ("biased mean", checks.check_mean("mean", 0.5, 0.3, 0.001, 40, 0.1)),
    ):
        if not errors:
            problems.append(f"self-test: {label} not reported")
    return problems


def run_untraced(workload, seconds: float) -> tuple[list, dict, dict]:
    """Time whole rounds for `seconds`; returns (ops, scaled metrics, raw metrics).

    Every operation is bracketed by calibrations (Workload.timed): the
    machine's speed moves within a round too much for one factor per round.
    """
    workload.load()
    setup_raw, setup_scaled = setup_seconds(workload.model_files)
    workload.calibrate = calibrate_spawn if workload.spawns else calibrate_loop
    workload.speed = workload.calibrate()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(workload.round(len(rounds)))
        if len(rounds) == 1:
            # Peak memory of one round: later rounds repeat the same work, and
            # the outputs kept for checking would otherwise grow with speed.
            rss = workload.child_rss_mb if workload.spawns else peak_rss_mb()
    ops = [op for round_ops in rounds for op in round_ops]
    # The fixed batches are there to count failures; a fix that lets them
    # decode in full must not read as a slower round.
    round_s = lambda: statistics.median(sum(op.seconds for op in round_ops if op.kind != "fixed")
                                        for round_ops in rounds)
    raw = workload.metrics(ops)
    raw.update(setup_s=setup_raw, round_s=round_s(), peak_rss_mb=rss)
    for op in ops:
        op.seconds *= op.scale
    metrics = workload.metrics(ops)
    metrics.update(setup_s=setup_scaled, round_s=round_s(), peak_rss_mb=rss)
    return ops, metrics, raw


def run_traced(workload, name: str) -> tuple[list, dict, list[str]]:
    """Per-layer metrics of one round; returns (the traced round's ops,
    metrics, problems). Only the traced round goes to the output checks:
    the untraced passes repeat it with the same seed, so pooling them would
    count the same draws three times."""
    from tracing import Tracer

    cli_import_s, numpy_import_s = import_seconds()
    workload.in_process = True
    workload.load()
    total_s = lambda ops: sum(op.seconds for op in ops)
    plain = workload.round(0)

    tracer = Tracer()
    tracer.install()
    try:
        workload.tracer = tracer
        workload.load()
        traced = workload.round(0)
    finally:
        workload.tracer = None
        tracer.uninstall(*workload.models)
    # The same round again, untraced, so that neither warm-up nor a drift in
    # machine speed between the passes counts as overhead. (Not speed-scaled:
    # the tracer's retained spans slow a calibration loop too.)
    again = workload.round(0)
    overhead = total_s(traced) / statistics.fmean([total_s(plain), total_s(again)])
    problems = [f"untraced pass {k} decoded other sequences than the traced one"
                for k, ops in (("before", plain), ("after", again))
                if [(o.failed, o.batches) for o in ops] != [(o.failed, o.batches) for o in traced]]

    summary = tracer.summary()
    metrics = {}
    for key in PER_LAYER:
        span, _, stat = key.rpartition(".")
        if span in ("cli", "count", "trace"):
            continue
        metrics[key] = summary.get(span, {}).get(stat, 0)
    metrics["cli.import_s"] = cli_import_s
    metrics["cli.numpy_import_s"] = numpy_import_s
    metrics["cli.main.self_s"] = summary.get("cli.main", {}).get("self_s", 0.0)
    metrics["trace.overhead_ratio"] = overhead
    metrics.update(prefix_counts(tracer, traced))
    tracer.write(os.path.join(OUT, f"{name}.spans.csv.gz"))
    return traced, metrics, problems


def prefix_counts(tracer, ops) -> dict:
    """Machine-independent work counts over the operations whose decoded
    sequences the benchmark sees. The distinct (incomplete) prefixes of a
    batch are the fewest conditional calls any decoder could make for it."""
    calls = samples = prefixes = tokens = batches = 0
    for op in ops:
        if op.failed or not op.batches:
            continue
        calls += tracer.calls_in(op.trace_op, "models.conditional")
        for batch in op.batches:
            batches += 1
            samples += len(batch)
            tokens += sum(len(s) for s in batch)
            prefixes += len({s[:d] for s in batch for d in range(len(s))})
    return {
        "count.conditional_per_sample": calls / samples,
        "count.distinct_prefixes_per_batch": prefixes / batches,
        "count.conditional_per_distinct_prefix": calls / prefixes,
        "count.tokens_per_sample": tokens / samples,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["lattice_long", "peaked_estimator", "exact_cli"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "arithdecode", "__init__.py")):
        print(f"error: {SRC}/arithdecode not found; run from the root of an arithdecode checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import arithdecode

    if not os.path.abspath(arithdecode.__file__).startswith(SRC + os.sep):
        print(f"error: arithdecode imported from {arithdecode.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        refs = build_refs(workload)
        workload.prepare(refs)
        problems = self_test()
        raw = None
        if args.trace:
            ops, metrics, traced_problems = run_traced(workload, name)
            problems += traced_problems
            units = PER_LAYER
        else:
            ops, metrics, raw = run_untraced(workload, args.seconds)
            units = END_TO_END
        problems += workload.check(ops, refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    env = environment()
    with open(os.path.join(OUT, f"{name}.json"), "w") as f:
        json.dump({"env": env, "args": vars(args), "errors": problems, "result": result,
                   "unscaled_metrics": raw}, f, indent=1)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print("env: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
