"""The three benchmark workloads.

Each workload makes its inputs from the seed, then runs rounds: a fixed list
of operations, one at a time (closed loop, one client). Every operation is
timed around the program call alone and keeps its output; `check` compares
those outputs against the independent references in checks.py once the timed
loop is over.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from arithdecode import cli, evaluation, models, sampler
from arithdecode.codebook import LatticeSpec
from arithdecode.errors import ParameterError
from arithdecode.models import Nucleus, Temperature

import checks


@dataclass
class Op:
    kind: str
    method: str  # "arithmetic" | "ancestral" | "" (other CLI commands)
    samples: int  # sequences the operation returns to its caller
    seconds: float = 0.0
    failed: bool = False
    out: object = None  # whatever check() needs
    trace_op: int = 0
    batches: list = field(default_factory=list)  # decoded sequences, one list per batch
    model_path: str = ""
    n: int = 0  # batch size of an estimator operation
    chain: str = ""  # modifier chain name of an estimator operation
    scale: float = 1.0  # CPU-speed factor of the round the operation ran in


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.model_files: list[str] = []
        self.tracer = None
        self.in_process = False  # run CLI commands through cli.main in this process
        self.spawns = False  # operations start processes
        self.child_rss_mb = 0.0  # peak memory of the processes they started
        self.calibrate = None  # when set, called after each operation: speed factor now
        self.speed = 1.0  # the last calibration reading

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write_json(self, name: str, spec: dict) -> str:
        with open(self.path(name), "w") as f:
            json.dump(spec, f, indent=1)
        return self.path(name)

    def load(self):
        """Load the workload's models through the program (traced when tracing)."""
        self.models = [models.load_model(p) for p in self.model_files]

    def prepare(self, refs: dict):
        """Derive inputs that need the reference models (refs: model file -> Ref)."""

    def timed(self, op: Op, fn):
        """Run one operation; the known zero-width ParameterError counts as failed."""
        if self.tracer:
            op.trace_op = self.tracer.begin(op.kind)
        start = time.perf_counter()
        try:
            op.out = fn()
        except ParameterError as e:
            op.failed, op.out = True, e
        op.seconds = time.perf_counter() - start
        if self.tracer:
            self.tracer.end()
        if self.calibrate:
            after = self.calibrate()
            op.scale = 2 / (self.speed + after)
            self.speed = after
        return op


def _median_ms(values):
    return statistics.median(values) * 1000


def _rate(ops, method):
    chosen = [o for o in ops if o.method == method and not o.failed]
    return sum(o.samples for o in chosen) / sum(o.seconds for o in chosen)


# ---------------------------------------------------------------------------


class LatticeLong(Workload):
    """Long sequences (V=8, L=32, no EOS) that share few prefixes."""

    name = "lattice_long"
    N = 256
    # Seed-independent inputs on which the program raises the known zero-width
    # ParameterError: arithmetic shift 1 and ancestral seed 0 fail, shift 0 and
    # seed 2 decode. They run in every round so the failed share is constant.
    FIXED_SHIFTS = [random.Random(f"peaked:{j}").random() for j in (0, 1)]
    FIXED_SEEDS = ["peaked:0", "peaked:2"]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.model_files = [
            self.write_json("long.json", {"type": "synthetic", "seed": seed, "vocab_size": 8,
                                          "max_length": 32, "peakedness": 1.0, "eos": None}),
            self.write_json("peaked8.json", {"type": "synthetic", "seed": 1, "vocab_size": 8,
                                             "max_length": 32, "peakedness": 4.0, "eos": 3}),
        ]

    def round(self, r: int) -> list[Op]:
        main, peaked = self.models
        shift = random.Random(f"{self.seed}:{r}").random()
        ops = [
            self.timed(Op("batch", "arithmetic", self.N, model_path=self.model_files[0]),
                       lambda: sampler.arithmetic_sample(main, LatticeSpec(self.N, "paper", shift), None, 2)),
            self.timed(Op("batch", "ancestral", self.N, model_path=self.model_files[0]),
                       lambda: sampler.ancestral_sample(main, self.N, f"{self.seed}:{r}")),
        ]
        for b in self.FIXED_SHIFTS:
            ops.append(self.timed(Op("fixed", "arithmetic", self.N, model_path=self.model_files[1]),
                                  lambda: sampler.arithmetic_sample(peaked, LatticeSpec(self.N, "paper", b), None, 2)))
        for s in self.FIXED_SEEDS:
            ops.append(self.timed(Op("fixed", "ancestral", self.N, model_path=self.model_files[1]),
                                  lambda: sampler.ancestral_sample(peaked, self.N, s)))
        for op in ops:
            if not op.failed:
                op.batches = [op.out.sequences()]
        return ops

    def check(self, ops, refs) -> list[str]:
        errors = []
        for op in ops:
            if op.failed:
                if op.kind != "fixed" or "not a valid unit subinterval" not in str(op.out):
                    errors.append(f"unexpected failure: {op.out!r}")
                continue
            ss = op.out
            ref = refs[op.model_path]
            arith = op.method == "arithmetic"
            errors += checks.check_batch(
                ref, ss.sequences(), self.N, arithmetic=arith,
                codes=[e.code for e in ss.entries] if arith else None,
                shift=ss.shift, logprobs=[e.logprob for e in ss.entries])
            ref.clear()
        return errors

    def metrics(self, ops) -> dict:
        main = [o for o in ops if o.kind == "batch"]
        arith = [o for o in main if o.method == "arithmetic"]
        return {
            "arith_samples_per_s": _rate(main, "arithmetic"),
            "ancestral_samples_per_s": _rate(main, "ancestral"),
            "arith_batch_p50_ms": _median_ms([o.seconds for o in arith]),
            "arith_unique_per_batch": statistics.fmean(len(set(o.batches[0])) for o in arith),
        }


class PeakedEstimator(Workload):
    """Short sequences on a peaked model: most conditional calls repeat a prefix."""

    name = "peaked_estimator"
    REPS = 4
    SIZES = (16, 64, 256)
    CHAINS = {"none": None, "t0.8+p0.9": (Temperature(0.8), Nucleus(0.9))}
    REF_CHAINS = {"none": (), "t0.8+p0.9": (("temperature", 0.8), ("nucleus", 0.9))}
    EOS = 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # PEAKED = SyntheticLM(1, 4, 4, 3.0, eos=3), the model of criteria 8-9.
        self.model_files = [
            self.write_json("peaked.json", {"type": "synthetic", "seed": 1, "vocab_size": 4,
                                            "max_length": 4, "peakedness": 3.0, "eos": self.EOS})
        ]
        self.mode = None

    def prepare(self, refs):
        base = refs[self.model_files[0]]
        self.refs = {name: base.with_chain(chain) for name, chain in self.REF_CHAINS.items()}
        self.mode = max(checks.joint(self.refs["none"]), key=lambda e: e[1])[0]

    def round(self, r: int) -> list[Op]:
        (model,) = self.models
        ops = []
        for chain_name, chain in self.CHAINS.items():
            for method in ("arithmetic", "ancestral"):
                for n in self.SIZES:
                    seen = []

                    def reward(s, seen=seen):
                        seen.append(s)
                        return evaluation.sentence_bleu(tuple(t for t in s if t != self.EOS), self.mode)

                    def run(method=method, n=n, chain=chain, seen=seen, reward=reward):
                        report = evaluation.estimator_sd(model, method, n, chain, reward, self.REPS,
                                                         self.seed * 100_000 + r)
                        divs = [evaluation.ngram_diversity(seen[i:i + n], eos=self.EOS)
                                for i in range(0, len(seen), n)]
                        return report, divs

                    op = self.timed(Op("estimator", method, n * self.REPS, n=n, chain=chain_name), run)
                    op.batches = [seen[i:i + n] for i in range(0, len(seen), n)]
                    ops.append(op)
        return ops

    def check(self, ops, refs) -> list[str]:
        errors = []
        pooled: dict = {}
        for op in ops:
            if op.failed:
                errors.append(f"unexpected failure: {op.out!r}")
                continue
            ref = self.refs[op.chain]
            report, divs = op.out
            rewards = [[checks.bleu(checks.strip(s, self.EOS), self.mode) for s in b] for b in op.batches]
            errors += checks.check_estimator(report, op.n, self.REPS, rewards)
            for batch, d in zip(op.batches, divs):
                errors += checks.check_batch(ref, batch, op.n, arithmetic=op.method == "arithmetic")
                if abs(d - checks.diversity(batch, self.EOS)) > 1e-12:
                    errors.append(f"ngram_diversity {d!r} disagrees with the reference")
            pooled.setdefault((op.chain, op.method, op.n), []).extend(sum(r) / len(r) for r in rewards)
        for (chain, method, n), means in pooled.items():
            entries = checks.joint(self.refs[chain])
            widths = [p for _, p in entries]
            rewards = [checks.bleu(checks.strip(s, self.EOS), self.mode) for s, _ in entries]
            # An arithmetic rep is one draw of the shift; an ancestral rep is n reward draws.
            if method == "arithmetic":
                expect, var, spread = checks.lattice_moments(widths, rewards, n)
                draws = len(means)
            else:
                expect, var, spread = checks.draw_moments(widths, rewards)
                draws = len(means) * n
            errors += checks.check_mean(f"{method} n={n} chain={chain}", statistics.fmean(means),
                                        expect, var, draws, spread)
        return errors

    def metrics(self, ops) -> dict:
        top = [o for o in ops if o.method == "arithmetic" and o.n == 256 and o.chain == "none"]
        return {
            "arith_samples_per_s": _rate(ops, "arithmetic"),
            "ancestral_samples_per_s": _rate(ops, "ancestral"),
            "arith_batch_p50_ms": _median_ms([o.seconds / self.REPS for o in top]),
            "arith_unique_per_batch": statistics.fmean(len(set(b)) for o in top for b in o.batches),
        }


class ExactCli(Workload):
    """`arithdecode` processes on exact (Fraction-backed) JSON model files."""

    name = "exact_cli"
    N = 256

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(f"exact_cli:{seed}")
        self.tabular = self.write_json("tabular.json", _tabular_spec(rng))
        self.markov = self.write_json("markov.json", _markov_spec(rng, "abcd", None, 6, (8, 6, 4, 2), 20))
        self.small = self.write_json("small.json", _markov_spec(rng, "abe", 2, 5, (2, 1, 1), 4))
        self.model_files = [self.tabular, self.markov, self.small]
        self.refs_markov = self.path("refs_markov.txt")
        self.refs_tabular = self.path("refs_tabular.txt")
        self.spawns = True

    def prepare(self, refs):
        """Reference files: the model's own mode first, then two random sequences."""
        rng = random.Random(f"refs:{self.seed}")
        for path, model_path in ((self.refs_markov, self.markov), (self.refs_tabular, self.tabular)):
            ref = refs[model_path]
            entries = checks.joint(ref)
            mode = max(entries, key=lambda e: e[1])[0]
            picks = [mode] + [rng.choice(entries)[0] for _ in range(2)]
            with open(path, "w") as f:
                for seq in picks:
                    f.write(" ".join(ref.symbols[t] for t in seq) + "\n")

    def commands(self, r: int) -> list[tuple[str, str, int, list[str]]]:
        s = str(self.seed * 1000 + r)
        n = str(self.N)
        return [
            ("cli.sample", "arithmetic", self.N, ["sample", "--model", self.tabular, "--n", n, "--workers", "1", "--seed", s]),
            ("cli.sample", "arithmetic", self.N, ["sample", "--model", self.tabular, "--n", n, "--workers", "2", "--seed", s]),
            ("cli.sample", "arithmetic", self.N, ["sample", "--model", self.markov, "--n", n, "--workers", "1", "--seed", s]),
            ("cli.sample", "arithmetic", self.N, ["sample", "--model", self.markov, "--n", n, "--workers", "2", "--seed", s]),
            ("cli.sample", "ancestral", self.N, ["sample", "--model", self.tabular, "--method", "ancestral", "--n", n, "--seed", s]),
            ("cli.sample", "ancestral", self.N, ["sample", "--model", self.markov, "--method", "ancestral", "--n", n, "--seed", s]),
            ("cli.variance", "", 50 * 84, ["variance", "--model", self.markov, "--n", "4,16,64", "--reps", "50",
                                          "--reference", self.refs_markov, "--seed", s]),
            ("cli.diversity", "", 3 * 3 * 8, ["diversity", "--model", self.tabular, "--n", "8", "--temperature", "0.5,1.0,1.5",
                                             "--reference", self.refs_tabular, "--seed", s]),
            ("cli.oracle_check", "", 0, ["oracle-check", "--model", self.small]),
        ]

    def run_cli(self, argv: list[str], out: str) -> tuple[int, str, str]:
        """(exit code, output file text, error text) of one arithdecode command."""
        argv = argv + ["--out", out]
        err = ""
        if self.in_process:
            code = cli.main(argv)
        else:
            env = dict(os.environ, PYTHONPATH="src")
            with subprocess.Popen([sys.executable, "-m", "arithdecode", *argv], env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True) as proc:
                err = proc.stderr.read()
                # wait4 reports this child's own peak memory
                _, status, usage = os.wait4(proc.pid, 0)
                code = proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_rss_mb = max(self.child_rss_mb, usage.ru_maxrss / 1024)
        if not os.path.exists(out):
            return code, "", err
        with open(out) as f:
            text = f.read()
        os.remove(out)
        return code, text, err

    def round(self, r: int) -> list[Op]:
        ops = []
        for i, (kind, method, samples, argv) in enumerate(self.commands(r)):
            op = self.timed(Op(kind, method, samples, model_path=argv[2]),
                            lambda: self.run_cli(argv, self.path(f"out{i}.csv")))
            op.failed = op.failed or op.out[0] != 0
            if kind == "cli.sample" and not op.failed:
                op.batches = [_parse_sample(op.out[1], None)[1]]
            ops.append(op)
        return ops

    def check(self, ops, refs) -> list[str]:
        errors = []
        per_round = len(self.commands(0))
        by_round = [ops[i:i + per_round] for i in range(0, len(ops), per_round)]
        variance: dict = {}
        div: dict = {}
        for rnd in by_round:
            if rnd[0].out[1] != rnd[1].out[1] or rnd[2].out[1] != rnd[3].out[1]:
                errors.append("sample CSVs differ between --workers 1 and 2")
            for op in rnd:
                text = op.out[1]
                ref = refs[op.model_path]
                if op.failed:
                    errors.append(f"{op.kind} exited {op.out[0]}: {op.out[2].strip()[-300:]}")
                elif op.kind == "cli.sample":
                    shift, seqs, codes, logprobs = _parse_sample(text, ref)
                    errors += checks.check_batch(ref, seqs, self.N, arithmetic=op.method == "arithmetic",
                                                 codes=codes, shift=shift, logprobs=logprobs)
                elif op.kind == "cli.variance":
                    for row in _rows(text):
                        variance.setdefault(int(row["n"]), []).append(float(row["mean"]))
                elif op.kind == "cli.diversity":
                    for row in _rows(text):
                        vals = [float(row[k]) for k in ("mean_reward", "min_reward", "max_reward")]
                        if not (0 <= vals[1] <= vals[0] <= vals[2] <= 1) or not (0 < float(row["ngram_diversity"]) <= 4):
                            errors.append(f"diversity row out of range: {row}")
                        div.setdefault(float(row["temperature"]), []).append(vals[0])
                elif op.kind == "cli.oracle_check":
                    rows = _rows(text)
                    if len(rows) != 4 or any(row["pass"] != "pass" for row in rows):
                        errors.append(f"oracle-check rows: {rows}")
        markov = refs[self.markov]
        target = _read_refs(self.refs_markov, markov)[0]
        entries = checks.joint(markov)
        widths = [p for _, p in entries]
        rewards = [checks.bleu(s, target) for s, _ in entries]
        for n, means in variance.items():
            expect, var, spread = checks.lattice_moments(widths, rewards, n)
            errors += checks.check_mean(f"variance n={n}", statistics.fmean(means), expect, var,
                                        50 * len(means), spread)
        tab = refs[self.tabular]
        targets = _read_refs(self.refs_tabular, tab)
        for t, means in div.items():
            entries = checks.joint(tab.with_chain((("temperature", t),) if t != 1.0 else ()))
            widths = [p for _, p in entries]
            stats = [checks.lattice_moments(widths, [checks.bleu(checks.strip(s, tab.eos), g) for s, _ in entries], 8)
                     for g in targets]
            # Each row averages one lattice draw per reference.
            expect = statistics.fmean(m for m, _, _ in stats)
            var = statistics.fmean(v for _, v, _ in stats)
            spread = max(s for _, _, s in stats)
            errors += checks.check_mean(f"diversity t={t}", statistics.fmean(means), expect, var,
                                        len(targets) * len(means), spread)
        return errors

    def metrics(self, ops) -> dict:
        arith = [o for o in ops if o.kind == "cli.sample" and o.method == "arithmetic" and not o.failed]
        return {
            "arith_samples_per_s": _rate(ops, "arithmetic"),
            "ancestral_samples_per_s": _rate(ops, "ancestral"),
            "arith_batch_p50_ms": _median_ms([o.seconds for o in arith if o.model_path == self.markov]),
            "arith_unique_per_batch": statistics.fmean(len(set(o.batches[0])) for o in arith),
        }


# The seed permutes fixed probability multisets, so every seed gives models
# of the same shape and cost (same joint probabilities, same oracle period),
# and run-to-run spread stays a property of the program, not of the draw.


def _tabular_spec(rng) -> dict:
    """V=3, L=3 with EOS, like criterion 2: weights 1..15 over the 15 sequences."""
    symbols, eos, length = ["a", "b", "c"], 2, 3
    seqs = []

    def rec(prefix):
        if prefix and (prefix[-1] == eos or len(prefix) == length):
            seqs.append(prefix)
            return
        for v in range(3):
            rec(prefix + (v,))

    rec(())
    weights = rng.sample(range(1, len(seqs) + 1), len(seqs))
    total = sum(weights)
    return {"type": "tabular", "vocabulary": symbols, "eos": eos, "max_length": length,
            "table": {" ".join(symbols[t] for t in s): str(Fraction(w, total)) for s, w in zip(seqs, weights)}}


def _markov_spec(rng, symbols: str, eos, length: int, parts: tuple, denom: int) -> dict:
    """Order-1 chain; each row is a permutation of parts/denom (denom divides a
    power of ten), written as exact decimals."""

    def row():
        return [str(Decimal(p) / Decimal(denom)) for p in rng.sample(parts, len(parts))]

    contexts = [""] + [s for i, s in enumerate(symbols) if i != eos]
    return {"type": "markov", "vocabulary": list(symbols), "eos": eos, "max_length": length, "order": 1,
            "rows": {ctx: row() for ctx in contexts}}


def _rows(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _parse_sample(text: str, ref):
    """(shift, sequences, codes, logprobs) from a `sample` CSV; without a
    reference, sequences are tuples of symbols."""
    shift = None
    for ln in text.splitlines():
        if ln.startswith("# shift_b="):
            shift = float(ln.split("=", 1)[1])
    rows = _rows(text)
    seqs = [ref.parse(row["sequence"]) if ref else tuple(row["sequence"].split()) for row in rows]
    codes = [float(row["code"]) for row in rows] if shift is not None else None
    return shift, seqs, codes, [float(row["logprob"]) for row in rows]


def _read_refs(path, ref) -> list[tuple]:
    with open(path) as f:
        return [ref.parse(ln) for ln in f if ln.strip()]


WORKLOADS = {w.name: w for w in (LatticeLong, PeakedEstimator, ExactCli)}
