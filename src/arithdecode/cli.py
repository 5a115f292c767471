"""Experiment runner CLI.

Subcommands mirror the library surface: `sample` (arithmetic / ancestral
batches), `diversity` (reward-vs-diversity sweeps against a reference file),
`variance` (estimator SD sweeps), `stepfn` (step-function variance and
covariance-constant experiments), and `oracle-check` (exact equivalence
suite).  All output is deterministic CSV: identical configs give
byte-identical files regardless of worker count.

Exit codes: 0 success, 1 input error (usage errors included, each reported on
one `error:` line), 2 property failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .codebook import LatticeSpec, UnitInterval, lattice_codes
from .errors import (
    DEFAULT_BOUND,
    EnumerationBoundError,
    InputError,
    InvalidModelError,
    InvalidSequenceError,
    ParameterError,
)
from .models import Nucleus, Temperature, TopK, load_model
from .sampler import code_interval_of_sequence, draw, parallel_decode


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("ARITH_DECODE_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise InputError(f"ARITH_DECODE_SEED must be an integer, not {env!r}") from None


def _chain(args, t: float | None):
    chain = []
    if t is not None and t != 1.0:
        chain.append(Temperature(t))
    if args.top_k is not None:
        chain.append(TopK(args.top_k))
    if args.nucleus_p is not None:
        chain.append(Nucleus(args.nucleus_p))
    return chain or None


def _lines(path: str) -> list[str]:
    """The file's non-blank lines, stripped; a file that cannot be read is an InputError."""
    try:
        with open(path) as f:
            return [ln.strip() for ln in f if ln.strip()]
    except OSError as e:
        raise InputError(str(e)) from None


def _load_references(path: str, vocabulary) -> list[tuple[int, ...]]:
    lines = _lines(path)
    if not lines:
        raise InputError(f"{path}: no references")
    try:
        return [vocabulary.parse(ln) for ln in lines]
    except InvalidSequenceError as e:
        raise InputError(f"{path}: {e}") from None


def _write(args, lines: list[str]):
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_sample(args) -> int:
    model = load_model(args.model)
    seed = _seed(args)
    tag = f"{seed}:shift" if args.method == "arithmetic" else seed
    ss = draw(model, args.method, args.n, tag, _chain(args, args.temperature), args.lattice_mode)
    lines = [] if ss.shift is None else [f"# shift_b={ss.shift}"]
    lines.append("index,code,sequence,logprob")
    for i, e in enumerate(ss.entries):
        code = "" if e.code is None else e.code
        lines.append(f"{i},{code},{model.vocabulary.render(e.sequence)},{e.logprob}")
    _write(args, lines)
    return 0


def cmd_diversity(args) -> int:
    from . import evaluation
    model = load_model(args.model)
    seed = _seed(args)
    refs = _load_references(args.reference, model.vocabulary)
    eos = model.vocabulary.eos
    lines = ["method,temperature,n,mean_reward,min_reward,max_reward,ngram_diversity"]
    for t in args.temperature:
        chain = _chain(args, t)
        means, mins, maxes, divs = [], [], [], []
        for i, ref in enumerate(refs):
            ss = draw(model, args.method, args.n, f"{seed}:{t}:{i}", chain, args.lattice_mode)
            rewards = [evaluation.sentence_bleu(evaluation.strip_eos(s, eos), ref) for s in ss.sequences()]
            means.append(sum(rewards) / len(rewards))
            mins.append(min(rewards))
            maxes.append(max(rewards))
            divs.append(evaluation.ngram_diversity(ss.sequences(), eos=eos))
        k = len(refs)
        lines.append(
            f"{args.method},{t},{args.n},{sum(means) / k},"
            f"{sum(mins) / k},{sum(maxes) / k},{sum(divs) / k}"
        )
    _write(args, lines)
    return 0


def cmd_variance(args) -> int:
    from . import evaluation
    model = load_model(args.model)
    seed = _seed(args)
    refs = _load_references(args.reference, model.vocabulary)
    target, eos = refs[0], model.vocabulary.eos
    chain = _chain(args, args.temperature)
    reward = lambda s: evaluation.sentence_bleu(evaluation.strip_eos(s, eos), target)
    lines = ["method,n,mean,sd,p2_5,p97_5"]
    for n in args.n:
        rep = evaluation.estimator_sd(
            model, args.method, n, chain, reward, args.reps, seed, args.lattice_mode
        )
        lines.append(f"{rep.method},{rep.n},{rep.mean},{rep.sd},{rep.percentile_2_5},{rep.percentile_97_5}")
    _write(args, lines)
    return 0


def _load_step_function(path: str) -> evaluation.StepFunction:
    from . import evaluation
    pieces = []
    for row in map(str.split, _lines(path)):
        if len(row) != 3:
            raise InputError(f"{path}: expected 'lo hi coefficient' lines")
        try:
            lo, hi, a = (Fraction(x) for x in row)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"{path}: bad number in {' '.join(row)!r}") from None
        pieces.append((UnitInterval(lo, hi), a))
    try:
        return evaluation.StepFunction(tuple(pieces))
    except ParameterError as e:
        raise InputError(f"{path}: {e}") from None


def cmd_stepfn(args) -> int:
    from . import evaluation
    f = _load_step_function(args.stepfn)
    seed = _seed(args)
    lines = ["n_points,lattice_var,mc_var,exact_integral,c_on_hat,c_off_hat"]
    for n in args.n:
        res = evaluation.step_variance_experiment(f, n, args.lattice_mode, args.reps, seed)
        con, coff = evaluation.covariance_constants(n, args.reps, seed) if n >= 3 else ("", "")
        lines.append(f"{n},{res['lattice_var']},{res['mc_var']},{res['exact_integral']},{con},{coff}")
    _write(args, lines)
    return 0


def cmd_oracle_check(args) -> int:
    from . import oracle
    model = load_model(args.model)
    joint = oracle.enumerate_joint(model, bound=args.bound)
    cb = oracle.exact_codebook(joint)
    rows: list[tuple[str, bool, str]] = []

    widths_ok = all(iv.hi - iv.lo == p for (seq, p), (_, iv) in zip(joint.entries, cb.items()))
    covers = cb.los[0] == 0 and cb.his[-1] == 1
    rows.append(("partition", widths_ok and covers, "0"))

    codes = list(lattice_codes(LatticeSpec(101, "paper", Fraction(1, 7))))
    for lo, hi in zip(cb.los, cb.his):
        codes.append(lo)
        codes.append((lo + hi) / 2)
    decoded = parallel_decode(model, codes).sequences()
    mismatches = sum(1 for c, seq in zip(codes, decoded) if seq != cb.decode(c))
    rows.append(("decode_equivalence", mismatches == 0, str(mismatches)))

    worst = Fraction(0)
    for seq, p in joint.entries:
        iv = code_interval_of_sequence(model, seq)
        worst = max(worst, abs(iv.width - p))
    rows.append(("interval_width_matches_probability", worst == 0, str(worst)))

    first_tok = joint.entries[0][0][0]
    reward = lambda s: Fraction(1) if s and s[0] == first_tok else Fraction(0)
    truth = oracle.exact_expectation(joint, reward)
    est = oracle.full_period_average(cb, args.n, reward, bound=args.bound)
    rows.append(("full_period_unbiasedness", est == truth, str(abs(est - truth))))

    lines = ["property,pass,worst_deviation"]
    for name, ok, dev in rows:
        lines.append(f"{name},{'pass' if ok else 'fail'},{dev}")
    _write(args, lines)
    return 0 if all(ok for _, ok, _ in rows) else 2


# ---------------------------------------------------------------------------


def _comma_list(text: str, kind, noun: str) -> list:
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, not {text!r}") from None


def _int_list(text: str) -> list[int]:
    return _comma_list(text, int, "integers")


def _float_list(text: str) -> list[float]:
    return _comma_list(text, float, "numbers")


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as InputError, so `main` reports them like any bad input."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="arithdecode", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, n_list=False):
        sp.add_argument("--model", required=True, help="model definition JSON")
        sp.add_argument("--method", choices=["arithmetic", "ancestral"], default="arithmetic")
        if n_list:
            sp.add_argument("--n", type=_int_list, default=[16], help="comma list of sample counts")
        else:
            sp.add_argument("--n", type=int, default=16, help="number of samples")
        sp.add_argument("--lattice-mode", choices=["paper", "uniform"], default="paper")
        sp.add_argument("--top-k", type=int, default=None)
        sp.add_argument("--nucleus-p", type=float, default=None)
        sp.add_argument("--seed", type=int, default=None, help="falls back to $ARITH_DECODE_SEED, then 0")
        sp.add_argument("--workers", type=int, default=1, help="must be >= 1; decoding runs on one thread")
        sp.add_argument("--out", default=None, help="output CSV path (default stdout)")

    sp = sub.add_parser("sample", help="decode one sample batch to CSV")
    common(sp)
    sp.add_argument("--temperature", type=float, default=None)
    sp.set_defaults(fn=cmd_sample)

    sp = sub.add_parser("diversity", help="reward vs n-gram diversity sweep")
    common(sp)
    sp.add_argument("--temperature", type=_float_list, default=[1.0], help="comma list of temperatures")
    sp.add_argument("--reference", required=True, help="one tokenized reference per line")
    sp.set_defaults(fn=cmd_diversity)

    sp = sub.add_parser("variance", help="estimator SD sweep")
    common(sp, n_list=True)
    sp.add_argument("--temperature", type=float, default=None)
    sp.add_argument("--reference", required=True, help="tokenized references; only the first line is scored")
    sp.add_argument("--reps", type=int, default=100)
    sp.set_defaults(fn=cmd_variance)

    sp = sub.add_parser("stepfn", help="step-function variance experiments")
    sp.add_argument("--stepfn", required=True, help="lines 'lo hi coefficient' (decimal strings)")
    sp.add_argument("--n", type=_int_list, default=[4, 10])
    sp.add_argument("--lattice-mode", choices=["paper", "uniform"], default="uniform")
    sp.add_argument("--reps", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_stepfn)

    sp = sub.add_parser("oracle-check", help="exact oracle/sampler equivalence suite")
    sp.add_argument("--model", required=True)
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--bound", type=int, default=DEFAULT_BOUND, help="most sequences, and most shifts swept")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_oracle_check)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "workers", 1) < 1:
            raise ParameterError("worker_count must be >= 1")
        return args.fn(args)
    except (InputError, InvalidModelError, EnumerationBoundError, OSError, ParameterError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
