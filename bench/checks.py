"""Reference computations that the benchmark checks program outputs against.

Nothing here imports arithdecode. Model files are parsed from their JSON.
Prefix intervals, joints and lattices are rebuilt in exact rationals. BLEU,
n-gram diversity and the logit modifiers are written again from their
definitions. The one input taken from the program is a SyntheticLM's
conditional, which has no other definition; its float probabilities are made
exact with Fraction(p).

Every check returns a list of error strings; an empty list means it passed.
"""

from __future__ import annotations

import bisect
import json
import math
import statistics
from collections import Counter
from fractions import Fraction

# Depths whose exact prefix interval is narrower than 2^-CONTAIN_BITS are not
# checked: a float code carries about 53 bits, and the sampler only promises
# agreement with the exact decode away from ~2^-40 of a boundary.
CONTAIN_BITS = 40
# Float rounding moves a decoded code by a few ulps of 1; a slack of
# 2^-SLACK_BITS is far above that and far below the widths checked.
SLACK_BITS = 48
LATTICE_TOL = Fraction(1, 2**50)
LOGPROB_TOL = 1e-9
# Failure probability of one statistical (Bernstein) mean check.
STAT_DELTA = 1e-9


class Ref:
    """Next-token probabilities of one model under one modifier chain.

    `base(prefix)` gives the unmodified probabilities in the program's own
    representation (floats for a SyntheticLM, Fractions for file models).
    `chain` is a tuple of ("temperature", t) and ("nucleus", p) steps.
    """

    def __init__(self, base, vocab_size, eos, max_length, chain=(), symbols=None):
        self.base = base
        self.vocab_size = vocab_size
        self.eos = eos
        self.max_length = max_length
        self.chain = tuple(chain)
        self.symbols = symbols
        self._cache: dict = {}
        self._scaled: dict = {}

    def with_chain(self, chain) -> "Ref":
        return Ref(self.base, self.vocab_size, self.eos, self.max_length, chain, self.symbols)

    def complete(self, seq) -> bool:
        return bool(seq) and (
            (self.eos is not None and seq[-1] == self.eos) or len(seq) >= self.max_length
        )

    def probs(self, prefix) -> tuple:
        """Probabilities as the program computes them (floats or Fractions)."""
        hit = self._cache.get(prefix)
        if hit is None:
            if len(self._cache) > 100_000:
                self.clear()
            hit = tuple(self.base(prefix))
            for kind, x in self.chain:
                hit = _temperature(hit, x) if kind == "temperature" else _nucleus(hit, x)
            self._cache[prefix] = hit
        return hit

    def scaled(self, prefix) -> tuple[int, tuple, tuple]:
        """The same probabilities exactly, over one common denominator:
        (denominator, cumulative numerators below each symbol, numerators)."""
        hit = self._scaled.get(prefix)
        if hit is None:
            ratios = [q.as_integer_ratio() for q in self.probs(prefix)]
            denom = math.lcm(*(d for _, d in ratios))
            nums = tuple(n * (denom // d) for n, d in ratios)
            cums = tuple(sum(nums[:v]) for v in range(len(nums)))
            hit = self._scaled[prefix] = (denom, cums, nums)
        return hit

    def exact(self, prefix) -> tuple:
        """The same probabilities as exact rationals."""
        denom, _, nums = self.scaled(prefix)
        return tuple(Fraction(n, denom) for n in nums)

    def clear(self):
        self._cache.clear()
        self._scaled.clear()

    def parse(self, text: str) -> tuple:
        return tuple(self.symbols.index(s) for s in text.split())


def _exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def _renormalized(probs):
    total = sum(probs)
    if all(_exact(q) for q in probs):
        return tuple(Fraction(q) / Fraction(total) for q in probs)
    return tuple(q / total for q in probs)


def _temperature(probs, t):
    """p_i proportional to p_i^(1/t), computed in floats."""
    if t == 1:
        return probs
    return _renormalized([0.0 if q == 0 else float(q) ** (1.0 / t) for q in probs])


def _nucleus(probs, p):
    """Keep the smallest probability-sorted set whose mass reaches p."""
    order = sorted(range(len(probs)), key=lambda i: (-probs[i], i))
    keep, acc = set(), 0
    for i in order:
        keep.add(i)
        acc += probs[i]
        if float(acc) >= p:
            break
    return _renormalized([q if i in keep else type(q)(0) for i, q in enumerate(probs)])


def synthetic_ref(model, chain=()) -> Ref:
    """Reference view of a SyntheticLM (its conditionals are the definition)."""
    return Ref(
        lambda prefix: model.conditional(prefix).probs,
        len(model.vocabulary),
        model.vocabulary.eos,
        model.max_length,
        chain,
    )


def file_ref(path: str) -> Ref:
    """Reference view of a tabular or Markov JSON model file."""
    with open(path) as f:
        spec = json.load(f)
    symbols = list(spec["vocabulary"])
    parse = lambda text: tuple(symbols.index(s) for s in text.split())
    size = len(symbols)
    if spec["type"] == "markov":
        order = int(spec["order"])
        rows = {parse(ctx): tuple(Fraction(x) for x in row) for ctx, row in spec["rows"].items()}
        base = lambda prefix: rows[tuple(prefix[-order:]) if order else ()]
    elif spec["type"] == "tabular":
        mass: dict = {}
        for key, p in spec["table"].items():
            seq = parse(key)
            for i in range(len(seq) + 1):
                mass[seq[:i]] = mass.get(seq[:i], 0) + Fraction(p)

        def base(prefix):
            total = mass[prefix]
            return tuple(mass.get(prefix + (v,), Fraction(0)) / total for v in range(size))

    else:
        raise ValueError(f"no reference for model type {spec['type']!r}")
    return Ref(base, size, spec.get("eos"), int(spec["max_length"]), (), symbols)


# ---------------------------------------------------------------------------
# Joint, rewards and estimator moments


def joint(ref: Ref) -> list[tuple[tuple, Fraction]]:
    """Every positive-probability complete sequence with its exact probability,
    in dictionary (codebook) order."""
    out = []
    stack = [((), Fraction(1))]
    while stack:
        prefix, mass = stack.pop()
        if ref.complete(prefix):
            out.append((prefix, mass))
            continue
        exact = ref.exact(prefix)
        for v in reversed(range(ref.vocab_size)):
            if exact[v] > 0:
                stack.append((prefix + (v,), mass * exact[v]))
    # Float conditionals made exact sum to 1 only up to rounding.
    if abs(sum(p for _, p in out) - 1) > 1e-9:
        raise ValueError("reference joint does not sum to 1")
    return out


def bleu(hyp, ref, max_n: int = 4) -> float:
    """Add-one-smoothed sentence BLEU with exponential brevity penalty."""
    hyp, ref = tuple(hyp), tuple(ref)
    if not hyp:
        return 0.0
    log_prec = 0.0
    for n in range(1, max_n + 1):
        hg = Counter(hyp[i : i + n] for i in range(len(hyp) - n + 1))
        rg = Counter(ref[i : i + n] for i in range(len(ref) - n + 1))
        matched = sum((hg & rg).values())
        log_prec += math.log((matched + 1) / (sum(hg.values()) + 1))
    return math.exp(min(0.0, 1.0 - len(ref) / len(hyp))) * math.exp(log_prec / max_n)


def diversity(seqs, eos, max_n: int = 4) -> float:
    """Sum over n of distinct n-grams / all n-grams, EOS stripped."""
    stripped = [tuple(t for t in s if t != eos) for s in seqs]
    d = 0.0
    for n in range(1, max_n + 1):
        grams = [s[i : i + n] for s in stripped for i in range(len(s) - n + 1)]
        if grams:
            d += len(set(grams)) / len(grams)
    return d


def strip(seq, eos) -> tuple:
    return tuple(t for t in seq if t != eos)


def lattice_moments(widths: list[Fraction], rewards: list[float], n: int) -> tuple[float, float, float]:
    """Mean, variance and largest deviation from the mean, over a uniform
    shift b, of the paper-lattice estimator
    (1/n) sum_i r(cell of c_i), c_i = i/(n+1) + b mod 1, for cells of the given
    exact widths laid out in order from 0.

    As b grows, code i enters cell j exactly when b = lo_j - i/(n+1) mod 1, so
    the estimator is a step function of b and one sorted sweep over those
    events integrates it exactly (scaled to integers by a common denominator).
    """
    los, acc = [], Fraction(0)
    for w in widths:
        los.append(acc)
        acc += w
    denom = math.lcm(n + 1, *(lo.denominator for lo in los))
    B = [lo.numerator * (denom // lo.denominator) for lo in los]
    step = denom // (n + 1)
    cells = len(B)
    f = sum(rewards[bisect.bisect_right(B, i * step) - 1] for i in range(1, n + 1))
    events = sorted(
        ((B[j] - i * step) % denom, j) for i in range(1, n + 1) for j in range(cells)
    )
    s1 = s2 = 0.0
    low = high = f
    prev = 0
    for e, j in events:
        if e == 0:
            continue  # already counted in the state at b = 0
        if e > prev:
            seg = (e - prev) / denom
            s1 += f * seg
            s2 += f * f * seg
            low, high = min(low, f), max(high, f)
        prev = e
        f += rewards[j] - rewards[j - 1]
    seg = (denom - prev) / denom
    s1 += f * seg
    s2 += f * f * seg
    low, high = min(low, f), max(high, f)
    mean = s1 / n
    return mean, max(0.0, s2 / (n * n) - mean * mean), max(high / n - mean, mean - low / n)


def draw_moments(widths, rewards) -> tuple[float, float, float]:
    """Mean, variance and largest deviation of one reward draw from the joint
    (one ancestral sample)."""
    mean = sum(float(w) * r for w, r in zip(widths, rewards))
    var = sum(float(w) * (r - mean) ** 2 for w, r in zip(widths, rewards))
    return mean, var, max(max(rewards) - mean, mean - min(rewards))


def bernstein_halfwidth(var: float, count: int, spread: float, delta: float = STAT_DELTA) -> float:
    """t such that the mean of `count` independent draws, each within `spread`
    of its expectation, with mean variance `var`, lies further than t from its
    expectation with probability at most `delta` (Bernstein's inequality)."""
    big_l = math.log(2 / delta)
    a = 2 * big_l * spread / 3
    return (a + math.sqrt(a * a + 8 * count * big_l * var)) / (2 * count)


def check_mean(label: str, observed: float, expected: float, var: float, count: int,
               spread: float) -> list[str]:
    bound = bernstein_halfwidth(var, count, spread) + 1e-9
    if abs(observed - expected) > bound:
        return [f"{label}: mean {observed!r} is {abs(observed - expected):.3g} from "
                f"the exact expectation {expected!r} (bound {bound:.3g}, {count} draws)"]
    return []


# ---------------------------------------------------------------------------
# Per-batch checks


def lattice(shift: float, n: int) -> list[Fraction]:
    """The paper-mode lattice {i/(n+1) + b mod 1}, sorted, in exact rationals."""
    b = Fraction(shift)
    return sorted((Fraction(i, n + 1) + b) % 1 for i in range(1, n + 1))


def walk(ref: Ref, seq: tuple, code=None, full_width=False) -> tuple[list[str], float, Fraction]:
    """Validate one sequence and rebuild its prefix intervals.

    Returns (errors, sum of log conditionals, exact width). With a code, the
    code must lie inside the exact prefix interval at every depth where that
    interval is wider than 2^-CONTAIN_BITS. The rational walk stops below that
    width unless `full_width` asks for the sequence's exact width.

    The interval is [low/q, (low + width)/q) in integers, left unreduced,
    which keeps the exact walk cheap.
    """
    errors = []
    low, width, q = 0, 1, 1
    logp = 0.0
    cn, cd = (None, None) if code is None else Fraction(code).as_integer_ratio()
    for d, tok in enumerate(seq):
        if ref.complete(seq[:d]):
            return [f"{seq}: token after a complete prefix"], logp, Fraction(width, q)
        if not (0 <= tok < ref.vocab_size):
            return [f"{seq}: token {tok} out of vocabulary"], logp, Fraction(width, q)
        probs = ref.probs(seq[:d])
        if probs[tok] == 0:
            return [f"{seq}: zero-probability token at depth {d}"], logp, Fraction(width, q)
        logp += math.log(probs[tok])
        if not full_width and width << CONTAIN_BITS <= q:
            continue
        denom, cums, nums = ref.scaled(seq[:d])
        low, width, q = low * denom + width * cums[tok], width * nums[tok], q * denom
        if cn is not None and width << CONTAIN_BITS > q:
            # low/q - 2^-s <= cn/cd < (low + width)/q + 2^-s, multiplied out
            if not ((low << SLACK_BITS) - q) * cd <= (cn * q) << SLACK_BITS < (((low + width) << SLACK_BITS) + q) * cd:
                errors.append(f"{seq}: code {code!r} outside its depth-{d + 1} prefix interval")
                cn = None
    if not ref.complete(seq):
        errors.append(f"{seq}: incomplete sequence")
    return errors, logp, Fraction(width, q)


def check_batch(ref: Ref, seqs, n: int, *, arithmetic: bool, codes=None, shift=None,
                logprobs=None) -> list[str]:
    """Check one decoded batch.

    Every sequence must be complete and valid, and logprobs (when given) must
    match the reference sum of logs. An arithmetic batch must be in
    non-decreasing dictionary order. With codes and shift, the codes must be
    the exact sorted lattice and each code must sit in its sequence's prefix
    intervals; without them, each sequence must appear as often as an
    n-point lattice can place codes in an interval of its width.
    """
    seqs = [tuple(s) for s in seqs]
    errors = []
    if len(seqs) != n:
        return [f"batch holds {len(seqs)} sequences, expected {n}"]
    if arithmetic and any(a > b for a, b in zip(seqs, seqs[1:])):
        errors.append("sequences are not in code order (monotonic embedding broken)")
    if codes is not None:
        exact = lattice(shift, n)
        off = sum(1 for c, e in zip(sorted(codes), exact) if abs(Fraction(c) - e) > LATTICE_TOL)
        if len(codes) != n or off or list(codes) != sorted(codes):
            errors.append(f"codes are not the sorted lattice of shift {shift!r} ({off} off)")
    widths = {}
    for i, seq in enumerate(seqs):
        errs, logp, width = walk(
            ref, seq, None if codes is None else codes[i], arithmetic and codes is None
        )
        errors += errs
        widths[seq] = width
        if logprobs is not None and not abs(logprobs[i] - logp) <= LOGPROB_TOL:
            errors.append(f"{seq}: logprob {logprobs[i]!r}, reference {logp!r}")
        if len(errors) > 5:
            break
    if arithmetic and codes is None and not errors:
        for seq, k in Counter(seqs).items():
            expect = float(widths[seq]) * (n + 1)
            if not (expect - 2 - 1e-6 < k < expect + 1 + 1e-6):
                errors.append(f"{seq}: {k} codes for an interval holding {expect:.3f} grid points")
    return errors


def check_estimator(report, n: int, reps: int, rep_rewards: list[list[float]]) -> list[str]:
    """An EstimatorReport must summarise exactly the rewards its batches earned."""
    means = [sum(r) / len(r) for r in rep_rewards]
    errors = []
    if report.n != n or report.reps != reps or len(means) != reps:
        errors.append(f"estimator report shape n={report.n} reps={report.reps}, {len(means)} batches seen")
    elif abs(report.mean - statistics.fmean(means)) > 1e-9 or abs(report.sd - statistics.stdev(means)) > 1e-9:
        errors.append(f"estimator mean/sd {report.mean!r}/{report.sd!r} do not match its batches")
    return errors
