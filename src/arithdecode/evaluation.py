"""Rewards, estimator statistics, n-gram diversity, and step-function variance.

The step-function experiments check the variance story behind shifted
lattices: grid-aligned pieces integrate with zero variance at n points, and
with n+1 points the lattice estimator still beats naive Monte Carlo because
the pairwise covariance matrix of the indicator sums (c_on on the diagonal,
c_off off it) is negative semidefinite.

numpy loads only inside the step-function experiments, so importing the package
or running any other command does not pay for it: `estimator_sd` takes numpy's
statistics bit for bit in pure Python (`_sum`, `_percentile`).
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Sequence

from .codebook import LatticeSpec, Real, UnitInterval, _Record, is_exact, lattice_codes, locate
from .errors import ParameterError
from .models import ModifierChain, SequenceModel, Tokens
from .sampler import SampleSet, draw

RewardFn = Callable[[Tokens], float]


# ---------------------------------------------------------------------------
# Step functions


class StepFunction(_Record):
    """Finite linear combination of indicators of disjoint intervals covering [0,1)."""

    _fields = ("pieces",)

    def __init__(self, pieces: tuple[tuple[UnitInterval, Real], ...]):
        pieces = self.__dict__["pieces"] = tuple(pieces)
        if not pieces:
            raise ParameterError("step function needs at least one piece")
        lo = pieces[0][0].lo
        if lo != 0:
            raise ParameterError("pieces must start at 0")
        for iv, _ in pieces:
            if iv.lo != lo:
                raise ParameterError("pieces must be contiguous and ordered")
            lo = iv.hi
        if lo != 1:
            raise ParameterError("pieces must cover [0, 1)")


def eval_step_function(f: StepFunction, c: Real) -> Real:
    """Coefficient of the (half-open) piece containing c."""
    return _step_values(f, [c])[0]


def _step_values(f: StepFunction, codes: list[Real]) -> list[Real]:
    """f at each code; the pieces become `locate`'s runs once per call."""
    runs = [(a, iv) for iv, a in f.pieces]
    for c in codes:
        if not (0 <= c < 1):
            raise ParameterError(f"code {c} outside [0, 1)")
    return [locate(c, runs) for c in codes]


def step_integral(f: StepFunction) -> Real:
    return sum(iv.width * a for iv, a in f.pieces)


def lattice_step_estimate(f: StepFunction, spec: LatticeSpec) -> Real:
    """Lattice-rule sample mean of f; exact when shift and pieces are rational."""
    return _mean(_step_values(f, lattice_codes(spec)))


def step_variance_experiment(
    f: StepFunction, n_points: int, mode: str = "uniform", reps: int = 1000, seed: int = 0
) -> dict:
    """Empirical shifted-lattice vs naive-MC estimator variance for one function.

    Returns {"lattice_var", "mc_var", "exact_integral"} with variances taken
    over `reps` independent shifts / i.i.d. point sets.
    """
    import numpy as np

    if reps < 2:
        raise ParameterError("reps must be >= 2")
    base = np.array(lattice_codes(LatticeSpec(n_points, mode)))
    rng = np.random.default_rng(seed)
    los = np.array([float(iv.lo) for iv, _ in f.pieces])
    coeffs = np.array([float(a) for _, a in f.pieces])

    def piecewise(points: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(los, points, side="right") - 1
        return coeffs[idx]

    shifts = rng.random(reps)
    lattice_pts = (shifts[:, None] + base[None, :]) % 1.0
    lattice_est = piecewise(lattice_pts).mean(axis=1)
    mc_pts = rng.random((reps, n_points))
    mc_est = piecewise(mc_pts).mean(axis=1)
    return {
        "lattice_var": float(lattice_est.var()),
        "mc_var": float(mc_est.var()),
        "exact_integral": float(step_integral(f)),
    }


def covariance_constants(n: int, reps: int = 100_000, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of the lattice indicator covariance sums.

    For n+1 points spaced 1/n under a shared uniform shift, estimates
    sum_{i != j} Cov[1_[0,1/n)(c_i), 1_[0,1/n)(c_j)]        (the "on" total)
    and the analogous cross total against 1_[1/n,2/n)       (the "off" total).
    The analytic values are 1/n - 1 and 1/n.
    """
    import numpy as np

    if n < 3:
        raise ParameterError("needs n >= 3")
    rng = np.random.default_rng(seed)
    mu = 1.0 / n
    base = np.arange(n + 1) / n
    shifts = rng.random(reps)
    pts = (shifts[:, None] + base[None, :]) % 1.0
    a = (pts < mu).astype(float) - mu
    b = ((pts >= mu) & (pts < 2 * mu)).astype(float) - mu
    s_on = a.sum(axis=1) ** 2 - (a**2).sum(axis=1)
    s_off = a.sum(axis=1) * b.sum(axis=1) - (a * b).sum(axis=1)
    return float(s_on.mean()), float(s_off.mean())


def covariance_matrix_eigenvalues(n: int) -> tuple[float, list[float]]:
    """Eigenvalues of the n x n matrix with 1/n - 1 on the diagonal, 1/n off it."""
    import numpy as np

    c_on = 1.0 / n - 1.0
    c_off = 1.0 / n
    mat = np.full((n, n), c_off) + np.eye(n) * (c_on - c_off)
    vals = sorted(np.linalg.eigvalsh(mat).tolist())
    return max(vals), vals


# ---------------------------------------------------------------------------
# Estimator statistics


def sample_mean(samples: SampleSet, reward: RewardFn) -> float:
    if not samples.entries:
        raise ParameterError("empty sample set")
    return _mean([reward(e.sequence) for e in samples.entries])


def _mean(vals: list[Real]) -> Real:
    """The mean of `vals`: a Fraction when their sum is exact, a float otherwise."""
    total = sum(vals)
    return Fraction(total, len(vals)) if is_exact(total) else total / len(vals)


class EstimatorReport(_Record):
    _fields = ("method", "n", "reps", "mean", "sd", "percentile_2_5", "percentile_97_5")

    def __init__(self, method: str, n: int, reps: int, mean: float, sd: float,
                 percentile_2_5: float, percentile_97_5: float):
        vars(self).update(method=method, n=n, reps=reps, mean=mean, sd=sd,
                          percentile_2_5=percentile_2_5, percentile_97_5=percentile_97_5)


def estimator_sd(
    model: SequenceModel,
    method: str,
    n: int,
    chain: ModifierChain | None,
    reward: RewardFn,
    reps: int,
    seed: int = 0,
    lattice_mode: str = "paper",
) -> EstimatorReport:
    """Run an estimator `reps` times with independent shifts/seeds.

    Each rep's batch comes from `draw` with the tag f"{seed}:{rep}", so the
    report is a pure function of the arguments.
    """
    if reps < 2:
        raise ParameterError("reps must be >= 2")
    ests = [
        float(sample_mean(draw(model, method, n, f"{seed}:{rep}", chain, lattice_mode), reward))
        for rep in range(reps)
    ]
    mean = _sum(ests) / reps
    return EstimatorReport(
        method=method,
        n=n,
        reps=reps,
        mean=mean,
        sd=math.sqrt(_sum([(x - mean) * (x - mean) for x in ests]) / (reps - 1)),
        percentile_2_5=_percentile(ests, 2.5),
        percentile_97_5=_percentile(ests, 97.5),
    )


def _sum(xs: list[float]) -> float:
    """numpy's float64 `add.reduce`, bit for bit: halves split at a multiple of 8
    above 128 items, eight running sums from 0.0 below; other orders round differently."""
    n = len(xs)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum(xs[:half]) + _sum(xs[half:])
    m, r = n - n % 8, [0.0] * 8
    for i in range(0, m, 8):
        r = [a + x for a, x in zip(r, xs[i : i + 8])]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in xs[m:]:
        total += x
    return total


def _percentile(xs: list[float], q: float) -> float:
    """`np.percentile(xs, q)`, bit for bit: the linear method with numpy's two-sided
    lerp, NaN if any item is; a zero read between tied 0.0 and -0.0 may differ in sign."""
    if any(map(math.isnan, xs)):
        return math.nan
    s = sorted(xs)
    v = (len(s) - 1) * (q / 100)
    i = math.floor(v)
    t, a, b = v - i, s[i], s[i + 1]
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


# ---------------------------------------------------------------------------
# Sequence metrics


def strip_eos(tokens: Tokens, eos: int | None) -> Tokens:
    """The tokens without EOS; all of them when the vocabulary has no EOS."""
    return tuple(t for t in tokens if t != eos) if eos is not None else tuple(tokens)


def ngram_diversity(
    sequences: Sequence[Tokens], max_n: int = 4, eos: int | None = None
) -> float:
    """d = sum over n of (unique n-grams across the set / total n-grams).

    n-grams are over token indices with EOS stripped; an n with no n-grams at
    all contributes 0.  Each distinct sequence is stripped and scanned once,
    and its n-grams count once per copy in the total.
    """
    if not sequences:
        raise ParameterError("empty sequence list")
    if max_n < 1:
        raise ParameterError(f"max_n must be >= 1, not {max_n}")
    counts = [(strip_eos(s, eos), k) for s, k in Counter(map(tuple, sequences)).items()]
    d = 0.0
    for n in range(1, max_n + 1):
        total = sum(k * max(0, len(s) - n + 1) for s, k in counts)
        if total:
            d += len({s[i : i + n] for s, _ in counts for i in range(len(s) - n + 1)}) / total
    return d


def sentence_bleu(
    hypothesis: Sequence[int], reference: Sequence[int], max_n: int = 4
) -> float:
    """Add-one-smoothed sentence BLEU with exponential brevity penalty, in [0, 1].

    Scores are cached by (hypothesis, reference, max_n), so a batch that
    decodes many copies of a few sequences scores each distinct pair once.
    """
    hyp = tuple(hypothesis)
    ref = tuple(reference)
    if not ref:
        raise ParameterError("empty reference")
    if max_n < 1:
        raise ParameterError(f"max_n must be >= 1, not {max_n}")
    return _bleu(hyp, ref, max_n)


@functools.lru_cache(maxsize=4096)
def _bleu(hyp: Tokens, ref: Tokens, max_n: int) -> float:
    if not hyp:
        return 0.0
    log_prec = 0.0
    for n in range(1, min(max_n, len(hyp)) + 1):  # a longer n has no n-grams and adds log(1/1) = 0
        pool: dict[Tokens, int] = {}  # reference n-gram counts left to match
        for i in range(len(ref) - n + 1):
            g = ref[i : i + n]
            pool[g] = pool.get(g, 0) + 1
        matched = 0
        for i in range(len(hyp) - n + 1):
            g = hyp[i : i + n]
            if pool.get(g):
                pool[g] -= 1
                matched += 1
        log_prec += math.log((matched + 1) / (len(hyp) - n + 1 + 1))
    bp = math.exp(min(0.0, 1.0 - len(ref) / len(hyp)))
    return bp * math.exp(log_prec / max_n)
