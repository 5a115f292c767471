"""Exact brute-force ground truth for small models.

Everything here is rational arithmetic end to end: the joint is enumerated by
depth-first search over prefixes, the codebook is materialized as explicit
cumulative intervals in dictionary order, and expectations are exact sums.
The full-period sweep decodes every (shift, code) pair of a grid that refines
all breakpoints as integers over one common denominator, then takes a single
exact sum over the sequences hit.  This is the independent twin of the
per-step decoder, used to pin down every derived expected value in the test
suite; it reads the same model states but shares no code with the decoder.
"""

from __future__ import annotations

import bisect
import csv
import functools
import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable

from .codebook import LatticeSpec, UnitInterval, _Record, lattice_codes
from .errors import DEFAULT_BOUND, EmptyIntervalError, EnumerationBoundError, InvalidModelError, ParameterError
from .models import ModifierChain, SequenceModel, Tokens, conditional_modified

Reward = Callable[[Tokens], Fraction]


class ExactJoint(_Record):
    """Complete sequences with exact probabilities, dictionary-ordered."""

    _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[Tokens, Fraction], ...]):
        if sum(p for _, p in entries) != 1:
            raise InvalidModelError("joint probabilities do not sum to 1")
        if any(p < 0 for _, p in entries):
            raise InvalidModelError("negative joint probability")
        self.__dict__["entries"] = entries


def enumerate_joint(
    model: SequenceModel, chain: ModifierChain | None = None, bound: int = DEFAULT_BOUND
) -> ExactJoint:
    """Every positive-probability complete sequence, by a DFS on an explicit stack.

    Requires an exact model (Fraction conditionals after modifiers).  No
    complete sequence is a prefix of another, so sorted tuples are in
    dictionary order.
    """
    out: list[tuple[Tokens, Fraction]] = []
    stack = [((), model.start(), Fraction(1))]  # (incomplete prefix, its model state, its mass)
    while stack:
        prefix, state, mass = stack.pop()
        dist = conditional_modified(model, prefix, chain, state)
        if not dist.is_exact:
            raise ParameterError("enumerate_joint needs exact (rational) conditionals")
        for v, p in enumerate(dist.probs):
            if p == 0:
                continue
            child = prefix + (v,)
            if not model.is_complete(child):
                stack.append((child, model.advance(state, prefix, v), mass * p))
            elif len(out) < bound:
                out.append((child, mass * p))
            else:
                raise EnumerationBoundError(f"more than {bound} sequences")
    return ExactJoint(tuple(sorted(out)))


class ExactCodebook:
    """Cumulative dictionary-order intervals, one per complete sequence."""

    def __init__(self, joint: ExactJoint):
        self.sequences: list[Tokens] = []
        self.los: list[Fraction] = []
        self.his: list[Fraction] = []
        acc = Fraction(0)
        for seq, p in joint.entries:
            if p == 0:
                continue
            self.sequences.append(seq)
            self.los.append(acc)
            acc += p
            self.his.append(acc)
        if acc != 1:
            raise InvalidModelError("codebook does not cover [0, 1)")
        # lower bounds as numerators over one denominator, so decode compares integers
        self._den = math.lcm(*(lo.denominator for lo in self.los))
        self._nums = [lo.numerator * (self._den // lo.denominator) for lo in self.los]

    def interval_of(self, tokens: Tokens) -> UnitInterval:
        try:
            i = self.sequences.index(tokens)
        except ValueError:
            raise EmptyIntervalError(f"sequence {tokens} owns no codebook interval") from None
        return UnitInterval(self.los[i], self.his[i])

    def decode(self, c) -> Tokens:
        """The unique sequence whose half-open interval contains c."""
        if not (0 <= c < 1):
            raise ParameterError(f"code {c} outside [0, 1)")
        num, den = c.as_integer_ratio()  # lo <= c exactly when lo * D <= floor(c * D)
        return self.sequences[bisect.bisect_right(self._nums, num * self._den // den) - 1]

    def items(self) -> Iterable[tuple[Tokens, UnitInterval]]:
        for seq, lo, hi in zip(self.sequences, self.los, self.his):
            yield seq, UnitInterval(lo, hi)


exact_codebook = ExactCodebook


def exact_expectation(joint: ExactJoint, reward: Reward) -> Fraction:
    """Sum of reward(s) * P(s) in exact arithmetic."""
    return sum((Fraction(reward(seq)) * p for seq, p in joint.entries), Fraction(0))


def brute_force_decode(c, codebook: ExactCodebook) -> Tokens:
    return codebook.decode(c)


def prefix_probabilities(joint: ExactJoint) -> dict[Tokens, Fraction]:
    """Exact mass of every prefix (including complete sequences and the root)."""
    out: dict[Tokens, Fraction] = {}
    for seq, p in joint.entries:
        for i in range(len(seq) + 1):
            pre = seq[:i]
            out[pre] = out.get(pre, Fraction(0)) + p
    return out


def prefix_intervals(joint: ExactJoint) -> dict[Tokens, UnitInterval]:
    """Exact codebook interval of every prefix: contiguous in dictionary order, it
    runs from its first sequence's lo to its last sequence's hi."""
    cb = ExactCodebook(joint)
    out: dict[Tokens, list[Fraction]] = {}
    for seq, lo, hi in zip(cb.sequences, cb.los, cb.his):
        for i in range(len(seq) + 1):
            out.setdefault(seq[:i], [lo, hi])[1] = hi
    return {pre: UnitInterval(lo, hi) for pre, (lo, hi) in out.items()}


def _grid_size(codebook: ExactCodebook, n: int, min_k: int, bound: int) -> int:
    """Shifts m = K(n+1) of the full-period grid: a multiple of n+1 and of every
    codebook endpoint denominator (each upper bound is the next lower bound or
    1, so the lower bounds' one denominator serves), with K >= min_k.  Raises
    EnumerationBoundError when m exceeds `bound`."""
    if n < 1:
        raise ParameterError("lattice needs n >= 1")
    k = math.lcm(n + 1, codebook._den) // (n + 1)
    if k < min_k:
        k *= -(-min_k // k)  # ceil division
    m = k * (n + 1)
    if m > bound:
        raise EnumerationBoundError(f"full-period shift grid has {m} shifts, more than {bound}")
    return m


def full_period_shift_grid(
    codebook: ExactCodebook, n: int, min_k: int = 10, bound: int = DEFAULT_BOUND
) -> list[Fraction]:
    """Shifts b = j/(K(n+1)) that refine every breakpoint of the estimator in b.

    The arithmetic-sampling estimator is piecewise constant in b with
    breakpoints at rationals whose denominators divide lcm(D, n+1), D being
    the lcm of the codebook endpoint denominators.  Averaging over this grid
    therefore reproduces the continuous average exactly.  A grid of more
    than `bound` shifts raises EnumerationBoundError before it is built.
    """
    m = _grid_size(codebook, n, min_k, bound)
    return [Fraction(j, m) for j in range(m)]


def full_period_average(
    codebook: ExactCodebook,
    n: int,
    reward: Reward,
    mode: str = "paper",
    min_k: int = 10,
    bound: int = DEFAULT_BOUND,
) -> Fraction:
    """Exact average over a full period of b of the lattice-sample mean reward.

    Sweeps the m shifts j/m of `full_period_shift_grid` without building it.
    Every code of every shift is an integer numerator over one denominator,
    m in paper mode and lcm(m, n) in uniform mode, and so is every codebook
    lower bound, since D divides m.  Each code is decoded by bisecting those
    integers; hits are counted per sequence, and `reward` is called once per
    sequence hit.  Paper mode is exact because m refines every breakpoint.
    In uniform mode n need not divide m, but the codes i/n + j/m together
    form the 1/lcm(n, m) grid, each point hit gcd(n, m) times; that grid
    refines the codebook too, so the average is again the exact integral.
    """
    m = _grid_size(codebook, n, min_k, bound)
    base = lattice_codes(LatticeSpec(n, mode, Fraction(0)))  # the unshifted codes
    den = math.lcm(m, *(c.denominator for c in base))
    starts = [c.numerator * (den // c.denominator) for c in base]
    step = den // m  # shift j/m adds j*step to every numerator
    scale = den // codebook._den
    decode = functools.partial(bisect.bisect_right, [num * scale for num in codebook._nums])
    # numerators (a + j*step) mod den for j < m: the sorted runs above and below the wrap
    codes = itertools.chain.from_iterable(
        run for a in starts for run in (range(a, den, step), range(a % step, a, step))
    )
    hits = Counter(map(decode, codes))  # keyed by sequence index + 1
    total = sum(
        (count * Fraction(reward(codebook.sequences[k - 1])) for k, count in sorted(hits.items())),
        Fraction(0),
    )
    return total / (n * m)


def write_oracle_csv(joint: ExactJoint, model: SequenceModel, path: str):
    """Emit the exact joint and codebook as CSV with rational columns."""
    cb = ExactCodebook(joint)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["sequence", "prob_num", "prob_den", "lo", "hi"])
        for seq, iv in cb.items():
            p = iv.hi - iv.lo
            w.writerow(
                [model.vocabulary.render(seq), p.numerator, p.denominator, str(iv.lo), str(iv.hi)]
            )
