"""Interval arithmetic on the unit interval.

Categorical distributions are partitioned into half-open CDF subintervals
[lo, hi) whose widths equal the symbol probabilities.  A code point is a
number in [0,1) in one of two representations: "fast" (64-bit float) or
"exact" (fractions.Fraction).  All operations here are generic over the two;
feeding Fractions in keeps everything exact, feeding floats uses ordinary
binary arithmetic with a final clamp so drift never leaves a code
un-locatable.

`CategoricalDistribution.split` is the decoder's one step: it locates a sorted
slice of codes and renormalizes it in place.  A float distribution walks its
cuts from the first code up and bisects the slice at each cut it crosses, so a
symbol's codes are one sub-slice, renormalized in one pass; it builds no CDF.
An exact one bisects its cached CDF for each code: a float code on the float
cuts, compared with the exact cut only when it equals one, and a Fraction code
on the exact cuts, so it stays exact; when one symbol owns all of [0, 1), the
slice passes through unchanged.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import truediv
from typing import Iterator, NamedTuple, Optional, Union

from .errors import ContractViolationError, InvalidDistributionError, ParameterError

# Dual code representation: float = fast path, Fraction = exact path.
Real = Union[int, float, Fraction]

FAST_SUM_TOL = 1e-9
_TOP = math.nextafter(1.0, 0.0)  # the largest float below 1


def is_exact(x: Real) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


class _Record:
    """A frozen value: `==` (same class only), `hash` and `repr` over the
    attributes named in `_fields`, which `__init__` writes into `__dict__`;
    the decode path's constructors write item by item, faster than `update`."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class UnitInterval(_Record):
    """Half-open subinterval [lo, hi) of the unit interval."""

    _fields = ("lo", "hi")

    def __init__(self, lo: Real, hi: Real):
        if not (0 <= lo < hi <= 1):
            raise ParameterError(f"not a valid unit subinterval: [{lo}, {hi})")
        d = self.__dict__
        d["lo"], d["hi"] = lo, hi

    @property
    def width(self) -> Real:
        return self.hi - self.lo

    def contains(self, c: Real) -> bool:
        return self.lo <= c < self.hi


class CDF(NamedTuple):
    """Kept symbol k owns [cuts[k], cuts[k+1]) with log-probability logprobs[k];
    fcuts and fwidths are the float views of the cuts and of the widths."""

    symbols: tuple[int, ...]
    cuts: tuple[Real, ...]
    fcuts: tuple[float, ...]
    fwidths: tuple[float, ...]
    logprobs: tuple[float, ...]


class CategoricalDistribution(_Record):
    """Ordered per-symbol probabilities.

    Exact inputs (ints/Fractions) must sum to exactly 1 and are kept as
    Fractions, so arithmetic on them stays exact; float inputs must sum to 1
    within FAST_SUM_TOL.  `is_exact` is settled once, on construction.
    """

    _fields = ("probs",)

    def __init__(self, probs: tuple[Real, ...]):
        probs = tuple(probs)
        if not probs:
            raise InvalidDistributionError("empty distribution")
        exact = all(map(is_exact, probs))
        if exact:  # ints become Fractions, so `/` on them stays exact
            probs = tuple(p if isinstance(p, Fraction) else Fraction(p) for p in probs)
        d = self.__dict__
        d["probs"], d["is_exact"] = probs, exact
        if any(p < 0 for p in probs):
            raise InvalidDistributionError(f"negative probability in {probs}")
        total = sum(probs)
        if exact:
            if total != 1:
                raise InvalidDistributionError(f"exact probabilities sum to {total}, not 1")
        elif not (abs(total - 1.0) <= FAST_SUM_TOL):  # NaN fails this test too
            raise InvalidDistributionError(f"probabilities sum to {total!r}")

    @classmethod
    def _normalized(cls, probs: tuple[float, ...]) -> CategoricalDistribution:
        """A float distribution the caller has just normalized, built without the checks."""
        dist = object.__new__(cls)
        vars(dist).update(probs=probs, is_exact=False)
        return dist

    def __len__(self) -> int:
        return len(self.probs)

    def _cuts(self) -> Iterator[tuple[Optional[int], Real]]:
        """(symbol, lower cut) for each symbol that owns an interval, in order,
        then (None, 1): the one partition rule, read by `cdf` and `split`.

        A symbol's upper cut is min(lo + p, 1); a zero-probability symbol, or a
        float one too small to move its lower cut, owns no interval.  The last
        cut is exactly 1, so float drift cannot leave a gap at the top.
        """
        one: Real = Fraction(1) if self.is_exact else 1.0
        lo = one - one
        for idx, p in enumerate(self.probs):
            hi = min(lo + p, one)
            if hi > lo:
                yield idx, lo
            lo = hi
        yield None, one

    @cached_property
    def cdf(self) -> CDF:
        """The partition of [0, 1), built on first use and kept with the distribution."""
        kept = list(self._cuts())
        if len(kept) == 1:
            raise InvalidDistributionError("all probabilities are zero")
        symbols = tuple(idx for idx, _ in kept[:-1])
        cuts = tuple(lo for _, lo in kept)
        widths = (float(hi - lo) for lo, hi in zip(cuts, cuts[1:]))
        logprobs = (math.log(self.probs[idx]) for idx in symbols)
        return CDF(symbols, cuts, tuple(map(float, cuts)), tuple(widths), tuple(logprobs))

    def split(self, res: list[Real], a: int, b: int) -> list[tuple[int, float, int, int]]:
        """One decode step for the sorted codes res[a:b]: renormalizes them in place
        and returns [(symbol, log-probability, start, end)] in symbol order, where
        res[start:end] now holds the residuals of the symbol's codes."""
        out: list = []
        if not self.is_exact:  # one bisect per cut the run crosses, no CDF built
            cuts = self._cuts()
            k, lo = next(cuts)
            above, hi = next(cuts)
            last = res[b - 1]
            while a < b:
                c = res[a]
                while c >= hi:
                    k, lo = above, hi
                    above, hi = next(cuts)
                j = b if last < hi else bisect.bisect_left(res, hi, a, b)
                width = hi - lo
                if j == a + 1:  # a lone code skips building a list
                    res[a] = _rescale(c, lo, width)
                else:  # _rescale, inlined
                    res[a:j] = [r if (r := (c - lo) / width) < 1.0 else _TOP for c in res[a:j]]
                out.append((k, math.log(self.probs[k]), a, j))
                a = j
            return out
        symbols, cuts, fcuts, fwidths, logprobs = self.cdf
        if len(symbols) == 1:  # one symbol owns [0, 1), where (c - 0) / 1 is c
            return [(symbols[0], logprobs[0], a, b)]
        start, prev = a, None
        for j in range(a, b):
            c = res[j]
            if isinstance(c, float):
                k = bisect.bisect_right(fcuts, c) - 1
                if c == fcuts[k]:  # the float cut may sit on c while the exact cut lies above it
                    k = bisect.bisect_right(cuts, c) - 1
                res[j] = _rescale(c, fcuts[k], fwidths[k])
            else:
                k = bisect.bisect_right(cuts, c) - 1
                res[j] = (c - cuts[k]) / (cuts[k + 1] - cuts[k])
            if k != prev:
                if j > a:
                    out.append((symbols[prev], logprobs[prev], start, j))
                start, prev = j, k
        out.append((symbols[prev], logprobs[prev], start, b))
        return out


def _rescale(c: Real, lo: Real, width: Real) -> Real:
    """(c - lo) / width, kept below 1 against float rounding at the top edge."""
    out = (c - lo) / width
    return out if out < 1.0 else _TOP


class LatticeSpec(_Record):
    """Evenly spaced code set: sample count n, spacing mode, shared shift b.

    mode="paper" places codes at i/(n+1) + b mod 1 for i = 1..n, so a single
    code with b=0 lands at 1/2.  mode="uniform" places them at i/n + b mod 1
    for i = 0..n-1 (spacing exactly 1/n, as the step-function variance
    arguments assume).
    """

    _fields = ("n", "mode", "shift")

    def __init__(self, n: int, mode: str = "paper", shift: Real = 0.0):
        if n < 1:
            raise ParameterError("lattice needs n >= 1")
        if mode not in ("paper", "uniform"):
            raise ParameterError(f"unknown lattice mode {mode!r}")
        if not (0 <= shift < 1):
            raise ParameterError("shift must lie in [0, 1)")
        d = self.__dict__
        d["n"], d["mode"], d["shift"] = n, mode, shift


def cdf_intervals(dist: CategoricalDistribution) -> list[tuple[int, UnitInterval]]:
    """Per-symbol CDF intervals, as (symbol_index, interval) pairs in vocabulary order.

    A view of `dist.cdf`: widths equal probabilities, symbols that own no
    interval are omitted and the last upper bound is exactly 1.
    """
    symbols, cuts = dist.cdf[:2]
    return [(idx, UnitInterval(lo, hi)) for idx, lo, hi in zip(symbols, cuts, cuts[1:])]


def locate(c: Real, intervals: list[tuple[int, UnitInterval]]) -> int:
    """Return the symbol index whose half-open interval contains c."""
    pos = bisect.bisect_right(intervals, c, key=lambda entry: entry[1].lo) - 1
    if pos < 0:
        raise ContractViolationError(f"code {c} below the partition")
    if c >= intervals[-1][1].hi:
        raise ContractViolationError(f"code {c} above the partition")
    return intervals[pos][0]


def renormalize(c: Real, interval: UnitInterval) -> Real:
    """Map c from [lo, hi) affinely onto [0, 1)."""
    if not interval.contains(c):
        raise ContractViolationError(f"code {c} outside [{interval.lo}, {interval.hi})")
    if is_exact(c) and is_exact(interval.lo) and is_exact(interval.hi):
        return Fraction(c - interval.lo) / Fraction(interval.width)
    return _rescale(c, interval.lo, interval.width)


def shift_mod1(c: Real, b: Real) -> Real:
    """(c + b) mod 1, staying in the representation of its inputs."""
    if not (0 <= c < 1 and 0 <= b < 1):
        raise ParameterError("both operands must lie in [0, 1)")
    s = c + b
    return s - 1 if s >= 1 else s


def lattice_codes(spec: LatticeSpec) -> list[Real]:
    """Generate the code set {c_i} for a lattice spec, in lattice index order."""
    n, b = spec.n, spec.shift
    den, first = (n + 1, 1) if spec.mode == "paper" else (n, 0)
    base = map(Fraction if is_exact(b) else truediv, range(first, first + n), repeat(den))
    return [s - 1 if (s := x + b) >= 1 else s for x in base]  # shift_mod1, inlined
