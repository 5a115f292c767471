"""Code-point decoding and batch sampling.

Decoding is the per-step renormalization recurrence: take the modified
conditional's CDF, locate the code, descend into the chosen interval, repeat
until EOS or the length bound.  Feeding a Fraction code into an exact model
keeps the whole decode exact; floats give the fast path, which keeps ~52 bits
of resolution inside the current prefix interval but may disagree with the
exact oracle for codes within ~2^-40 of an interval boundary.

Each step is one `CategoricalDistribution.split` (see `codebook`).  The walk
carries the model's state next to each incomplete prefix (see
`SequenceModel.advance`), so each distinct one costs one `advance` from its
parent's state plus one `conditional_at`, not a read of the whole prefix.
`code_interval_of_sequence`, the inverse map, walks one sequence through the
same states and narrows on the same cuts in exact arithmetic, so encode and
decode share one partition.

A whole batch decodes in one walk down the prefix trie.  By the monotonic
embedding, codes that share a decoded prefix form one contiguous run of the
sorted code set, so the walk sorts the codes once into one array of residuals
and carries each distinct prefix with the bounds of its slice: one modified
conditional and one `split` per prefix, which renormalizes the slice in place.
Float and non-float codes of one batch start as two slices, because an exact
step rescales a Fraction exactly and a float with rounding, which can swap
their order; each kind alone stays sorted.  The log-probability is summed on
the way down in the same order as `sequence_logprob`, so every code sees
exactly the float operations of its own step-by-step decode and the results
are bit-identical to it.  decode_code is the one-code case of the same walk.

Arithmetic sampling decodes a shifted lattice of codes, ancestral sampling
i.i.d. uniform codes; both share one code path, and `draw` picks one by name.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction
from typing import Optional, Sequence

from .codebook import LatticeSpec, Real, UnitInterval, _Record, lattice_codes
from .errors import EmptyIntervalError, ParameterError
from .models import ModifierChain, SequenceModel, Tokens, _steps, conditional_modified


class SampleEntry(_Record):
    _fields = ("sequence", "code", "logprob")  # code is None for ancestral entries

    def __init__(self, sequence: Tokens, code: Optional[Real], logprob: float):
        d = self.__dict__
        d["sequence"], d["code"], d["logprob"] = sequence, code, logprob


class SampleSet(_Record):
    _fields = ("entries", "method", "shift")  # method is "arithmetic" or "ancestral"

    def __init__(self, entries: tuple[SampleEntry, ...], method: str, shift: Optional[Real] = None):
        vars(self).update(entries=entries, method=method, shift=shift)

    def sequences(self) -> list[Tokens]:
        return [e.sequence for e in self.entries]


def _walk(
    model: SequenceModel, codes: Sequence[Real], chain: ModifierChain | None
) -> tuple[list[Tokens], list[float]]:
    """Decode every code in one descent of the prefix trie.

    Returns the sequences and their modified log-probabilities by input index.
    """
    for c in codes:
        if not (0 <= c < 1):
            raise ParameterError(f"code {c} outside [0, 1)")
    seqs: list = [None] * len(codes)
    logprobs: list = [None] * len(codes)
    order = sorted(range(len(codes)), key=codes.__getitem__)
    cut = len(order)
    if len(set(map(type, codes))) > 1:  # floats, then the rest: two sorted slices
        order.sort(key=lambda i: not isinstance(codes[i], float))
        cut = sum(isinstance(c, float) for c in codes)
    res = [codes[i] for i in order]
    # (incomplete prefix, its model state, its log-probability, a, b): the prefix's codes are
    # order[a:b] and their residuals res[a:b], each run sorted; a child gets its state when
    # it is made, or is recorded if complete.
    stack = [((), model.start(), 0.0, a, b) for a, b in ((0, cut), (cut, len(res))) if a < b]
    while stack:
        tokens, state, logprob, a, b = stack.pop()
        for k, symbol_logprob, a, b in conditional_modified(model, tokens, chain, state).split(res, a, b):
            child, lp = tokens + (k,), logprob + symbol_logprob
            if model.is_complete(child):
                for i in order[a:b]:
                    seqs[i], logprobs[i] = child, lp
            else:
                stack.append((child, model.advance(state, tokens, k), lp, a, b))
    return seqs, logprobs


def decode_code(model: SequenceModel, c: Real, chain: ModifierChain | None = None) -> Tokens:
    """Decode one code point into a complete sequence."""
    return _walk(model, [c], chain)[0][0]


def code_interval_of_sequence(
    model: SequenceModel, tokens: Tokens, chain: ModifierChain | None = None
) -> UnitInterval:
    """The codebook interval housing a sequence or prefix, with Fraction ends.

    Each step narrows on the cut points the decoder bisects, in exact
    arithmetic, so the width is the (modified) sequence probability: exactly
    on an exact model, and the exact width of the float cuts on a float one.
    """
    lo, width = Fraction(0), Fraction(1)
    for dist, tok in _steps(model, tokens, chain):
        symbols, cuts = dist.cdf[:2]
        k = bisect_left(symbols, tok)
        if k == len(symbols) or symbols[k] != tok:
            raise EmptyIntervalError(f"sequence {tokens} owns no codebook interval")
        below, above = Fraction(cuts[k]), Fraction(cuts[k + 1])
        lo += width * below
        width *= above - below
    return UnitInterval(lo, lo + width)


def parallel_decode(
    model: SequenceModel,
    codes: Sequence[Real],
    chain: ModifierChain | None = None,
    worker_count: int = 1,
) -> SampleSet:
    """Decode a batch of codes; output is by input index.

    The batch shares one walk on the calling thread, so the output does not
    depend on worker_count, which is validated and kept for callers.
    """
    if worker_count < 1:
        raise ParameterError("worker_count must be >= 1")
    seqs, logprobs = _walk(model, codes, chain)
    return SampleSet(tuple(map(SampleEntry, seqs, codes, logprobs)), method="arithmetic")


def arithmetic_sample(
    model: SequenceModel,
    spec: LatticeSpec,
    chain: ModifierChain | None = None,
    worker_count: int = 1,
) -> SampleSet:
    """Decode the full shifted lattice {c_i}; entries come back ordered by code."""
    codes = sorted(lattice_codes(spec))
    out = parallel_decode(model, codes, chain, worker_count)
    return SampleSet(out.entries, method="arithmetic", shift=spec.shift)


def ancestral_sample(
    model: SequenceModel,
    n: int,
    seed,
    chain: ModifierChain | None = None,
) -> SampleSet:
    """n i.i.d. sequences via inverse-CDF sampling (uniform codes from `seed`)."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    rng = random.Random(seed)
    codes = [rng.random() for _ in range(n)]
    seqs, logprobs = _walk(model, codes, chain)
    entries = tuple(SampleEntry(seq, None, lp) for seq, lp in zip(seqs, logprobs))
    return SampleSet(entries, method="ancestral")


def draw(
    model: SequenceModel, method: str, n: int, tag, chain: ModifierChain | None = None,
    lattice_mode: str = "paper",
) -> SampleSet:
    """An n-sample batch, a pure function of `tag`: "arithmetic" decodes the lattice
    shifted by random.Random(tag).random(), "ancestral" n codes from random.Random(tag)."""
    if method == "arithmetic":
        shift = random.Random(tag).random()
        return arithmetic_sample(model, LatticeSpec(n, lattice_mode, shift), chain)
    if method == "ancestral":
        return ancestral_sample(model, n, tag, chain)
    raise ParameterError(f"unknown method {method!r}")
