"""Sequence models over an ordered vocabulary, plus logit-modifier transforms.

A model exposes conditional distributions over the next token given a prefix.
Every walk down the prefix trie (the decoder, `sequence_logprob`, a sequence's
codebook interval, the oracle's enumeration) carries a per-prefix model state
(`start`, `advance`, `conditional_at`), so a child's conditional extends its
parent's work, as a Transformer extends its per-beam KV cache.  A model
overrides `conditional`, or `conditional_at` with the state hooks, and the
base derives the other; by default the state is the prefix itself.

Reference implementations: a tabular model backed by an explicit joint table,
a Markov model with fixed-order transition rows, and a seeded synthetic LM
whose conditionals are a keyed hash of the prefix (so they are
bit-reproducible); its state is the hash that has absorbed the prefix so far.

Tabular and Markov models carry Fraction probabilities sourced from decimal
strings, so every downstream computation can stay exact.  The synthetic LM is
float-only; it stands in for a neural model in statistical experiments.
"""

from __future__ import annotations

import json
import math
import struct
from fractions import Fraction
from typing import Sequence, Union

from .codebook import FAST_SUM_TOL, CategoricalDistribution, Real, _Record, is_exact
from .errors import (
    InvalidModelError,
    InvalidPrefixError,
    InvalidSequenceError,
    ParameterError,
)

Tokens = tuple[int, ...]
_NO_STATE = object()  # `conditional_modified`'s "no state given": any value, None included, may be a state


class Vocabulary(_Record):
    """Ordered symbols, each free of whitespace and ','; eos=None means fixed-length sequences."""

    _fields = ("symbols", "eos")

    def __init__(self, symbols: tuple[str, ...], eos: int | None = None):
        symbols = tuple(symbols)
        if not symbols:
            raise InvalidModelError("empty vocabulary")
        for s in symbols:
            if not isinstance(s, str) or s.split() != [s] or "," in s:
                raise InvalidModelError(f"symbol {s!r} is not a non-empty string free of whitespace and ','")
        if len(set(symbols)) != len(symbols):
            raise InvalidModelError("duplicate vocabulary symbols")
        if eos is not None:
            if not isinstance(eos, int) or isinstance(eos, bool):
                raise InvalidModelError(f"eos {eos!r} is not a vocabulary index")
            if not (0 <= eos < len(symbols)):
                raise InvalidModelError(f"eos index {eos} out of range")
        vars(self).update(symbols=symbols, eos=eos)

    def __len__(self) -> int:
        return len(self.symbols)

    def index_of(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise InvalidSequenceError(f"unknown token {symbol!r}") from None

    def render(self, tokens: Tokens) -> str:
        return " ".join(self.symbols[t] for t in tokens)

    def parse(self, text: str) -> Tokens:
        return tuple(self.index_of(s) for s in text.split())


class SequenceModel:
    """Conditional-distribution provider over prefixes of bounded length."""

    vocabulary: Vocabulary
    max_length: int

    def conditional(self, prefix: Tokens) -> CategoricalDistribution:
        """Distribution of the next token given `prefix` (prefix not complete)."""
        prefix = tuple(prefix)
        if self.is_complete(prefix):
            raise InvalidPrefixError(f"prefix {prefix} is complete")
        state = self.start()
        for t, tok in enumerate(prefix):
            state = self.advance(state, prefix[:t], tok)
        return self.conditional_at(state, prefix)

    def start(self):
        """The state of the empty prefix."""
        return ()

    def advance(self, state, prefix: Tokens, token: int):
        """The state of `prefix + (token,)` from the state of `prefix`; `state`
        may be shared by siblings, so it must not be changed."""
        return prefix + (token,)

    def conditional_at(self, state, prefix: Tokens) -> CategoricalDistribution:
        """`conditional(prefix)` bit for bit, read from the state of an incomplete `prefix`."""
        return self.conditional(prefix)

    def is_complete(self, tokens: Tokens) -> bool:
        if not tokens:
            return False
        eos = self.vocabulary.eos
        return (eos is not None and tokens[-1] == eos) or len(tokens) >= self.max_length

    def validate_tokens(self, tokens: Tokens):
        size = len(self.vocabulary)
        for t in tokens:
            if not (0 <= t < size):
                raise InvalidSequenceError(f"token index {t} out of vocabulary")
        if len(tokens) > self.max_length:
            raise InvalidSequenceError("sequence longer than max_length")
        eos = self.vocabulary.eos
        if eos is not None and eos in tokens[:-1]:
            raise InvalidSequenceError("token follows EOS")


# ---------------------------------------------------------------------------
# Logit modifiers


class Temperature(_Record):
    """Called on a distribution, sharpens (t<1) or flattens (t>1) it: p_i ∝ p_i^(1/t)."""

    _fields = ("t",)

    def __init__(self, t: float):
        if not (0 < t < math.inf):  # NaN fails too
            raise ParameterError(f"temperature must be positive and finite, not {t}")
        self.__dict__["t"] = t

    def __call__(self, dist: CategoricalDistribution) -> CategoricalDistribution:
        t = self.t
        if t == 1:
            return dist
        powered = [0.0 if p == 0 else float(p) ** (1.0 / t) for p in dist.probs]
        if sum(powered) == 0:  # every term underflowed: divide by the mode first, which keeps it
            logs = [math.log(p) if p else -math.inf for p in map(float, dist.probs)]
            top = max(logs)
            powered = [math.exp((x - top) / t) for x in logs]
        return _renormalized(powered)


class TopK(_Record):
    """Called on a distribution, zeroes all but its k highest probabilities (ties by vocabulary order)."""

    _fields = ("k",)

    def __init__(self, k: int):
        if k < 1:
            raise ParameterError("top-k needs k >= 1")
        self.__dict__["k"] = k

    def __call__(self, dist: CategoricalDistribution) -> CategoricalDistribution:
        if self.k >= len(dist):
            return dist
        order = sorted(range(len(dist)), key=lambda i: (-dist.probs[i], i))
        keep = set(order[: self.k])
        return _renormalized([p if i in keep else type(p)(0) for i, p in enumerate(dist.probs)])


class Nucleus(_Record):
    """Called on a distribution, keeps its smallest probability-sorted symbol set of mass >= p."""

    _fields = ("p",)

    def __init__(self, p: float):
        if not (0 < p <= 1):
            raise ParameterError("nucleus p must lie in (0, 1]")
        self.__dict__["p"] = p

    def __call__(self, dist: CategoricalDistribution) -> CategoricalDistribution:
        order = sorted(range(len(dist)), key=lambda i: (-dist.probs[i], i))
        keep: set[int] = set()
        acc: Real = 0
        for i in order:
            keep.add(i)
            acc += dist.probs[i]
            if float(acc) >= self.p:  # float compare so 4/5 meets a threshold written as 0.8
                break
        return _renormalized([q if i in keep else type(q)(0) for i, q in enumerate(dist.probs)])


Modifier = Union[Temperature, TopK, Nucleus]
ModifierChain = Sequence[Modifier]


def _renormalized(probs: list[Real]) -> CategoricalDistribution:
    total = sum(probs)
    if total == 0:
        raise InvalidModelError("modifier zeroed out the whole distribution")
    return CategoricalDistribution(tuple(p / total for p in probs))


def apply_temperature(dist: CategoricalDistribution, t: float) -> CategoricalDistribution:
    return Temperature(t)(dist)


def apply_top_k(dist: CategoricalDistribution, k: int) -> CategoricalDistribution:
    return TopK(k)(dist)


def apply_nucleus(dist: CategoricalDistribution, p: float) -> CategoricalDistribution:
    return Nucleus(p)(dist)


def conditional_modified(
    model: SequenceModel, prefix: Tokens, chain: ModifierChain | None, state=_NO_STATE
) -> CategoricalDistribution:
    """The model conditional with the modifier chain applied left to right; given
    the model's `state` for `prefix`, read through `conditional_at` (prefix not complete)."""
    if state is not _NO_STATE:
        dist = model.conditional_at(state, prefix)
    elif model.is_complete(prefix):
        raise InvalidPrefixError(f"prefix {prefix} is already complete")
    else:
        dist = model.conditional(prefix)
    for mod in chain or ():
        dist = mod(dist)
    return dist


def _steps(model: SequenceModel, tokens: Tokens, chain: ModifierChain | None):
    """(modified conditional, token) for each step of `tokens`, read through the
    model state; a state is advanced only when the next step reads it."""
    tokens = tuple(tokens)
    model.validate_tokens(tokens)
    for t, tok in enumerate(tokens):
        state = model.advance(state, tokens[: t - 1], tokens[t - 1]) if t else model.start()
        yield conditional_modified(model, tokens[:t], chain, state), tok


def sequence_logprob(model: SequenceModel, tokens: Tokens, chain: ModifierChain | None = None) -> float:
    """Sum of log modified-conditional probabilities; -inf on any zero step."""
    total = 0.0
    for dist, tok in _steps(model, tokens, chain):
        p = dist.probs[tok]
        if p == 0:
            return -math.inf
        total += math.log(p)
    return total


# ---------------------------------------------------------------------------
# Reference models


class TabularModel(SequenceModel):
    """Model defined by an explicit joint table over complete sequences.

    Conditionals are computed by marginalizing the table over continuations;
    a prefix-mass trie is precomputed so each conditional is O(|V|), and each
    is kept per prefix, so its CDF is built once.
    """

    def __init__(self, table: dict[Tokens, Real], vocabulary: Vocabulary, max_length: int):
        self.vocabulary = vocabulary
        self.max_length = max_length
        exact = all(is_exact(v) for v in table.values())
        self.table = {tuple(k): Fraction(v) if exact else v for k, v in table.items()}
        total = sum(self.table.values())
        if (exact and total != 1) or (not exact and not (abs(total - 1.0) <= FAST_SUM_TOL)):
            raise InvalidModelError(f"joint table sums to {total}, not 1")
        self._mass: dict[Tokens, Real] = {}
        for seq, p in self.table.items():
            if p < 0:
                raise InvalidModelError("negative table probability")
            self.validate_tokens(seq)
            if not self.is_complete(seq):
                raise InvalidModelError(f"table key {seq} is not a complete sequence")
            for i in range(len(seq) + 1):
                pre = seq[:i]
                self._mass[pre] = self._mass.get(pre, 0) + p
        self._conditionals: dict[Tokens, CategoricalDistribution] = {}

    def conditional_at(self, state: Tokens, prefix: Tokens) -> CategoricalDistribution:
        dist = self._conditionals.get(prefix)
        if dist is not None:
            return dist
        mass = self._mass.get(prefix, 0)
        if mass == 0:
            raise InvalidPrefixError(f"prefix {prefix} has zero probability")
        probs = tuple(self._mass.get(prefix + (v,), 0) / mass for v in range(len(self.vocabulary)))
        dist = self._conditionals[prefix] = CategoricalDistribution(probs)
        return dist


class MarkovModel(SequenceModel):
    """Fixed-order Markov chain: the conditional depends on the last `order` tokens.
    The state is the default one, the prefix, and a step is one row lookup."""

    def __init__(
        self,
        order: int,
        rows: dict[Tokens, Sequence[Real]],
        vocabulary: Vocabulary,
        max_length: int,
    ):
        if order < 0:
            raise ParameterError("order must be >= 0")
        self.order = order
        self.vocabulary = vocabulary
        self.max_length = max_length
        self.rows = {}
        for ctx, row in rows.items():
            if len(row) != len(vocabulary):
                raise InvalidModelError(f"row for context {ctx} has wrong arity")
            self.rows[tuple(ctx)] = CategoricalDistribution(tuple(row))

    def conditional_at(self, state: Tokens, prefix: Tokens) -> CategoricalDistribution:
        ctx = prefix[-self.order:] if self.order else ()
        if ctx not in self.rows:
            raise InvalidModelError(f"missing transition row for context {ctx}")
        return self.rows[ctx]


class SyntheticLM(SequenceModel):
    """Deterministic pseudo-random model keyed by (seed, prefix).

    Per-prefix uniforms come from a blake2b hash of `"{seed}|{prefix}"`, the
    tokens joined by ',', eight bytes per symbol (past eight symbols, from
    counter-salted 64-byte blocks); raising them to the `peakedness` power
    concentrates mass on few continuations, mimicking a low-temperature
    neural model.  Identical seeds give bit-identical conditionals.

    The state of a prefix is a tuple of blake2b objects, one per block, that
    have absorbed its key so far; `advance` copies them before absorbing the
    next token, so a step hashes one token, not the whole prefix.
    """

    def __init__(
        self,
        seed: int,
        vocab_size: int,
        max_length: int,
        peakedness: float = 1.0,
        eos: int | None = None,
    ):
        if vocab_size < 2:
            raise ParameterError("synthetic LM needs vocab_size >= 2")
        if not (math.isfinite(peakedness) and peakedness > 0):
            raise ParameterError(f"peakedness {peakedness!r} is not finite and positive")
        self.seed = seed
        self.peakedness = peakedness
        self.vocabulary = Vocabulary(tuple(f"t{i}" for i in range(vocab_size)), eos=eos)
        self.max_length = max_length

    def _absorb(self, key: bytes) -> tuple:
        """Fresh blake2b objects, one per block of eight symbols, that have absorbed `key`."""
        import hashlib  # here, so that a process that reads no synthetic model never imports it
        size = len(self.vocabulary)
        if size <= 8:
            return (hashlib.blake2b(key, digest_size=8 * size),)
        # blake2b digests stop at 64 bytes: chain blocks salted by a counter
        return tuple(
            hashlib.blake2b(key, digest_size=64, salt=block.to_bytes(16, "big"))
            for block in range((size + 7) // 8)
        )

    def start(self) -> tuple:
        return self._absorb(f"{self.seed}|".encode())

    def advance(self, state: tuple, prefix: Tokens, token: int) -> tuple:
        data = f",{token}".encode() if prefix else str(token).encode()
        out = tuple(h.copy() for h in state)
        for h in out:
            h.update(data)
        return out

    def conditional(self, prefix: Tokens) -> CategoricalDistribution:
        prefix = tuple(prefix)
        if self.is_complete(prefix):
            raise InvalidPrefixError(f"prefix {prefix} is complete")
        return self.conditional_at(self._absorb(f"{self.seed}|{','.join(map(str, prefix))}".encode()), prefix)

    def conditional_at(self, state: tuple, prefix: Tokens) -> CategoricalDistribution:
        words = struct.unpack_from(f">{len(self.vocabulary)}Q", b"".join([h.digest() for h in state]))
        peakedness, log = self.peakedness, math.log
        # (word + 1) / (2**64 + 1) lies strictly inside (0, 1)
        logs = [peakedness * log((word + 1) / (2**64 + 1)) for word in words]
        peak = max(logs)
        if peak == -math.inf:  # every term overflowed: measure each log-uniform from the largest
            top = log((max(words) + 1) / (2**64 + 1))
            logs, peak = [peakedness * (log((w + 1) / (2**64 + 1)) - top) for w in words], 0.0
        weights = [math.exp(x - peak) for x in logs]
        total = sum(weights)
        return CategoricalDistribution._normalized(tuple([w / total for w in weights]))


# ---------------------------------------------------------------------------
# Model-definition files (JSON; probabilities as decimal strings)


def _json(value, kind, what: str):
    """`value`, checked to be a `kind` as JSON decodes it; a bool is no number."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InvalidModelError(f"{what} {value!r} has the wrong JSON type")
    return value


def _parse_prob(s: str) -> Fraction:
    _json(s, str, "probability")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise InvalidModelError(f"unparseable probability {s!r}") from None


def _format_prob(p: Real) -> str:
    f = Fraction(p) if is_exact(p) else Fraction(p).limit_denominator(10**12)
    num, den = f.numerator, f.denominator
    # prefer an exact decimal string when the denominator is 2^a * 5^b
    d = den
    for base in (2, 5):
        while d % base == 0:
            d //= base
    if d == 1:
        from decimal import Decimal

        return str(Decimal(num) / Decimal(den))
    return f"{num}/{den}"


def model_from_dict(spec: dict) -> SequenceModel:
    try:
        mtype = spec["type"]
        max_length = _json(spec["max_length"], int, "max_length")
        if max_length < 1:
            raise InvalidModelError(f"max_length {max_length} is not positive")
        eos = spec.get("eos")
        if mtype == "synthetic":
            return SyntheticLM(
                seed=_json(spec["seed"], int, "seed"),
                vocab_size=_json(spec["vocab_size"], int, "vocab_size"),
                max_length=max_length,
                peakedness=float(_json(spec.get("peakedness", 1.0), (int, float), "peakedness")),
                eos=eos,
            )
        vocab = Vocabulary(tuple(_json(spec["vocabulary"], list, "vocabulary")), eos=eos)
        if mtype == "tabular":
            table = {vocab.parse(k): _parse_prob(v) for k, v in spec["table"].items()}
            return TabularModel(table, vocab, max_length)
        if mtype == "markov":
            rows = {
                vocab.parse(ctx): tuple(map(_parse_prob, _json(row, list, "row")))
                for ctx, row in spec["rows"].items()
            }
            return MarkovModel(_json(spec["order"], int, "order"), rows, vocab, max_length)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise InvalidModelError(f"bad model definition: {e}") from None
    raise InvalidModelError(f"unknown model type {mtype!r}")


def model_to_dict(model: SequenceModel) -> dict:
    base = {"max_length": model.max_length, "eos": model.vocabulary.eos}
    if isinstance(model, TabularModel):
        return {
            "type": "tabular",
            "vocabulary": list(model.vocabulary.symbols),
            "table": {model.vocabulary.render(k): _format_prob(v) for k, v in model.table.items()},
            **base,
        }
    if isinstance(model, MarkovModel):
        return {
            "type": "markov",
            "vocabulary": list(model.vocabulary.symbols),
            "order": model.order,
            "rows": {
                model.vocabulary.render(ctx): [_format_prob(p) for p in dist.probs]
                for ctx, dist in model.rows.items()
            },
            **base,
        }
    if isinstance(model, SyntheticLM):
        return {
            "type": "synthetic",
            "seed": model.seed,
            "vocab_size": len(model.vocabulary),
            "peakedness": model.peakedness,
            **base,
        }
    raise InvalidModelError(f"cannot serialize {type(model).__name__}")


def load_model(path: str) -> SequenceModel:
    with open(path) as f:
        try:
            spec = json.load(f)
        except json.JSONDecodeError as e:
            raise InvalidModelError(f"{path}: {e}") from None
    return model_from_dict(spec)


def save_model(model: SequenceModel, path: str):
    with open(path, "w") as f:
        json.dump(model_to_dict(model), f, indent=2)
        f.write("\n")
