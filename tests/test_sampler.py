"""Code-point decoding, sequence intervals, batch sampling, parallel contract."""

import itertools
import math
import operator
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arithdecode import (
    CategoricalDistribution,
    LatticeSpec,
    MarkovModel,
    Nucleus,
    SequenceModel,
    SyntheticLM,
    TabularModel,
    Temperature,
    TopK,
    UnitInterval,
    Vocabulary,
    ancestral_sample,
    arithmetic_sample,
    cdf_intervals,
    code_interval_of_sequence,
    conditional_modified,
    decode_code,
    enumerate_joint,
    exact_codebook,
    lattice_codes,
    locate,
    parallel_decode,
    renormalize,
    sequence_logprob,
)
from arithdecode.codebook import FAST_SUM_TOL
from arithdecode.errors import EmptyIntervalError, InvalidModelError, InvalidPrefixError, ParameterError
from arithdecode.oracle import prefix_intervals, prefix_probabilities
from util import bernoulli_model, deterministic_model, random_markov_model, random_tabular_model

F = Fraction


class TestDecodeCode:
    def test_midpoint_decodes_ab(self):
        assert decode_code(bernoulli_model(), F(1, 2)) == (0, 1)
        assert decode_code(bernoulli_model(), 0.5) == (0, 1)

    def test_high_code_decodes_bb(self):
        assert decode_code(bernoulli_model(), F(19, 20)) == (1, 1)

    def test_deterministic_model_ignores_code(self):
        m = deterministic_model((0, 1, 0))
        for c in (0.0, 0.3, F(2, 3), 0.999):
            assert decode_code(m, c) == (0, 1, 0)

    def test_code_out_of_range(self):
        with pytest.raises(ParameterError):
            decode_code(bernoulli_model(), 1.0)

    def test_agrees_with_oracle_on_lattice(self):
        m = random_tabular_model(random.Random(3), vocab_size=3, max_length=3, eos=2)
        cb = exact_codebook(enumerate_joint(m))
        for j in range(101):
            c = F(j, 101)
            assert decode_code(m, c) == cb.decode(c)


class TestCodeInterval:
    def test_ab_interval(self):
        iv = code_interval_of_sequence(bernoulli_model(), (0, 1))
        assert (iv.lo, iv.hi) == (F(9, 25), F(3, 5))

    def test_deterministic_full_interval(self):
        iv = code_interval_of_sequence(deterministic_model((0, 1, 0)), (0, 1, 0))
        assert (iv.lo, iv.hi) == (0, 1)

    def test_prefix_interval(self):
        iv = code_interval_of_sequence(bernoulli_model(), (0,))
        assert (iv.lo, iv.hi) == (0, F(3, 5))

    def test_zero_probability_sequence(self):
        m = deterministic_model((0, 1, 0))
        with pytest.raises(EmptyIntervalError):
            code_interval_of_sequence(m, (1,))

    def test_width_equals_probability(self):
        m = random_tabular_model(random.Random(5), vocab_size=3, max_length=3, eos=2)
        for seq, p in enumerate_joint(m).entries:
            iv = code_interval_of_sequence(m, seq)
            assert iv.width == p

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_midpoint(self, seed):
        m = random_tabular_model(random.Random(seed), vocab_size=3, max_length=3, eos=2)
        for seq, p in enumerate_joint(m).entries:
            iv = code_interval_of_sequence(m, seq)
            mid = (Fraction(iv.lo) + Fraction(iv.hi)) / 2
            assert decode_code(m, mid) == seq


class TestArithmeticSample:
    def test_two_codes_example(self):
        ss = arithmetic_sample(bernoulli_model(), LatticeSpec(2, "paper", F(1, 10)))
        assert [e.code for e in ss.entries] == [F(13, 30), F(23, 30)]
        assert ss.sequences() == [(0, 1), (1, 0)]

    def test_deterministic_model_all_copies(self):
        m = deterministic_model((0, 1, 0))
        ss = arithmetic_sample(m, LatticeSpec(5, "paper", 0.37))
        assert ss.sequences() == [(0, 1, 0)] * 5

    def test_entries_sorted_by_code(self):
        ss = arithmetic_sample(bernoulli_model(), LatticeSpec(7, "paper", F(8, 10)))
        codes = [e.code for e in ss.entries]
        assert codes == sorted(codes)

    def test_logprob_matches(self):
        m = bernoulli_model()
        ss = arithmetic_sample(m, LatticeSpec(4, "paper", F(1, 7)))
        for e in ss.entries:
            assert e.logprob == pytest.approx(sequence_logprob(m, e.sequence), abs=1e-9)

    def test_prefix_lower_bound_on_grid(self):
        # P(starts with A) = 0.6 > 2/5, so N=4 paper-mode samples contain >= 2 A-starts
        m = bernoulli_model()
        for j in range(1000):
            ss = arithmetic_sample(m, LatticeSpec(4, "paper", F(j, 1000)))
            starts = sum(1 for s in ss.sequences() if s[0] == 0)
            assert starts >= 2


class TestAncestralSample:
    def test_deterministic_model(self):
        ss = ancestral_sample(deterministic_model((0, 1, 0)), 6, seed=1)
        assert ss.sequences() == [(0, 1, 0)] * 6
        assert all(e.code is None for e in ss.entries)

    def test_first_token_frequency(self):
        ss = ancestral_sample(bernoulli_model(), 20_000, seed=42)
        frac_a = sum(1 for s in ss.sequences() if s[0] == 0) / 20_000
        assert abs(frac_a - 0.6) < 0.01

    def test_same_seed_reproducible(self):
        a = ancestral_sample(bernoulli_model(), 50, seed=9)
        b = ancestral_sample(bernoulli_model(), 50, seed=9)
        assert a == b


class TestParallelDecode:
    def test_worker_counts_agree(self):
        m = SyntheticLM(3, 4, 4)
        codes = [i / 64 for i in range(64)]
        base = parallel_decode(m, codes, worker_count=1)
        assert parallel_decode(m, codes, worker_count=4) == base

    def test_empty_codes(self):
        ss = parallel_decode(bernoulli_model(), [])
        assert ss.entries == ()

    def test_large_batch_multiset(self):
        m = SyntheticLM(12, 5, 3)
        rng = random.Random(0)
        codes = [rng.random() for _ in range(1000)]
        seq1 = parallel_decode(m, codes, worker_count=1).sequences()
        seq8 = parallel_decode(m, codes, worker_count=8).sequences()
        assert seq1 == seq8


def reference_decode(model, c, chain):
    """The per-step recurrence, one code at a time, with no sharing."""
    tokens = ()
    while not model.is_complete(tokens):
        intervals = cdf_intervals(conditional_modified(model, tokens, chain))
        sym = locate(c, intervals)
        c = renormalize(c, dict(intervals)[sym])
        tokens = tokens + (sym,)
    return tokens


def mixed_markov_model(seed):
    """A random order-1 chain in sevenths whose rows after "b" are floats, so one
    walk takes exact and float steps."""
    m = random_markov_model(random.Random(seed), vocab_size=3, max_length=4, denom=7)
    rows = {ctx: tuple(map(float, d.probs)) if ctx == (1,) else d.probs for ctx, d in m.rows.items()}
    return MarkovModel(1, rows, m.vocabulary, m.max_length)


SEEDS = st.integers(min_value=0, max_value=10_000)
MODELS = st.one_of(
    st.builds(lambda s: random_tabular_model(random.Random(s), vocab_size=3, max_length=3, eos=2), SEEDS),
    st.builds(lambda s: random_markov_model(random.Random(s), vocab_size=3, max_length=4), SEEDS),
    st.builds(mixed_markov_model, SEEDS),
    st.builds(lambda s, k: SyntheticLM(s, 5, 5, k, eos=4), SEEDS, st.sampled_from([1.0, 3.0])),
)
ALL_CHAINS = [None, (Temperature(0.8), Nucleus(0.9)), (TopK(2),)]
CHAINS = st.sampled_from(ALL_CHAINS)
CODES = st.one_of(
    st.floats(min_value=0, max_value=1, exclude_max=True),
    st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda x: x < 1),
)


class TestSharedWalk:
    @given(MODELS, CHAINS, st.lists(CODES, max_size=40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_per_code_recurrence(self, model, chain, codes, data):
        # batches of 0, 1 and many unsorted codes, with duplicates
        if codes:
            codes = codes + data.draw(st.lists(st.sampled_from(codes), max_size=5))
        ss = parallel_decode(model, codes, chain, worker_count=3)
        assert [e.code for e in ss.entries] == codes
        for e, c in zip(ss.entries, codes):
            assert e.sequence == reference_decode(model, c, chain)
            assert e.logprob == sequence_logprob(model, e.sequence, chain)

    @given(MODELS, CHAINS, st.integers(min_value=1, max_value=40), SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_ancestral_matches_per_code_recurrence(self, model, chain, n, seed):
        ss = ancestral_sample(model, n, seed, chain)
        rng = random.Random(seed)
        for e in ss.entries:
            assert e.sequence == reference_decode(model, rng.random(), chain)
            assert e.logprob == sequence_logprob(model, e.sequence, chain)

    def test_mixed_batch_matches_per_code_decode(self):
        # After the exact first step the float code's residual, 0.25000000000000006, lies
        # above the Fraction's, 1/4 + 1.5e-18, and the float second step cuts between them.
        c = 0.25000000000000006
        m = MarkovModel(1, {(): (F(1, 3), F(2, 3)), (0,): (c, 1 - c), (1,): (c, 1 - c)}, Vocabulary(("a", "b")), 2)
        codes = [0.5, F(1, 2) + F(1, 10**18)]
        assert [reference_decode(m, x, None) for x in codes] == [decode_code(m, x) for x in codes] == [(1, 1), (1, 0)]
        assert parallel_decode(m, codes).sequences() == [(1, 1), (1, 0)]

    def test_one_conditional_per_distinct_prefix(self):
        class Counting(SequenceModel):
            def __init__(self, inner):
                self.inner, self.vocabulary, self.max_length = inner, inner.vocabulary, inner.max_length
                self.calls = Counter()

            def conditional(self, prefix):
                self.calls[prefix] += 1
                return self.inner.conditional(prefix)

        m = Counting(SyntheticLM(1, 4, 4, 3.0, eos=3))  # PEAKED of criteria 8-9
        seqs = arithmetic_sample(m, LatticeSpec(256, "paper", 0.37)).sequences()
        prefixes = {s[:d] for s in seqs for d in range(len(s))}
        assert m.calls == Counter(prefixes)


class TestModelState:
    """The walk reads each conditional from a model state carried down the trie;
    it must agree bit for bit with `conditional(prefix)` and never be changed
    in place, since siblings share their parent's state."""

    @pytest.mark.parametrize("eos", [False, True])
    @pytest.mark.parametrize("size", [2, 5, 8, 9, 16, 64])
    @given(seed=SEEDS, peakedness=st.sampled_from([1.0, 4.0]), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_state_path_matches_conditional(self, size, eos, seed, peakedness, data):
        model = SyntheticLM(seed, size, 6, peakedness, eos=size - 1 if eos else None)
        not_eos = st.integers(0, size - 2 if eos else size - 1)
        tokens = data.draw(st.lists(not_eos, min_size=5, max_size=5))
        state = model.start()
        for depth in range(model.max_length):  # prefixes of length 0 to L-1
            prefix = tuple(tokens[:depth])
            for chain in ALL_CHAINS:
                by_state = conditional_modified(model, prefix, chain, state)
                assert repr(by_state.probs) == repr(conditional_modified(model, prefix, chain).probs)
            if depth < len(tokens):
                state = model.advance(state, prefix, tokens[depth])

    def test_default_state_is_the_prefix(self):
        m = random_markov_model(random.Random(3), vocab_size=3, max_length=4)
        state = m.advance(m.advance(m.start(), (), 2), (2,), 0)
        assert state == (2, 0)
        assert m.conditional_at(state, (2, 0)) is m.conditional((2, 0))

    @pytest.mark.parametrize("size", [8, 16])
    def test_batch_leaves_later_decodes_unchanged(self, size):
        codes = lattice_codes(LatticeSpec(64, "paper", 0.61))
        expected = [decode_code(SyntheticLM(3, size, 12, eos=1), c) for c in codes]
        model = SyntheticLM(3, size, 12, eos=1)
        batch = parallel_decode(model, codes).sequences()
        assert batch == expected
        assert [decode_code(model, c) for c in codes] == expected

    def test_one_advance_per_incomplete_prefix(self):
        class Counting(SyntheticLM):
            def advance(self, state, prefix, token):
                advanced[prefix + (token,)] += 1
                return super().advance(state, prefix, token)

            def conditional_at(self, state, prefix):
                read[prefix] += 1
                return super().conditional_at(state, prefix)

        advanced, read = Counter(), Counter()
        seqs = arithmetic_sample(Counting(1, 8, 6, 4.0, eos=3), LatticeSpec(256, "paper", 0.37)).sequences()
        prefixes = {s[:d] for s in seqs for d in range(len(s))}
        assert read == Counter(prefixes)
        assert advanced == Counter(prefixes - {()})  # complete sequences get no state

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_markov_state_path_matches_conditional(self, order):
        rng = random.Random(order)

        def row():
            weights = [rng.randint(0, 3) for _ in range(3)]
            weights[rng.randrange(3)] += 1
            return tuple(F(w, sum(weights)) for w in weights)

        contexts = [ctx for k in range(order + 1) for ctx in itertools.product(range(3), repeat=k)]
        m = MarkovModel(order, {ctx: row() for ctx in contexts}, Vocabulary(("a", "b", "c")), 4)
        stack = [((), m.start())]
        while stack:
            prefix, state = stack.pop()
            assert m.conditional_at(state, prefix) is m.conditional(prefix)
            if len(prefix) < m.max_length - 1:
                stack += [(prefix + (v,), m.advance(state, prefix, v)) for v in range(3)]

    def test_markov_walks_read_rows_without_conditional(self):
        class Counting(MarkovModel):
            def conditional(self, prefix):
                calls.append(prefix)
                return super().conditional(prefix)

        calls = []
        base = random_markov_model(random.Random(9), vocab_size=3, max_length=4)
        m = Counting(1, {ctx: row.probs for ctx, row in base.rows.items()}, base.vocabulary, base.max_length)
        seqs = arithmetic_sample(m, LatticeSpec(64, "paper", F(1, 7))).sequences()
        seqs += ancestral_sample(m, 16, 0).sequences()
        for seq in seqs:
            assert sequence_logprob(m, seq) == sequence_logprob(base, seq)
            assert code_interval_of_sequence(m, seq) == code_interval_of_sequence(base, seq)
        assert enumerate_joint(m) == enumerate_joint(base)
        assert calls == []

    def test_model_of_state_hooks_alone(self):
        class Counting(SequenceModel):
            """P(A) = 1/(2 + s) after s tokens; only the state hooks are defined."""

            vocabulary, max_length = Vocabulary(("A", "B")), 4

            def start(self):
                return 0

            def advance(self, state, prefix, token):
                return state + 1

            def conditional_at(self, state, prefix):
                return CategoricalDistribution((F(1, 2 + state), 1 - F(1, 2 + state)))

        m, spec = Counting(), LatticeSpec(8, "paper", F(1, 5))
        codebook = exact_codebook(enumerate_joint(m))
        assert arithmetic_sample(m, spec).sequences() == [codebook.decode(c) for c in sorted(lattice_codes(spec))]
        for prefix in itertools.chain.from_iterable(itertools.product(range(2), repeat=d) for d in range(4)):
            assert m.conditional(prefix) == m.conditional_at(len(prefix), prefix)
        with pytest.raises(InvalidPrefixError, match=r"prefix \(0, 1, 0, 1\) is complete"):
            m.conditional((0, 1, 0, 1))

    def test_none_is_a_state(self):
        class Thirds(SequenceModel):
            """P(A) = 1/3 at every step, and every state is None."""

            vocabulary, max_length = Vocabulary(("A", "B")), 6

            def start(self):
                return None

            def advance(self, state, prefix, token):
                advanced[prefix + (token,)] += 1

            def conditional_at(self, state, prefix):
                return CategoricalDistribution((F(1, 3), F(2, 3)))

            def conditional(self, prefix):
                raise AssertionError(f"re-read {prefix} from the empty prefix")

        advanced, m, spec = Counter(), Thirds(), LatticeSpec(64, "paper", F(1, 5))
        codebook = exact_codebook(enumerate_joint(m))
        assert len(codebook.sequences) == 64
        advanced.clear()
        seqs = arithmetic_sample(m, spec).sequences()
        assert seqs == [codebook.decode(c) for c in sorted(lattice_codes(spec))]
        assert advanced == Counter({s[:d] for s in seqs for d in range(1, len(s))})
        seq = (0, 1, 1, 0, 1, 0)
        for read in (sequence_logprob, code_interval_of_sequence):
            advanced.clear()
            read(m, seq)
            assert advanced == Counter(seq[:d] for d in range(1, 6))
        assert sequence_logprob(m, seq) == pytest.approx(3 * math.log(F(2, 9)))
        assert code_interval_of_sequence(m, seq) == codebook.interval_of(seq)

    def test_markov_missing_row_is_the_same_error(self):
        m = MarkovModel(1, {(): (F(1, 2), F(1, 2))}, Vocabulary(("A", "B")), 2)
        with pytest.raises(InvalidModelError, match=r"missing transition row for context \(1,\)"):
            decode_code(m, F(3, 4))
        with pytest.raises(InvalidModelError, match=r"missing transition row for context \(1,\)"):
            m.conditional((1,))


def reference_logprob(model, tokens, chain=None):
    """`sequence_logprob` as it read the model before the state hooks: each
    step asks for the conditional of the whole prefix."""
    model.validate_tokens(tokens)
    total = 0.0
    for t, tok in enumerate(tokens):
        dist = conditional_modified(model, tokens[:t], chain)
        p = dist.probs[tok]
        if p == 0:
            return -math.inf
        total += math.log(p)
    return total


def reference_interval(model, tokens, chain=None):
    """`code_interval_of_sequence` read the same stateless way."""
    model.validate_tokens(tokens)
    lo, width = F(0), F(1)
    for t, tok in enumerate(tokens):
        symbols, cuts = conditional_modified(model, tokens[:t], chain).cdf[:2]
        k = bisect_left(symbols, tok)
        if k == len(symbols) or symbols[k] != tok:
            raise EmptyIntervalError(f"sequence {tokens} owns no codebook interval")
        below, above = F(cuts[k]), F(cuts[k + 1])
        lo += width * below
        width *= above - below
    return UnitInterval(lo, lo + width)


def outcome(f, model, tokens, chain):
    """What `f` returns, with its repr so floats compare bit for bit, or what it raises."""
    try:
        value = f(model, tokens, chain)
    except EmptyIntervalError as e:
        return EmptyIntervalError, str(e)
    return value, repr(value)


REFERENCE_MODELS = st.one_of(
    st.builds(
        lambda s, size, eos, k: SyntheticLM(s, size, 6, k, eos=size - 1 if eos else None),
        SEEDS, st.sampled_from([2, 5, 8, 9, 16]), st.booleans(), st.sampled_from([1.0, 4.0]),
    ),
    st.builds(lambda s, v, n: random_markov_model(random.Random(s), vocab_size=v, max_length=n, denom=4),
              SEEDS, st.integers(2, 4), st.integers(1, 5)),
    st.builds(lambda s, v, n, eos: random_tabular_model(random.Random(s), v, n, eos=v - 1 if eos else None),
              SEEDS, st.integers(2, 3), st.integers(1, 3), st.booleans()),
)


class TestStateReferences:
    """`sequence_logprob` and `code_interval_of_sequence` read the model through
    its state hooks and must give what the stateless per-prefix loops gave."""

    def check(self, model, tokens, chain):
        for new, old in [(sequence_logprob, reference_logprob), (code_interval_of_sequence, reference_interval)]:
            expected = outcome(old, model, tokens, chain)
            assert outcome(new, model, tokens, chain) == expected
            assert outcome(new, model, list(tokens), chain)[0] == expected[0]  # a list reads the same

    @given(REFERENCE_MODELS, st.sampled_from(ALL_CHAINS + [(TopK(1),)]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_stateless_loops(self, model, chain, data):
        # prefixes from () up to complete sequences, cut after the first EOS
        raw = data.draw(st.lists(st.integers(0, len(model.vocabulary) - 1), max_size=model.max_length))
        eos = model.vocabulary.eos
        tokens = tuple(raw[: raw.index(eos) + 1] if eos in raw else raw)
        self.check(model, tokens, chain)

    def test_top_k_zero_step(self):
        assert reference_logprob(bernoulli_model(), (0, 1), (TopK(1),)) == -math.inf
        self.check(bernoulli_model(), (0, 1), (TopK(1),))
        self.check(SyntheticLM(3, 9, 4), (1, 2, 3), (TopK(1),))

    def test_zero_mass_prefix_returns_before_its_conditional(self):
        m = deterministic_model((0, 1, 0))
        with pytest.raises(InvalidPrefixError):
            m.conditional((0, 0))
        assert sequence_logprob(m, (0, 0, 1)) == -math.inf
        self.check(m, (0, 0, 1), None)

    def test_float_symbol_without_interval_keeps_its_logprob(self):
        m = TabularModel({(0,): 1.0, (1,): 1e-20}, Vocabulary(("A", "B")), 1)
        assert sequence_logprob(m, (1,)) == math.log(1e-20)
        with pytest.raises(EmptyIntervalError):
            code_interval_of_sequence(m, (1,))
        self.check(m, (1,), None)

    def test_one_state_read_per_step(self):
        class Counting(SyntheticLM):
            def conditional(self, prefix):
                raise AssertionError("read the whole prefix")

            def advance(self, state, prefix, token):
                advanced[prefix + (token,)] += 1
                return super().advance(state, prefix, token)

            def conditional_at(self, state, prefix):
                read[prefix] += 1
                return super().conditional_at(state, prefix)

        advanced, read = Counter(), Counter()
        m, seq = Counting(4, 9, 6, eos=2), (0, 1, 3, 5, 2)
        for f in (sequence_logprob, code_interval_of_sequence):
            advanced.clear()
            read.clear()
            f(m, seq)
            assert read == Counter(seq[:d] for d in range(len(seq)))
            assert advanced == Counter(seq[:d] for d in range(1, len(seq)))


PEAKED8 = SyntheticLM(1, 8, 32, peakedness=4, eos=3)


class TestZeroWidthFloatIntervals:
    """Conditionals too small to move a float cut own no interval and never decode."""

    def check(self, ss):
        assert len(ss.entries) == 256
        for e in ss.entries:
            assert PEAKED8.is_complete(e.sequence)
            assert math.isfinite(e.logprob)
            assert e.logprob == sequence_logprob(PEAKED8, e.sequence)

    @pytest.mark.parametrize("j", range(8))
    def test_arithmetic_shifts(self, j):
        shift = random.Random(f"peaked:{j}").random()
        ss = arithmetic_sample(PEAKED8, LatticeSpec(256, "paper", shift))
        self.check(ss)
        for e in ss.entries[::16]:
            assert e.sequence == reference_decode(PEAKED8, e.code, None)

    @pytest.mark.parametrize("seed", ["peaked:0", "peaked:1"])
    def test_ancestral_seeds(self, seed):
        self.check(ancestral_sample(PEAKED8, 256, seed))


class TestFloatModelIntervals:
    """Float models get the exact interval of the float cuts the decoder bisects."""

    @pytest.mark.parametrize("model", [SyntheticLM(0, 8, 32), PEAKED8], ids=["synthetic", "peaked"])
    @pytest.mark.parametrize("j", range(4))
    def test_width_matches_logprob(self, model, j):
        shift = random.Random(f"interval:{j}").random()
        for seq in set(arithmetic_sample(model, LatticeSpec(256, "paper", shift)).sequences()):
            iv = code_interval_of_sequence(model, seq)
            assert type(iv.lo) is F and type(iv.hi) is F
            assert 0 <= iv.lo < iv.hi <= 1
            log_width = math.log(iv.width.numerator) - math.log(iv.width.denominator)
            assert abs(log_width - sequence_logprob(model, seq)) < 1e-9


class TestIntProbabilitiesStayExact:
    """Exact ints are promoted to Fractions once, so the cuts and every quotient stay exact."""

    def test_distribution(self):
        dist = CategoricalDistribution((1, 0))
        assert dist.is_exact and all(type(p) is F for p in dist.probs)
        assert dist.cdf.cuts == (0, 1) and all(type(x) is F for x in dist.cdf.cuts)

    @pytest.mark.parametrize(
        "model",
        [
            TabularModel({(0, 1): 1, (1, 0): 0}, Vocabulary(("A", "B")), 2),
            MarkovModel(1, {(): (F(1, 2), F(1, 2)), (0,): (1, 0), (1,): (0, 1)}, Vocabulary(("A", "B")), 3),
        ],
        ids=["tabular", "markov"],
    )
    @pytest.mark.parametrize("chain", [None, (TopK(1),), (Nucleus(0.5),)])
    def test_models(self, model, chain):
        for prefix in {s[:d] for s, _ in enumerate_joint(model, chain).entries for d in range(len(s))}:
            assert all(type(p) is F for p in conditional_modified(model, prefix, chain).probs)
        codes = [F(j, 7) for j in range(7)]
        ss = parallel_decode(model, codes, chain)
        assert ss.sequences() == [reference_decode(model, c, chain) for c in codes]


class TestFloatCodeTieBreak:
    """A float code equal to the float of an exact cut decodes like its exact value."""

    @pytest.mark.parametrize(
        "row,first",
        [
            ((F(1, 3), F(2, 3)), 0),  # float(1/3) < 1/3: the code lies below the cut
            ((F(1, 10), F(9, 10)), 1),  # float(1/10) > 1/10: the code lies above it
            ((F(1, 3), F(1, 3), F(1, 3)), 0),
            ((F(1, 10), F(7, 10), F(1, 5)), 1),
        ],
    )
    def test_codes_on_float_cuts(self, row, first):
        rows = {(): row, **{(v,): row for v in range(len(row))}}
        m = MarkovModel(1, rows, Vocabulary(tuple("abc"[: len(row)])), 3)
        c = float(row[0])
        assert c != row[0]
        assert decode_code(m, c)[0] == first
        cuts = [float(sum(row[:k])) for k in range(1, len(row))]
        codes = [x for cut in cuts for x in (math.nextafter(cut, 0), cut, math.nextafter(cut, 1))]
        for code, e in zip(codes, parallel_decode(m, codes).entries):
            assert e.sequence == decode_code(m, code) == decode_code(m, F(code)) == reference_decode(m, code, None)


class TestCdfCache:
    def count_builds(self, monkeypatch) -> Counter:
        builds = Counter()
        build = CategoricalDistribution.cdf.func

        def counting(dist):
            builds[id(dist)] += 1
            return build(dist)

        prop = cached_property(counting)
        prop.__set_name__(CategoricalDistribution, "cdf")
        monkeypatch.setattr(CategoricalDistribution, "cdf", prop)
        return builds

    def test_markov_rows_build_once(self, monkeypatch):
        builds = self.count_builds(monkeypatch)
        m = random_markov_model(random.Random(5), vocab_size=3, max_length=4)
        for j in range(50):
            arithmetic_sample(m, LatticeSpec(16, "paper", random.Random(j).random()))
        assert builds == Counter({id(row): 1 for row in m.rows.values()})

    def test_tabular_conditionals_kept_per_prefix(self, monkeypatch):
        builds = self.count_builds(monkeypatch)
        m = random_tabular_model(random.Random(6), vocab_size=3, max_length=3, eos=2)
        for j in range(50):
            arithmetic_sample(m, LatticeSpec(16, "paper", random.Random(j).random()))
        assert m.conditional((0,)) is m.conditional((0,))
        assert set(builds.values()) == {1}
        assert len(builds) == len({s[:d] for s, _ in enumerate_joint(m).entries for d in range(len(s))})

    def test_cache_leaves_equality_and_hash(self):
        a, b = (CategoricalDistribution((F(1, 3), F(2, 3))) for _ in range(2))
        assert a.cdf.symbols == (0, 1)
        assert "cdf" in vars(a) and "cdf" not in vars(b)
        assert a == b and hash(a) == hash(b)


class ReadBack(SequenceModel):
    """Step 1 draws from `probs`; step 2 splits [0, 1) at `cut`, so it decodes
    its second symbol exactly when the renormalized code is >= cut."""

    def __init__(self, probs, cut):
        size = max(len(probs), 2)
        self.vocabulary, self.max_length = Vocabulary(tuple(f"s{i}" for i in range(size))), 2
        self.first = tuple(probs) + (0.0,) * (size - len(probs))
        self.split = (cut, 1.0 - cut) + (0.0,) * (size - 2)

    def conditional(self, prefix):
        return CategoricalDistribution(self.split if prefix else self.first)


@st.composite
def float_dists(draw):
    """Float rows with zero and negligible symbols, summing to 1 within FAST_SUM_TOL."""
    raw = draw(st.lists(st.one_of(st.just(0.0), st.just(1e-20), st.floats(1e-3, 1.0)), min_size=1, max_size=8))
    total = sum(raw)
    assume(total > 0)
    scale = 1 + draw(st.floats(-0.9 * FAST_SUM_TOL, 0.9 * FAST_SUM_TOL))
    return CategoricalDistribution(tuple(p / total * scale for p in raw))


@st.composite
def exact_dists(draw):
    """Fraction rows of two or more symbols whose cuts mostly have no exact float."""
    den = draw(st.sampled_from([3, 7, 10, 12]))
    cuts = sorted(draw(st.lists(st.integers(0, den), min_size=1, max_size=5)))
    return CategoricalDistribution(tuple(F(b - a, den) for a, b in zip([0] + cuts, cuts + [den])))


@st.composite
def dists_and_codes(draw):
    """A float or exact row and 1-6 codes: floats and Fractions, on and just
    below its cuts, 0.0 and nextafter(1, 0), with repeats."""
    dist = draw(st.one_of(float_dists(), exact_dists()))
    _, cuts, fcuts = dist.cdf[:3]
    below_cuts = tuple(math.nextafter(cut, 0.0) for cut in fcuts[1:])
    code = st.one_of(st.floats(0, 1, exclude_max=True), st.sampled_from(fcuts[:-1] + cuts[:-1] + below_cuts))
    codes = draw(st.lists(st.tuples(code, st.booleans()), min_size=1, max_size=6))
    return dist, [F(c) if exact else c for c, exact in codes]


class TestSplit:
    """`CategoricalDistribution.split` must agree bit for bit with locating each
    code in the distribution's CDF by the exact comparison and renormalizing it
    on the cut points `cdf` holds."""

    @given(dists_and_codes())
    # (c - 0.3) / (0.8999999999999999 - 0.3) rounds to 1 one float below the cut
    @example((CategoricalDistribution((0.3, 0.6, 0.1)), [0.8999999999999998]))
    @settings(max_examples=300, deadline=None)
    def test_split_matches_cached_cdf(self, dist_codes):
        dist, codes = dist_codes
        symbols, cuts, fcuts, fwidths, logprobs = dist.cdf
        top = math.nextafter(1.0, 0.0)
        order = sorted(range(len(codes)), key=codes.__getitem__)
        expected = []
        for i in order:
            c = codes[i]
            k = bisect_right(cuts, c) - 1
            if isinstance(c, float) or not dist.is_exact:
                residual = min((c - fcuts[k]) / fwidths[k], top)
            else:
                residual = (c - cuts[k]) / (cuts[k + 1] - cuts[k])
            if not expected or expected[-1][0] != symbols[k]:
                expected.append((symbols[k], logprobs[k], []))
            expected[-1][2].append((i, residual))
            if isinstance(residual, float):
                at, past = (
                    parallel_decode(ReadBack(dist.probs, cut), [c]).entries[0]
                    for cut in (residual, math.nextafter(residual, 1.0))
                )
                # the renormalized code is >= residual and below the next float: it is residual
                assert at.sequence == (symbols[k], 1) and past.sequence == (symbols[k], 0)
                assert at.logprob == logprobs[k] + math.log(1.0 - residual)
        # the run sits inside a longer array, whose other entries split must not touch
        res = ["before"] + [codes[i] for i in order] + ["after"]
        out = dist.split(res, 1, len(res) - 1)
        assert res[0] == "before" and res[-1] == "after"
        got = [(symbol, lp, list(zip(order[a - 1 : b - 1], res[a:b]))) for symbol, lp, a, b in out]
        assert repr(got) == repr(expected)

    def test_one_symbol_passes_the_run_through(self):
        dist = CategoricalDistribution((F(0), F(1), F(0)))
        res = [F(1, 9), F(0), 0.25, F(2, 3), math.nextafter(1.0, 0.0)]
        before = list(res)
        [(symbol, logprob, a, b)] = dist.split(res, 1, 5)
        assert (symbol, logprob, a, b) == (1, 0.0, 1, 5)
        assert all(map(operator.is_, res, before))
        # an order-1 chain whose rows after "a" and after "c" each keep one symbol
        rows = {(): (F(1, 3), F(2, 3), F(0)), (0,): (F(0), F(1), F(0)), (1,): (F(1, 2), F(0), F(1, 2)),
                (2,): (F(0), F(0), F(1))}
        m = MarkovModel(1, rows, Vocabulary(("a", "b", "c")), 6)
        cb = exact_codebook(enumerate_joint(m))
        codes = lattice_codes(LatticeSpec(50, "paper", F(1, 7))) + cb.los + [(lo + hi) / 2 for lo, hi in zip(cb.los, cb.his)]
        assert parallel_decode(m, codes).sequences() == [cb.decode(c) for c in codes]
        floats = [float(c) for c in codes]
        assert parallel_decode(m, floats).sequences() == [reference_decode(m, c, None) for c in floats]

    def test_float_distributions_build_no_cdf(self):
        dists = {}

        class Recording(SyntheticLM):
            def conditional_at(self, state, prefix):
                dist = dists[prefix] = super().conditional_at(state, prefix)
                return dist

        m = Recording(0, 8, 32)
        seqs = arithmetic_sample(m, LatticeSpec(256, "paper", random.Random(0).random())).sequences()
        assert dists.keys() == {s[:d] for s in seqs for d in range(len(s))}
        assert not [p for p, d in dists.items() if "cdf" in vars(d)]


class TestDistributionalProperties:
    def test_prop1_total_variation(self):
        # empirical decode distribution over uniform codes vs the exact joint
        m = random_tabular_model(random.Random(17), vocab_size=3, max_length=3, eos=2)
        joint = dict(enumerate_joint(m).entries)
        rng = random.Random(23)
        counts: dict = {}
        n = 100_000
        for _ in range(n):
            s = decode_code(m, rng.random())
            counts[s] = counts.get(s, 0) + 1
        tv = 0.5 * sum(
            abs(counts.get(s, 0) / n - float(p)) for s, p in joint.items()
        )
        assert tv < 0.02

    def test_monotonic_embedding(self):
        m = random_tabular_model(random.Random(29), vocab_size=3, max_length=3, eos=2)
        joint = enumerate_joint(m)
        pintervals = prefix_intervals(joint)
        rng = random.Random(31)
        for _ in range(500):
            c1 = F(rng.getrandbits(40), 2**40)
            c2 = F(rng.getrandbits(40), 2**40)
            s1, s2 = decode_code(m, c1), decode_code(m, c2)
            lcp = 0
            while lcp < min(len(s1), len(s2)) and s1[lcp] == s2[lcp]:
                lcp += 1
            deepest = 0
            for d in range(1, min(len(s1), len(s2)) + 1):
                iv = pintervals.get(s1[:d])
                if iv is not None and iv.contains(c1) and iv.contains(c2):
                    deepest = d
            assert lcp == deepest

    def test_pigeonhole_bounds_on_grid(self):
        # Upper bound: P(x) < n/(N+1) means x appears at most n times.
        # Lower bound: the N-code lattice misses one point of the (N+1)-point
        # grid, so the provable form is "P(x) > (n+1)/(N+1) forces >= n
        # appearances" (one mesh unit weaker than the idealized full-lattice
        # statement; see test_idealized_lower_bound_has_counterexamples).
        m = random_tabular_model(random.Random(37), vocab_size=3, max_length=2, eos=2)
        joint = enumerate_joint(m)
        pprob = prefix_probabilities(joint)
        cb = exact_codebook(joint)
        n_samples = 9
        for j in range(0, 1000, 5):
            codes = [
                (F(i, n_samples + 1) + F(j, 1000)) % 1 for i in range(1, n_samples + 1)
            ]
            seqs = [cb.decode(c) for c in codes]
            counts: dict = {}
            for s in seqs:
                for d in range(1, len(s) + 1):
                    counts[s[:d]] = counts.get(s[:d], 0) + 1
            for prefix, p in pprob.items():
                if not prefix:
                    continue
                m_count = counts.get(prefix, 0)
                # upper: sampled more than n times implies P >= n/(N+1)
                if m_count > 1:
                    assert p >= F(m_count - 1, n_samples + 1)
                # corrected lower: P > (n+1)/(N+1) forces at least n appearances
                assert p <= F(m_count + 2, n_samples + 1)

    def test_idealized_lower_bound_has_counterexamples(self):
        # Pins the defect: "P(x) > n/(N+1) forces >= n appearances" fails for
        # the N-code lattice when a prefix interval covers the one lattice
        # point the code set omits.  Prefix interval [0, 20/89), N=9, b=1/40:
        # P = 20/89 > 2/10 but only the code 1/40 + 1/10 lands inside.
        m = random_tabular_model(random.Random(37), vocab_size=3, max_length=2, eos=2)
        cb = exact_codebook(enumerate_joint(m))
        b = F(1, 40)
        codes = [(F(i, 10) + b) % 1 for i in range(1, 10)]
        hits = sum(1 for s in (cb.decode(c) for c in codes) if s[:2] == (0, 0))
        p = prefix_probabilities(enumerate_joint(m))[(0, 0)]
        assert p == F(20, 89) and p > F(2, 10)
        assert hits == 1  # idealized bound would demand >= 2

    def test_duplicate_freeness(self):
        # all sequence probs < 1/(N+1) => no duplicates for any grid shift
        m = random_tabular_model(random.Random(41), vocab_size=3, max_length=3, eos=2)
        joint = enumerate_joint(m)
        cb = exact_codebook(joint)
        max_p = max(p for _, p in joint.entries)
        # need every sequence prob < 1/(n_samples+1)
        n_samples = max(1, int(1 / max_p) - 1)
        while n_samples > 1 and max_p >= F(1, n_samples + 1):
            n_samples -= 1
        assert max_p < F(1, n_samples + 1)
        for j in range(0, 1000, 7):
            codes = [
                (F(i, n_samples + 1) + F(j, 1000)) % 1 for i in range(1, n_samples + 1)
            ]
            seqs = [cb.decode(c) for c in codes]
            assert len(set(seqs)) == len(seqs)
