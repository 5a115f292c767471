"""Exact enumeration, codebooks, expectations, and unbiasedness identities."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from arithdecode import (
    LatticeSpec,
    brute_force_decode,
    decode_code,
    enumerate_joint,
    exact_codebook,
    exact_expectation,
    lattice_codes,
    sequence_logprob,
)
from arithdecode.errors import EnumerationBoundError
from arithdecode.models import MarkovModel, TabularModel, Vocabulary
from arithdecode.oracle import full_period_average, full_period_shift_grid, write_oracle_csv
from arithdecode.sampler import code_interval_of_sequence
from util import (
    all_complete_sequences,
    bernoulli_model,
    deterministic_model,
    random_markov_model,
    random_tabular_model,
)

F = Fraction


class TestEnumerateJoint:
    def test_bernoulli_product_rule(self):
        joint = dict(enumerate_joint(bernoulli_model()).entries)
        assert joint == {
            (0, 0): F(9, 25),
            (0, 1): F(6, 25),
            (1, 0): F(6, 25),
            (1, 1): F(4, 25),
        }

    def test_deterministic_single_entry(self):
        joint = enumerate_joint(deterministic_model((0, 1, 0)))
        assert joint.entries == (((0, 1, 0), F(1)),)

    def test_tabular_identity(self):
        m = random_tabular_model(random.Random(2), vocab_size=3, max_length=3, eos=2)
        joint = dict(enumerate_joint(m).entries)
        assert joint == {k: v for k, v in m.table.items() if v > 0}

    def test_dictionary_order(self):
        joint = enumerate_joint(random_markov_model(random.Random(4)))
        seqs = [s for s, _ in joint.entries]
        assert seqs == sorted(seqs)

    def test_bound_exceeded(self):
        with pytest.raises(EnumerationBoundError):
            enumerate_joint(bernoulli_model(max_length=4), bound=3)

    def test_deeper_than_the_recursion_limit(self):
        m = MarkovModel(0, {(): (F(1),)}, Vocabulary(("a",)), 5000)
        assert enumerate_joint(m).entries == (((0,) * 5000, F(1)),)


class TestExactCodebook:
    def test_bernoulli_ab_interval(self):
        cb = exact_codebook(enumerate_joint(bernoulli_model()))
        iv = cb.interval_of((0, 1))
        assert (iv.lo, iv.hi) == (F(9, 25), F(15, 25))

    def test_first_starts_at_zero_last_ends_at_one(self):
        cb = exact_codebook(enumerate_joint(random_markov_model(random.Random(6))))
        assert cb.los[0] == 0
        assert cb.his[-1] == 1

    def test_widths_equal_probabilities(self):
        joint = enumerate_joint(random_tabular_model(random.Random(8), eos=2))
        cb = exact_codebook(joint)
        for (seq, p), (seq2, iv) in zip(joint.entries, cb.items()):
            assert seq == seq2 and iv.width == p


class TestExactExpectation:
    def test_first_symbol_indicator(self):
        joint = enumerate_joint(bernoulli_model())
        assert exact_expectation(joint, lambda s: F(int(s[0] == 0))) == F(3, 5)

    def test_constant_reward(self):
        joint = enumerate_joint(random_markov_model(random.Random(10)))
        assert exact_expectation(joint, lambda s: F(1)) == 1

    def test_collision_probability(self):
        joint = enumerate_joint(bernoulli_model())
        assert exact_expectation(joint, dict(joint.entries).__getitem__) == F(169, 625)


class TestBruteForceDecode:
    def setup_method(self):
        self.cb = exact_codebook(enumerate_joint(bernoulli_model()))

    def test_midpoint(self):
        assert brute_force_decode(F(1, 2), self.cb) == (0, 1)

    def test_zero_gives_first(self):
        assert brute_force_decode(F(0), self.cb) == (0, 0)

    def test_near_one_gives_last(self):
        assert brute_force_decode(F(999999, 1000000), self.cb) == (1, 1)


class TestOracleSamplerEquivalence:
    def test_exact_decode_agreement(self):
        for seed in range(5):
            rng = random.Random(seed)
            m = (
                random_tabular_model(rng, vocab_size=3, max_length=3, eos=2)
                if seed % 2
                else random_markov_model(rng, vocab_size=3, max_length=3)
            )
            cb = exact_codebook(enumerate_joint(m))
            codes = list(lattice_codes(LatticeSpec(53, "paper", F(1, 7))))
            # adversarial codes: interval endpoints and near-boundary points
            for lo in cb.los:
                codes.append(lo)
                if lo > 0:
                    codes.append(lo - F(1, 10**12))
            for c in codes:
                assert decode_code(m, c) == cb.decode(c)

    def test_width_equals_exp_logprob(self):
        m = random_tabular_model(random.Random(12), eos=2)
        for seq, p in enumerate_joint(m).entries:
            iv = code_interval_of_sequence(m, seq)
            assert iv.width == p  # exact rational identity
            assert math.isclose(math.exp(sequence_logprob(m, seq)), float(p), rel_tol=1e-9)


class TestUnbiasedness:
    def test_full_period_average_is_exact_expectation(self):
        for seed in range(3):
            m = random_markov_model(random.Random(seed), vocab_size=3, max_length=2, denom=6)
            joint = enumerate_joint(m)
            cb = exact_codebook(joint)
            reward = lambda s: F(int(s[0] == 0))
            for n in (1, 4):
                assert full_period_average(cb, n, reward) == exact_expectation(joint, reward)

    def test_shift_grid_refines_breakpoints(self):
        cb = exact_codebook(enumerate_joint(bernoulli_model()))
        grid = full_period_shift_grid(cb, 4, min_k=10)
        denom = grid[1].denominator
        assert denom % 5 == 0 and denom % 25 == 0  # lattice and endpoint denominators
        assert len(grid) == denom

    def test_single_shift_is_biased_but_average_is_not(self):
        # the naive-lattice bias example: N=1, b=0 gives 1.0 against truth 0.6
        from util import one_symbol_model

        m = one_symbol_model()
        joint = enumerate_joint(m)
        cb = exact_codebook(joint)
        reward = lambda s: F(int(s[0] == 0))
        assert reward(cb.decode(F(1, 2))) == 1
        assert exact_expectation(joint, reward) == F(3, 5)
        assert full_period_average(cb, 1, reward) == F(3, 5)


def reference_sweep(cb, n, rewards, mode):
    """The full-period average as a plain Fraction loop: one LatticeSpec per
    shift of the grid, every code decoded and scored, for each reward."""
    grid = full_period_shift_grid(cb, n)
    totals = [F(0)] * len(rewards)
    for b in grid:
        seqs = [cb.decode(c) for c in lattice_codes(LatticeSpec(n, mode, b))]
        for r, reward in enumerate(rewards):
            totals[r] += sum((F(reward(s)) for s in seqs), F(0)) / n
    return [t / len(grid) for t in totals]


def tabular_with_denominator(rng, denom):
    """Random joint over V=3, L=2 with EOS whose probabilities are k/denom."""
    seqs = all_complete_sequences(3, 2, 2)
    counts = Counter(rng.choice(seqs) for _ in range(denom))
    return TabularModel({s: F(c, denom) for s, c in counts.items()}, Vocabulary(("a", "b", "e"), eos=2), 2)


SWEEP_MODELS = {
    "markov": lambda rng, d: random_markov_model(rng, vocab_size=3, max_length=2, denom=d),
    "tabular": tabular_with_denominator,
}
SWEEP_REWARDS = (
    lambda s: F(int(s[0] == 0)),
    lambda s: F(len(s), 1 + sum(s)),
    lambda s: 0.1 * len(s) + 0.01 * s[-1],  # a float reward, converted exactly
)


class TestIntegerSweep:
    @pytest.mark.parametrize("mode", ["paper", "uniform"])
    @pytest.mark.parametrize("denom", [5, 6, 7, 10])
    @pytest.mark.parametrize("kind", sorted(SWEEP_MODELS))
    def test_matches_reference_sweep(self, kind, denom, mode):
        cb = exact_codebook(enumerate_joint(SWEEP_MODELS[kind](random.Random(denom), denom)))
        for n in range(1, 8):
            expected = reference_sweep(cb, n, SWEEP_REWARDS, mode)
            assert [full_period_average(cb, n, r, mode) for r in SWEEP_REWARDS] == expected

    @pytest.mark.parametrize("mode", ["paper", "uniform"])
    def test_reward_called_at_most_once_per_sequence(self, mode):
        cb = exact_codebook(enumerate_joint(random_markov_model(random.Random(3), denom=6)))
        calls = Counter()

        def reward(s):
            calls[s] += 1
            return F(int(s[0] == 1))

        full_period_average(cb, 5, reward, mode)
        assert set(calls) <= set(cb.sequences)
        assert max(calls.values()) == 1

    def test_bound_raises_before_any_reward(self):
        cb = exact_codebook(enumerate_joint(random_markov_model(random.Random(5), denom=7)))
        m = len(full_period_shift_grid(cb, 4))
        calls = []
        reward = lambda s: calls.append(s) or F(1)
        with pytest.raises(EnumerationBoundError):
            full_period_average(cb, 4, reward, bound=m - 1)
        assert calls == []
        assert full_period_average(cb, 4, reward, bound=m) == 1


class TestConsistency:
    def test_riemann_error_bound(self):
        # |estimator(N) - exact| <= discontinuities * max|reward| / (N+1)
        m = random_tabular_model(random.Random(14), vocab_size=3, max_length=2, eos=2)
        joint = enumerate_joint(m)
        cb = exact_codebook(joint)
        reward = lambda s: F(int(s[0] == 1))  # middle symbol: 2 discontinuities
        truth = exact_expectation(joint, reward)
        for n in (10, 100, 1000):
            for b in (F(0), F(1, 3), F(7, 11)):
                codes = lattice_codes(LatticeSpec(n, "paper", b))
                est = sum(reward(cb.decode(c)) for c in codes) / F(n)
                assert abs(est - truth) <= F(2, n + 1)


def test_oracle_csv_roundtrip(tmp_path):
    m = bernoulli_model()
    joint = enumerate_joint(m)
    path = tmp_path / "oracle.csv"
    write_oracle_csv(joint, m, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sequence,prob_num,prob_den,lo,hi"
    assert lines[1] == "A A,9,25,0,9/25"
    assert len(lines) == 5
