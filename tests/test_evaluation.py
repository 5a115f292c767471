"""Estimator statistics, step-function variance, diversity, and BLEU."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from arithdecode import (
    LatticeSpec,
    StepFunction,
    Temperature,
    UnitInterval,
    ancestral_sample,
    arithmetic_sample,
    covariance_constants,
    estimator_sd,
    eval_step_function,
    ngram_diversity,
    sample_mean,
    sentence_bleu,
    step_variance_experiment,
)
from arithdecode.evaluation import (
    covariance_matrix_eigenvalues,
    draw,
    lattice_step_estimate,
    step_integral,
)
from arithdecode.errors import ParameterError
from util import bernoulli_model, deterministic_model, one_symbol_model

F = Fraction


def grid_step_function(rng, n, coeff_cap=5):
    """Random step function whose piece widths are multiples of 1/n."""
    cells = sorted(rng.sample(range(1, n), rng.randint(1, min(4, n - 1))))
    bounds = [F(0)] + [F(c, n) for c in cells] + [F(1)]
    pieces = tuple(
        (UnitInterval(a, b), F(rng.randint(-coeff_cap, coeff_cap)))
        for a, b in zip(bounds, bounds[1:])
    )
    return StepFunction(pieces)


class TestSampleMean:
    def test_naive_lattice_bias_example(self):
        m = one_symbol_model()
        ss = arithmetic_sample(m, LatticeSpec(1, "paper", F(0)))
        assert sample_mean(ss, lambda s: F(int(s[0] == 0))) == 1  # true value is 3/5

    def test_constant_reward(self):
        ss = ancestral_sample(bernoulli_model(), 10, seed=0)
        assert sample_mean(ss, lambda s: 2.5) == 2.5

    def test_empty_rejected(self):
        from arithdecode.sampler import SampleSet

        with pytest.raises(ParameterError):
            sample_mean(SampleSet((), "arithmetic"), lambda s: 1.0)


class TestEstimatorSd:
    def test_deterministic_model_zero_sd(self):
        m = deterministic_model((0, 1))
        for method in ("arithmetic", "ancestral"):
            rep = estimator_sd(m, method, 4, None, lambda s: float(len(s)), reps=10)
            assert rep.sd == 0.0

    def test_ancestral_matches_binomial_sd(self):
        m = one_symbol_model()
        rep = estimator_sd(
            m, "ancestral", 100, None, lambda s: float(s[0] == 0), reps=400, seed=3
        )
        expected = math.sqrt(0.6 * 0.4 / 100)
        assert abs(rep.sd - expected) < 0.15 * expected

    def test_report_fields_consistent(self):
        m = bernoulli_model()
        rep = estimator_sd(m, "arithmetic", 8, None, lambda s: float(s[0] == 0), reps=50)
        assert rep.percentile_2_5 <= rep.mean <= rep.percentile_97_5
        assert rep.sd >= 0

    def test_reproducible(self):
        m = bernoulli_model()
        a = estimator_sd(m, "ancestral", 8, None, lambda s: float(s[0] == 0), reps=20, seed=5)
        b = estimator_sd(m, "ancestral", 8, None, lambda s: float(s[0] == 0), reps=20, seed=5)
        assert a == b

    def test_statistics_equal_numpy_bit_for_bit(self):
        # numpy's pairwise sum and two-sided lerp: lengths around 8, 128 and their multiples
        rng = random.Random(24)
        families = [
            lambda: rng.random(),
            lambda: rng.choice([-0.0, 0.0, 1 / 3, 0.1, 0.2]),
            lambda: rng.choice([1e300, -1e300, 1 / 3]) if rng.random() < 0.1 else rng.uniform(-1, 1),
        ]
        lengths = [*range(2, 10), *range(120, 138), 255, 256, 257, 1023, 1024, 1025]
        arrays = [[families[i % 3]() for _ in range(k)] for i, k in enumerate(lengths)]
        for base in ([0.3, math.nan, 0.1, 0.2, 0.2], [0.3, math.inf, 0.1, -math.inf, 0.2]):
            arrays += [list(p) for p in itertools.permutations(base)]
        m = deterministic_model((0,))
        for vals in arrays:
            rewards = iter(vals)
            rep = estimator_sd(m, "arithmetic", 1, None, lambda s: next(rewards), reps=len(vals))
            arr = np.array(vals) + 0.0  # a one-sample mean sums from 0, so a -0.0 reward arrives as 0.0
            with np.errstate(all="ignore"):
                want = [arr.mean(), arr.std(ddof=1), np.percentile(arr, 2.5), np.percentile(arr, 97.5)]
            got = [rep.mean, rep.sd, rep.percentile_2_5, rep.percentile_97_5]
            assert list(map(repr, got)) == [repr(float(x)) for x in want], vals


class TestDraw:
    @pytest.mark.parametrize("mode", ["paper", "uniform"])
    @pytest.mark.parametrize("chain", [None, [Temperature(0.7)]])
    def test_arithmetic_tag_seeds_the_shift(self, mode, chain):
        m = bernoulli_model()
        shift = random.Random("7:3").random()
        assert draw(m, "arithmetic", 5, "7:3", chain, mode) == arithmetic_sample(
            m, LatticeSpec(5, mode, shift), chain
        )

    @pytest.mark.parametrize("tag", [7, "7:0.5:1"])
    def test_ancestral_tag_seeds_the_codes(self, tag):
        m = bernoulli_model()
        assert draw(m, "ancestral", 6, tag) == ancestral_sample(m, 6, tag)

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError):
            draw(bernoulli_model(), "beam", 4, 0)


class TestStepFunctions:
    halfsplit = StepFunction(
        ((UnitInterval(F(0), F(1, 2)), F(1)), (UnitInterval(F(1, 2), F(1)), F(0)))
    )

    def test_eval_pieces(self):
        assert eval_step_function(self.halfsplit, F(1, 4)) == 1
        assert eval_step_function(self.halfsplit, F(1, 2)) == 0  # boundary goes up
        const = StepFunction(((UnitInterval(F(0), F(1)), F(7)),))
        assert eval_step_function(const, 0.9) == 7

    @pytest.mark.parametrize("c", [-0.25, F(-1, 4), 1, 1.5, math.nan])
    def test_eval_outside_unit_interval_rejected(self, c):
        pieces = ((UnitInterval(F(0), F(1, 2)), 3), (UnitInterval(F(1, 2), F(1)), 7))
        with pytest.raises(ParameterError, match=r"outside \[0, 1\)"):
            eval_step_function(StepFunction(pieces), c)

    def test_invalid_pieces_rejected(self):
        with pytest.raises(ParameterError):
            StepFunction(((UnitInterval(F(0), F(1, 2)), F(1)),))  # gap at the top

    def test_zero_variance_at_matching_n(self):
        rng = random.Random(0)
        for j in range(100):
            b = F(rng.randint(0, 10**6), 10**6 + 1)
            est = lattice_step_estimate(self.halfsplit, LatticeSpec(2, "uniform", b))
            assert est == step_integral(self.halfsplit) == F(1, 2)

    def test_zero_variance_for_random_grid_functions(self):
        rng = random.Random(1)
        for _ in range(30):
            n = rng.randint(2, 12)
            f = grid_step_function(rng, n)
            b = F(rng.randint(0, 9999), 10000)
            assert lattice_step_estimate(f, LatticeSpec(n, "uniform", b)) == step_integral(f)

    def test_extra_point_lattice_beats_mc(self):
        res = step_variance_experiment(self.halfsplit, 3, "uniform", reps=4000, seed=2)
        assert res["lattice_var"] < res["mc_var"]
        assert res["exact_integral"] == 0.5

    def test_constant_function_both_zero(self):
        const = StepFunction(((UnitInterval(F(0), F(1)), F(3)),))
        res = step_variance_experiment(const, 5, "uniform", reps=100, seed=0)
        assert res["lattice_var"] == 0.0 and res["mc_var"] == 0.0

    def test_lattice_at_n_plus_1_beats_mc_on_grid_functions(self):
        rng = random.Random(3)
        wins = 0
        for _ in range(20):
            n = rng.randint(3, 10)
            f = grid_step_function(rng, n)
            res = step_variance_experiment(f, n + 1, "uniform", reps=3000, seed=rng.randint(0, 99))
            if res["lattice_var"] <= res["mc_var"] * 1.05:
                wins += 1
        assert wins >= 19

    @pytest.mark.parametrize("n,mode", [(0, "uniform"), (-2, "paper"), (3, "grid")])
    def test_bad_lattice_rejected(self, n, mode):
        with pytest.raises(ParameterError):
            step_variance_experiment(self.halfsplit, n, mode, reps=10)


class TestCovarianceConstants:
    def test_n4(self):
        c_on, c_off = covariance_constants(4, reps=100_000, seed=0)
        assert abs(c_on - (1 / 4 - 1)) < 0.02
        assert abs(c_off - 1 / 4) < 0.02

    def test_n10(self):
        c_on, c_off = covariance_constants(10, reps=100_000, seed=1)
        assert abs(c_on - (-0.9)) < 0.02
        assert abs(c_off - 0.1) < 0.02

    def test_requires_n3(self):
        with pytest.raises(ParameterError):
            covariance_constants(2)

    @pytest.mark.parametrize("n", [3, 4, 10])
    def test_matrix_negative_semidefinite(self, n):
        top, vals = covariance_matrix_eigenvalues(n)
        assert abs(top) < 1e-12
        assert all(abs(v + 1) < 1e-12 for v in vals[: n - 1])


class TestNgramDiversity:
    def test_duplicate_pair_example(self):
        seqs = [(1, 2, 3), (1, 2, 3)]
        # d_1 = 3/6, d_2 = 2/4, d_3 = 1/2, d_4 = 0
        assert ngram_diversity(seqs) == pytest.approx(1.5)

    def test_distinct_tokens_single_sequence(self):
        assert ngram_diversity([(0, 1, 2, 3)], max_n=1) == 1.0

    def test_n_copies(self):
        for n in (2, 5, 10):
            assert ngram_diversity([(0, 1)] * n, max_n=1) == pytest.approx(1 / n)

    def test_reorder_invariant_and_range(self):
        rng = random.Random(7)
        seqs = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(6)]
        d = ngram_diversity(seqs)
        shuffled = list(seqs)
        rng.shuffle(shuffled)
        assert ngram_diversity(shuffled) == d
        assert 0 <= d <= 4

    def test_eos_excluded(self):
        assert ngram_diversity([(0, 2), (1, 2)], max_n=1, eos=2) == 1.0

    @pytest.mark.parametrize("max_n", [0, -1])
    def test_max_n_below_one_rejected(self, max_n):
        with pytest.raises(ParameterError):
            ngram_diversity([(0, 1)], max_n=max_n)

    @given(
        st.lists(st.lists(st.integers(0, 3), max_size=7), min_size=1, max_size=6),
        st.lists(st.integers(0, 5), min_size=1, max_size=40),
        st.sampled_from([None, 0, 3]),
        st.integers(1, 6),
    )
    def test_matches_list_based_formula(self, pool, picks, eos, max_n):
        """Batches with repeats, list-typed sequences: the same float as one
        list of n-grams per n over every entry."""

        def reference(sequences):
            stripped = [[t for t in s if t != eos] if eos is not None else list(s) for s in sequences]
            d = 0.0
            for n in range(1, max_n + 1):
                grams = [tuple(s[i : i + n]) for s in stripped for i in range(len(s) - n + 1)]
                if grams:
                    d += len(set(grams)) / len(grams)
            return d

        batch = [pool[i % len(pool)] for i in picks]
        assert ngram_diversity(batch, max_n, eos) == reference(batch)
        assert ngram_diversity([tuple(s) for s in batch], max_n, eos) == reference(batch)


class TestSentenceBleu:
    def test_identity_is_maximal(self):
        ref = (0, 1, 2, 3)
        best = sentence_bleu(ref, ref)
        rng = random.Random(9)
        for _ in range(50):
            hyp = tuple(rng.randrange(4) for _ in range(4))
            assert sentence_bleu(hyp, ref) <= best

    def test_zero_overlap_smoothing(self):
        assert sentence_bleu((0, 0, 0, 0), (1, 1, 1, 1), max_n=1) == pytest.approx(0.2)

    def test_matches_list_clipping_reference(self):
        def reference(hyp, ref, max_n):
            log_prec = 0.0
            for n in range(1, max_n + 1):
                hg = [hyp[i : i + n] for i in range(len(hyp) - n + 1)]
                pool = [ref[i : i + n] for i in range(len(ref) - n + 1)]
                matched = 0
                for g in hg:
                    if g in pool:
                        pool.remove(g)
                        matched += 1
                log_prec += math.log((matched + 1) / (len(hg) + 1))
            return math.exp(min(0.0, 1.0 - len(ref) / len(hyp))) * math.exp(log_prec / max_n)

        rng = random.Random(11)
        for _ in range(2000):
            hyp = tuple(rng.randrange(3) for _ in range(rng.randint(1, 9)))
            ref = tuple(rng.randrange(3) for _ in range(rng.randint(1, 9)))
            max_n = rng.randint(1, 6)
            expected = reference(hyp, ref, max_n)
            # the second call and the list call are answered from the cache
            assert sentence_bleu(hyp, ref, max_n) == expected
            assert sentence_bleu(hyp, ref, max_n) == expected
            assert sentence_bleu(list(hyp), list(ref), max_n) == expected

    def test_repeated_ngrams_are_clipped(self):
        # three (0, 0) bigrams in the hypothesis, one in the reference
        assert sentence_bleu((0, 0, 0, 0), (0, 0), max_n=1) == pytest.approx(3 / 5)
        assert sentence_bleu((0, 0, 0, 0), (0, 0), max_n=2) == pytest.approx(math.sqrt(3 / 5 * 2 / 4))
        assert sentence_bleu((0, 0), (0, 0, 0, 0), max_n=1) == pytest.approx(math.exp(-1))

    def test_empty_hypothesis(self):
        assert sentence_bleu((), (1, 2)) == 0.0

    def test_empty_reference_rejected_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ParameterError):
                sentence_bleu((1, 2), ())
            with pytest.raises(ParameterError):
                sentence_bleu([1, 2], [])

    @pytest.mark.parametrize("max_n", [0, -1])
    def test_max_n_below_one_rejected(self, max_n):
        with pytest.raises(ParameterError):
            sentence_bleu((1,), (1,), max_n=max_n)

    def test_permutation_symmetry(self):
        hyp, ref = (0, 1, 1, 2), (0, 2, 1, 0)
        perm = {0: 2, 1: 0, 2: 1}
        assert sentence_bleu(hyp, ref) == pytest.approx(
            sentence_bleu(tuple(perm[t] for t in hyp), tuple(perm[t] for t in ref))
        )
