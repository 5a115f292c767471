"""Sequence models, modifier transforms, and the model-file format."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arithdecode import (
    CategoricalDistribution,
    MarkovModel,
    Nucleus,
    SyntheticLM,
    TabularModel,
    Temperature,
    TopK,
    Vocabulary,
    conditional_modified,
    enumerate_joint,
    sequence_logprob,
)
from arithdecode.models import (
    apply_nucleus,
    apply_temperature,
    apply_top_k,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from arithdecode.errors import (
    InvalidModelError,
    InvalidPrefixError,
    InvalidSequenceError,
    ParameterError,
)
from util import bernoulli_model, deterministic_model, random_tabular_model

F = Fraction


def weights_dist():
    return (
        st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=8)
        .filter(lambda w: sum(w) > 0)
        .map(lambda w: CategoricalDistribution(tuple(F(x, sum(w)) for x in w)))
    )


class TestModifiers:
    def test_temperature_identity(self):
        d = CategoricalDistribution((F(3, 5), F(2, 5)))
        assert apply_temperature(d, 1.0) is d

    def test_temperature_symmetric(self):
        d = CategoricalDistribution((0.5, 0.5))
        out = apply_temperature(d, 0.37)
        assert out.probs == pytest.approx((0.5, 0.5))

    def test_temperature_half_squares(self):
        out = apply_temperature(CategoricalDistribution((0.8, 0.2)), 0.5)
        # p^2 renormalized: 64/68, 4/68
        assert out.probs == pytest.approx((64 / 68, 4 / 68))

    @pytest.mark.parametrize("t", [1e-3, 1e-6, 1e-300])
    @pytest.mark.parametrize(
        "probs",
        [(0.5, 0.3, 0.2), (F(1, 2), F(3, 10), F(1, 5)), (0.1, 0.0, 0.6, 0.3),
         (0.4, 0.4, 0.2), (F(2, 5), F(1, 5), F(2, 5)), (F(1, 3), F(1, 3), F(1, 3))],
    )
    def test_small_temperature_keeps_the_mode(self, probs, t):
        # p ** (1 / t) underflows to 0 for every symbol of most of these rows
        top = max(probs)
        out = apply_temperature(CategoricalDistribution(probs), t).probs
        shares = {q for p, q in zip(probs, out) if p == top}
        assert len(shares) == 1 and shares.pop() == pytest.approx(1 / probs.count(top))
        assert all(q < 1e-300 for p, q in zip(probs, out) if p != top)

    @given(weights_dist(), st.sampled_from([1e-6, 1e-300]))
    def test_tiny_temperature_splits_mass_over_the_modes(self, d, t):
        top = max(d.probs)
        modes = d.probs.count(top)
        assert apply_temperature(d, t).probs == tuple(1 / modes if p == top else 0.0 for p in d.probs)

    def test_temperature_formula_kept_where_it_does_not_underflow(self):
        probs = (0.5, 0.3, 0.2)
        powered = [p ** (1 / 0.002) for p in probs]
        expected = tuple(p / sum(powered) for p in powered)
        assert apply_temperature(CategoricalDistribution(probs), 0.002).probs == expected

    def test_temperature_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            apply_temperature(CategoricalDistribution((1.0,)), 0.0)

    def test_top_k_example(self):
        out = apply_top_k(CategoricalDistribution((F(3, 5), F(3, 10), F(1, 10))), 2)
        assert out.probs == (F(2, 3), F(1, 3), F(0))

    def test_nucleus_example(self):
        out = apply_nucleus(CategoricalDistribution((F(1, 2), F(3, 10), F(1, 5))), 0.8)
        assert out.probs == (F(5, 8), F(3, 8), F(0))

    @given(weights_dist())
    def test_identity_modifiers(self, d):
        assert apply_top_k(d, len(d)).probs == d.probs
        assert apply_nucleus(d, 1.0).probs == d.probs
        assert apply_temperature(d, 1.0).probs == d.probs

    @given(weights_dist(), st.integers(min_value=1, max_value=8))
    def test_top_k_preserves_order_of_survivors(self, d, k):
        out = apply_top_k(d, k)
        survivors = [(i, p) for i, p in enumerate(out.probs) if p > 0]
        for (i, p), (j, q) in zip(survivors, survivors[1:]):
            # relative order of the originals is preserved
            assert (d.probs[i] > d.probs[j]) == (p > q)
            assert (d.probs[i] < d.probs[j]) == (p < q)

    @given(weights_dist(), st.floats(min_value=0.05, max_value=1.0))
    def test_nucleus_keeps_probability_sorted_prefix(self, d, p):
        out = apply_nucleus(d, p)
        kept = {i for i, q in enumerate(out.probs) if q > 0}
        order = sorted(range(len(d)), key=lambda i: (-d.probs[i], i))
        assert kept == set(order[: len(kept)])

    @given(weights_dist(), st.integers(min_value=1, max_value=8), st.floats(min_value=0.05, max_value=1.0))
    def test_modifier_closure(self, d, k, p):
        for out in (apply_top_k(d, k), apply_nucleus(d, p), apply_temperature(d, 0.5)):
            assert isinstance(out, CategoricalDistribution)  # constructor revalidates


class TestConditionalModified:
    def test_identity_chain(self):
        m = bernoulli_model()
        raw = m.conditional(())
        out = conditional_modified(m, (), [Temperature(1.0)])
        assert out.probs == raw.probs

    def test_complete_prefix_rejected(self):
        m = bernoulli_model(max_length=2)
        with pytest.raises(InvalidPrefixError):
            conditional_modified(m, (0, 1), None)

    def test_chain_order_is_left_to_right(self):
        d = CategoricalDistribution((0.5, 0.3, 0.2))
        m = MarkovModel(0, {(): (0.5, 0.3, 0.2)}, Vocabulary(("a", "b", "c")), 1)
        out = conditional_modified(m, (), [TopK(2), Temperature(1.0)])
        assert out.probs == pytest.approx((0.625, 0.375, 0.0))


class TestSequenceLogprob:
    def test_deterministic_zero(self):
        m = deterministic_model((0, 1, 0))
        assert sequence_logprob(m, (0, 1, 0)) == 0.0

    def test_bernoulli_ab(self):
        m = bernoulli_model()
        assert sequence_logprob(m, (0, 1)) == pytest.approx(math.log(0.24))

    def test_top_k_zeroed_token(self):
        m = bernoulli_model()
        assert sequence_logprob(m, (1, 1), [TopK(1)]) == -math.inf

    def test_out_of_vocab_rejected(self):
        with pytest.raises(InvalidSequenceError):
            sequence_logprob(bernoulli_model(), (0, 7))


class TestTabularModel:
    table = {
        (0, 0): F(9, 25),
        (0, 1): F(6, 25),
        (1, 0): F(6, 25),
        (1, 1): F(4, 25),
    }

    def test_marginalization(self):
        m = TabularModel(self.table, Vocabulary(("A", "B")), 2)
        assert m.conditional(()).probs == (F(3, 5), F(2, 5))
        assert m.conditional((1,)).probs == (F(3, 5), F(2, 5))

    def test_point_mass_is_deterministic(self):
        m = TabularModel({(0,): F(1)}, Vocabulary(("X",)), 1)
        assert m.conditional(()).probs == (F(1),)

    def test_non_normalized_rejected(self):
        with pytest.raises(InvalidModelError):
            TabularModel({(0, 0): F(1, 2)}, Vocabulary(("A", "B")), 2)

    def test_roundtrip_reproduces_table(self):
        m = TabularModel(self.table, Vocabulary(("A", "B")), 2)
        for seq, p in self.table.items():
            assert abs(math.exp(sequence_logprob(m, seq)) - float(p)) < 1e-12

    @given(st.integers(min_value=0, max_value=10_000))
    def test_prefix_probability_additivity(self, seed):
        m = random_tabular_model(random.Random(seed), vocab_size=3, max_length=3, eos=2)
        joint = enumerate_joint(m)
        mass = {}
        for seq, p in joint.entries:
            for i in range(len(seq) + 1):
                mass[seq[:i]] = mass.get(seq[:i], F(0)) + p
        for prefix, p in mass.items():
            if m.is_complete(prefix) or p == 0:
                continue
            children = sum(mass.get(prefix + (v,), F(0)) for v in range(3))
            assert children == p


class TestMarkovModel:
    def test_identity_rows_deterministic(self):
        rows = {(): (F(1), F(0)), (0,): (F(1), F(0)), (1,): (F(0), F(1))}
        m = MarkovModel(1, rows, Vocabulary(("A", "B")), 3)
        assert enumerate_joint(m).entries == (((0, 0, 0), F(1)),)

    def test_uniform_rows_uniform_joint(self):
        rows = {(): (F(1, 2), F(1, 2)), (0,): (F(1, 2), F(1, 2)), (1,): (F(1, 2), F(1, 2))}
        m = MarkovModel(1, rows, Vocabulary(("A", "B")), 3)
        assert all(p == F(1, 8) for _, p in enumerate_joint(m).entries)

    def test_two_state_chain_matches_hand_product(self):
        rows = {(): (F(3, 4), F(1, 4)), (0,): (F(1, 2), F(1, 2)), (1,): (F(1, 3), F(2, 3))}
        m = MarkovModel(1, rows, Vocabulary(("A", "B")), 2)
        joint = dict(enumerate_joint(m).entries)
        assert joint == {
            (0, 0): F(3, 4) * F(1, 2),
            (0, 1): F(3, 4) * F(1, 2),
            (1, 0): F(1, 4) * F(1, 3),
            (1, 1): F(1, 4) * F(2, 3),
        }

    def test_missing_row_rejected(self):
        m = MarkovModel(1, {(): (F(1, 2), F(1, 2))}, Vocabulary(("A", "B")), 2)
        with pytest.raises(InvalidModelError):
            m.conditional((0,))


class TestSyntheticLM:
    def test_same_seed_identical(self):
        a = SyntheticLM(7, 4, 3)
        b = SyntheticLM(7, 4, 3)
        for prefix in [(), (0,), (1, 2), (3, 3)]:
            assert a.conditional(prefix).probs == b.conditional(prefix).probs

    def test_different_seeds_differ(self):
        a = SyntheticLM(7, 4, 3)
        b = SyntheticLM(8, 4, 3)
        assert a.conditional(()).probs != b.conditional(()).probs

    def test_high_peakedness_near_one_hot(self):
        m = SyntheticLM(7, 4, 3, peakedness=500.0)
        for prefix in [(), (0,), (2, 1)]:
            assert max(m.conditional(prefix).probs) > 0.999

    def test_conditionals_normalized(self):
        m = SyntheticLM(7, 4, 3)
        rng = random.Random(0)
        for _ in range(50):
            prefix = tuple(rng.randrange(4) for _ in range(rng.randrange(3)))
            assert abs(sum(m.conditional(prefix).probs) - 1.0) < 1e-9

    @pytest.mark.parametrize("size", [2, 3, 9, 17])
    @pytest.mark.parametrize("peakedness", [1e300, 1e308, 1.7e308])
    def test_extreme_peakedness_puts_all_mass_on_the_mode(self, size, peakedness):
        # for some seeds every peakedness * log(u) of a conditional overflows to -inf
        for seed in range(50):
            for prefix in [(), (1,)]:
                mode = max(range(size), key=SyntheticLM(seed, size, 3).conditional(prefix).probs.__getitem__)
                probs = SyntheticLM(seed, size, 3, peakedness).conditional(prefix).probs
                assert probs == tuple(float(i == mode) for i in range(size))

    @pytest.mark.parametrize("size", range(2, 9))
    def test_small_vocabularies_read_one_digest(self, size):
        # Up to eight symbols the conditional comes from a single 8*V-byte
        # digest; the acceptance criteria's expected values depend on it.
        digest = hashlib.blake2b(b"7|1,0", digest_size=8 * size).digest()
        words = [int.from_bytes(digest[8 * i : 8 * (i + 1)], "big") for i in range(size)]
        logs = [2.0 * math.log((w + 1) / (2**64 + 1)) for w in words]
        weights = [math.exp(x - max(logs)) for x in logs]
        expected = tuple(w / sum(weights) for w in weights)
        assert SyntheticLM(7, size, 3, peakedness=2.0).conditional((1, 0)).probs == expected

    @given(
        st.integers(min_value=9, max_value=64),
        st.integers(min_value=0, max_value=2**32),
        st.lists(st.integers(min_value=0, max_value=8), max_size=3),
    )
    def test_large_vocabularies(self, size, seed, prefix):
        m = SyntheticLM(seed, size, 4)
        probs = m.conditional(tuple(prefix)).probs
        assert len(probs) == size
        assert abs(sum(probs) - 1.0) < 1e-9
        assert SyntheticLM(seed, size, 4).conditional(tuple(prefix)).probs == probs
        assert len(set(probs)) == size  # no block of the hash stream repeats


class TestModelFiles:
    def test_tabular_roundtrip(self, tmp_path):
        m = TabularModel(TestTabularModel.table, Vocabulary(("A", "B")), 2)
        path = tmp_path / "m.json"
        save_model(m, str(path))
        loaded = load_model(str(path))
        assert loaded.conditional(()).probs == m.conditional(()).probs
        assert dict(loaded.table) == dict(m.table)

    def test_markov_and_synthetic_roundtrip(self, tmp_path):
        rows = {(): (F(3, 5), F(2, 5)), (0,): (F(1, 2), F(1, 2)), (1,): (F(1), F(0))}
        mm = MarkovModel(1, rows, Vocabulary(("A", "B")), 3)
        thirds = MarkovModel(0, {(): (F(1, 3), F(2, 3))}, Vocabulary(("A", "B")), 2)
        sm = SyntheticLM(11, 5, 4, peakedness=2.0)
        for m in (mm, thirds, sm):
            path = tmp_path / "m.json"
            save_model(m, str(path))
            loaded = load_model(str(path))
            assert loaded.conditional(()).probs == m.conditional(()).probs
            if isinstance(m, MarkovModel):
                assert loaded.rows == m.rows

    def test_decimal_strings_parse_exactly(self):
        spec = {
            "type": "markov",
            "vocabulary": ["A", "B"],
            "eos": None,
            "max_length": 2,
            "order": 0,
            "rows": {"": ["0.6", "0.4"]},
        }
        m = model_from_dict(spec)
        assert m.conditional(()).probs == (F(3, 5), F(2, 5))

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InvalidModelError):
            load_model(str(path))

    def test_serialized_probs_are_decimal_when_possible(self):
        m = TabularModel(TestTabularModel.table, Vocabulary(("A", "B")), 2)
        d = model_to_dict(m)
        assert d["table"]["A A"] == "0.36"
        thirds = MarkovModel(0, {(): (F(1, 3), F(2, 3))}, Vocabulary(("A", "B")), 2)
        assert model_to_dict(thirds)["rows"][""] == ["1/3", "2/3"]
