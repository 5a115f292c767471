"""Unit-interval partitioning, code location, renormalization, lattices."""

import math
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithdecode import (
    CategoricalDistribution,
    EstimatorReport,
    ExactJoint,
    LatticeSpec,
    Nucleus,
    SampleEntry,
    SampleSet,
    StepFunction,
    Temperature,
    TopK,
    UnitInterval,
    Vocabulary,
    cdf_intervals,
    lattice_codes,
    locate,
    renormalize,
    shift_mod1,
)
from arithdecode.errors import ContractViolationError, InvalidDistributionError, ParameterError

F = Fraction


def exact_dists():
    """Random exact categorical distributions from integer weights."""
    return (
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8)
        .filter(lambda w: sum(w) > 0)
        .map(lambda w: CategoricalDistribution(tuple(F(x, sum(w)) for x in w)))
    )


class TestCdfIntervals:
    def test_two_symbol_example(self):
        ivs = cdf_intervals(CategoricalDistribution((F(3, 5), F(2, 5))))
        assert ivs == [(0, UnitInterval(0, F(3, 5))), (1, UnitInterval(F(3, 5), F(1)))]

    def test_single_symbol(self):
        ivs = cdf_intervals(CategoricalDistribution((F(1),)))
        assert ivs == [(0, UnitInterval(0, F(1)))]

    def test_zero_symbol_omitted(self):
        ivs = cdf_intervals(CategoricalDistribution((F(1, 5), F(0), F(3, 10), F(1, 2))))
        assert [i for i, _ in ivs] == [0, 2, 3]
        assert ivs[1][1] == UnitInterval(F(1, 5), F(1, 2))
        assert ivs[2][1] == UnitInterval(F(1, 2), F(1))

    def test_float_final_bound_clamped(self):
        probs = tuple([0.1] * 10)
        ivs = cdf_intervals(CategoricalDistribution(probs))
        assert ivs[-1][1].hi == 1.0

    def test_float_zero_width_symbol_omitted(self):
        # 0.5 + 1e-20 == 0.5 in floats, so the middle symbol owns no interval
        dist = CategoricalDistribution((0.5, 1e-20, 0.5))
        assert cdf_intervals(dist) == [(0, UnitInterval(0.0, 0.5)), (2, UnitInterval(0.5, 1.0))]
        assert locate(0.5, cdf_intervals(dist)) == 2

    def test_invalid_distribution_rejected(self):
        with pytest.raises(InvalidDistributionError):
            CategoricalDistribution((0.5, 0.4))
        with pytest.raises(InvalidDistributionError):
            CategoricalDistribution((F(1, 2), F(-1, 2), F(1)))

    @pytest.mark.parametrize("probs", [(math.nan, 1.0), (math.nan,), (math.inf, 0.0), (0.5, math.nan, 0.5)])
    def test_non_finite_distribution_rejected(self, probs):
        with pytest.raises(InvalidDistributionError, match="sum to"):
            CategoricalDistribution(probs)

    @given(exact_dists())
    def test_partition_property(self, dist):
        ivs = cdf_intervals(dist)
        assert sum(iv.width for _, iv in ivs) == 1
        for (_, a), (_, b) in zip(ivs, ivs[1:]):
            assert a.hi == b.lo  # contiguous, hence disjoint
        assert ivs[0][1].lo == 0 and ivs[-1][1].hi == 1
        for idx, iv in ivs:
            assert iv.width == dist.probs[idx]


class TestLocate:
    def setup_method(self):
        self.ivs = cdf_intervals(CategoricalDistribution((F(3, 5), F(2, 5))))

    def test_interior(self):
        assert locate(F(1, 2), self.ivs) == 0

    def test_boundary_goes_up(self):
        assert locate(F(3, 5), self.ivs) == 1

    def test_near_one(self):
        assert locate(F(999, 1000), self.ivs) == 1

    @pytest.mark.parametrize("c, where", [(F(-1, 4), "below"), (F(1), "above"), (F(3, 2), "above")])
    def test_code_outside_the_partition_rejected(self, c, where):
        with pytest.raises(ContractViolationError, match=f"code {c} {where} the partition"):
            locate(c, self.ivs)

    @given(exact_dists(), st.fractions(min_value=0, max_value=1).filter(lambda x: x < 1))
    def test_locate_interval_consistency(self, dist, frac):
        ivs = cdf_intervals(dist)
        for idx, iv in ivs:
            c = iv.lo + frac * iv.width
            if c < iv.hi:
                assert locate(c, ivs) == idx

    @given(
        st.one_of(exact_dists(), exact_dists().map(lambda d: CategoricalDistribution(tuple(map(float, d.probs))))),
        st.lists(st.one_of(st.floats(-0.5, 1.5), st.fractions(-1, 2, max_denominator=100)), max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_bisect_on_the_lower_ends(self, dist, codes):
        ivs = cdf_intervals(dist)
        codes += [iv.lo for _, iv in ivs]  # on every cut
        for c in codes:
            pos = bisect_right([iv.lo for _, iv in ivs], c) - 1
            if pos < 0 or c >= ivs[-1][1].hi:
                with pytest.raises(ContractViolationError):
                    locate(c, ivs)
            else:
                assert locate(c, ivs) == ivs[pos][0]


class TestRenormalize:
    @pytest.mark.parametrize(
        "c,lo,hi,want",
        [
            (F(3, 10), F(0), F(3, 5), F(1, 2)),
            (F(3, 5), F(3, 5), F(1), F(0)),
            (F(4, 5), F(3, 5), F(1), F(1, 2)),
        ],
    )
    def test_examples(self, c, lo, hi, want):
        assert renormalize(c, UnitInterval(lo, hi)) == want

    def test_outside_interval_rejected(self):
        with pytest.raises(ContractViolationError):
            renormalize(F(7, 10), UnitInterval(F(0), F(3, 5)))

    @given(
        st.fractions(min_value=0, max_value=1),
        st.fractions(min_value=0, max_value=1),
        st.fractions(min_value=0, max_value=1),
    )
    def test_bijection_roundtrip(self, a, b, frac):
        lo, hi = min(a, b), max(a, b)
        if lo == hi or frac == 1:
            return
        iv = UnitInterval(lo, hi)
        c = lo + frac * iv.width
        r = renormalize(c, iv)
        assert 0 <= r < 1
        assert iv.lo + r * iv.width == c  # inverse affine map recovers c exactly


class TestLattice:
    def test_single_paper_code_is_midpoint(self):
        assert lattice_codes(LatticeSpec(1, "paper", F(0))) == [F(1, 2)]

    def test_uniform_mode(self):
        assert lattice_codes(LatticeSpec(4, "uniform", F(0))) == [0, F(1, 4), F(1, 2), F(3, 4)]

    def test_uniform_wrap(self):
        assert lattice_codes(LatticeSpec(2, "uniform", F(9, 10))) == [F(9, 10), F(2, 5)]

    def test_invalid_spec(self):
        with pytest.raises(ParameterError):
            LatticeSpec(0)
        with pytest.raises(ParameterError):
            LatticeSpec(3, "hexagonal")
        with pytest.raises(ParameterError):
            LatticeSpec(3, "paper", 1.5)

    @given(st.integers(min_value=1, max_value=40), st.fractions(min_value=0, max_value=1).filter(lambda b: b < 1))
    def test_uniform_gaps_all_equal(self, n, b):
        codes = sorted(lattice_codes(LatticeSpec(n, "uniform", b)))
        gaps = [y - x for x, y in zip(codes, codes[1:])] + [1 - codes[-1] + codes[0]]
        assert all(g == F(1, n) for g in gaps)

    @given(st.integers(min_value=2, max_value=40), st.fractions(min_value=0, max_value=1).filter(lambda b: b < 1))
    def test_paper_gaps(self, n, b):
        codes = sorted(lattice_codes(LatticeSpec(n, "paper", b)))
        gaps = [y - x for x, y in zip(codes, codes[1:])] + [1 - codes[-1] + codes[0]]
        assert min(gaps) == F(1, n + 1)
        assert sorted(gaps)[-1] == F(2, n + 1)
        assert gaps.count(F(2, n + 1)) == 1

    @given(st.integers(min_value=1, max_value=60), st.fractions(min_value=0, max_value=1).filter(lambda b: b < 1))
    def test_codes_in_unit_interval(self, n, b):
        for mode in ("paper", "uniform"):
            for c in lattice_codes(LatticeSpec(n, mode, b)):
                assert 0 <= c < 1

    @given(
        st.integers(min_value=1, max_value=300),
        st.sampled_from(["paper", "uniform"]),
        st.one_of(
            st.floats(0, 1, exclude_max=True),
            st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda b: b < 1),
            st.just(0),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_shifts_each_base_point_by_shift_mod1(self, n, mode, b):
        exact = isinstance(b, (int, F))
        if mode == "paper":
            base = [F(i, n + 1) if exact else i / (n + 1) for i in range(1, n + 1)]
        else:
            base = [F(i, n) if exact else i / n for i in range(n)]
        codes, expected = lattice_codes(LatticeSpec(n, mode, b)), [shift_mod1(x, b) for x in base]
        assert repr(codes) == repr(expected)
        assert list(map(type, codes)) == list(map(type, expected))


class TestShiftMod1:
    def test_examples(self):
        assert math.isclose(shift_mod1(0.7, 0.5), 0.2)
        assert shift_mod1(F(3, 10), F(0)) == F(3, 10)
        assert shift_mod1(F(0), F(999, 1000)) == F(999, 1000)

    @given(st.integers(min_value=0, max_value=999))
    def test_marginal_uniform_over_grid(self, k):
        # for fixed c on a fine grid, c + b mod 1 permutes the grid as b sweeps it
        c = F(k, 1000)
        hits = {shift_mod1(c, F(j, 1000)) for j in range(1000)}
        assert hits == {F(j, 1000) for j in range(1000)}


def _records():
    """(value built by keyword with its defaults, its repr, its fields in order)
    for each frozen value class of the package."""
    entry = SampleEntry(sequence=(0, 1), code=None, logprob=-1.0)
    entry_repr = "SampleEntry(sequence=(0, 1), code=None, logprob=-1.0)"
    whole = UnitInterval(lo=0, hi=1)
    return [
        (UnitInterval(lo=F(1, 4), hi=F(1, 2)), "UnitInterval(lo=Fraction(1, 4), hi=Fraction(1, 2))",
         (F(1, 4), F(1, 2))),
        (CategoricalDistribution(probs=[0.25, 0.75]), "CategoricalDistribution(probs=(0.25, 0.75))",
         ((0.25, 0.75),)),
        (LatticeSpec(n=4), "LatticeSpec(n=4, mode='paper', shift=0.0)", (4, "paper", 0.0)),
        (Vocabulary(symbols=["a", "b"]), "Vocabulary(symbols=('a', 'b'), eos=None)", (("a", "b"), None)),
        (Temperature(t=0.5), "Temperature(t=0.5)", (0.5,)),
        (TopK(k=2), "TopK(k=2)", (2,)),
        (Nucleus(p=0.9), "Nucleus(p=0.9)", (0.9,)),
        (entry, entry_repr, ((0, 1), None, -1.0)),
        (SampleSet(entries=(entry,), method="ancestral"),
         f"SampleSet(entries=({entry_repr},), method='ancestral', shift=None)", ((entry,), "ancestral", None)),
        (StepFunction(pieces=[(whole, 2)]), "StepFunction(pieces=((UnitInterval(lo=0, hi=1), 2),))",
         (((whole, 2),),)),
        (EstimatorReport(method="arithmetic", n=4, reps=2, mean=0.5, sd=0.25, percentile_2_5=0.125,
                         percentile_97_5=0.875),
         "EstimatorReport(method='arithmetic', n=4, reps=2, mean=0.5, sd=0.25, percentile_2_5=0.125, "
         "percentile_97_5=0.875)", ("arithmetic", 4, 2, 0.5, 0.25, 0.125, 0.875)),
        (ExactJoint(entries=(((0,), F(1)),)), "ExactJoint(entries=(((0,), Fraction(1, 1)),))",
         ((((0,), F(1)),),)),
    ]


RECORDS = _records()


class TestRecords:
    """The package's value classes compare, hash and print by their fields, as
    frozen dataclasses do, and refuse assignment."""

    @pytest.mark.parametrize("value, text, fields", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS])
    def test_value_semantics(self, value, text, fields):
        assert repr(value) == text
        assert hash(value) == hash(fields)
        assert value != fields and not value == fields
        twin = type(value)(*fields)
        assert twin == value and hash(twin) == hash(value) and twin is not value
        name = text[text.index("(") + 1 : text.index("=")]  # the first field
        with pytest.raises(AttributeError):
            setattr(value, name, fields[0])
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert repr(value) == text

    def test_equality_needs_the_same_class(self):
        class Spec(LatticeSpec):
            pass

        assert LatticeSpec(4) != Spec(4)
        assert LatticeSpec(4) != LatticeSpec(5) and LatticeSpec(4) == LatticeSpec(4, "paper", 0.0)

    def test_exactness_is_not_a_field(self):
        dist = CategoricalDistribution((1, 0))
        assert dist.is_exact and dist.probs == (F(1), F(0))
        assert repr(dist) == "CategoricalDistribution(probs=(Fraction(1, 1), Fraction(0, 1)))"
        assert dist == CategoricalDistribution((F(1), F(0))) and hash(dist) == hash(((F(1), F(0)),))
