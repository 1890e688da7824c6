"""Valuations, square classes, and Hilbert symbols: frozen values and identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guards import wall_clock_guard
from chatelet import (
    REAL_PLACE,
    PrecisionError,
    candidate_places,
    chi,
    classify_extension,
    global_chow,
    hilbert_oracle,
    hilbert_symbol,
    is_local_square,
    is_rational_square,
    legendre,
    local_chow,
    norm_char_fn,
    normalize_roots,
    reciprocity_check,
    require_prime_place,
    suggested_oracle_precision,
    unit_residue,
    valuation,
)

nonzero_rationals = st.fractions(
    min_value=-400, max_value=400, max_denominator=360
).filter(lambda r: r != 0)
places = st.sampled_from([REAL_PLACE, 2, 3, 5, 7, 11, 13])


def square_class_units(p):
    """Small integers covering the unit square classes of Q_p."""
    if p == 2:
        return (1, 3, 5, 7)
    return (1, next(n for n in range(2, p) if legendre(n, p)))


# Each entry point with one argument left open for an inexact value.
_ENTRY_POINTS = {
    "local_chow-d": lambda x: local_chow(x, 0, 1, 2, 5),
    "local_chow-root": lambda x: local_chow(2, 0, x, 3, 5),
    "local_chow-root-split": lambda x: local_chow(4, 0, x, 3, 5),
    "global_chow-d": lambda x: global_chow(x, 0, 1, 2),
    "global_chow-root": lambda x: global_chow(-1, 0, x, 2),
    "candidate_places-d": lambda x: candidate_places(x, 0, 1, 2),
    "candidate_places-root": lambda x: candidate_places(-1, 0, x, 2),
    "reciprocity_check-a": lambda x: reciprocity_check(x, 5),
    "reciprocity_check-b": lambda x: reciprocity_check(3, x),
    "normalize_roots": lambda x: normalize_roots(0, x, 2, 5),
    "chi-d": lambda x: chi(x, 3, 5),
    "chi-x": lambda x: chi(2, x, 5),
    "chi-x-dyadic": lambda x: chi(-1, x, 2),
    "chi-x-real": lambda x: chi(4, x, REAL_PLACE),
    "classify_extension": lambda x: classify_extension(x, 5),
}


class TestExactRationalInputs:
    """Library entry points take an int or a Fraction; anything else is a
    TypeError, never a silent conversion."""

    @pytest.mark.parametrize("value", [0.5, "3"], ids=["float", "str"])
    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_inexact_value_raises_type_error(self, entry, value):
        with pytest.raises(TypeError, match="expected an exact rational"):
            _ENTRY_POINTS[entry](value)

    def test_cached_equal_fraction_does_not_admit_a_float(self):
        # 0.5 == Fraction(1, 2) with the same hash: the caches must not
        # answer for the float from the Fraction's entry
        classify_extension(Fraction(1, 2), 5)
        norm_char_fn(Fraction(1, 2), 5)
        with pytest.raises(TypeError):
            classify_extension(0.5, 5)
        with pytest.raises(TypeError):
            norm_char_fn(0.5, 5)


class TestValuation:
    def test_integers(self):
        assert valuation(12, 2) == 2
        assert valuation(12, 3) == 1
        assert valuation(12, 5) == 0
        assert valuation(-250, 5) == 3

    def test_fractions(self):
        assert valuation(Fraction(3, 8), 2) == -3
        assert valuation(Fraction(9, 5), 3) == 2
        assert valuation(Fraction(-7, 49), 7) == -1

    def test_zero_raises(self):
        for zero in (0, Fraction(0)):
            with pytest.raises(ValueError, match="valuation of zero"):
                valuation(zero, 7)

    @pytest.mark.parametrize("p", [1, -1, 0, -5, 2.0, Fraction(5), "5"])
    def test_bad_base_raises_within_guard(self, p):
        # p = 1 and -1 looped forever, and p = 0 divided by zero
        with wall_clock_guard(5):
            with pytest.raises(ValueError, match="p must be an int >= 2"):
                valuation(5, p)
            with pytest.raises(ValueError, match="p must be an int >= 2"):
                unit_residue(5, p, 1)

    def test_ultrametric(self):
        for a, b in ((12, 45), (Fraction(5, 8), Fraction(7, 8)), (9, 18)):
            for p in (2, 3, 5):
                lhs = valuation(a + b, p)
                rhs = min(valuation(a, p), valuation(b, p))
                assert lhs >= rhs
                if valuation(a, p) != valuation(b, p):
                    assert lhs == rhs

    @pytest.mark.parametrize("p", [2, 3, 7, 101])
    def test_deep_valuations_match_one_division_at_a_time(self, p):
        # the doubling ladder against the division loop it replaced
        for v in [*range(70), 255, 256, 257, 1000]:
            for unit in (1, -1, p + 1, -(p * p - 1) * 10**20 - 1):
                if unit % p == 0:
                    continue
                num, den = unit * p**v, 1 + p
                expected_v, rest = 0, num
                while rest % p == 0:
                    rest //= p
                    expected_v += 1
                assert valuation(Fraction(num, den), p) == expected_v == v
                assert valuation(Fraction(den, num), p) == -v
                modulus = p**3
                assert unit_residue(num, p, 3) == rest % modulus


class TestUnitResidue:
    def test_values(self):
        assert unit_residue(12, 2, 3) == 3
        assert unit_residue(Fraction(3, 8), 2, 3) == 3
        assert unit_residue(50, 5, 2) == 2

    def test_inverse_of_denominator(self):
        # 1/3 = 3^{-1}, a unit mod 25 with 3 * u = 1
        u = unit_residue(Fraction(1, 3), 5, 2)
        assert (3 * u) % 25 == 1


class TestLegendre:
    def test_values(self):
        assert legendre(2, 7) == 0
        assert legendre(3, 7) == 1
        assert legendre(4, 5) == 0
        assert legendre(2, 5) == 1
        assert legendre(2, 3) == 1
        assert legendre(-1, 7) == 1

    def test_matches_square_enumeration(self):
        for p in (3, 5, 7, 11, 13):
            residues = {x * x % p for x in range(1, p)}
            for a in range(1, p):
                assert legendre(a, p) == (0 if a in residues else 1)


class TestSquareness:
    def test_local(self):
        assert is_local_square(2, 7)
        assert not is_local_square(3, 7)
        assert not is_local_square(12, 3)  # odd valuation
        assert is_local_square(17, 2)  # 1 mod 8
        assert not is_local_square(7, 2)
        assert is_local_square(9, REAL_PLACE)
        assert not is_local_square(-9, REAL_PLACE)
        assert not is_local_square(18, 2)

    @pytest.mark.parametrize("place", [9, 15, 1, -3])
    def test_local_bad_place_rejected(self, place):
        with pytest.raises(ValueError, match="place must be a prime or 'real'"):
            is_local_square(2, place)

    def test_local_zero_rejected(self):
        with pytest.raises(ValueError):
            is_local_square(0, 5)

    def test_rational(self):
        assert is_rational_square(Fraction(49, 4))
        assert is_rational_square(0)
        assert is_rational_square(1)
        assert not is_rational_square(2)
        assert not is_rational_square(-4)

    def test_rational_reduces_first(self):
        assert is_rational_square(Fraction(8, 2))  # 8/2 = 4

    def test_class_representatives_detect_squares(self):
        # r is a local square iff every symbol against the class reps vanishes
        samples = (Fraction(5), Fraction(-7, 3), Fraction(18), Fraction(50, 49), Fraction(4))
        for p in (2, 3, 5, 7):
            reps = [u * s for u in square_class_units(p) for s in (1, p)]
            for r in samples:
                expected = all(hilbert_symbol(r, b, p) == 0 for b in reps)
                assert is_local_square(r, p) == expected


class TestHilbertSymbolFrozen:
    def test_dyadic(self):
        assert hilbert_symbol(-1, -1, 2) == 1
        assert hilbert_symbol(2, 3, 2) == 1
        assert hilbert_symbol(-1, 2, 2) == 0
        assert hilbert_symbol(17, 3, 2) == 0  # 17 is a dyadic square

    def test_odd(self):
        assert hilbert_symbol(-1, -1, 5) == 0
        assert hilbert_symbol(5, 2, 5) == 1
        assert hilbert_symbol(2, 7, 7) == 0
        assert hilbert_symbol(3, 7, 7) == 1
        assert hilbert_symbol(-1, 7, 7) == 1
        assert hilbert_symbol(-1, -7, 7) == 1

    def test_real(self):
        assert hilbert_symbol(-1, -1, REAL_PLACE) == 1
        assert hilbert_symbol(-1, 2, REAL_PLACE) == 0
        assert hilbert_symbol(3, 5, REAL_PLACE) == 0

    def test_fraction_arguments(self):
        assert hilbert_symbol(Fraction(-1, 4), Fraction(-9), 2) == 1
        assert hilbert_symbol(Fraction(5, 49), Fraction(2), 5) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            hilbert_symbol(0, 3, 5)
        with pytest.raises(ValueError):
            hilbert_symbol(3, 0, REAL_PLACE)

    def test_composite_place_rejected(self):
        with pytest.raises(ValueError):
            hilbert_symbol(1, 2, 9)
        with pytest.raises(ValueError):
            require_prime_place(1)
        assert require_prime_place(13) == 13


class TestHilbertSymbolProperties:
    @settings(max_examples=150, deadline=None)
    @given(nonzero_rationals, nonzero_rationals, places)
    def test_symmetry(self, a, b, v):
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)

    @settings(max_examples=150, deadline=None)
    @given(nonzero_rationals, nonzero_rationals, nonzero_rationals, places)
    def test_bilinearity(self, a, b, c, v):
        total = (
            hilbert_symbol(a, b * c, v)
            + hilbert_symbol(a, b, v)
            + hilbert_symbol(a, c, v)
        )
        assert total % 2 == 0

    @settings(max_examples=150, deadline=None)
    @given(nonzero_rationals, places)
    def test_negated_argument(self, a, v):
        assert hilbert_symbol(a, -a, v) == 0

    @settings(max_examples=150, deadline=None)
    @given(nonzero_rationals, nonzero_rationals, places)
    def test_squares_are_norms(self, a, s, v):
        assert hilbert_symbol(a, s * s, v) == 0

    @settings(max_examples=150, deadline=None)
    @given(nonzero_rationals.filter(lambda a: a != 1), places)
    def test_steinberg(self, a, v):
        # (a, 1 - a) = 0 whenever both entries are nonzero
        assert hilbert_symbol(a, 1 - a, v) == 0


class TestReciprocity:
    def _support(self, *values):
        places = {REAL_PLACE, 2}
        for value in values:
            n = Fraction(value).numerator * Fraction(value).denominator
            n = abs(n)
            for p in (2, 3, 5, 7, 11, 13, 17, 19):
                while n % p == 0:
                    places.add(p)
                    n //= p
            assert n == 1, "sample must stay smooth"
        return places

    @pytest.mark.parametrize(
        "a,b",
        [
            (-1, -1),
            (-1, -7),
            (2, 3),
            (2, 5),
            (Fraction(3, 5), Fraction(-14, 9)),
            (Fraction(-17, 4), 19),
        ],
    )
    def test_product_formula(self, a, b):
        total = sum(hilbert_symbol(a, b, v) for v in self._support(a, b))
        assert total % 2 == 0


class TestOracle:
    def test_frozen(self):
        assert hilbert_oracle(-1, -1, 2, 6) == 1
        assert hilbert_oracle(1, 7, 5, 3) == 0
        assert hilbert_oracle(5, 2, 5, 4) == 1

    def test_first_argument_one_is_always_solvable(self):
        for b in (3, -6, Fraction(7, 5)):
            k = suggested_oracle_precision(1, b, 5)
            assert hilbert_oracle(1, b, 5, k) == 0

    def test_insufficient_precision_refuses(self):
        with pytest.raises(PrecisionError):
            hilbert_oracle(5, 2, 5, 3)  # needs k >= 4 once valuations enter

    def test_oversized_modulus_refuses(self):
        with pytest.raises(PrecisionError):
            hilbert_oracle(1, 2, 1999, 3)

    def test_suggested_precision(self):
        assert suggested_oracle_precision(5, 2, 5) == 5
        assert suggested_oracle_precision(1, 7, 5) == 3
        assert suggested_oracle_precision(-1, -1, 2) == 6
        assert suggested_oracle_precision(12, 2, 2) == 8  # 12 has even valuation

    def test_agrees_with_formula_on_grid(self):
        # deterministic miniature corpus; the big seeded one lives in checks
        values = (1, -1, 2, -2, 3, 5, -5, Fraction(1, 2), Fraction(-3, 4))
        for p in (2, 3, 5):
            for a in values:
                for b in values:
                    k = suggested_oracle_precision(a, b, p)
                    assert hilbert_oracle(a, b, p, k) == hilbert_symbol(a, b, p), (
                        a,
                        b,
                        p,
                    )
