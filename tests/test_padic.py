"""Valuations, square classes, and Hilbert symbols: frozen values and identities."""

import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chatelet
from guards import wall_clock_guard
from chatelet import (
    REAL_PLACE,
    candidate_places,
    chi,
    classify_extension,
    global_chow,
    hilbert_symbol,
    is_local_square,
    is_rational_square,
    legendre,
    local_chow,
    norm_char_fn,
    normalize_roots,
    reciprocity_check,
    require_prime_place,
    valuation,
)
from symbol_oracle import PrecisionError, hilbert_oracle, unit_residue

nonzero_rationals = st.fractions(
    min_value=-400, max_value=400, max_denominator=360
).filter(lambda r: r != 0)
places = st.sampled_from([REAL_PLACE, 2, 3, 5, 7, 11, 13])
# a prime past psi_13, the Miller-Rabin witness limit: it cannot be certified
UNCERTIFIABLE_PRIME = 10000000000000000000000013


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
    TypeError, never a silent conversion.  A bool is refused too, although it
    is an int: kept as the caller's value it would print as True or False,
    which no command line accepts back."""

    @pytest.mark.parametrize("value", [0.5, "3", True], ids=["float", "str", "bool"])
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

    def test_precision_below_one_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            unit_residue(3, 5, 0)


class TestLegendre:
    def test_values(self):
        assert legendre(2, 7) == 0
        assert legendre(3, 7) == 1
        assert legendre(4, 5) == 0
        assert legendre(2, 5) == 1
        assert legendre(2, 3) == 1
        assert legendre(-1, 7) == 1

    @pytest.mark.parametrize(
        "a,p,match",
        [
            (3, 4, "odd prime"),
            (6, 3, "divisible"),
            # an odd modulus that is not a prime is refused as a place is
            (4, 9, "prime"),
            (4, 15, "prime"),
            (4, 21, "prime"),
            (4, 1, "prime"),
            # legendre takes an odd prime only, so no refusal offers 'real'
            (2, REAL_PLACE, "odd prime"),
            (2, [3], "odd prime"),
            (3, 2, "odd prime"),
        ],
    )
    def test_even_modulus_and_multiple_of_p_rejected(self, a, p, match):
        with pytest.raises(ValueError, match=match) as refusal:
            legendre(a, p)
        assert "or 'real'" not in str(refusal.value)

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

    @pytest.mark.parametrize("place", [[2], {2: 3}, 2.0, "2"])
    def test_non_int_place_rejected(self, place):
        # the type is checked ahead of the cached primality test, so an
        # unhashable place is a ValueError, not a TypeError from the cache
        with pytest.raises(ValueError, match="place must be a prime or 'real'"):
            hilbert_symbol(3, 5, place)
        with pytest.raises(ValueError, match="place must be a prime or 'real'"):
            is_local_square(3, place)

    def test_primality_tested_once_per_place(self):
        from chatelet.factorint import is_prime

        is_prime.cache_clear()
        misses = []
        for _ in range(3):
            assert require_prime_place(13) == 13
            misses.append(is_prime.cache_info().misses)
            assert hilbert_symbol(2, 3, 13) == 0
            misses.append(is_prime.cache_info().misses)
            with pytest.raises(ValueError):
                require_prime_place(15)
            misses.append(is_prime.cache_info().misses)
        # 13 is proven by the first check, 15 by the first refusal, none again
        assert misses == [1, 1, 2] + [2] * 6

    def test_uncertifiable_place_refused_every_time(self):
        # a place past psi_13 is refused by its size, so a refusal never
        # turns into an answer
        for _ in range(2):
            with pytest.raises(ValueError, match="place must be a prime"):
                require_prime_place(UNCERTIFIABLE_PRIME)
            with pytest.raises(ValueError, match="place must be a prime"):
                local_chow(-1, 0, 1, 2, UNCERTIFIABLE_PRIME)
            with pytest.raises(ValueError, match="place must be a prime"):
                hilbert_symbol(2, 3, UNCERTIFIABLE_PRIME)

    def test_place_past_psi_13_refused_by_its_size(self, capsys):
        # past psi_13 is_prime never returns True, so every place reader
        # refuses such a place by its size, before any Miller-Rabin round
        # (thirteen rounds on 2^11213 - 1 take about 40 s); 10^5000 + 1 has
        # no decimal string at Python's default limit, so it is named by its
        # bit length
        from chatelet.cli import EXIT_INVALID_INPUT, main
        from chatelet.factorint import is_prime

        psi_13 = 3317044064679887385961981
        places = [2**11213 - 1, psi_13, 10**25 + 13, 10**5000 + 1]
        texts = [str(p) for p in places[:3]] + ["1" + "0" * 4999 + "1"]
        place_refusal = "place must be a prime or 'real', got "
        readers = [
            (require_prime_place, place_refusal),
            (lambda p: legendre(3, p), "legendre needs an odd prime, got "),
            (lambda p: hilbert_oracle(2, 3, p), "hilbert_oracle needs a prime, got "),
            (lambda p: classify_extension(-1, p), place_refusal),
            (lambda p: normalize_roots(0, 1, 2, p), place_refusal),
            (lambda p: hilbert_symbol(2, 3, p), place_refusal),
            (lambda p: is_local_square(3, p), place_refusal),
            (lambda p: local_chow(-1, 0, 1, 2, p), place_refusal),
        ]
        before = is_prime.cache_info()
        with wall_clock_guard(1):
            for p, text in zip(places, texts):
                for read, refusal in readers:
                    with pytest.raises(ValueError, match="^" + re.escape(refusal)):
                        read(p)
                with pytest.raises(SystemExit) as exc:
                    main(["local", "--d", "-1", "--roots", "0,1,2", "--p", text])
                assert exc.value.code == EXIT_INVALID_INPUT
                assert "place must be a prime" in capsys.readouterr().err
            with pytest.raises(ValueError, match=r", got an int of 16610 bits$"):
                require_prime_place(10**5000 + 1)
        assert is_prime.cache_info() == before
        # the largest prime below psi_13 is still proven and accepted
        assert require_prime_place(psi_13 - 168) == psi_13 - 168


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
        assert hilbert_oracle(-1, -1, 2) == 1
        assert hilbert_oracle(1, 7, 5) == 0
        assert hilbert_oracle(5, 2, 5) == 1

    def test_first_argument_one_is_always_solvable(self):
        for b in (3, -6, Fraction(7, 5)):
            assert hilbert_oracle(1, b, 5) == 0

    def test_oversized_modulus_refuses(self):
        # one odd valuation at 1999 needs k = 3, and 1999^3 is past the cap
        with pytest.raises(PrecisionError, match="exceeds"):
            hilbert_oracle(1999, 1, 1999)
        # two units need only k = 1: the search runs mod 1999
        assert hilbert_oracle(1, 2, 1999) == hilbert_symbol(1, 2, 1999) == 0

    @pytest.mark.parametrize("place", [REAL_PLACE, 9, [3]])
    def test_non_prime_refusal_offers_no_real_place(self, place):
        # the oracle searches mod a power of a prime only
        with pytest.raises(ValueError, match="prime") as refusal:
            hilbert_oracle(2, 3, place)
        assert "or 'real'" not in str(refusal.value)

    def test_search_memory_is_bounded(self):
        # one odd valuation at 113 makes each call a search mod 113^3; a
        # child process reports its peak resident set after three of them
        script = (
            "import resource\n"
            "from chatelet import hilbert_symbol\n"
            "from symbol_oracle import hilbert_oracle\n"
            "for b in (7, 11, 3):\n"
            "    assert hilbert_oracle(113, b, 113) == hilbert_symbol(113, b, 113), b\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        src = os.path.dirname(os.path.dirname(chatelet.__file__))
        path = os.pathsep.join([src, os.path.dirname(__file__)])
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        # ru_maxrss counts KiB on Linux and bytes on macOS
        peak_mb = int(done.stdout) / (2**20 if sys.platform == "darwin" else 2**10)
        assert peak_mb < 100, f"peak resident set {peak_mb:.0f} MB"

    def test_agrees_with_formula_on_grid(self):
        # deterministic miniature corpus; the seeded 500-draw ones run
        # symbol_oracle.symbol_mismatches
        values = (1, -1, 2, -2, 3, 5, -5, Fraction(1, 2), Fraction(-3, 4),
                  Fraction(5, 9), Fraction(-7, 12), Fraction(3, 50))
        # at 7, 11 and 13 values of odd valuation join the grid, so pairs
        # with one and with two odd valuations are searched there too
        odd = {7: (7, -7, Fraction(3, 7)), 11: (11, Fraction(-2, 11)),
               13: (13, Fraction(-5, 13), 26)}
        for p in (2, 3, 5, 7, 11, 13):
            grid = values + odd.get(p, ())
            for a in grid:
                for b in grid:
                    assert hilbert_oracle(a, b, p) == hilbert_symbol(a, b, p), (a, b, p)
