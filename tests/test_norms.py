"""Quadratic extension classification, norm characters, conductors."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chatelet.norms
import flat_sweep
from chatelet import (
    REAL_PLACE,
    ExtKind,
    QuadExtClass,
    chi,
    classify_extension,
    conductor_n,
    hilbert_symbol,
    norm_char_fn,
    valuation,
)

nonzero_rationals = st.fractions(
    min_value=-400, max_value=400, max_denominator=360
).filter(lambda r: r != 0)
nonsquare_d = st.sampled_from(
    [Fraction(v) for v in (-1, -5, 2, -2, 3, 5, 6, 7, 10, -30)]
    + [Fraction(-3, 20), Fraction(5, 8)]
)
places = st.sampled_from([REAL_PLACE, 2, 3, 5, 7, 11, 13])


class TestClassifyExtension:
    def test_finite_kinds(self):
        assert classify_extension(2, 5).kind is ExtKind.UNRAMIFIED
        assert classify_extension(5, 5).kind is ExtKind.RAMIFIED
        assert classify_extension(-1, 2).kind is ExtKind.RAMIFIED
        assert classify_extension(17, 2).kind is ExtKind.SPLIT
        assert classify_extension(4, 7).kind is ExtKind.SPLIT
        assert classify_extension(5, 2).kind is ExtKind.UNRAMIFIED  # 5 mod 8

    def test_real_kinds(self):
        assert classify_extension(3, REAL_PLACE).kind is ExtKind.SPLIT
        assert classify_extension(-3, REAL_PLACE) == QuadExtClass(
            ExtKind.RAMIFIED, conductor_n=0
        )

    def test_dyadic_conductors(self):
        assert classify_extension(-1, 2) == QuadExtClass(ExtKind.RAMIFIED, 1)
        assert classify_extension(2, 2) == QuadExtClass(ExtKind.RAMIFIED, 2)
        assert classify_extension(-2, 2) == QuadExtClass(ExtKind.RAMIFIED, 2)
        assert classify_extension(-5, 2) == QuadExtClass(ExtKind.RAMIFIED, 1)

    def test_stability_moduli(self):
        # the window modulus of the flat-sweep oracle in tests/flat_sweep.py
        assert flat_sweep.window_modulus(classify_extension(2, 5)) == 0
        assert flat_sweep.window_modulus(classify_extension(5, 5)) == 1
        assert flat_sweep.window_modulus(classify_extension(-1, 2)) == 2
        assert flat_sweep.window_modulus(classify_extension(2, 2)) == 3
        with pytest.raises(ValueError):
            flat_sweep.window_modulus(classify_extension(4, 7))

    def test_square_class_invariance(self):
        for d in (Fraction(-1), Fraction(5), Fraction(2)):
            for s in (Fraction(9), Fraction(1, 4), Fraction(49, 25)):
                for place in (REAL_PLACE, 2, 3, 5):
                    assert classify_extension(d * s, place) == classify_extension(
                        d, place
                    )

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            classify_extension(0, 5)

    @pytest.mark.parametrize("d,place", [(2, 9), (3, 15), (2, 1), (0, 9), (2, "foo")])
    def test_bad_place_rejected(self, d, place):
        # the place is checked before d, so d = 0 at 9 names the place
        with pytest.raises(ValueError, match="place must be a prime or 'real'"):
            classify_extension(d, place)

    def test_classes_are_the_module_constants(self):
        # local and norms tell the classes apart by identity
        constants = (
            chatelet.norms._SPLIT,
            chatelet.norms._UNRAMIFIED,
            chatelet.norms._RAMIFIED,
            chatelet.norms._RAMIFIED_N1,
            chatelet.norms._RAMIFIED_N2,
        )
        seen = set()
        for place in (REAL_PLACE, 2, 3, 5, 7, 13):
            for num in range(-40, 41):
                for den in (1, 2, 3, 8, 49):
                    if num == 0:
                        continue
                    ext = classify_extension(Fraction(num, den), place)
                    assert any(ext is c for c in constants), (num, den, place)
                    seen.add(ext)
        assert seen == set(constants)
        # a nonzero conductor exponent marks exactly the two ramified classes at 2
        assert [c.conductor_n for c in constants] == [0, 0, 0, 1, 2]

    def test_kinds_match_symbols(self):
        # split iff d pairs to 0 with every square class (u and pu, u a
        # unit), the Hilbert pairing being nondegenerate; unramified iff chi
        # is trivial on units without being trivial
        units = lambda p: [u for u in range(1, 8 * p) if u % p]
        for p in (2, 3, 5, 7, 11, 13):
            for num in range(-24, 25):
                for den in (1, 2, 3, 4, 25):
                    if num == 0:
                        continue
                    d = Fraction(num, den)
                    kind = classify_extension(d, p).kind
                    split = all(hilbert_symbol(d, u * s, p) == 0 for u in units(p) for s in (1, p))
                    assert (kind is ExtKind.SPLIT) == split, (d, p)
                    if kind is not ExtKind.SPLIT:
                        blind = all(hilbert_symbol(d, u, p) == 0 for u in units(p))
                        assert (kind is ExtKind.UNRAMIFIED) == blind, (d, p)


class TestChi:
    def test_frozen(self):
        assert chi(-1, 3, 2) == 1
        assert chi(-1, 2, 2) == 0
        assert chi(2, 5, 5) == 1
        assert chi(-1, -3, REAL_PLACE) == 1
        assert chi(-1, Fraction(-3, 20), 2) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            chi(-1, 0, 2)

    def test_matches_hilbert_symbol(self):
        values = (1, -1, 2, -2, 3, -6, Fraction(5, 8), Fraction(-7, 12))
        for d in (-1, 2, 5, Fraction(-3, 20)):
            for x in values:
                for place in (REAL_PLACE, 2, 3, 5, 7):
                    assert chi(d, x, place) == hilbert_symbol(d, x, place)

    @settings(max_examples=150, deadline=None)
    @given(nonsquare_d, nonzero_rationals, nonzero_rationals, places)
    def test_homomorphism(self, d, x, y, place):
        assert chi(d, x * y, place) == (chi(d, x, place) + chi(d, y, place)) % 2

    @settings(max_examples=150, deadline=None)
    @given(
        nonsquare_d,
        st.fractions(min_value=-30, max_value=30, max_denominator=12),
        st.fractions(min_value=-30, max_value=30, max_denominator=12),
        places,
    )
    def test_norm_form_values_are_norms(self, d, s, t, place):
        # s^2 - d t^2 is a norm from the quadratic extension by construction
        x = s * s - d * t * t
        if x != 0:
            assert chi(d, x, place) == 0

    def test_unramified_units_are_norms(self):
        for d, p in ((2, 5), (5, 2), (3, 7)):
            assert classify_extension(d, p).kind is ExtKind.UNRAMIFIED
            for u in range(1, p * p):
                if u % p:
                    assert chi(d, u, p) == 0
                    assert chi(d, -u, p) == 0

    def test_uniformizer_detects_unramified(self):
        # in the unramified case chi is exactly the valuation parity
        for d, p in ((2, 5), (3, 7)):
            for x in (p, 3 * p, p**2, Fraction(1, p)):
                assert chi(d, x, p) == valuation(x, p) % 2


class TestNormCharFn:
    @settings(max_examples=200, deadline=None)
    @given(nonsquare_d, nonzero_rationals, places)
    def test_closure_matches_chi(self, d, x, place):
        fn = norm_char_fn(Fraction(d), place)
        assert fn(Fraction(x)) == chi(d, x, place)

    @settings(max_examples=200, deadline=None)
    @given(nonsquare_d, st.integers(min_value=-10**6, max_value=10**6).filter(bool), places)
    def test_closure_accepts_plain_ints(self, d, n, place):
        fn = norm_char_fn(Fraction(d), place)
        assert fn(n) == chi(d, n, place)

    @pytest.mark.parametrize("p", [3, 5, 7, 1009])
    def test_odd_evaluator_matches_hilbert_symbol(self, p):
        # d of valuation 0, 1, -1 and 2, each a nonresidue unit times a power
        # of p; x runs over every residue class, times p^-1, 1 and p^2.  A
        # residue unit at odd valuation gives (d, p)_p = eps(p) alone, which
        # tells p = 1 mod 4 from p = 3 mod 4.
        nonresidue = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) != 1)
        residue = next(n for n in range(p + 1, 2 * p) if pow(n, (p - 1) // 2, p) == 1)
        for d in (
            Fraction(nonresidue),
            Fraction(-p * nonresidue),
            Fraction(nonresidue, p),
            Fraction(-nonresidue * p * p),
            Fraction(p * residue),
            Fraction(residue, p),
        ):
            fn = norm_char_fn(d, p)
            for u in range(1, 2 * p + 1):
                for x in (Fraction(u, p), Fraction(u), Fraction(u * p * p)):
                    assert fn(x) == hilbert_symbol(d, x, p), (d, x)


class TestConductor:
    def test_frozen(self):
        assert conductor_n(-1) == 1
        assert conductor_n(2) == 2
        assert conductor_n(-2) == 2
        assert conductor_n(-5) == 1
        assert conductor_n(10) == 2
        assert conductor_n(-10) == 2

    def test_square_scaling_invariance(self):
        assert conductor_n(-9) == 1
        assert conductor_n(Fraction(-1, 4)) == 1
        assert conductor_n(Fraction(2, 9)) == 2
        assert conductor_n(8) == 2

    def test_against_brute_force_character(self):
        # chi must vanish on 1 + 2^(n+1) Z_2 and not on 1 + 2^n Z_2; besides
        # the fixed values, 200 seeded ramified d = 2^a w s^2 with a in
        # [-3, 3], w an odd unit (3 mod 4 when a is even) and s rational
        rng = random.Random(0)
        seeded = []
        for _ in range(200):
            a = rng.randint(-3, 3)
            w = rng.choice((1, -1)) * (2 * rng.randint(0, 500) + 1)
            if a % 2 == 0 and w % 4 == 1:
                w = -w
            s = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            seeded.append(Fraction(2) ** a * w * s * s)
        for d in [-1, -2, 2, -5, 10] + seeded:
            n = conductor_n(d)
            above = [u for u in range(1, 512, 2) if (u - 1) % 2 ** (n + 1) == 0]
            at = [u for u in range(1, 512, 2) if (u - 1) % 2**n == 0]
            assert all(chi(d, u, 2) == 0 for u in above)
            assert any(chi(d, u, 2) == 1 for u in at)

    def test_split_or_unramified_rejected(self):
        with pytest.raises(ValueError):
            conductor_n(17)  # dyadic square
        with pytest.raises(ValueError):
            conductor_n(5)  # unramified at 2

