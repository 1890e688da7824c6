"""Primality certification and factoring."""

import random

import pytest

from chatelet import FactorizationError, factorize, is_prime
from guards import wall_clock_guard

# psi_12: the least strong pseudoprime to the twelve prime bases 2, ..., 37
PSI_12 = 318665857834031151167461
# psi_13, past which no proven witness set certifies a prime
PSI_13 = 3317044064679887385961981
# certifiable cofactors whose products with small primes lie past psi_13
PRIME_NEAR_4E21 = 4000000000000000000013
FIVE_PRIMES_NEAR_1E5 = 100003 * 100019 * 100043 * 100049 * 100057


def _sieve(limit):
    flags = [True] * limit
    flags[0] = flags[1] = False
    for n in range(2, int(limit**0.5) + 1):
        if flags[n]:
            flags[n * n :: n] = [False] * len(range(n * n, limit, n))
    return flags


class TestIsPrime:
    def test_matches_sieve(self):
        flags = _sieve(200_000)
        assert [n for n in range(len(flags)) if is_prime(n) != flags[n]] == []

    @pytest.mark.parametrize(
        "n,factors",
        [
            (2047, (23, 89)),
            (1373653, (829, 1657)),
            (25326001, (2251, 11251)),
            (3215031751, (151, 751, 28351)),
            (PSI_12, (399165290221, 798330580441)),
        ],
    )
    def test_strong_pseudoprimes_are_composite(self, n, factors):
        # each is the least strong pseudoprime to the witness set below it
        product = 1
        for f in factors:
            product *= f
        assert product == n
        assert not is_prime(n)

    def test_psi_12_is_not_a_certified_cofactor(self):
        assert factorize(PSI_12) == {399165290221: 1, 798330580441: 1}

    def test_matches_sympy_on_wide_integers(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(80)
        for _ in range(100):
            n = rng.randrange(2**63, 2**80)
            prime = sympy.nextprime(n)
            a = sympy.nextprime(rng.randrange(2**32, 2**40))
            b = sympy.nextprime(rng.randrange(2**32, 2**40))
            for m in (n, n | 1, prime, a * b):
                assert is_prime(m) == sympy.isprime(m), m
            assert is_prime(prime)

    def test_refuses_beyond_the_witness_limit(self):
        with pytest.raises(FactorizationError):
            is_prime(3317044064679887385961981)

    def test_witnesses_prove_composites_beyond_the_limit(self):
        for n in (1013 * PRIME_NEAR_4E21, FIVE_PRIMES_NEAR_1E5, PRIME_NEAR_4E21**2):
            assert n > PSI_13
            assert not is_prime(n)


class TestFactorize:
    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(8)

        def prime_near(lo, hi):
            return sympy.nextprime(rng.randrange(lo, hi))

        cases = [1, -1, -360, 2**61 - 1]
        for _ in range(8):
            p = prime_near(10**5, 10**12)
            cases += [p * prime_near(10**5, 10**9), -p * prime_near(10**5, 10**6)]
        for _ in range(3):
            p = prime_near(10**6 - 10**4, 10**6 + 10**4)
            cases += [p**2, p**3, 6 * p**2]
        for _ in range(4):
            # smooth parts below the trial division bound and just past it
            smooth = below = 1
            for _ in range(8):
                below *= prime_near(2, 1000)
            for _ in range(3):
                smooth *= prime_near(1000, 2000)
            cases += [
                below * prime_near(10**14, 10**16),
                below * smooth * prime_near(10**11, 10**12),
            ]
        for n in cases:
            expected = {int(p): e for p, e in sympy.factorint(abs(n)).items()}
            assert factorize(n) == expected, n

    def test_is_deterministic(self):
        n = 1000003 * 1000033 * 10007**2
        assert factorize(n) == factorize(n) == {10007: 2, 1000003: 1, 1000033: 1}

    def test_semiprime_below_psi_13_within_guard(self):
        # two primes near 1.8e12: n is just below psi_13, where the budget of
        # rho is at its cap of 2^22 evaluations
        p, q = 1800000000047, 1800000000083
        for f in (p, q):
            assert is_prime(f)
        assert p * q < PSI_13
        with wall_clock_guard(5):
            assert factorize(p * q) == {p: 1, q: 1}

    def test_exhausted_budget_within_guard(self):
        # a semiprime just below psi_13 whose search needs more than the
        # capped budget: the slowest refusal below the witness limit
        p, q = 1810170000019, 1810175000059
        for f in (p, q):
            assert is_prime(f)
        assert p * q < PSI_13
        with wall_clock_guard(5):
            with pytest.raises(FactorizationError, match="rho"):
                factorize(p * q)

    def test_wide_composite_refused_within_guard(self):
        # 3170 bits and a cofactor rho cannot split: an evaluation modulo it
        # costs more of the budget, so the refusal takes about as long as a
        # narrow one
        with wall_clock_guard(5):
            with pytest.raises(FactorizationError, match="rho"):
                factorize(1 + 3**2000)

    def test_small_factors_beyond_the_witness_limit(self):
        # composite parts past psi_13 are split, not refused
        assert factorize(1013 * PRIME_NEAR_4E21) == {1013: 1, PRIME_NEAR_4E21: 1}
        assert factorize(FIVE_PRIMES_NEAR_1E5) == dict.fromkeys(
            (100003, 100019, 100043, 100049, 100057), 1
        )
        assert factorize(1000003 * 1000033 * 1000037 * 1000039 * 1000081) == dict.fromkeys(
            (1000003, 1000033, 1000037, 1000039, 1000081), 1
        )
        with wall_clock_guard(5):
            assert factorize(1013**300) == {1013: 300}

    def test_refuses_an_uncertifiable_cofactor(self):
        with pytest.raises(FactorizationError, match="witness limit"):
            factorize(2**10 * 10000000000000000000000013)
