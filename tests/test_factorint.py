"""Primality certification and factoring."""

import random

import pytest

from chatelet import FactorizationError, factorize, is_prime

# psi_12: the least strong pseudoprime to the twelve prime bases 2, ..., 37
PSI_12 = 318665857834031151167461


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
        with pytest.raises(FactorizationError):
            factorize(PSI_12)

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
