"""The brute-force Hilbert-symbol search, kept as a test oracle for the closed
formula of `chatelet.padic.hilbert_symbol`.

hilbert_oracle decides the Hilbert symbol again by exhaustive search, at the
least precision that certifies its answer.  It reads its arguments through
`valuation` and its own unit residue, never `padic._square_class`, so it
stays independent of the formula it checks.  It refuses a place through
`padic._require_prime`, as the runtime does.

`symbol_mismatches` compares the two on seeded pairs with valuations in
[-3, 3] at primes up to 13.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

from chatelet.checks import _SMOOTH_PRIMES
from chatelet.padic import (
    Rational,
    _nonzero,
    _require_base,
    _require_prime,
    _valuation_and_unit,
    hilbert_symbol,
    valuation,
)

# Exhaustive search in hilbert_oracle refuses beyond this modulus.
_ORACLE_MODULUS_CAP = 2_000_000


class PrecisionError(ValueError):
    """The exhaustive search of hilbert_oracle needs a modulus past its cap."""


def unit_residue(r: Rational, p: int, precision: int) -> int:
    """The unit part r / p^v(r) reduced mod p**precision (in [1, p**precision))."""
    _require_base(p)
    r = _nonzero(r, "the unit residue of zero is undefined")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    num = _valuation_and_unit(r.numerator, p)[1]
    den = _valuation_and_unit(r.denominator, p)[1]
    modulus = p**precision
    return num * pow(den, -1, modulus) % modulus


def hilbert_oracle(a: Rational, b: Rational, p: int) -> int:
    """Decide the Hilbert symbol by exhaustive search for z^2 = a x^2 + b y^2 mod p^k.

    Independent of the closed formulas in hilbert_symbol.  Let v_a, v_b be
    the valuations mod 2 and k the least precision with
    p^k > 8 p^(2 max(v_a, v_b)), so k >= 2 v_a + 1, and k >= 2 v_a + 4 at
    p = 2.  a enters as A = p^v_a (its unit mod p^(k - v_a)), in its square
    class since a unit = 1 mod p^(k - v_a) is a square at this k; b as B
    likewise.  The search is a membership test: one byte table marks the
    squares mod p^k, another B times a square, and the answer is 0 when
    1 - A x^2 is in the second for some x (class z = 1) or A + B y^2 is in
    the first for some y (class x = 1).

    Nothing is lost either way.  In either class a solution has a unit
    coordinate w, z or x, whose term c w^2 has c = 1 or A, so
    delta = v(2 c w) <= v(2) + v_a and k >= 2 delta + 1: by Hensel's lemma
    every solution found mod p^k lifts to Q_p, and an answer 0 is right.  A
    primitive solution over Z_p has z or x a unit, for were both in p Z_p,
    y would be a unit and B y^2 = z^2 - A x^2 in p^2 Z_p, while v(B) <= 1.
    Scaled by the inverse of that unit it lies in one of the two classes,
    and its reduction mod p^k is found: an answer 1 is right too, and the
    class y = 1 adds nothing.  Raises PrecisionError when p^k is past the
    search cap.
    """
    p = _require_prime(p, "hilbert_oracle needs a prime")
    va = valuation(a, p) % 2
    vb = valuation(b, p) % 2
    # the least k with p^k > 8 p^(2 max(v_a, v_b))
    bound = 8 * p ** (2 * max(va, vb))
    k, mod = 1, p
    while mod <= bound:
        k, mod = k + 1, mod * p
    if mod > _ORACLE_MODULUS_CAP:
        raise PrecisionError(f"search modulus {p}^{k} exceeds the exhaustive budget")
    A = p**va * unit_residue(a, p, k - va)
    B = p**vb * unit_residue(b, p, k - vb)
    squares, b_squares = bytearray(mod), bytearray(mod)
    for x in range(mod // 2 + 1):  # x and -x have one square
        s = x * x % mod
        squares[s] = b_squares[B * s % mod] = 1
    for s in range(mod):
        if squares[s] and (b_squares[(1 - A * s) % mod] or squares[(A + B * s) % mod]):
            return 0
    return 1


def _oracle_triple(rng: random.Random) -> Tuple[Fraction, Fraction, int]:
    """A pair with valuations in [-3, 3] at a prime up to 13; the exhaustive
    search modulus is at most 7^4 = 2401."""
    p = rng.choice((2, 2, 2, 2, 3, 3, 3, 5, 5, 7, 11, 13))
    others = tuple(q for q in _SMOOTH_PRIMES if q != p)

    def part() -> Fraction:
        unit = Fraction(rng.choice((1, -1)))
        for q in rng.sample(others, 2):
            unit *= Fraction(q) ** rng.randint(0, 2)
        return unit * Fraction(p) ** rng.randint(-3, 3)

    return part(), part(), p


def symbol_mismatches(rng: random.Random, count: int) -> List[str]:
    """Compare the closed-formula symbol with the exhaustive search on
    `count` drawn pairs; describe each pair where they differ."""
    mismatches = []
    for _ in range(count):
        a, b, p = _oracle_triple(rng)
        expected = hilbert_symbol(a, b, p)
        got = hilbert_oracle(a, b, p)
        if got != expected:
            mismatches.append(f"(a={a}, b={b}, p={p}): formula {expected}, search {got}")
    return mismatches
