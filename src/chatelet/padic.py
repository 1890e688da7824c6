"""Exact p-adic arithmetic over Q: valuations, unit residues, squares, Hilbert symbols.

Everything works on ints and `fractions.Fraction`; there is no floating point
anywhere. F2 values are plain ints 0/1 (0 = trivial / is a norm).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Tuple, Union

from .factorint import FactorizationError, is_prime

Rational = Union[int, Fraction]

# A place of Q: a prime number, or the real place.
REAL_PLACE = "real"
Place = Union[int, str]

__all__ = [
    "REAL_PLACE",
    "Place",
    "PrecisionError",
    "Rational",
    "hilbert_oracle",
    "hilbert_symbol",
    "is_local_square",
    "is_rational_square",
    "legendre",
    "require_prime_place",
    "suggested_oracle_precision",
    "unit_residue",
    "valuation",
]

# Exhaustive search in hilbert_oracle refuses beyond this modulus.
_ORACLE_MODULUS_CAP = 2_000_000


class PrecisionError(ValueError):
    """An exhaustive p-adic search cannot decide at the given precision."""


def require_prime_place(place: Place) -> int:
    """The finite place as an int, or ValueError if it is not a prime that
    is_prime can certify."""
    try:
        prime = isinstance(place, int) and place >= 2 and is_prime(place)
    except FactorizationError:  # beyond the proven Miller-Rabin witness limit
        prime = False
    if not prime:
        raise ValueError(f"place must be a prime or {REAL_PLACE!r}, got {place!r}")
    return place


def _as_fraction(r: Rational) -> Fraction:
    """The one check of caller input: an int or a Fraction, as a Fraction.

    Anything else, a float or a str included, raises TypeError."""
    if isinstance(r, Fraction):
        return r
    if isinstance(r, int):
        return Fraction(r)
    raise TypeError(f"expected an exact rational, got {type(r).__name__}")


def _nonzero(r: Rational, message: str) -> Fraction:
    """_as_fraction for a value that must be nonzero; zero raises ValueError."""
    r = _as_fraction(r)
    if not r:
        raise ValueError(message)
    return r


def _require_base(p: int) -> None:
    """O(1) guard for valuation and unit_residue, whose division loops never
    end for p = 1 or -1; full primality stays with require_prime_place."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be an int >= 2, got {p!r}")


def _valuation_and_unit(n: int, p: int) -> Tuple[int, int]:
    """(v, n / p^v) with v = v_p(n), for a nonzero int n and an int p >= 2.

    One modulo decides the common v = 0.  Otherwise n is divided by p, p^2,
    p^4, ... while they divide it, then by the same powers on the way back
    down, so a valuation v costs O(log v) big-int divisions instead of v."""
    if n % p:
        return 0, n
    n //= p
    v = 1
    powers = [p]
    while n % powers[-1] == 0:
        n //= powers[-1]
        v += 1 << (len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
    for i in range(len(powers) - 2, -1, -1):
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v, n


def valuation(r: Rational, p: int) -> int:
    """p-adic valuation of a nonzero rational r."""
    _require_base(p)
    r = _nonzero(r, "the valuation of zero is undefined")
    return _valuation_and_unit(r.numerator, p)[0] - _valuation_and_unit(r.denominator, p)[0]


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


def legendre(a: int, p: int) -> int:
    """Legendre symbol of a mod p in F2 form: 0 for a square, 1 for a non-square."""
    if p == 2 or p % 2 == 0:
        raise ValueError("legendre needs an odd prime")
    if a % p == 0:
        raise ValueError("legendre is undefined for a divisible by p")
    return 0 if pow(a, (p - 1) // 2, p) == 1 else 1


def is_local_square(r: Rational, place: Place) -> bool:
    """Whether r is a square in the completion of Q at the given place."""
    r = _nonzero(r, "squareness of zero is not classified")
    if place == REAL_PLACE:
        return r > 0
    p = require_prime_place(place)
    v = valuation(r, p)
    if v % 2 != 0:
        return False
    if p == 2:
        return unit_residue(r, 2, 3) == 1
    return legendre(unit_residue(r, p, 1), p) == 0


def is_rational_square(r: Rational) -> bool:
    """Whether r is a square in Q itself (exact test)."""
    r = _as_fraction(r)
    if r < 0:
        return False
    num, den = r.numerator, r.denominator
    return isqrt(num) ** 2 == num and isqrt(den) ** 2 == den


def _eps(u: int) -> int:
    # (u - 1) / 2 mod 2 for odd u
    return (u - 1) // 2 % 2


def _omega(u: int) -> int:
    # (u^2 - 1) / 8 mod 2 for odd u
    return (u * u - 1) // 8 % 2


def hilbert_symbol(a: Rational, b: Rational, place: Place) -> int:
    """Hilbert symbol (a, b) at a place of Q, in additive F2 form.

    0 means z^2 = a x^2 + b y^2 has a nonzero solution in the completion,
    1 means it does not.
    """
    a = _nonzero(a, "hilbert symbol needs nonzero arguments")
    b = _nonzero(b, "hilbert symbol needs nonzero arguments")
    if place != REAL_PLACE:
        require_prime_place(place)
    return _hilbert_symbol(a, b, place)


def _hilbert_symbol(a: Rational, b: Rational, place: Place) -> int:
    """hilbert_symbol for nonzero a and b at a place the caller has checked."""
    if place == REAL_PLACE:
        return 1 if a < 0 and b < 0 else 0
    p = place
    alpha = valuation(a, p)
    beta = valuation(b, p)
    if p == 2:
        u = unit_residue(a, 2, 3)
        w = unit_residue(b, 2, 3)
        return (_eps(u) * _eps(w) + alpha * _omega(w) + beta * _omega(u)) % 2
    u = unit_residue(a, p, 1)
    w = unit_residue(b, p, 1)
    eps_p = (p - 1) // 2 % 2
    return (alpha * beta * eps_p + beta * legendre(u, p) + alpha * legendre(w, p)) % 2


def suggested_oracle_precision(a: Rational, b: Rational, p: int) -> int:
    """Default search precision for hilbert_oracle at p.

    Valuations enter mod 2 because the oracle works on square-class
    representatives with valuation 0 or 1.
    """
    va = valuation(a, p) % 2
    vb = valuation(b, p) % 2
    return 2 * (va + vb) + (6 if p == 2 else 3)


def _square_class_rep(r: Rational, p: int, k: int) -> Tuple[int, int]:
    """Integer representative of the square class of r: p^(v mod 2) * unit, and that
    reduced valuation.  Exact up to a 1 + p^(k-1) unit, which is a square at the
    precisions the oracle enforces."""
    v = valuation(r, p) % 2
    u = unit_residue(r, p, max(k - v, 1))
    return p**v * u, v


def _int_valuation(x: int, p: int):
    return None if x == 0 else _valuation_and_unit(x, p)[0]


@lru_cache(maxsize=32)
def _scaled_square_table(c: int, p: int, k: int) -> dict:
    """Map c * y^2 mod p^k -> minimal valuation of y over y in [1, p^k)."""
    mod = p**k
    table: dict = {}
    for y in range(1, mod):
        val = c * y * y % mod
        vy = _int_valuation(y, p)
        prev = table.get(val)
        if prev is None or vy < prev:
            table[val] = vy
    return table


def hilbert_oracle(a: Rational, b: Rational, p: int, k: int) -> int:
    """Decide the Hilbert symbol by exhaustive search for z^2 = a x^2 + b y^2 mod p^k.

    Independent of the closed formulas in hilbert_symbol: primitive solution
    triples are enumerated directly (in the three classes with one coordinate
    unit-scaled to 1) and accepted only when the standard Hensel bound
    k >= 2*delta + 1 certifies lifting to the completion.  Raises
    PrecisionError when k is too small to decide, or too large to enumerate.
    """
    p = require_prime_place(p)
    A, va = _square_class_rep(a, p, k)
    B, vb = _square_class_rep(b, p, k)
    # smallest usable precision: p^k must exceed 8 * p^(2 * max valuation)
    bound = 8 * p ** (2 * max(va, vb))
    min_k = 1
    while p**min_k <= bound:
        min_k += 1
    if k < min_k:
        raise PrecisionError(
            f"hilbert_oracle needs k >= {min_k} for these arguments at p = {p}, got {k}"
        )
    mod = p**k
    if mod > _ORACLE_MODULUS_CAP:
        raise PrecisionError(f"search modulus {p}^{k} exceeds the exhaustive budget")

    v2 = 1 if p == 2 else 0
    squares = _scaled_square_table(1, p, k)
    b_values = _scaled_square_table(B % mod, p, k)

    def accepted(slots) -> bool:
        # slots: (coefficient valuation, coordinate valuation or None for a zero coordinate)
        deltas = [v2 + cv + xv for cv, xv in slots if xv is not None]
        return bool(deltas) and k >= 2 * min(deltas) + 1

    # class z = 1: A x^2 + B y^2 == 1
    for x in range(mod):
        target = (1 - A * x * x) % mod
        vy = b_values.get(target)
        if vy is None and target != 0:
            continue
        vx = _int_valuation(x, p)
        if accepted(((0, 0), (va, vx), (vb, vy))):
            return 0
    # class x = 1: z^2 == A + B y^2
    for y in range(mod):
        target = (A + B * y * y) % mod
        vz = squares.get(target)
        if vz is None and target != 0:
            continue
        vy = _int_valuation(y, p)
        if accepted(((0, vz), (va, 0), (vb, vy))):
            return 0
    # class y = 1: z^2 == A x^2 + B
    for x in range(mod):
        target = (A * x * x + B) % mod
        vz = squares.get(target)
        if vz is None and target != 0:
            continue
        vx = _int_valuation(x, p)
        if accepted(((0, vz), (va, vx), (vb, 0))):
            return 0
    return 1

