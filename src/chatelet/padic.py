"""Exact p-adic arithmetic over Q: valuations, square classes, Hilbert symbols.

Everything works on ints and `fractions.Fraction`; there is no floating point
anywhere. F2 values are plain ints 0/1 (0 = trivial / is a norm).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Tuple, Union

from .factorint import _PSI_13, _echo, is_prime

Rational = Union[int, Fraction]

# A place of Q: a prime number, or the real place.
REAL_PLACE = "real"
Place = Union[int, str]

__all__ = [
    "REAL_PLACE",
    "Place",
    "hilbert_symbol",
    "is_rational_square",
    "legendre",
    "require_prime_place",
    "valuation",
]


def _require_prime(p: object, refusal: str) -> int:
    """p itself if it is an int with 2 <= p < psi_13 that is_prime proves
    prime, else ValueError with the text refusal.

    Past psi_13 is_prime never returns True: there its thirteen bases show
    a composite to be composite, and a strong probable prime raises
    FactorizationError, as no proven witness set certifies it.  So a p past
    psi_13 is refused by its size, before any Miller-Rabin round.  The type
    is checked before the cached primality test, so an unhashable p raises
    ValueError too."""
    if isinstance(p, int) and 2 <= p < _PSI_13 and is_prime(p):
        return p
    raise ValueError(f"{refusal}, got {_echo(p)}")


def require_prime_place(place: Place) -> int:
    """The finite place as an int, or ValueError if it is not a prime that
    is_prime can certify."""
    return _require_prime(place, "place must be a prime or 'real'")


def _as_rational(r: Rational) -> Rational:
    """The one check of caller input: an int or a Fraction, returned as it is,
    so that integer input stays on int arithmetic.

    Anything else, a bool, a float or a str included, raises TypeError: a
    bool would print as False or True in a reproduction line."""
    if isinstance(r, (int, Fraction)) and type(r) is not bool:
        return r
    raise TypeError(f"expected an exact rational, got {type(r).__name__}")


def _nonzero(r: Rational, message: str) -> Rational:
    """_as_rational for a value that must be nonzero; zero raises ValueError."""
    r = _as_rational(r)
    if not r:
        raise ValueError(message)
    return r


def _require_base(p: int) -> None:
    """O(1) guard for valuation, whose division loops never end for p = 1
    or -1, and for the unit residue of the test oracle in
    tests/symbol_oracle.py; full primality stays with require_prime_place."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be an int >= 2, got {_echo(p)}")


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


def _square_class_int(r: Rational) -> Rational:
    """num(r) den(r) for a Fraction r: r den(r)^2, an int in the square class
    of r.  Anything else is returned as it is, for the caller's validator to
    check; an int is tested first, as isinstance(r, Fraction) goes through
    the ABC check."""
    if isinstance(r, int):
        return r
    return r.numerator * r.denominator if isinstance(r, Fraction) else r


def _square_class(r: Rational, p: int) -> Tuple[int, int]:
    """(v, u) = _valuation_and_unit(t, p) for t = _square_class_int(r), a
    nonzero int or Fraction r and an int p >= 2 the caller has checked.

    t is in the square class of r, as t = r den(r)^2: v has the parity of
    v_p(r), and u is the unit of r times the square of the unit of den(r),
    so it has the same Legendre symbol at odd p and the same residue mod 8
    at p = 2, where every odd square is 1."""
    return _valuation_and_unit(_square_class_int(r), p)


def valuation(r: Rational, p: int) -> int:
    """p-adic valuation of a nonzero rational r."""
    _require_base(p)
    return _valuation(_nonzero(r, "the valuation of zero is undefined"), p)


def _valuation(r: Rational, p: int) -> int:
    """valuation for a nonzero int or Fraction r and an int p >= 2 that the
    caller has checked."""
    v = _valuation_and_unit(r.numerator, p)[0]
    den = r.denominator
    return v if den == 1 else v - _valuation_and_unit(den, p)[0]


def legendre(a: int, p: int) -> int:
    """Legendre symbol of a mod p in F2 form: 0 for a square, 1 for a non-square.
    p must be an odd prime that is_prime can certify."""
    if p == 2:
        raise ValueError(f"legendre needs an odd prime, got {_echo(p)}")
    _require_prime(p, "legendre needs an odd prime")
    if a % p == 0:
        raise ValueError("legendre is undefined for a divisible by p")
    return 0 if pow(a, (p - 1) // 2, p) == 1 else 1


def is_rational_square(r: Rational) -> bool:
    """Whether r is a square in Q itself (exact test)."""
    r = _as_rational(r)
    num, den = r.numerator, r.denominator
    if num < 0:  # the sign of a Fraction is that of its numerator
        return False
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
    if place == REAL_PLACE:
        return 1 if a < 0 and b < 0 else 0
    p = require_prime_place(place)
    alpha, u = _square_class(a, p)
    beta, w = _square_class(b, p)
    if p == 2:
        return (_eps(u) * _eps(w) + alpha * _omega(w) + beta * _omega(u)) % 2
    eps_p = (p - 1) // 2 % 2
    return (alpha * beta * eps_p + beta * legendre(u, p) + alpha * legendre(w, p)) % 2

