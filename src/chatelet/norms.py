"""Norm characters of local quadratic extensions Q_v(sqrt(d)) / Q_v.

chi(d, x, v) = hilbert_symbol(d, x, v) in additive F2 form: chi(x) = 0 exactly
when x is a norm from the extension.  The conductor exponent is the radius of
chi (chi(1 + t) = 0 whenever v(t) > conductor_n), which bounds how finely the
local enumerator refines the x-line.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .padic import (
    REAL_PLACE,
    Place,
    Rational,
    _nonzero,
    _square_class,
    _square_class_int,
    _valuation_and_unit,
    hilbert_symbol,
    legendre,
    require_prime_place,
)

__all__ = [
    "ExtKind",
    "QuadExtClass",
    "chi",
    "classify_extension",
    "conductor_n",
    "is_local_square",
    "norm_char_fn",
]


class ExtKind(enum.Enum):
    SPLIT = "split"
    UNRAMIFIED = "unramified"
    RAMIFIED = "ramified"


@dataclass(frozen=True)
class QuadExtClass:
    """Isomorphism class of Q_v(sqrt(d)) over Q_v.

    conductor_n is the dyadic conductor exponent (0 by convention at odd p and
    at the real place); at every prime it is the least m >= 0 with
    chi(1 + t) = 0 for all v(t) > m.
    """

    kind: ExtKind
    conductor_n: int = 0


_AT_ZERO = "chi is undefined at zero"

# The classes classify_extension returns, shared by every call.
_SPLIT = QuadExtClass(ExtKind.SPLIT)
_UNRAMIFIED = QuadExtClass(ExtKind.UNRAMIFIED)
_RAMIFIED = QuadExtClass(ExtKind.RAMIFIED)  # odd p, and the real place
_RAMIFIED_N1 = QuadExtClass(ExtKind.RAMIFIED, 1)  # p = 2, d = 3 mod 4
_RAMIFIED_N2 = QuadExtClass(ExtKind.RAMIFIED, 2)  # p = 2, d = 2u


# typed=True here and on norm_char_fn: a float equal to a cached Fraction
# (0.5 and 1/2) must still reach the check instead of hitting the cache.
# 4096 entries hold the (d, place) pairs a stream of global calls repeats:
# each call asks for about 25, its candidates and its sampled primes.
@lru_cache(maxsize=4096, typed=True)
def classify_extension(d: Rational, place: Place) -> QuadExtClass:
    """Classify Q_v(sqrt(d)) as Split / Unramified / Ramified with conductor data.

    At p = 2 a ramified class has discriminant 4d (d = 3 mod 4, n = 1) or 8u
    (d = 2u, n = 2), so n = 1 + v_2(d) mod 2 (Serre, A Course in Arithmetic,
    ch. III).  Cached: local_chow, the enumerator and the classifier each ask
    for the class of the same (d, place), and a stream of calls asks again.
    A finite place is checked here, before d, by require_prime_place, which
    tests the primality of each place once per process.  The
    classes returned are module constants shared by every call, not built
    per call.  d is read through _square_class."""
    p = place if place == REAL_PLACE else require_prime_place(place)
    d = _nonzero(d, "d must be nonzero")
    if p == REAL_PLACE:
        return _SPLIT if d > 0 else _RAMIFIED  # conductor data unused here
    v, u = _square_class(d, p)
    if p != 2:
        if v % 2:
            return _RAMIFIED
        return _SPLIT if legendre(u, p) == 0 else _UNRAMIFIED
    if v % 2 == 0 and u % 8 == 1:
        return _SPLIT
    if v % 2 == 0 and u % 8 == 5:
        return _UNRAMIFIED
    return _RAMIFIED_N2 if v % 2 else _RAMIFIED_N1


def _nonsplit_class(d: Rational, place: Place) -> QuadExtClass:
    """classify_extension(d, place), refusing a local square (the split
    case), where the character is trivial and there is nothing to read."""
    ext = classify_extension(d, place)
    if ext is _SPLIT:  # every split class is this one constant
        raise ValueError(
            f"d is a local square at {place} (the split case): its character is trivial"
        )
    return ext


def is_local_square(r: Rational, place: Place) -> bool:
    """Whether r is a square in the completion of Q at the given place, that
    is whether Q_v(sqrt(r)) splits, as classify_extension reads it.  The
    place is checked ahead of that cache, which cannot hash a list."""
    r = _nonzero(r, "squareness of zero is not classified")
    if place != REAL_PLACE:
        require_prime_place(place)
    return classify_extension(r, place) is _SPLIT


@lru_cache(maxsize=4096, typed=True)
def norm_char_fn(d: Rational, place: Place):
    """chi(d, -, place) partially evaluated for speed: a valuation coefficient
    plus the values on unit classes.

    The returned callable accepts a nonzero int or Fraction; zero raises
    ValueError and any other type TypeError.  A nonzero int is read as it
    is, its own square-class int; anything else is checked by _nonzero and
    read through padic._square_class_int.  At odd p,
    (d, u)_p = (u/p)^v_p(d) for a unit u, so chi is nontrivial on units
    exactly when v_p(d) is odd, that is when the extension is ramified; only
    then is the unit class read, by Euler's criterion, so a cached evaluator
    holds no table of residues.  At every prime the valuation coefficient is
    c = (d, p)_p, read from hilbert_symbol.  The place is checked once, by
    the cached classify_extension."""
    d = _nonzero(d, "d must be nonzero")
    ramified = classify_extension(d, place).kind is ExtKind.RAMIFIED
    if place == REAL_PLACE:

        def ev_real(x) -> int:
            t = x if type(x) is int and x else _square_class_int(_nonzero(x, _AT_ZERO))
            return 1 if t < 0 and ramified else 0

        return ev_real
    p = place
    c = hilbert_symbol(d, p, p)
    if p == 2:
        # chi(2^v u) = c v + chi(u) for u mod 8, held as one table for each
        # parity of v; the entries at even u are never read
        units = {u: hilbert_symbol(d, u, 2) for u in (1, 3, 5, 7)}
        even = tuple(units.get(u, 0) for u in range(8))
        tables = (even, tuple(x ^ c for x in even))

        def ev_dyadic(x) -> int:
            t = x if type(x) is int and x else _square_class_int(_nonzero(x, _AT_ZERO))
            v = (t & -t).bit_length() - 1
            return tables[v & 1][(t >> v) & 7]

        return ev_dyadic
    half = (p - 1) // 2

    # Euler's criterion stays inline here, not through legendre: ev_odd runs
    # on every enumerated point, where legendre's checks would run each time.
    def ev_odd(x) -> int:
        t = x if type(x) is int and x else _square_class_int(_nonzero(x, _AT_ZERO))
        if t % p:  # v = 0, the common case, without a valuation call
            return 1 if ramified and pow(t, half, p) != 1 else 0
        v, t = _valuation_and_unit(t, p)
        return (c * v + (ramified and pow(t, half, p) != 1)) % 2

    return ev_odd


def chi(d: Rational, x: Rational, place: Place) -> int:
    """Norm character of Q_v(sqrt(d)): 0 iff x is a norm (equals (d, x)_v)."""
    return norm_char_fn(d, place)(x)


def conductor_n(d: Rational) -> int:
    """Dyadic conductor exponent: least n >= 1 with chi trivial on 1 + 2^(n+1) Z_2
    and nontrivial on 1 + 2^n Z_2, as classify_extension(d, 2) reads it."""
    ext = _nonsplit_class(d, 2)
    if ext is _UNRAMIFIED:
        raise ValueError("Q_2(sqrt(d)) is unramified; no dyadic conductor here")
    return ext.conductor_n
