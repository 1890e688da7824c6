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
    _as_fraction,
    _nonzero,
    _valuation_and_unit,
    legendre,
    require_prime_place,
    unit_residue,
    valuation,
)
# The unchecked body under the public name, which the perfbench spans patch:
# norm_char_fn checks its place once, through the cached classify_extension.
from .padic import _hilbert_symbol as hilbert_symbol

__all__ = [
    "ExtKind",
    "QuadExtClass",
    "chi",
    "classify_extension",
    "conductor_n",
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


# typed=True here and on norm_char_fn: a float equal to a cached Fraction
# (0.5 and 1/2) must still reach the check instead of hitting the cache
@lru_cache(maxsize=512, typed=True)
def classify_extension(d: Rational, place: Place) -> QuadExtClass:
    """Classify Q_v(sqrt(d)) as Split / Unramified / Ramified with conductor data.

    At p = 2 a ramified class has discriminant 4d (d = 3 mod 4, n = 1) or 8u
    (d = 2u, n = 2), so n = 1 + v_2(d) mod 2 (Serre, A Course in Arithmetic,
    ch. III).  Cached: local_chow, the enumerator and the classifier each ask
    for the class of the same (d, place).  A finite place is checked here,
    before d, so the cache holds one primality test per (d, place)."""
    p = place if place == REAL_PLACE else require_prime_place(place)
    d = _nonzero(d, "d must be nonzero")
    if p == REAL_PLACE:
        if d > 0:
            return QuadExtClass(ExtKind.SPLIT)
        return QuadExtClass(ExtKind.RAMIFIED)  # conductor data unused here
    v = valuation(d, p)
    if p != 2:
        if v % 2 != 0:
            return QuadExtClass(ExtKind.RAMIFIED)
        if legendre(unit_residue(d, p, 1), p) == 0:
            return QuadExtClass(ExtKind.SPLIT)
        return QuadExtClass(ExtKind.UNRAMIFIED)
    u = unit_residue(d, 2, 3)
    if v % 2 == 0 and u == 1:
        return QuadExtClass(ExtKind.SPLIT)
    if v % 2 == 0 and u == 5:
        return QuadExtClass(ExtKind.UNRAMIFIED)
    return QuadExtClass(ExtKind.RAMIFIED, conductor_n=1 + v % 2)


def _square_class_int(x: Rational) -> int:
    """x itself, or numerator * denominator, which differs from x by the
    square denominator^2: a nonzero int in the square class of x."""
    t = x if isinstance(x, int) else _as_fraction(x).numerator * x.denominator
    if not t:
        raise ValueError("chi is undefined at zero")
    return t


@lru_cache(maxsize=512, typed=True)
def norm_char_fn(d: Rational, place: Place):
    """chi(d, -, place) partially evaluated for speed: a valuation coefficient
    plus the values on unit classes.

    The returned callable accepts a nonzero int or Fraction; zero raises
    ValueError and any other type TypeError.  At odd p,
    (d, u)_p = (u/p)^v_p(d) for a unit u, so chi is nontrivial on units
    exactly when v_p(d) is odd, that is when the extension is ramified; only
    then is the unit class read, by Euler's criterion, so a cached evaluator
    holds no table of residues.  The place is checked once, by the cached
    classify_extension."""
    d = _nonzero(d, "d must be nonzero")
    ramified = classify_extension(d, place).kind is ExtKind.RAMIFIED
    if place == REAL_PLACE:

        def ev_real(x) -> int:
            return 1 if _square_class_int(x) < 0 and ramified else 0

        return ev_real
    p = place
    c = hilbert_symbol(d, p, p)
    if p == 2:
        table = {u: hilbert_symbol(d, u, 2) for u in (1, 3, 5, 7)}

        def ev_dyadic(x) -> int:
            t = _square_class_int(x)
            v = (t & -t).bit_length() - 1
            return (c * v + table[(t >> v) & 7]) % 2

        return ev_dyadic
    half = (p - 1) // 2

    def ev_odd(x) -> int:
        v, t = _valuation_and_unit(_square_class_int(x), p)
        if ramified and pow(t, half, p) != 1:
            return (c * v + 1) % 2
        return c * v % 2

    return ev_odd


def chi(d: Rational, x: Rational, place: Place) -> int:
    """Norm character of Q_v(sqrt(d)): 0 iff x is a norm (equals (d, x)_v)."""
    return norm_char_fn(d, place)(x)


def conductor_n(d: Rational) -> int:
    """Dyadic conductor exponent: least n >= 1 with chi trivial on 1 + 2^(n+1) Z_2
    and nontrivial on 1 + 2^n Z_2, as classify_extension(d, 2) reads it."""
    ext = classify_extension(d, 2)
    if ext.kind is ExtKind.SPLIT:
        raise ValueError("d is a square in Q_2; the character is trivial")
    if ext.kind is ExtKind.UNRAMIFIED:
        raise ValueError("Q_2(sqrt(d)) is unramified; no dyadic conductor here")
    return ext.conductor_n
