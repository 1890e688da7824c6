"""Norm characters of local quadratic extensions Q_v(sqrt(d)) / Q_v.

chi(d, x, v) = hilbert_symbol(d, x, v) in additive F2 form: chi(x) = 0 exactly
when x is a norm from the extension.  The conductor exponent is the radius of
chi (chi(1 + t) = 0 whenever v(t) > conductor_n), which bounds how finely the
local enumerator refines the x-line.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .padic import (
    REAL_PLACE,
    Place,
    Rational,
    hilbert_symbol,
    is_local_square,
    unit_residue,
    valuation,
)

__all__ = [
    "ExtKind",
    "QuadExtClass",
    "chi",
    "classify_extension",
    "conductor_n",
    "stability_modulus",
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
    chi(1 + t) = 0 for all v(t) > m.  stability_m is a safe modulus for the
    same property, conductor_n + 1 for ramified classes.
    """

    kind: ExtKind
    conductor_n: int = 0
    stability_m: int = 0


def _check_not_zero(d: Rational) -> Fraction:
    d = Fraction(d)
    if d == 0:
        raise ValueError("d must be nonzero")
    return d


@lru_cache(maxsize=512)
def classify_extension(d: Rational, place: Place) -> QuadExtClass:
    """Classify Q_v(sqrt(d)) as Split / Unramified / Ramified with conductor data.

    At p = 2 a ramified class has discriminant 4d (d = 3 mod 4, n = 1) or 8u
    (d = 2u, n = 2), so n = 1 + v_2(d) mod 2 (Serre, A Course in Arithmetic,
    ch. III).  Cached: local_chow, the enumerator and the classifier each ask
    for the class of the same (d, place)."""
    d = _check_not_zero(d)
    if place == REAL_PLACE:
        if d > 0:
            return QuadExtClass(ExtKind.SPLIT)
        return QuadExtClass(ExtKind.RAMIFIED)  # conductor data unused here
    p = place
    if is_local_square(d, p):
        return QuadExtClass(ExtKind.SPLIT)
    if p != 2:
        if valuation(d, p) % 2 == 0:
            return QuadExtClass(ExtKind.UNRAMIFIED)
        return QuadExtClass(ExtKind.RAMIFIED, conductor_n=0, stability_m=1)
    if valuation(d, 2) % 2 == 0 and unit_residue(d, 2, 3) == 5:
        return QuadExtClass(ExtKind.UNRAMIFIED)
    n = 1 + valuation(d, 2) % 2
    return QuadExtClass(ExtKind.RAMIFIED, conductor_n=n, stability_m=n + 1)


@lru_cache(maxsize=512)
def norm_char_fn(d: Fraction, place: Place):
    """chi(d, -, place) partially evaluated for speed: a valuation coefficient
    plus the values on unit classes.

    The returned callable accepts a nonzero int or Fraction.  At odd p,
    (d, u)_p = (u/p)^v_p(d) for a unit u, so chi is nontrivial on units
    exactly when v_p(d) is odd; only then is the unit class read, by Euler's
    criterion, so a cached evaluator holds no table of residues."""
    if place == REAL_PLACE:
        negative = d < 0

        def ev_real(x) -> int:
            return 1 if negative and x < 0 else 0

        return ev_real
    p = place
    c = hilbert_symbol(d, p, p)
    if p == 2:
        table = {u: hilbert_symbol(d, u, 2) for u in (1, 3, 5, 7)}

        def ev_dyadic(x) -> int:
            # x and numerator*denominator differ by the square denominator^2
            t = x if isinstance(x, int) else x.numerator * x.denominator
            v = 0
            while not t & 1:
                t >>= 1
                v += 1
            return (c * v + table[t & 7]) % 2

        return ev_dyadic
    nonsquare_value = valuation(d, p) % 2
    half = (p - 1) // 2

    def ev_odd(x) -> int:
        t = x if isinstance(x, int) else x.numerator * x.denominator
        v = 0
        while t % p == 0:
            t //= p
            v += 1
        if nonsquare_value and pow(t, half, p) != 1:
            return (c * v + 1) % 2
        return c * v % 2

    return ev_odd


def chi(d: Rational, x: Rational, place: Place) -> int:
    """Norm character of Q_v(sqrt(d)): 0 iff x is a norm (equals (d, x)_v)."""
    d = _check_not_zero(d)
    x = Fraction(x)
    if x == 0:
        raise ValueError("chi is undefined at zero")
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


def stability_modulus(ext: QuadExtClass) -> int:
    """An m with chi(1 + t) = 0 whenever v(t) > m: the least one (conductor_n)
    for unramified classes, conductor_n + 1 for ramified ones."""
    if ext.kind is ExtKind.SPLIT:
        raise ValueError("split extensions have no norm character to stabilize")
    return ext.stability_m
