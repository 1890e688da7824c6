"""Every field of the reports stays as it is: a digest over seeded calls.

The answers pinned elsewhere cover groups, orders and labels; this digest
also covers `normalized` (values and types), `ext_class`, the checked places
and the sampled primes, over local calls at the real place, 2, 3, 5, 7 and
larger odd primes with int and Fraction input, and over global calls.
"""

import hashlib
import random
from fractions import Fraction

from chatelet import global_chow, local_chow
from chatelet.padic import REAL_PLACE

# A change that moves any report field on purpose records the new digest and
# says why.  Last moved when `normalized` at L = 1 and the d and roots of a
# GlobalReport began to keep ints as ints: only Fraction(n, 1) became n.
REPORTS_SHA256 = "f96400369f833cf9761b252f77253b0ebc5975e82d4d4e03ceb55b0ed4a8544e"

_PLACES = (REAL_PLACE, REAL_PLACE, 2, 2, 2, 3, 3, 3, 5, 5, 7, 7, 11, 13, 1013, 10007)


def _unit(rng, p):
    while True:
        u = rng.choice((1, -1)) * rng.randint(1, 40)
        if p == REAL_PLACE or u % p:
            return u


def _local_case(rng):
    """(d, c1, c2, c3, place): roots s, s + u1 p^k1, s + u2 p^k2 with shared
    congruences, divided by a common L, so L != 1 and L divisible by p both
    occur; d a unit times p^j, as an int or a Fraction."""
    place = rng.choice(_PLACES)
    p = 3 if place == REAL_PLACE else place
    d = _unit(rng, place) * Fraction(p) ** rng.randint(-2 if rng.random() < 0.3 else 0, 2)
    if rng.random() < 0.3:
        d *= Fraction(rng.randint(1, 6), rng.randint(1, 6)) ** 2
    s = rng.randint(-20, 20)
    k1 = rng.randint(0, 4)
    k2 = rng.choice((0, k1, k1 + rng.randint(0, 3)))
    e1 = _unit(rng, place) * p**k1
    e2 = e1 + _unit(rng, place) * p**k2
    if e2 == 0 or e2 == e1:
        e2 = e1 + p ** (k1 + 1)
    scale = rng.choice((1, 1, 1, 2, 3, 4, 6, 9, p))
    roots = [Fraction(s, scale), Fraction(s + e1, scale), Fraction(s + e2, scale)]
    rng.shuffle(roots)
    if d.denominator == 1 and rng.random() < 0.7:
        d = d.numerator
    if scale == 1 and rng.random() < 0.7:
        roots = [c.numerator for c in roots]
    return (d, *roots, place)


def _global_case(rng):
    while True:
        d = Fraction(rng.choice((1, -1)) * rng.randint(1, 60), rng.choice((1, 1, 1, 2, 3, 4)))
        roots = {Fraction(rng.randint(-30, 30), rng.choice((1, 1, 1, 2, 3))) for _ in range(3)}
        if len(roots) == 3:
            roots = sorted(roots, key=lambda c: rng.random())
            if rng.random() < 0.5 and all(c.denominator == 1 for c in roots):
                return (d.numerator if d.denominator == 1 else d, *(c.numerator for c in roots))
            return (d, *roots)


def report_lines():
    rng = random.Random(20260)
    lines = [repr(local_chow(*_local_case(rng))) for _ in range(300)]
    lines += [repr(global_chow(*_global_case(rng))) for _ in range(100)]
    return lines


def test_reports_digest():
    digest = hashlib.sha256("\n".join(report_lines()).encode()).hexdigest()
    assert digest == REPORTS_SHA256
