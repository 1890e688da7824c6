"""The local group read from its definition, kept as a test reference for
`chatelet.local_chow`.

definition_subgroup evaluates every Hilbert symbol through
`symbol_oracle.hilbert_oracle`, the exhaustive search.  It reads no
character through `chatelet.norms`, and it calls neither `normalize_roots`
nor the enumerator, so a wrong (r, D), conductor or character table in the
package moves local_chow and leaves this route where it was.

`local_shapes` lists every local shape at a prime, as a surface (d, roots)
with the conductor exponent m of d, up to the depth D - r = 2m + 3 past
which the group depends only on the parity of D - r.
"""

from __future__ import annotations

from math import lcm
from typing import Dict, Iterator, Tuple

from chatelet.local import Subgroup3
from chatelet.padic import Rational, _valuation_and_unit, valuation
from symbol_oracle import hilbert_oracle


def definition_subgroup(
    d: Rational, roots: Tuple[Rational, ...], p: int, lift: int = 0
) -> Subgroup3:
    """Span of the characteristic triples of y^2 - d z^2 = f(x) =
    (x - c1)(x - c2)(x - c3) over Q_p, in the caller's root order.

    A point over x, not a root, exists exactly when f(x) is a norm from
    Q_p(sqrt(d)), (d, f(x))_p = 0, and its triple is ((d, x - c_i)_p)_i.
    The singular point (c_i, 0, 0) of the fiber over a root has slot j != i
    equal to (d, c_i - c_j)_p and slot i making the sum even.  The span of
    these triples is the local group; this function enumerates a finite
    set of x that meets every triple a point has.

    Let M = 2 v_p(2).  Every 1 + t with v(t) > M is a square in Q_p
    (Hensel), so the square class of a nonzero t, and with it (d, t)_p, is
    fixed by v(t) mod 2 and by its unit mod p^(M + 1): for any s with
    v(s) > v(t) + M, t + s = t (1 + s / t) has the class of t.  The symbols
    are asked once per class, of hilbert_oracle at p^(v mod 2) times that
    unit residue, and the class of f(x) is the product of the three.

    The roots are first moved by x -> L^2 x, L the lcm of their
    denominators times p^s with 2s >= M + lift, and then by x -> x - c1:
    both moves keep every x - c_i in its square class, so they change no
    triple, and they leave the roots 0, a and b ints with the window below
    inside Z_p.  Write x = p^w u, u a unit, R = min(v(a), v(b)) and T =
    max(v(a), v(b), v(a - b)) + M.  The symbol is bilinear, so the triple
    of a point has the even sum (d, f(x))_p = 0.

    * v(x) < R - M: each x - c has the class of x, so the triple is
      (t, t, t), and its even sum makes it (0, 0, 0).
    * v(x - c_i) > T for a root c_i: x - c_j has the class of c_i - c_j
      for both j != i, so the triple is that of (c_i, 0, 0).
    * Every other x has v(x - c) <= T for every root c, so its triple is
      fixed by x mod p^(T + M + 1); and at a level w other than v(a) and
      v(b), by x mod p^(w + M + 1), since there v(x - c) <= w for each c.

    So the window w = R - M, ..., T with u mod p^K, K = T + M + 1 - w at
    the levels v(a) and v(b) and K = M + 1 at the others, meets every
    triple.  Each x taken is a point of the surface, so nothing outside the
    group enters the span, and a larger window or K adds points whose
    triples are already there: `lift` widens the window by that many levels
    at each end and raises every K by as much, and must not change the span.
    """
    M = 2 if p == 2 else 0
    scale = lcm(*(c.denominator for c in roots)) * p ** ((M + lift + 1) // 2)
    n1, n2, n3 = (int(c * scale * scale) for c in roots)
    a, b = n2 - n1, n3 - n1
    va, vb = valuation(a, p), valuation(b, p)
    top = max(va, vb, valuation(a - b, p)) + M
    modulus = p ** (M + 1)
    symbols: Dict[Tuple[int, int], int] = {}

    def symbol(v: int, u: int) -> int:
        key = (v % 2, u % modulus)
        if key not in symbols:
            symbols[key] = hilbert_oracle(d, p ** key[0] * key[1], p)
        return symbols[key]

    triples = set()
    for i, ci in enumerate(roots):
        t = [hilbert_oracle(d, ci - cj, p) if j != i else 0 for j, cj in enumerate(roots)]
        t[i] = sum(t) % 2
        triples.add(tuple(t))
    for w in range(min(va, vb) - M - lift, top + 1 + lift):
        k = (top + M + 1 - w if w in (va, vb) else M + 1) + lift
        step = p**w
        for u in range(1, p**k):
            x = u * step
            if u % p == 0 or x == a or x == b:
                continue
            (v1, u1), (v2, u2) = _valuation_and_unit(x - a, p), _valuation_and_unit(x - b, p)
            if symbol(w + v1 + v2, u * u1 * u2) == 0:
                triples.add((symbol(w, u), symbol(v1, u1), symbol(v2, u2)))
    return Subgroup3.span(triples)


def _nonresidue(p: int) -> int:
    """The least quadratic non-residue mod an odd prime p, by Euler's
    criterion."""
    return next(e for e in range(2, p) if pow(e, (p - 1) // 2, p) == p - 1)


def local_shapes(p: int) -> Iterator[Tuple[int, int, Tuple[int, int, int]]]:
    """(m, d, (0, e1, e2)) for every local shape at p with D - r <= 2m + 3.

    d runs over the square classes of Q_p that do not split, each with the
    exponent m of its conductor (Serre, A Course in Arithmetic, ch. III): at
    odd p, eps, p and eps p, all with m = 0, eps a non-residue; at p = 2, 5
    (unramified, m = 0), 3 and 7 (m = 1), and 2, 6, 10 and 14 (m = 2).
    e1 = u p^r for u a unit class representative ({1, 3, 5, 7} at 2, {1,
    eps} at odd p) and r = 0 or 1.  e2 = e1 + p^D w for w a unit class
    representative, over D - r = 1, ..., 2m + 3; at odd p, D = r too, with
    e2 = u2 p^r for every unit residue u2 other than u."""
    if p == 2:
        classes = ((5, 0), (3, 1), (7, 1), (2, 2), (6, 2), (10, 2), (14, 2))
        units = (1, 3, 5, 7)
    else:
        eps = _nonresidue(p)
        classes = ((eps, 0), (p, 0), (eps * p, 0))
        units = (1, eps)
    for d, m in classes:
        for u in units:
            for r in (0, 1):
                e1 = u * p**r
                if p != 2:
                    for u2 in range(1, p):
                        if u2 != u:
                            yield m, d, (0, e1, u2 * p**r)
                for depth in range(1, 2 * m + 4):
                    for w in units:
                        yield m, d, (0, e1, e1 + w * p ** (r + depth))
