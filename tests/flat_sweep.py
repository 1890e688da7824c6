"""The flat truncated sweep that the ball-refinement enumerator replaced, kept
as a test oracle.

It sweeps x = p^w * u over every unit residue u mod p^precision at every level
w of a valuation window, plus deeper samples x = e_i + p^j * u near each
finite degenerate fiber.  Its cost is about p^precision times the window, so
call it only on small primes and shallow root congruences.  `buffer` widens
the window and the residue precision; the span must not change with it.

`all_children_subgroup` is a second reference: the ball enumerator with every
split ball refined into all p of its children, so that the rule picking the
children can be compared against it.  Its cost is linear in p.

`level_walk_points` and `level_walk_subgroup` are a third: the ball walk as it
was before `chatelet.local.characteristic_points` read its levels from r and
D and jumped the periodic chain.  It groups the roots live at each level by
their residue into a dict of sets, and it walks every level from r - m to
D + m, so its cost grows with D - r.

`reference_normalize_roots` and `reference_special_fiber_images` are direct
forms of `normalize_roots` and `special_fiber_images` in `chatelet.local`: a
base-root loop that forms each difference and valuation anew, and the fiber
images from nine character values on products and differences of the roots.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, List, Tuple

from chatelet import local
from chatelet.checks import _ENUMERABLE_FAMILIES, random_surface
from chatelet.gf2 import member, reduce_rows
from chatelet.local import (
    NormalizedSurface,
    Subgroup3,
    Triple,
    _bits_triple,
    _distinct_roots,
    _integral_residue,
    _triple_bits,
    normalize_roots,
    special_fiber_images,
)
from chatelet.norms import (
    ExtKind,
    QuadExtClass,
    _nonsplit_class,
    norm_char_fn,
)
from chatelet.padic import REAL_PLACE, Place, Rational, valuation


def reference_normalize_roots(
    c1: Rational, c2: Rational, c3: Rational, place: Place
) -> Tuple[Fraction, Fraction, int, Tuple[int, int, int]]:
    """(e1, e2, r, perm) by the least base index whose two incident
    differences share a valuation, each difference formed anew."""
    roots = _distinct_roots(c1, c2, c3)
    if place == REAL_PLACE:
        i, j, k = sorted(range(3), key=lambda t: roots[t])
        return roots[j] - roots[i], roots[k] - roots[i], 0, (i + 1, j + 1, k + 1)
    p = place
    for i in range(3):
        j, k = (t for t in range(3) if t != i)
        if valuation(roots[j] - roots[i], p) == valuation(roots[k] - roots[i], p):
            e1 = roots[j] - roots[i]
            e2 = roots[k] - roots[i]
            return e1, e2, valuation(e1, p), (i + 1, j + 1, k + 1)
    raise ArithmeticError("no valid base root; the ultrametric inequality failed?")


def reference_special_fiber_images(
    d: Rational, surface: NormalizedSurface, place: Place
) -> Tuple[Triple, ...]:
    """The four degenerate-fiber images, chi evaluated on each product and
    difference of the roots (nine values)."""
    c = norm_char_fn(d, place)
    e1, e2 = surface.e1, surface.e2
    return (
        (0, 0, 0),
        (c(e1 * e2), c(-e1), c(-e2)),
        (c(e1), c(e1 * (e1 - e2)), c(e1 - e2)),
        (c(e2), c(e2 - e1), c(e2 * (e2 - e1))),
    )


def window_modulus(ext: QuadExtClass) -> int:
    """An m with chi(1 + t) = 0 whenever v(t) > m: the least one (conductor_n)
    for unramified classes, conductor_n + 1 for ramified ones.  Not the least
    for ramified classes, so the sweep's window errs on the wide side."""
    if ext.kind is ExtKind.SPLIT:
        raise ValueError("split extensions have no norm character to stabilize")
    if ext.kind is ExtKind.RAMIFIED:
        return ext.conductor_n + 1
    return ext.conductor_n


def truncation_bounds(ext: QuadExtClass, e1: Rational, e2: Rational, p: int) -> Tuple[int, int, int]:
    """Valuation window [w_min, w_max] and residue precision M for the sweep."""
    m = window_modulus(ext)
    r = valuation(Fraction(e1), p)
    if valuation(Fraction(e2), p) != r:
        raise ValueError("truncation bounds need v(e1) = v(e2)")
    big_d = valuation(Fraction(e1) - Fraction(e2), p)
    w_min = r - m
    w_max = max(r, big_d) + m
    return w_min, w_max, (w_max - w_min) + m + 1


def characteristic_points(
    d: Rational, e1: Rational, e2: Rational, place: Place, buffer: int = 0
) -> Iterator[Tuple[Fraction, Triple]]:
    """All sampled points x of the base line that lift to the surface, with their
    characteristic triples (chi(x), chi(x - e1), chi(x - e2)).

    Finite places sweep x = p^w * u over the truncation window plus deeper
    samples x = e_i + p^j * u near each finite degenerate fiber; the real place
    samples one point per interval cut out by {0, e1, e2}.
    """
    d = Fraction(d)
    e1 = Fraction(e1)
    e2 = Fraction(e2)
    c = norm_char_fn(d, place)

    if place == REAL_PLACE:
        cuts = sorted((Fraction(0), e1, e2))
        samples = [
            cuts[0] - 1,
            (cuts[0] + cuts[1]) / 2,
            (cuts[1] + cuts[2]) / 2,
            cuts[2] + 1,
        ]
        for x in samples:
            t = (c(x), c(x - e1), c(x - e2))
            if sum(t) % 2 == 0:
                yield x, t
        return

    p = place
    ext = _nonsplit_class(d, p)
    w_min, w_max, precision = truncation_bounds(ext, e1, e2, p)
    w_min -= buffer
    w_max += buffer
    precision += buffer
    r = valuation(e1, p)
    span = p**precision
    units = [u for u in range(1, span) if u % p != 0]
    # plain ints wherever denominators allow; the character accepts both
    if e1.denominator == 1:
        e1 = int(e1)
    if e2.denominator == 1:
        e2 = int(e2)

    for w in range(w_min, w_max + 1):
        scale = p**w if w >= 0 else Fraction(1, p**-w)
        for u in units:
            x = u * scale
            if x == e1 or x == e2:
                continue
            t = (c(x), c(x - e1), c(x - e2))
            if sum(t) % 2 == 0:
                yield x, t
    # deeper samples resolve x -> e_i where the window residues cannot
    for root, other in ((e1, e2), (e2, e1)):
        for j in range(r, w_max + 1):
            scale = p**j if j >= 0 else Fraction(1, p**-j)
            for u in units:
                x = root + u * scale
                if x == 0 or x == other:
                    continue
                t = (c(x), c(x - e1), c(x - e2))
                if sum(t) % 2 == 0:
                    yield x, t


def all_children_points(
    d: Rational, surface: NormalizedSurface, p: int
) -> Iterator[Tuple[Rational, Triple]]:
    """A ball walk at a prime p that refines every split ball into all p of
    its children and evaluates a ball once no root lies within p^(k - m) of
    it, down to level D + 2m + 1.  `chatelet.local.characteristic_points`
    keeps only the children that hold a root."""
    c = norm_char_fn(d, p)
    ext = _nonsplit_class(d, p)
    m = ext.conductor_n
    r = surface.r
    s = max(0, (m - r + 1) // 2)
    r += 2 * s
    big_d = valuation(surface.e1 - surface.e2, p) + 2 * s
    last = big_d + 2 * m + 1
    modulus = p ** (last + m + 2)
    square = p ** (2 * s)
    f1 = _integral_residue(surface.e1 * square, modulus)
    f2 = _integral_residue(surface.e2 * square, modulus)
    roots = (0, f1, f2)
    drop = (r + m + 1, big_d + m + 1, big_d + m + 1)

    balls = [0]
    for k in range(r - m, last + 1):
        near_mod = p ** max(k - m, 0)
        step = p**k
        children = []
        for b in balls:
            near = [i for i in (0, 1, 2) if (b - roots[i]) % near_mod == 0]
            if not near:
                t = (c(b), c(b - f1), c(b - f2))
                if sum(t) % 2 == 0:
                    yield (b if s == 0 else Fraction(b, square)), t
                continue
            if len(near) == 1:
                i = near[0]
                if k >= drop[i] and (b - roots[i]) % p ** drop[i] == 0:
                    continue
            children.extend(range(b, b + p * step, step))
        balls = children
    if balls:
        raise ArithmeticError(f"{len(balls)} balls left unresolved at level {last}")


def level_walk_points(
    d: Rational, surface: NormalizedSurface, p: int
) -> Iterator[Tuple[Rational, Triple]]:
    """The level-by-level ball walk at a prime p: the balls of level k are
    found by grouping the roots live there (0 up to level r + m, e1 and e2 to
    the end) by their residue mod p^k, for every k from r - m to D + m."""
    c = norm_char_fn(d, p)
    ext = _nonsplit_class(d, p)
    m = ext.conductor_n
    reads_units = ext.kind is ExtKind.RAMIFIED
    r = surface.r
    s = (m - r + 1) // 2 if r < m else 0
    r += 2 * s
    big_d = surface.big_d + 2 * s
    last = big_d + m + 1
    modulus = p ** (last + 2 * m + 2)
    square = p ** (2 * s)
    f1 = _integral_residue(surface.e1 * square, modulus)
    f2 = _integral_residue(surface.e2 * square, modulus)
    roots = (0, f1, f2)
    digits = [0]
    for j in range(m):
        digits = [o + i * p**j for o in digits for i in range(p)]

    for k in range(r - m, last):
        step = p**k
        child = p * step
        balls = {}
        for f in roots if k <= r + m else roots[1:]:
            balls.setdefault(f % step, set()).add(f % child)
        for b, held in balls.items():
            patterns = 2 ** len(held) if reads_units else 1
            seen = set()
            for x in range(b, b + child, step):
                if x in held:
                    continue
                for o in digits:
                    y = x + o * child
                    t = (c(y), c(y - f1), c(y - f2))
                    if t not in seen:
                        seen.add(t)
                        if sum(t) % 2 == 0:
                            yield (y if s == 0 else Fraction(y, square)), t
                if len(seen) == patterns:
                    break


def _span(d: Rational, surface: NormalizedSurface, place: Place, points) -> Subgroup3:
    """F2 span of the four degenerate fibers and the triples of `points`."""
    rows = reduce_rows(
        _triple_bits(t) for t in special_fiber_images(d, surface, place)
    )
    if len(rows) < 2:
        for _, t in points:
            b = _triple_bits(t)
            if not member(b, rows):
                rows = reduce_rows(rows + [b])
                if len(rows) == 2:
                    break
    return Subgroup3(tuple(_bits_triple(b) for b in rows))


def characteristic_subgroup(
    d: Rational, surface: NormalizedSurface, place: Place, buffer: int = 0
) -> Subgroup3:
    """F2 span of the four degenerate fibers and every swept triple."""
    points = characteristic_points(d, surface.e1, surface.e2, place, buffer)
    return _span(d, surface, place, points)


def all_children_subgroup(d: Rational, surface: NormalizedSurface, p: int) -> Subgroup3:
    """F2 span of the four degenerate fibers and every all-children triple."""
    return _span(d, surface, p, all_children_points(d, surface, p))


def level_walk_subgroup(d: Rational, surface: NormalizedSurface, p: int) -> Subgroup3:
    """F2 span of the four degenerate fibers and every level-walk triple."""
    return _span(d, surface, p, level_walk_points(d, surface, p))


def oracle_mismatches(rng: random.Random, count: int) -> List[str]:
    """Compare the enumerator with this sweep, tight (buffer 0) and widened
    (buffer 2), on `count` directed surfaces cycling through the nine
    enumerable families at small primes and depths; describe each surface
    where the three subgroups are not all equal."""
    mismatches = []
    for i in range(count):
        family = _ENUMERABLE_FAMILIES[i % len(_ENUMERABLE_FAMILIES)]
        d, roots, place = random_surface(rng, family, small=True)
        surface = normalize_roots(*roots, place)
        balls = local.characteristic_subgroup(d, surface, place)
        tight = characteristic_subgroup(d, surface, place, 0)
        wide = characteristic_subgroup(d, surface, place, 2)
        if not balls == tight == wide:
            mismatches.append(
                f"{family} d={d} roots={roots} v={place}: balls {balls.basis}, "
                f"flat {tight.basis}, widened {wide.basis}"
            )
    return mismatches
