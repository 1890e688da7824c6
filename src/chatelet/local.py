"""Degree-zero 0-cycle class groups of y^2 - d z^2 = (x - c1)(x - c2)(x - c3) at one place.

Two independent routes are always run and cross-checked: an exhaustive
enumeration of characteristic triples by p-adic ball refinement (authoritative
for generators), and a case classifier that predicts the group order from the
normalized root data alone; the order fixes the subgroup, which must match.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, List, Optional, Tuple

from .factorint import _echo
from .gf2 import member, reduce_rows
from .norms import (
    _SPLIT,
    _UNRAMIFIED,
    QuadExtClass,
    _nonsplit_class,
    chi,
    classify_extension,
    norm_char_fn,
)
from .padic import (
    REAL_PLACE,
    Place,
    Rational,
    _as_rational,
    _square_class_int,
    _valuation,
    _valuation_and_unit,
    require_prime_place,
)

__all__ = [
    "ContradictionError",
    "DegenerateSurfaceError",
    "LocalReport",
    "NormalizedSurface",
    "Subgroup3",
    "TRIVIAL_SUBGROUP",
    "characteristic_points",
    "characteristic_subgroup",
    "classify_case",
    "local_chow",
    "normalize_roots",
    "special_fiber_images",
]

Triple = Tuple[int, int, int]


class DegenerateSurfaceError(ValueError):
    """The three roots are not pairwise distinct."""


class ContradictionError(RuntimeError):
    """Enumerated subgroup and classifier prediction disagree.

    Both subgroups are in global root coordinates; predicted_subgroup is None
    where the predicted order fixes no subgroup of the sum-zero plane."""

    def __init__(
        self,
        message: str,
        predicted_order: int,
        enumerated_order: int,
        predicted_subgroup: Optional["Subgroup3"] = None,
        enumerated_subgroup: Optional["Subgroup3"] = None,
    ):
        super().__init__(message)
        self.predicted_order = predicted_order
        self.enumerated_order = enumerated_order
        self.predicted_subgroup = predicted_subgroup
        self.enumerated_subgroup = enumerated_subgroup


def _triple_bits(t: Triple) -> int:
    a, b, c = t
    # a bool or a float equal to 0 or 1 passes the set test, so types first
    if not (type(a) is type(b) is type(c) is int and {a, b, c} <= {0, 1}):
        listed = ", ".join(map(_echo, (a, b, c)))
        raise ValueError(f"a triple has entries 0 or 1, got ({listed})")
    return a << 2 | b << 1 | c


def _bits_triple(b: int) -> Triple:
    return (b >> 2 & 1, b >> 1 & 1, b & 1)


@dataclass(frozen=True)
class Subgroup3:
    """A subgroup of (Z/2)^3 held as a canonical reduced basis of bit triples."""

    basis: Tuple[Triple, ...]

    # Fills the instance dict as NormalizedSurface's does, once every entry
    # is checked to be 0 or 1 and the basis to be its own reduced form, the
    # one span gives, so that equal subgroups have equal bases.
    def __init__(self, basis: Tuple[Triple, ...]):
        rows = [_triple_bits(t) for t in basis]
        if reduce_rows(rows) != rows:
            raise ValueError(
                f"a basis is independent and reduced, as Subgroup3.span gives it, got {basis}"
            )
        self.__dict__["basis"] = basis

    @staticmethod
    def span(vectors: Iterable[Triple]) -> "Subgroup3":
        rows = reduce_rows(_triple_bits(v) for v in vectors)
        return Subgroup3(tuple(_bits_triple(b) for b in rows))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def order(self) -> int:
        return 2**self.dim

    def contains(self, t: Triple) -> bool:
        return member(_triple_bits(t), [_triple_bits(b) for b in self.basis])

    def elements(self) -> List[Triple]:
        out = {0}
        for b in self.basis:
            out |= {e ^ _triple_bits(b) for e in out}
        return [_bits_triple(e) for e in sorted(out)]

    def __str__(self) -> str:
        return "<" + ", ".join("(%d,%d,%d)" % t for t in self.basis) + ">"


# Every local group lies in the sum-zero plane {000, 011, 101, 110}, which
# has five subgroups: these, and no other Subgroup3 is made at a place.
TRIVIAL_SUBGROUP = Subgroup3(())
_LINE_OF = {t: Subgroup3.span([t]) for t in ((0, 1, 1), (1, 0, 1), (1, 1, 0))}
_PLANE = Subgroup3.span([(1, 0, 1), (0, 1, 1)])

# The subgroup that each predicted order fixes, in local slots, against which
# local_chow checks the enumerated one.  The sum-zero plane has dimension 2,
# so orders 1 and 4 fix the trivial group and the whole plane; order 2 fixes
# the line <(0,1,1)>, for the reasons classify_case gives family by family.
# Any other order is a contradiction in itself.
_SUBGROUP_OF_ORDER = {1: TRIVIAL_SUBGROUP, 2: _LINE_OF[0, 1, 1], 4: _PLANE}


@dataclass(frozen=True)
class NormalizedSurface:
    """Roots shifted to x (x - e1) (x - e2) form with v(e1) = v(e2) = r and
    big_d = v(e1 - e2); both are 0 at the real place.

    perm maps the local fiber slots (0-fiber, e1-fiber, e2-fiber) to 1-based
    original root indices; base_root_index, perm[0], is the root moved to 0.
    e1 and e2 have the type of the roots they came from: ints inside
    local_chow, which normalizes its integer surface.  LocalReport.normalized
    is in the caller's coordinates: that same surface of ints when every root
    is integral (L = 1), and Fractions e / L^2 otherwise.
    """

    e1: Rational
    e2: Rational
    r: int
    big_d: int
    perm: Tuple[int, int, int]

    # Fills the instance dict directly: the generated __init__ of a frozen
    # dataclass sets each field through object.__setattr__, three times the
    # cost, and every non-split place builds one.  Setting and deleting
    # fields still raise FrozenInstanceError.
    def __init__(self, e1: Rational, e2: Rational, r: int, big_d: int, perm: Tuple[int, int, int]):
        fields = self.__dict__
        fields["e1"] = e1
        fields["e2"] = e2
        fields["r"] = r
        fields["big_d"] = big_d
        fields["perm"] = perm

    @property
    def base_root_index(self) -> int:
        return self.perm[0]


@dataclass(frozen=True)
class LocalReport:
    place: Place
    ext_class: QuadExtClass
    normalized: Optional[NormalizedSurface]
    case_label: str
    predicted_order: int
    subgroup: Subgroup3  # in global root coordinates

    # Fills the instance dict as NormalizedSurface's does: every place builds one.
    def __init__(
        self,
        place: Place,
        ext_class: QuadExtClass,
        normalized: Optional[NormalizedSurface],
        case_label: str,
        predicted_order: int,
        subgroup: Subgroup3,
    ):
        fields = self.__dict__
        fields["place"] = place
        fields["ext_class"] = ext_class
        fields["normalized"] = normalized
        fields["case_label"] = case_label
        fields["predicted_order"] = predicted_order
        fields["subgroup"] = subgroup


def _distinct_roots(c1: Rational, c2: Rational, c3: Rational) -> Tuple[Rational, ...]:
    """The roots as they are, once _as_rational has checked each and they are
    pairwise distinct.  Three distinct ints, what every place of global_chow
    gets, pass on their type and three comparisons; anything else, a bool
    included, goes through the check."""
    if type(c1) is int and type(c2) is int and type(c3) is int:
        if c1 != c2 and c1 != c3 and c2 != c3:
            return c1, c2, c3
    a, b, c = roots = (_as_rational(c1), _as_rational(c2), _as_rational(c3))
    # (numerator, denominator) is canonical for ints and Fractions alike, and
    # comparing it skips the numbers.Rational check of Fraction.__eq__, at half
    # the cost
    if len({a.as_integer_ratio(), b.as_integer_ratio(), c.as_integer_ratio()}) < 3:
        listed = ", ".join(map(_echo, roots))
        raise DegenerateSurfaceError(f"roots must be pairwise distinct, got ({listed})")
    return roots


def normalize_roots(c1: Rational, c2: Rational, c3: Rational, place: Place) -> NormalizedSurface:
    """Pick a base root whose two incident differences share a valuation.

    The ultrametric inequality forces the two smallest of the three pairwise
    difference valuations to coincide, so a valid base always exists; ties go
    to the least original index.  With v(c2 - c1) = v(c3 - c1) the base is
    c1 and D = v(c3 - c2); otherwise v(c3 - c2) is the smaller of the two,
    and the base is c2 or c3.  At the real place the base is the smallest
    root and (e1, e2) come out ascending.  A finite place must be a prime
    (ValueError otherwise), checked after the roots.
    """
    roots = _distinct_roots(c1, c2, c3)
    if place != REAL_PLACE:
        require_prime_place(place)
    return _normalize(*roots, place)


def _normalize(c1: Rational, c2: Rational, c3: Rational, place: Place) -> NormalizedSurface:
    """normalize_roots on roots and a place its caller has checked."""
    if place == REAL_PLACE:
        roots = (c1, c2, c3)
        i, j, k = sorted(range(3), key=lambda t: roots[t])
        e1 = roots[j] - roots[i]
        e2 = roots[k] - roots[i]
        return NormalizedSurface(e1, e2, 0, 0, (i + 1, j + 1, k + 1))
    p = place
    d21, d31, d32 = c2 - c1, c3 - c1, c3 - c2
    v21, v31 = _valuation(d21, p), _valuation(d31, p)
    if v21 == v31:
        return NormalizedSurface(d21, d31, v21, _valuation(d32, p), (1, 2, 3))
    if v21 < v31:
        return NormalizedSurface(-d21, d32, v21, v31, (2, 1, 3))
    return NormalizedSurface(-d31, -d32, v31, v21, (3, 1, 2))


def special_fiber_images(
    d: Rational, surface: NormalizedSurface, place: Place
) -> Tuple[Triple, ...]:
    """Classes of the four degenerate fibers x = infinity, 0, e1, e2 of the
    normalized surface (local slot coordinates), from m = chi(-1), a = chi(e1),
    b = chi(e2) and g = chi(e1 - e2) as chi is additive: (0, 0, 0),
    (a + b, m + a, m + b), (a, a + g, g) and (b, m + g, m + b + g) over F2."""
    _nonsplit_class(d, place)
    return _fiber_images(norm_char_fn(d, place), surface)


def _fiber_images(c, surface: NormalizedSurface) -> Tuple[Triple, ...]:
    """special_fiber_images read through c, the evaluator of a non-split
    (d, place)."""
    m, a, b, g = c(-1), c(surface.e1), c(surface.e2), c(surface.e1 - surface.e2)
    return ((0, 0, 0), (a ^ b, m ^ a, m ^ b), (a, a ^ g, g), (b, m ^ g, m ^ b ^ g))


def _real_samples(e1: Rational, e2: Rational) -> Tuple[Rational, ...]:
    """Twice one exact point inside each of the four real intervals cut out
    by 0, e1, e2: ints when e1 and e2 are.  Only signs are read at the real
    place, and 2x has the sign of x, so 2x is tested against 2e1 and 2e2."""
    lo, mid, hi = sorted((0, e1, e2))
    return (2 * lo - 2, lo + mid, mid + hi, 2 * hi + 2)


def _integral_residue(e: Rational, modulus: int) -> int:
    """The integer in [0, modulus) congruent to the Fraction e, whose
    denominator is prime to the modulus: a p-unit on a surface that
    normalize_roots made from Fraction roots.  An int root is read with %."""
    return e.numerator * pow(e.denominator, -1, modulus) % modulus


# The digits o of the p^m sub-balls x + o p^(k+1) of a rootless child x at
# level k, for m = 0, 1, 2, in the order a walk that splits every ball
# evaluates them (the p^(k+m) digit fastest).  Only p = 2 has m >= 1, so
# the digits past m = 0 are binary.
_SUB_BALL_DIGITS = ((0,), (0, 1), (0, 2, 1, 3))


def _integral_start(surface: NormalizedSurface, p: int, m: int) -> Tuple[NormalizedSurface, int]:
    """The surface moved by x -> p^(2s) x, for the least s >= 0 with r + 2s
    >= m, and p^(2s).  The move multiplies x by a square, so it changes no
    character value and no triple, and it puts the walk's start ball
    p^(r - m) Z_p inside Z_p.  On an integer surface (r >= 0) only the
    ramified classes at 2, the ones with m >= 1, move."""
    r = surface.r
    if r >= m:
        return surface, 1
    s = (m - r + 1) // 2
    square = p ** (2 * s)
    moved = NormalizedSurface(
        surface.e1 * square, surface.e2 * square, r + 2 * s, surface.big_d + 2 * s, surface.perm
    )
    return moved, square


def characteristic_points(
    d: Rational, surface: NormalizedSurface, place: Place
) -> Iterator[Tuple[Rational, Triple]]:
    """Points x of the base line that lift to the normalized surface, with
    their characteristic triples (chi(x), chi(x - e1), chi(x - e2)).

    The roots are read from the surface, which normalize_roots has checked:
    e1, e2, r = v(e1) = v(e2) and D = v(e1 - e2).  At a prime p the x-line is
    refined into balls b + p^k Z_p.  Let m be the conductor exponent of
    Q_p(sqrt(d)), the radius of chi: chi(1 + t) = 0 whenever v(t) > m.  The
    walk runs on the surface that _integral_start moves to r >= m, where
    every ball is integral, and yields each point in the given surface's
    coordinates: an int where the surface did not move, else a Fraction.

    * Every x with v(x) < r - m has triple (c, c, c); an even sum forces
      (0, 0, 0), the fiber at infinity, so refinement starts at p^(r - m) Z_p.
    * A ball that holds one root e alone, at a level k > v(e - e') + m for
      both other roots e', has chi(x - e') = chi(e - e') throughout; an even
      sum then forces the special-fiber image of e, so it is dropped.  Hence
      the balls of level k are the classes mod p^k of the roots live there,
      in root-index order (0, e1, e2), and they follow from r and D alone:
      0, e1 and e2 share the ball of 0 up to level r; after r, 0 holds its
      ball alone and is live up to r + m; e1 and e2 share one ball up to D,
      hold one each after it, and are live up to D + m, where the walk ends.
      Each level has at most three balls, and no evaluation goes deeper
      than D + 2m + 1.
    * Each ball of level k is split into p children by one rule at every
      place: those that hold a root are balls of level k + 1 or dropped,
      and the rootless ones are resolved at level k, in ascending residue.
      A rootless child lies p^k from each root inside the ball and farther
      from the others, so all three characters are constant on each of its
      p^m sub-balls of radius p^(k+1+m), and one point of each is evaluated.
      At m = 0 the triple of a rootless child b + j p^k is a constant (from
      the roots e outside the ball, where x - e keeps the unit class of
      b - e) plus leg(j - a_e) for each root e inside, a_e the residue of
      (e - b) / p^k, where chi reads units (v_p(d) odd); it is constant
      where chi does not.  With s distinct a_e, at most 2^s triples occur
      (one if chi ignores units), so the rootless children are scanned in
      order and the scan stops once all of them have been seen.  At m >= 1,
      only at p = 2, a ball that holds a root has at most one rootless
      child, so the stop skips nothing there.
    * The chain, the levels k with r + m < k < D - m, is periodic, so the
      walk does not run through it.  There the ball of 0 has been dropped
      and the one ball holds both e1 and e2, so a rootless child is x = e1
      + p^k u for units u mod p^(m+1).  Then chi(x) = chi(e1), since
      v(x / e1 - 1) = k - r > m, and chi(x - e2) = chi(p^k u), since
      v((e1 - e2) / (p^k u)) = D - k > m.  chi is additive, so level k
      yields the triples (chi(e1), t, t) with an even sum for t in
      k chi(p) + chi(Z_p^x), a set that depends only on k mod 2.  The walk
      takes the levels r - m through r + m + 2, which hold the first two
      chain levels, and then max(r + m + 3, D - m) to the end: the same
      triples, and no level more once D - r passes 2m + 3.  The range is
      fixed once per call.
    * An unramified place evaluates one rootless child per split ball.  At
      ramified odd p the scan ends once every possible triple has shown
      up: by the Weil bound on sum_j leg(f(j)) that happens within p
      children for every p past a small bound, and in practice within a
      few dozen; at small p, where some triple never occurs, it scans all
      p.

    The real place yields one exact sample per interval cut out by
    {0, e1, e2}, evaluated on its double.
    """
    c = norm_char_fn(d, place)

    if place == REAL_PLACE:
        e1, e2 = surface.e1, surface.e2
        f1, f2 = 2 * e1, 2 * e2
        for x in _real_samples(e1, e2):
            t = (c(x), c(x - f1), c(x - f2))
            if sum(t) % 2 == 0:
                yield Fraction(x, 2), t
        return

    p = place
    ext = _nonsplit_class(d, p)
    m = ext.conductor_n
    reads_units = ext is not _UNRAMIFIED
    square = 1
    if surface.r < m:
        surface, square = _integral_start(surface, p, m)
    r, big_d, e1, e2 = surface.r, surface.big_d, surface.e1, surface.e2
    last = big_d + m
    # Integers congruent to the roots far beyond every sub-ball radius stand
    # in for them: closeness and the characters see the same values.
    modulus = p ** (last + 2 * m + 3)
    f1 = e1 % modulus if type(e1) is int else _integral_residue(e1, modulus)
    f2 = e2 % modulus if type(e2) is int else _integral_residue(e2, modulus)
    digits = _SUB_BALL_DIGITS[m]
    levels = range(r - m, last + 1)
    if big_d - r > 2 * m + 3:
        # past its first two levels, the chain repeats what they yield
        levels = [*range(r - m, r + m + 3), *range(big_d - m, last + 1)]

    for k in levels:
        step = p**k
        child = p * step
        # the balls of level k in root-index order, each centre with the
        # residues of its root-holding children
        h1 = f1 % child
        if k <= r:
            # 0, e1 and e2 share the ball of 0; at k = r, e1 and e2 leave it
            # for its child h1, or for two children if D = r
            held = (0,) if k < r else (0, h1) if k < big_d else (0, h1, f2 % child)
            balls = ((0, held),)
        else:
            # e1 and e2 share one ball up to D and hold one each after it,
            # and 0 holds its ball alone up to r + m
            if k < big_d:
                balls = ((f1 % step, (h1,)),)
            elif k == big_d:
                balls = ((f1 % step, (h1, f2 % child)),)
            else:
                balls = ((f1 % step, (h1,)), (f2 % step, (f2 % child,)))
            if k <= r + m:
                balls = ((0, (0,)), *balls)
        for b, held in balls:
            patterns = 2 ** len(held) if reads_units else 1
            # at most eight triples, which a list tells apart faster than a set
            seen = []
            for x in range(b, b + child, step):
                if x in held:
                    continue
                for o in digits:
                    y = x + o * child
                    a, g1, g2 = t = (c(y), c(y - f1), c(y - f2))
                    if t not in seen:
                        seen.append(t)
                        if a == g1 ^ g2:
                            yield (y if square == 1 else Fraction(y, square)), t
                # at m >= 1 (p = 2) this was the only rootless child
                if len(seen) == patterns:
                    break


def characteristic_subgroup(
    d: Rational, surface: NormalizedSurface, place: Place
) -> Subgroup3:
    """F2 span of all characteristic triples of the normalized surface (local
    slot coordinates).

    Seeds with the four degenerate fibers, which cover the far region and the
    dropped balls, then adds the triples of `characteristic_points`, at p = 2
    on the surface _integral_start moves: it has the same triples, and its
    points are ints.  Every triple lies in the sum-zero plane, so any two
    distinct nonzero triples span the whole plane: the span is the line of
    the first nonzero triple until one differs from it, and complete then.
    The result is one of the five module constants.
    """
    fibers = special_fiber_images(d, surface, place)
    return _span(fibers, d, surface, place, classify_extension(d, place).conductor_n)


def _span(
    fibers: Tuple[Triple, ...], d: Rational, surface: NormalizedSurface, place: Place, m: int
) -> Subgroup3:
    """characteristic_subgroup from the fiber images of a non-split (d, place)
    of conductor exponent m."""
    # the fiber at infinity, fibers[0], maps to (0, 0, 0) and spans nothing;
    # the walk starts only if the fibers leave the span short of the plane
    first = None
    for t in fibers[1:]:
        if t != first and any(t):
            if first is not None:
                return _PLANE
            first = t
    if place == 2:
        # only p = 2 has m >= 1, so an integer surface (r >= 0) moves there
        # alone
        surface = _integral_start(surface, 2, m)[0]
    for _, t in characteristic_points(d, surface, place):
        if t != first and any(t):
            if first is not None:
                return _PLANE
            first = t
    return TRIVIAL_SUBGROUP if first is None else _LINE_OF[first]


def classify_case(d: Rational, surface: NormalizedSurface, place: Place) -> Tuple[str, int]:
    """Predict the group order from normalized root data, without enumeration.

    Every order-2 family has the group <(0, 1, 1)> in local slots: no point
    x of the surface has chi(x) = 1, so each triple lies in {(0, 0, 0),
    (0, 1, 1)}, and order 2 leaves only that line.  A point has an even
    triple, chi(x) = chi(x - e1) + chi(x - e2), so chi(x) = 1 would need
    chi(x - e1) != chi(x - e2).  The reason that cannot happen:

    * Real-d-negative: chi(x) = 1 exactly for x < 0, and y^2 - d z^2 >= 0
      keeps every point where x (x - e1) (x - e2) >= 0 with 0 < e1 < e2,
      so x >= 0 throughout.
    * Prop1-ii, Prop2-i and Prop3-i: the pair is close, D - r >= 2m + 1
      for the conductor exponent m (the depth below).  Write x - e2 =
      (x - e1)(1 - (e2 - e1) / (x - e1)): the characters of x - e1 and
      x - e2 differ only where v(x - e1) >= D - m, and there v(x / e1 - 1)
      >= D - m - r > m, so chi(x) = chi(e1).  Each family has chi(e1) = 0:
      Prop1-ii as chi = v mod 2 at an unramified place and r is even, and
      Prop2-i and Prop3-i by the criterion below.
    """
    ext = _nonsplit_class(d, place)
    if place == REAL_PLACE:
        # the order is 2^(k - 1) for the k real intervals where the cubic is
        # positive; for three distinct roots its signs on the four intervals
        # cut out by them run -, +, -, +, so k = 2 on every surface
        return "Real-d-negative", 2

    p = place
    r, big_d = surface.r, surface.big_d
    if ext is _UNRAMIFIED:
        if r % 2 != 0:
            return "Prop1-iii", 4
        if big_d == r:
            return "Prop1-i", 1
        return "Prop1-ii", 2
    family = "Prop2" if p != 2 else "Prop3"
    depth = 1 if p != 2 else 2 * ext.conductor_n + 1
    # v(e1 / e2 - 1) = D - r
    if big_d - r < depth:
        return f"{family}-iii", 4
    # the criterion reads chi(e1 / pi^r) for a norm uniformizer pi; chi(pi) = 0
    if chi(d, surface.e1, p) == 0:
        return f"{family}-i", 2
    return f"{family}-ii", 4


def _to_global(subgroup: Subgroup3, perm: Tuple[int, int, int]) -> Subgroup3:
    """The subgroup with slot i moved to root perm[i].  Only a line moves:
    its one basis vector is its canonical basis in any coordinates, and a
    plane is the whole sum-zero plane, which every permutation fixes."""
    if len(subgroup.basis) != 1:
        return subgroup
    (t,) = subgroup.basis
    g = [0, 0, 0]
    for slot, root in enumerate(perm):
        g[root - 1] = t[slot]
    return _LINE_OF[tuple(g)]


def _integral_roots(roots: Tuple[Rational, ...]) -> Tuple[Tuple[int, ...], int]:
    """The roots L^2 c_i, all ints, and L, the lcm of the denominators of the
    c_i.  x -> L^2 x multiplies the cubic by the square L^6, so with d in
    place of its square class the surfaces are isomorphic over Q."""
    c1, c2, c3 = roots
    if type(c1) is int and type(c2) is int and type(c3) is int:
        return roots, 1
    n1, m1 = c1.as_integer_ratio()
    n2, m2 = c2.as_integer_ratio()
    n3, m3 = c3.as_integer_ratio()
    scale = lcm(m1, m2, m3)
    square = scale * scale
    return (n1 * (square // m1), n2 * (square // m2), n3 * (square // m3)), scale


def _in_caller_coordinates(report: LocalReport, scale: int) -> LocalReport:
    """The report of the roots c_i, from that of the integer roots scale^2 c_i:
    only `normalized` depends on the coordinates, and it is mapped back, e ->
    e / scale^2 as a Fraction and r and D less 2 v(scale).  At scale 1 the
    report is returned as it is.  Both callers pass a non-split report, which
    has a normalized surface: local_chow answers a split place before it
    normalizes, and global_chow maps only reports with a nonzero subgroup."""
    if scale == 1:
        return report
    surface = report.normalized
    place = report.place
    square = scale * scale
    shift = 0 if place == REAL_PLACE else 2 * _valuation_and_unit(scale, place)[0]
    e1, e2 = Fraction(surface.e1, square), Fraction(surface.e2, square)
    normalized = NormalizedSurface(e1, e2, surface.r - shift, surface.big_d - shift, surface.perm)
    return LocalReport(
        place,
        report.ext_class,
        normalized,
        report.case_label,
        report.predicted_order,
        report.subgroup,
    )


def _repro_command(d: Rational, roots: Iterable[Rational], place: Optional[Place] = None) -> str:
    """The `chatelet local` command line that recomputes one local group, or
    with no place the `chatelet global` one.

    A value past Python's limit for int strings has no decimal string, and
    the CLI parsers refuse it anyway, so no line can repeat such a call: its
    values are named by _echo, and the line says it is not a reproduction."""
    texts, wide = [], False
    for value in (d, *roots):
        try:
            texts.append(str(value))
        except ValueError:
            texts.append(_echo(value))
            wide = True
    args = f"--d={texts[0]} --roots={','.join(texts[1:])}"
    line = f"chatelet global {args}" if place is None else f"chatelet local {args} --p={place}"
    if wide:
        line += " (not a reproduction: a value past Python's int-string limit is named in short)"
    return line


def local_chow(
    d: Rational, c1: Rational, c2: Rational, c3: Rational, place: Place
) -> LocalReport:
    """Class group of degree-zero 0-cycles at one place, as a subgroup of (Z/2)^3
    in global root coordinates, cross-checked against the case classifier.

    This is the one conversion point of a local call.  Both routes run on the
    integer normal form of the input: d0 = d * den(d)^2 and the roots L^2 c_i,
    L the lcm of the root denominators.  That surface is isomorphic over Q to
    the caller's, so its local group, case and generators are the caller's;
    only `normalized` is mapped back (_in_caller_coordinates), e -> e / L^2
    (a Fraction) and r and D less 2 v(L).  At L = 1 the coordinates agree
    and `normalized` is the integer surface itself, ints in e1 and e2.  On
    integer input, as global_chow passes it, the conversion changes nothing.

    The routes must agree on the subgroup, not only on its order: the
    enumerated one must be the subgroup that the predicted order fixes (see
    _SUBGROUP_OF_ORDER), or a ContradictionError names both.

    It is also the one check of a local call.  The routes run on the
    checked integer surface through the stages that normalize_roots,
    special_fiber_images and characteristic_subgroup run after their own
    checks, fed the one class and chi evaluator of (d0, place)."""
    if type(place) is not int and type(place) is not str:
        require_prime_place(place)  # ahead of the caches, which cannot hash a list
    d0 = _square_class_int(d)
    ext = classify_extension(d0, place)  # checks the place, then d
    roots = _distinct_roots(c1, c2, c3)
    if ext is _SPLIT:
        label = "Real-d-positive" if place == REAL_PLACE else "Split-trivial"
        return LocalReport(place, ext, None, label, 1, TRIVIAL_SUBGROUP)

    (n1, n2, n3), scale = _integral_roots(roots)
    surface = _normalize(n1, n2, n3, place)
    fibers = _fiber_images(norm_char_fn(d0, place), surface)
    local_sub = _span(fibers, d0, surface, place, ext.conductor_n)
    label, predicted = classify_case(d0, surface, place)
    expected = _SUBGROUP_OF_ORDER.get(predicted)
    if expected is None or local_sub.basis != expected.basis:
        predicted_sub = None if expected is None else _to_global(expected, surface.perm)
        found = _to_global(local_sub, surface.perm)
        raise ContradictionError(
            f"classifier predicts order {predicted} ({predicted_sub or 'no subgroup'}) "
            f"for {label} but enumeration found order {found.order} ({found}); "
            "reproduce with\n" + _repro_command(d, (c1, c2, c3), place),
            predicted_order=predicted,
            enumerated_order=found.order,
            predicted_subgroup=predicted_sub,
            enumerated_subgroup=found,
        )
    report = LocalReport(place, ext, surface, label, predicted, _to_global(local_sub, surface.perm))
    return _in_caller_coordinates(report, scale)
