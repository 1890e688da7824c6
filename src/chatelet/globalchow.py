"""Global degree-zero class group over Q from the finite set of relevant places."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import filterfalse
from typing import Dict, Iterable, List, Optional, Tuple

from .factorint import FactorizationError, RhoBudget, _echo, factorize, primes_below
from .gf2 import gf2_rank
from .local import (
    ContradictionError,
    LocalReport,
    Subgroup3,
    TRIVIAL_SUBGROUP,
    _distinct_roots,
    _in_caller_coordinates,
    _integral_roots,
    _repro_command,
    _triple_bits,
    local_chow,
)
from .padic import (
    REAL_PLACE,
    Place,
    Rational,
    _nonzero,
    _square_class_int,
    _valuation_and_unit,
    hilbert_symbol,
    is_rational_square,
)

__all__ = [
    "GlobalReport",
    "ReciprocityReport",
    "candidate_places",
    "global_chow",
    "kernel_dimension",
    "reciprocity_check",
]

_SAMPLE_POOL_LIMIT = 2_000
# The odd primes below the pool limit, sieved once at import.
_SAMPLE_POOL = tuple(primes_below(_SAMPLE_POOL_LIMIT)[1:])


def _draw(rng: random.Random, excluded: Iterable[int], size: int) -> Tuple[int, ...]:
    """size primes of the pool, none of them excluded, drawn with rng and
    sorted (all of the rest if fewer are left)."""
    pool = list(filterfalse(set(excluded).__contains__, _SAMPLE_POOL))
    return tuple(sorted(rng.sample(pool, min(size, len(pool)))))


@lru_cache(maxsize=1024)
def _default_sample(excluded: Tuple[int, ...], size: int) -> Tuple[int, ...]:
    """The draw of a fresh random.Random(0), once per process for each set
    of excluded pool primes: it depends on nothing else, and a stream of
    calls repeats the same candidate sets."""
    return _draw(random.Random(0), excluded, size)


def _places_of(values: Iterable[Rational]) -> List[Place]:
    """The real place, 2 and the odd primes dividing a numerator or
    denominator of the values, ascending.  Each part is first divided by the
    primes already found, so a prime shared by several values (P and Q in
    every root difference s - (s + aPQ)) is factored once.  All the
    factoring draws on one rho budget, that of the largest value, so a call
    costs at most what factoring its largest value may cost."""
    parts = [n for value in values for n in value.as_integer_ratio()]
    budget = RhoBudget(max(map(abs, parts)))
    primes: set = set()
    for n in parts:
        for p in primes:
            while n % p == 0:
                n //= p
        if n not in (1, -1):
            primes.update(factorize(n, budget))
    primes.discard(2)
    return [REAL_PLACE, 2, *sorted(primes)]


def candidate_places(d: Rational, c1: Rational, c2: Rational, c3: Rational) -> List[Place]:
    """Places where the local group can possibly be nontrivial: the real place, 2,
    and odd primes dividing d or a root difference.  Empty if d is a square in Q.
    A FactorizationError ends with the `chatelet global` line that repeats it."""
    d = _nonzero(d, "d must be nonzero")
    roots = _distinct_roots(c1, c2, c3)
    if is_rational_square(d):
        return []
    diffs = [roots[0] - roots[1], roots[0] - roots[2], roots[1] - roots[2]]
    try:
        return _places_of([d, *diffs])
    except FactorizationError as exc:
        raise FactorizationError(
            f"{exc}; reproduce with\n" + _repro_command(d, (c1, c2, c3)), exc.n
        ) from exc


def kernel_dimension(subgroups: Iterable[Subgroup3]) -> int:
    """Dimension of the kernel of summation from the direct sum of the given
    subgroups of (Z/2)^3 into (Z/2)^3.  Each must lie in the sum-zero plane;
    its basis is independent, as every Subgroup3's is."""
    total = 0
    rows: List[int] = []
    for sub in subgroups:
        for t in sub.basis:
            if sum(t) % 2 != 0:
                raise ValueError(f"basis vector {t} does not sum to zero")
        total += sub.dim
        rows.extend(map(_triple_bits, sub.basis))
    return total - gf2_rank(rows)


@dataclass(frozen=True)
class GlobalReport:
    d: Rational  # d and the roots as the caller gave them
    roots: Tuple[Rational, Rational, Rational]
    kernel_dim: int
    local_reports: Tuple[LocalReport, ...]  # nontrivial places only
    checked_places: Tuple[Place, ...]
    sampled_primes: Tuple[int, ...]

    @property
    def group(self) -> str:
        return f"(Z/2)^{self.kernel_dim}"

    @property
    def place_orders(self) -> Dict[Place, int]:
        return {rep.place: rep.subgroup.order for rep in self.local_reports}


def global_chow(
    d: Rational,
    c1: Rational,
    c2: Rational,
    c3: Rational,
    sample_primes: int = 20,
    rng: Optional[random.Random] = None,
) -> GlobalReport:
    """Global group as the kernel of the summation map over all candidate places,
    with a sanity sample of non-candidate primes asserted trivial.

    candidate_places checks d and the roots once, and the report holds them
    as the caller gave them, ints or Fractions.  Every place then runs on
    one integer surface, made once per call: d0 the squarefree int of d's
    square class, and the roots L^2 c_i, L the lcm of the root denominators
    (as local_chow makes them).  candidate_places has factored d, so every
    prime of d is a candidate, and d0 is d * den(d)^2 with the even part of
    each prime's power divided out; the sign stays.  d0 / d is a rational
    square, so every local group is the caller's, and the caches of
    classify_extension and norm_char_fn see one key per square class and
    place: d = 3, 12 and 75 share theirs.  The nontrivial reports kept have
    `normalized` mapped back to the caller's coordinates by
    _in_caller_coordinates, as local_chow maps its own.  A
    ContradictionError raised inside local_chow prints that integer surface
    in its reproduction line, which recomputes the same local group.

    sample_primes must be an int >= 0, not a bool (TypeError, ValueError
    otherwise).
    Without an rng the sample is that of random.Random(0), the same for equal
    candidate sets, and is drawn once per process for each."""
    if not isinstance(sample_primes, int) or type(sample_primes) is bool:
        raise TypeError(f"sample_primes must be an int, got {type(sample_primes).__name__}")
    if sample_primes < 0:
        raise ValueError(f"sample_primes must be >= 0, got {_echo(sample_primes)}")
    places = candidate_places(d, c1, c2, c3)
    roots = (c1, c2, c3)
    if not places:  # d is a square in Q: every completion splits
        return GlobalReport(d, roots, 0, (), (), ())

    # every prime of d is a candidate: keep its power's parity alone
    d0 = _square_class_int(d)
    for p in places[1:]:
        v, u = _valuation_and_unit(d0, p)
        d0 = u * p if v % 2 else u
    (n1, n2, n3), scale = _integral_roots(roots)
    reports = [local_chow(d0, n1, n2, n3, place) for place in places]
    nontrivial = [_in_caller_coordinates(rep, scale) for rep in reports if rep.subgroup.basis]
    kernel = kernel_dimension([rep.subgroup for rep in nontrivial])

    in_pool = tuple([p for p in places[2:] if p < _SAMPLE_POOL_LIMIT])  # odd candidates
    if rng is None:
        sampled = _default_sample(in_pool, sample_primes)
    else:
        sampled = _draw(rng, in_pool, sample_primes)
    for q in sampled:
        rep = local_chow(d0, n1, n2, n3, q)
        if rep.subgroup.basis:
            raise ContradictionError(
                f"non-candidate prime {q} has a nontrivial local group; "
                f"the candidate place set {places} is incomplete; reproduce with\n"
                + _repro_command(d, roots, q),
                predicted_order=1,
                enumerated_order=rep.subgroup.order,
                predicted_subgroup=TRIVIAL_SUBGROUP,
                enumerated_subgroup=rep.subgroup,
            )
    return GlobalReport(d, roots, kernel, tuple(nontrivial), tuple(places), sampled)


@dataclass(frozen=True)
class ReciprocityReport:
    symbols: Tuple[Tuple[Place, int], ...]  # (place, symbol), places ascending
    total: int

    @property
    def ok(self) -> bool:
        return self.total == 0


def reciprocity_check(a: Rational, b: Rational) -> ReciprocityReport:
    """Hilbert symbols of (a, b) over every place that can be nonzero; their F2
    sum must vanish."""
    a = _nonzero(a, "reciprocity needs nonzero arguments")
    b = _nonzero(b, "reciprocity needs nonzero arguments")
    symbols = tuple((place, hilbert_symbol(a, b, place)) for place in _places_of([a, b]))
    return ReciprocityReport(symbols, sum(s for _, s in symbols) % 2)
