"""Global degree-zero class group over Q from the finite set of relevant places."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from .factorint import RhoBudget, factorize, primes_below
from .gf2 import gf2_rank
from .local import (
    ContradictionError,
    LocalReport,
    Subgroup3,
    _distinct_roots,
    _repro_command,
    _triple_bits,
    local_chow,
)
from .padic import (
    REAL_PLACE,
    Place,
    Rational,
    _nonzero,
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


@lru_cache(maxsize=None)
def _sample_pool() -> Tuple[int, ...]:
    """Odd primes below the pool limit, sieved once on first use."""
    return tuple(primes_below(_SAMPLE_POOL_LIMIT)[1:])


def _place_sort_key(place: Place) -> Tuple[int, int]:
    return (0, 0) if place == REAL_PLACE else (1, place)


def _odd_prime_support(values: Iterable[Fraction]) -> set:
    """Odd primes dividing a numerator or denominator of the values.  Each is
    first divided by the primes already found, so a prime shared by several
    values (P and Q in every root difference s - (s + aPQ)) is factored once.
    All the factoring draws on one rho budget, that of the largest value, so
    a call costs at most what factoring its largest value may cost."""
    parts = [n for value in values for n in (value.numerator, value.denominator)]
    budget = RhoBudget(max(abs(n) for n in parts))
    primes: set = set()
    for n in parts:
        for p in primes:
            while n % p == 0:
                n //= p
        if n not in (1, -1):
            primes.update(factorize(n, budget))
    primes.discard(2)
    return primes


def candidate_places(d: Rational, c1: Rational, c2: Rational, c3: Rational) -> List[Place]:
    """Places where the local group can possibly be nontrivial: the real place, 2,
    and odd primes dividing d or a root difference.  Empty if d is a square in Q."""
    d = _nonzero(d, "d must be nonzero")
    roots = _distinct_roots(c1, c2, c3)
    if is_rational_square(d):
        return []
    diffs = [roots[0] - roots[1], roots[0] - roots[2], roots[1] - roots[2]]
    places: List[Place] = [REAL_PLACE, 2]
    places.extend(_odd_prime_support([d, *diffs]))
    return sorted(places, key=_place_sort_key)


def kernel_dimension(subgroups: Iterable[Subgroup3]) -> int:
    """Dimension of the kernel of summation from the direct sum of the given
    subgroups of (Z/2)^3 into (Z/2)^3."""
    total = 0
    rows: List[int] = []
    for sub in subgroups:
        bits = [_triple_bits(t) for t in sub.basis]
        if any(b == 0 for b in bits) or gf2_rank(bits) != len(bits):
            raise ValueError(f"subgroup basis is not independent: {sub.basis}")
        for t in sub.basis:
            if sum(t) % 2 != 0:
                raise ValueError(f"basis vector {t} does not sum to zero")
        total += sub.dim
        rows.extend(bits)
    return total - gf2_rank(rows)


@dataclass(frozen=True)
class GlobalReport:
    d: Fraction
    roots: Tuple[Fraction, Fraction, Fraction]
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
    with a sanity sample of non-candidate primes asserted trivial."""
    d = _nonzero(d, "d must be nonzero")
    roots = _distinct_roots(c1, c2, c3)
    places = candidate_places(d, *roots)
    if not places:  # d is a square in Q: every completion splits
        return GlobalReport(d, roots, 0, (), (), ())

    reports = [local_chow(d, *roots, place) for place in places]
    nontrivial = tuple(rep for rep in reports if rep.subgroup.dim > 0)
    kernel = kernel_dimension([rep.subgroup for rep in nontrivial])

    rng = rng if rng is not None else random.Random(0)
    excluded = set(places)
    pool = [p for p in _sample_pool() if p not in excluded]
    sampled = tuple(sorted(rng.sample(pool, min(sample_primes, len(pool)))))
    for q in sampled:
        rep = local_chow(d, *roots, q)
        if rep.subgroup.dim != 0:
            raise ContradictionError(
                f"non-candidate prime {q} has a nontrivial local group; "
                f"the candidate place set {places} is incomplete; reproduce with\n"
                + _repro_command(d, roots, q),
                predicted_order=1,
                enumerated_order=rep.subgroup.order,
            )
    return GlobalReport(d, roots, kernel, nontrivial, tuple(places), sampled)


@dataclass(frozen=True)
class ReciprocityReport:
    symbols: Dict[Place, int]
    total: int

    @property
    def ok(self) -> bool:
        return self.total == 0


def reciprocity_check(a: Rational, b: Rational) -> ReciprocityReport:
    """Hilbert symbols of (a, b) over every place that can be nonzero; their F2
    sum must vanish."""
    a = _nonzero(a, "reciprocity needs nonzero arguments")
    b = _nonzero(b, "reciprocity needs nonzero arguments")
    places: List[Place] = [REAL_PLACE, 2]
    places.extend(_odd_prime_support([a, b]))
    places.sort(key=_place_sort_key)
    symbols = {place: hilbert_symbol(a, b, place) for place in places}
    return ReciprocityReport(symbols, sum(symbols.values()) % 2)
