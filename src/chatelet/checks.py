"""Seeded fuzz suites cross-validating the symbol, enumerator, and classifier.

Each suite is deterministic for a fixed Random instance and collects failures
instead of raising, so the CLI can print pass/fail counts; the test suite
asserts the failure lists are empty.  Surface generation is directed: every
case family has a constructor that lands in it by explicit congruence
arithmetic, and the suites verify the landing as part of the check.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Iterator, List, Tuple

from .factorint import _echo
from .globalchow import reciprocity_check
from .local import (
    ContradictionError,
    LocalReport,
    NormalizedSurface,
    Subgroup3,
    characteristic_subgroup,
    local_chow,
    normalize_roots,
)
from .norms import chi, classify_extension, is_local_square, norm_char_fn
from .padic import REAL_PLACE, Place, legendre, valuation

__all__ = [
    "CASE_FAMILIES",
    "CheckReport",
    "SuiteResult",
    "check_equivariance",
    "check_order_agreement",
    "check_reciprocity",
    "check_root_scaling",
    "check_sampled_membership",
    "check_square_scaling",
    "random_rational",
    "random_surface",
    "run_check",
]

CASE_FAMILIES = (
    "Split-trivial",
    "Prop1-i",
    "Prop1-ii",
    "Prop1-iii",
    "Prop2-i",
    "Prop2-ii",
    "Prop2-iii",
    "Prop3-i",
    "Prop3-ii",
    "Prop3-iii",
    "Real-d-negative",
    "Real-d-positive",
)

_SMOOTH_PRIMES = (2, 3, 5, 7, 11, 13)
_MAX_TRIES = 400
_MAX_STORED_FAILURES = 5


@dataclass(frozen=True)
class SuiteResult:
    name: str
    runs: int
    failed: int
    failures: Tuple[str, ...]  # first few messages only
    details: Tuple[Tuple[str, int], ...] = ()

    @property
    def ok(self) -> bool:
        return self.failed == 0


@dataclass(frozen=True)
class CheckReport:
    seed: int
    fuzz_count: int
    suites: Tuple[SuiteResult, ...]

    @property
    def ok(self) -> bool:
        return all(suite.ok for suite in self.suites)


def _result(name: str, records: Iterable[Tuple[bool, str]]) -> SuiteResult:
    """A suite's result from its (ok, message) records, read as they are made:
    one run each, and the messages of the first few failures."""
    runs = failed = 0
    messages: List[str] = []
    for ok, message in records:
        runs += 1
        if not ok:
            failed += 1
            if failed <= _MAX_STORED_FAILURES:
                messages.append(message)
    return SuiteResult(name, runs, failed, tuple(messages))


def random_rational(rng: random.Random, max_exp: int = 2) -> Fraction:
    """Nonzero signed rational with smooth support and bounded exponents."""
    value = Fraction(rng.choice((1, -1)))
    for q in _SMOOTH_PRIMES:
        if rng.random() < 0.5:
            value *= Fraction(q) ** rng.randint(-max_exp, max_exp)
    return value


# ---------------------------------------------------------------------------
# directed surface generation


def _signed_unit(rng: random.Random, p: int) -> int:
    bound = max(p * p, 16)
    while True:
        u = rng.choice((1, -1)) * rng.randint(1, bound)
        if u % p != 0:
            return u


def _odd_signed(rng: random.Random) -> int:
    return rng.choice((1, -1)) * (2 * rng.randint(0, 15) + 1)


def _unramified_d(rng: random.Random, p: int) -> Fraction:
    if p == 2:
        return (8 * rng.randint(-4, 4) + 5) * Fraction(4) ** rng.randint(-1, 1)
    for _ in range(_MAX_TRIES):
        c = _signed_unit(rng, p)
        if legendre(c, p) == 1:
            return c * Fraction(p) ** (2 * rng.randint(-1, 1))
    raise RuntimeError(f"found no nonresidue unit mod {p}")


def _norm_directed_element(
    rng: random.Random, d: Fraction, p: int, r: int, want: int
) -> Fraction:
    """A value e with v(e) = r and chi(e) equal to want, which is chi(e / pi^r)
    for a norm uniformizer pi."""
    for _ in range(_MAX_TRIES):
        u = _odd_signed(rng) if p == 2 else _signed_unit(rng, p)
        e = u * Fraction(p) ** r
        if chi(d, e, p) == want:
            return e
    raise RuntimeError(f"found no unit with character value {want} for d={d}, p={p}")


def _prop1(rng: random.Random, sub: str, small: bool) -> Tuple[Fraction, Fraction, Fraction, int]:
    if small:
        pool = (3, 5)
    elif sub == "i":
        pool = (3, 3, 5, 5, 7, 13)  # never 2: odd units cannot differ at valuation 0
    else:
        pool = (2, 3, 3, 5, 5, 7, 13)
    p = rng.choice(pool)
    d = _unramified_d(rng, p)
    if sub == "iii":
        r = rng.choice((-1, 1))
        u1 = _signed_unit(rng, p)
        u2 = _signed_unit(rng, p)
        while u2 == u1:
            u2 = _signed_unit(rng, p)
    else:
        r = rng.choice((-2, 0, 0, 0, 2))
        u1 = _signed_unit(rng, p)
        if sub == "i":
            u2 = _signed_unit(rng, p)
            while (u1 - u2) % p == 0:
                u2 = _signed_unit(rng, p)
        else:
            u2 = u1 + _signed_unit(rng, p) * p ** rng.randint(1, 2)
    return d, u1 * Fraction(p) ** r, u2 * Fraction(p) ** r, p


def _prop2(rng: random.Random, sub: str, small: bool) -> Tuple[Fraction, Fraction, Fraction, int]:
    p = 3 if small else rng.choice((3, 3, 3, 3, 3, 3, 3, 5))
    d = _signed_unit(rng, p) * Fraction(p) ** rng.choice((-1, 1))
    r = rng.choice((0, 0, 0, 1))
    if sub == "iii":
        u1 = _signed_unit(rng, p)
        u2 = _signed_unit(rng, p)
        while (u1 - u2) % p == 0:
            u2 = _signed_unit(rng, p)
        return d, u1 * Fraction(p) ** r, u2 * Fraction(p) ** r, p
    e1 = _norm_directed_element(rng, d, p, r, 0 if sub == "i" else 1)
    j = 1 if (small or p != 3) else rng.randint(1, 2)
    ratio = 1 + _signed_unit(rng, p) * Fraction(p) ** j
    return d, e1, e1 * ratio, p


def _prop3(
    rng: random.Random, sub: str, heavy: bool, small: bool
) -> Tuple[Fraction, Fraction, Fraction, int]:
    if heavy:
        d = Fraction(rng.choice((2, -2)))  # conductor 2
        depth = 5
        r = 0
    else:
        d = Fraction(rng.choice((-1, -5)))  # conductor 1
        depth = 3
        r = rng.choice((0, 0, 0, 1))
    if sub == "iii":
        u1 = _odd_signed(rng)
        u2 = u1 + _odd_signed(rng) * 2 ** rng.randint(1, depth - 1)
        return d, u1 * Fraction(2) ** r, u2 * Fraction(2) ** r, 2
    e1 = _norm_directed_element(rng, d, 2, r, 0 if sub == "i" else 1)
    extra = 0 if (heavy or small) else rng.choice((0, 0, 0, 1))
    ratio = 1 + _odd_signed(rng) * Fraction(2) ** (depth + extra)
    return d, e1, e1 * ratio, 2


def _distinct_rationals(rng: random.Random) -> Tuple[Fraction, Fraction, Fraction]:
    while True:
        roots = tuple(
            Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3))) for _ in range(3)
        )
        if len(set(roots)) == 3:
            return roots


def _split_d(rng: random.Random, p: int) -> Fraction:
    for _ in range(_MAX_TRIES):
        d = random_rational(rng)
        if is_local_square(d, p):
            return d
    raise RuntimeError(f"found no local square at p={p}")


def random_surface(
    rng: random.Random, family: str, heavy: bool = False, small: bool = False
) -> Tuple[Fraction, Tuple[Fraction, Fraction, Fraction], Place]:
    """One fuzzed surface (d, roots, place) directed at the named case family.

    heavy asks the dyadic ramified constructor for a conductor-2 class (deeper
    refinement); small restricts primes and depths so that the flat-sweep
    test oracle stays cheap on the result.
    """
    if family not in CASE_FAMILIES:
        raise ValueError(f"unknown case family {_echo(family)}")
    if family == "Real-d-positive":
        return abs(random_rational(rng)), _distinct_rationals(rng), REAL_PLACE
    if family == "Real-d-negative":
        return -abs(random_rational(rng)), _distinct_rationals(rng), REAL_PLACE
    if family == "Split-trivial":
        p = rng.choice((2, 3, 5, 7, 13))
        return _split_d(rng, p), _distinct_rationals(rng), p
    group, sub = family.split("-")
    if group == "Prop1":
        d, e1, e2, p = _prop1(rng, sub, small)
    elif group == "Prop2":
        d, e1, e2, p = _prop2(rng, sub, small)
    else:
        d, e1, e2, p = _prop3(rng, sub, heavy, small)
    if rng.random() < 0.3:
        d *= random_rational(rng, 1) ** 2  # same square class, messier input
    shift = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
    roots = [shift, shift + e1, shift + e2]
    rng.shuffle(roots)
    return d, tuple(roots), p


# ---------------------------------------------------------------------------
# symbol suite


def check_reciprocity(rng: random.Random, count: int = 200) -> SuiteResult:
    """Product formula: local symbols of a rational pair sum to zero."""

    def records() -> Iterator[Tuple[bool, str]]:
        for _ in range(count):
            a = random_rational(rng)
            b = random_rational(rng)
            report = reciprocity_check(a, b)
            yield report.ok, (
                f"(a={a}, b={b}): local sum {report.total} from {report.symbols}"
            )

    return _result("reciprocity", records())


# ---------------------------------------------------------------------------
# enumerator suites


def check_order_agreement(rng: random.Random, count: int = 200) -> SuiteResult:
    """Enumerated subgroup equals the one the classifier's order fixes, per family.

    local_chow compares the subgroups themselves, not only their orders, and
    raises on any disagreement; this suite additionally verifies the directed
    constructions land in their intended family.
    """
    bins: Counter = Counter()

    def records() -> Iterator[Tuple[bool, str]]:
        for family in CASE_FAMILIES:
            heavy_budget = max(1, count // 100) if family.startswith("Prop3") else 0
            for i in range(count):
                d, roots, place = random_surface(rng, family, heavy=i < heavy_budget)
                where = f"{family} d={d} roots={roots} v={place}"
                try:
                    report = local_chow(d, *roots, place)
                except ContradictionError as exc:
                    yield False, f"{where}: {exc}"
                    continue
                bins[report.case_label] += 1
                yield report.case_label == family, f"{where}: landed in {report.case_label}"

    result = _result("order-agreement", records())
    return replace(result, details=tuple(sorted(bins.items())))


_ENUMERABLE_FAMILIES = tuple(f for f in CASE_FAMILIES if f.startswith("Prop"))


def check_sampled_membership(rng: random.Random, count: int = 200) -> SuiteResult:
    """Random points x of the base line that lift to the surface have triples
    inside the enumerated subgroup.

    x is drawn near each degenerate fiber at every depth from r - m down to
    D + 2m + 3, past the deepest point the enumerator evaluates (D + 2m + 1),
    and in the far region v(x) < r - m, which it never visits
    (r = v(e1) = v(e2), D = v(e1 - e2), m = conductor_n).
    """

    def records() -> Iterator[Tuple[bool, str]]:
        for i in range(count):
            family = _ENUMERABLE_FAMILIES[i % len(_ENUMERABLE_FAMILIES)]
            heavy = (i // len(_ENUMERABLE_FAMILIES)) % 2 == 1
            d, roots, p = random_surface(rng, family, heavy=heavy)
            surface = normalize_roots(*roots, p)
            e1, e2, r = surface.e1, surface.e2, surface.r
            ext = classify_extension(d, p)
            enumerated = characteristic_subgroup(d, surface, p)
            m = ext.conductor_n
            deepest = surface.big_d + 2 * m + 3
            samples = [_signed_unit(rng, p) * Fraction(p) ** j for j in range(r - m - 3, r - m)]
            for e in (0, e1, e2):
                for j in range(r - m, deepest + 1):
                    samples.append(e + _signed_unit(rng, p) * Fraction(p) ** j)
            c = norm_char_fn(d, p)
            outside = []
            for x in samples:
                if x in (0, e1, e2):
                    continue
                t = (c(x), c(x - e1), c(x - e2))
                if sum(t) % 2 == 0 and not enumerated.contains(t):
                    outside.append((str(x), t))
            yield not outside, (
                f"{family} d={d} roots={roots} v={p}: {outside[:3]} outside {enumerated.basis}"
            )

    return _result("sampled-membership", records())


def _small_draws(
    rng: random.Random, count: int
) -> Iterator[Tuple[str, Fraction, Tuple[Fraction, Fraction, Fraction], Place, LocalReport]]:
    """(family, d, roots, place, report) for count small surfaces, the i-th of
    family i mod 12, each with its local_chow report.  local_chow draws
    nothing, so a suite's own draws for a surface follow that surface's."""
    for i in range(count):
        family = CASE_FAMILIES[i % len(CASE_FAMILIES)]
        d, roots, place = random_surface(rng, family, small=True)
        yield family, d, roots, place, local_chow(d, *roots, place)


_PERMUTATIONS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def check_equivariance(rng: random.Random, count: int = 200) -> SuiteResult:
    """Permuting the roots permutes the subgroup coordinates the same way."""

    def records() -> Iterator[Tuple[bool, str]]:
        for family, d, roots, place, base in _small_draws(rng, count):
            sigma = rng.choice(_PERMUTATIONS)
            permuted = tuple(roots[s] for s in sigma)
            moved = local_chow(d, *permuted, place)
            # position i of the permuted call holds original root sigma[i]
            mapped = Subgroup3.span(
                tuple(g[sigma[i]] for i in range(3)) for g in base.subgroup.basis
            )
            yield moved.subgroup == mapped and moved.case_label == base.case_label, (
                f"{family} d={d} roots={roots} sigma={sigma} v={place}: "
                f"{moved.subgroup.basis} expected {mapped.basis}"
            )

    return _result("equivariance", records())


def check_square_scaling(rng: random.Random, count: int = 200) -> SuiteResult:
    """Multiplying d by a nonzero rational square changes nothing."""

    def records() -> Iterator[Tuple[bool, str]]:
        for family, d, roots, place, base in _small_draws(rng, count):
            s = random_rational(rng, 1)
            scaled = local_chow(d * s * s, *roots, place)
            yield scaled == base, f"{family} d={d} s={s} roots={roots} v={place}: reports differ"

    return _result("square-scaling", records())


def check_root_scaling(rng: random.Random, count: int = 200) -> SuiteResult:
    """Moving the roots by x -> s^2 x + t, an isomorphism over Q, keeps the
    case, the predicted order and the subgroup; the normalized surface has
    e -> s^2 e and r, D -> r + 2 v(s), D + 2 v(s).

    This is the premise of the integer normal form that local_chow and
    global_chow run on."""

    def records() -> Iterator[Tuple[bool, str]]:
        for family, d, roots, place, base in _small_draws(rng, count):
            s = random_rational(rng, 1)
            t = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7)))
            moved = local_chow(d, *(s * s * c + t for c in roots), place)
            expected = base.normalized
            if expected is not None:
                shift = 0 if place == REAL_PLACE else 2 * valuation(s, place)
                expected = NormalizedSurface(
                    s * s * expected.e1,
                    s * s * expected.e2,
                    expected.r + shift,
                    expected.big_d + shift,
                    expected.perm,
                )
            yield (
                (moved.case_label, moved.predicted_order, moved.subgroup, moved.normalized)
                == (base.case_label, base.predicted_order, base.subgroup, expected)
            ), (
                f"{family} d={d} roots={roots} s={s} t={t} v={place}: "
                f"{moved.case_label} {moved.subgroup.basis} {moved.normalized}, expected "
                f"{base.case_label} {base.subgroup.basis} {expected}"
            )

    return _result("root-scaling", records())


_CLI_SUITES: Tuple[Tuple[str, Callable[[random.Random, int], SuiteResult]], ...] = (
    ("order-agreement", check_order_agreement),
    ("reciprocity", check_reciprocity),
    ("sampled-membership", check_sampled_membership),
    ("equivariance", check_equivariance),
    ("square-scaling", check_square_scaling),
    ("root-scaling", check_root_scaling),
)


def run_check(seed: int = 0, fuzz_count: int = 50) -> CheckReport:
    """The self-check suites behind the CLI, deterministically seeded.

    order-agreement interprets fuzz_count per case family; the other suites
    treat it as a total.
    """
    suites = tuple(
        suite(random.Random(f"{seed}:{name}"), fuzz_count)
        for name, suite in _CLI_SUITES
    )
    return CheckReport(seed=seed, fuzz_count=fuzz_count, suites=suites)
