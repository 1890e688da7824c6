"""Seeded input corpora for the benchmark workloads.

The generators use only the standard library (their own sieve and Euler's
criterion), never the `chatelet` package, so a change to the program cannot
shift the corpus.  Every root difference is controlled, so each call finishes
on the code the benchmark was written against; no input is dropped for being
slow.

A corpus is a list of rounds, each a list of calls.  A call is a JSON-ready
dict: ``{"kind": "local", "d": "3", "roots": [...], "place": 3}`` or
``{"kind": "global", "d": "-30", "roots": [...]}`` with rationals as strings.
The benchmark runs whole rounds until its time is up, so a round is the unit
of the cost mix.  Every call of the corpus of each pinned seed has a pinned
answer (`pin.py`), so a run that ends early on a fast program has still
checked every answer against a known one.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import isqrt
from typing import Dict, List, Sequence, Tuple

WORKLOADS = ("local-deep", "global-sampled", "global-factor")

# Rounds per corpus: 2.4 to 3 times what a 30-second run takes on the 2-core
# machine the sizes were chosen on (up to 13 rounds of local-deep, 8 of
# global-sampled and 19 of global-factor), so a program more than twice as
# fast still runs for the whole of its time.  Every call of these rounds is
# pinned.
ROUNDS = {"local-deep": 36, "global-sampled": 23, "global-factor": 45}
# The seeds whose answers pin.py records.
PINNED_SEEDS = range(10)
FACTOR_ROUND = 10
QUICK_GLOBAL_CALLS = 3

# local-deep cells, one call each per round.  A cell fixes everything that
# decides the cost of local_chow: the prime, the extension, the depth
# D = v(e1 - e2) and the residue classes of e1 and of w = (e2 - e1) / p^D that
# decide when the enumerator may stop early.  The draw randomises the rest:
# the unit in d, the higher digits of e1 and w, a shift and the root order.
#
# Odd p, d = p*u: (p, D, e1 a quadratic residue mod p?).  With a residue the
# classifier lands on Prop2-i (order 2), which the enumerator cannot cut short.
_ODD_CELLS = (
    (3, 1, True), (3, 1, False), (3, 2, True), (3, 2, False),
    (3, 3, True), (3, 3, False),
    (5, 1, True), (5, 1, False), (5, 2, True), (5, 2, False),
    (7, 1, True), (7, 1, False),
)
# p = 2: (choices of d, D, choices of e1 mod 8).  The first four d have
# conductor exponent 1, the others 2.
_COND1 = (-1, 3, -5, 7)
_DYADIC_CELLS = (
    (_COND1, 2, (1, 5)), (_COND1, 2, (3, 7)),
    (_COND1, 3, (1, 5)), (_COND1, 3, (3, 7)),
    (_COND1, 4, (1, 5)), (_COND1, 4, (3, 7)),
    (_COND1, 5, (1, 5)),
    ((-2,), 3, (1, 3)), ((6,), 3, (5, 7)), ((-6,), 3, (3, 5)), ((-6,), 4, (1, 7)),
    ((6,), 5, (5, 7)), ((-6,), 5, (1, 7)),
)
# The 25 cells cost from 0.2 ms to 0.9 s.  Their count is odd and the cells
# next in cost to the 13th (the median) and the 23rd (the 90th percentile)
# differ from them by 30 % or more, so each percentile falls inside one cell's
# cluster of calls and not on the edge between two.

# The cheapest cells, for the benchmark's self-test.
_QUICK_ODD = _ODD_CELLS[:4]
_QUICK_DYADIC = _DYADIC_CELLS[:4]


def _rng(workload: str, seed: int, quick: bool) -> random.Random:
    # str seeds hash with SHA-512 in random.seed, so they do not depend on
    # PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{'quick' if quick else 'full'}")


def _text(q) -> str:
    return str(Fraction(q))


def _local_call(rng: random.Random, d: int, e1: int, e2: int, p: int) -> Dict:
    shift = rng.randint(-100, 100)
    roots = [shift, shift + e1, shift + e2]
    rng.shuffle(roots)
    return {"kind": "local", "d": _text(d), "roots": [_text(c) for c in roots], "place": p}


def _euler_is_residue(a: int, p: int) -> bool:
    return pow(a % p, (p - 1) // 2, p) == 1


def _odd_cell(rng: random.Random, p: int, depth: int, residue: bool) -> Dict:
    units = [a for a in range(1, p) if _euler_is_residue(a, p) == residue]
    e1 = rng.choice(units) + p * rng.randrange(64)
    w = rng.choice([a for a in range(1, p * p) if a % p])
    u = rng.choice([a for a in range(-4 * p, 4 * p) if a % p])
    return _local_call(rng, p * u, e1, e1 + p**depth * w, p)


def _dyadic_cell(rng: random.Random, ds: Sequence[int], depth: int, classes: Sequence[int]) -> Dict:
    e1 = rng.choice(classes) + 8 * rng.randrange(64)
    w = 2 * rng.randrange(256) + 1
    return _local_call(rng, rng.choice(ds), e1, e1 + 2**depth * w, 2)


def _local_deep(rng: random.Random, quick: bool) -> List[List[Dict]]:
    odd, dyadic = (_QUICK_ODD, _QUICK_DYADIC) if quick else (_ODD_CELLS, _DYADIC_CELLS)
    rounds = []
    for _ in range(1 if quick else ROUNDS["local-deep"]):
        calls = [_odd_cell(rng, *cell) for cell in odd]
        calls += [_dyadic_cell(rng, *cell) for cell in dyadic]
        rng.shuffle(calls)
        rounds.append(calls)
    return rounds


def _is_rational_square(q: Fraction) -> bool:
    return q > 0 and all(isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))


def _valuation(q: Fraction, p: int) -> int:
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# Largest spread v(e1 - e2) - v(e1) of the root differences at p = 2, 3, 5,
# the primes that can ramify.  The enumerator's window grows as p to the
# power of this spread.  global-sampled is the shallow regime (local-deep is
# the deep one); uncapped, a draw such as d = 30 with roots 5/4, 6, -14/3
# (spread 7 at p = 2) takes 20 s and decides the throughput of a run alone.
SAMPLED_SPREAD = {2: 1, 3: 1, 5: 1}


def _spread_ok(roots: Sequence[Fraction]) -> bool:
    diffs = (roots[0] - roots[1], roots[0] - roots[2], roots[1] - roots[2])
    for p, limit in SAMPLED_SPREAD.items():
        vals = sorted(_valuation(x, p) for x in diffs)
        if vals[2] - vals[0] > limit:
            return False
    return True


# global-sampled draws d = +-2^a 3^b 5^c (a, b, c <= 2, not a square) and the
# three denominators from 1..4, in seeded cycles: d over its 15 square classes
# (the class fixes the extension at every place), the denominators over all
# 64 triples.
_SAMPLED_CLASSES = tuple(
    tuple(s * 2**a * 3**b * 5**c for a in range(ka, 3, 2) for b in range(kb, 3, 2) for c in range(kc, 3, 2))
    for s in (1, -1) for ka in (0, 1) for kb in (0, 1) for kc in (0, 1)
    if (s, ka, kb, kc) != (1, 0, 0, 0)
)
_DENOMINATORS = tuple(product(range(1, 5), repeat=3))


def _largest_prime_factor(n: int) -> int:
    n, q, best = abs(n), 2, 1
    while q * q <= n:
        while n % q == 0:
            best, n = q, n // q
        q += 1
    return max(best, n)


# Two properties of the roots decide most of the cost of a global-sampled
# call.  The largest prime in a root difference: an unramified candidate q
# costs the enumerator about q^2, so a bucket of 13 or less, 17 to 47, or 53
# and more (in the natural draw about 48, 44 and 8 % of calls).  And the
# largest denominator of the reduced roots, 1 to 4, which widens the
# sampled-prime check: the median call takes 66 ms with integral roots and
# 325 ms with a root in quarters.  Each round of twenty holds the same number
# of calls of each (bucket, denominator) pair, close to the natural mix, so
# runs of whole rounds differ only in the draws inside each pair.
_PRIME_BUCKETS = (13, 47)
_ROUND_QUOTA = {
    (0, 1): 3, (0, 2): 2, (0, 3): 3, (0, 4): 2,
    (1, 1): 1, (1, 2): 2, (1, 3): 3, (1, 4): 2,
    (2, 3): 1, (2, 4): 1,
}


def _stratum(roots: Sequence[Fraction]) -> Tuple[int, int]:
    top = max(_largest_prime_factor((a - b).numerator)
              for a, b in ((roots[0], roots[1]), (roots[0], roots[2]), (roots[1], roots[2])))
    return sum(top > edge for edge in _PRIME_BUCKETS), max(r.denominator for r in roots)


def _sampled_rounds(rng: random.Random, count: int) -> List[List[Dict]]:
    classes: List[Tuple[int, ...]] = []
    dens: List[Tuple[int, ...]] = []
    queues: Dict[Tuple[int, int], List[Dict]] = {k: [] for k in _ROUND_QUOTA}
    rounds = []
    while len(rounds) < count:
        while any(len(queues[k]) < n for k, n in _ROUND_QUOTA.items()):
            classes = classes or rng.sample(_SAMPLED_CLASSES, len(_SAMPLED_CLASSES))
            dens = dens or rng.sample(_DENOMINATORS, len(_DENOMINATORS))
            d, den = rng.choice(classes.pop()), dens.pop()
            while True:
                roots = [Fraction(rng.randint(-20, 20), q) for q in den]
                if len(set(roots)) == 3 and _spread_ok(roots):
                    break
            queues.get(_stratum(roots), []).append(
                {"kind": "global", "d": _text(d), "roots": [_text(c) for c in roots]}
            )
        calls = [queues[k].pop(0) for k, n in _ROUND_QUOTA.items() for _ in range(n)]
        rng.shuffle(calls)
        rounds.append(calls)
    return rounds


def _primes_between(lo: int, hi: int) -> List[int]:
    sieve = bytearray([1]) * hi
    sieve[0] = sieve[1] = 0
    for n in range(2, isqrt(hi - 1) + 1):
        if sieve[n]:
            sieve[n * n :: n] = bytes(len(range(n * n, hi, n)))
    return [n for n in range(lo, hi) if sieve[n]]


def _seven_smooth(n: int) -> bool:
    for q in (2, 3, 5, 7):
        while n % q == 0:
            n //= q
    return n == 1


# Small non-square d whose prime factors are at most 7: a ramified candidate
# place then costs at most the p = 7 enumeration.
_FACTOR_DS = tuple(
    d for d in range(-60, 61)
    if d != 0 and _seven_smooth(abs(d)) and not _is_rational_square(Fraction(d))
)


# P and Q come from [8.5e5, 1e6), above the [2e5, 1e6) first proposed, so that
# trial division to P (P/6 steps per root difference) is the largest layer:
# in the spans pass of a traced run, factorize took 45 % of the time and the
# enumerator 53 % with P, Q from [2e5, 1e6), 54 % and 44 % from [5e5, 1e6),
# and 62 % and 36 % from [8.5e5, 1e6).  Both stay below the default
# trial-division bound of 1e6, so the factoring succeeds.
FACTOR_PRIME_MIN = 850_000


def _factor_call(rng: random.Random, primes: Sequence[int]) -> Dict:
    # d must be a square modulo P and Q, so both big places split and nothing
    # enumerates there; only the factoring of the root differences sees them.
    while True:
        big_p, big_q = sorted(rng.sample(primes, 2))
        ds = [d for d in _FACTOR_DS if _euler_is_residue(d, big_p) and _euler_is_residue(d, big_q)]
        if ds:
            break
    d = rng.choice(ds)
    a, b = rng.sample([k for k in range(-6, 7) if k], 2)
    s = rng.randint(-20, 20)
    roots = [s, s + a * big_p * big_q, s + b * big_p * big_q]
    rng.shuffle(roots)
    return {"kind": "global", "d": _text(d), "roots": [_text(c) for c in roots]}


def generate(workload: str, seed: int, quick: bool = False) -> List[List[Dict]]:
    """The corpus of one workload as a list of rounds; the same seed gives the
    same corpus.  ``quick`` gives one tiny round for the self-test."""
    rng = _rng(workload, seed, quick)
    if workload == "local-deep":
        return _local_deep(rng, quick)
    if workload == "global-sampled":
        rounds = _sampled_rounds(rng, 1 if quick else ROUNDS[workload])
    elif workload == "global-factor":
        primes = _primes_between(FACTOR_PRIME_MIN, 1_000_000)
        count = 1 if quick else ROUNDS[workload]
        rounds = [[_factor_call(rng, primes) for _ in range(FACTOR_ROUND)] for _ in range(count)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return [rounds[0][:QUICK_GLOBAL_CALLS]] if quick else rounds


def input_key(call: Dict) -> str:
    """Canonical text of one call's inputs, used to look up pinned answers."""
    fields: Tuple = (call["kind"], call["d"], *call["roots"])
    if call["kind"] == "local":
        fields += (str(call["place"]),)
    return "|".join(fields)
