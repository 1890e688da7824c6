"""Integer factorization: trial division by the primes below 1000, Brent's
variant of Pollard rho on what is left, and a deterministic Miller-Rabin
certifier for every factor."""

from __future__ import annotations

from math import gcd, isqrt
from typing import Dict, List, Optional

__all__ = [
    "FactorizationError",
    "RhoBudget",
    "factorize",
    "is_prime",
    "primes_below",
]

# Trial division covers the primes below this bound; rho splits the rest.
_TRIAL_BOUND = 1000
# Rho units in RhoBudget(n): this many per unit of n^(1/4), at most
# _RHO_MAX_UNITS, which binds past n = 7.6e22.  The cap stops one search, or
# several sharing a budget, within 2^22 evaluations, 2 to 2.5 s of CPython.
_RHO_STEPS_PER_QUARTER_ROOT = 8
_RHO_MAX_UNITS = 1 << 22
# An evaluation modulo a b-bit number costs 1 + b^2 // this many rho units.
_RHO_WIDE_BITS_SQUARED = 60000
# Evaluations multiplied together between two gcds.
_RHO_BATCH = 64

# (limit, bases): the first primes as Miller-Rabin witnesses are provably
# complete below each limit, the least strong pseudoprime to all of them
# (psi_1, psi_2, psi_3, psi_4 and psi_13).
_MILLER_RABIN_WITNESSES = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (3317044064679887385961981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)


class FactorizationError(RuntimeError):
    """An integer could not be certifiably factored."""

    def __init__(self, message: str, n: int):
        super().__init__(message)
        self.n = n


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the smallest proven witness set for n.
    Past psi_13 the thirteen bases still prove a composite n composite; a
    strong probable prime there raises FactorizationError, as no proven
    witness set certifies it."""
    if n < 2:
        return False
    for p in _MILLER_RABIN_WITNESSES[-1][1]:
        if n % p == 0:
            return n == p
    bases = next(
        (bases for limit, bases in _MILLER_RABIN_WITNESSES if n < limit),
        _MILLER_RABIN_WITNESSES[-1][1],
    )
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MILLER_RABIN_WITNESSES[-1][0]:
        raise FactorizationError(
            f"{n} exceeds the deterministic Miller-Rabin witness limit", n
        )
    return True


class RhoBudget:
    """Rho work left to one or more factorize calls, in units of one map
    evaluation modulo a number below psi_13.

    RhoBudget(n) holds 8 n^(1/4) units, at most 2^22: a balanced semiprime
    needs about 1.4 n^(1/4) evaluations in the median and more than
    6 n^(1/4) in fewer than one of five thousand samples; near psi_13 the
    cap leaves about 3 n^(1/4), which one in twenty exceed.  An evaluation
    modulo a number of b bits costs 1 + b^2 / 60000 units, which follows
    CPython's multiplication time, so a wide cofactor gets fewer
    evaluations rather than more time."""

    __slots__ = ("left",)

    def __init__(self, n: int):
        units = _RHO_STEPS_PER_QUARTER_ROOT * (isqrt(isqrt(abs(n))) + 1)
        self.left = min(units, _RHO_MAX_UNITS)


def factorize(n: int, budget: Optional[RhoBudget] = None) -> Dict[int, int]:
    """Prime factorization of |n| (n != 0), deterministic in n and budget.left.

    Trial division by the primes below 1000 stops once p^2 exceeds what is
    left, so small n cost a few divisions.  Each composite cofactor is split
    by Brent's rho (`_rho_divisor`) and every factor is certified by
    `is_prime`.  The rho work comes out of `budget`, which several calls may
    share so that together they cost no more than one; by default it is
    RhoBudget of what trial division leaves.  Raises FactorizationError when a
    factor is a strong probable prime past the Miller-Rabin witness limit
    psi_13 or when the budget runs out."""
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    factors: Dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    q = 5
    while q < _TRIAL_BOUND and q * q <= n:
        for p in (q, q + 2):
            while n % p == 0:
                factors[p] = factors.get(p, 0) + 1
                n //= p
        q += 6
    if budget is None:
        budget = RhoBudget(n)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            # a prime found once is divided out of every part still waiting,
            # so a power p^k costs one split rather than k
            e = 1
            for i, rest in enumerate(stack):
                while rest % m == 0:
                    rest //= m
                    e += 1
                stack[i] = rest
            factors[m] = factors.get(m, 0) + e
            stack = [rest for rest in stack if rest > 1]
            continue
        divisor = _rho_divisor(m, budget)
        if not divisor:
            raise FactorizationError(
                f"Pollard rho could not split the composite cofactor {m} "
                "within its work budget",
                m,
            )
        stack += [m // divisor, divisor]
    return factors


def _rho_divisor(m: int, budget: RhoBudget) -> int:
    """A proper divisor of the odd composite m, or 0 if budget runs out first.

    Brent's cycle search (Brent 1980; Cohen, A Course in Computational
    Algebraic Number Theory, 8.5) on y -> y^2 + c mod m, with the differences
    x - y multiplied together for _RHO_BATCH steps between gcds.  When the
    gcd collapses to m, the batch is replayed one step at a time, and if that
    gives m too, c moves on to the next integer.  Each evaluation of the map
    is charged to budget before it runs."""
    unit = 1 + m.bit_length() ** 2 // _RHO_WIDE_BITS_SQUARED
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if budget.left < r * unit:
                return 0
            budget.left -= r * unit
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(_RHO_BATCH, r - k)
                if budget.left < steps * unit:
                    return 0
                budget.left -= steps * unit
                for _ in range(steps):
                    y = (y * y + c) % m
                    q = q * (x - y) % m
                g = gcd(q, m)
                k += steps
            r *= 2
        if g == m:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(x - ys, m)
        if g != m:
            return g


def primes_below(limit: int) -> List[int]:
    """Ascending primes < limit (simple sieve)."""
    if limit <= 2:
        return []
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    p = 2
    while p * p < limit:
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit, p)))
        p += 1
    return [i for i in range(limit) if sieve[i]]
