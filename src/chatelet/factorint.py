"""Integer factorization: trial division plus a deterministic Miller-Rabin certifier."""

from __future__ import annotations

import os
from typing import Dict, List

__all__ = [
    "FactorizationError",
    "factorize",
    "is_prime",
    "primes_below",
    "trial_division_bound",
]

DEFAULT_TRIAL_DIVISION_BOUND = 10**6
_BOUND_ENV_VAR = "CHOW_TRIAL_DIVISION_BOUND"

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


def trial_division_bound() -> int:
    raw = os.environ.get(_BOUND_ENV_VAR)
    if raw is None:
        return DEFAULT_TRIAL_DIVISION_BOUND
    try:
        bound = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_BOUND_ENV_VAR} must be an integer, got {raw!r}") from exc
    if bound < 2:
        raise ValueError(f"{_BOUND_ENV_VAR} must be >= 2, got {bound}")
    return bound


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the smallest proven witness set for n;
    refuses above the proven witness limit."""
    if n < 2:
        return False
    for p in _MILLER_RABIN_WITNESSES[-1][1]:
        if n % p == 0:
            return n == p
    bases = next((bases for limit, bases in _MILLER_RABIN_WITNESSES if n < limit), None)
    if bases is None:
        raise FactorizationError(
            f"{n} exceeds the deterministic Miller-Rabin witness limit", n
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
    return True


def factorize(n: int) -> Dict[int, int]:
    """Prime factorization of |n| (n != 0).  Trial division up to
    trial_division_bound(), then the cofactor must certify prime; a composite
    cofactor is a hard error."""
    if n == 0:
        raise ValueError("cannot factor zero")
    bound = trial_division_bound()
    n = abs(n)
    factors: Dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    q = 5
    while q <= bound and q * q <= n:
        for p in (q, q + 2):
            while n % p == 0:
                factors[p] = factors.get(p, 0) + 1
                n //= p
        q += 6
    if n > 1:
        if not is_prime(n):
            raise FactorizationError(
                f"composite cofactor {n} survived trial division to {bound}", n
            )
        factors[n] = factors.get(n, 0) + 1
    return factors


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
