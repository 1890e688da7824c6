"""Small GF(2) linear algebra helpers using int bitsets."""

from __future__ import annotations

from typing import Iterable, List

__all__ = ["gf2_rank", "member", "reduce_rows"]


def reduce_rows(rows: Iterable[int]) -> List[int]:
    """Canonical reduced echelon basis of the F2 span of the given bitmask rows.

    Each pivot bit appears in exactly one basis row and rows come out sorted by
    leading bit, so the result is independent of input order and multiplicity.
    """
    basis: List[int] = []  # descending, so by leading bit
    for row in rows:
        r = row
        # each pivot bit lies in exactly one basis row, so the order in which
        # a row's pivots are cleared does not matter
        for b in basis:
            if r >> (b.bit_length() - 1) & 1:
                r ^= b
        if r:
            # only rows with a higher leading bit can hold r's, and they are
            # the rows ahead of r's place in the descending basis
            lead = r.bit_length() - 1
            at = 0
            while at < len(basis) and basis[at] > r:
                if basis[at] >> lead & 1:
                    basis[at] ^= r
                at += 1
            basis.insert(at, r)
    return basis


def gf2_rank(rows: Iterable[int]) -> int:
    return len(reduce_rows(rows))


def member(vector: int, basis: Iterable[int]) -> bool:
    """Whether the bitmask vector lies in the span of a reduced basis."""
    r = vector
    for b in basis:
        lead = b.bit_length() - 1
        if r >> lead & 1:
            r ^= b
    return r == 0
