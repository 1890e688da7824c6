"""Every refusal stays as it is: a digest over a fixed set of bad inputs.

Each record is the exception type and text that one call raises: zero,
float, bool and str values through the symbol and character readers,
composite, huge and misspelled places, degenerate roots through the local
and global entry points, and bad argv texts through the CLI parsers.  The
texts are the package's own, so the digest is the same on every supported
Python.
"""

import hashlib
from fractions import Fraction

import pytest

from chatelet import (
    REAL_PLACE,
    chi,
    classify_extension,
    global_chow,
    hilbert_symbol,
    is_local_square,
    legendre,
    local_chow,
    norm_char_fn,
    normalize_roots,
    require_prime_place,
    valuation,
)
from chatelet.cli import _parse_int, _positive_int, parse_place, parse_rational, parse_roots
from chatelet.factorint import _echo

# A change that moves a refusal type or text on purpose records the new
# digest and says why.
REFUSALS_SHA256 = "f1b1d45b32dab951a0382d9ecc988ca0989dfe7c4cf18c04b76d4186ce78ebd2"

_BAD_VALUES = (0, Fraction(0), 0.0, 0.5, 2.0, False, True, "3", "abc")
_BAD_PLACES = (
    0, 1, -3, 9, 15, True, 2.0, "2", "Real", "inf", None,
    10**25 + 13, 2**11213 - 1, 10**5000 + 1,
)
_LONG = "1" * 5001


def _evaluate(d, place, x):
    return norm_char_fn(d, place)(x)


def _sampled(count):
    return global_chow(-1, 0, 1, 2, sample_primes=count)


def _calls():
    """(function, arguments) for every bad input; each call raises."""
    for x in _BAD_VALUES:
        for place in (REAL_PLACE, 2, 3, 5):
            yield chi, (-1, x, place)
            yield chi, (x, 3, place)
            yield _evaluate, (-1, place, x)
            yield norm_char_fn, (x, place)
            yield is_local_square, (x, place)
            yield classify_extension, (x, place)
            yield hilbert_symbol, (x, 3, place)
            yield hilbert_symbol, (3, x, place)
        yield valuation, (x, 3)
        yield local_chow, (x, 0, 1, 2, 3)
        yield local_chow, (-1, 1, x, x, 3)
        yield global_chow, (x, 0, 1, 2)
    for place in _BAD_PLACES:
        yield require_prime_place, (place,)
        yield chi, (-1, 3, place)
        yield norm_char_fn, (-1, place)
        yield is_local_square, (3, place)
        yield classify_extension, (-1, place)
        yield hilbert_symbol, (2, 3, place)
        yield legendre, (3, place)
        yield local_chow, (-1, 0, 1, 2, place)
        yield normalize_roots, (0, 1, 2, place)
    for p in (REAL_PLACE, 1, 0, -2, 2.0, "3"):
        yield valuation, (3, p)
    yield legendre, (3, 2)
    yield legendre, (3, REAL_PLACE)
    yield legendre, (6, 3)
    degenerate = (
        (0, 0, 1),
        (1, 1, 1),
        (Fraction(1, 2), Fraction(2, 4), 3),
        (Fraction(5), 5, 7),
        (-2, 3, Fraction(-4, 2)),
        (10**5000, 10**5000, 1),
    )
    for roots in degenerate:
        for d in (-1, 4, Fraction(-3, 4)):
            for place in (REAL_PLACE, 2, 3):
                yield local_chow, (d, *roots, place)
            yield global_chow, (d, *roots)
        for place in (REAL_PLACE, 2, 3):
            yield normalize_roots, (*roots, place)
    yield _sampled, (-1,)
    yield _sampled, (True,)
    for text in ("abc", "1/0", "1.5", "", " ", "--3", "1/2/3", _LONG, f"1/{_LONG}"):
        yield parse_rational, (text,)
    for text in ("1,2", "1,2,x", "1,,2", "1,2,3,4", f"0,1,{_LONG}"):
        yield parse_roots, (text,)
    for text in ("9", "1", "0", "-3", "abc", "realx", "2.0", _LONG, "10000000000000000000000013"):
        yield parse_place, (text,)
    for text in ("abc", "1.5", "", _LONG):
        yield _parse_int, (text,)
    for text in ("0", "-3", "abc", _LONG):
        yield _positive_int, (text,)


def refusal_lines():
    """One line per call: its function and arguments, then the type and
    text of what it raised (or what it returned, which no call should)."""
    lines = []
    for function, args in _calls():
        call = f"{function.__name__}({', '.join(map(_echo, args))})"
        try:
            value = function(*args)
        except Exception as exc:  # the type and text are what is pinned
            lines.append(f"{call}: {type(exc).__name__}: {exc}")
        else:
            lines.append(f"{call}: returned {_echo(value)}")
    return lines


def test_refusals_digest():
    lines = refusal_lines()
    assert not [line for line in lines if ": returned " in line]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == REFUSALS_SHA256


@pytest.mark.parametrize("place", [[2], {}], ids=["list", "dict"])
def test_unhashable_place_is_refused_as_a_place(place):
    # local_chow and chi check a place that is neither an int nor a str
    # ahead of their caches, which cannot hash a list or a dict
    for call in (lambda: local_chow(-1, 0, 1, 2, place), lambda: chi(-1, 3, place)):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == f"place must be a prime or 'real', got {place!r}"
