"""Every field of the reports stays as it is: a digest over seeded calls,
the frozen-dataclass contract, and one answer for two spellings of a surface.

The answers pinned elsewhere cover groups, orders and labels; this digest
also covers `normalized` (values and types), `ext_class`, the checked places
and the sampled primes, over local calls at the real place, 2, 3, 5, 7 and
larger odd primes with int and Fraction input, and over global calls.
"""

import copy
import dataclasses
import hashlib
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guards import wall_clock_guard
from chatelet import (
    ExtKind,
    LocalReport,
    characteristic_points,
    classify_extension,
    global_chow,
    local_chow,
    normalize_roots,
)
from chatelet.padic import REAL_PLACE

# A change that moves any report field on purpose records the new digest and
# says why.  Last moved when `normalized` at L = 1 and the d and roots of a
# GlobalReport began to keep ints as ints: only Fraction(n, 1) became n.
REPORTS_SHA256 = "f96400369f833cf9761b252f77253b0ebc5975e82d4d4e03ceb55b0ed4a8544e"

_PLACES = (REAL_PLACE, REAL_PLACE, 2, 2, 2, 3, 3, 3, 5, 5, 7, 7, 11, 13, 1013, 10007)


def _unit(rng, p):
    while True:
        u = rng.choice((1, -1)) * rng.randint(1, 40)
        if p == REAL_PLACE or u % p:
            return u


def _local_case(rng):
    """(d, c1, c2, c3, place): roots s, s + u1 p^k1, s + u2 p^k2 with shared
    congruences, divided by a common L, so L != 1 and L divisible by p both
    occur; d a unit times p^j, as an int or a Fraction."""
    place = rng.choice(_PLACES)
    p = 3 if place == REAL_PLACE else place
    d = _unit(rng, place) * Fraction(p) ** rng.randint(-2 if rng.random() < 0.3 else 0, 2)
    if rng.random() < 0.3:
        d *= Fraction(rng.randint(1, 6), rng.randint(1, 6)) ** 2
    s = rng.randint(-20, 20)
    k1 = rng.randint(0, 4)
    k2 = rng.choice((0, k1, k1 + rng.randint(0, 3)))
    e1 = _unit(rng, place) * p**k1
    e2 = e1 + _unit(rng, place) * p**k2
    if e2 == 0 or e2 == e1:
        e2 = e1 + p ** (k1 + 1)
    scale = rng.choice((1, 1, 1, 2, 3, 4, 6, 9, p))
    roots = [Fraction(s, scale), Fraction(s + e1, scale), Fraction(s + e2, scale)]
    rng.shuffle(roots)
    if d.denominator == 1 and rng.random() < 0.7:
        d = d.numerator
    if scale == 1 and rng.random() < 0.7:
        roots = [c.numerator for c in roots]
    return (d, *roots, place)


def _global_case(rng):
    while True:
        d = Fraction(rng.choice((1, -1)) * rng.randint(1, 60), rng.choice((1, 1, 1, 2, 3, 4)))
        roots = {Fraction(rng.randint(-30, 30), rng.choice((1, 1, 1, 2, 3))) for _ in range(3)}
        if len(roots) == 3:
            roots = sorted(roots, key=lambda c: rng.random())
            if rng.random() < 0.5 and all(c.denominator == 1 for c in roots):
                return (d.numerator if d.denominator == 1 else d, *(c.numerator for c in roots))
            return (d, *roots)


def report_lines():
    rng = random.Random(20260)
    lines = [repr(local_chow(*_local_case(rng))) for _ in range(300)]
    lines += [repr(global_chow(*_global_case(rng))) for _ in range(100)]
    return lines


def test_reports_digest():
    digest = hashlib.sha256("\n".join(report_lines()).encode()).hexdigest()
    assert digest == REPORTS_SHA256


# One report of each kind with every field set: a nontrivial place of a
# surface with L = 6, whose `normalized` holds Fractions, and its subgroup.
_REPORT = local_chow(Fraction(-3, 4), Fraction(1, 2), Fraction(5, 3), Fraction(-7, 4), 3)
_FROZEN = [_REPORT, _REPORT.normalized, _REPORT.subgroup]


@pytest.mark.parametrize("obj", _FROZEN, ids=lambda obj: type(obj).__name__)
class TestFrozenDataclassContract:
    """LocalReport, NormalizedSurface and Subgroup3 fill their fields in a
    hand-written __init__; they must behave as the generated frozen dataclass
    would."""

    def test_fields_cannot_be_set_or_deleted(self, obj):
        name = dataclasses.fields(obj)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.extra = 1

    def test_init_takes_every_field_by_position_and_by_name(self, obj):
        values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        assert list(values) == list(type(obj).__annotations__)
        assert type(obj)(*values.values()) == obj
        assert type(obj)(**values) == obj
        with pytest.raises(TypeError):
            type(obj)(*list(values.values())[:-1])

    def test_eq_hash_and_repr_read_the_fields(self, obj):
        values = tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))
        assert hash(obj) == hash(values)
        listed = ", ".join(f"{f.name}={v!r}" for f, v in zip(dataclasses.fields(obj), values))
        assert repr(obj) == f"{type(obj).__qualname__}({listed})"
        # () differs from each last field and is a basis Subgroup3 accepts
        other = dataclasses.replace(obj, **{dataclasses.fields(obj)[-1].name: ()})
        assert other != obj and obj == dataclasses.replace(obj)

    def test_asdict_recurses(self, obj):
        as_dict = dataclasses.asdict(obj)
        assert list(as_dict) == [f.name for f in dataclasses.fields(obj)]
        if isinstance(obj, LocalReport):
            assert as_dict["subgroup"] == {"basis": obj.subgroup.basis}
            assert as_dict["normalized"] == dataclasses.asdict(obj.normalized)

    def test_copies_and_pickles_are_equal(self, obj):
        for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert clone == obj and hash(clone) == hash(obj) and repr(clone) == repr(obj)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(clone, dataclasses.fields(obj)[0].name, None)


_SPELLING_PLACES = (REAL_PLACE, 2, 3, 5, 7, 997)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-300, 300).filter(bool),
    st.lists(st.integers(-2000, 2000), min_size=3, max_size=3, unique=True),
)
def test_int_and_fraction_spellings_agree(d, roots):
    """ints take the int paths of the root check, the conversion,
    normalize_roots and the enumerator, and Fractions with denominator 1 the
    general ones: both must give the same surfaces, points and reports."""
    fractions = (Fraction(d), *map(Fraction, roots))
    with wall_clock_guard(10):
        for place in _SPELLING_PLACES:
            assert local_chow(d, *roots, place) == local_chow(*fractions, place), place
            surfaces = normalize_roots(*roots, place), normalize_roots(*fractions[1:], place)
            assert surfaces[0] == surfaces[1], place
            if classify_extension(d, place).kind is not ExtKind.SPLIT:
                points = [list(characteristic_points(d, surf, place)) for surf in surfaces]
                assert points[0] == points[1], place
        as_ints, as_fractions = global_chow(d, *roots), global_chow(*fractions)
    for field in dataclasses.fields(as_ints):
        if field.name not in ("d", "roots"):
            assert getattr(as_ints, field.name) == getattr(as_fractions, field.name), field.name
