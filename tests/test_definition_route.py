"""The enumerator and the classifier against the local group read from its
definition (`definition_route.definition_subgroup`), which shares no
character, normal form or walk with them."""

import random

import pytest

from chatelet import TRIVIAL_SUBGROUP, global_chow, local_chow, random_surface
from chatelet.checks import _ENUMERABLE_FAMILIES
from definition_route import definition_subgroup, local_shapes


def kept_at(d, roots, p):
    """The local group at p that global_chow keeps: its report there, or the
    trivial group where it keeps none."""
    rep = global_chow(d, *roots)
    return {r.place: r.subgroup for r in rep.local_reports}.get(p, TRIVIAL_SUBGROUP)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_every_local_shape(p):
    # d enters as d p^2, not as the representative of its class
    for m, d, roots in local_shapes(p):
        got = definition_subgroup(d * p**2, roots, p)
        assert got == local_chow(d * p**2, *roots, p).subgroup, (m, d, roots)
        assert got == kept_at(d * p**2, roots, p), (m, d, roots)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lift_keeps_the_span(p):
    for m, d, roots in list(local_shapes(p))[::7]:
        assert definition_subgroup(d, roots, p, lift=1) == definition_subgroup(d, roots, p)


@pytest.mark.parametrize("family", _ENUMERABLE_FAMILIES)
def test_seeded_surfaces(family):
    # d and the roots as drawn: Fractions, d times a square now and then,
    # and the roots shifted and in any order
    rng = random.Random(1313)
    for heavy in (False, True):
        for _ in range(12):
            d, roots, p = random_surface(rng, family, heavy=heavy)
            if p not in (2, 3, 5):
                continue
            got = definition_subgroup(d, roots, p)
            assert got == local_chow(d, *roots, p).subgroup, (d, roots, p)
            assert got == kept_at(d, roots, p), (d, roots, p)
