"""Seeded fuzz suites: run each at its default volume and demand zero failures."""

import random

import pytest

from chatelet import (
    CASE_FAMILIES,
    check_equivariance,
    check_order_agreement,
    check_reciprocity,
    check_root_scaling,
    check_sampled_membership,
    check_square_scaling,
    random_surface,
    run_check,
)
from flat_sweep import oracle_mismatches
from symbol_oracle import symbol_mismatches


def test_symbol_oracle_500():
    assert symbol_mismatches(random.Random(11), 500) == []


def test_reciprocity_200():
    result = check_reciprocity(random.Random(13), 200)
    assert result.runs == 200
    assert result.failed == 0


def test_order_agreement_200_per_family():
    result = check_order_agreement(random.Random(14), 200)
    assert result.failed == 0
    assert result.failures == ()
    bins = dict(result.details)
    assert set(bins) == set(CASE_FAMILIES)
    assert all(n == 200 for n in bins.values())
    assert result.runs == 200 * len(CASE_FAMILIES)


def test_truncation_stability_200():
    # the enumerator against the flat-sweep oracle, tight and widened
    assert oracle_mismatches(random.Random(15), 200) == []


def test_sampled_membership_200():
    result = check_sampled_membership(random.Random(18), 200)
    assert result.runs == 200
    assert result.failed == 0


def test_equivariance_200():
    result = check_equivariance(random.Random(16), 200)
    assert result.runs == 200
    assert result.failed == 0


def test_square_scaling_200():
    result = check_square_scaling(random.Random(17), 200)
    assert result.runs == 200
    assert result.failed == 0


def test_root_scaling_200():
    result = check_root_scaling(random.Random(19), 200)
    assert result.runs == 200
    assert result.failed == 0


def test_run_check_deterministic():
    a = run_check(seed=5, fuzz_count=4)
    b = run_check(seed=5, fuzz_count=4)
    assert a == b
    assert a.ok
    assert [s.name for s in a.suites] == [
        "order-agreement",
        "reciprocity",
        "sampled-membership",
        "equivariance",
        "square-scaling",
        "root-scaling",
    ]


def test_run_check_seed_changes_nothing_structural():
    report = run_check(seed=99, fuzz_count=2)
    assert report.ok
    assert report.fuzz_count == 2


def test_random_surface_families():
    rng = random.Random(0)
    for family in CASE_FAMILIES:
        d, roots, place = random_surface(rng, family, small=True)
        assert d != 0
        assert len(set(roots)) == 3


def test_random_surface_unknown_family():
    # each name is refused before a constructor runs, not read as a family
    # it resembles
    for family in ("Prop9-x", "Prop1-iv", "Prop2-x", "Prop3-", "Real", "nonsense"):
        with pytest.raises(ValueError, match="unknown case family"):
            random_surface(random.Random(0), family)
