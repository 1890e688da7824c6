"""Acceptance gate: every guaranteed behavior, exact equality, one line per item.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
"""

import random
from fractions import Fraction

import flat_sweep
import symbol_oracle
from chatelet import (
    check_equivariance,
    check_reciprocity,
    check_root_scaling,
    check_square_scaling,
    conductor_n,
    global_chow,
    hilbert_symbol,
    local_chow,
    normalize_roots,
    special_fiber_images,
)
from chatelet.padic import valuation


def _report(number, slug, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number} {slug}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {slug}: PASS")


def _expect_local(d, roots, place, label, order):
    rep = local_chow(d, *roots, place)
    assert rep.case_label == label, (d, roots, place, rep.case_label)
    assert rep.predicted_order == order, (d, roots, place, rep.predicted_order)
    assert rep.subgroup.order == order, (d, roots, place, rep.subgroup.order)


def test_criterion_1_unramified_odd():
    def body():
        _expect_local(2, (0, 1, 2), 5, "Prop1-i", 1)
        _expect_local(2, (0, 1, 6), 5, "Prop1-ii", 2)
        _expect_local(2, (0, 5, 10), 5, "Prop1-iii", 4)

    _report(1, "unramified-odd-orders", body)


def test_criterion_2_ramified_odd():
    def body():
        _expect_local(5, (0, 1, 6), 5, "Prop2-i", 2)
        _expect_local(5, (0, 2, 12), 5, "Prop2-ii", 4)
        _expect_local(5, (0, 1, 2), 5, "Prop2-iii", 4)

    _report(2, "ramified-odd-orders", body)


def test_criterion_3_dyadic():
    def body():
        # conductor n = 1
        _expect_local(-1, (0, 1, 9), 2, "Prop3-i", 2)
        _expect_local(-1, (0, 3, 27), 2, "Prop3-ii", 4)
        _expect_local(-1, (0, 1, 5), 2, "Prop3-iii", 4)
        # conductor n = 2: case selected by e2/e1 mod 2^(2n+1) = 32
        _expect_local(2, (0, 1, 33), 2, "Prop3-i", 2)
        _expect_local(2, (0, 3, 99), 2, "Prop3-ii", 4)
        _expect_local(2, (0, 1, 17), 2, "Prop3-iii", 4)
        _expect_local(-2, (0, 3, 99), 2, "Prop3-i", 2)
        _expect_local(-2, (0, 5, 165), 2, "Prop3-ii", 4)
        _expect_local(-2, (0, 1, 9), 2, "Prop3-iii", 4)

    _report(3, "dyadic-orders", body)


def test_criterion_4_conductors():
    def body():
        expected = {-1: 1, 2: 2, -2: 2}
        for d, n in expected.items():
            assert conductor_n(Fraction(d)) == n, (d, conductor_n(Fraction(d)))
            # brute force over all odd residues mod 32: chi must vanish on
            # 1 + 2^(n+1) Z and be nonzero somewhere on 1 + 2^n Z
            chi_of = {
                u: hilbert_symbol(d, u, 2) for u in range(1, 32, 2)
            }
            level_n = [u for u in chi_of if u % 2**n == 1 % 2**n]
            level_n1 = [u for u in chi_of if u % 2 ** (n + 1) == 1 % 2 ** (n + 1)]
            assert all(chi_of[u] == 0 for u in level_n1), (d, n)
            assert any(chi_of[u] == 1 for u in level_n), (d, n)

    _report(4, "dyadic-conductors", body)


def test_criterion_5_stable_tails():
    def body():
        zero_fiber = special_fiber_images(-1, normalize_roots(0, 1, 9, 2), 2)[1]
        assert zero_fiber == (0, 1, 1)
        low = high = 0
        # the flat-sweep oracle samples both tails, which the ball
        # enumerator covers with the fibers instead of visiting them
        for x, t in flat_sweep.characteristic_points(-1, 1, 9, 2):
            v = valuation(Fraction(x), 2)
            if v <= -2:
                low += 1
                assert t == (0, 0, 0), (x, t)
            elif v >= 2:
                high += 1
                assert t == zero_fiber, (x, t)
        assert low > 0 and high > 0

    _report(5, "valuation-tail-stability", body)


def test_criterion_6_symbol_fuzz():
    def body():
        mismatches = symbol_oracle.symbol_mismatches(random.Random(601), 500)
        assert mismatches == [], mismatches
        # symmetry, bilinearity, (a, -a) = 0 and (a, s^2) = 0 are the
        # Hypothesis properties of test_padic.TestHilbertSymbolProperties
        reciprocity = check_reciprocity(random.Random(603), 200)
        assert reciprocity.runs >= 200 and reciprocity.failed == 0, reciprocity

    _report(6, "symbol-fuzz", body)


def test_criterion_7_enumerator_fuzz():
    def body():
        mismatches = flat_sweep.oracle_mismatches(random.Random(701), 200)
        assert mismatches == [], mismatches
        equivariance = check_equivariance(random.Random(702), 200)
        assert equivariance.runs >= 200 and equivariance.failed == 0, equivariance
        scaling = check_square_scaling(random.Random(703), 200)
        assert scaling.runs >= 200 and scaling.failed == 0, scaling
        roots = check_root_scaling(random.Random(704), 200)
        assert roots.runs >= 200 and roots.failed == 0, roots

    _report(7, "enumerator-fuzz", body)


def test_criterion_8_global_pipeline():
    def body():
        rep = global_chow(-1, 0, 1, 2, rng=random.Random(801))
        assert rep.kernel_dim == 1 and rep.group == "(Z/2)^1", rep
        assert rep.place_orders == {"real": 2, 2: 4}, rep.place_orders
        assert len(rep.sampled_primes) == 20

        square = global_chow(4, 0, 1, 2)
        assert square.kernel_dim == 0 and square.local_reports == ()

        # a second independent sample; triviality at the sampled primes is
        # asserted inside global_chow, which would raise otherwise
        again = global_chow(-1, 0, 1, 2, rng=random.Random(802))
        assert again.kernel_dim == 1
        assert len(again.sampled_primes) == 20
        assert again.sampled_primes != rep.sampled_primes

    _report(8, "global-pipeline", body)
