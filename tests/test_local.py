"""Local classifier and enumerator: normalization, fibers, ball refinement, reports."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import chatelet.local
import flat_sweep
from guards import wall_clock_guard
from chatelet import (
    CASE_FAMILIES,
    ContradictionError,
    DegenerateSurfaceError,
    ExtKind,
    FactorizationError,
    NormalizedSurface,
    Subgroup3,
    TRIVIAL_SUBGROUP,
    characteristic_points,
    characteristic_subgroup,
    chi,
    classify_case,
    classify_extension,
    conductor_n,
    global_chow,
    is_prime,
    local_chow,
    norm_char_fn,
    normalize_roots,
    random_surface,
    special_fiber_images,
)
from chatelet.checks import _ENUMERABLE_FAMILIES
from chatelet.padic import valuation


class TestNormalizeRoots:
    def test_finite_base_choice(self):
        # v(1-0) = v(2-1) = 0 but v(2-0) = 1 at p=2, so the base root is c3=2:
        # differences from it have the tied maximal valuation profile.
        surf = normalize_roots(0, 1, 2, 2)
        assert surf == NormalizedSurface(
            e1=Fraction(-1),
            e2=Fraction(1),
            r=0,
            big_d=1,
            perm=(2, 1, 3),
        )

    def test_real_base_is_smallest_root(self):
        surf = normalize_roots(5, -2, 3, "real")
        assert surf.base_root_index == 2
        assert (surf.e1, surf.e2) == (Fraction(5), Fraction(7))
        assert surf.perm == (2, 3, 1)
        assert surf.e2 > surf.e1 > 0

    def test_common_valuation_recorded(self):
        surf = normalize_roots(0, 5, 10, 5)
        assert (surf.e1, surf.e2, surf.r) == (Fraction(5), Fraction(10), 1)
        assert surf.perm == (1, 2, 3)

    def test_perm_is_a_permutation(self):
        for roots in [(0, 1, 2), (7, -3, Fraction(1, 2)), (4, 12, 3)]:
            surf = normalize_roots(*roots, 3)
            assert sorted(surf.perm) == [1, 2, 3]
            # slot 0 holds the base root; both fields are 1-based
            assert surf.perm[0] == surf.base_root_index

    def test_shift_matches_original_roots(self):
        roots = (Fraction(3), Fraction(-1), Fraction(7))
        surf = normalize_roots(*roots, 2)
        base = roots[surf.base_root_index - 1]
        shifted = sorted(c - base for c in roots)
        assert sorted((Fraction(0), surf.e1, surf.e2)) == shifted

    @pytest.mark.parametrize("place", [2, 3, 5, "real"])
    def test_mixed_spellings_agree(self, place):
        # ints beside Fractions of denominator 2 or 3 give the surface of the
        # all-Fraction spelling: (0, 1, 3/2) at 3 has c1 and c3 as its close
        # pair, though c2 - c1 is an int prime to 3
        values = [*range(-4, 5), *(Fraction(n, q) for q in (2, 3) for n in range(-4, 5) if n % q)]
        for roots in itertools.permutations(values, 3):
            as_fractions = tuple(map(Fraction, roots))
            assert normalize_roots(*roots, place) == normalize_roots(*as_fractions, place), roots

    @pytest.mark.parametrize("roots", [(1, 1, 2), (0, 3, 3), (5, 2, 5)])
    def test_repeated_roots_rejected(self, roots):
        with pytest.raises(DegenerateSurfaceError):
            normalize_roots(*roots, 3)

    @pytest.mark.parametrize("roots,place", [((0, 1, 2), 4), ((0, 2, 6), 9)])
    def test_composite_place_rejected(self, roots, place):
        with pytest.raises(ValueError, match=f"got {place}"):
            normalize_roots(*roots, place)

    @pytest.mark.parametrize("place", [1, 0, -1, "x", 2.0])
    def test_bad_place_rejected_within_guard(self, place):
        # the valuation loops never end at p = 1 or -1
        with wall_clock_guard(5):
            with pytest.raises(ValueError, match="place must be a prime"):
                normalize_roots(0, 1, 2, place)

    @pytest.mark.parametrize("place", [2, 3, 5, "real"])
    def test_matches_reference_on_small_triples(self, place):
        # every ordered triple of distinct n / q, |n| <= 6, q in {1, 2, 3},
        # so the three difference valuations are all equal or exactly two are
        values = sorted({Fraction(n, q) for n in range(-6, 7) for q in (1, 2, 3)})
        for roots in itertools.permutations(values, 3):
            surf = normalize_roots(*roots, place)
            expected = flat_sweep.reference_normalize_roots(*roots, place)
            assert (surf.e1, surf.e2, surf.r, surf.perm) == expected, roots
            big_d = 0 if place == "real" else valuation(surf.e1 - surf.e2, place)
            assert surf.big_d == big_d, roots
            assert surf.base_root_index == surf.perm[0]


def _surface(e1, e2, place):
    """The normalized surface with roots 0, e1, e2: normalize_roots keeps e1
    and e2 as they are when v(e1) = v(e2) (ascending at the real place)."""
    return normalize_roots(0, e1, e2, place)


class TestSpecialFiberImages:
    def test_odd_ramified_frozen(self):
        # d=2 at p=5: [infinity], [0], [e1], [e2] in local slot coordinates.
        fibers = special_fiber_images(2, _surface(5, 10, 5), 5)
        assert fibers == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))

    def test_dyadic_frozen(self):
        # The fiber over e2=5 lands on (0,0,0): chi(5)=0 and chi(5-1)=0 for d=-1.
        fibers = special_fiber_images(-1, _surface(1, 5, 2), 2)
        assert fibers == ((0, 0, 0), (0, 1, 1), (0, 1, 1), (0, 0, 0))

    def test_infinity_fiber_is_zero(self):
        for d, e1, e2, place in [(2, 1, 2, 5), (-1, 1, 9, 2), (-1, 1, 2, "real")]:
            assert special_fiber_images(d, _surface(e1, e2, place), place)[0] == (0, 0, 0)

    def test_images_sum_to_zero(self):
        for d, e1, e2, place in [(2, 5, 10, 5), (-1, 1, 5, 2), (5, 2, 12, 5)]:
            for t in special_fiber_images(d, _surface(e1, e2, place), place):
                assert sum(t) % 2 == 0

    def test_split_d_rejected(self):
        with pytest.raises(ValueError, match="local square"):
            special_fiber_images(4, _surface(1, 2, 5), 5)

    @pytest.mark.parametrize("family", _ENUMERABLE_FAMILIES + ("Real-d-negative",))
    def test_matches_nine_value_reference(self, family):
        # the four-value form rests on chi being additive on e1 e2, -e1,
        # e1 (e1 - e2), ...; the reference evaluates each of them
        rng = random.Random(f"fibers:{family}")
        for _ in range(100):
            d, roots, place = random_surface(rng, family)
            surf = normalize_roots(*roots, place)
            assert special_fiber_images(d, surf, place) == (
                flat_sweep.reference_special_fiber_images(d, surf, place)
            ), (d, roots, place)


class TestTruncationBounds:
    """The window of the flat-sweep oracle in tests/flat_sweep.py."""

    def test_dyadic_frozen(self):
        ext = classify_extension(Fraction(-1), 2)
        assert flat_sweep.truncation_bounds(ext, 1, 5, 2) == (-2, 4, 9)

    def test_odd_frozen(self):
        ext = classify_extension(Fraction(2), 5)
        assert flat_sweep.truncation_bounds(ext, 1, 2, 5) == (0, 0, 1)

    def test_window_grows_with_root_congruence(self):
        ext = classify_extension(Fraction(-1), 2)
        near = flat_sweep.truncation_bounds(ext, 1, 1 + 2**6, 2)
        far = flat_sweep.truncation_bounds(ext, 1, 3, 2)
        assert near[1] > far[1]
        assert near[2] > far[2]

    def test_unequal_valuations_rejected(self):
        ext = classify_extension(Fraction(2), 5)
        with pytest.raises(ValueError, match="v\\(e1\\) = v\\(e2\\)"):
            flat_sweep.truncation_bounds(ext, 1, 5, 5)


class TestCharacteristicPoints:
    def test_real_intervals(self):
        pts = list(characteristic_points(-1, _surface(1, 2, "real"), "real"))
        # With d<0 only x with positive cubic lift; four interval samples,
        # two of which survive.
        assert {t for _, t in pts} == {(0, 0, 0), (0, 1, 1)}

    def test_real_positive_d_samples_every_interval(self):
        pts = list(characteristic_points(3, _surface(1, 2, "real"), "real"))
        assert len(pts) == 4

    def test_triples_sum_to_zero(self):
        for d, e1, e2, place in [(2, 1, 2, 5), (-1, 1, 5, 2), (-1, 1, 2, "real")]:
            for _, t in characteristic_points(d, _surface(e1, e2, place), place):
                assert sum(t) % 2 == 0

    def test_far_samples_stabilize(self):
        # d=-1, e=(1,9) at p=2, swept flat by the oracle: outside the window
        # the triple only depends on the side.  Very negative valuations give
        # (0,0,0) (x a square unit times 4^k dominates); very positive give
        # the fiber class of 0.
        pts = list(flat_sweep.characteristic_points(-1, 1, 9, 2))
        low = {t for x, t in pts if valuation(Fraction(x), 2) <= -2}
        high = {
            t
            for x, t in pts
            if valuation(Fraction(x), 2) >= 2
            and valuation(Fraction(x) - 1, 2) < 5
            and valuation(Fraction(x) - 9, 2) < 5
        }
        assert low == {(0, 0, 0)}
        assert high == {(0, 1, 1)}

    def test_split_d_rejected(self):
        with pytest.raises(ValueError, match="local square"):
            list(characteristic_points(4, _surface(1, 2, 5), 5))

    @pytest.mark.parametrize("kind", [int, Fraction])
    def test_real_samples_are_exact(self, kind):
        # halving an int cut must not give a float: every sample is an int
        # or a Fraction, with the cuts 0, e1, e2 in each order
        for e1, e2 in itertools.permutations((-3, -1, 2, 5), 2):
            surf = NormalizedSurface(kind(e1), kind(e2), 0, 0, (1, 2, 3))
            for d in (-1, -3, 2):
                points = list(characteristic_points(d, surf, "real"))
                assert len(points) == (4 if d > 0 else 2), (e1, e2, d)
                for x, t in points:
                    assert type(x) in (int, Fraction), (e1, e2, x)
                    assert t == (chi(d, x, "real"), chi(d, x - e1, "real"), chi(d, x - e2, "real"))
            label, order = classify_case(-1, surf, "real")
            assert (label, order) == ("Real-d-negative", 2), (e1, e2)


class TestCharacteristicSubgroup:
    def test_dyadic_full_plane(self):
        sub = characteristic_subgroup(-1, _surface(1, 5, 2), 2)
        assert sub.basis == ((1, 0, 1), (0, 1, 1))
        assert sub.order == 4

    def test_dyadic_order_two(self):
        sub = characteristic_subgroup(-1, _surface(1, 9, 2), 2)
        assert sub.basis == ((0, 1, 1),)
        assert sub.order == 2

    def test_buffer_does_not_change_span(self):
        # the flat-sweep oracle, tight and widened, spans what the balls span
        for d, e1, e2, place in [(2, 1, 2, 5), (-1, 1, 9, 2)]:
            surf = _surface(e1, e2, place)
            balls = characteristic_subgroup(d, surf, place)
            assert balls == flat_sweep.characteristic_subgroup(d, surf, place)
            assert balls == flat_sweep.characteristic_subgroup(d, surf, place, buffer=1)

    def test_subgroup_in_sum_zero_plane(self):
        sub = characteristic_subgroup(5, _surface(1, 6, 5), 5)
        for t in sub.elements():
            assert sum(t) % 2 == 0

    @pytest.mark.parametrize("fed_by_fibers", [True, False])
    def test_span_of_every_short_sequence(self, monkeypatch, fed_by_fibers):
        # every sequence of up to four triples of the sum-zero plane, fed as
        # the finite fibers' images or as the walk's points, spans what
        # Subgroup3.span gives, returned as the very constant of that group
        plane = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
        sequences = [seq for n in range(5) for seq in itertools.product(plane, repeat=n)]
        assert len(sequences) == 341
        constants = _five_subgroups()
        fed = []

        def fibers(d, surface, place):
            return ((0, 0, 0), *fed) if fed_by_fibers else ((0, 0, 0),)

        def points(d, surface, place):
            return ((0, t) for t in ([] if fed_by_fibers else fed))

        monkeypatch.setattr(chatelet.local, "special_fiber_images", fibers)
        monkeypatch.setattr(chatelet.local, "characteristic_points", points)
        for seq in sequences:
            fed[:] = seq
            expected = Subgroup3.span(seq)
            sub = characteristic_subgroup(-1, _surface(1, 2, 5), 5)
            assert sub == expected and any(sub is g for g in constants), seq

    @pytest.mark.parametrize("perm", list(itertools.permutations((1, 2, 3))))
    def test_to_global_moves_slot_by_slot(self, perm):
        # slot i of a local triple is root perm[i]; a line moves to the
        # constant of its image, and the trivial group and the plane stay put
        lines = _five_subgroups()[1:4]
        for line in lines:
            (t,) = line.basis
            moved = [0, 0, 0]
            for slot in range(3):
                moved[perm[slot] - 1] = t[slot]
            image = chatelet.local._to_global(line, perm)
            assert image == Subgroup3.span([tuple(moved)])
            assert any(image is g for g in lines)
        plane = _five_subgroups()[4]
        assert chatelet.local._to_global(plane, perm) is plane
        assert chatelet.local._to_global(TRIVIAL_SUBGROUP, perm) is TRIVIAL_SUBGROUP

    def test_result_is_one_of_five_constants(self):
        # the five subgroups of the sum-zero plane, made once at import
        constants = _five_subgroups()
        bases = [(), ((0, 1, 1),), ((1, 0, 1),), ((1, 1, 0),), ((1, 0, 1), (0, 1, 1))]
        assert constants[0] is TRIVIAL_SUBGROUP
        assert [g.basis for g in constants] == bases
        for heavy in (False, True):
            for d, surf, p in _directed_surfaces(3232 + heavy, 6, heavy=heavy):
                sub = characteristic_subgroup(d, surf, p)
                assert any(sub is g for g in constants), (d, surf, p)


class TestSubgroup3:
    def test_span_canonicalizes(self):
        a = Subgroup3.span([(1, 1, 0), (0, 1, 1)])
        b = Subgroup3.span([(1, 0, 1), (1, 1, 0), (0, 1, 1)])
        assert a == b
        assert a.dim == 2 and a.order == 4

    def test_contains(self):
        sub = Subgroup3.span([(0, 1, 1)])
        assert sub.contains((0, 0, 0))
        assert sub.contains((0, 1, 1))
        assert not sub.contains((1, 0, 1))

    def test_trivial(self):
        assert TRIVIAL_SUBGROUP.order == 1
        assert TRIVIAL_SUBGROUP.elements() == [(0, 0, 0)]

    def test_dependent_basis_rejected(self):
        # unchecked, this basis of a group of two elements reported order 4
        with pytest.raises(ValueError, match="independent"):
            Subgroup3(((1, 0, 1), (1, 0, 1)))

    @pytest.mark.parametrize("basis", [((1, 1, 0), (0, 1, 1)), ((0, 1, 1), (1, 0, 1))])
    def test_unreduced_basis_rejected(self, basis):
        # unchecked, each of these bases of the plane compared unequal to
        # the plane that span gives
        with pytest.raises(ValueError, match="independent"):
            Subgroup3(basis)
        plane = Subgroup3(((1, 0, 1), (0, 1, 1)))
        assert plane == Subgroup3.span(basis) and plane.order == 4

    @pytest.mark.parametrize(
        "t", [(2, 0, 0), (1, 0, 3), (0, -1, 1), (True, 0, 1), (1.0, 0, 1), (0, 0.0, 0)]
    )
    def test_entries_outside_0_1_rejected(self, t):
        # unchecked, the bit shifts would read (2, 0, 0) as a bit past the
        # triple and (1, 0, 3) as (1, 1, 1), and Subgroup3(((2, 0, 0),))
        # would report order 2; a bool would stay in the basis, and a float
        # would fail in the shifts with TypeError
        with pytest.raises(ValueError, match="entries 0 or 1"):
            Subgroup3.span([t])
        with pytest.raises(ValueError, match="entries 0 or 1"):
            Subgroup3.span([(0, 1, 1)]).contains(t)
        with pytest.raises(ValueError, match="entries 0 or 1"):
            Subgroup3(((0, 1, 1), t))


CLASSIFIER_CASES = [
    (2, (0, 1, 2), 5, "Prop1-i", 1),
    (2, (0, 1, 6), 5, "Prop1-ii", 2),
    (2, (0, 5, 10), 5, "Prop1-iii", 4),
    (5, (0, 1, 6), 5, "Prop2-i", 2),
    (5, (0, 2, 12), 5, "Prop2-ii", 4),
    (5, (0, 1, 2), 5, "Prop2-iii", 4),
    (-1, (0, 1, 9), 2, "Prop3-i", 2),
    (-1, (0, 3, 27), 2, "Prop3-ii", 4),
    (-1, (0, 1, 5), 2, "Prop3-iii", 4),
]


class TestClassifyCase:
    @pytest.mark.parametrize("d,roots,p,label,order", CLASSIFIER_CASES)
    def test_frozen_labels(self, d, roots, p, label, order):
        surf = normalize_roots(*roots, p)
        assert classify_case(d, surf, p) == (label, order)

    def test_real_cases(self):
        surf = normalize_roots(0, 1, 2, "real")
        assert classify_case(-1, surf, "real") == ("Real-d-negative", 2)
        with pytest.raises(ValueError, match="split"):
            classify_case(9, surf, "real")

    def test_split_finite_place_refused(self):
        # 2 = 3^2 mod 7 is a square in Q_7: no case to classify
        with pytest.raises(ValueError, match="local square"):
            classify_case(2, normalize_roots(0, 1, 2, 7), 7)


class TestSplitRefusal:
    # 17 is a square in R, in Q_2 (17 = 1 mod 8) and in Q_13 (17 = 2^2 mod 13)
    @pytest.mark.parametrize(
        "call,place",
        [
            (lambda: special_fiber_images(17, normalize_roots(0, 1, 2, 13), 13), 13),
            (lambda: list(characteristic_points(17, normalize_roots(0, 1, 2, 13), 13)), 13),
            (lambda: classify_case(17, normalize_roots(0, 1, 2, 13), 13), 13),
            (lambda: classify_case(17, normalize_roots(0, 1, 2, "real"), "real"), "real"),
            (lambda: conductor_n(17), 2),
        ],
        ids=["fibers", "points", "classifier", "classifier-real", "conductor"],
    )
    def test_one_text_that_names_the_place(self, call, place):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == (
            f"d is a local square at {place} (the split case): its character is trivial"
        )


class TestLocalChow:
    def test_dyadic_report_frozen(self):
        rep = local_chow(-1, 0, 1, 2, 2)
        assert rep.place == 2
        assert rep.ext_class.kind is ExtKind.RAMIFIED
        assert rep.ext_class.conductor_n == 1
        assert rep.case_label == "Prop3-iii"
        assert rep.predicted_order == 4
        # global coordinates: slot i tracks root c_i of the input tuple
        assert rep.subgroup.basis == ((1, 0, 1), (0, 1, 1))
        assert rep.normalized == NormalizedSurface(
            e1=Fraction(-1), e2=Fraction(1), r=0, big_d=1, perm=(2, 1, 3)
        )

    @pytest.mark.parametrize("d,roots,p,label,order", CLASSIFIER_CASES)
    def test_prediction_matches_enumeration(self, d, roots, p, label, order):
        rep = local_chow(d, *roots, p)
        assert rep.case_label == label
        assert rep.predicted_order == order
        assert rep.subgroup.order == order

    def test_basis_tracks_root_positions(self):
        # Swapping the first two input roots permutes the slots of the basis.
        plain = local_chow(-1, 0, 1, 9, 2)
        swapped = local_chow(-1, 1, 0, 9, 2)
        assert plain.subgroup.basis == ((0, 1, 1),)
        assert swapped.subgroup.basis == ((1, 0, 1),)
        assert plain.case_label == swapped.case_label == "Prop3-i"

    def test_split_shortcut(self):
        rep = local_chow(4, 0, 1, 2, 5)
        assert rep.case_label == "Split-trivial"
        assert rep.predicted_order == 1
        assert rep.subgroup == TRIVIAL_SUBGROUP
        assert rep.ext_class.kind is ExtKind.SPLIT

    def test_real_positive_shortcut(self):
        rep = local_chow(9, 0, 1, 2, "real")
        assert rep.case_label == "Real-d-positive"
        assert rep.subgroup == TRIVIAL_SUBGROUP

    def test_real_negative(self):
        rep = local_chow(-1, 0, 1, 2, "real")
        assert rep.case_label == "Real-d-negative"
        assert rep.subgroup.elements() == [(0, 0, 0), (0, 1, 1)]

    def test_deep_congruence_pair(self):
        # n=2 ramified dyadic class: heavier window, still consistent.
        rep = local_chow(2, 0, 1, 33, 2)
        assert rep.case_label == "Prop3-i"
        assert rep.predicted_order == 2

    def test_zero_d_rejected(self):
        with pytest.raises(ValueError):
            local_chow(0, 0, 1, 2, 5)

    @pytest.mark.parametrize(
        "place",
        [6, -3, 1, "foo", 318665857834031151167461, 10000000000000000000000007],
    )
    def test_bad_place_rejected(self, place):
        with pytest.raises(ValueError, match="place must be a prime or 'real'"):
            local_chow(2, 0, 1, 3, place)

    def test_bad_place_named_before_zero_d(self):
        with pytest.raises(ValueError, match="place must be a prime or 'real'"):
            local_chow(0, 0, 1, 2, 9)

    def test_contradiction_is_raised(self, monkeypatch):
        # Force the classifier to predict the wrong order; the cross-check
        # must refuse to return a report.
        monkeypatch.setattr(
            chatelet.local, "classify_case", lambda d, surf, place: ("Prop3-i", 1)
        )
        with pytest.raises(ContradictionError) as exc:
            local_chow(-1, 0, 1, 5, 2)
        assert exc.value.predicted_order == 1
        assert exc.value.enumerated_order == 4
        assert exc.value.predicted_subgroup == TRIVIAL_SUBGROUP
        assert exc.value.enumerated_subgroup.order == 4

    def test_wrong_line_of_the_right_order_is_refused(self, monkeypatch):
        # Prop1-ii at p = 3 has order 2, and its group is <(0,1,1)> in local
        # slots; an enumerator that reports the other line <(1,1,0)> agrees
        # on the order alone, and the subgroup check must still refuse it
        assert local_chow(-1, 0, 1, 9, 3).case_label == "Prop1-ii"
        wrong = Subgroup3.span([(1, 1, 0)])
        monkeypatch.setattr(chatelet.local, "_span", lambda fibers, d, surf, place, m: wrong)
        with pytest.raises(ContradictionError) as exc:
            local_chow(-1, 0, 1, 9, 3)
        error = exc.value
        assert error.predicted_order == error.enumerated_order == 2
        # base root c2 = 1 moves to slot 0: perm (2, 1, 3)
        assert error.predicted_subgroup == Subgroup3.span([(1, 0, 1)])
        assert error.enumerated_subgroup == Subgroup3.span([(1, 1, 0)])
        message = str(error)
        assert "<(1,0,1)>" in message and "<(1,1,0)>" in message
        assert message.splitlines()[-1] == "chatelet local --d=-1 --roots=0,1,9 --p=3"


class TestIntegerNormalForm:
    """local_chow runs on d * den(d)^2 and the roots L^2 c_i, L the lcm of the
    root denominators, and reports `normalized` in the caller's coordinates."""

    def test_int_and_fraction_input_give_equal_reports(self):
        rng = random.Random(36)
        for i in range(120):
            family = CASE_FAMILIES[i % len(CASE_FAMILIES)]
            d, roots, place = random_surface(rng, family, small=True)
            square = math.lcm(*(c.denominator for c in roots)) ** 2
            ints = tuple(int(c * square) for c in roots)
            d = d.numerator * d.denominator
            as_int = local_chow(d, *ints, place)
            as_fraction = local_chow(Fraction(d), *map(Fraction, ints), place)
            assert as_int == as_fraction, (family, d, ints, place)
            assert repr(as_int) == repr(as_fraction)
            # at L = 1 `normalized` is the integer surface, ints for either
            # input type; at L != 1 it holds the Fractions e / L^2
            if as_int.normalized is not None:
                assert type(as_int.normalized.e1) is type(as_int.normalized.e2) is int
                if square != 1:
                    scaled = local_chow(d, *roots, place).normalized
                    assert type(scaled.e1) is type(scaled.e2) is Fraction

    def test_normalized_stays_in_caller_coordinates(self):
        # L = 12: the integer surface has its e times 144 and its r and D
        # larger by 4 at p = 2 and by 2 at p = 3; the report maps them back
        for place, r, big_d in (("real", 0, 0), (2, -2, -1), (3, -1, 2)):
            rep = local_chow(Fraction(-3, 4), Fraction(1, 2), Fraction(5, 3), Fraction(-7, 4), place)
            surf = normalize_roots(Fraction(1, 2), Fraction(5, 3), Fraction(-7, 4), place)
            assert rep.normalized == surf
            assert (rep.normalized.r, rep.normalized.big_d) == (r, big_d)


def _five_subgroups():
    """The trivial group, the three lines and the plane, as local holds them."""
    local = chatelet.local
    return [TRIVIAL_SUBGROUP, *local._LINE_OF.values(), local._PLANE]


def _directed_surfaces(seed, per_family, heavy=False, small=False):
    """(d, normalized surface, p) directed at each enumerable family in turn."""
    rng = random.Random(seed)
    for family in _ENUMERABLE_FAMILIES:
        for _ in range(per_family):
            d, roots, p = random_surface(rng, family, heavy=heavy, small=small)
            yield d, normalize_roots(*roots, p), p


def _sample_units(p, count=12):
    return [u for u in range(-3 * p, 3 * p) if u % p][:: max(1, 6 * p // count)]


class TestBallEnumerator:
    def test_points_carry_their_exact_triples(self):
        # a surface may yield nothing: at p = 3 with r = D = 0 every residue
        # ball holds a root and is dropped, and the fibers span the group
        seen = 0
        for heavy in (False, True):
            for d, surf, p in _directed_surfaces(31, 6, heavy=heavy):
                e1, e2 = surf.e1, surf.e2
                for x, t in characteristic_points(d, surf, p):
                    x = Fraction(x)
                    assert t == (chi(d, x, p), chi(d, x - e1, p), chi(d, x - e2, p))
                    assert sum(t) % 2 == 0
                    seen += 1
        assert seen > 0

    def test_far_tail_is_the_infinity_fiber(self):
        # x with v(x) < r - m is never visited: its triple is (c, c, c), and
        # an even sum forces (0, 0, 0)
        for heavy in (False, True):
            for d, surf, p in _directed_surfaces(32, 6, heavy=heavy):
                m = classify_extension(d, p).conductor_n
                for j in range(surf.r - m - 4, surf.r - m):
                    for u in _sample_units(p):
                        x = u * Fraction(p) ** j
                        t = (chi(d, x, p), chi(d, x - surf.e1, p), chi(d, x - surf.e2, p))
                        if sum(t) % 2 == 0:
                            assert t == (0, 0, 0), (d, surf, p, x, t)

    def test_dropped_deep_balls_carry_fiber_images(self):
        # x with v(x - e) > v(e - e') + m for both other roots e' lies in a
        # ball the enumerator drops: every even-sum triple there is the
        # special-fiber image of e, which seeds the span
        for heavy in (False, True):
            for d, surf, p in _directed_surfaces(33, 6, heavy=heavy):
                e1, e2 = surf.e1, surf.e2
                m = classify_extension(d, p).conductor_n
                images = special_fiber_images(d, surf, p)[1:]
                big_d = valuation(e1 - e2, p)
                for e, image, far in zip((0, e1, e2), images, (surf.r, big_d, big_d)):
                    for j in range(far + m + 1, far + m + 5):
                        for u in _sample_units(p):
                            x = e + u * Fraction(p) ** j
                            t = (chi(d, x, p), chi(d, x - e1, p), chi(d, x - e2, p))
                            if sum(t) % 2 == 0:
                                assert t == image, (d, surf, p, x, t, image)

    def test_unit_denominators_keep_the_subgroup(self):
        # roots divided by q^2, q a unit at p, move x by a square: the
        # subgroup is the same, and the enumerator reduces the roots' p-unit
        # denominators modulo p^k instead of dropping them
        rng = random.Random(35)
        for i in range(90):
            family = _ENUMERABLE_FAMILIES[i % len(_ENUMERABLE_FAMILIES)]
            d, roots, p = random_surface(rng, family)
            q = rng.choice([q for q in (5, 7, 11, 13) if q != p])
            moved = normalize_roots(*(c / (q * q) for c in roots), p)
            assert characteristic_subgroup(d, moved, p) == (
                characteristic_subgroup(d, normalize_roots(*roots, p), p)
            ), (family, d, roots, p, q)

    def test_matches_flat_sweep_on_heavy_conductor_two(self):
        rng = random.Random(34)
        for family in ("Prop3-i", "Prop3-ii", "Prop3-iii") * 2:
            d, roots, p = random_surface(rng, family, heavy=True)
            surf = normalize_roots(*roots, p)
            assert characteristic_subgroup(d, surf, p) == (
                flat_sweep.characteristic_subgroup(d, surf, p)
            ), (family, d, roots)

    @pytest.mark.parametrize("p", [11, 13])
    @pytest.mark.parametrize("ramified", [False, True])
    @pytest.mark.parametrize(
        "shape",
        [
            lambda p, n: (0, 1, 2),
            lambda p, n: (0, n, n * (1 + p)),
            lambda p, n: (0, p, 2 * p),
        ],
        ids=["apart", "congruent", "divisible"],
    )
    def test_matches_flat_sweep_at_larger_primes(self, p, ramified, shape):
        # n is a nonresidue, so e1 = n is not a norm in the congruent shape
        # (Prop2-ii): Prop2-i, where the flat sweep cannot stop early, takes
        # it 5-11 s here and is left to the regression tests
        n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) != 1)
        d = p * n if ramified else n
        surf = normalize_roots(*shape(p, n), p)
        assert characteristic_subgroup(d, surf, p) == (
            flat_sweep.characteristic_subgroup(d, surf, p)
        )

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_unit_blind_matches_flat_sweep(self, p):
        # r from -2 to 2 (p in the root denominators below 0) and D - r from
        # 0 to 4, as far as the sweep's p^(D - r + 1) residues stay cheap
        rng = random.Random(p)
        if p == 2:
            classes = (5, -3, Fraction(13, 4), -12)
        else:
            nonresidues = [n for n in range(2, p) if pow(n, (p - 1) // 2, p) != 1]
            classes = (rng.choice(nonresidues), Fraction(rng.choice(nonresidues) - p, p**2))
        compared = 0
        for d in classes:
            assert classify_extension(d, p).kind is ExtKind.UNRAMIFIED
            for r in range(-2, 3):
                for gap in range(5):
                    if p ** (gap + 1) > 3200 or (p == 2 and gap == 0):
                        continue
                    while True:
                        u1, u2 = (rng.randrange(1, 4 * p) for _ in range(2))
                        if u1 % p and u2 % p and (gap or (u1 + u2) % p):
                            break
                    e1 = u1 * Fraction(p) ** r
                    e2 = e1 + u2 * Fraction(p) ** (r + gap)
                    assert valuation(e2, p) == r and valuation(e1 - e2, p) == r + gap
                    surf = _surface(e1, e2, p)
                    assert characteristic_subgroup(d, surf, p) == (
                        flat_sweep.characteristic_subgroup(d, surf, p)
                    ), (d, e1, e2, p)
                    compared += 1
        assert compared >= 10

    @pytest.mark.parametrize("p", [999983, 1000003])
    def test_unit_blind_work_is_independent_of_p(self, p):
        n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) != 1)
        for d in (n, Fraction(n - p, p**2)):
            for r in (-1, 0, 1, 2):
                for gap in range(5):
                    e1 = 3 * Fraction(p) ** r
                    e2 = e1 + 5 * Fraction(p) ** (r + gap)
                    with wall_clock_guard(5):
                        points = list(characteristic_points(d, _surface(e1, e2, p), p))
                    assert len(points) <= 2 * (gap + 2), (d, e1, e2, len(points))

    @pytest.mark.parametrize("p", [q for q in range(3, 62, 2) if all(q % t for t in range(3, q, 2))])
    def test_child_rule_matches_all_children_at_ramified_odd_p(self, p):
        # Prop2-i/ii/iii with r from -1 to 1 and D - r from 0 to 3: e1 = u p^r
        # for a residue and a nonresidue u, and d = p, p n, n / p (v_p(d) odd)
        n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) != 1)
        labels = set()
        for d in (p, p * n, Fraction(n, p)):
            for u in (1, n):
                for r in (-1, 0, 1):
                    for gap in range(4):
                        e1 = u * Fraction(p) ** r
                        e2 = e1 + Fraction(p) ** (r + gap) if gap else 2 * e1
                        surf = _surface(e1, e2, p)
                        assert valuation(e1 - e2, p) - surf.r == gap
                        labels.add(classify_case(d, surf, p)[0])
                        assert characteristic_subgroup(d, surf, p) == (
                            flat_sweep.all_children_subgroup(d, surf, p)
                        ), (d, e1, e2, p)
                        # the rule yields a subset of the points, and every
                        # triple that occurs
                        kept = set(characteristic_points(d, surf, p))
                        full = set(flat_sweep.all_children_points(d, surf, p))
                        assert kept <= full, (d, e1, e2, p)
                        assert {t for _, t in kept} == {t for _, t in full}, (d, e1, e2, p)
        assert labels == {"Prop2-i", "Prop2-ii", "Prop2-iii"}

    def test_child_rule_matches_all_children_at_p2(self):
        # Prop3-i/ii/iii at conductor 1 (d = -1, 3, 3/4) and 2 (d = 2, -6,
        # 2/9): e1 = u 2^r for each unit u mod 8, r from -1 to 2, and
        # v(e1 - e2) = r + 1 + gap, as two units differ by an even number
        labels = set()
        for d in (-1, 3, Fraction(3, 4), 2, -6, Fraction(2, 9)):
            for u in (1, 3, 5, 7):
                for r in (-1, 0, 1, 2):
                    for gap in range(7):
                        e1 = u * Fraction(2) ** r
                        e2 = e1 + Fraction(2) ** (r + 1 + gap)
                        surf = _surface(e1, e2, 2)
                        assert valuation(e1 - e2, 2) - surf.r == 1 + gap
                        labels.add(classify_case(d, surf, 2)[0])
                        assert characteristic_subgroup(d, surf, 2) == (
                            flat_sweep.all_children_subgroup(d, surf, 2)
                        ), (d, e1, e2)
                        kept = set(characteristic_points(d, surf, 2))
                        full = set(flat_sweep.all_children_points(d, surf, 2))
                        assert kept <= full, (d, e1, e2)
                        assert {t for _, t in kept} == {t for _, t in full}, (d, e1, e2)
        assert labels == {"Prop3-i", "Prop3-ii", "Prop3-iii"}

    @pytest.mark.parametrize("p", [1000000007, 1000000000039])
    def test_ramified_work_is_independent_of_p(self, p, monkeypatch):
        # each split ball yields at most one point per triple, 2^s for s
        # distinct roots held, so at most 8 per level; the scan of rootless
        # children stops after a few dozen, where refining every split ball
        # into all p children took about 3p evaluations
        n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) != 1)
        evaluations = [0]
        char_fn = chatelet.local.norm_char_fn

        def counted(d, place):
            ev = char_fn(d, place)

            def count(x):
                evaluations[0] += 1
                return ev(x)

            return count

        monkeypatch.setattr(chatelet.local, "norm_char_fn", counted)
        for d in (p, p * n, Fraction(n, p)):
            for r in (-1, 0, 1, 2):
                for gap in range(5):
                    e1 = 3 * Fraction(p) ** r
                    e2 = e1 + 5 * Fraction(p) ** (r + gap)
                    evaluations[0] = 0
                    with wall_clock_guard(5):
                        points = list(characteristic_points(d, _surface(e1, e2, p), p))
                    assert len(points) <= 8 * (gap + 2), (d, e1, e2, len(points))
                    assert evaluations[0] <= 1000, (d, e1, e2, evaluations[0])

    def test_enumerator_work_is_fixed(self, monkeypatch):
        # the chi evaluations and the points of characteristic_subgroup over
        # directed surfaces of every enumerable family and both dyadic
        # conductors, on the Fraction surface of normalize_roots and on the
        # integer one local_chow makes; they move only if the balls visited,
        # their order (the sub-balls at p = 2) or the scan stop (ramified
        # odd p) do.  Every point the walk yields, in order, is pinned too:
        # characteristic_subgroup stops at a full span, so a reordering
        # shows in the totals only when it moves that stop.  The kept
        # children come in root-index order, not in the order of a set.
        surfaces = []
        for heavy in (False, True):
            rng = random.Random(1414 + heavy)
            for family in _ENUMERABLE_FAMILIES:
                for _ in range(8):
                    surfaces.append(random_surface(rng, family, heavy=heavy))
        walks = [list(characteristic_points(d, normalize_roots(*roots, p), p))
                 for d, roots, p in surfaces]
        digest = hashlib.sha256(repr(walks).encode()).hexdigest()
        assert digest == "2aa0100d80c672add95deaedc63ae6b198385be87e1cf7ef44de6a9752ed534c"
        evaluations = [0]
        points = [0]
        char_fn = chatelet.local.norm_char_fn
        enumerate_points = chatelet.local.characteristic_points

        def counted_char_fn(d, place):
            ev = char_fn(d, place)

            def count(x):
                evaluations[0] += 1
                return ev(x)

            return count

        def counted_points(*args):
            for item in enumerate_points(*args):
                points[0] += 1
                yield item

        monkeypatch.setattr(chatelet.local, "norm_char_fn", counted_char_fn)
        monkeypatch.setattr(chatelet.local, "characteristic_points", counted_points)
        for d, roots, p in surfaces:
            characteristic_subgroup(d, normalize_roots(*roots, p), p)
            local_chow(d, *roots, p)
        assert (evaluations[0], points[0]) == (5256, 596)

    @pytest.mark.parametrize("p", [q for q in range(2, 62) if all(q % t for t in range(2, q))])
    def test_levels_match_the_level_walk(self, p):
        # the levels read from r and D against the walk that groups the roots
        # by residue at every level: the same points in the same order where
        # the chain is too short to jump (D - r <= 2m + 3), and everywhere
        # the same triples and the same span
        rng = random.Random(p)
        if p == 2:
            classes = (-1, 3, 7, -5, 2, -2, 6, -6, 10, 5, -3)
        else:
            n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) != 1)
            classes = (p, p * n, -p, n)
        units = [u for u in range(1, 4 * p) if u % p]
        for r in (0, 1, 2):
            for gap in range(41):
                if p == 2 and gap == 0:
                    continue  # two units differ by an even number
                for _ in range(2):
                    d = rng.choice(classes)
                    u, w = rng.choice(units), rng.choice(units)
                    while gap == 0 and (u + w) % p == 0:
                        w = rng.choice(units)
                    surf = _surface(u * p**r, u * p**r + w * p ** (r + gap), p)
                    assert (surf.r, surf.big_d) == (r, r + gap)
                    walk = list(characteristic_points(d, surf, p))
                    levels = list(flat_sweep.level_walk_points(d, surf, p))
                    if gap <= 2 * classify_extension(d, p).conductor_n + 3:
                        assert walk == levels, (d, surf, p)
                    assert {t for _, t in walk} == {t for _, t in levels}, (d, surf, p)
                    assert characteristic_subgroup(d, surf, p) == (
                        flat_sweep.level_walk_subgroup(d, surf, p)
                    ), (d, surf, p)

    def test_span_builds_no_fraction_at_a_prime(self, monkeypatch):
        # characteristic_subgroup walks the surface moved to r >= m, whose
        # points are ints, so a dyadic surface with r < m no longer builds a
        # Fraction for each point that the span then discards
        built = [0]

        def counted(*args):
            built[0] += 1
            return Fraction(*args)

        monkeypatch.setattr(chatelet.local, "Fraction", counted)
        moved = 0
        for heavy in (False, True):
            rng = random.Random(1717 + heavy)
            for family in _ENUMERABLE_FAMILIES:
                for _ in range(8):
                    d, roots, p = random_surface(rng, family, heavy=heavy)
                    if p not in (2, 3, 5):
                        continue
                    ints, _ = chatelet.local._integral_roots(roots)
                    surf = normalize_roots(*ints, p)
                    moved += surf.r < classify_extension(d, p).conductor_n
                    characteristic_subgroup(d, surf, p)
        assert moved > 0
        assert built[0] == 0

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_chain_work_is_independent_of_depth(self, p, monkeypatch):
        # past the first two levels of the chain r + m < k < D - m the walk
        # jumps to D - m, so a deeper congruence costs no chi evaluation more
        evaluations = [0]
        char_fn = chatelet.local.norm_char_fn

        def counted(d, place):
            ev = char_fn(d, place)

            def count(x):
                evaluations[0] += 1
                return ev(x)

            return count

        monkeypatch.setattr(chatelet.local, "norm_char_fn", counted)
        counts = []
        for depth in (100, 1000, 10000):
            evaluations[0] = 0
            local_chow(p, 0, 1, 1 + p**depth, p)
            counts.append(evaluations[0])
        assert counts[0] == counts[1] == counts[2] > 0, counts

    @pytest.mark.parametrize("p,label", [(2, "Prop3-i"), (3, "Prop2-i")])
    def test_deep_chain_within_guard(self, p, label):
        with wall_clock_guard(2):
            rep = local_chow(p, 0, 1, 1 + p**100000, p)
        assert (rep.case_label, rep.subgroup.basis) == (label, ((0, 1, 1),))

    def test_work_grows_linearly_with_root_congruence(self):
        # conductor-2 class, e2 = 1 + 2^k: the flat sweep grew as 2^k, and
        # each level past the first few adds at most two points
        counts = [
            len(list(characteristic_points(2, _surface(1, 1 + 2**k, 2), 2)))
            for k in (10, 20, 30)
        ]
        assert counts[2] - counts[1] == counts[1] - counts[0] <= 2 * 10
        assert counts[2] < 4 * counts[0]


class TestRegressions:
    """Inputs that took minutes or did not finish under the flat sweep."""

    @pytest.mark.parametrize(
        "d,roots,p,label,basis",
        [
            (23, (0, 1, 24), 23, "Prop2-i", ((0, 1, 1),)),
            (101, (0, 1, 102), 101, "Prop2-i", ((0, 1, 1),)),
            (1009, (0, 1, 1010), 1009, "Prop2-i", ((0, 1, 1),)),
            (2, (0, 1, 1 + 2**9), 2, "Prop3-i", ((0, 1, 1),)),
            (2, (0, 1, 1 + 2**20), 2, "Prop3-i", ((0, 1, 1),)),
            (-2, (0, 1, 1 + 2**30), 2, "Prop3-i", ((0, 1, 1),)),
            # unramified: each of the ~p residue balls was evaluated
            (-1, (0, 1, 999984), 999983, "Prop1-ii", ((0, 1, 1),)),
            (3, (0, 1, 2), 1000003, "Prop1-i", ()),
            # ramified odd p: each split ball was refined into all p children
            (999983, (0, 1, 999984), 999983, "Prop2-i", ((0, 1, 1),)),
            # the dyadic character removed factors of 2 one shift at a time
            (2, (0, 1, 1 + 2**4000), 2, "Prop3-i", ((0, 1, 1),)),
            (-1, (0, 1, 1 + 2**4000), 2, "Prop3-i", ((0, 1, 1),)),
            # the odd evaluator and valuation removed factors of p one at a time
            (3, (0, 1, 1 + 3**2000), 3, "Prop2-i", ((0, 1, 1),)),
        ],
    )
    def test_finishes_within_guard(self, d, roots, p, label, basis):
        with wall_clock_guard(5):
            rep = local_chow(d, *roots, p)
        assert rep.case_label == label
        assert rep.predicted_order == rep.subgroup.order == 2 ** len(basis)
        assert rep.subgroup.basis == basis

    @pytest.mark.parametrize(
        "d,place",
        [(-1, 2), (2, 2), (2, 5), (5, 5), (-1, "real"), (4, "real")],
    )
    def test_char_at_zero_raises_within_guard(self, d, place):
        # the dyadic and odd evaluators looped forever on t = 0
        evaluate = norm_char_fn(Fraction(d), place)
        with wall_clock_guard(5):
            for zero in (0, Fraction(0)):
                with pytest.raises(ValueError, match="chi is undefined at zero"):
                    evaluate(zero)
                with pytest.raises(ValueError, match="chi is undefined at zero"):
                    chi(d, zero, place)

    def test_global_with_large_unramified_place_within_guard(self):
        with wall_clock_guard(5):
            rep = global_chow(-1, 0, 1, 999984)
        assert rep.kernel_dim == 5
        assert rep.checked_places == ("real", 2, 3, 83, 251, 999983)
        assert {v.place: v.subgroup.basis for v in rep.local_reports} == {
            "real": ((0, 1, 1),),
            2: ((1, 0, 1), (0, 1, 1)),
            3: ((1, 0, 1),),
            83: ((1, 0, 1),),
            251: ((1, 0, 1),),
            999983: ((0, 1, 1),),
        }

    def test_global_with_large_ramified_place_within_guard(self):
        with wall_clock_guard(5):
            rep = global_chow(-1000003, 0, 1, 1000004)
        assert rep.kernel_dim == 1
        assert rep.checked_places == ("real", 2, 53, 89, 1000003)
        nontrivial = {
            v.place: (v.case_label, v.subgroup.basis)
            for v in rep.local_reports
            if v.subgroup.basis
        }
        assert nontrivial == {
            "real": ("Real-d-negative", ((0, 1, 1),)),
            2: ("Prop1-ii", ((1, 0, 1),)),
            1000003: ("Prop2-i", ((0, 1, 1),)),
        }


# the first primes past 10^6, 10^12 and 10^18
LARGE_PRIMES = (1000003, 1000000000039, 1000000000000000003)
small_units = st.integers(-30, 30).filter(bool)


@st.composite
def large_place_surfaces(draw):
    """(d, roots, q): d = q u (ramified at q) or d = u (unramified or split
    there) for a small unit u, and integer roots whose differences carry
    q^i and q^j, i, j <= 3."""
    q = draw(st.sampled_from(LARGE_PRIMES))
    u = draw(small_units)
    d = q * u if draw(st.booleans()) else u
    c1 = draw(st.integers(-50, 50))
    a, i, b, j = draw(small_units), draw(st.integers(0, 3)), draw(small_units), draw(st.integers(0, 3))
    assume(a * q**i != b * q**j)
    return d, (c1, c1 + a * q**i, c1 + b * q**j), q


# classes of d that are not squares at p: ramified ones of both dyadic
# conductors, and one unramified class at each p
DEEP_CLASSES = {2: (-1, 3, 2, -6, 5), 3: (3, -6, 2), 5: (5, 10, 2), 7: (7, -21, 3)}


@st.composite
def deep_congruence_surfaces(draw):
    """(d, roots, p): roots c, c + a p^i and c + a p^i + b p^D for units a,
    b, i <= 3 and a depth D up to 10^4, the deep pair last."""
    p = draw(st.sampled_from(sorted(DEEP_CLASSES)))
    units = st.integers(-50, 50).filter(lambda u: u % p)
    i = draw(st.integers(0, 3))
    c = draw(st.integers(-50, 50))
    near = c + draw(units) * p**i
    deep = near + draw(units) * p ** draw(st.integers(i + 1, 10**4))
    return draw(st.sampled_from(DEEP_CLASSES[p])), (c, near, deep), p


def _local_within_second(d, roots, q):
    with wall_clock_guard(1):
        return local_chow(d, *roots, q)


class TestLargePlaces:
    def test_large_primes_are_prime(self):
        assert all(map(is_prime, LARGE_PRIMES))
        for e, q in zip((6, 12, 18), LARGE_PRIMES):
            assert not any(map(is_prime, range(10**e, q)))

    @settings(max_examples=120, deadline=None)
    @given(
        st.one_of(large_place_surfaces(), deep_congruence_surfaces()),
        st.integers(-(10**30), 10**30),
    )
    def test_local_chow_is_equivariant(self, surface, shift):
        # large places, and congruences up to 10^4 deep, whose chain the
        # walk jumps in every root order
        d, roots, q = surface
        rep = _local_within_second(d, roots, q)
        assert rep.predicted_order == rep.subgroup.order
        for sigma in itertools.permutations(range(3)):
            moved = _local_within_second(d, tuple(roots[k] for k in sigma), q)
            assert moved.case_label == rep.case_label
            assert set(moved.subgroup.elements()) == {
                tuple(t[k] for k in sigma) for t in rep.subgroup.elements()
            }
        assert _local_within_second(d, tuple(c + shift for c in roots), q) == rep

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(LARGE_PRIMES),
        st.sampled_from((1, -1)),
        st.tuples(*[st.integers(0, 3)] * 4),
        st.lists(st.integers(-50, 50), min_size=3, max_size=3, unique=True),
    )
    def test_global_chow_checks_the_large_place(self, q, sign, exponents, roots):
        s = sign * math.prod(p**e for p, e in zip((2, 3, 5, 7), exponents))
        with wall_clock_guard(5):
            try:
                rep = global_chow(q * s, *roots)
            except FactorizationError:
                return
        assert q in rep.checked_places
