"""Global kernel computation, candidate place finding, and reciprocity."""

import json
import random
import shlex
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chatelet.factorint
import chatelet.globalchow
import chatelet.local
import chatelet.norms
import chatelet.padic
from chatelet import (
    ContradictionError,
    DegenerateSurfaceError,
    ExtKind,
    FactorizationError,
    Subgroup3,
    candidate_places,
    characteristic_subgroup,
    classify_extension,
    global_chow,
    kernel_dimension,
    local_chow,
    normalize_roots,
    random_surface,
    reciprocity_check,
    valuation,
)
from chatelet.checks import _ENUMERABLE_FAMILIES
from chatelet.cli import EXIT_OK, main
from guards import wall_clock_guard
from symbol_oracle import unit_residue

# a prime past psi_13, the Miller-Rabin witness limit: it cannot be certified
UNCERTIFIABLE_PRIME = 10000000000000000000000013
# 1000003 * 1000033: both factors lie past the trial division, so rho splits it
RHO_SEMIPRIME = 1000036000099


def assert_proven_once(numbers):
    """Since its cache was last emptied, is_prime has proven exactly the
    distinct `numbers`, each once: one miss for each, and each is now a hit."""
    is_prime = chatelet.factorint.is_prime
    assert is_prime.cache_info().misses == len(set(numbers))
    for n in numbers:
        is_prime(n)
    assert is_prime.cache_info().misses == len(set(numbers))


class TestCandidatePlaces:
    def test_unit_d(self):
        assert candidate_places(-1, 0, 1, 2) == ["real", 2]

    def test_prime_d_contributes(self):
        assert candidate_places(17, 0, 1, 2) == ["real", 2, 17]

    def test_square_d_gives_no_places(self):
        assert candidate_places(4, 0, 1, 2) == []
        assert candidate_places(Fraction(49, 4), 0, 1, 2) == []

    def test_denominators_contribute(self):
        assert candidate_places(Fraction(1, 3), 0, Fraction(1, 5), 2) == [
            "real",
            2,
            3,
            5,
        ]

    def test_root_differences_contribute(self):
        # 9 - 2 = 7 brings in p = 7 even though d and the roots avoid it
        assert 7 in candidate_places(-1, 2, 9, 1)

    def test_zero_d_rejected(self):
        with pytest.raises(ValueError):
            candidate_places(0, 0, 1, 2)

    def test_unfactorable_d(self):
        with pytest.raises(FactorizationError):
            candidate_places(UNCERTIFIABLE_PRIME, 0, 1, 2)

    def test_factorization_error_ends_with_repro_line(self):
        # the caller's values, negative and fractional ones included
        with pytest.raises(FactorizationError) as info:
            candidate_places(Fraction(-1, 3) * UNCERTIFIABLE_PRIME, Fraction(-3, 2), 0, 1)
        assert info.value.n == UNCERTIFIABLE_PRIME
        assert str(info.value).splitlines()[-1] == (
            f"chatelet global --d=-{UNCERTIFIABLE_PRIME}/3 --roots=-3/2,0,1"
        )

    def test_shared_primes_are_factored_once(self, monkeypatch):
        from chatelet.factorint import factorize

        args = []

        def recorded(n, budget):
            args.append(n)
            return factorize(n, budget)

        monkeypatch.setattr(chatelet.globalchow, "factorize", recorded)
        P, Q = 1000003, 1000033
        places = candidate_places(-1, 5, 5 + 6 * P * Q, 5 + 35 * P * Q)
        assert places == ["real", 2, 3, 5, 7, 29, P, Q]
        assert [n for n in args if n % P == 0] == [-6 * P * Q]

    def test_one_primality_test_per_place(self):
        from chatelet import norms

        chatelet.factorint.is_prime.cache_clear()
        norms.classify_extension.cache_clear()
        norms.norm_char_fn.cache_clear()
        rep = global_chow(-1, 0, 1, 2)
        finite = [p for p in rep.checked_places if p != "real"] + list(rep.sampled_primes)
        assert len(finite) == 21
        assert_proven_once(finite)

    def test_factored_primes_are_not_proven_again(self):
        # factorize proves P and Q while it splits P*Q, and their place
        # checks take those proofs from the one primality cache
        P, Q = 1000003, 1000033
        clear_program_caches()
        rep = global_chow(-1, 0, P * Q, 2 * P * Q, sample_primes=0)
        assert rep.checked_places == ("real", 2, P, Q)
        assert rep.kernel_dim == 3
        assert_proven_once([2, P, Q, P * Q])

    def test_one_rho_budget_per_call(self):
        # six semiprimes of two primes near 1.8e12, each factorable alone;
        # together they need more rho work than the one budget a call has
        primes = [
            1800000000047, 1800001000001, 1800002000023, 1800003000011,
            1800004000013, 1800005000081, 1800006000017, 1800007000027,
            1800008000029, 1800009000047, 1800010000069, 1800011000089,
        ]
        s = [primes[i] * primes[i + 1] for i in range(0, 12, 2)]
        with wall_clock_guard(5):
            with pytest.raises(FactorizationError, match="rho"):
                global_chow(Fraction(s[0], s[1]), 0, Fraction(s[2], s[3]), Fraction(s[4], s[5]))
        from chatelet.factorint import factorize

        assert factorize(s[2]) == {primes[4]: 1, primes[5]: 1}

    def test_semiprime_past_trial_division(self):
        from chatelet.factorint import factorize

        assert factorize(RHO_SEMIPRIME) == {1000003: 1, 1000033: 1}


class TestKernelDimension:
    def test_two_places_overlap(self):
        real = Subgroup3.span([(0, 1, 1)])
        dyadic = Subgroup3.span([(1, 0, 1), (0, 1, 1)])
        assert kernel_dimension([real, dyadic]) == 1

    def test_no_subgroups(self):
        assert kernel_dimension([]) == 0

    def test_single_place_has_trivial_kernel(self):
        assert kernel_dimension([Subgroup3.span([(1, 0, 1), (0, 1, 1)])]) == 0

    def test_identical_places_share_everything(self):
        sub = Subgroup3.span([(1, 0, 1), (0, 1, 1)])
        assert kernel_dimension([sub, sub]) == 2
        assert kernel_dimension([sub, sub, sub]) == 4

    # A basis with a zero or repeated vector never reaches kernel_dimension:
    # the Subgroup3 constructor raises first, so these two pin that a
    # subgroup handed to it has an independent basis.
    def test_zero_basis_vector_rejected(self):
        with pytest.raises(ValueError, match="independent"):
            kernel_dimension([Subgroup3(((0, 0, 0),))])

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError, match="independent"):
            kernel_dimension([Subgroup3(((0, 1, 1), (0, 1, 1)))])

    def test_non_sum_zero_rejected(self):
        with pytest.raises(ValueError, match="sum to zero"):
            kernel_dimension([Subgroup3(((1, 0, 0),))])

    @pytest.mark.parametrize("t", [(2, 0, 0), (1, 0, 3)])
    def test_entries_outside_0_1_rejected(self, t):
        with pytest.raises(ValueError, match="entries 0 or 1"):
            kernel_dimension([Subgroup3((t,))])


class TestGlobalChow:
    def test_unit_disc_frozen(self):
        rep = global_chow(-1, 0, 1, 2, rng=random.Random(7))
        assert rep.kernel_dim == 1
        assert rep.group == "(Z/2)^1"
        assert rep.place_orders == {"real": 2, 2: 4}
        assert rep.checked_places == ("real", 2)
        assert len(rep.sampled_primes) == 20
        assert all(p not in (2,) for p in rep.sampled_primes)

    def test_square_d_shortcut(self):
        rep = global_chow(4, 0, 1, 2)
        assert rep.kernel_dim == 0
        assert rep.local_reports == ()
        assert rep.checked_places == ()
        assert rep.sampled_primes == ()
        assert rep.group == "(Z/2)^0"

    def test_rational_square_shortcut(self):
        assert global_chow(Fraction(49, 4), 0, 1, 2).kernel_dim == 0

    def test_prime_d_trivial_kernel(self):
        rep = global_chow(17, 0, 1, 2, sample_primes=0)
        assert rep.kernel_dim == 0
        assert rep.place_orders == {17: 4}

    def test_d_two_trivial_kernel(self):
        rep = global_chow(2, 0, 1, 2, sample_primes=0)
        assert rep.kernel_dim == 0
        assert rep.place_orders == {2: 4}

    def test_three_place_overlap(self):
        rep = global_chow(-1, 0, 1, 9, sample_primes=0)
        assert rep.kernel_dim == 1
        assert rep.place_orders == {"real": 2, 2: 2, 3: 2}
        by_place = {r.place: r for r in rep.local_reports}
        assert by_place["real"].subgroup.basis == ((0, 1, 1),)
        assert by_place[2].case_label == "Prop3-i"
        assert by_place[2].subgroup.basis == ((0, 1, 1),)
        assert by_place[3].case_label == "Prop1-ii"
        assert by_place[3].subgroup.basis == ((1, 0, 1),)

    def test_rng_reproducible(self):
        a = global_chow(-1, 0, 1, 2, rng=random.Random(3))
        b = global_chow(-1, 0, 1, 2, rng=random.Random(3))
        assert a == b

    def test_sample_pool_is_sieved_once(self, monkeypatch):
        # the pool is sieved at import: a draw sieves nothing
        from chatelet.factorint import primes_below

        def refused(limit):
            raise AssertionError(f"primes_below({limit}) called after import")

        monkeypatch.setattr(chatelet.globalchow, "primes_below", refused)
        chatelet.globalchow._default_sample.cache_clear()
        first = global_chow(-1, 0, 1, 2)
        global_chow(-1, 0, 1, 3)
        assert first.sampled_primes == (
            79, 229, 367, 389, 617, 733, 757, 839, 919, 941,
            1103, 1217, 1289, 1327, 1559, 1583, 1657, 1669, 1759, 1987,
        )
        assert chatelet.globalchow._SAMPLE_POOL == tuple(primes_below(2000)[1:])

    def test_sample_primes_must_be_an_int(self):
        with pytest.raises(TypeError, match="sample_primes"):
            global_chow(-1, 0, 1, 2, sample_primes=2.5)
        with pytest.raises(TypeError, match="sample_primes"):
            global_chow(-1, 0, 1, 2, sample_primes="20")
        with pytest.raises(TypeError, match="sample_primes"):
            global_chow(-1, 0, 1, 2, sample_primes=True)
        with pytest.raises(TypeError, match="sample_primes"):
            global_chow(-1, 0, 1, 2, sample_primes=False)

    def test_negative_sample_primes_rejected(self):
        with pytest.raises(ValueError, match="sample_primes"):
            global_chow(-1, 0, 1, 2, sample_primes=-1)

    def test_sample_primes_zero(self):
        rep = global_chow(-1, 0, 1, 2, sample_primes=0)
        assert rep.sampled_primes == ()
        assert rep.kernel_dim == 1

    def test_zero_d_rejected(self):
        with pytest.raises(ValueError):
            global_chow(0, 0, 1, 2)

    def test_unfactorable_d(self):
        with pytest.raises(FactorizationError):
            global_chow(UNCERTIFIABLE_PRIME, 0, 1, 2)

    def test_semiprime_d_past_trial_division(self):
        rep = global_chow(RHO_SEMIPRIME, 0, 1, 2)
        assert rep.kernel_dim == 4
        assert rep.checked_places == ("real", 2, 1000003, 1000033)

    def test_missing_candidate_place_is_caught(self, monkeypatch, capsys):
        # Hide p=3 from the candidate list; the trivial-at-sampled-primes
        # audit must notice the nontrivial local group there.
        monkeypatch.setattr(
            chatelet.globalchow,
            "candidate_places",
            lambda d, c1, c2, c3: ["real", 2],
        )

        class Pick3:
            @staticmethod
            def sample(pool, k):
                assert 3 in pool
                return [3]

        with pytest.raises(ContradictionError) as exc:
            global_chow(-1, 0, 1, 9, sample_primes=1, rng=Pick3())
        assert exc.value.enumerated_order == 2
        # the last line recomputes the offending local group
        line = str(exc.value).splitlines()[-1]
        assert line == "chatelet local --d=-1 --roots=0,1,9 --p=3"
        assert main(shlex.split(line)[1:] + ["--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["result"]["group"] == "(Z/2)^1"


class TestIntegerHandOff:
    """global_chow converts d and the roots to integers once per call and
    hands every place the same integer surface."""

    SURFACES = (
        (Fraction(-3, 4), (Fraction(1, 2), Fraction(5, 3), Fraction(-7, 4))),
        (30, (Fraction(5, 4), 6, Fraction(-14, 3))),
    )

    @pytest.mark.parametrize("d,roots", SURFACES)
    def test_reports_match_local_chow(self, d, roots):
        rep = global_chow(d, *roots)
        assert rep.d == d and rep.roots == roots
        assert rep.local_reports
        for local in rep.local_reports:
            assert local == local_chow(d, *roots, local.place)
        # the root denominators lie at these places, so the integer surface
        # has other valuations there and the mapping back is not the identity
        assert any(local.normalized.r < 0 for local in rep.local_reports)

    @pytest.mark.parametrize("d,roots", SURFACES)
    def test_every_place_gets_ints(self, d, roots, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return local_chow(*args)

        monkeypatch.setattr(chatelet.globalchow, "local_chow", spy)
        rep = global_chow(d, *roots)
        assert [args[4] for args in calls] == [*rep.checked_places, *rep.sampled_primes]
        for args in calls:
            assert all(type(x) is int for x in args[:4]), args
            # d's squarefree representative: the same square class, and
            # squarefree at every candidate, where all of d's primes lie
            assert chatelet.padic.is_rational_square(Fraction(args[0]) / d), args
            assert all(valuation(args[0], p) <= 1 for p in rep.checked_places[1:]), args

    def test_square_multiple_of_d_works_nothing_out_again(self):
        # -108 = -3 * 6^2, and 2 and 3 are already candidates of -3: every
        # place sees the key of -3 again
        norms = chatelet.norms
        caches = (norms.classify_extension, norms.norm_char_fn)
        clear_program_caches()
        first = global_chow(-3, 0, 1, 5)
        misses = [cache.cache_info().misses for cache in caches]
        second = global_chow(-108, 0, 1, 5)
        assert [cache.cache_info().misses for cache in caches] == misses
        assert second.local_reports == first.local_reports
        assert second.checked_places == first.checked_places

    def test_contradiction_repro_is_the_integer_surface(self, monkeypatch, capsys):
        # d = -3/4 and roots 1/2, 5/3, -7/4 become -3, d's squarefree
        # representative, and 72, 240, -252
        monkeypatch.setattr(
            chatelet.local, "classify_case", lambda d, surf, place: ("Prop3-i", 8)
        )
        with pytest.raises(ContradictionError) as exc:
            global_chow(Fraction(-3, 4), Fraction(1, 2), Fraction(5, 3), Fraction(-7, 4))
        # no subgroup of the sum-zero plane has order 8
        assert exc.value.predicted_subgroup is None
        assert "(no subgroup)" in str(exc.value)
        line = str(exc.value).splitlines()[-1]
        assert line == "chatelet local --d=-3 --roots=72,240,-252 --p=real"
        monkeypatch.undo()
        assert main(shlex.split(line)[1:] + ["--format", "json"]) == EXIT_OK
        rep = global_chow(Fraction(-3, 4), Fraction(1, 2), Fraction(5, 3), Fraction(-7, 4))
        generators = json.loads(capsys.readouterr().out)["result"]["generators"]
        real = [r for r in rep.local_reports if r.place == "real"][0]
        assert generators == [list(g) for g in real.subgroup.basis]


class TestNoSubgroupPerPlace:
    def test_places_build_no_subgroup(self, monkeypatch):
        # a place returns one of the five constant subgroups of the sum-zero
        # plane and builds none: at every checked and sampled place of the
        # hand-off surfaces, whose roots are mapped back to Fractions, and
        # in the enumerator on surfaces of every enumerable family
        runs = [(d, roots, global_chow(d, *roots)) for d, roots in TestIntegerHandOff.SURFACES]
        rng = random.Random(3333)
        surfaces = [random_surface(rng, f, heavy=heavy)
                    for heavy in (False, True) for f in _ENUMERABLE_FAMILIES for _ in range(4)]
        built = [0]
        init = Subgroup3.__init__

        def counted(self, basis):
            built[0] += 1
            init(self, basis)

        monkeypatch.setattr(Subgroup3, "__init__", counted)
        for d, roots, rep in runs:
            assert global_chow(d, *roots) == rep
            for place in (*rep.checked_places, *rep.sampled_primes):
                local_chow(d, *roots, place)
        for d, roots, p in surfaces:
            characteristic_subgroup(d, normalize_roots(*roots, p), p)
        assert built[0] == 0
        Subgroup3.span([(0, 1, 1)])
        assert built[0] == 1


class TestEveryPlaceRunsBothRoutes:
    """The sampled check is the full local computation: no place, candidate
    or sampled, skips the enumerator or the classifier."""

    @pytest.mark.parametrize(
        "d,roots",
        [
            (-1, (0, 1, 2)),
            (Fraction(-3, 4), (Fraction(1, 2), Fraction(5, 3), Fraction(-7, 4))),
        ],
    )
    def test_each_route_once_per_nonsplit_place(self, d, roots, monkeypatch):
        # local_chow runs the enumerator as the fold _span, whose place is
        # its fourth argument, and the classifier as classify_case, third
        runs = {"_span": [], "classify_case": []}
        for (name, places), at in zip(runs.items(), (3, 2)):

            def counted(*args, route=getattr(chatelet.local, name), places=places, at=at):
                places.append(args[at])
                return route(*args)

            monkeypatch.setattr(chatelet.local, name, counted)
        rep = global_chow(d, *roots)
        nonsplit = [
            place
            for place in (*rep.checked_places, *rep.sampled_primes)
            if classify_extension(d, place).kind is not ExtKind.SPLIT
        ]
        assert set(nonsplit) & set(rep.sampled_primes)
        assert runs["_span"] == nonsplit
        assert runs["classify_case"] == nonsplit

    def test_roots_checked_once_per_place(self, monkeypatch):
        # local_chow is the one check of a local call: the stages it runs
        # trust its roots, and global_chow adds one check, in candidate_places
        checks = []
        check = chatelet.local._distinct_roots

        def counted(*roots):
            checks.append(roots)
            return check(*roots)

        monkeypatch.setattr(chatelet.local, "_distinct_roots", counted)
        monkeypatch.setattr(chatelet.globalchow, "_distinct_roots", counted)
        local_chow(-6, 0, 7, 19, 109)
        assert checks == [(0, 7, 19)]
        checks.clear()
        rep = global_chow(-1, 0, 1, 2)
        assert len(checks) == 1 + len(rep.checked_places) + len(rep.sampled_primes)


def clear_program_caches():
    """Empty every lru_cache the package keeps for the life of the process."""
    for module in (chatelet.factorint, chatelet.padic, chatelet.norms, chatelet.globalchow):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


small_rationals = st.builds(
    Fraction, st.integers(min_value=-40, max_value=40), st.sampled_from([1, 1, 2, 3, 9])
)
calls = st.one_of(
    st.tuples(st.just("global"), small_rationals.filter(bool), small_rationals,
              small_rationals, small_rationals),
    st.tuples(st.just("local"), small_rationals.filter(bool), small_rationals,
              small_rationals, small_rationals, st.sampled_from(["real", 2, 3, 5, 7, 13])),
)


def _run(call):
    kind, *args = call
    try:
        return (global_chow if kind == "global" else local_chow)(*args)
    except DegenerateSurfaceError as exc:
        return repr(exc)


class TestProcessCaches:
    """Primality of a place, the class and character of (d, place) and the
    default sample are worked out once per process; nothing they return may
    depend on what the caches hold."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(calls, min_size=1, max_size=4))
    def test_warm_caches_give_cold_answers(self, sequence):
        with wall_clock_guard(20):
            cold = []
            for call in sequence:
                clear_program_caches()
                cold.append(_run(call))
            warm = [_run(call) for call in sequence]
        assert warm == cold

    def test_second_identical_call_works_nothing_out_again(self):
        norms = chatelet.norms
        is_prime = chatelet.factorint.is_prime
        caches = (is_prime, norms.classify_extension, norms.norm_char_fn,
                  chatelet.globalchow._default_sample)
        clear_program_caches()
        args = (Fraction(-7, 3), 0, Fraction(1, 2), 5)
        first = global_chow(*args)
        assert is_prime.cache_info().misses
        misses = [cache.cache_info().misses for cache in caches]
        assert global_chow(*args) == first
        assert [cache.cache_info().misses for cache in caches] == misses

    def test_caller_rng_is_not_cached(self):
        a = global_chow(-1, 0, 1, 2, rng=random.Random(3))
        b = global_chow(-1, 0, 1, 2, rng=random.Random(4))
        assert a.sampled_primes != b.sampled_primes
        assert global_chow(-1, 0, 1, 2, rng=random.Random(0)) == global_chow(-1, 0, 1, 2)


class TestSquareScaling:
    """d and d s^2 give the same surface over Q (z -> s z), so the same group.
    The candidate places differ only at the odd primes of s, and each of those
    that does not divide d joins them."""

    ODD_PRIMES_OF_S = (3, 5, 7, 11, 13, 101, 997, 1009)

    @settings(max_examples=100, deadline=None)
    @given(
        small_rationals.filter(bool),
        st.lists(small_rationals, min_size=3, max_size=3, unique=True),
        st.sampled_from([3, 5, 7, 11, 13, 101, 997, 1009, 6, 35]),
        st.sampled_from([1, 2, 3, 13]),
    )
    def test_group_is_unchanged(self, d, roots, num, den):
        s = Fraction(num, den)
        with wall_clock_guard(10):
            plain = global_chow(d, *roots)
            scaled = global_chow(d * s**2, *roots)
        assert scaled.kernel_dim == plain.kernel_dim
        assert scaled.place_orders == plain.place_orders
        if not plain.checked_places:  # d is a rational square
            assert scaled.checked_places == ()
            return
        of_s = {p for p in self.ODD_PRIMES_OF_S if (s.numerator * s.denominator) % p == 0}
        of_d = {p for p in of_s if (d.numerator * d.denominator) % p == 0}
        assert set(scaled.checked_places) - of_s == set(plain.checked_places) - of_s
        assert of_s - of_d <= set(scaled.checked_places)


class TestNormScaling:
    """x -> a x with a = s^2 - d t^2, a norm from Q(sqrt d), turns the cubic
    into a^3 times itself, and a^3 is a norm too, so the surfaces are
    isomorphic over Q.  Each root difference is multiplied by a, and
    chi_v(a) = (d, a)_v = 0 at every place, so no triple moves: the local
    group is the same at every place, not only the global one."""

    def test_every_local_group_is_unchanged(self):
        rng = random.Random(9)
        compared = 0
        with wall_clock_guard(20):
            for i in range(1000):
                family = _ENUMERABLE_FAMILIES[i % len(_ENUMERABLE_FAMILIES)]
                d, roots, _ = random_surface(rng, family, small=True)
                s, t = rng.randint(-6, 6), rng.randint(1, 6)
                a = s * s - d * t * t
                scaled = tuple(a * c for c in roots)
                places = set(candidate_places(d, *roots)) | set(candidate_places(d, *scaled))
                for place in places:
                    plain = local_chow(d, *roots, place).subgroup
                    assert local_chow(d, *scaled, place).subgroup == plain, (d, roots, a, place)
                    compared += 1
                assert (
                    global_chow(d, *scaled, sample_primes=0).kernel_dim
                    == global_chow(d, *roots, sample_primes=0).kernel_dim
                ), (d, roots, a)
        assert compared > 6000


class TestReciprocity:
    def test_minus_one_pair(self):
        rep = reciprocity_check(-1, -1)
        assert rep.symbols == (("real", 1), (2, 1))
        assert rep.total == 0
        assert rep.ok

    def test_two_five(self):
        rep = reciprocity_check(2, 5)
        assert rep.symbols == (("real", 0), (2, 1), (5, 1))
        assert rep.ok

    def test_reports_are_frozen_and_hashable(self):
        rep = reciprocity_check(Fraction(2, 3), -15)
        assert rep == reciprocity_check(Fraction(2, 3), -15)
        assert hash(rep) == hash(reciprocity_check(Fraction(2, 3), -15))
        assert len({rep, reciprocity_check(2, 5), reciprocity_check(2, 5)}) == 2
        with pytest.raises(TypeError):
            rep.symbols[0] = ("real", 1)

    @pytest.mark.parametrize(
        "a,b",
        [(3, 5), (-7, 15), (Fraction(2, 3), Fraction(-5, 7)), (30, -42)],
    )
    def test_always_balances(self, a, b):
        assert reciprocity_check(a, b).ok

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            reciprocity_check(0, 5)


class TestWideRefusals:
    def test_wide_values_are_named_by_their_bits(self, monkeypatch):
        # 10^5000 has no decimal string at Python's default 4300-digit limit,
        # so each refusal names it by its bit length, with its own type; a
        # factoring refusal names it so in its reproduction line
        def refuse(values):
            raise FactorizationError("factoring refused", 0)

        monkeypatch.setattr(chatelet.globalchow, "_places_of", refuse)
        wide = 10**5000
        calls = [
            (ValueError, lambda: valuation(3, -wide)),
            (ValueError, lambda: unit_residue(3, -wide, 1)),
            (DegenerateSurfaceError, lambda: local_chow(-1, wide, wide, 1, 3)),
            (DegenerateSurfaceError, lambda: normalize_roots(wide, wide, 1, 3)),
            (DegenerateSurfaceError, lambda: candidate_places(-1, wide, wide, 1)),
            (ValueError, lambda: Subgroup3(((wide, 0, 0),))),
            (ValueError, lambda: Subgroup3.span([(0, wide, 1)])),
            (ValueError, lambda: global_chow(-1, 0, 1, 2, sample_primes=-wide)),
            (FactorizationError, lambda: global_chow(-1, 0, 1, wide)),
        ]
        with wall_clock_guard(1):
            for error, call in calls:
                with pytest.raises(error, match="an int of 16610 bits") as refusal:
                    call()
                assert type(refusal.value) is error
