"""Global kernel computation, candidate place finding, and reciprocity."""

import json
import random
import shlex
from fractions import Fraction

import pytest

import chatelet.globalchow
from chatelet import (
    ContradictionError,
    FactorizationError,
    Subgroup3,
    candidate_places,
    global_chow,
    kernel_dimension,
    reciprocity_check,
)
from chatelet.cli import EXIT_OK, main
from guards import wall_clock_guard

# a prime past psi_13, the Miller-Rabin witness limit: it cannot be certified
UNCERTIFIABLE_PRIME = 10000000000000000000000013
# 1000003 * 1000033: both factors lie past the trial division, so rho splits it
RHO_SEMIPRIME = 1000036000099


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

    def test_one_primality_test_per_place(self, monkeypatch):
        from chatelet import norms, padic

        tested = []

        def counted(n):
            tested.append(n)
            return padic_is_prime(n)

        padic_is_prime = padic.is_prime
        monkeypatch.setattr(padic, "is_prime", counted)
        norms.classify_extension.cache_clear()
        norms.norm_char_fn.cache_clear()
        rep = global_chow(-1, 0, 1, 2)
        finite = [p for p in rep.checked_places if p != "real"] + list(rep.sampled_primes)
        assert sorted(tested) == sorted(finite)
        assert len(tested) == 21

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

    def test_zero_basis_vector_rejected(self):
        with pytest.raises(ValueError, match="independent"):
            kernel_dimension([Subgroup3(((0, 0, 0),))])

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError, match="independent"):
            kernel_dimension([Subgroup3(((0, 1, 1), (0, 1, 1)))])

    def test_non_sum_zero_rejected(self):
        with pytest.raises(ValueError, match="sum to zero"):
            kernel_dimension([Subgroup3(((1, 0, 0),))])


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
        from chatelet.factorint import primes_below

        limits = []

        def counted(limit):
            limits.append(limit)
            return primes_below(limit)

        monkeypatch.setattr(chatelet.globalchow, "primes_below", counted)
        chatelet.globalchow._sample_pool.cache_clear()
        first = global_chow(-1, 0, 1, 2)
        global_chow(-1, 0, 1, 3)
        assert limits == [2000]
        assert first.sampled_primes == (
            79, 229, 367, 389, 617, 733, 757, 839, 919, 941,
            1103, 1217, 1289, 1327, 1559, 1583, 1657, 1669, 1759, 1987,
        )

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


class TestReciprocity:
    def test_minus_one_pair(self):
        rep = reciprocity_check(-1, -1)
        assert rep.symbols == {"real": 1, 2: 1}
        assert rep.total == 0
        assert rep.ok

    def test_two_five(self):
        rep = reciprocity_check(2, 5)
        assert rep.symbols == {"real": 0, 2: 1, 5: 1}
        assert rep.ok

    @pytest.mark.parametrize(
        "a,b",
        [(3, 5), (-7, 15), (Fraction(2, 3), Fraction(-5, 7)), (30, -42)],
    )
    def test_always_balances(self, a, b):
        assert reciprocity_check(a, b).ok

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            reciprocity_check(0, 5)
