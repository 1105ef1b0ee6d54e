"""Integer/rational arithmetic kernel tests."""

import bisect
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ellfam import arith
from ellfam.arith import (
    FactorBudget,
    Unfactored,
    FactoredInt,
    factor,
    factor_with_parts,
    hilbert_symbol,
    integer_nthroot,
    is_prime,
    isqrt_exact,
    jacobi,
    legendre_is_square,
    primes_below,
    rational_nth_root,
    rational_to_string,
    squarefree_decompose,
    valuation,
)


# psi_k, the least strong pseudoprime to all of the first k prime bases,
# k = 1 ... 13 (OEIS A014233)
STRONG_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971)


class TestIsPrime:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(50):
            assert is_prime(n) == (n in primes)

    def test_carmichael_numbers(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185):
            assert not is_prime(n) and not sympy.isprime(n)

    def test_large_prime_and_composite(self):
        assert is_prime(2**127 - 1)
        assert not is_prime((2**127 - 1) * (2**61 - 1))

    @given(st.integers(min_value=2, max_value=100000))
    def test_matches_trial_division(self, n):
        ref = all(n % d for d in range(2, math.isqrt(n) + 1))
        assert is_prime(n) == ref

    def test_strong_pseudoprime_to_first_twelve_prime_bases(self):
        # psi_12 = 399165290221 * 798330580441 < 3.317e24 passes Miller-Rabin
        # for every base 2..37; base 41 exposes it
        assert not is_prime(318665857834031151167461)

    def test_matches_sympy_below_1e5_from_the_sieve_and_without_it(self, monkeypatch):
        expected = [n for n in range(10**5) if sympy.isprime(n)]
        # a fresh sieve leaves every n > 1 to the Miller-Rabin rounds
        monkeypatch.setattr(arith, "_sieve_flags", bytearray(2))
        monkeypatch.setattr(arith, "_sieve_primes", [])
        assert [n for n in range(10**5) if is_prime(n)] == expected
        assert len(arith._sieve_flags) == 2
        assert primes_below(10**5) == expected
        assert [n for n in range(10**5) if is_prime(n)] == expected

    @pytest.mark.parametrize("k,psi", list(enumerate(STRONG_PSEUDOPRIMES, 1)))
    def test_least_strong_pseudoprimes_to_the_first_prime_bases(self, k, psi):
        # psi passes the Miller-Rabin round for the first k prime bases ...
        d, s = psi - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        assert all(arith._strong_probable_prime(psi, a, d, s) for a in arith._MR_BASES[:k])
        # ... and is still caught, and agrees with sympy
        assert not is_prime(psi) and not sympy.isprime(psi)

    def test_strong_lucas_pseudoprimes_below_20000(self):
        # the strong Lucas-Selfridge test alone is fooled by exactly these
        # odd composites below 20000 (OEIS A217255)
        fooled = [
            n
            for n in range(3, 20000, 2)
            if math.isqrt(n) ** 2 != n and not sympy.isprime(n) and arith._strong_lucas(n)
        ]
        assert fooled == list(STRONG_LUCAS_PSEUDOPRIMES)
        for n in STRONG_LUCAS_PSEUDOPRIMES:
            assert not is_prime(n) and not sympy.isprime(n)

    def test_square_of_a_prime_above_the_limit(self):
        p = sympy.nextprime(2 * 10**12)
        assert p * p >= MR_DETERMINISTIC_LIMIT
        assert is_prime(p) and not is_prime(p * p) and not sympy.isprime(p * p)

    def test_product_of_two_mersenne_primes(self):
        M89, M107 = 2**89 - 1, 2**107 - 1
        assert is_prime(M89) and is_prime(M107)
        assert not is_prime(M89 * M107) and not sympy.isprime(M89 * M107)



# first-13-prime-bases Miller-Rabin is proven only below this bound (psi_13)
MR_DETERMINISTIC_LIMIT = 3317044064679887385961981

# k with 6k+1, 12k+1 and 18k+1 all prime: their product is a Chernick
# Carmichael number, here always above the deterministic limit
CHERNICK_K = (
    13679106, 13679690, 13679815, 13680576,
    10000000111, 10000001686, 100000000000000008960,
)
LARGE_PRIMES = (
    3317044064679887385962123,
    100000000000000000000000000319,
    9999999999999999999999999999999999999983,
    2**127 - 1,
    2**521 - 1,
)


class TestIsPrimeAboveDeterministicLimit:
    """Above 3.317e24 is_prime is Baillie-PSW; it must agree with sympy."""

    def test_limit_itself_is_composite(self):
        assert not is_prime(MR_DETERMINISTIC_LIMIT)

    @pytest.mark.parametrize("p", LARGE_PRIMES)
    def test_large_primes(self, p):
        assert p >= MR_DETERMINISTIC_LIMIT
        assert is_prime(p) and sympy.isprime(p)

    @pytest.mark.parametrize("p,q", [(LARGE_PRIMES[i], LARGE_PRIMES[j]) for i in range(4) for j in range(i, 4)])
    def test_products_of_two_large_primes(self, p, q):
        assert not is_prime(p * q) and not sympy.isprime(p * q)

    def test_products_of_two_primes_straddling_the_limit(self):
        p = sympy.nextprime(10**12)
        q = sympy.nextprime(MR_DETERMINISTIC_LIMIT // p)
        assert p * q >= MR_DETERMINISTIC_LIMIT
        assert not is_prime(p * q)

    @pytest.mark.parametrize("k", CHERNICK_K)
    def test_chernick_carmichael_numbers(self, k):
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        n = math.prod(factors)
        assert n >= MR_DETERMINISTIC_LIMIT
        assert all(sympy.isprime(f) for f in factors)
        assert all((n - 1) % (f - 1) == 0 for f in factors)  # Korselt
        assert not is_prime(n) and not sympy.isprime(n)

    @given(st.integers(min_value=MR_DETERMINISTIC_LIMIT, max_value=10**40))
    @settings(max_examples=200)
    def test_matches_sympy(self, n):
        assert is_prime(n) == sympy.isprime(n)


M61, M89, M107, M127 = 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1
P7, Q7 = 10000019, 20000003  # primes above the trial bounds below
NO_RHO = FactorBudget(10**3, 0)
RHO = FactorBudget(10**3, 10**6)
# trial bounds at which the walk tries no prime, or only a few
TINY_BOUNDS = tuple(FactorBudget(tb, 10**4) for tb in (0, 1, 2, 10))


class TestFactor:
    def test_complete_small(self):
        fi = factor(3600)
        assert fi.complete
        assert fi.factors == ((2, 4), (3, 2), (5, 2))
        assert fi.value() == 3600

    def test_negative(self):
        fi = factor(-17)
        assert fi.sign == -1 and fi.factors == ((17, 1),)
        assert fi.value() == -17

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor(0)

    def test_budget_leaves_residue(self):
        # a product of two large primes is out of reach with rho disabled
        n = (2**127 - 1) * (2**89 - 1)
        fi = factor(n, FactorBudget(10**3, 0))
        assert fi.value() == n
        assert not fi.complete

    def test_partial_residue_roundtrip(self):
        n = 2**4 * 3 * (2**89 - 1) * (2**107 - 1)
        fi = factor(n, FactorBudget(10**3, 0))
        assert fi.value() == n
        assert fi.exponent(2) == 4 and fi.exponent(3) == 1

    @given(st.integers(min_value=2, max_value=10**8))
    @settings(max_examples=60)
    def test_value_roundtrip(self, n):
        fi = factor(n)
        assert fi.complete
        assert fi.value() == n
        for p, e in fi.factors:
            assert is_prime(p) and e >= 1

    def test_str(self):
        assert str(factor(3600)) == "2^4*3^2*5^2"
        assert str(factor(-1)) == "-1"


    def test_sieve_grows_to_the_needed_bound(self, monkeypatch):
        # trial division walks the one shared sieve only as far as
        # min(trial_bound, the square root of the cofactor left) needs
        monkeypatch.setattr(arith, "_sieve_flags", bytearray(2))
        monkeypatch.setattr(arith, "_sieve_primes", [])
        smooth = 2**13 * 3**14 * 5**8  # > 10^16, as in the catalog build
        assert factor(smooth).factors == ((2, 13), (3, 14), (5, 8))
        assert arith._sieve_primes[-1] < 100
        assert factor(101 * 103).factors == ((101, 1), (103, 1))
        assert arith._sieve_primes[-1] <= math.isqrt(101 * 103) + 1
        fi = factor(M61 * M89, FactorBudget(10**3, 0))
        assert fi.residue == M61 * M89
        assert 990 < arith._sieve_primes[-1] < 10**3
        # the sieve covers exactly the bound asked for, and its flags and
        # primes agree
        assert len(arith._sieve_flags) == 10**3
        assert [n for n, flag in enumerate(arith._sieve_flags) if flag] == arith._sieve_primes


    def test_sieve_matches_sympy_after_uneven_growth(self, monkeypatch):
        # segments from 7 up are listed by the eight classes prime to 30;
        # grow from scratch in steps that start and end in every class
        monkeypatch.setattr(arith, "_sieve_flags", bytearray(2))
        monkeypatch.setattr(arith, "_sieve_primes", [])
        for bound in (3, 6, 7, 8, 30, 31, 97, 1000, 1001, 65537, 123457, 10**6 + 3, 2 * 10**6):
            arith._sieve_to(bound)
        sympy.sieve.extend(2 * 10**6)
        assert arith._sieve_primes == list(sympy.primerange(2 * 10**6))
        assert len(arith._sieve_flags) == 2 * 10**6
        assert sum(arith._sieve_flags) == len(arith._sieve_primes)

    def test_sieve_growth_is_capped(self, monkeypatch):
        # from an empty sieve, every segment grows it to at most twice its
        # length or 2^14, and the factorizations are those of sympy; a
        # walk that stops near a prime p leaves a sieve below 2 p + 2^14
        expected = {}
        inputs = [
            482017 * 1000003, 250013 * P7, 21751 * 51109 * Q7, 3**5 * 727 * 65537, 10**6 + 3,
        ]
        for n in inputs:
            expected[n] = tuple(sorted(sympy.factorint(n).items()))
        monkeypatch.setattr(arith, "_sieve_flags", bytearray(2))
        monkeypatch.setattr(arith, "_sieve_primes", [])
        grows = []
        sieve_to = arith._sieve_to

        def recorded(bound):
            grows.append((len(arith._sieve_flags), bound))
            sieve_to(bound)

        monkeypatch.setattr(arith, "_sieve_to", recorded)
        budget = FactorBudget(10**6, 10**5)
        for n in inputs:
            assert factor(n, budget).factors == expected[n]
        assert len(arith._sieve_flags) < 2 * 482017 + 2**14 < 10**6
        # a rest above the trial bound's square walks to the bound
        assert factor(2 * P7 * Q7, budget).factors == ((2, 1), (P7, 1), (Q7, 1))
        assert len(arith._sieve_flags) == 10**6
        parts = [21751 * 3, 51109 * 7, Q7]
        fi = factor_with_parts(math.prod(parts), parts, budget)
        assert fi.complete and fi.factors == tuple(sorted(sympy.factorint(math.prod(parts)).items()))
        assert grows and all(bound <= max(2 * length, 2**14) for length, bound in grows)

    @pytest.mark.parametrize("tb", [1000, 1621, 10**4, 54321, 65537, 10**5])
    def test_prime_blocks_find_every_prime_below_the_bound(self, tb):
        # trial division by gcds with blocks of 128 primes: the 128th and
        # 129th primes (the first block's last, the second's first), the
        # last prime below tb, squares of block primes and the primes on
        # either side of the segment edge 2^16 are all found, and the two
        # primes from tb up stay in the residue
        primes = primes_below(2 * 10**5)
        below = [p for p in primes if p < tb]
        above = [p for p in primes if p >= tb][:2]
        picked = {primes[127], primes[128], below[-1], 65521, 65537}
        squared = {primes[200], primes[300], below[-2]}
        n = math.prod(picked) * math.prod(squared) ** 2 * math.prod(above)
        fi = factor(n, FactorBudget(tb, 0))
        expected = {p: 1 for p in picked if p < tb}
        expected.update({p: 2 for p in squared if p < tb})
        assert fi.factors == tuple(sorted(expected.items()))
        assert fi.residue == n // math.prod(p**e for p, e in expected.items())
        assert fi.residue % math.prod(above) == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trial_bound": -5},
            {"rho_iterations": -1},
        ],
    )
    def test_budget_rejects_negative_settings(self, kwargs):
        with pytest.raises(ValueError):
            FactorBudget(**kwargs)

    def test_square_is_split_once(self, monkeypatch):
        # (P*Q)^2 is pushed once, as its root P*Q: one rho call
        calls = _count_rho(monkeypatch)
        fi = factor((P7 * Q7) ** 2, RHO)
        assert fi.factors == ((P7, 2), (Q7, 2)) and fi.complete
        assert len(calls) == 1

    def test_each_prime_found_once(self, monkeypatch):
        # after rho returns P, the cofactor P^2 * Q loses P by division,
        # not by two more rho calls
        calls = _count_rho(monkeypatch)
        proven = []
        is_prime_ = arith.is_prime

        def recorded(n):
            if is_prime_(n):
                proven.append(n)
                return True
            return False

        monkeypatch.setattr(arith, "is_prime", recorded)
        fi = factor(P7**3 * Q7, RHO)
        assert fi.factors == ((P7, 3), (Q7, 1)) and fi.complete
        assert len(calls) == 1
        assert sorted(proven) == [P7, Q7]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([2, 3, 7, 11, 97, 101, 7919, P7, Q7, 1000003, M61]),
                st.integers(min_value=1, max_value=4),
            ),
            max_size=5,
        ),
        st.integers(min_value=1, max_value=10**20),
        st.sampled_from([NO_RHO, FactorBudget(10**2, 10**4), RHO, *TINY_BOUNDS]),
    )
    # the walk ends at lo = trial_bound: rests just below lo^2 are proven
    # prime by it, rests at lo^2 (4 = 2^2, 121 = 11^2) and above are not
    @example([(3, 1)], 1, FactorBudget(2, 10**4))
    @example([(2, 2)], 1, FactorBudget(2, 10**4))
    @example([(97, 1)], 2 * 3 * 5 * 7, FactorBudget(10, 10**4))
    @example([(101, 1)], 2 * 3 * 5 * 7, FactorBudget(10, 10**4))
    @example([(11, 2)], 2 * 3 * 5 * 7, FactorBudget(11, 10**4))
    @example([(7919, 1)], 1, FactorBudget(89, 10**4))
    @example([(3, 1), (7, 1)], 1, FactorBudget(0, 10**4))
    @example([(3, 1), (7, 1)], 1, FactorBudget(1, 10**4))
    @settings(max_examples=80, deadline=None)
    def test_primes_proven_and_coprime_to_residue(self, powers, cofactor, budget):
        n = cofactor * math.prod(p**e for p, e in powers)
        fi = factor(n, budget)
        assert fi.value() == n
        for p, e in fi.factors:
            assert is_prime(p) and e >= 1
            assert math.gcd(fi.residue, p) == 1
        # the answer of a walk that sends every rest to is_prime and rho
        assert fi == segment_walk_reference(n, budget)

    @pytest.mark.parametrize(
        "n,budget,proven",
        [
            (3, FactorBudget(2, 0), True),  # lo = 2, 3 < lo^2
            (4, FactorBudget(2, 0), False),  # 4 = lo^2
            (2 * 97, FactorBudget(10, 0), True),  # lo = 10, 97 < lo^2
            (2 * 101, FactorBudget(10, 0), False),
            (121, FactorBudget(11, 0), False),  # 121 = lo^2
            (5 * 7, FactorBudget(0, 10**4), False),  # no prime tried
            (5 * 7, FactorBudget(1, 10**4), False),
            (3 * 999983, FactorBudget(10**3, 0), True),  # 999983 < lo^2 = 10^6
            (3 * 1000003, FactorBudget(10**3, 0), False),
        ],
    )
    def test_rest_below_the_walk_square_skips_is_prime(self, monkeypatch, n, budget, proven):
        # a rest 1 < n < lo^2 has had every prime up to its root tried: it
        # joins the factors with no is_prime call
        asked = []
        is_prime_ = arith.is_prime

        def recorded(m):
            asked.append(m)
            return is_prime_(m)

        monkeypatch.setattr(arith, "is_prime", recorded)
        fi = factor(n, budget)
        assert fi.complete and fi.value() == n
        assert (asked == []) == proven
        assert fi == segment_walk_reference(n, budget)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([3, 101, 7919, P7, Q7, 1000003, M61, M89]),
                st.integers(min_value=1, max_value=3),
            ),
            max_size=5,
        ),
        st.sampled_from([FactorBudget(10**2, 10**4), FactorBudget(10**3, 3 * 10**4)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_rho_spends_at_most_its_allowance(self, powers, budget):
        # each call gets what the earlier ones left and spends at most that
        calls = []
        n = math.prod(p**e for p, e in powers)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "_brent_rho", _rho_recorder(calls))
            fi = factor(n, budget)
        assert fi.value() == n
        left = budget.rho_iterations
        for allowance, spent in calls:
            assert allowance == left and 0 <= spent <= allowance
            left -= spent
        assert sum(spent for _a, spent in calls) <= budget.rho_iterations

    def test_failed_rho_spends_what_is_left(self, monkeypatch):
        # P7 and Q7 split off within the allowance; M61 * M89 does not, and
        # the last call spends exactly what the first ones left
        calls = []
        monkeypatch.setattr(arith, "_brent_rho", _rho_recorder(calls))
        budget = FactorBudget(10**3, 3 * 10**4)
        fi = factor(P7 * Q7 * M61 * M89, budget)
        assert fi.factors == ((P7, 1), (Q7, 1)) and fi.residue == M61 * M89
        assert len(calls) >= 2 and 0 < calls[0][1] < budget.rho_iterations
        assert sum(spent for _a, spent in calls) == budget.rho_iterations

    @pytest.mark.parametrize(
        "base,k,rho_calls",
        [(M61, 3, 0), (M61, 5, 0), (P7, 7, 0), (M61 * P7, 2, 1), (P7 * Q7, 3, 1)],
    )
    def test_perfect_power_split_before_rho(self, monkeypatch, base, k, rho_calls):
        # a k-th power is pushed once, as its root: M61^3 used to run rho
        # through the whole allowance and stay unfactored
        calls = _count_rho(monkeypatch)
        fi = factor(base**k, RHO)
        assert fi.complete and fi.value() == base**k
        assert all(e % k == 0 for _p, e in fi.factors)
        assert len(calls) == rho_calls

    @pytest.mark.parametrize("trial_bound", [0, 1, 2, 3])
    def test_power_roots_with_tiny_trial_bound(self, trial_bound):
        n = 12**5 * 35**3
        fi = factor(n, FactorBudget(trial_bound, 10**4))
        assert fi.complete and fi.factors == ((2, 10), (3, 5), (5, 3), (7, 3))

    def test_rest_of_one_is_not_split(self, monkeypatch):
        # a rest of 1 is returned as it is, with no rho call
        calls = _count_rho(monkeypatch)
        found = {}
        assert arith._split_rest(1, found, RHO) == 1
        assert calls == [] and found == {}
        assert factor(2**5 * 3**3, RHO) == FactoredInt(1, ((2, 5), (3, 3)))
        assert calls == []

    @given(st.integers(min_value=0, max_value=10**80), st.integers(min_value=1, max_value=13))
    def test_integer_nthroot_matches_sympy(self, x, k):
        assert integer_nthroot(x, k) == sympy.integer_nthroot(x, k)[0]


# the Z2x6-scan-1 radius-2 part whose factor 152122609 has a 10^4-smooth
# p - 1 = 2^4 3^2 11 137 701; two safe primes p = 2q + 1 with q > 10^4
SMOOTH_PART = 152122609 * 1218706571
SAFE_P, SAFE_Q = 1000000007, 1002000047
# primes for p - 1 probe inputs: 2 has order dividing the checkpoint's
# exponent (152122609, M61, M89), dividing the full exponent only (M1279),
# or neither (the safe primes)
M1279 = 2**1279 - 1
PM1_PRIMES = (152122609, 1218706571, SAFE_P, SAFE_Q, M61, M89, P7, Q7, 1000003)


class TestPm1Probe:
    def test_smooth_factor_split_by_the_probe(self, monkeypatch):
        # rho alone spends 30 591 iterations on this part; the probe after
        # 2^11 splits it in the batch that crosses 2^11
        calls = []
        monkeypatch.setattr(arith, "_brent_rho", _rho_recorder(calls))
        fi = factor(SMOOTH_PART, FactorBudget(10**5, 2 * 10**5))
        assert fi.complete and fi.factors == ((152122609, 1), (1218706571, 1))
        assert len(calls) == 1 and calls[0][1] < arith._PM1_AFTER + 128

    def _probe_runs(self, monkeypatch, n, budget):
        """factor(n, budget) with the probe and with _pm1 patched to find
        nothing: both results, rho records, and the probes' gcds."""
        gcds = []
        pm1 = arith._pm1

        def recorded(m):
            gcds.append(math.gcd(pow(2, arith._pm1_exponent(), m) - 1, m))
            return pm1(m)

        runs = []
        for probe in (recorded, lambda m: None):
            calls = []
            with monkeypatch.context() as mp:
                mp.setattr(arith, "_pm1", probe)
                mp.setattr(arith, "_brent_rho", _rho_recorder(calls))
                runs.append((factor(n, budget), calls))
        return runs, gcds

    def test_gcd_one_leaves_rho_unchanged(self, monkeypatch):
        for p in (SAFE_P, SAFE_Q):
            assert is_prime(p) and is_prime(p // 2)
        runs, gcds = self._probe_runs(monkeypatch, SAFE_P * SAFE_Q, FactorBudget(10**3, 2 * 10**5))
        assert gcds == [1]
        (fi, calls), (ref, ref_calls) = runs
        assert fi == ref and fi.complete
        assert calls == ref_calls and calls[0][1] > arith._PM1_AFTER

    def test_gcd_n_leaves_rho_unchanged(self, monkeypatch):
        # 2 has order 61 mod M61 and 89 mod M89, both dividing E
        n = M61 * M89
        runs, gcds = self._probe_runs(monkeypatch, n, FactorBudget(10**3, 10**4))
        assert gcds == [n]
        (fi, calls), (ref, ref_calls) = runs
        assert fi == ref and fi.residue == n
        assert calls == ref_calls == [(10**4, 10**4)]

    @pytest.mark.parametrize("allowance", [0, 1, 2**11 - 1, 2**11])
    def test_small_allowances_never_probe(self, monkeypatch, allowance):
        def refuse(m):
            raise AssertionError("p - 1 probe within a small allowance")

        monkeypatch.setattr(arith, "_pm1", refuse)
        for n in (SMOOTH_PART, SAFE_P * SAFE_Q, M61 * M89):
            assert arith._brent_rho(n, allowance) == (None, allowance)
            fi = factor(n, FactorBudget(10**3, allowance))
            assert fi.residue == n

    def test_smooth_part_split_at_the_checkpoint(self, monkeypatch):
        # every prime power of 152122609 - 1 is below 10^3, so the probe
        # stops at the checkpoint's gcd and never takes the full power
        exponents = []

        def recorded(base, exp, mod):
            exponents.append(exp)
            return pow(base, exp, mod)

        monkeypatch.setattr(arith, "pow", recorded, raising=False)
        assert arith._pm1(SMOOTH_PART) == 152122609
        assert exponents == [arith._pm1_exponent(arith._PM1_CHECKPOINT)]

    def test_checkpoint_exponent_divides_the_full_one(self):
        first, full = arith._pm1_exponent(arith._PM1_CHECKPOINT), arith._pm1_exponent()
        assert full % first == 0 and first.bit_length() < full.bit_length() // 8

    def test_checkpoint_splits_where_the_full_power_finds_n(self):
        # 2 has order 61 mod M61, within the checkpoint's exponent, and
        # order 1279 mod M1279, within the full exponent only: the full
        # power finds n, the checkpoint M61
        n = M61 * M1279
        assert pm1_single_stage_gcd(n) == n
        assert arith._pm1(n) == M61

    @given(
        st.one_of(
            st.lists(st.sampled_from(PM1_PRIMES), min_size=2, max_size=3).map(math.prod),
            st.integers(min_value=10**6, max_value=10**40).map(lambda n: n | 1),
        )
    )
    @example(SMOOTH_PART)
    @example(SAFE_P * SAFE_Q)
    @example(M61 * M89)
    @example(M61 * M1279)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_single_stage_probe(self, n):
        # the checkpoint changes nothing where the single-stage gcd is 1,
        # finds a divisor of a proper gcd, and may split n where it is n
        assume(not is_prime(n))
        g, d = pm1_single_stage_gcd(n), arith._pm1(n)
        if g == 1:
            assert d is None
        elif g < n:
            assert d is not None and 1 < d < n and g % d == 0
        else:
            assert d is None or (1 < d < n and n % d == 0)


def pm1_single_stage_gcd(n: int) -> int:
    """gcd(2^E - 1, n) for the full exponent E: the probe without its
    checkpoint."""
    return math.gcd(pow(2, arith._pm1_exponent(), n) - 1, n)


def reference_brent_rho(n: int, max_iters: int):
    """_brent_rho stepping one iteration at a time, with |x - y| reduced
    into the product at every step: the reference for its unrolled
    batches."""
    if n % 2 == 0:
        return 2, 0
    seed = 1
    left = max_iters
    probe = max_iters > arith._PM1_AFTER
    while left > 0:
        y, c, m = (seed * 2862933555777941757 + 3037000493) % n, seed % (n - 1) + 1, 128
        g, r, q = 1, 1, 1
        x = ys = y
        while g == 1 and left > 0:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1 and left > 0:
                ys = y
                steps = min(m, r - k, left)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += steps
                left -= steps
                if probe and g == 1 and max_iters - left >= arith._PM1_AFTER:
                    probe = False
                    d = arith._pm1(n)
                    if d is not None:
                        return d, max_iters - left
            r *= 2
        if g == n:
            g = 1
            while g == 1 and left > 0:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                left -= 1
        if 1 < g < n:
            return g, max_iters - left
        seed += 1
    return None, max_iters - left


def _rho_inputs() -> list[int]:
    """Seeded odd composites from 10^9 to 10^20: random ones, which mostly
    have small factors, and products of two primes, which take longer;
    then a part that the probe splits after 2 175 iterations, and one
    split by the batch that spends the last of an allowance of 300."""
    import random

    rng = random.Random(20)
    out = []
    while len(out) < 12:
        n = rng.randrange(10**9, 10**20) | 1
        if not is_prime(n):
            out.append(n)
    while len(out) < 24:
        p = sympy.nextprime(rng.randrange(10**3, 10**8))
        q = sympy.nextprime(rng.randrange(10**9 // p, 10**20 // p))
        out.append(p * q)
    return out + [185392823185963739, 16607426047649822641]


class TestBrentRhoBatches:
    @pytest.mark.parametrize("budget", [50, 300, 2**11 + 1, 3000])
    def test_unrolled_batches_match_one_step_at_a_time(self, budget):
        # the same sequence, gcd points and probe: the same divisor, found
        # after the same iterations, or none after the whole allowance
        for n in _rho_inputs():
            assert arith._brent_rho(n, budget) == reference_brent_rho(n, budget), n

    def test_inputs_reach_every_outcome(self):
        # split before the probe, split by the probe, and not split
        outcomes = [arith._brent_rho(n, 3000) for n in _rho_inputs()]
        assert any(d is not None and spent < arith._PM1_AFTER for d, spent in outcomes)
        assert (None, 3000) in outcomes
        assert arith._brent_rho(185392823185963739, 3000) == (152122609, 2175)
        assert arith._brent_rho(16607426047649822641, 300) == (23623111, 300)


class TestRecords:
    def test_budget_checks_every_copy(self):
        with pytest.raises(ValueError, match="nonnegative"):
            FactorBudget(-1, 0)
        with pytest.raises(ValueError, match="nonnegative"):
            FactorBudget(rho_iterations=-1)
        with pytest.raises(ValueError, match="nonnegative"):
            FactorBudget()._replace(trial_bound=-1)
        assert FactorBudget(5)._replace(rho_iterations=0) == FactorBudget(5, 0)
        assert FactorBudget() == FactorBudget(10**6, 2 * 10**6)

    def test_equal_budgets_are_one_key(self):
        a, b = FactorBudget(10**3, 10**4), FactorBudget(trial_bound=10**3, rho_iterations=10**4)
        assert a == b and hash(a) == hash(b) and len({(7, a), (7, b)}) == 1
        assert a != FactorBudget(10**3, 10**4 + 1)

    @pytest.mark.parametrize("name", ["trial_bound", "other"])
    def test_setting_an_attribute_raises(self, name):
        for record in (FactorBudget(), FactoredInt(1, ((2, 1),))):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)

    def test_factored_int_text(self):
        assert str(FactoredInt(-1, ((2, 3), (5, 1)), 77)) == "-2^3*5*[77]"
        assert str(FactoredInt(1, ())) == "1"
        fi = FactoredInt(sign=1, factors=((3, 2),))
        assert fi.complete and fi.value() == 9 and fi.residue == 1


def _rho_recorder(calls: list[tuple[int, int]]):
    """_brent_rho, recording (allowance, iterations spent) of every call."""
    rho = arith._brent_rho

    def recorded(n, allowance):
        d, spent = rho(n, allowance)
        calls.append((allowance, spent))
        return d, spent

    return recorded


def _count_rho(monkeypatch) -> list[int]:
    """Record the argument of every _brent_rho call."""
    calls: list[int] = []
    rho = arith._brent_rho

    def counted(n, *args):
        calls.append(n)
        return rho(n, *args)

    monkeypatch.setattr(arith, "_brent_rho", counted)
    return calls


class TestFactorWithParts:
    @given(
        st.integers(min_value=-(10**30), max_value=10**30).filter(bool),
        st.lists(st.integers(min_value=-(10**12), max_value=10**12), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_value_roundtrip(self, n, parts):
        fi = factor_with_parts(n, parts, NO_RHO)
        assert fi.value() == n
        assert all(is_prime(p) and e >= 1 for p, e in fi.factors)
        assert fi.complete == (fi.residue == 1)

    @given(
        st.integers(min_value=1, max_value=10**12),
        st.sampled_from([2, 3, 101, 7919, M61, M89]),
        st.lists(st.integers(min_value=1, max_value=10**12), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_missing_prime_never_complete(self, m, p, parts):
        def without_p(x):
            while x % p == 0:
                x //= p
            return x

        fi = factor_with_parts(m * p, [without_p(x) for x in parts], NO_RHO)
        assert not fi.complete
        assert fi.residue % p == 0 and fi.value() == m * p

    def test_covering_parts_match_factor(self):
        n = -(2**6) * 3**5 * 7 * 1009**2
        fi = factor_with_parts(n, [2, 3 * 7, 1009 * 3], NO_RHO)
        assert fi == factor(n)

    def test_residues_split_by_gcds(self):
        # each part alone is a product of two primes rho would need to
        # split; their gcd hands over all three
        n = M61**2 * M89**3 * M107
        fi = factor_with_parts(n, [M61 * M89, M61 * M107], NO_RHO)
        assert fi.complete and fi.factors == ((M61, 2), (M89, 3), (M107, 1))

    def test_found_prime_splits_other_residue(self):
        n = M61 * M89 * 5
        fi = factor_with_parts(n, [M61 * M89, 5 * M61], NO_RHO)
        assert fi.complete and fi.primes() == (5, M61, M89)

    def test_unsplit_residue_stays(self):
        n = 2**3 * M89 * M127
        fi = factor_with_parts(n, [2, M89 * M127], NO_RHO)
        assert fi == FactoredInt(1, ((2, 3),), M89 * M127)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_with_parts(0, [2])


def per_part_reference(n: int, parts: list[int], budget: FactorBudget) -> FactoredInt:
    """factor_with_parts with a walk per part: each nonzero part through
    factor(), then the same gcd split of the residues and division of n."""
    primes: set[int] = set()
    residues = []
    for part in parts:
        if part:
            fi = factor(part, budget)
            primes.update(fi.primes())
            if fi.residue > 1:
                residues.append(fi.residue)
    for q in arith._coprime_pieces(sorted(primes) + residues) if residues else ():
        if q not in primes and is_prime(q):
            primes.add(q)
    m, found = abs(n), []
    for p in sorted(primes):
        m, e = arith._strip(m, p)
        if e:
            found.append((p, e))
    return FactoredInt(-1 if n < 0 else 1, tuple(found), m)


def _sieve_bounds(calls: list[int]):
    """Record every bound the shared sieve is asked to grow to."""
    grow = arith._sieve_to

    def recorded(bound):
        calls.append(bound)
        grow(bound)

    return recorded


# 0, +-1, and signed products of powers of small primes, of primes on either
# side of 10^2 and of primes above the trial bound (P7, Q7) and of M61; with
# trial bound 10^3 every part with P7, Q7 or M61 in it is above
# trial_bound^2, and with trial bound 7 or 10 a rest 7^2, 97 or 101 lies
# below, at or above the square of where the walk ends
WALK_PRIMES = (2, 3, 7, 97, 101, P7, Q7, M61)
walk_parts = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.builds(
        lambda sign, es: sign * math.prod(p**e for p, e in zip(WALK_PRIMES, es)),
        st.sampled_from([1, -1]),
        st.tuples(*[st.integers(min_value=0, max_value=k) for k in (40, 12, 2, 1, 1, 3, 2, 2)]),
    ),
)


class TestSingleWalk:
    """factor_with_parts walks the sieve once for all parts; every part
    gets what factor() would give it."""

    @given(
        st.tuples(st.lists(walk_parts, max_size=6), st.integers(min_value=0, max_value=2)),
        st.sampled_from([1, 5, M89]),
        st.sampled_from(
            [FactorBudget(10**3, 0), FactorBudget(10**3, 3000)]
            + [FactorBudget(7, 500), FactorBudget(10, 500)]
        ),
    )
    @example(([49, 2 * 97, 3 * 101], 0), 1, FactorBudget(7, 500))
    @example(([49, 2 * 97, 3 * 101], 0), 1, FactorBudget(10, 500))
    @settings(max_examples=80, deadline=None)
    def test_matches_a_walk_per_part(self, drawn, extra, budget):
        parts, repeats = drawn
        parts = parts + parts[:repeats]
        n = extra * math.prod(p for p in parts if p)
        runs = []
        for run in (per_part_reference, factor_with_parts):
            rho, bounds = [], []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(arith, "_brent_rho", _rho_recorder(rho))
                mp.setattr(arith, "_sieve_to", _sieve_bounds(bounds))
                runs.append((run(n, parts, budget), rho, max(bounds, default=0)))
        (ref, ref_rho, ref_top), (fi, rho, top) = runs
        # the same FactoredInt, rho charged per part exactly as factor()
        # charges it, and the sieve grown no further than a part's walk
        assert fi == ref and fi.value() == n
        assert rho == ref_rho
        assert top <= ref_top

    def test_walk_stops_at_the_largest_part_root(self, monkeypatch):
        # two primes near 10^7: the walk stops near their square root,
        # 3163, not at the trial bound 10^6 (nor the product's root)
        monkeypatch.setattr(arith, "_sieve_flags", bytearray(2))
        monkeypatch.setattr(arith, "_sieve_primes", [])
        bounds = []
        monkeypatch.setattr(arith, "_sieve_to", _sieve_bounds(bounds))
        p, q = 10**7 + 19, 10**7 + 79
        fi = factor_with_parts(2 * p * q, [2, p, q], FactorBudget(10**6, 0))
        assert fi.complete and fi.factors == ((2, 1), (p, 1), (q, 1))
        assert max(bounds) <= math.isqrt(q) + 1
        fi = factor_with_parts(p * q, [q, p], FactorBudget(10**6, 0))
        assert fi.complete and fi.factors == ((p, 1), (q, 1))
        assert max(bounds) <= math.isqrt(q) + 1
        assert len(arith._sieve_flags) <= math.isqrt(q) + 1

    def test_no_factor_calls(self, monkeypatch):
        # the parts go through the one walk and the rho stage, not factor()
        monkeypatch.setattr(arith, "factor", None)
        fi = factor_with_parts(-(2**5) * 3 * P7, [2, 6, -P7 * 3, 0, 1], RHO)
        assert fi == FactoredInt(-1, ((2, 5), (3, 1), (P7, 1)))


def segment_walk_reference(n: int, budget: FactorBudget) -> FactoredInt:
    """factor() with the sieve walked in segments [lo, lo^2) from 2 up,
    each grown by _sieve_to, as before the flat loop over the primes the
    sieve already holds."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    found: dict[int, int] = {}
    lo = 2
    while lo < budget.trial_bound and lo * lo <= n:
        hi = min(budget.trial_bound, math.isqrt(n) + 1, lo * lo)
        arith._sieve_to(hi)
        primes = arith._sieve_primes
        i, end = bisect.bisect_left(primes, lo), bisect.bisect_left(primes, hi)
        ps = primes[i:end] if end - i < arith._BLOCK else arith._trial_primes(n, i, end)
        for p in ps:
            if p * p > n:
                break
            if n % p == 0:
                n, found[p] = arith._strip(n, p)
        lo = hi
    residue = arith._split_rest(n, found, budget)
    return FactoredInt(sign, tuple(sorted(found.items())), residue)


def _flat_walk_inputs() -> list[int]:
    """Seeded smooth numbers, products of primes on both sides of the flat
    loop's end 727 (the first prime past the first block), and primes
    above it, alone and times small ones."""
    import random

    rng = random.Random(42)
    small = primes_below(1100)
    inputs = [1, -1, 2, -6, 719, 727, 733, 719 * 719, 727 * 727, 719 * 727, -(727**3) * 733]
    for _ in range(24):
        k = rng.randint(1, 6)
        n = math.prod(rng.choice(small) ** rng.randint(1, 4) for _ in range(k))
        inputs.append(n * rng.choice((1, -1)))
    near = [701, 709, 719, 727, 733, 739, 1009, 1021, 1031]
    for _ in range(12):
        inputs.append(math.prod(rng.sample(near, rng.randint(2, 4))) * rng.choice((1, 2, 12, 30)))
    above = [1033, 65537, 10**6 + 3, P7, Q7]
    inputs += above + [3 * P7**2, 727 * 65537, 719 * (10**6 + 3) ** 2, P7 * Q7, 2**7 * 1033 * P7]
    return inputs


FLAT_WALK_INPUTS = _flat_walk_inputs()


class TestFlatWalk:
    """factor() walks the primes the sieve already holds below 727 in one
    loop; its factorizations and rho charges are those of the segment
    walk, whatever the sieve holds when it is called."""

    @pytest.mark.parametrize("grown", [0, 100, 2**10, 10**6])
    @pytest.mark.parametrize(
        "budget",
        [
            FactorBudget(7, 500),
            FactorBudget(10**3, 0),
            FactorBudget(10**5, 2 * 10**5),
            FactorBudget(),
        ],
        ids=["7-500", "1e3-0", "1e5-2e5", "default"],
    )
    def test_matches_the_segment_walk(self, monkeypatch, grown, budget):
        primes_below(max(grown, 2))
        flags = bytes(arith._sieve_flags[: max(grown, 2)])
        held = arith._sieve_primes[: bisect.bisect_left(arith._sieve_primes, grown)]
        for n in FLAT_WALK_INPUTS:
            runs = []
            for run in (factor, segment_walk_reference):
                # the same sieve, grown to `grown`, before each run
                rho: list[tuple[int, int]] = []
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(arith, "_sieve_flags", bytearray(flags))
                    mp.setattr(arith, "_sieve_primes", list(held))
                    mp.setattr(arith, "_brent_rho", _rho_recorder(rho))
                    runs.append((run(n, budget), rho))
            (fi, rho), (ref, ref_rho) = runs
            assert fi == ref, n
            assert rho == ref_rho, n
            assert fi.value() == n

    def test_flat_end_is_the_first_prime_past_the_first_block(self):
        assert primes_below(1000)[arith._BLOCK] == arith._FLAT_END == 727

    def test_covered_sieve_is_not_asked_to_grow(self, monkeypatch):
        # with the sieve grown to 10^6, a walk that stays inside it makes
        # no _sieve_to call (the inputs whose rest after trial division is
        # composite are left out: _power_root asks primes_below for the
        # exponents it tries)
        primes_below(10**6)
        bounds: list[int] = []
        monkeypatch.setattr(arith, "_sieve_to", _sieve_bounds(bounds))
        composite_rest = (3 * P7**2, 719 * (10**6 + 3) ** 2, P7 * Q7)
        for n in FLAT_WALK_INPUTS:
            if n not in composite_rest:
                factor(n)
                factor_with_parts(n, [n, 6])
        assert bounds == []


# small shared primes, so that every input and every piece factors by trial
COPRIME_POOL = (2, 3, 5, 7, 1009, 7919)


class TestCoprimePieces:
    @given(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=4),
                min_size=len(COPRIME_POOL),
                max_size=len(COPRIME_POOL),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_base_of_shared_prime_powers(self, exps):
        values = [math.prod(p**e for p, e in zip(COPRIME_POOL, row)) for row in exps]
        pieces = arith._coprime_pieces(values)
        assert all(r > 1 for r in pieces)
        assert all(math.gcd(r, s) == 1 for i, r in enumerate(pieces) for s in pieces[:i])
        support = {p for v in values for p in factor(v).primes()}
        assert {p for r in pieces for p in factor(r).primes()} == support
        # every value is homogeneous on every piece: v_p = v_r * v_p(r)
        for v in values:
            for r in pieces:
                k = valuation(v, r)
                assert all(valuation(v, p) == k * e for p, e in factor(r).factors)


class TestSquareTest:
    """rational_nth_root(q, 2), the square test of lift_x and
    two_torsion_points."""

    def test_rational_square(self):
        assert rational_nth_root(Fraction(169, 36), 2) == Fraction(13, 6)
        assert rational_nth_root(3600, 2) == 60
        assert rational_nth_root(0, 2) == 0

    def test_non_squares(self):
        assert rational_nth_root(5, 2) is None
        assert rational_nth_root(Fraction(-4), 2) is None
        assert rational_nth_root(Fraction(2, 3), 2) is None

    @given(st.fractions(max_denominator=1000))
    def test_square_always_detected(self, q):
        r = rational_nth_root(q * q, 2)
        assert r == abs(q)

    def test_isqrt_exact(self):
        assert isqrt_exact(144) == 12
        assert isqrt_exact(145) is None
        assert isqrt_exact(-4) is None


class TestSquarefreeDecompose:
    @pytest.mark.parametrize(
        "n,s,f", [(48, 4, 3), (-12, 2, -3), (1377, 9, 17), (1, 1, 1), (-1, 1, -1), (49, 7, 1)]
    )
    def test_known(self, n, s, f):
        assert squarefree_decompose(n) == (s, f)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=60)
    def test_reconstruction_and_squarefreeness(self, n):
        s, f = squarefree_decompose(n)
        assert s * s * f == n
        for p, e in factor(abs(f)).factors:
            assert e == 1

    def test_unfactored_raised(self):
        n = (2**89 - 1) * (2**107 - 1)
        with pytest.raises(Unfactored):
            squarefree_decompose(n, FactorBudget(10**3, 0))

    def test_square_residue_is_fine(self):
        n = (2**89 - 1) ** 2
        s, f = squarefree_decompose(n, FactorBudget(10**3, 0))
        assert s == 2**89 - 1 and f == 1


class TestJacobi:
    def test_known_values(self):
        assert jacobi(2, 15) == 1
        assert jacobi(7, 15) == -1
        assert jacobi(5, 15) == 0
        assert jacobi(1001, 9907) == -1

    @given(st.integers(min_value=0, max_value=5000), st.sampled_from(primes_below(500)[1:]))
    def test_matches_euler_criterion_for_primes(self, a, p):
        euler = pow(a, (p - 1) // 2, p)
        expected = {0: 0, 1: 1, p - 1: -1}[euler]
        assert jacobi(a, p) == expected

    @given(
        st.integers(min_value=1, max_value=2000),
        st.integers(min_value=1, max_value=2000),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=40)
    def test_multiplicative(self, a, b, k):
        n = 2 * k + 1
        assert jacobi(a, n) * jacobi(b, n) == jacobi(a * b, n)

    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError):
            jacobi(3, 10)


class TestLegendreIsSquare:
    def test_every_residue_below_the_table_bound(self):
        # the tables cover every odd prime below the bound; a and a shifted
        # by -p and 5p read the same entry
        primes = primes_below(arith._RESIDUE_TABLE_BOUND)[1:]
        assert primes[-1] > arith._RESIDUE_TABLE_BOUND // 2
        for p in primes:
            for a in range(p):
                expected = jacobi(a, p) == 1
                assert legendre_is_square(a, p) == expected, (a, p)
                assert legendre_is_square(a - p, p) == legendre_is_square(a + 5 * p, p) == expected
            assert arith._residue_tables[p] == bytes(jacobi(a, p) == 1 for a in range(p))

    @given(
        st.integers(min_value=-(10**30), max_value=10**30),
        st.sampled_from([521, 523, 1021, 7919, 65537, M61]),
    )
    @settings(max_examples=200)
    def test_matches_jacobi_above_the_bound(self, a, p):
        assert legendre_is_square(a, p) == (jacobi(a, p) == 1)

    def test_tables_depend_on_p_alone(self, monkeypatch):
        # built on first use, in whatever order the primes come
        monkeypatch.setattr(arith, "_residue_tables", [None] * arith._RESIDUE_TABLE_BOUND)
        for p in reversed(primes_below(arith._RESIDUE_TABLE_BOUND)[1:]):
            legendre_is_square(-3, p)
            assert arith._residue_tables[p] == bytes(jacobi(a, p) == 1 for a in range(p))


def division_strip(n: int, p: int) -> tuple[int, int]:
    """(n / p^e, e) by dividing p out one at a time: the reference for the
    2-adic strip by bit count."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return n, e


class TestValuation:
    @given(
        st.integers(min_value=-(10**40), max_value=10**40).filter(bool),
        st.integers(min_value=0, max_value=300),
    )
    @example(-1, 0)
    @example(-(2**64), 0)
    @example(3, 200)
    def test_two_adic_strip_matches_division(self, m, k):
        n = m << k
        assert arith._strip(n, 2) == division_strip(n, 2)
        assert valuation(n, 2) == division_strip(n, 2)[1]

    def test_basic(self):
        assert valuation(48, 2) == 4
        assert valuation(48, 3) == 1
        assert valuation(48, 5) == 0

    @given(st.integers(min_value=1, max_value=10**9), st.sampled_from([2, 3, 5, 7, 11]))
    def test_divides_exactly(self, n, p):
        v = valuation(n, p)
        assert n % p**v == 0 and (n // p**v) % p != 0

    @pytest.mark.parametrize("p", [1, -1, 0])
    def test_non_prime_rejected(self, p):
        with pytest.raises(ValueError):
            valuation(12, p)


def _prime_power_rational(sign, exps, u):
    """sign u 2^i 3^j 5^k 7^l for exps = (i, j, k, l); negative exponents
    make proper fractions."""
    return sign * u * math.prod(Fraction(q) ** e for q, e in zip((2, 3, 5, 7), exps))


hilbert_args = st.builds(
    _prime_power_rational,
    st.sampled_from([1, -1]),
    st.lists(st.integers(min_value=-2, max_value=3), min_size=4, max_size=4),
    st.sampled_from([1, 11, 13, 17, 19, 101]),
)
# 521 lies above the Legendre symbol's table bound, the others below it
hilbert_places = st.sampled_from([None, 2, 3, 5, 7, 11, 13, 101, 521])


class TestHilbertSymbol:
    def test_real_place(self):
        assert hilbert_symbol(-1, -1, None) == -1
        assert hilbert_symbol(-1, 2, None) == 1
        assert hilbert_symbol(3, 5, None) == 1

    def test_known_p_adic(self):
        assert hilbert_symbol(-1, -1, 2) == -1
        assert hilbert_symbol(-1, -1, 3) == 1
        assert hilbert_symbol(2, 5, 5) == -1
        assert hilbert_symbol(5, 5, 5) == 1
        assert hilbert_symbol(2, 7, 7) == 1

    @pytest.mark.parametrize("p", [1, -1, 0, 4, -5])
    def test_non_prime_rejected(self, p):
        with pytest.raises(ValueError):
            hilbert_symbol(3, 5, p)

    @given(hilbert_args, hilbert_args, hilbert_args, hilbert_places)
    @settings(max_examples=300)
    def test_symmetric_and_bimultiplicative(self, a, a2, b, p):
        assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
        assert hilbert_symbol(a, b * b, p) == 1
        assert hilbert_symbol(a, -a, p) == 1
        assert hilbert_symbol(a * a2, b, p) == hilbert_symbol(a, b, p) * hilbert_symbol(a2, b, p)
        if a != 1:
            assert hilbert_symbol(a, 1 - a, p) == 1  # Steinberg

    @given(
        st.sampled_from([-30, -15, -10, -6, -5, -3, -2, -1, 2, 3, 5, 6, 10, 15, 30]),
        st.sampled_from([-30, -15, -10, -6, -5, -3, -2, -1, 2, 3, 5, 6, 10, 15, 30]),
    )
    @settings(max_examples=80)
    def test_product_formula(self, a, b):
        places = [None] + sorted({2} | set(factor(abs(a * b)).primes()))
        prod = 1
        for p in places:
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1


class TestSerialization:
    @given(st.fractions(max_denominator=10**6))
    def test_roundtrip(self, q):
        assert Fraction(rational_to_string(q)) == q

    def test_format(self):
        assert rational_to_string(Fraction(3, 4)) == "3/4"
        assert rational_to_string(Fraction(5)) == "5"
