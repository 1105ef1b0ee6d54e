"""Integer/rational arithmetic kernel tests."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
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
    primes_below,
    rational_to_string,
    square_test,
    squarefree_decompose,
    valuation,
    valuation_fraction,
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
                st.sampled_from([2, 3, 101, 7919, P7, Q7, 1000003, M61]),
                st.integers(min_value=1, max_value=4),
            ),
            max_size=5,
        ),
        st.integers(min_value=1, max_value=10**20),
        st.sampled_from([NO_RHO, FactorBudget(10**2, 10**4), RHO]),
    )
    @settings(max_examples=80, deadline=None)
    def test_primes_proven_and_coprime_to_residue(self, powers, cofactor, budget):
        n = cofactor * math.prod(p**e for p, e in powers)
        fi = factor(n, budget)
        assert fi.value() == n
        for p, e in fi.factors:
            assert is_prime(p) and e >= 1
            assert math.gcd(fi.residue, p) == 1

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

    @given(st.integers(min_value=0, max_value=10**80), st.integers(min_value=1, max_value=13))
    def test_integer_nthroot_matches_sympy(self, x, k):
        assert integer_nthroot(x, k) == sympy.integer_nthroot(x, k)[0]


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


class TestSquareTest:
    def test_rational_square(self):
        assert square_test(Fraction(169, 36)) == Fraction(13, 6)
        assert square_test(3600) == 60
        assert square_test(0) == 0

    def test_non_squares(self):
        assert square_test(5) is None
        assert square_test(Fraction(-4)) is None
        assert square_test(Fraction(2, 3)) is None

    @given(st.fractions(max_denominator=1000))
    def test_square_always_detected(self, q):
        r = square_test(q * q)
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


class TestValuation:
    def test_basic(self):
        assert valuation(48, 2) == 4
        assert valuation(48, 3) == 1
        assert valuation(48, 5) == 0
        assert valuation_fraction(Fraction(9, 50), 5) == -2

    @given(st.integers(min_value=1, max_value=10**9), st.sampled_from([2, 3, 5, 7, 11]))
    def test_divides_exactly(self, n, p):
        v = valuation(n, p)
        assert n % p**v == 0 and (n // p**v) % p != 0

    @pytest.mark.parametrize("p", [1, -1, 0])
    def test_non_prime_rejected(self, p):
        with pytest.raises(ValueError):
            valuation(12, p)


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

    @given(
        st.sampled_from([-6, -5, -3, -2, -1, 1, 2, 3, 5, 6, 7, 10]),
        st.sampled_from([-6, -5, -3, -2, -1, 1, 2, 3, 5, 6, 7, 10]),
        st.sampled_from([None, 2, 3, 5, 7, 11, 13]),
    )
    def test_symmetric_and_bimultiplicative(self, a, b, p):
        assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
        assert hilbert_symbol(a, b * b, p) == 1
        assert (
            hilbert_symbol(a, -a, p) == 1
        )  # (a, -a) always splits

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
