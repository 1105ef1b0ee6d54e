"""Minimal-model, Tate-algorithm and conductor tests."""

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellfam import localdata
from ellfam.arith import FactorBudget, FactoredInt, Unfactored, factor, primes_below, valuation
from ellfam.curves import WeierstrassCurve, isomorphic_over_Q, weierstrass_invariants
from ellfam.localdata import (
    LocalData,
    _count_roots_cubic,
    _has_root_quadratic,
    _integral_ints,
    _minimal_ints,
    _multiple_root,
    _tate_ints,
    bad_places,
    conductor,
    minimal_model,
    tate_local,
)


def curve(*ai):
    return WeierstrassCurve(*[Fraction(a) for a in ai])


# classic curves with well-known local data
E11A1 = curve(0, -1, 1, -10, -20)  # disc -11^5
E11A3 = curve(0, -1, 1, 0, 0)  # disc -11
E37A = curve(0, 0, 1, -1, 0)  # disc 37
E32A = curve(0, 0, 0, -1, 0)  # y^2 = x^3 - x, disc 64
E27A3 = curve(0, 0, 1, 0, 0)  # y^2 + y = x^3, disc -27
E36A = curve(0, 0, 0, 0, 1)  # y^2 = x^3 + 1, disc -432
E20A = curve(0, 1, 0, 4, 4)  # disc -6400
E_CONG5 = curve(0, 0, 0, -25, 0)  # y^2 = x^3 - 25x, disc 10^6


class TestMinimalModel:
    def test_x3_plus_16(self):
        E, pm = minimal_model(curve(0, 0, 0, 0, 16))
        assert E.disc == -27
        assert E == E27A3

    def test_already_minimal_fixed(self):
        E, pm = minimal_model(E37A)
        assert E.disc == 37
        assert isomorphic_over_Q(E, E37A) is not None

    def test_unscaling(self):
        # scale 37a by (x, y) -> (4x, 8y) and recover it
        big, _ = E37A.transform(Fraction(1, 2), 0, 0, 0)
        assert big.disc == 37 * 2**12
        E, pm = minimal_model(big)
        assert E.disc == 37
        # the point map really lands on the minimal model
        from ellfam.curves import CurvePoint

        P = CurvePoint(Fraction(0), Fraction(0))  # on 37a
        Pb = _map_point(E37A, big, P)
        assert big.contains(Pb)
        assert E.contains(pm.forward(Pb))

    def test_kraus_at_2_and_3(self):
        # y^2 = x^3 + 49x^2 + 256x drops a factor of 2^12 from the
        # discriminant but stays non-minimal-looking at 3
        E0 = curve(0, 49, 0, 256, 0)
        E, _ = minimal_model(E0)
        assert abs(int(E.disc)) == 2**8 * 3**4 * 17
        assert isomorphic_over_Q(E, E0) is not None

    def test_point_map_from_rational_model(self):
        # y^2 = x^3 - 25x/16: the map starts on the given model, not on
        # its integral model
        from ellfam.curves import CurvePoint

        small, pm0 = E_CONG5.transform(2, 0, 0, 0)
        P = pm0.forward(CurvePoint(Fraction(-4), Fraction(6)))
        assert small.contains(P) and not small.is_integral()
        E, pm = minimal_model(small)
        assert E.disc == E_CONG5.disc
        assert E.contains(pm.forward(P))


def _map_point(E_small, E_big, P):
    # helper: move a point along the u=1/2 scaling used in the test above
    _, pm = E_small.transform(Fraction(1, 2), 0, 0, 0)
    return pm.forward(P)


class TestTateMultiplicative:
    def test_split_I5(self):
        ld = tate_local(E11A1, 11)
        assert ld == LocalData(11, "I5", 1, 5, "split-multiplicative", 5)

    def test_I1(self):
        ld = tate_local(E11A3, 11)
        assert (ld.kodaira, ld.f_p, ld.c_p) == ("I1", 1, 1)
        ld = tate_local(E37A, 37)
        assert (ld.kodaira, ld.f_p, ld.c_p) == ("I1", 1, 1)

    def test_good_prime(self):
        ld = tate_local(E37A, 5)
        assert ld == LocalData(5, "I0", 0, 1, "good", 0)

    @pytest.mark.parametrize("p", [1, 4, 0, -5])
    def test_non_prime_rejected(self, p):
        with pytest.raises(ValueError):
            tate_local(E37A, p)

    def test_non_integral_model_rejected(self):
        # a1 = 1/2: the model is not integral, so Tate's algorithm has no
        # int a-invariants to run on
        E = curve(Fraction(1, 2), 0, 0, -1, 0)
        assert not E.is_integral()
        with pytest.raises(ValueError, match="integral model required"):
            tate_local(E, 5)

    def test_family_specialization_at_17(self):
        E = curve(0, 49, 0, 256, 0)
        Emin, _ = minimal_model(E)
        ld = tate_local(Emin, 17)
        assert ld.reduction.endswith("multiplicative")
        assert ld.vp_disc_min == 1 and ld.f_p == 1 and ld.kodaira == "I1"


class TestTateAdditive:
    def test_type_II(self):
        ld = tate_local(E27A3, 3)
        assert (ld.kodaira, ld.f_p, ld.c_p, ld.vp_disc_min) == ("II", 3, 1, 3)

    def test_type_III(self):
        ld = tate_local(E32A, 2)
        assert (ld.kodaira, ld.f_p, ld.c_p) == ("III", 5, 2)

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_type_IV_from_p_squared(self, p):
        ld = tate_local(curve(0, 0, 0, 0, p * p), p)
        assert (ld.kodaira, ld.f_p, ld.c_p) == ("IV", 2, 3)

    def test_36a(self):
        ld2 = tate_local(E36A, 2)
        assert (ld2.kodaira, ld2.f_p) == ("IV", 2)
        ld3 = tate_local(E36A, 3)
        assert (ld3.kodaira, ld3.f_p, ld3.c_p) == ("III", 2, 2)

    def test_I0_star(self):
        ld = tate_local(E_CONG5, 5)
        assert (ld.kodaira, ld.f_p, ld.c_p) == ("I0*", 2, 4)

    def test_IV_star(self):
        ld = tate_local(E20A, 2)
        assert (ld.kodaira, ld.f_p) == ("IV*", 2)

    def test_In_star_reachable(self):
        # y^2 = x^3 - x^2 - 4x + 4? use a curve with v2(disc) large and
        # multiplicative potential: scaled quadratic twist landscape
        found = False
        for a2 in range(-6, 7):
            for a4 in range(-6, 7):
                try:
                    E = curve(0, 4 * a2, 0, 16 * a4, 0)
                except ValueError:
                    continue
                ld = tate_local(E, 2)
                if ld.kodaira.endswith("*") and ld.kodaira not in ("I0*",):
                    found = True
                    assert ld.reduction == "additive"
                    assert ld.f_p >= 2
        assert found


# brute-force references for the residue-field questions of Tate's algorithm

PRIMES = primes_below(300)
# _count_roots_cubic tries every residue below 500 and takes a gcd above
COUNT_PRIMES = PRIMES + [503, 1009, 10007]
COEFF = st.integers(min_value=-(10**6), max_value=10**6)


def _eval(cs, x, p):
    return sum(c * x**i for i, c in enumerate(cs)) % p


def _roots_brute(cs, p):
    return [x for x in range(p) if _eval(cs, x, p) == 0]


def _is_square_mod(a, p):
    # Euler's criterion, independent of the Jacobi symbol
    return a % p == 0 or pow(a, (p - 1) // 2, p) == 1


def _cubic_from_roots(a, roots):
    """Ascending coefficients of a * prod(T - r)."""
    cs = [a]
    for r in roots:
        cs = [(cs[i - 1] if i else 0) - r * (cs[i] if i < len(cs) else 0)
              for i in range(len(cs) + 1)]
    return cs


class TestResidueFieldHelpers:
    @given(st.sampled_from(PRIMES), COEFF, COEFF, COEFF)
    @settings(max_examples=300, deadline=None)
    def test_has_root_quadratic(self, p, a, b, c):
        # for odd p the helper is asked only with a or b nonzero mod p
        if p > 2 and a % p == 0 and b % p == 0:
            return
        assert _has_root_quadratic(a, b, c, p) == bool(_roots_brute([c, b, a], p))

    @given(st.sampled_from(PRIMES), COEFF, COEFF, COEFF, COEFF)
    @settings(max_examples=300, deadline=None)
    def test_multiple_root_double(self, p, a, r, s, lift):
        if a % p == 0:
            return
        cs = _cubic_from_roots(a, [r, r, s])
        cs[lift % 4] += lift * p  # coefficients need not be reduced
        assert _multiple_root(cs, p) == (r % p, (r - s) % p == 0)

    @given(st.sampled_from(PRIMES), COEFF, COEFF, COEFF)
    @settings(max_examples=100, deadline=None)
    def test_multiple_root_triple(self, p, a, r, lift):
        if a % p == 0:
            return
        cs = _cubic_from_roots(a, [r, r, r + lift * p])
        assert _multiple_root(cs, p) == (r % p, True)

    @given(st.sampled_from(PRIMES), COEFF, COEFF, COEFF, COEFF)
    @settings(max_examples=300, deadline=None)
    def test_multiple_root_random_cubic(self, p, a, b, c, d):
        if a % p == 0:
            return
        assert _multiple_root([d, c, b, a], p) == _multiple_root_brute([d, c, b, a], p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_multiple_root_every_cubic(self, p):
        seen = set()
        for a in range(1, p):
            for b in range(p):
                for c in range(p):
                    for d in range(p):
                        got = _multiple_root([d, c, b, a], p)
                        assert got == _multiple_root_brute([d, c, b, a], p)
                        seen.add(None if got is None else got[1])
        assert seen == {None, False, True}

    @pytest.mark.parametrize("p, count", [(2, 8), (3, 54)])
    def test_multiple_root_small_p_matches_discriminant_first(self, p, count):
        # every cubic mod p with a unit leading coefficient, its
        # coefficients also lifted by p: the residue trial alone answers
        # as the discriminant test followed by the trial does
        cubics = [
            [d, c, b, a]
            for a in range(1, p)
            for b in range(p)
            for c in range(p)
            for d in range(p)
        ]
        assert len(cubics) == count
        for cs in cubics:
            for lifted in (cs, [x + (i + 1) * p for i, x in enumerate(cs)]):
                assert _multiple_root(lifted, p) == _multiple_root_discriminant_first(lifted, p)

    @given(st.sampled_from(COUNT_PRIMES), COEFF, COEFF, COEFF, COEFF)
    @settings(max_examples=300, deadline=None)
    def test_count_roots_random_cubic(self, p, a, b, c, d):
        if a % p == 0:
            return
        cs = [d, c, b, a]
        assert _count_roots_cubic(cs, p) == len(_roots_brute(cs, p))

    @given(st.sampled_from(COUNT_PRIMES), COEFF, COEFF, COEFF, COEFF)
    @settings(max_examples=200, deadline=None)
    def test_count_roots_split_cubic(self, p, a, r1, r2, r3):
        if a % p == 0:
            return
        cs = _cubic_from_roots(a, [r1, r2, r3])
        assert _count_roots_cubic(cs, p) == len({r1 % p, r2 % p, r3 % p})

    def test_count_roots_above_500_every_prime_to_2000(self):
        # the T^p mod f branch, against trying every residue, on cubics
        # with 1, 2 (a double root) and 3 distinct roots, and on three more
        # per prime, among which some have none
        counts = set()
        for p in [q for q in primes_below(2001) if q > 500]:
            for a, roots in ((1, [0, 1, 2]), (7, [5, 5, p - 1]), (3, [4, 4, 4])):
                cs = _cubic_from_roots(a, roots)
                assert _count_roots_cubic(cs, p) == len(_roots_brute(cs, p)) == len(set(roots))
            for k in range(3):
                cs = [(k + 1) * 10**5 + p, -(7**k) * p - 3, 2 + k, 5 + k * p]
                counts.add(_count_roots_cubic(cs, p))
                assert _count_roots_cubic(cs, p) == len(_roots_brute(cs, p))
        assert {0, 1, 3} <= counts

    def test_count_roots_at_a_million_and_three(self):
        # known roots r, times an irreducible quadratic T^2 - n (n not a
        # square) or taken alone; and T^3 - 2, irreducible as 2 is not a cube
        p = 10**6 + 3
        n = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)
        assert p % 3 == 1 and pow(2, (p - 1) // 3, p) != 1
        for a, roots, count in ((5, [1, 2, 3], 3), (7, [9, 9, p - 4], 2), (3, [4, 4, 4], 1)):
            assert _count_roots_cubic(_cubic_from_roots(a, roots), p) == count
        for r in (0, 17, p - 1):
            # (T - r)(T^2 - n)
            assert _count_roots_cubic([r * n, -n, -r, 1], p) == 1
        assert _count_roots_cubic([-2, 0, 0, 1], p) == 0


def _multiple_root_brute(cs, p):
    """(r, triple) for the common root r of f and f' in F_p, None if none.

    A multiple root of a cubic over F_p lies in F_p; it is triple when f is
    a (T - r)^3 mod p.
    """
    der = [i * c for i, c in enumerate(cs)][1:]
    common = [x for x in _roots_brute(cs, p) if _eval(der, x, p) == 0]
    if not common:
        return None
    (r,) = common
    cube = _cubic_from_roots(cs[3], [r, r, r])
    return r, all((x - y) % p == 0 for x, y in zip(cs, cube))


def _multiple_root_discriminant_first(cs, p):
    """_multiple_root at p <= 3 decided by the discriminant first: None when
    18abcd - 4b^3 d + b^2 c^2 - 4ac^3 - 27a^2 d^2 is a unit mod p, else the
    residue with f(r) = f'(r) = 0, and whether b^2 - 3ac vanishes."""
    d, c, b, a = (x % p for x in cs)
    disc = (
        18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d
    )
    if disc % p:
        return None
    h = (b * b - 3 * a * c) % p
    r = next(
        x
        for x in range(p)
        if (((a * x + b) * x + c) * x + d) % p == 0
        and ((3 * a * x + 2 * b) * x + c) % p == 0
    )
    return r, h == 0


def _non_residue(p):
    return next(n for n in range(2, p) if not _is_square_mod(n, p))


def _local(E, p):
    ld = tate_local(E, p)
    assert ld.f_p == ld.vp_disc_min + 1 - ld.components()
    return ld


@pytest.mark.parametrize("p", [1009, 10007])
class TestTateLargePrimes:
    """Additive reduction at p > 50, checked against brute-force counts."""

    def test_I0_star_components(self, p):
        # y^2 = x^3 + p^2 a x + p^3 b: the cubic is T^3 + a T + b mod p
        seen = {}
        for a in range(-6, 7):
            for b in range(-6, 7):
                if (4 * a**3 + 27 * b * b) % p == 0:
                    continue
                c = 1 + len(_roots_brute([b, a, 0, 1], p))
                seen.setdefault(c, (a, b))
        assert sorted(seen) == [1, 2, 4]
        for c, (a, b) in seen.items():
            ld = _local(curve(0, 0, 0, p * p * a, p**3 * b), p)
            assert ld == LocalData(p, "I0*", 2, c, "additive", 6)

    @pytest.mark.parametrize("v6,kodaira,n", [(2, "IV", 4), (4, "IV*", 8)])
    def test_IV_and_IV_star(self, p, v6, kodaira, n):
        # y^2 = x^3 + p^v6 b: c = 3 exactly when Y^2 - b has a root
        for b, c in ((1, 3), (_non_residue(p), 1)):
            ld = _local(curve(0, 0, 0, 0, p**v6 * b), p)
            assert ld == LocalData(p, kodaira, 2, c, "additive", n)

    def test_I1_star(self, p):
        # y^2 = x^3 + p x^2 + p^4 b: c = 4 exactly when Y^2 - b has a root
        for b, c in ((1, 4), (_non_residue(p), 2)):
            ld = _local(curve(0, p, 0, 0, p**4 * b), p)
            assert ld == LocalData(p, "I1*", 2, c, "additive", 7)

    def test_I2_star(self, p):
        # y^2 = x^3 + p x^2 + p^3 x + p^5 b: c = 4 exactly when
        # X^2 + X + b has a root, i.e. 1 - 4b is a square
        found = set()
        for b in range(1, 40):
            if (1 - 4 * b) % p == 0:
                continue
            c = 4 if _is_square_mod(1 - 4 * b, p) else 2
            found.add(c)
            ld = _local(curve(0, p, 0, p**3, p**5 * b), p)
            assert ld == LocalData(p, "I2*", 2, c, "additive", 8)
        assert found == {2, 4}

    def test_singular_point_off_origin(self, p):
        # translating x moves the cusp and node of the reduction away from
        # (0, 0); the repeated root of 4x^3 + b2 x^2 + 2 b4 x + b6 finds it
        for E in (curve(0, 0, 0, p * p, p**3 * 2), curve(0, p, 0, 0, p**4),
                  curve(0, 0, 0, 0, p * p), curve(0, 1, 0, 0, p)):
            for r in (1, 17, -p // 3):
                moved, _pm = E.transform(1, r, 3, -r)
                assert _local(moved, p) == _local(E, p)


class TestInvariance:
    def test_ogg_relation_everywhere(self):
        rng = random.Random(7)
        curves = [E11A1, E37A, E32A, E27A3, E36A, E20A, E_CONG5,
                  curve(0, 49, 0, 256, 0), curve(0, 37, 0, 160, 0)]
        for E in curves:
            disc = abs(int(E.disc))
            for p, _e in factor(disc).factors:
                ld = tate_local(E, p)
                assert ld.f_p == ld.vp_disc_min + 1 - ld.components()

    def test_model_invariance(self):
        rng = random.Random(3)
        for E in (E11A1, E36A, E_CONG5):
            for _ in range(4):
                r, s, t = (rng.randrange(-5, 6) for _ in range(3))
                E2, _pm = E.transform(1, r, s, t)
                for p in (2, 3, 5, 11):
                    assert tate_local(E, p) == tate_local(E2, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_scaling_invariance(self, p):
        # E scaled by 1/u is not minimal at p; tate_local minimizes it first
        rng = random.Random(p)
        for E in (E11A1, E37A, E32A, E27A3, E36A, E20A, E_CONG5,
                  curve(0, 49, 0, 256, 0), curve(1, -1, 0, -14, 29)):
            ld = tate_local(E, p)
            for u in (p, p * p):
                r, s, t = (rng.randrange(-9, 10) for _ in range(3))
                scaled, _pm = E.transform(Fraction(1, u), r, s, t)
                assert tate_local(scaled, p) == ld

    @given(
        st.lists(st.integers(-40, 40), min_size=5, max_size=5),
        st.sampled_from([2, 3, 5, 7]),
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_scaled_model_matches_minimal_model(self, ai, u, rst):
        # a model scaled by u is not minimal at u; at each bad prime and at
        # u, tate_local on it equals tate_local on the minimal model
        if weierstrass_invariants(*ai)[6] == 0:
            return
        a, _invs, fi = _minimal_ints(_integral_ints(curve(*ai))[0])
        Emin = curve(*a)
        scaled, _pm = Emin.transform(Fraction(1, u), *rst)
        for p in sorted({u, *fi.primes()}):
            assert tate_local(scaled, p) == tate_local(Emin, p)

    @pytest.mark.parametrize("a,p", [((0, 0, 0, -625, 0), 5), ((0, 0, 0, -400, 0), 2),
                                     ((0, 0, 0, -81, 0), 3)])
    def test_tate_on_non_minimal_model_raises_under_O(self, a, p):
        # y^2 = x^3 - x and y^2 = x^3 - 25x scaled by p reach step 11; the
        # check is no assert, and tate_local minimizes first
        script = (
            "from ellfam.localdata import _tate_ints\n"
            "try:\n"
            f"    _tate_ints({a}, {p})\n"
            "except ArithmeticError:\n"
            "    print('raised')\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "raised\n"
        with pytest.raises(ArithmeticError):
            _tate_ints(a, p)
        E = curve(*a)
        assert tate_local(E, p).vp_disc_min == valuation(int(E.disc), p) - 12

    def test_fp_caps(self):
        for E in (E11A1, E32A, E36A, E20A, E27A3, E_CONG5):
            places, fi = bad_places(E)
            assert fi.complete
            for ld in places:
                cap = 8 if ld.p == 2 else (5 if ld.p == 3 else 2)
                assert 0 <= ld.f_p <= cap


class TestConductor:
    @pytest.mark.parametrize(
        "E,N",
        [
            (E11A3, 11),
            (E11A1, 11),
            (E37A, 37),
            (E32A, 32),
            (E27A3, 27),
            (E36A, 36),
            (E20A, 20),
        ],
    )
    def test_known_conductors(self, E, N):
        fi = conductor(E)
        assert fi.complete and fi.value() == N

    def test_conductor_divides_disc(self):
        for E in (E11A1, E32A, E20A, curve(0, 49, 0, 256, 0)):
            Emin, _ = minimal_model(E)
            fi = conductor(E)
            assert int(Emin.disc) % fi.value() == 0

    def test_nontrivial(self):
        # there is no elliptic curve over Q with everywhere-good reduction
        for E in (E37A, E27A3):
            assert conductor(E).value() > 1

    def test_budget_residue_surfaces(self):
        # a4 = -M61*M89 is a product of two large primes that neither a4
        # nor a2^2 - 4 a4 = 1 + 4 M61 M89 reveals without rho
        E = curve(0, 1, 0, -(2**61 - 1) * (2**89 - 1), 0)
        with pytest.raises(Unfactored):
            conductor(E, FactorBudget(10**3, 0))
        _a, _invs, fi = _minimal_ints(_integral_ints(E)[0], FactorBudget(10**3, 0))
        assert not fi.complete and fi.residue == ((2**61 - 1) * (2**89 - 1)) ** 2

    def test_partial_when_minimality_uncertified(self):
        # c6 = 0: minimal_model cannot certify minimality at this budget
        M = (2**61 - 1) * (2**89 - 1)
        E = curve(0, 0, 0, -M, 0)
        budget = FactorBudget(10**3, 0)
        with pytest.raises(Unfactored):
            minimal_model(E, budget)
        with pytest.raises(Unfactored):
            conductor(E, budget)
        _a, _invs, fi = _minimal_ints(_integral_ints(E)[0], budget)
        assert not fi.complete and fi.residue == M**3 and fi.primes() == (2,)

    def test_split_certifies_prime_cube(self):
        # disc = 64 P^3 with P prime: the parts 2, -P and 4P give P at once
        P = 2**89 - 1
        fi = conductor(curve(0, 0, 0, -P, 0), FactorBudget(10**3, 0))
        assert fi.complete and fi.factors == ((2, 6), (P, 2))


class TestDiscriminantFactorization:
    @given(
        st.integers(min_value=-(10**5), max_value=10**5),
        st.integers(min_value=-(10**7), max_value=10**7).filter(bool),
        st.sampled_from([1, 2, 3, 6, 10, 49]),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_agrees_with_whole_factor(self, A, B, lam):
        # (lam^2 A, lam^4 B) puts square content in, so the minimal model
        # differs from the input model
        if A * A == 4 * B:
            return
        E = curve(0, lam**2 * A, 0, lam**4 * B, 0)
        budget = FactorBudget(10**4, 10**5)
        a, _invs, fi = _minimal_ints(_integral_ints(E)[0], budget)
        Emin = curve(*a)
        assert Emin == minimal_model(E, budget)[0]
        assert fi.value() == abs(int(Emin.disc))
        # parts below 10^17 always factor at this budget; disc_min may not
        assert fi.complete
        whole = factor(abs(int(Emin.disc)), budget)
        if whole.complete:
            assert fi.factors == whole.factors

    def test_other_models_factor_whole(self):
        a, _invs, fi = _minimal_ints(_integral_ints(E11A1)[0])
        assert fi == FactoredInt(1, ((11, 5),))
        assert curve(*a) == minimal_model(E11A1)[0]

    def test_rational_model_falls_back(self):
        E = curve(0, Fraction(1, 4), 0, Fraction(3, 16), 0)
        a, _invs, fi = _minimal_ints(_integral_ints(E)[0])
        assert fi.complete and fi.value() == abs(int(curve(*a).disc))


ORACLE_A = [
    tuple(int(x) for x in row["a"])
    for row in json.loads((Path(__file__).parent / "data" / "rootnum_oracle.json").read_text())
]
# minimal models where p^4 | c4, p^6 | c6 and p^12 | disc, yet Kraus's
# conditions stop the scaling: at 2 for the first two, at 3 for the rest
KRAUS_STOPS = [(0, -1, 0, -9, 9), (0, 0, 0, 4, 0), (0, 0, 0, 405, -486), (1, -1, 1, 25, 1)]


def _scaled(a, u):
    """The model a_i u^i, isomorphic to a and not minimal at u's primes."""
    return tuple(x * u**k for x, k in zip(a, (1, 2, 3, 4, 6)))


class TestMinimizeWhereP12DividesDisc:
    """_minimal_ints hands _minimize_at only the primes with p^12 | disc."""

    def test_kraus_stops_are_minimal(self):
        for a in KRAUS_STOPS:
            _b2, _b4, _b6, _b8, c4, c6, disc = weierstrass_invariants(*a)
            p = 2 if a in KRAUS_STOPS[:2] else 3
            assert c4 % p**4 == 0 and c6 % p**6 == 0 and disc % p**12 == 0
            amin, invs, _fi = _minimal_ints(a)
            assert invs[6] == disc
            assert isomorphic_over_Q(curve(*amin), curve(*a))

    @pytest.mark.parametrize("u", [2, 3, 5, 6, 35])
    def test_scaled_models_reach_the_same_minimal_model(self, monkeypatch, u):
        # the (c4, c6)-standard minimal model and the factored |disc_min|
        # do not depend on the model they start from
        handed = []
        real = localdata._minimize_at

        def recorded(invs, primes):
            handed.append((invs[6], list(primes)))
            return real(invs, primes)

        monkeypatch.setattr(localdata, "_minimize_at", recorded)
        for a in ORACLE_A + KRAUS_STOPS:
            assert _minimal_ints(_scaled(a, u)) == _minimal_ints(a), a
        assert handed
        for disc, primes in handed:
            assert all(disc % p**12 == 0 for p in primes)
            assert primes == sorted(primes)

    def test_handed_invariants_give_the_same_answer(self):
        for a in ORACLE_A + KRAUS_STOPS + [_scaled(a, 6) for a in KRAUS_STOPS]:
            assert _minimal_ints(a, invs=weierstrass_invariants(*a)) == _minimal_ints(a), a

    def test_primes_below_p12_are_not_handed(self, monkeypatch):
        # the exponents of disc found (e < 12 at most primes) against what
        # _minimize_at is handed
        handed = []
        real = localdata._minimize_at

        def recorded(invs, primes):
            handed.append(list(primes))
            return real(invs, primes)

        monkeypatch.setattr(localdata, "_minimize_at", recorded)
        below = 0
        for a in ORACLE_A:
            _a, _invs, _fi = _minimal_ints(a)
            fE = factor(abs(weierstrass_invariants(*a)[6]))
            assert handed.pop() == [p for p, e in fE.factors if e >= 12]
            below += sum(e < 12 for _p, e in fE.factors)
        assert below > 2000
