"""Canonical height, pairing, and independence-certificate tests."""

import math
from fractions import Fraction

import pytest

from ellfam.arith import DEFAULT_BUDGET, factor, valuation
from ellfam.curves import CurvePoint, WeierstrassCurve, division_poly
from ellfam.families import catalog
from ellfam.heights import (
    DEFAULT_EPS,
    _singular_corrections,
    canonical_height,
    pairing_matrix,
)
from ellfam.localdata import minimal_model
from ellfam.polyq import homogeneous_value
from ellfam.scan import builtin_scans


def pt(x, y):
    return CurvePoint(Fraction(x), Fraction(y))


E37 = WeierstrassCurve(0, 0, 1, -1, 0)
E389 = WeierstrassCurve(0, 1, 1, -2, 0)
E5077 = WeierstrassCurve(0, 0, 1, -7, 6)
E11 = WeierstrassCurve(0, -1, 1, -10, -20)

# the three parametrizing curves of the lattice scans, with their printed
# generators and (for the first) torsion points
E_SCAN1 = WeierstrassCurve(1, 1, 1, -1595, -4768)
P1 = pt(Fraction(-57, 4), Fraction(1043, 8))
P2 = pt(42, -89)
T1 = pt(-3, 1)
T2 = pt(-39, 19)

E_SCAN2 = WeierstrassCurve(0, 0, 0, -105987, 11743634)
Q1 = pt(-77, -4410)
Q2 = pt(805, 21168)

E_SCAN3 = WeierstrassCurve(0, -1, 0, -456, 3456)
R1 = pt(20, -44)
R2 = pt(Fraction(4, 9), Fraction(-1540, 27))

# one point for each branch of the local correction at a singular prime:
# y^2 = x^3 + 100 is type IV at 5 (C >= 3B) and type III at 3 (C < 3B);
# the first section of Z8R2-5 at u = 3 is additive (I3*) at 2 with C < 3B;
# the first section of Z8R2-1 at u = 22 is multiplicative at 2
E_J0 = WeierstrassCurve(0, 0, 0, 0, 100)
S1 = pt(5, 15)
E_Z8R2_5 = WeierstrassCurve(
    0, 58169091849083986, 0, 23512816621167902794703306417841, 0
)
S2 = pt(181099731441031299, 88609168456320630830240412)
E_Z8R2_1 = WeierstrassCurve(0, 3744364666317937, 0, 1411579235443770230589956526336, 0)
S3 = pt(-433750428823824, 3253304752603211296368)


def naive_limit_height(E, P, steps=9):
    """Independent reference: 4^-n * log H(x(2^n P)) via exact duplication."""
    Emin, pm = minimal_model(E)
    Q = pm.forward(P)
    b2, b4, b6, b8 = (int(Emin.b2), int(Emin.b4), int(Emin.b6), int(Emin.b8))
    a, b = Fraction(Q.x).numerator, Fraction(Q.x).denominator
    for _ in range(steps):
        num = (a * a - b4 * b * b) * a * a - 2 * b6 * b**3 * a - b8 * b**4
        den = b * (4 * a**3 + b2 * a * a * b + 2 * b4 * a * b * b + b6 * b**3)
        g = math.gcd(num, den)
        a, b = num // g, den // g
    return math.log(max(abs(a), abs(b))) / 4**steps


def prime_corrections(E, Q):
    """{p: z_p} over the factored primes of the singular gcd g, one
    valuation per prime (Silverman 1988): the reference that the
    coprime-base sum must reproduce."""
    x = Fraction(Q.x)
    e = math.isqrt(x.denominator)
    a, b = x.numerator, int(Q.y * e**3)
    a1, a2, a3, a4 = (int(E.a1), int(E.a2), int(E.a3), int(E.a4))
    disc = int(E.disc)
    fy = 2 * b + a1 * a * e + a3 * e**3
    fx = a1 * b * e - 3 * a * a - 2 * a2 * a * e * e - a4 * e**4
    psi3 = homogeneous_value(division_poly(E, 3).ints, a, e * e)
    fi = factor(math.gcd(fy, fx, disc))
    assert fi.complete
    out = {}
    for p in fi.primes():
        if e % p == 0:
            continue
        N, B, C = valuation(disc, p), valuation(fy, p), valuation(psi3, p)
        if int(E.c4) % p:
            M = min(Fraction(B), Fraction(N, 2))
            out[p] = M * (M - N) / N
        else:
            out[p] = Fraction(-2 * B, 3) if C >= 3 * B else Fraction(-C, 4)
    return out


class TestKnownValues:
    def test_reference_height(self):
        h = canonical_height(E37, pt(0, 0))
        assert abs(h - 0.0511114082) < 1e-8

    def test_reference_regulator(self):
        reg = pairing_matrix(E389, [pt(-1, 1), pt(0, -1)]).gram_determinant()
        assert abs(reg - 0.1524601779) < 1e-8

    def test_scan1_generator_positive_and_matches_reference(self):
        assert E_SCAN1.contains(P1)
        h = canonical_height(E_SCAN1, P1)
        assert h > 0
        assert abs(h - naive_limit_height(E_SCAN1, P1)) < 1e-4

    def test_matches_reference_on_batch(self):
        cases = [
            (E389, pt(-1, 1)),
            (E5077, pt(2, 0)),
            (E_SCAN2, Q1),
            (E_SCAN3, R2),
        ]
        for E, P in cases:
            assert abs(canonical_height(E, P) - naive_limit_height(E, P)) < 1e-4


class TestTorsion:
    def test_five_torsion_is_zero(self):
        assert canonical_height(E11, pt(16, -61)) == 0.0

    def test_family_torsion_points_are_zero(self):
        fam = catalog()["Z8R2-3"]
        sp = fam.specialize(fam.spec_hint)
        E = sp.curve()
        for T in sp.torsion_points:
            assert canonical_height(E, T) == 0.0


class TestQuadraticity:
    @pytest.mark.parametrize(
        "E,P",
        [
            (E389, pt(-1, 1)),
            (E5077, pt(2, 0)),
            (E_SCAN3, R1),
            (E_SCAN1, P2),
            (E_J0, S1),
            (E_Z8R2_5, S2),
            (E_Z8R2_1, S3),
        ],
    )
    def test_double(self, E, P):
        h1 = canonical_height(E, P)
        h2 = canonical_height(E, E.mul(2, P))
        assert abs(h2 - 4 * h1) < 5e-10

    def test_triple(self):
        h1 = canonical_height(E389, pt(0, -1))
        h3 = canonical_height(E389, E389.mul(3, pt(0, -1)))
        assert abs(h3 - 9 * h1) < 5e-10

    @pytest.mark.parametrize("u", [10**9 + 7, 10**12 + 39])
    def test_large_members_keep_the_error_bound(self, u):
        # a multiple of the first section lies where the duplication series
        # cancels more than 60 digits (ROADMAP item 14)
        sp = catalog()["Z8R2-5"].specialize(Fraction(u))
        assert_quadratic(sp.curve(), sp.points[0])

    def test_large_scan_cell_keeps_the_error_bound(self):
        # Z8-scan-1 at (3, 3): 1 475-digit invariants and no cancellation
        spec = builtin_scans(radius=3)["Z8-scan-1"]
        u = spec.mapping.parameter(spec.lattice_point(3, 3))
        sp = spec.family.specialize(u, spec.budget)
        assert_quadratic(sp.curve(), sp.points[0])


def assert_quadratic(E, P):
    """ĥ(nP) = n²ĥ(P) within DEFAULT_EPS for n = 2 and 3."""
    h1 = canonical_height(E, P)
    assert h1 > 0
    for n in (2, 3):
        assert abs(canonical_height(E, E.mul(n, P)) - n * n * h1) < DEFAULT_EPS, n


class TestSingularCorrections:
    def test_coprime_base_sum_matches_primes(self):
        # on each rank-2 member at its spec hint, z over a piece r is each
        # prime's z_p / v_p(r), so Σ z·log r over the pieces equals
        # Σ z_p·log p over the primes of g, term by term
        seen = 0
        for label, fam in catalog().items():
            if fam.rank != 2:
                continue
            sp = fam.specialize(fam.spec_hint)
            E = sp.curve()
            P, Q = sp.points
            Emin, pm = minimal_model(E)
            for R in (P, Q, E.add(P, Q)):
                R = pm.forward(R)
                spread = {}
                for r, z in _singular_corrections(Emin, R):
                    for p, k in factor(r).factors:
                        spread[p] = z * k
                ref = prime_corrections(Emin, R)
                assert spread == ref, label
                seen += len(ref)
        assert seen > 0

    def test_unsplit_singular_gcd_is_no_obstacle(self):
        # at this member the singular gcd does not split within the default
        # budget; the corrections need no prime of it
        fam = catalog()["Z8R2-1"]
        sp = fam.specialize(Fraction(-341795, 540619))
        M = pairing_matrix(sp.curve(), list(sp.points), DEFAULT_BUDGET)
        assert M.certificate() == "independent"


class TestParallelogram:
    @pytest.mark.parametrize(
        "E,P,Q",
        [
            (E389, pt(-1, 1), pt(0, -1)),
            (E_SCAN1, P1, P2),
            (E_SCAN2, Q1, Q2),
        ],
    )
    def test_law(self, E, P, Q):
        hs = canonical_height(E, E.add(P, Q))
        hd = canonical_height(E, E.sub(P, Q))
        hp = canonical_height(E, P)
        hq = canonical_height(E, Q)
        assert abs(hs + hd - 2 * hp - 2 * hq) < 1e-9


class TestPairing:
    def test_matrix_symmetric(self):
        M = pairing_matrix(E389, [pt(-1, 1), pt(0, -1)])
        assert M.entries[0][1] == M.entries[1][0]
        assert M.entries[0][0] >= 0 and M.entries[1][1] >= 0

    def test_torsion_shift_invariance(self):
        M0 = pairing_matrix(E_SCAN1, [P1, P2])
        M1 = pairing_matrix(E_SCAN1, [E_SCAN1.add(P1, T1), P2])
        assert abs(M0.entries[0][1] - M1.entries[0][1]) < 1e-8
        M2 = pairing_matrix(E_SCAN1, [P1, E_SCAN1.add(P2, T2)])
        assert abs(M0.entries[0][1] - M2.entries[0][1]) < 1e-8


class TestIndependence:
    def test_scan_generator_pairs(self):
        assert pairing_matrix(E_SCAN1, [P1, P2]).certificate() == "independent"
        assert pairing_matrix(E_SCAN2, [Q1, Q2]).certificate() == "independent"
        assert pairing_matrix(E_SCAN3, [R1, R2]).certificate() == "independent"

    def test_dependent_pair_inconclusive(self):
        P = pt(-1, 1)
        assert pairing_matrix(E389, [P, E389.mul(2, P)]).certificate() == "inconclusive"

    def test_torsion_padding_inconclusive(self):
        assert (
            pairing_matrix(E11, [pt(16, -61), pt(5, -6)]).certificate() == "inconclusive"
        )

    def test_all_rank2_specializations(self):
        # each catalog rank-2 family at its recorded parameter value gives an
        # independent pair of section points, certifying rank >= 2 there
        for label, fam in catalog().items():
            if fam.rank != 2:
                continue
            sp = fam.specialize(fam.spec_hint)
            E = sp.curve()
            pts = list(sp.points)
            assert len(pts) == 2
            assert all(E.contains(P) for P in pts)
            assert pairing_matrix(E, pts).certificate() == "independent", label
