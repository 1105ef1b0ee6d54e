"""Root-number tests against the pre-built independent oracle table."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ellfam.arith import FactorBudget, Unfactored, jacobi
from ellfam.curves import WeierstrassCurve
from ellfam.localdata import minimal_model, tate_local
from ellfam.rootnum import global_root_number, local_root_number

ORACLE = json.loads((Path(__file__).parent / "data" / "rootnum_oracle.json").read_text())


def curve(*ai):
    return WeierstrassCurve(*[Fraction(a) for a in ai])


class TestLocalDefinitional:
    def test_split_multiplicative(self):
        E = curve(0, -1, 1, -10, -20)  # split I5 at 11
        assert local_root_number(E, tate_local(E, 11)) == -1

    def test_nonsplit_multiplicative(self):
        E = curve(0, 1, 1, 0, 0)  # nonsplit I1 at 43
        ld = tate_local(E, 43)
        assert ld.reduction == "nonsplit-multiplicative"
        assert local_root_number(E, ld) == 1

    def test_good(self):
        E = curve(0, 0, 1, -1, 0)
        assert local_root_number(E, tate_local(E, 5)) == 1

    @pytest.mark.parametrize(
        "p,e,a",
        [(5, 2, -1), (7, 3, -2), (13, 4, -3), (11, 6, -1), (13, 8, -3),
         (7, 9, -2), (11, 10, -1)],
    )
    def test_additive_large_p_symbol(self, p, e, a):
        # curves with the seven potentially good discriminant classes
        shapes = {2: (0, p), 3: (p, 0), 4: (0, p * p), 6: (0, p**3),
                  8: (0, p**4), 9: (p**3, 0), 10: (0, p**5)}
        a4, a6 = shapes[e]
        E, _ = minimal_model(curve(0, 0, 0, a4, a6))
        ld = tate_local(E, p)
        assert ld.reduction == "additive" and ld.vp_disc_min == e
        assert local_root_number(E, ld) == jacobi(a % p, p)


class TestKnownGlobal:
    @pytest.mark.parametrize(
        "ai,expected",
        [
            ((0, -1, 1, -10, -20), 1),   # rank 0
            ((0, -1, 1, 0, 0), 1),       # rank 0
            ((0, 0, 1, -1, 0), -1),      # rank 1
            ((0, 1, 1, -2, 0), 1),       # rank 2
            ((0, 0, 1, -7, 6), -1),      # rank 3
            ((0, 0, 0, -1, 0), 1),       # rank 0, additive at 2
        ],
    )
    def test_values(self, ai, expected):
        rn = global_root_number(curve(*ai))
        assert rn.complete and rn.value == expected

    def test_breakdown_invariant(self):
        rn = global_root_number(curve(0, -1, 1, -10, -20))
        prod = -1
        for w in rn.local_breakdown.values():
            prod *= w
        assert prod == rn.value


class TestOracleExhaustive:
    def test_full_oracle_table(self):
        # every stored curve: the table-driven sign equals the sign measured
        # numerically from the functional equation when the table was built
        assert len(ORACLE) >= 200
        bad = []
        for row in ORACLE:
            E = curve(*row["a"])
            rn = global_root_number(E)
            if not rn.complete or rn.value != row["W"]:
                bad.append(row)
        assert not bad, f"{len(bad)} oracle mismatches, first: {bad[:3]}"

    def test_oracle_spans_reduction_types(self):
        kinds = set()
        for row in ORACLE:
            for p, kod, red, vd in row["bad"]:
                if red == "additive" and p in (2, 3):
                    kinds.add((p, kod))
        # additive cases at 2 and 3 across many Kodaira types are present
        assert len(kinds) >= 12
        assert any(p == 2 for p, _ in kinds) and any(p == 3 for p, _ in kinds)


class TestInvariance:
    def test_isomorphic_models_same_value(self):
        rng = random.Random(5)
        for ai in [(0, -1, 1, -10, -20), (0, 0, 1, -1, 0), (0, 0, 0, -1, 0)]:
            E = curve(*ai)
            base = global_root_number(E)
            for _ in range(3):
                u = rng.choice([1, 2, 3])
                r, s, t = (rng.randrange(-4, 5) for _ in range(3))
                E2, _pm = E.transform(Fraction(1, u), r, s, t)
                rn = global_root_number(E2)
                assert rn.value == base.value
                assert rn.local_breakdown == base.local_breakdown

    def test_twist_adds_predictable_local_factor(self):
        # twisting a curve with good reduction at q by q gives type I0*
        # there (e = 6), whose factor is the Kronecker symbol (-1/q); all
        # other local factors at primes away from q are unchanged
        E = curve(0, -1, 1, -10, -20)  # conductor 11
        for q in (5, 13, 17):
            c4, c6 = int(E.c4), int(E.c6)
            Etw = curve(0, 0, 0, -27 * c4 * q * q, -54 * c6 * q**3)
            rn = global_root_number(Etw)
            assert rn.complete
            assert rn.local_breakdown[q] == jacobi(-1 % q, q)
            # the twist leaves the place 11 untouched when q is a square
            # mod 11 (split multiplicative stays split)
            if jacobi(q, 11) == 1:
                base11 = global_root_number(E).local_breakdown[11]
                assert rn.local_breakdown[11] == base11

    def test_unit_rescaling_at_2(self):
        # u = 1/3 is a 2-adic unit: it multiplies c6 by 3^6 = 9 mod 16 and
        # changes no valuation, so the local factor at 2 must not move
        rows = [
            row for row in ORACLE
            if any(p == 2 and red == "additive" for p, _kod, red, _vd in row["bad"])
        ]
        assert len(rows) == 498
        bad = []
        for row in rows:
            Emin, _ = minimal_model(curve(*row["a"]))
            E3, _pm = Emin.transform(Fraction(1, 3), 0, 0, 0)
            w = local_root_number(Emin, tate_local(Emin, 2))
            if local_root_number(E3, tate_local(E3, 2)) != w:
                bad.append(row["a"])
        assert not bad, f"{len(bad)} rescaled models disagree, first: {bad[:3]}"

    @pytest.mark.parametrize(
        "d,a4,a6,expected",
        [(5, -486000, -34992000, 1), (-7, -952560, 96018048, -1)],
    )
    def test_twist_rule_additive_at_2(self, d, a4, a6, expected):
        # E = (0,0,0,-15,-6) has N = 12528 = 2^4 3^3 29 and W = -1, and
        # w(E^d) = chi_d(-N) W.  The Kronecker symbol's factors at -1, 2^4
        # and 29 are 1 except (-7/-1) = -1, so chi_5(-N) = (5/3)^3 = -1
        # and chi_-7(-N) = -(-7/3)^3 = +1
        E = curve(0, 0, 0, -15, -6)
        c4, c6 = int(E.c4), int(E.c6)
        assert (-27 * c4 * d * d, -54 * c6 * d**3) == (a4, a6)
        rn = global_root_number(curve(0, 0, 0, a4, a6))
        assert rn.complete and rn.value == expected


class TestBudget:
    def test_incomplete_flagged(self):
        # a4 = -M61*M89: neither a4 nor a2^2 - 4 a4 splits it without rho
        E = curve(0, 1, 0, -(2**61 - 1) * (2**89 - 1), 0)
        rn = global_root_number(E, FactorBudget(10**3, 0))
        assert rn.complete is False

    def test_prime_cube_discriminant_certified(self):
        # disc_min = 2^6 P^3: factoring the parts 2, -P, 4P finds P, which
        # rho on P^3 never would
        P = 2**89 - 1
        E = curve(0, 0, 0, -P, 0)
        rn = global_root_number(E, FactorBudget(10**3, 0))
        assert rn.complete is True
        Emin, _ = minimal_model(E)
        expected = {}
        for p in (2, P):
            ld = tate_local(Emin, p)
            expected[p] = local_root_number(Emin, ld)
        assert rn.local_breakdown == expected
        assert rn == global_root_number(E)

    def test_uncertified_minimality_returns_incomplete(self):
        # disc = 64 M^3 with M = M61*M89: without rho the parts 2, -M and
        # 4M leave M unsplit, so the answer covers p = 2 only
        E = curve(0, 0, 0, -(2**61 - 1) * (2**89 - 1), 0)
        rn = global_root_number(E, FactorBudget(10**3, 0))
        assert rn.complete is False and set(rn.local_breakdown) == {2}

    @pytest.mark.parametrize("lam", [1, 7, 100003])
    def test_minimality_certified_through_discriminant(self, lam):
        # a2 = PQ, a4 = P^2 Q with Q = 4 + 33P: the residue P^2 Q of
        # gcd(c4, c6) is too big to certify, but a2^2 - 4a4 = 33 P^3 Q
        # splits P from Q, so the discriminant is fully factored
        P, Q = 100003, 3300103
        E = curve(0, lam**2 * P * Q, 0, lam**4 * P * P * Q, 0)
        small = FactorBudget(10**3, 0)
        with pytest.raises(Unfactored):
            minimal_model(E, small)
        rn = global_root_number(E, small)
        assert rn.complete is True
        assert rn == global_root_number(E)

