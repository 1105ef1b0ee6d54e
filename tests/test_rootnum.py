"""Root-number tests against the pre-built independent oracle table."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellfam import rootnum
from ellfam._rootnum_tables import RESIDUE_CLASS
from ellfam.arith import FactorBudget, Unfactored, hilbert_symbol, jacobi, valuation
from ellfam.curves import WeierstrassCurve
from ellfam.families import SingularMember
from ellfam.localdata import discriminant_factorization, minimal_model, tate_local
from ellfam.rootnum import _root_number_above_3, global_root_number, local_root_number
from ellfam.scan import DegenerateFiber, builtin_scans

ORACLE = json.loads((Path(__file__).parent / "data" / "rootnum_oracle.json").read_text())


def curve(*ai):
    return WeierstrassCurve(*[Fraction(a) for a in ai])


def tate_rule(E, ld):
    """The local root number at p >= 5 from the reduction type that Tate's
    algorithm finds: the reference for the invariant rule."""
    if ld.reduction == "split-multiplicative":
        return -1
    if ld.reduction != "additive":
        return 1
    c4, c6 = int(E.c4), int(E.c6)
    if c4 and 3 * valuation(c4, ld.p) < ld.vp_disc_min:
        return hilbert_symbol(-c6 * c4, -1, ld.p)
    return jacobi(RESIDUE_CLASS[ld.vp_disc_min] % ld.p, ld.p)


def invariant_rule_mismatches(E, budget=FactorBudget(), parts=None):
    """The places p >= 5 of E's minimal model where the invariant rule, the
    exponent of p in disc_min or local_root_number disagree with Tate's
    algorithm, and the number of places compared."""
    Emin, fi = discriminant_factorization(E, budget, parts=parts)
    _b2, _b4, _b6, _b8, c4, c6, _disc = Emin.bc_invariants()
    bad, compared = [], 0
    for p, e in fi.factors:
        if p < 5:
            continue
        ld = tate_local(Emin, p)
        w = _root_number_above_3(c4, c6, p, e)
        compared += 1
        if e != ld.vp_disc_min or w != tate_rule(Emin, ld) or w != local_root_number(Emin, ld):
            bad.append((Emin.a_invariants(), p))
    return bad, compared


def _is_fundamental(d):
    def squarefree(n):
        return all(n % (q * q) for q in range(2, 15))

    if d % 4 == 1:
        return squarefree(d)
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and squarefree(d // 4)


def sweep_twists():
    """Two quadratic twists of each oracle curve, by fundamental
    discriminants |d| <= 200 coprime to N, drawn as the benchmark's
    root-number sweep draws them."""
    rng = random.Random(0)
    discs = [d for d in range(-200, 201) if d not in (0, 1) and _is_fundamental(d)]
    for row in ORACLE:
        E = curve(*row["a"])
        c4, c6 = int(E.c4), int(E.c6)
        coprime = [d for d in discs if math.gcd(d, row["N"]) == 1]
        for d in rng.sample(coprime, 2):
            yield curve(0, 0, 0, -27 * c4 * d * d, -54 * c6 * d**3)


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


class TestInvariantRuleAbove3:
    """At p >= 5 the local root number is read off c4, c6 and v_p(disc_min)
    of the minimal model; Tate's algorithm is the reference."""

    def test_oracle_curves_and_sweep_twists(self):
        curves = [curve(*row["a"]) for row in ORACLE] + list(sweep_twists())
        assert len(curves) == 3 * len(ORACLE) == 2685
        bad, compared = [], 0
        for E in curves:
            b, n = invariant_rule_mismatches(E)
            bad += b
            compared += n
        assert compared > 5000
        assert not bad, f"{len(bad)} places disagree, first: {bad[:3]}"

    def test_radius1_scan_cells(self):
        budget = FactorBudget(10**5, 2 * 10**5)
        bad, compared = [], 0
        for spec in builtin_scans(radius=1, budget=budget).values():
            for n in range(-1, 2):
                for m in range(-1, 2):
                    try:
                        param = spec.mapping.parameter(spec.lattice_point(n, m))
                        sp = spec.family.specialize(param, budget)
                    except (DegenerateFiber, SingularMember):
                        continue
                    parts = spec.family.discriminant_parts(sp)
                    b, k = invariant_rule_mismatches(sp.curve(), budget, parts)
                    bad += b
                    compared += k
        assert compared > 100
        assert not bad, f"{len(bad)} places disagree, first: {bad[:3]}"

    # y^2 = x^3 + A x + B reaching each type at p, from units t, s, a, b
    # (mod p), n >= 1 and the exponents i, j: (A, B) for type I_n is
    # (-3t^2, 2t^3 + p^n s), whose singular point is the node (t, 0), split
    # or not by the quadratic character of 3t; I_n* is its twist by p
    SHAPES = {
        "In": lambda p, t, s, a, b, n, i: (-3 * t * t, 2 * t**3 + p**n * s),
        "In*": lambda p, t, s, a, b, n, i: (-3 * t * t * p**2, p**3 * (2 * t**3 + p**n * s)),
        "I0*": lambda p, t, s, a, b, n, i: (p**2 * a, p**3 * b),
        "II": lambda p, t, s, a, b, n, i: (p**i * a, p * b),
        "III": lambda p, t, s, a, b, n, i: (p * a, p ** (i + 1) * b),
        "IV": lambda p, t, s, a, b, n, i: (p ** (i + 1) * a, p**2 * b),
        "IV*": lambda p, t, s, a, b, n, i: (p ** (i + 2) * a, p**4 * b),
        "III*": lambda p, t, s, a, b, n, i: (p**3 * a, p ** (i + 4) * b),
        "II*": lambda p, t, s, a, b, n, i: (p ** (i + 3) * a, p**5 * b),
    }

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    @pytest.mark.parametrize(
        "kind", ["split In", "nonsplit In", "In*", "I0*", "II", "III", "IV", "IV*", "III*", "II*"]
    )
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_every_kodaira_type(self, p, kind, data):
        unit = st.integers(-(10**6), 10**6).filter(lambda x: x % p != 0)
        t, s, a, b = (data.draw(unit) for _ in range(4))
        n = data.draw(st.integers(1, 6))
        i = data.draw(st.integers(1, 3))
        shape = kind.split()[-1]
        if kind == "split In":
            t = next(x for x in range(t, t + 2 * p) if jacobi(3 * x % p, p) == 1)
        if kind == "nonsplit In":
            t = next(x for x in range(t, t + 2 * p) if jacobi(3 * x % p, p) == -1)
        if shape == "I0*":
            a *= data.draw(st.sampled_from([0, 1, p]))
            b = next(x for x in range(b, b + 4 * p) if (4 * a**3 + 27 * x * x) % p)
        elif shape in ("II", "IV", "II*", "III", "III*"):
            # the coefficient whose valuation does not fix the type may
            # vanish or carry more powers of p
            factor = data.draw(st.sampled_from([0, 1, p]))
            if shape in ("III", "III*"):
                b *= factor
            else:
                a *= factor
        A, B = self.SHAPES[shape](p, t, s, a, b, n, i)
        E = curve(0, 0, 0, A, B)
        ld = tate_local(E, p)
        expected = {"In": f"I{n}", "In*": f"I{n}*"}.get(shape, shape)
        assert ld.kodaira == expected
        if shape == "In":
            assert ld.reduction == kind.split()[0] + "-multiplicative"
        _b2, _b4, _b6, _b8, c4, c6, disc = E.bc_invariants()
        e = valuation(disc, p)
        assert e == ld.vp_disc_min
        assert _root_number_above_3(c4, c6, p, e) == tate_rule(E, ld)
        assert local_root_number(E, ld) == tate_rule(E, ld)

    def test_tate_runs_at_2_and_3_only(self, monkeypatch):
        # types II, IV, IV* and II* at 5, 7, 11 and 13, additive at 2 and 3
        seen = []
        tate = rootnum.tate_local

        def counted(E, p):
            seen.append(p)
            return tate(E, p)

        monkeypatch.setattr(rootnum, "tate_local", counted)
        rn = global_root_number(curve(0, 0, 0, 0, 1331844699185))
        assert rn.complete and sorted(rn.local_breakdown) == [2, 3, 5, 7, 11, 13]
        assert sorted(seen) == [2, 3]


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

