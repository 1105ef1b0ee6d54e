"""Root-number tests against the pre-built independent oracle table."""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ellfam import localdata, rootnum
from ellfam._rootnum_tables import RESIDUE_CLASS, TABLE_MODULI, TABLE_P2, TABLE_P3
from ellfam.arith import (
    FactorBudget,
    FactoredInt,
    Unfactored,
    factor,
    factor_with_parts,
    hilbert_symbol,
    jacobi,
    valuation,
)
from ellfam.curves import WeierstrassCurve, change_coordinates, weierstrass_invariants
from ellfam.families import SingularMember
from ellfam.localdata import _integral_ints, _minimal_ints, minimal_model, tate_local
from ellfam.rootnum import (
    MissingLocalCase,
    _local_sign,
    global_root_number,
    local_root_number,
)
from ellfam.scan import DegenerateFiber, builtin_scans

ORACLE = json.loads((Path(__file__).parent / "data" / "rootnum_oracle.json").read_text())


def curve(*ai):
    return WeierstrassCurve(*[Fraction(a) for a in ai])


def minimal_of(a):
    """_minimal_ints on the int a-invariants a, with their invariants."""
    return _minimal_ints(a, weierstrass_invariants(*a))


def tate_of(a, p):
    """localdata._tate_ints at p on the int a-invariants a, with v_p(disc)
    and their invariants."""
    invs = weierstrass_invariants(*a)
    return localdata._tate_ints(a, p, valuation(invs[6], p), invs)


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
    a, _invs, fi = _minimal_ints(*_integral_ints(E), budget, parts)
    Emin = WeierstrassCurve(*a)
    bad, compared = [], 0
    for p, e in fi.factors:
        if p < 5:
            continue
        ld = tate_local(Emin, p)
        w = _local_sign(Emin.bc_invariants(), p, e, Emin._ints)
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


class TestInvariantsOnce:
    """An integral curve's seven invariants are computed once, by its
    constructor, and handed on to the minimization and Tate's algorithm."""

    def test_one_invariants_call_per_curve(self, monkeypatch):
        from ellfam import curves as curves_module

        calls = []
        real = weierstrass_invariants

        def counted(*a):
            calls.append(a)
            return real(*a)

        monkeypatch.setattr(curves_module, "weierstrass_invariants", counted)
        # the local kernels take the invariants and have no way to compute
        # their own
        assert not hasattr(localdata, "weierstrass_invariants")
        rows = [row["a"] for row in ORACLE]
        twists = [E.a_invariants() for E in sweep_twists()]
        answered = 0
        for a in rows + twists:
            del calls[:]
            E = curve(*a)
            try:
                global_root_number(E)
                answered += 1
            except MissingLocalCase:
                pass
            localdata.bad_places(E)
            tate_local(E, 2)
            assert calls == [E._ints], a
        assert answered > 2000


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
        invs = E.bc_invariants()
        e = valuation(invs[6], p)
        assert e == ld.vp_disc_min
        assert _local_sign(invs, p, e, E._ints) == tate_rule(E, ld)
        assert local_root_number(E, ld) == tate_rule(E, ld)

    def test_tate_runs_at_2_and_3_only(self, monkeypatch):
        # types II, IV, IV* and II* at 5, 7, 11 and 13, additive at 2 and 3
        seen = []
        tate = rootnum._tate_ints

        def counted(a, p, *rest):
            seen.append(p)
            return tate(a, p, *rest)

        monkeypatch.setattr(rootnum, "_tate_ints", counted)
        rn = global_root_number(curve(0, 0, 0, 0, 1331844699185))
        assert rn.complete and sorted(rn.local_breakdown) == [2, 3, 5, 7, 11, 13]
        assert sorted(seen) == [2, 3]


    def test_tate_reuses_the_minimal_invariants(self):
        # _tate_ints reads the invariants and exponents _minimal_ints hands
        # on, computes none of its own, and finds the same local data as on
        # invariants computed afresh
        inputs = []
        for row in ORACLE:
            a, invs, fi = localdata._minimal_ints(*_integral_ints(curve(*row["a"])))
            inputs += [(a, p, e, invs) for p, e in fi.factors if p < 5]
        assert len(inputs) > 800
        assert not hasattr(localdata, "weierstrass_invariants")
        expected = [tate_of(a, p) for a, p, _e, _invs in inputs]
        assert [localdata._tate_ints(*args) for args in inputs] == expected


class TestOneRulePerPlace:
    """Split reduction from -c6 alone, and Tate's algorithm only for the
    Kodaira symbol of a table key."""

    def test_split_rule_matches_tangent_test_on_sweep(self):
        # every multiplicative place at 2 and 3 of the sweep curves
        curves = [curve(*row["a"]) for row in ORACLE] + list(sweep_twists())
        bad, compared = [], 0
        for E in curves:
            a, invs, fi = localdata._minimal_ints(*_integral_ints(E))
            for p in fi.primes():
                if p < 5 and invs[4] % p:
                    compared += 1
                    if localdata._is_split(invs[5], p) != tangent_split(a, p):
                        bad.append((a, p))
        assert compared == 1350
        assert not bad, f"{len(bad)} places disagree, first: {bad[:3]}"

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @given(
        st.lists(st.integers(-30, 30), min_size=5, max_size=5),
        st.lists(st.integers(-30, 30), min_size=3, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_rule_matches_tangent_test(self, p, xs, rst):
        # the node at (0, 0) mod p, moved away by a translation
        x1, x2, x3, x4, x6 = xs
        a = change_coordinates((x1, x2, p * x3, p * x4, p * x6), 1, *rst)
        invs = weierstrass_invariants(*a)
        if invs[6] == 0 or invs[4] % p == 0:
            return
        ld = tate_of(a, p)
        assert ld.reduction.endswith("multiplicative")
        assert localdata._is_split(invs[5], p) == tangent_split(a, p)
        assert (ld.reduction == "split-multiplicative") == tangent_split(a, p)

    def test_no_tate_at_multiplicative_places(self, monkeypatch):
        # split I4 at 3 and nonsplit I2 at 7
        seen = []
        monkeypatch.setattr(rootnum, "_tate_ints", lambda *args: seen.append(args))
        rn = global_root_number(curve(1, 0, 0, -4, -1))
        assert rn.complete and rn.local_breakdown == {3: -1, 7: 1}
        assert seen == []

    def test_tate_runs_at_potentially_good_places_only(self, monkeypatch):
        curves = [curve(*row["a"]) for row in ORACLE] + list(sweep_twists())
        seen = []
        tate = rootnum._tate_ints

        def counted(a, p, *rest):
            seen.append(p)
            return tate(a, p, *rest)

        monkeypatch.setattr(rootnum, "_tate_ints", counted)
        kinds = {"multiplicative": 0, "potentially multiplicative": 0, "potentially good": 0}
        for E in curves:
            _a, invs, fi = localdata._minimal_ints(*_integral_ints(E))
            good = []
            for p, e in fi.factors:
                if p >= 5:
                    continue
                if invs[4] % p:
                    kinds["multiplicative"] += 1
                elif invs[4] and 3 * valuation(invs[4], p) < e:
                    kinds["potentially multiplicative"] += 1
                else:
                    kinds["potentially good"] += 1
                    good.append(p)
            seen.clear()
            try:
                global_root_number(E)
            except MissingLocalCase:
                # the loop stops at the place whose table key is missing
                good = good[: len(seen)]
            assert seen == good, E
        assert kinds == {
            "multiplicative": 1350,
            "potentially multiplicative": 27,
            "potentially good": 4168 - 1377,
        }


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


# ---------------------------------------------------------------------------
# reference: the root-number path on WeierstrassCurve models, with Tate's
# translations at 2 and 3 found by search
# ---------------------------------------------------------------------------


def search_singular_point(a, p):
    """The first translation (r, 0, t), 0 <= r, t < p in that order, that
    puts the singular point of the reduction mod p at (0, 0)."""
    for r in range(p):
        for t in range(p):
            moved = change_coordinates(a, 1, r, 0, t)
            if moved[2] % p == 0 and moved[3] % p == 0 and moved[4] % p == 0:
                return moved
    raise AssertionError(f"no singular point mod {p}: {a}")


def search_step7(a):
    """The first (r, s, t), r in (0, 2, 4, 6), s < 2 and t < 8 in that
    order, with 2 | a1, a2; 4 | a3, a4; 8 | a6 after the translation."""
    for r in (0, 2, 4, 6):
        for s in (0, 1):
            for t in range(8):
                T = change_coordinates(a, 1, r, s, t)
                if T[0] % 2 == T[1] % 2 == T[2] % 4 == T[3] % 4 == T[4] % 8 == 0:
                    return T
    raise AssertionError(f"step 7 arrangement failed: {a}")


SINGULAR, STEP7 = localdata._singular_point, localdata._arrange_step7


def reference_singular_point(a, p, b2, b4, b6):
    """_singular_point by search at 2 and 3: (r, t) read off the moved
    model, whose a2 is a2 + 3 r and a3 is a3 + r a1 + 2 t."""
    if p > 3:
        return SINGULAR(a, p, b2, b4, b6)
    moved = search_singular_point(a, p)
    r = (moved[1] - a[1]) // 3
    return r, (moved[2] - a[2] - r * a[0]) // 2


def reference_step7(a, p):
    return search_step7(a) if p == 2 else STEP7(a, p)


def reference_minimal_model(E, parts=None):
    """localdata._minimal_ints on WeierstrassCurve models: the
    (c4, c6)-standard minimal model, checked by assert, and |disc_min|."""
    E, _pm = E.integral_model()
    _b2, _b4, _b6, _b8, c4, c6, disc = E.bc_invariants()
    a1, a2, a3, a4, a6 = (int(x) for x in E.a_invariants())
    if parts is None and a1 == a3 == a6 == 0:
        parts = (2, a4, a2 * a2 - 4 * a4)
    fE = factor(abs(disc), FactorBudget()) if parts is None else factor_with_parts(
        abs(disc), parts, FactorBudget()
    )
    u = 1
    for p in fE.primes():
        while c4 % p**4 == 0 and c6 % p**6 == 0 and disc % p**12 == 0:
            nc4, nc6 = c4 // p**4, c6 // p**6
            if p in (2, 3) and not localdata._kraus_ok(nc4, nc6, p):
                break
            c4, c6, disc = nc4, nc6, disc // p**12
            u *= p
    b2 = (-c6) % 12
    if b2 > 6:
        b2 -= 12
    b4 = (b2 * b2 - c4) // 24
    b6 = (-b2**3 + 36 * b2 * b4 - c6) // 216
    a1, a3 = b2 % 2, b6 % 2
    Emin = WeierstrassCurve(a1, (b2 - a1) // 4, a3, (b4 - a1 * a3) // 2, (b6 - a3) // 4)
    assert Emin.bc_invariants()[4:6] == (c4, c6)
    found = ((p, e - 12 * valuation(u, p)) for p, e in fE.factors)
    return Emin, FactoredInt(1, tuple((p, e) for p, e in found if e), fE.residue)


def tangent_split(a, p):
    """Split multiplicative reduction at p of the integral model a, by
    Tate's tangent test: with the node of the reduction mod p moved to
    (0, 0), split exactly when the tangents there, the roots of
    T^2 + a1 T - a2, lie in F_p (their discriminant b2 is a unit)."""
    a1, a2, _a3, _a4, _a6 = search_singular_point(a, p)
    return localdata._has_root_quadratic(1, a1, -a2, p)


def reference_local_sign(E, ld):
    """local_root_number on a WeierstrassCurve, with the Hilbert symbol
    over Q_p and the tangent test for split reduction at 2 and 3."""
    if ld.reduction == "good":
        return 1
    p, vd = ld.p, ld.vp_disc_min
    invs = E.bc_invariants()
    _b2, _b4, _b6, _b8, c4, c6, disc = invs
    if p >= 5:
        return _local_sign(invs, p, vd, E._ints)
    if ld.reduction.endswith("multiplicative"):
        return -1 if tangent_split(E._ints, p) else 1
    if c4 != 0 and 3 * valuation(c4, p) < vd:
        return hilbert_symbol(-c6 * c4, -1, p)
    m4, m6, md = TABLE_MODULI[p]
    v4 = valuation(c4, p) if c4 else 99
    v6 = valuation(c6, p) if c6 else 99
    key = (
        ld.kodaira, min(v4, 12), min(v6, 12), vd,
        (c4 // p**v4) % m4 if c4 else 0,
        (c6 // p**v6) % m6 if c6 else 0,
        (disc // p**vd) % md,
    )
    table = TABLE_P2 if p == 2 else TABLE_P3
    if key not in table:
        raise MissingLocalCase(f"p={p} key={key}")
    return table[key]


def reference_root_number(E, monkeypatch):
    """(breakdown, complete), or the MissingLocalCase text, and the local
    data at 2 and 3, all by the reference path."""
    Emin, fi = reference_minimal_model(E)
    with monkeypatch.context() as m:
        m.setattr(localdata, "_singular_point", reference_singular_point)
        m.setattr(localdata, "_arrange_step7", reference_step7)
        local = {p: tate_local(Emin, p) for p in fi.primes() if p < 5}
    try:
        breakdown = {p: reference_local_sign(Emin, local[p]) if p < 5 else
                     _local_sign(Emin.bc_invariants(), p, e, Emin._ints)
                     for p, e in fi.factors}
    except MissingLocalCase as exc:
        return str(exc), local
    return (breakdown, fi.complete), local


class TestReferencePath:
    """The int path against the WeierstrassCurve path it replaced."""

    def test_oracle_curves_and_sweep_twists(self, monkeypatch):
        curves = [curve(*row["a"]) for row in ORACLE] + list(sweep_twists())
        assert len(curves) == 2685
        seen_missing = 0
        for E in curves:
            expected, local = reference_root_number(E, monkeypatch)
            a, invs, fi = localdata._minimal_ints(*_integral_ints(E))
            for p, ld in local.items():
                assert localdata._tate_ints(a, p, fi.exponent(p), invs) == ld
            try:
                rn = global_root_number(E)
                got = (dict(rn.local_breakdown), rn.complete)
            except MissingLocalCase as exc:
                got = str(exc)
                seen_missing += 1
            assert got == expected, E
        assert seen_missing > 0

    def test_builds_no_weierstrass_curve(self, monkeypatch):
        curves = [curve(*row["a"]) for row in ORACLE] + list(sweep_twists())
        built = []
        init = WeierstrassCurve.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(WeierstrassCurve, "__init__", counted)
        for E in curves:
            try:
                global_root_number(E)
            except MissingLocalCase:
                pass
        assert built == []

    @given(
        st.sampled_from([2, 3]),
        st.lists(st.integers(-50, 50), min_size=5, max_size=5),
        st.lists(st.integers(0, 4), min_size=5, max_size=5),
    )
    @settings(max_examples=300, deadline=None)
    def test_closed_form_translations_match_search(self, p, xs, ks):
        # a_i = x_i p^k_i makes additive reduction, and step 7, common
        a = tuple(x * p**k for x, k in zip(xs, ks))
        if weierstrass_invariants(*a)[6] == 0:
            return
        moves, steps = [], []

        def singular(a, p, b2, b4, b6):
            r, t = SINGULAR(a, p, b2, b4, b6)
            moves.append((change_coordinates(a, 1, r, 0, t), search_singular_point(a, p)))
            return r, t

        def step7(a, p):
            arranged = STEP7(a, p)
            steps.append((arranged, search_step7(a) if p == 2 else arranged))
            return arranged

        with pytest.MonkeyPatch.context() as m:
            m.setattr(localdata, "_singular_point", singular)
            m.setattr(localdata, "_arrange_step7", step7)
            try:
                tate_of(a, p)
            except ArithmeticError:
                pass  # not minimal at p, found after the moves recorded
        for got, expected in moves + steps:
            assert got == expected

    @pytest.mark.parametrize(
        "a,p,branch",
        [
            ((0, 1, 0, 27, 3), 2, "II*"),
            ((0, 1, 0, 4, 0), 2, "I1*"),
            ((1, 1, 0, 0, 6), 2, "I1"),
            ((1, -1, 1, 25, 1), 3, "II*"),
            ((0, 0, 0, 6, 7), 3, "I1*"),
            ((0, 0, 1, 0, -7), 3, "IV*"),
        ],
    )
    def test_closed_form_branches(self, a, p, branch, monkeypatch):
        # one curve for each branch of the closed forms (the CI pins)
        ld = tate_of(a, p)
        assert ld.kodaira == branch
        monkeypatch.setattr(localdata, "_singular_point", reference_singular_point)
        monkeypatch.setattr(localdata, "_arrange_step7", reference_step7)
        assert tate_of(a, p) == ld

    def test_wrong_kraus_step_raises_under_O(self):
        # (c4, c6) = (1, 1) has no integral model; the check is no assert
        script = (
            "from ellfam.localdata import _curve_from_c4c6\n"
            "try:\n"
            "    _curve_from_c4c6(1, 1, 0)\n"
            "except ArithmeticError:\n"
            "    print('raised')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "raised\n"


# ---------------------------------------------------------------------------
# reference: the int path as it was before _minimal_ints minimized only
# where p^12 | disc and _local_sign took v_p(c4) once per place
# ---------------------------------------------------------------------------


def all_primes_minimal_ints(a):
    """_minimal_ints with every prime found handed to _minimize_at and
    every exponent corrected by v_p(u)."""
    invs = weierstrass_invariants(*a)
    disc = abs(invs[6])
    a1, a2, a3, a4, a6 = a
    if a1 == a3 == a6 == 0:
        fE = factor_with_parts(disc, (2, a4, a2 * a2 - 4 * a4))
    else:
        fE = factor(disc)
    amin, invs, u = localdata._minimize_at(invs, fE.primes())
    if u == 1:
        return amin, invs, fE
    found = ((p, e - 12 * valuation(u, p)) for p, e in fE.factors)
    return amin, invs, FactoredInt(1, tuple((p, e) for p, e in found if e), fE.residue)


def potentially_good_reference(c4, p, e):
    return c4 == 0 or 3 * valuation(c4, p) >= e


def local_sign_reference(invs, p, e, kodaira):
    """_local_sign as it was: the Kodaira symbol given, v_p(c4) taken for
    the potentially good test and again for the table key."""
    _b2, _b4, _b6, _b8, c4, c6, disc = invs
    if e == 0:
        return 1
    if c4 % p:
        return -1 if localdata._is_split(c6, p) else 1
    if not potentially_good_reference(c4, p, e):
        return hilbert_symbol(-c6 * c4, -1, p)
    if p >= 5:
        return jacobi(RESIDUE_CLASS[e] % p, p)
    m4, m6, md = TABLE_MODULI[p]
    v4 = valuation(c4, p) if c4 else 99
    v6 = valuation(c6, p) if c6 else 99
    c4u = (c4 // p**v4) % m4 if c4 else 0
    c6u = (c6 // p**v6) % m6 if c6 else 0
    key = (kodaira, min(v4, 12), min(v6, 12), e, c4u, c6u, (disc // p**e) % md)
    table = TABLE_P2 if p == 2 else TABLE_P3
    if key not in table:
        raise MissingLocalCase(f"p={p} key={key}")
    return table[key]


def root_number_reference(a):
    """(breakdown, complete) or the MissingLocalCase text, by the copy:
    _potentially_good asked in the loop and again in the local sign."""
    amin, invs, fi = all_primes_minimal_ints(a)
    breakdown = {}
    try:
        for p, e in fi.factors:
            kodaira = None
            if p < 5 and potentially_good_reference(invs[4], p, e):
                kodaira = localdata._tate_ints(amin, p, e, invs).kodaira
            breakdown[p] = local_sign_reference(invs, p, e, kodaira)
    except MissingLocalCase as exc:
        return str(exc)
    return breakdown, fi.complete


def root_number_or_missing(E):
    try:
        rn = global_root_number(E)
    except MissingLocalCase as exc:
        return str(exc)
    return dict(rn.local_breakdown), rn.complete


# minimal models where Kraus's conditions stop the scaling: at 2 for the
# first two, at 3 for the rest
KRAUS_STOPS = [(0, -1, 0, -9, 9), (0, 0, 0, 4, 0), (0, 0, 0, 405, -486), (1, -1, 1, 25, 1)]


class TestNoRepeatedWork:
    """The kernel that minimizes only where p^12 | disc and takes v_p(c4)
    once per additive place, against a copy of the one it replaced."""

    def test_sweep_curves(self):
        curves = [curve(*row["a"]) for row in ORACLE] + list(sweep_twists())
        assert len(curves) == 2685
        missing = 0
        for E in curves:
            a = _integral_ints(E)[0]
            assert minimal_of(a) == all_primes_minimal_ints(a), E
            got = root_number_or_missing(E)
            assert got == root_number_reference(a), E
            missing += isinstance(got, str)
        assert missing > 0

    @pytest.mark.parametrize("u", [2, 3, 4, 5, 6, 12, 35, 36])
    def test_scaled_models(self, u):
        # a_i u^i is not minimal at u's primes; its root number and local
        # factors are those of the minimal model.  At u = 4, 12 and 36 a
        # prime is scaled out twice, and its exponent drops by 24
        for a in [tuple(row["a"]) for row in ORACLE[::7]] + KRAUS_STOPS:
            scaled = tuple(x * u**k for x, k in zip(a, (1, 2, 3, 4, 6)))
            assert minimal_of(scaled) == all_primes_minimal_ints(scaled), a
            expected = root_number_reference(scaled)
            assert root_number_or_missing(curve(*scaled)) == expected, a
            assert root_number_or_missing(curve(*a)) == expected, a

    def test_one_valuation_of_c4_per_additive_place(self, monkeypatch):
        # v_p(c4) is taken once at each additive place (p | c4 != 0), in
        # the order of the places, and at no other place
        curves = [curve(*row["a"]) for row in ORACLE] + list(sweep_twists())
        calls = []
        real = rootnum.valuation
        monkeypatch.setattr(rootnum, "valuation", lambda n, p: calls.append((n, p)) or real(n, p))
        compared = 0
        for E in curves:
            _a, invs, fi = _minimal_ints(*_integral_ints(E))
            c4 = invs[4]
            if invs[5] == c4:
                # c6 = c4 (y^2 = x^3 - x^2 - 7x + 2): a valuation of c6
                # could not be told from one of c4
                continue
            additive = [p for p in fi.primes() if c4 and c4 % p == 0]
            calls.clear()
            got = root_number_or_missing(E)
            seen = [p for n, p in calls if n == c4]
            if isinstance(got, str):
                # the loop stops at the place whose table key is missing
                additive = additive[: len(seen)]
            assert seen == additive, E
            compared += len(additive)
        assert compared > 2000


# ---------------------------------------------------------------------------
# reference: Tate's algorithm as it was before it decided types II, III and
# IV on the translated a6, b8 and b6: the whole moved model first
# ---------------------------------------------------------------------------


def whole_model_move(a, p, b2, b4, b6):
    """The moved a-invariants of the singular point's translation and r."""
    a1, a2, a3, a4, a6 = a
    if p == 2:
        r = a4 % 2
        t = (r * (1 + a2 + a4) + a6) % 2
    elif p == 3:
        r = -b6 % 3
        t = (a1 * r + a3) % 3
    else:
        r, _triple = localdata._multiple_root([b6, 2 * b4, b2, 4], p)
        t = -(a1 * r + a3) * pow(2, -1, p) % p
    moved = change_coordinates(a, 1, r, 0, t)
    assert moved[2] % p == 0 and moved[3] % p == 0 and moved[4] % p == 0
    return moved, r


def whole_model_tate_ints(a, p):
    """localdata._tate_ints with the moved model built before type II."""
    LocalData = localdata.LocalData
    p2, p3, p4, p6 = p * p, p**3, p**4, p**6
    b2, b4, b6, b8, c4, c6, disc = weierstrass_invariants(*a)
    n = valuation(disc, p)
    if n == 0:
        return LocalData(p, "I0", 0, 1, "good", 0)
    if c4 % p != 0:
        if localdata._is_split(c6, p):
            return LocalData(p, f"I{n}", 1, n, "split-multiplicative", n)
        return LocalData(p, f"I{n}", 1, 2 - n % 2, "nonsplit-multiplicative", n)
    a, r = whole_model_move(a, p, b2, b4, b6)
    if a[4] % p2 != 0:
        return LocalData(p, "II", n, 1, "additive", n)
    b6, b8 = (
        b6 + r * (2 * b4 + r * (b2 + 4 * r)),
        b8 + r * (3 * b6 + r * (3 * b4 + r * (b2 + 3 * r))),
    )
    a1, a2, a3, a4, a6 = a
    if b8 % p3 != 0:
        return LocalData(p, "III", n - 1, 2, "additive", n)
    if b6 % p3 != 0:
        root = localdata._has_root_quadratic(1, a3 // p, -(a6 // p2), p)
        return LocalData(p, "IV", n - 2, 3 if root else 1, "additive", n)
    a = localdata._arrange_step7(a, p)
    a1, a2, a3, a4, a6 = a
    assert a1 % p == 0 and a2 % p == 0
    assert a3 % p2 == 0 and a4 % p2 == 0 and a6 % p3 == 0
    cub = [a6 // p3, a4 // p2, a2 // p, 1]
    root = localdata._multiple_root(cub, p)
    if root is None:
        c = 1 + localdata._count_roots_cubic(cub, p)
        return LocalData(p, "I0*", n - 4, c, "additive", n)
    r, triple = root
    a = change_coordinates(a, 1, p * r, 0, 0)
    if not triple:
        return localdata._instar_loop(a, p, n)
    a3t, a6t = a[2] // p2, a[4] // p4
    if (a3t * a3t + 4 * a6t) % p != 0:
        root = localdata._has_root_quadratic(1, a3t, -a6t, p)
        return LocalData(p, "IV*", n - 6, 3 if root else 1, "additive", n)
    a = change_coordinates(a, 1, 0, 0, p2 * localdata._double_root(1, a3t, -a6t, p))
    if a[3] % p4 != 0:
        return LocalData(p, "III*", n - 7, 2, "additive", n)
    if a[4] % p6 != 0:
        return LocalData(p, "II*", n - 8, 1, "additive", n)
    raise ArithmeticError(f"model {a} is not minimal at {p}")


def tate_or_error(tate, a, p):
    try:
        return tate(a, p)
    except ArithmeticError as exc:
        return str(exc)


# oracle curves that end Tate's algorithm at type II, III or IV, at 2 and 3
EARLY_EXITS = [
    ((0, 1, 0, 1, 0), 2, "II"),
    ((0, 0, 1, 0, 0), 3, "II"),
    ((0, -1, 0, 1, 0), 2, "III"),
    ((0, 0, 0, 0, 1), 3, "III"),
    ((0, 0, 0, 0, 1), 2, "IV"),
    ((1, -1, 0, -6, 8), 3, "IV"),
]


@st.composite
def additive_models(draw):
    """(a, p): a_i = x_i p^k_i, p in {2, 3, 5, 7}, which makes additive
    reduction at p, and the later steps, common."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    xs = draw(st.lists(st.integers(-50, 50), min_size=5, max_size=5))
    ks = draw(st.lists(st.integers(0, 4), min_size=5, max_size=5))
    return tuple(x * p**k for x, k in zip(xs, ks)), p


class TestEarlyExits:
    """Tate's algorithm that decides II-IV before it builds the moved model,
    against the copy that built it first."""

    @given(additive_models())
    @example(EARLY_EXITS[0][:2])
    @example(EARLY_EXITS[1][:2])
    @example(EARLY_EXITS[2][:2])
    @example(EARLY_EXITS[3][:2])
    @example(EARLY_EXITS[4][:2])
    @example(EARLY_EXITS[5][:2])
    @settings(max_examples=300, deadline=None)
    def test_matches_whole_model_first(self, model):
        a, p = model
        invs = weierstrass_invariants(*a)
        assume(invs[6] != 0 and invs[6] % p == 0 and invs[4] % p == 0)
        expected = tate_or_error(whole_model_tate_ints, a, p)
        assert tate_or_error(tate_of, a, p) == expected

    @pytest.mark.parametrize("a,p,kodaira", EARLY_EXITS)
    def test_oracle_examples_end_early(self, a, p, kodaira):
        assert any(tuple(row["a"]) == a for row in ORACLE)
        ld = tate_of(a, p)
        assert ld.kodaira == kodaira and ld == whole_model_tate_ints(a, p)
