"""Group law, torsion and isomorphism tests."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellfam import curves
from ellfam.arith import rational_nth_root
from ellfam.curves import (
    INFINITY,
    _translation_for_scale,
    CurvePoint,
    OffCurve,
    PointMap,
    WeierstrassCurve,
    count_points_mod_p,
    division_poly,
    isomorphic_over_Q,
    _psi2_squared,
    lift_x,
    rational_roots,
    torsion_bound,
    torsion_subgroup,
    two_torsion_points,
    weierstrass_invariants,
)
from ellfam.polyq import PolyQ, RatFunc


def E37():
    return WeierstrassCurve(0, 0, 1, -1, 0)


def textbook_invariants(a1, a2, a3, a4, a6):
    """(b2, b4, b6, b8, c4, c6, disc) as in Silverman, III.1: the reference
    the curve's invariants are checked against."""
    b2 = a1**2 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3**2 + 4 * a6
    b8 = a1**2 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3**2 - a4**2
    c4 = b2**2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    disc = -(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, c4, c6, disc


def curve_invariants(E):
    return E.b2, E.b4, E.b6, E.b8, E.c4, E.c6, E.disc


BIG = st.integers(min_value=-(10**40), max_value=10**40)


class TestInvariants:
    @given(st.lists(BIG, min_size=5, max_size=5))
    @example([1, -1, 1, -10**30 - 1, 3])
    @example([-3, 5, 7, -11, 13])
    @settings(max_examples=200)
    def test_integral_invariants_match_textbook(self, a):
        E = WeierstrassCurve(*a, check=False)
        assert E.is_integral()
        got = curve_invariants(E)
        assert got == textbook_invariants(*map(Fraction, a))
        assert all(type(v) is Fraction for v in got)
        assert E.c4**3 - E.c6**2 == 1728 * E.disc
        # the one accessor: ints on an integral model, no Fraction built
        ints = E.bc_invariants()
        assert ints == weierstrass_invariants(*E._ints) == textbook_invariants(*a)
        assert all(type(v) is int for v in ints)

    @given(st.lists(st.fractions(max_denominator=10**6), min_size=5, max_size=5))
    @example([Fraction(1, 2), Fraction(-1, 3), Fraction(3, 5), Fraction(-7), Fraction(5, 9)])
    @settings(max_examples=200)
    def test_rational_invariants_match_textbook(self, a):
        E = WeierstrassCurve(*a, check=False)
        assert E.is_integral() == all(v.denominator == 1 for v in a)
        got = curve_invariants(E)
        assert got == textbook_invariants(*a)
        assert all(type(v) is Fraction for v in got)
        assert E.c4**3 - E.c6**2 == 1728 * E.disc
        assert E.bc_invariants() == got
        kind = int if E.is_integral() else Fraction
        assert all(type(v) is kind for v in E.bc_invariants())

    def test_family_invariants_match_textbook(self):
        from ellfam.families import catalog

        E = catalog()["Z8-1"].curve()
        got = curve_invariants(E)
        assert all(isinstance(v, RatFunc) for v in got)
        assert got == textbook_invariants(*E.a_invariants())
        assert E.bc_invariants() == got
        assert E.c4**3 - E.c6**2 == 1728 * E.disc

    def test_known_discriminants(self):
        assert E37().disc == 37
        E = WeierstrassCurve(1, 1, 1, -1595, -4768)
        assert E.disc != 0

    def test_j_1728(self):
        assert WeierstrassCurve(0, 0, 0, 1, 0).j == 1728

    def test_j_zero(self):
        assert WeierstrassCurve(0, 0, 0, 0, 1).j == 0

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            WeierstrassCurve(0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            WeierstrassCurve(0, 2, 0, 1, 0)  # A^2 = 4B

    def test_shifted_discriminant_shape(self):
        E = WeierstrassCurve(0, 49, 0, 256, 0)
        A, B = Fraction(49), Fraction(256)
        assert E.disc == 16 * B * B * (A * A - 4 * B)


class TestGroupLaw:
    def test_identity_and_inverse(self):
        E = E37()
        P = CurvePoint(Fraction(0), Fraction(0))
        assert E.add(P, INFINITY) == P
        assert E.add(P, E.neg(P)).is_infinity

    def test_off_curve_rejected(self):
        with pytest.raises(OffCurve):
            E37().add(CurvePoint(Fraction(1), Fraction(1)), INFINITY)

    def test_sub_checks_unless_told_not_to(self):
        E = E37()
        P = CurvePoint(Fraction(0), Fraction(0))
        off = CurvePoint(Fraction(1), Fraction(1))
        for args in ((P, off), (off, P)):
            with pytest.raises(OffCurve):
                E.sub(*args)
        assert E.sub(E.mul(3, P), P, check=False) == E.sub(E.mul(3, P), P) == E.mul(2, P)

    def test_known_multiples_37a(self):
        E = E37()
        P = CurvePoint(Fraction(0), Fraction(0))
        assert E.mul(2, P) == CurvePoint(Fraction(1), Fraction(0))
        assert E.mul(3, P) == CurvePoint(Fraction(-1), Fraction(-1))
        assert E.mul(4, P) == CurvePoint(Fraction(2), Fraction(-3))

    @given(st.integers(min_value=-8, max_value=8), st.integers(min_value=-8, max_value=8))
    @settings(max_examples=40)
    def test_mul_is_homomorphism(self, m, n):
        E = E37()
        P = CurvePoint(Fraction(0), Fraction(0))
        assert E.add(E.mul(m, P), E.mul(n, P)) == E.mul(m + n, P)

    def test_associativity_samples(self):
        E = WeierstrassCurve(1, 1, 1, -1595, -4768)
        pts = [
            CurvePoint(Fraction(-57, 4), Fraction(1043, 8)),
            CurvePoint(Fraction(42), Fraction(-89)),
            CurvePoint(Fraction(-3), Fraction(1)),
        ]
        for P in pts:
            assert E.contains(P)
        A, B, C = pts
        assert E.add(E.add(A, B), C) == E.add(A, E.add(B, C))

    def test_tate_normal_multiples(self):
        # order-8 specimen: b = (2d-1)(d-1), c = b/d at d = 2
        b, c = Fraction(3), Fraction(3, 2)
        E = WeierstrassCurve(1 - c, -b, -b, 0, 0)
        P = CurvePoint(Fraction(0), Fraction(0))
        d = Fraction(2)
        assert E.point_order(P) == 8
        assert E.mul(2, P) == CurvePoint(c * d, c * c * d)
        assert E.neg(E.mul(2, P)) == CurvePoint(c * d, Fraction(0))
        assert E.mul(3, P) == CurvePoint(c, c * (d - 1))
        assert E.neg(E.mul(3, P)) == CurvePoint(c, c * c)
        assert E.mul(4, P) == CurvePoint(d * (d - 1), d * d * (c - d + 1))


def fraction_add(E, P, Q):
    """The chord-and-tangent law in Fractions: the reference for add's
    integer path on integral models."""
    if P.is_infinity or Q.is_infinity:
        return Q if P.is_infinity else P
    a1, a2, a3, a4, _a6 = E.a_invariants()
    if P.x == Q.x:
        if P.y + Q.y + a1 * Q.x + a3 == 0:
            return INFINITY
        lam = (3 * P.x**2 + 2 * a2 * P.x + a4 - a1 * P.y) / (2 * P.y + a1 * P.x + a3)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam + a1 * lam - a2 - P.x - Q.x
    return CurvePoint(x3, lam * (P.x - x3) - P.y - a1 * x3 - a3)


class TestIntegralAdd:
    @pytest.mark.parametrize(
        "ainvs,gens",
        [
            ((0, 0, 1, -1, 0), [(0, 0)]),
            ((1, 1, 1, -1595, -4768), [(Fraction(-57, 4), Fraction(1043, 8)), (42, -89), (-3, 1)]),
            ((0, 0, 0, -105987, 11743634), [(-77, -4410), (805, 21168)]),
            ((0, -1, 0, -456, 3456), [(20, -44), (Fraction(4, 9), Fraction(-1540, 27))]),
            ((1, 0, 1, -19, 26), [(1, 2), (3, -2)]),
        ],
    )
    def test_matches_the_fraction_law(self, ainvs, gens):
        # sums, doublings, P + (-P) and 2-torsion doubled, on models with
        # and without a1, a3
        E = WeierstrassCurve(*ainvs)
        pts = [CurvePoint(Fraction(x), Fraction(y)) for x, y in gens]
        pts += two_torsion_points(E)
        for P in list(pts):
            pts += [fraction_add(E, P, P), E.neg(P)]
        pts += [fraction_add(E, P, Q) for P, Q in zip(pts, pts[1:])]
        pts = [P for P in pts if not P.is_infinity]
        assert all(E.contains(P) for P in pts)
        for P in pts:
            for Q in pts:
                assert E.add(P, Q) == fraction_add(E, P, Q)


class TestTransform:
    def test_round_trip(self):
        E = WeierstrassCurve(1, 1, 1, -1595, -4768)
        P = CurvePoint(Fraction(42), Fraction(-89))
        new, pm = E.transform(Fraction(2, 3), Fraction(1, 2), -4, Fraction(7, 5))
        Q = pm.forward(P)
        assert new.contains(Q)
        # invariants scale as expected
        u = Fraction(2, 3)
        assert new.c4 == E.c4 / u**4
        assert new.disc == E.disc / u**12
        assert new.j == E.j

    def test_inverse_carries_the_new_model_back(self):
        E = WeierstrassCurve(1, 1, 1, -1595, -4768)
        P = CurvePoint(Fraction(42), Fraction(-89))
        new, pm = E.transform(Fraction(2, 3), Fraction(1, 2), -4, Fraction(7, 5))
        inv = pm.inverse()
        back, _ = new.transform(inv.u, inv.r, inv.s, inv.t)
        assert back == E
        assert inv.forward(pm.forward(P)) == P
        # the isomorphism with positive scale is unique for this j
        assert tuple(inv) == isomorphic_over_Q(new, E)

    def test_integral_model_of_integral_curve_is_itself(self):
        E = WeierstrassCurve(0, -1, 1, -10, -20)
        Ei, pm = E.integral_model()
        assert Ei is E
        assert pm == PointMap(Fraction(1), 0, 0, 0) == E.transform(Fraction(1), 0, 0, 0)[1]
        P = CurvePoint(Fraction(5), Fraction(5))
        assert E.contains(P) and pm.forward(P) == P

    def test_integral_model(self):
        E = WeierstrassCurve(0, Fraction(49, 16), 0, Fraction(1, 4), 0)
        Ei, pm = E.integral_model()
        assert Ei.is_integral()
        P = lift_x(E, Fraction(-2))
        if P is not None:
            assert Ei.contains(pm.forward(P))


class TestPointCounting:
    def test_counts_match_hasse(self):
        E = E37()
        for p in (5, 7, 11, 13, 17):
            n = count_points_mod_p(E, p)
            assert abs(n - (p + 1)) <= 2 * p**0.5 + 1e-9

    def test_known_count(self):
        # 37a has a_5 = -2, so #E(F_5) = 8
        assert count_points_mod_p(E37(), 5) == 8

    def test_torsion_order_divides_counts(self):
        E = WeierstrassCurve(0, 49, 0, 256, 0)
        for p in (7, 11, 13, 19, 23):
            if int(E.disc) % p:
                assert count_points_mod_p(E, p) % 8 == 0


class TestDivisionPolys:
    def test_three_torsion_roots(self):
        E = E37()
        g3 = division_poly(E, 3)
        # roots of g3 are x-coords of 3-torsion; 37a has none rational
        assert g3.degree == 4
        for x in rational_roots(g3):
            assert lift_x(E, x) is None

    def test_vanishing_on_actual_torsion(self):
        E = WeierstrassCurve(0, 49, 0, 256, 0)
        T = torsion_subgroup(E)
        P = T.generators[0]
        g8 = division_poly(E, 8)
        assert g8(P.x) == 0


def sympy_rational_roots(p: PolyQ) -> list[Fraction]:
    """The roots of p's linear factors, in the order of sympy's factor list."""
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_factor_list

    _, parts = dup_factor_list(list(p.ints[::-1]), ZZ)
    return [Fraction(-int(f[1]), int(f[0])) for f, _ in parts if len(f) == 2]


# Cremona curves with torsion Z/8, Z/10, Z/12, Z/7, Z/9 and Z/2 x Z/8
TORSION_CURVES = {
    "15a4": (1, 1, 1, 35, -28),
    "66c1": (1, 0, 0, -45, 81),
    "90c3": (1, -1, 1, -122, 1721),
    "26b1": (1, -1, 1, -3, 3),
    "54b3": (1, -1, 1, -14, 29),
    "210e2": (1, 0, 0, -1070, 7812),
}

# the orders torsion_subgroup asks _point_of_exact_order for, by the number
# of rational 2-torsion points
CANDIDATE_ORDERS = {0: (9, 7, 5, 3), 1: (12, 10, 8, 6, 4), 3: (8, 6, 4)}


class TestRationalRoots:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-30, max_value=30),
                st.integers(min_value=1, max_value=12),
                st.integers(min_value=1, max_value=3),
            ),
            max_size=5,
        ),
        st.lists(st.integers(min_value=-(10**12), max_value=10**12), max_size=5),
        st.fractions(max_denominator=7).filter(lambda c: c != 0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy_factor_list(self, linear, cofactor, lc):
        x = PolyQ.variable("x")
        p = PolyQ([lc], "x") * PolyQ(cofactor + [1], "x")
        for num, den, mult in linear:
            p = p * (den * x - num) ** mult
        assert rational_roots(p) == sympy_rational_roots(p)

    @pytest.mark.parametrize(
        "coeffs, roots",
        [
            ([0, -1, 0, 1], [1, 0, -1]),  # x^3 - x: the root 0
            ([0, 0, 0, 5], [0]),  # 5 x^3
            ([1, 1, -6], [Fraction(1, 2), Fraction(-1, 3)]),  # negative lc
            ([-4, 0, 9], [Fraction(2, 3), Fraction(-2, 3)]),  # non-unit lc
            ([9, 6, 1], [-3]),  # (x + 3)^2
            ([-4, 8, -5, 1], [1, 2]),  # (x - 2)^2 (x - 1): simple roots first
            ([0, 0, 2, -3, 1], [2, 1, 0]),  # x^2 (x - 1)(x - 2): root 0 twice
            ([Fraction(1, 3), Fraction(1, 2)], [Fraction(-2, 3)]),  # linear
            ([5], []),  # constant
            ([1, 0, 1], []),
        ],
    )
    def test_small_inputs(self, coeffs, roots):
        p = PolyQ(coeffs, "x")
        assert rational_roots(p) == [Fraction(r) for r in roots] == sympy_rational_roots(p)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            rational_roots(PolyQ([], "x"))

    def test_psi2_squared_of_the_catalog(self):
        from ellfam.families import SingularMember, catalog

        for fam in catalog().values():
            for u in ([fam.spec_hint] if fam.spec_hint is not None else []) + [3, 5, 7]:
                try:
                    E = fam.specialize(u).curve()
                except SingularMember:
                    continue
                f = _psi2_squared(E)
                assert rational_roots(f) == sympy_rational_roots(f), (fam.label, u)
                break
            else:
                pytest.fail(f"{fam.label} has no member tried")

    @pytest.mark.parametrize("name", sorted(TORSION_CURVES))
    def test_division_polynomials_of_torsion_curves(self, name):
        E = WeierstrassCurve(*TORSION_CURVES[name])
        for n in CANDIDATE_ORDERS[len(two_torsion_points(E))]:
            g = division_poly(E, n)
            assert rational_roots(g) == sympy_rational_roots(g), n


# one curve for each torsion group that no group in Mazur's list strictly
# contains, with that group
MAZUR_MAXIMAL_CURVES = {
    "11a3": ((0, -1, 1, 0, 0), (5,)),
    "26b1": ((1, -1, 1, -3, 3), (7,)),
    "15a4": ((1, 1, 1, 35, -28), (8,)),
    "54b3": ((1, -1, 1, -14, 29), (9,)),
    "66c1": ((1, 0, 0, -45, 81), (10,)),
    "90c3": ((1, -1, 1, -122, 1721), (12,)),
    "30a2": ((1, 0, 1, -19, 26), (2, 6)),
    "210e2": ((1, 0, 0, -1070, 7812), (2, 8)),
}


def refuse_count(E, p):
    raise AssertionError("points counted past Mazur's bound")


def generator_orders(E, T):
    return [E.point_order(P) for P in T.generators]


class TestRecords:
    def test_point_text(self):
        assert str(CurvePoint(Fraction(-1, 2), Fraction(3))) == "(-1/2, 3)"
        assert str(INFINITY) == "O" and INFINITY == CurvePoint() and INFINITY.is_infinity

    @pytest.mark.parametrize("name", ["x", "u", "structure", "other"])
    def test_setting_an_attribute_raises(self, name):
        T = torsion_subgroup(WeierstrassCurve(0, 49, 0, 256, 0))
        for record in (CurvePoint(Fraction(1), Fraction(2)), PointMap(2, 0, 0, 0), T):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)

    def test_equal_points_hash_equal(self):
        P, Q = CurvePoint(Fraction(5), Fraction(5)), CurvePoint(x=Fraction(5), y=Fraction(5))
        assert P == Q and hash(P) == hash(Q) and len({P, Q, INFINITY}) == 2


class TestTorsion:
    def test_trivial(self):
        assert torsion_subgroup(E37()).structure == (1,)

    def test_z8_specimen(self):
        E = WeierstrassCurve(0, 49, 0, 256, 0)
        T = torsion_subgroup(E)
        assert T.structure == (8,)
        assert E.point_order(T.generators[0]) == 8

    def test_z2x6_specimen(self):
        E = WeierstrassCurve(0, 37, 0, 160, 0)
        T = torsion_subgroup(E)
        assert T.structure == (2, 6)
        assert T.label() == "Z/2 x Z/6"
        g2, g6 = T.generators
        assert E.point_order(g2) == 2 and E.point_order(g6) == 6
        # generators are independent: g2 is not the order-2 multiple of g6
        assert E.mul(3, g6).x != g2.x

    def test_full_two_torsion_only(self):
        E = WeierstrassCurve(0, 0, 0, -1, 0)  # y^2 = x^3 - x
        T = torsion_subgroup(E)
        assert T.structure == (2, 2)

    def test_z5(self):
        E = WeierstrassCurve(0, 0, 1, -1, 0)
        assert torsion_subgroup(E).structure == (1,)
        # 11a3 = X_1(11): y^2 + y = x^3 - x^2 has Z/5
        E11 = WeierstrassCurve(0, -1, 1, 0, 0)
        T = torsion_subgroup(E11)
        assert T.structure == (5,)

    def test_hints_accelerate_big_curve(self):
        E = WeierstrassCurve(1, 1, 1, -1595, -4768)
        hint = CurvePoint(Fraction(-3), Fraction(1))
        T = torsion_subgroup(E, hints=[hint])
        assert T.structure == (2, 2)

    def test_bound_is_multiple_of_order(self):
        for A, B in [(49, 256), (37, 160)]:
            E = WeierstrassCurve(0, A, 0, B, 0)
            b = torsion_bound(E)
            assert b % torsion_subgroup(E).order == 0

    def test_bound_stopped_at_the_realized_order_is_the_full_bound(self):
        # the torsion order divides every partial gcd, so a gcd that has
        # come down to it cannot change at a later prime
        from ellfam.families import SingularMember, catalog

        cases = [(WeierstrassCurve(*a), ()) for a in TORSION_CURVES.values()]
        for fam in catalog().values():
            for u in ([fam.spec_hint] if fam.spec_hint is not None else []) + [2, 3, 5, 7]:
                try:
                    sp = fam.specialize(u)
                except SingularMember:
                    continue
                cases.append((sp.curve(), sp.torsion_points))
                break
        assert len(cases) == 6 + 36
        oracle = json.loads((Path(__file__).parent / "data" / "rootnum_oracle.json").read_text())
        cases += [(WeierstrassCurve(*row["a"]), ()) for row in oracle[:100]]
        stopped = 0
        for E, hints in cases:
            T = torsion_subgroup(E, hints=hints)
            if torsion_bound(E, T.order) == T.order:
                stopped += 1
                assert torsion_bound(E) == T.order
        assert stopped > 100

    def test_bound_counts_no_prime_past_the_realized_order(self, monkeypatch):
        import ellfam.curves as curves
        from ellfam.families import catalog

        sp = catalog()["Z8"].specialize(2)
        E = sp.curve()
        calls = []
        real = curves.count_points_mod_p
        monkeypatch.setattr(
            curves, "count_points_mod_p", lambda E, p: calls.append(p) or real(E, p)
        )
        # the hint has order 8, so the count stops once the gcd is 8
        assert torsion_subgroup(E, hints=sp.torsion_points).structure == (8,)
        realized = len(calls)
        calls.clear()
        assert torsion_bound(E) == 8
        assert realized < len(calls) == 16

    @pytest.mark.parametrize("name", sorted(MAZUR_MAXIMAL_CURVES))
    def test_mazur_exit_matches_the_count(self, monkeypatch, name):
        # a hint of full order realizes a group that Mazur's list cannot
        # enlarge: no point is counted, and the group is the one that the
        # count without hints finds
        a, structure = MAZUR_MAXIMAL_CURVES[name]
        E = WeierstrassCurve(*a)
        counted = torsion_subgroup(E)
        assert counted.structure == structure
        with monkeypatch.context() as mp:
            mp.setattr(curves, "count_points_mod_p", refuse_count)
            hinted = torsion_subgroup(E, hints=[counted.generators[-1]])
        assert hinted.structure == structure
        assert generator_orders(E, hinted) == generator_orders(E, counted)

    @pytest.mark.parametrize("name", sorted(MAZUR_MAXIMAL_CURVES))
    def test_hints_below_full_order_still_count(self, name):
        # 2P, 3P, ... of the generator realize a group that Mazur's list
        # can enlarge: the count must run, and it finds the whole group
        a, structure = MAZUR_MAXIMAL_CURVES[name]
        E = WeierstrassCurve(*a)
        P = torsion_subgroup(E).generators[-1]
        for k in range(2, structure[-1]):
            T = torsion_subgroup(E, hints=[E.mul(k, P)])
            assert T.structure == structure, k

    def test_mazur_exit_on_catalog_members(self, monkeypatch):
        # every member at u = k/d, |k| <= 8, d <= 3: the exit gives the
        # group and generator orders that the count on the same hints gives,
        # and each family's first member those of the count without hints
        # (about 10 ms a member, so not all 1220)
        from ellfam.families import SingularMember, catalog

        members, unhinted = 0, set()
        for fam in catalog().values():
            for d in (1, 2, 3):
                for k in range(-8, 9):
                    if math.gcd(k, d) != 1:
                        continue
                    try:
                        sp = fam.specialize(Fraction(k, d))
                    except SingularMember:
                        continue
                    E = sp.curve()
                    with monkeypatch.context() as mp:
                        mp.setattr(curves, "count_points_mod_p", refuse_count)
                        hinted = torsion_subgroup(E, hints=sp.torsion_points)
                    with monkeypatch.context() as mp:
                        mp.setattr(curves, "_MAZUR_MAXIMAL", {0: (), 1: (), 3: ()})
                        counted = torsion_subgroup(E, hints=sp.torsion_points)
                    assert hinted.structure == counted.structure, (fam.label, k, d)
                    assert generator_orders(E, hinted) == generator_orders(E, counted)
                    if fam.label not in unhinted:
                        unhinted.add(fam.label)
                        T = torsion_subgroup(E)
                        assert T.structure == hinted.structure
                        assert generator_orders(E, T) == generator_orders(E, hinted)
                    members += 1
        assert members == 1220 and len(unhinted) == 36

    def test_two_torsion_points(self):
        E = WeierstrassCurve(0, 0, 0, -1, 0)
        pts = two_torsion_points(E)
        assert sorted(p.x for p in pts) == [-1, 0, 1]
        for P in pts:
            assert E.mul(2, P).is_infinity


def fraction_point_order(E, P):
    """point_order's Fraction walk with no integrality test: the reference
    for the int walk and the 4x test."""
    R = P
    for n in range(1, 13):
        if R.is_infinity:
            return n
        R = E.add(R, P, check=False)
    return None


def psi2_two_torsion(E):
    """two_torsion_points from the rational roots of psi_2^2: the reference
    for the b6 = 0 square test."""
    return [CurvePoint(x, -(E.a1 * x + E.a3) / 2) for x in rational_roots(_psi2_squared(E))]


def tate_normal_form(n, t):
    """Kubert's Tate normal form E(b, c) at parameter t, on which (0, 0) has
    order n in 4..10 or 12."""
    if n == 4:
        b, c = t, Fraction(0)
    elif n == 5:
        b, c = t, t
    elif n == 6:
        b, c = t + t * t, t
    elif n == 7:
        b, c = t**3 - t * t, t * t - t
    elif n == 8:
        b = (2 * t - 1) * (t - 1)
        c = b / t
    elif n == 9:
        c = t * t * (t - 1)
        b = c * (t * t - t + 1)
    elif n == 10:
        d = t * t / (t - (t - 1) ** 2)
        c = t * d - t
        b = c * d
    else:
        m = (3 * t - 3 * t * t - 1) / (t - 1)
        f = m / (1 - t)
        d = m + t
        c = f * (d - 1)
        b = c * d
    return WeierstrassCurve(1 - c, -b, -b, 0, 0, check=False)


def integral_short(E, P):
    """E with a1 = a3 = 0 and integral a-invariants, and P mapped onto it."""
    short, pm = E.transform(1, 0, -E.a1 / 2, -E.a3 / 2)
    Ei, pm2 = WeierstrassCurve(*short.a_invariants()).integral_model()
    assert Ei.a1 == Ei.a3 == 0
    return Ei, pm2.forward(pm.forward(P))


def integral_general(E, P):
    """E's integral model, and P mapped onto it."""
    Ei, pm = E.integral_model()
    return Ei, pm.forward(P)


SMALL = st.integers(min_value=-12, max_value=12)
ORIGIN = CurvePoint(Fraction(0), Fraction(0))


class TestIntegerTorsion:
    """The int paths of point_order, two_torsion_points and contains
    against the Fraction paths they replace."""

    @given(st.integers(-3, 3), SMALL, st.integers(-3, 3), SMALL, SMALL, SMALL, st.booleans())
    @example(0, -3, 0, -6, -1, -4, True)  # infinite order: tangent slope -3/8
    @example(0, 0, 0, 0, 3, 5, True)  # y^2 = x^3 - 2: 2P = (129/100, -383/1000)
    @example(0, 0, 0, 0, 2, 3, True)  # y^2 = x^3 + 1: (2, 3) has order 6
    @settings(max_examples=300, deadline=None)
    def test_point_order_through_a_chosen_point(self, a1, a2, a3, a4, x, y, short):
        if short:
            a1 = a3 = 0
        a6 = y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x
        E = WeierstrassCurve(a1, a2, a3, a4, a6, check=False)
        if E.disc == 0:
            return
        P = CurvePoint(Fraction(x), Fraction(y))
        assert E.contains(P)
        # P, and 2P and 3P, which are often not integral
        for Q in (P, E.mul(2, P), E.mul(3, P)):
            assert E.point_order(Q) == fraction_point_order(E, Q), Q

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10, 12])
    @given(st.fractions(min_value=-9, max_value=9, max_denominator=6))
    @settings(max_examples=25, deadline=None)
    def test_point_order_on_tate_normal_forms(self, n, t):
        try:
            E = tate_normal_form(n, t)
        except ZeroDivisionError:
            return
        if E.disc == 0:
            return
        # the integral short model runs in ints, the integral Tate model
        # through the 4x test
        for Ei, Q in (integral_short(E, ORIGIN), integral_general(E, ORIGIN)):
            assert Ei.is_integral() and Ei.contains(Q)
            for k in range(1, n + 1):
                R = Ei.mul(k, Q)
                assert Ei.point_order(R) == fraction_point_order(Ei, R) == n // math.gcd(n, k)

    @pytest.mark.parametrize("ab", [(1, 1), (-3, 2), (5, -4), (Fraction(1, 4), 3)])
    def test_point_order_two_and_three(self, ab):
        # y^2 = x^3 + a x^2 + b x with (0, 0) of order 2, and
        # y^2 + a xy + b y = x^3 with (0, 0) of order 3
        a, b = map(Fraction, ab)
        for E, n in ((WeierstrassCurve(0, a, 0, b, 0), 2), (WeierstrassCurve(a, 0, b, 0, 0), 3)):
            for Ei, Q in (integral_short(E, ORIGIN), integral_general(E, ORIGIN)):
                assert Ei.point_order(Q) == fraction_point_order(Ei, Q) == n

    def test_non_integral_points(self):
        # on an integral model only a point of order 2 can be non-integral,
        # with 4x integral
        E = WeierstrassCurve(1, 4, 0, 1, 0)
        T = CurvePoint(Fraction(-1, 4), Fraction(1, 8))
        assert E.contains(T) and E.point_order(T) == 2
        E = WeierstrassCurve(0, 0, 0, 0, -2)
        P = E.mul(2, CurvePoint(Fraction(3), Fraction(5)))
        assert P == CurvePoint(Fraction(129, 100), Fraction(-383, 1000))
        assert E.point_order(P) is None is fraction_point_order(E, P)
        # a non-integral model keeps the Fraction walk
        E = WeierstrassCurve(0, Fraction(1, 2), 0, Fraction(-3, 16), 0)
        T = torsion_subgroup(E)
        assert T.structure == (2, 4)
        for P in T.generators:
            assert E.point_order(P) == fraction_point_order(E, P)

    def test_point_order_on_oracle_curves(self):
        oracle = json.loads((Path(__file__).parent / "data" / "rootnum_oracle.json").read_text())
        curves = [WeierstrassCurve(*r["a"]) for r in oracle if r["a"][0] == r["a"][2] == 0]
        checked = 0
        for E in curves:
            T = torsion_subgroup(E)
            pts = [E.mul(k, P) for P in T.generators for k in (1, 2, 3)]
            pts += [P for P in (lift_x(E, Fraction(x)) for x in range(-6, 7)) if P]
            for P in pts:
                assert E.point_order(P) == fraction_point_order(E, P), (E, P)
                checked += 1
        assert checked > 1000

    @given(
        st.integers(-2, 2),
        st.fractions(max_denominator=4).filter(lambda a: a != 0),
        st.one_of(
            st.tuples(
                st.integers(-12, 12), st.sampled_from([1, 2, 4]),
                st.integers(-12, 12), st.sampled_from([1, 2, 4]),
            ),
            st.tuples(st.fractions(max_denominator=8), st.fractions(max_denominator=8)),
        ),
    )
    @example(0, Fraction(1), (1, 1, -1, 1))  # roots 1 and -1 of the same denominator
    @example(1, Fraction(1, 2), (3, 4, -1, 2))
    @settings(max_examples=300, deadline=None)
    def test_two_torsion_when_b6_is_zero(self, a1, a3, quad):
        if len(quad) == 4:
            # 4x^2 + b2 x + 2 b4 = 4 (x - r1)(x - r2): three rational roots
            r1, r2 = Fraction(quad[0], quad[1]), Fraction(quad[2], quad[3])
            b2, b4 = -4 * (r1 + r2), 2 * r1 * r2
        else:
            b2, b4 = quad
        E = WeierstrassCurve(a1, (b2 - a1 * a1) / 4, a3, (b4 - a1 * a3) / 2, -a3 * a3 / 4, check=False)
        assert E.b6 == 0 and (E.b2, E.b4) == (b2, b4)
        if E.disc == 0:
            return
        pts = two_torsion_points(E)
        assert pts == psi2_two_torsion(E)
        assert len(pts) in (1, 3)
        for P in pts:
            assert E.contains(P) and E.point_order(P) == 2

    def test_two_torsion_of_the_catalog(self):
        from ellfam.families import SingularMember, catalog

        for fam in catalog().values():
            for u in [2, 3, -5, Fraction(7, 2)]:
                try:
                    E = fam.specialize(u).curve()
                except SingularMember:
                    continue
                assert two_torsion_points(E) == psi2_two_torsion(E), (fam.label, u)

    def test_two_torsion_without_b6_zero_keeps_rational_roots(self, monkeypatch):
        import ellfam.curves as curves

        calls = []
        real = curves.rational_roots
        monkeypatch.setattr(curves, "rational_roots", lambda p: calls.append(p) or real(p))
        assert len(two_torsion_points(WeierstrassCurve(*TORSION_CURVES["210e2"]))) == 3
        assert len(calls) == 1
        calls.clear()
        assert len(two_torsion_points(WeierstrassCurve(0, 0, 2, -4, -1))) == 3
        assert calls == []

    @given(st.integers(-3, 3), SMALL, st.integers(-3, 3), SMALL, SMALL, SMALL, st.integers(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_contains_on_and_off_the_curve(self, a1, a2, a3, a4, x, y, dy):
        a6 = y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x
        E = WeierstrassCurve(a1, a2, a3, a4, a6, check=False)
        for P in (
            CurvePoint(Fraction(x), Fraction(y)),
            CurvePoint(Fraction(x), Fraction(y + dy)),
            CurvePoint(Fraction(x), Fraction(2 * y + dy, 2)),
        ):
            assert E.contains(P) == (E.equation_value(P) == 0)
        # the points of E over x are (x, y) and its negative
        other = -y - a1 * x - a3
        assert E.contains(CurvePoint(Fraction(x), Fraction(y)))
        assert E.contains(CurvePoint(Fraction(x), Fraction(other)))
        assert E.contains(CurvePoint(Fraction(x), Fraction(y + dy))) == (dy == 0 or y + dy == other)


class TestIsomorphism:
    def test_transforms_are_recovered(self):
        E = WeierstrassCurve(1, 1, 1, -1595, -4768)
        new, _ = E.transform(Fraction(1, 2), 3, 5, -7)
        assert isomorphic_over_Q(E, new) == (Fraction(1, 2), 3, 5, -7)

    def test_j1728_twists(self):
        E1 = WeierstrassCurve(0, 0, 0, 1, 0)
        assert isomorphic_over_Q(E1, WeierstrassCurve(0, 0, 0, 16, 0)) is not None
        assert isomorphic_over_Q(E1, WeierstrassCurve(0, 0, 0, 4, 0)) is None
        assert isomorphic_over_Q(E1, WeierstrassCurve(0, 0, 0, -1, 0)) is None

    def test_j0_twists(self):
        E1 = WeierstrassCurve(0, 0, 0, 0, 1)
        assert isomorphic_over_Q(E1, WeierstrassCurve(0, 0, 0, 0, 64)) is not None
        assert isomorphic_over_Q(E1, WeierstrassCurve(0, 0, 0, 0, 2)) is None

    @pytest.mark.parametrize("u", [1009, 10**20 + 7, 10**90 + 1])
    @pytest.mark.parametrize("a4,a6", [(-1, 0), (0, 1)])
    def test_j0_and_j1728_large_scalings(self, a4, a6, u):
        # u^4 and u^6 are far beyond a float's exact range
        E1 = WeierstrassCurve(0, 0, 0, a4, a6)
        for scale in (Fraction(1, u), Fraction(u, 2)):
            E2, _ = E1.transform(scale, 1, 2, 3)
            iso = isomorphic_over_Q(E1, E2)
            assert iso is not None
            assert E1.transform(*iso)[0] == E2

    def test_quadratic_twist_not_isomorphic(self):
        E = WeierstrassCurve(0, 49, 0, 256, 0)
        twist = WeierstrassCurve(0, 49 * 5, 0, 256 * 25, 0)
        assert E.j == twist.j
        assert isomorphic_over_Q(E, twist) is None

    def test_different_j_not_isomorphic(self):
        assert isomorphic_over_Q(E37(), WeierstrassCurve(1, 1, 1, -1595, -4768)) is None

    @staticmethod
    def reference(E1, E2):
        """isomorphic_over_Q comparing whole transformed curves: the j test,
        then u and -u for the rational root u, each tried by transform."""
        if E1.j != E2.j:
            return None
        if E1.c4 == 0:
            k, ratio = 6, E1.c6 / E2.c6
        elif E1.c6 == 0:
            k, ratio = 4, E1.c4 / E2.c4
        else:
            k, ratio = 2, (E2.c4 * E1.c6) / (E1.c4 * E2.c6)
        root = rational_nth_root(ratio, k)
        if root is None:
            return None
        for u in (root, -root):
            r, s, t = _translation_for_scale(E1, E2, u)
            if E1.transform(u, r, s, t)[0] == E2:
                return (u, r, s, t)
        return None

    @staticmethod
    def oracle_curves():
        """40 seeded oracle curves, and 27a3 (j = 0) and 32a2 (j = 1728)."""
        import random

        rows = json.loads((Path(__file__).parent / "data" / "rootnum_oracle.json").read_text())
        rng = random.Random(3)
        return [WeierstrassCurve(*row["a"]) for row in rng.sample(rows, 40)] + [
            WeierstrassCurve(0, 0, 1, 0, 0),
            WeierstrassCurve(0, 0, 0, -1, 0),
        ]

    def test_changes_of_coordinates_are_certified(self):
        import random

        rng = random.Random(5)

        def rational():
            return Fraction(rng.randint(-50, 50), rng.randint(1, 12))

        curves = self.oracle_curves()
        assert [E.j for E in curves[-2:]] == [0, 1728]
        for E1 in curves:
            for _ in range(3):
                u = rational() or Fraction(1)
                E2, _ = E1.transform(u, rational(), rational(), rational())
                iso = isomorphic_over_Q(E1, E2)
                assert iso is not None and E1.transform(*iso)[0] == E2
                assert iso == self.reference(E1, E2)

    @pytest.mark.parametrize("w", [2, 4, 9])
    def test_equal_invariant_ratio_with_a_different_j(self, w):
        # (c4 w, c6 w) keeps c4' c6 / (c4 c6') a rational square but moves
        # j, so only the certificate c4 = u^4 c4' rejects it
        for E in self.oracle_curves():
            other = WeierstrassCurve(0, 0, 0, -27 * E.c4 * w, -54 * E.c6 * w)
            assert isomorphic_over_Q(E, other) is None
            assert self.reference(E, other) is None

    @pytest.mark.parametrize("d", [-1, 2, -3, 5, -6, 7])
    def test_quadratic_twists_are_not_isomorphic(self, d):
        # the twist by d of y^2 = x^3 - 27 c4 x - 54 c6; over j = 1728 the
        # twist by -1 is trivial (the automorphism (x, y) -> (-x, iy))
        for E in self.oracle_curves():
            twist = WeierstrassCurve(0, 0, 0, -27 * E.c4 * d**2, -54 * E.c6 * d**3)
            trivial = E.c6 == 0 and d == -1
            assert (isomorphic_over_Q(E, twist) is None) != trivial
            assert isomorphic_over_Q(E, twist) == self.reference(E, twist)


class TestNthRootRational:
    """The scale rule's rational k-th root, rational_nth_root, against
    sympy's integer_nthroot."""

    @staticmethod
    def reference(q, k):
        from sympy import integer_nthroot

        if q < 0:
            return None
        (num, num_exact), (den, den_exact) = (
            integer_nthroot(q.numerator, k),
            integer_nthroot(q.denominator, k),
        )
        return Fraction(num, den) if num_exact and den_exact else None

    @pytest.mark.parametrize("k", [2, 4, 6])
    @given(
        st.integers(min_value=0, max_value=10**60),
        st.integers(min_value=1, max_value=10**40),
        st.sampled_from([-1, 0, 1]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_integer_nthroot(self, k, a, b, shift):
        # exact k-th powers, their neighbours and plain fractions
        for q in (Fraction(a**k + shift, b**k), Fraction(a**k, b**k + shift or 1), Fraction(a, b)):
            assert rational_nth_root(q, k) == self.reference(q, k)

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_huge_and_non_power_inputs(self, k):
        big = 3**700 * 7**301
        for q in (
            Fraction(big**k),
            Fraction(big**k + 1),
            Fraction(big**k - 1, 5**k),
            Fraction(2**(k * 500), 3**(k * 200)),
            Fraction(2**(k * 500 + 1)),
            Fraction(-(2**k)),
            Fraction(0),
            Fraction(1, 10**k),
        ):
            assert rational_nth_root(q, k) == self.reference(q, k)
