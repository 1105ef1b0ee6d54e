"""Lattice-scan tests: biquadratic curves, involutions, grids, audits."""

import math
import sys
from fractions import Fraction
from typing import NamedTuple, Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellfam import arith, families, scan
from ellfam.arith import FactorBudget
from ellfam.curves import (
    INFINITY,
    CurvePoint,
    PointMap,
    WeierstrassCurve,
    isomorphic_over_Q,
    two_torsion_points,
)
from ellfam.families import SingularMember
from ellfam.localdata import _integral_ints, _minimal_ints
from ellfam.polyq import PolyQ, square_decompose_poly
from ellfam.rootnum import global_root_number
from ellfam.scan import (
    CURVE_C,
    CURVE_D1,
    BiquadraticCurve,
    DegenerateFiber,
    ScanGrid,
    builtin_scans,
    lattice_scan,
    symmetry_audit,
)
from ellfam.sections import QuarticInverse, quartic_jacobian

F = Fraction
BUD = FactorBudget(10**4, 10**4)


@pytest.fixture(scope="module")
def specs():
    return builtin_scans(radius=1, budget=BUD)


@pytest.fixture(scope="module")
def grids(specs):
    return {name: lattice_scan(spec) for name, spec in specs.items()}


# A second compatibility curve for the parameters of Z2x6R2-3 and Z2x6R2-1:
# its discriminants agree with CURVE_D1's up to square factors, so it
# parametrizes the same set of (r, s) pairs.
CURVE_D2 = BiquadraticCurve((
    (0, 90, 0),
    (-168, 84, -12),
    (14, F(-15, 2), 1),
))


def on_curve(C, pt) -> bool:
    """Whether (r, s) = pt satisfies F(r, s) = 0 for the biquadratic curve C."""
    r, s = map(F, pt)
    return sum(c * r**i * s**j for i, row in enumerate(C.coeffs) for j, c in enumerate(row)) == 0


def involutions(C, pt):
    """The two fiber-swap images (tau1(pt), tau2(pt)) of a point of C.

    tau1 fixes r and replaces s by the other root of the quadratic in s,
    -b/a - s; tau2 does the same with r and s exchanged.  Raises ValueError
    off the curve and DegenerateFiber where a quadratic drops degree.
    """
    r, s = map(F, pt)
    if not on_curve(C, (r, s)):
        raise ValueError("point is not on the curve")
    a_s, b_s, _ = (p(r) for p in C.quadratic_polys("s"))
    a_r, b_r, _ = (p(s) for p in C.quadratic_polys("r"))
    if a_s == 0 or a_r == 0:
        raise DegenerateFiber("a quadratic degenerates at this point")
    tau1, tau2 = (r, -b_s / a_s - s), (-b_r / a_r - r, s)
    assert on_curve(C, tau1) and on_curve(C, tau2)
    return tau1, tau2


class ScanRow(NamedTuple):
    name: str
    generators: tuple
    family: str
    q: Optional[tuple]
    point: tuple
    correspondence: Optional[BiquadraticCurve]
    companion: Optional[str]


def scan_row(name):
    """The _SCANS row of the built-in scan ``name``, read by field."""
    return ScanRow(*next(row for row in scan._SCANS if row[0] == name))


def sympy_irreducible(rows) -> bool:
    """Whether sum rows[i][j] r^i s^j is irreducible over Q, by sympy's
    bivariate factor list."""
    from sympy.polys.densebasic import dmp_strip, dup_strip
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dmp_factor_list

    den = math.lcm(*(F(c).denominator for row in rows for c in row))
    # dense over ZZ[r][s], highest powers first, every level stripped
    ints = [[int(c * den) for c in row[::-1]] for row in rows[::-1]]
    _const, parts = dmp_factor_list(dmp_strip([dup_strip(row) for row in ints], 1), 1, ZZ)
    return len(parts) == 1 and parts[0][1] == 1


entries = st.fractions(min_value=-9, max_value=9, max_denominator=6)
bilinear = st.lists(entries, min_size=4, max_size=4)  # a + b r + c s + d r s


def bilinear_product(fg) -> list[list[Fraction]]:
    (a, b, c, d), (e, f, g, h) = fg
    return [[a * e, a * g + c * e, c * g],
            [a * f + b * e, a * h + b * g + c * f + d * e, c * h + d * g],
            [b * f, b * h + d * f, d * h]]


arrays = st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3)
# about a third of the arrays factor into two bilinear forms
biquadratic_arrays = st.one_of(
    arrays, arrays, st.tuples(bilinear, bilinear).map(bilinear_product)
)


class TestBiquadraticCurve:
    @given(biquadratic_arrays)
    @settings(max_examples=200, deadline=None)
    def test_irreducibility_matches_sympy_factor_list(self, rows):
        assume(any(rows[2]) or any(row[2] for row in rows))
        try:
            BiquadraticCurve(rows)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == sympy_irreducible(rows)

    def test_known_point(self):
        assert on_curve(CURVE_C, (-1, 0))

    def test_rejects_reducible(self):
        # r^2 - s^2 factors
        with pytest.raises(ValueError):
            BiquadraticCurve(((0, 0, -1), (0, 0, 0), (1, 0, 0)))
        # (r - 1/2)(r s + 3) = r^2 s - r s/2 + 3r - 3/2
        with pytest.raises(ValueError):
            BiquadraticCurve(((F(-3, 2), 0, 0), (3, F(-1, 2), 0), (0, 1, 0)))
        # s (r^2 + 1): a factor free of r, found by the gcd of the coefficients
        with pytest.raises(ValueError):
            BiquadraticCurve(((0, 1, 0), (0, 0, 0), (0, 1, 0)))
        # (r + s)^2: a square
        with pytest.raises(ValueError):
            BiquadraticCurve(((0, 0, 1), (0, 2, 0), (1, 0, 0)))
        # (s - r)(s + 1), of degree 2 in s only
        with pytest.raises(ValueError):
            BiquadraticCurve(((0, 1, 1), (-1, -1, 0), (0, 0, 0)))

    def test_rational_coefficients(self):
        # s^2 = r^2/4 + 3/4 is irreducible
        C = BiquadraticCurve(((F(-3, 4), 0, 1), (0, 0, 0), (F(-1, 4), 0, 0)))
        assert on_curve(C, (1, 1))

    def test_degree_two_in_one_variable(self):
        # s^2 = r and r^2 = s are irreducible; each is quadratic in one
        # variable only, and that variable's discriminant decides
        assert on_curve(BiquadraticCurve(((0, 0, 1), (-1, 0, 0), (0, 0, 0))), (4, 2))
        assert on_curve(BiquadraticCurve(((0, -1, 0), (0, 0, 0), (1, 0, 0))), (2, 4))

    def test_rejects_low_degree(self):
        # r*s + 1 has degree 1 in both variables
        with pytest.raises(ValueError):
            BiquadraticCurve(((1, 0, 0), (0, 1, 0), (0, 0, 0)))

    def test_quadratic_at(self):
        a, b, c = (p(-1) for p in CURVE_C.quadratic_polys("s"))
        assert (a, b, c) == (F(-20), F(120), F(0))


class TestInvolutions:
    def test_printed_image(self):
        tau1, tau2 = involutions(CURVE_C, (-1, 0))
        assert tau1 == (F(-1), F(6))
        assert on_curve(CURVE_C, tau1) and on_curve(CURVE_C, tau2)

    def test_involutive(self):
        pt = (F(-1), F(0))
        tau1, tau2 = involutions(CURVE_C, pt)
        assert involutions(CURVE_C, tau1)[0] == pt
        assert involutions(CURVE_C, tau2)[1] == pt

    def test_off_curve_rejected(self):
        with pytest.raises(ValueError):
            involutions(CURVE_C, (0, 0))

    def test_degenerate_fiber(self):
        # at r = 1 the quadratic in s drops degree; (1, 29/6) is on the curve
        pt = (F(1), F(29, 6))
        assert on_curve(CURVE_C, pt)
        with pytest.raises(DegenerateFiber):
            involutions(CURVE_C, pt)

    def test_random_points_square_to_identity(self, specs):
        # 100 distinct on-curve points reached from the lattice structure
        seen = 0
        for name, curve in [("Z8-scan-1", CURVE_C), ("Z2x6-scan-1", CURVE_D1)]:
            spec = specs[name]
            E = spec.parametrizer
            pts = []
            for n in range(-3, 4):
                for m in range(-3, 4):
                    T = spec.lattice_point(n, m)
                    try:
                        pts.append(spec.mapping.coordinates(T))
                    except DegenerateFiber:
                        continue
            for pt in pts:
                assert on_curve(curve, pt)
                try:
                    tau1, tau2 = involutions(curve, pt)
                except DegenerateFiber:
                    continue
                assert involutions(curve, tau1)[0] == pt
                assert involutions(curve, tau2)[1] == pt
                seen += 1
        assert seen >= 60


def _quartic(C, var):
    """The square-reduced discriminant of C in var: the quartic of C's
    rational fibers over the other variable."""
    return square_decompose_poly(C.discriminant(var))[1]


class TestQuarticCorrespondence:
    def test_first_scan_quartic(self):
        r = PolyQ.variable("r")
        assert _quartic(CURVE_C, "s") == 29 * r**4 + 62 * r * r + 3509

    def test_shared_quartics(self):
        assert _quartic(CURVE_D1, "r") == _quartic(CURVE_D2, "r")
        assert _quartic(CURVE_D1, "s") == _quartic(CURVE_D2, "s")

    def test_explicit_square_form(self):
        # s^2 = r^2 + 3r + 1 comes back unchanged
        C = BiquadraticCurve(((-1, 0, 1), (-3, 0, 0), (-1, 0, 0)))
        r = PolyQ.variable("r")
        assert _quartic(C, "s") == r * r + 3 * r + 1

    def test_one_decomposition_per_correspondence(self, monkeypatch):
        # each scan's quartic and companion root come from one square
        # decomposition: two scans carry a correspondence, one a given q
        calls = []

        def counted(p):
            calls.append(p)
            return square_decompose_poly(p)

        monkeypatch.setattr(scan, "square_decompose_poly", counted)
        builtin_scans(radius=0, budget=BUD)
        assert len(calls) == 2


class TestDerivedSpecs:
    """builtin_scans derives each parametrizer and symmetry pair."""

    def test_parametrizers_and_symmetries(self, specs):
        expected = {
            "Z8-scan-1": ((1, 1, 1, -1595, -4768), (1, -1), 2),
            "Z8-scan-2": ((0, 0, 0, -105987, 11743634), (-1, 0), 1),
            "Z2x6-scan-1": ((0, -1, 0, -456, 3456), (1, 1), 2),
        }
        for name, (ainvs, symmetry, order) in expected.items():
            spec = specs[name]
            E, (G1, G2), (a, b) = spec.parametrizer, spec.generators, spec.symmetry
            assert E == WeierstrassCurve(*ainvs) and spec.symmetry == symmetry
            # q0 lies over (u0, -t0) in the frame the inverse map reads
            u0, t0 = scan_row(name).point
            assert spec.mapping._inv(spec.mapping.q0) == (u0, -t0)
            # q0 = a G1 + b G2 + T with T torsion of the stated order
            rest = E.sub(spec.mapping.q0, E.add(E.mul(a, G1), E.mul(b, G2)))
            assert E.point_order(rest) == order, name

    def test_symmetry_search_needs_exactly_one_pair(self, specs):
        spec = specs["Z8-scan-2"]
        E, (G1, G2) = spec.parametrizer, spec.generators
        assert scan._symmetry(E, G1, G2, spec.mapping.q0) == (-1, 0)
        # 5 G1 lies outside the box |a|, |b| <= 2
        with pytest.raises(ValueError, match="found \\[\\]"):
            scan._symmetry(E, G1, G2, E.mul(5, G1))
        # dependent generators: every a + b = -1 in the box fits
        with pytest.raises(ValueError, match="found \\[\\(-2, 1\\), "):
            scan._symmetry(E, G1, G1, spec.mapping.q0)


class TestSetUpProvesOnce:
    """Building the scans solves no isomorphism that minimal_model already
    gave, and _symmetry proves its three points on the curve once."""

    def test_inverse_map_needs_no_isomorphism_search(self, monkeypatch, specs):
        def refuse(*args):
            raise AssertionError("isomorphic_over_Q called while building the scans")

        monkeypatch.setattr(scan, "isomorphic_over_Q", refuse)
        for name, spec in builtin_scans(radius=1, budget=BUD).items():
            built = specs[name]
            assert spec.mapping._inv.forms == built.mapping._inv.forms
            assert spec.symmetry == built.symmetry and spec.parametrizer == built.parametrizer

    def test_symmetry_checks_each_point_once(self, monkeypatch, specs):
        for spec in specs.values():
            E, (G1, G2) = spec.parametrizer, spec.generators
            checked = []
            real = WeierstrassCurve.contains

            def counted(curve, P):
                checked.append(P)
                return real(curve, P)

            with monkeypatch.context() as mp:
                mp.setattr(WeierstrassCurve, "contains", counted)
                pair = scan._symmetry(E, G1, G2, spec.mapping.q0)
            assert pair == spec.symmetry
            assert checked == [G1, G2, spec.mapping.q0]


class TestParameterMap:
    def test_base_points(self, specs):
        assert specs["Z8-scan-1"].mapping.coordinates(INFINITY) == (F(-1), F(0))
        assert specs["Z8-scan-2"].mapping.parameter(INFINITY) == 0
        assert specs["Z2x6-scan-1"].mapping.coordinates(INFINITY) == (F(0), F(4))

    def test_validate(self, specs):
        # the origin lands on the row's known point; the first of G1, G2 and
        # G1 + G2 off the degenerate fibers maps onto the correspondence,
        # and there the companion member is Q-isomorphic to the family's
        for name, spec in specs.items():
            row = scan_row(name)
            point, C = row.point, row.correspondence
            assert spec.mapping.parameter(INFINITY) == point[0]
            G1, G2 = spec.generators
            for G in (G1, G2, spec.parametrizer.add(G1, G2)):
                try:
                    r = spec.mapping.parameter(G)
                    break
                except DegenerateFiber:
                    continue
            else:
                pytest.fail(f"{name}: no generator image avoids the degenerate fibers")
            Ea = spec.family.specialize(r, BUD).curve()
            if C is None:
                continue
            r_c, s = spec.mapping.coordinates(G)
            assert r_c == r and on_curve(C, (r, s))
            Eb = spec.companion_family.specialize(s, BUD).curve()
            assert isomorphic_over_Q(Ea, Eb) is not None, name

    def test_images_on_correspondence(self, specs):
        for name, curve in [("Z8-scan-1", CURVE_C), ("Z2x6-scan-1", CURVE_D1)]:
            spec = specs[name]
            for n, m in [(1, 0), (0, 1), (1, 1), (-1, 1)]:
                try:
                    pt = spec.mapping.coordinates(spec.lattice_point(n, m))
                except DegenerateFiber:
                    continue
                assert on_curve(curve, pt)

    def test_torsion_translates_give_isomorphic_members(self, specs):
        for name, spec in specs.items():
            E = spec.parametrizer
            G = spec.lattice_point(0, 1)
            base = spec.family.specialize(spec.mapping.parameter(G), BUD).curve()
            checked = 0
            for T in two_torsion_points(E):
                try:
                    param = spec.mapping.parameter(E.add(G, T))
                except DegenerateFiber:
                    continue
                other = spec.family.specialize(param, BUD).curve()
                assert isomorphic_over_Q(base, other) is not None
                checked += 1
            assert checked >= 2, name


def reference_map(spec):
    """P -> (r, t), or None over the fiber at infinity, for a built-in
    scan: PointMap.forward onto the quartic's Jacobian followed by the
    quartic inverse in Fractions, as the parameter map computed them before
    its integer form."""
    row = scan_row(spec.name)
    q, point, C = row.q, row.point, row.correspondence
    q = square_decompose_poly(C.discriminant("s"))[1] if q is None else PolyQ(q, "u")
    jacobian = quartic_jacobian(q, point)[0]
    pm = PointMap(*isomorphic_over_Q(spec.parametrizer, jacobian))
    u0, q0 = F(point[0]), F(point[1])
    cs = list(q(PolyQ.variable(q.var) + u0).coeffs) + [F(0)] * 5
    d, c = cs[1], cs[2]

    def quartic_point(P):
        Q = pm.forward(P)
        if Q.is_infinity:
            return u0, q0
        denom = 2 * q0 * Q.y
        if denom == 0:
            return None
        u = (4 * q0 * q0 * (Q.x + c) - d * d) / denom
        if u == 0:
            return u0, -q0
        return u + u0, (Q.x * u * u - d * u) / (2 * q0) - q0

    return quartic_point


def reference_companion(C, r, t):
    """s on the correspondence C over r, taken with the quartic's t."""
    a, b, _ = C.quadratic_polys("s")
    mult = square_decompose_poly(C.discriminant("s"))[0]
    return (-b(r) + mult(r) * t) / (2 * a(r))


@pytest.fixture(scope="module")
def radius3_specs():
    return builtin_scans(radius=3, budget=BUD)


class TestIntegerMap:
    """The parameter map is one integer linear-fractional form."""

    def test_matches_point_map_and_quartic_inverse(self, radius3_specs):
        degenerate = 0
        for spec in radius3_specs.values():
            ref, C = reference_map(spec), scan_row(spec.name).correspondence
            points = [INFINITY] + [
                spec.lattice_point(n, m) for n in range(-3, 4) for m in range(-3, 4)
            ]
            for P in points:
                expected = ref(P)
                if expected is None:
                    degenerate += 1
                    with pytest.raises(DegenerateFiber):
                        spec.mapping.parameter(P)
                    if C is not None:
                        with pytest.raises(DegenerateFiber):
                            spec.mapping.coordinates(P)
                    continue
                r, t = expected
                assert spec.mapping.parameter(P) == r
                if C is not None:
                    assert spec.mapping.coordinates(P) == (r, reference_companion(C, r, t))
        # (1, 0) of Z8-scan-2 and (1, 1) of Z2x6-scan-1 lie over the
        # quartic's fiber at infinity
        assert degenerate == 2

    def test_value_error_in_the_map_propagates(self, specs, monkeypatch):
        # a fault inside the map is not a degenerate fiber: the scan stops
        class Broken:
            def __call__(self, *args):
                raise ValueError("fault in the map")

            at = __call__

        spec = specs["Z8-scan-2"]
        monkeypatch.setattr(spec.mapping, "_inv", Broken())
        with pytest.raises(ValueError, match="fault in the map"):
            lattice_scan(spec)

    def test_corrupted_coefficient_trips_the_quartic_check(self, specs):
        spec = specs["Z8-scan-1"]
        inv = spec.mapping._inv
        (xx, xy, x1), num, (dx, dy, d1) = inv.forms
        P = spec.lattice_point(1, 1)
        assert spec.mapping.parameter(P) == inv(P)[0]
        for bad in (
            QuarticInverse(inv.q, inv.u0, inv.t0, inv.d + 1, *inv.forms),
            QuarticInverse(inv.q, inv.u0, inv.t0, inv.d, (xx, xy, x1 + 1), num, (dx, dy, d1)),
            QuarticInverse(inv.q, inv.u0, inv.t0, inv.d, (xx, xy, x1), num, (dx, dy + 1, d1)),
        ):
            with pytest.raises(AssertionError, match="q\\(u\\) fails"):
                bad(P)


class TestRecords:
    def test_copies_are_checked(self, specs):
        spec = specs["Z8-scan-1"]
        G1, G2 = spec.generators
        with pytest.raises(ValueError, match="must lie on the parametrizer"):
            spec._replace(generators=(CurvePoint(G1.x + 1, G1.y), G2))
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            spec._replace(radius=-1)
        assert spec._replace(radius=3).radius == 3
        # r^2 - s^2 factors
        with pytest.raises(ValueError, match="irreducible"):
            CURVE_C._replace(coeffs=((0, 0, -1), (0, 0, 0), (1, 0, 0)))
        # a copy coerces as the constructor does
        assert CURVE_C._replace(coeffs=[[int(c) for c in row] for row in CURVE_C.coeffs]) == CURVE_C

    @pytest.mark.parametrize("name", ["radius", "coeffs", "root", "other"])
    def test_setting_an_attribute_raises(self, specs, grids, name):
        grid = grids["Z2x6-scan-1"]
        for record in (specs["Z2x6-scan-1"], CURVE_C, grid, grid.cells[0]):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)


class TestLatticeScan:
    def test_origin_skipped(self, grids):
        for grid in grids.values():
            c = next(c for c in grid.cells if (c.n, c.m) == (0, 0))
            assert c.skipped and c.root is None

    def test_counts_match_cells(self, grids):
        for grid in grids.values():
            plus = sum(1 for c in grid.cells if c.complete and c.root == 1)
            minus = sum(1 for c in grid.cells if c.complete and c.root == -1)
            skipped = sum(1 for c in grid.cells if c.skipped)
            incomplete = sum(
                1 for c in grid.cells if not c.skipped and not c.complete
            )
            assert grid.counts == (plus, minus, incomplete, skipped)

    def test_deterministic(self, specs, grids):
        spec = specs["Z2x6-scan-1"]
        again = lattice_scan(spec)
        assert again.to_csv() == grids["Z2x6-scan-1"].to_csv()
        assert again.to_json() == grids["Z2x6-scan-1"].to_json()

    def test_counted_cell_proves_each_point_once(self, specs, grids, monkeypatch):
        # the generators were proven in the ScanSpec constructor, so only
        # torsion_subgroup's hints are checked on the curve, and no check
        # comes from lattice_point
        real = WeierstrassCurve.contains
        callers = []
        stops = {"_scan_cell", sys._getframe().f_code.co_name}

        def counted(E, P):
            f, chain = sys._getframe(1), []
            while f.f_code.co_name not in stops:
                chain.append(f.f_code.co_name)
                f = f.f_back
            callers.append(tuple(chain))
            return real(E, P)

        monkeypatch.setattr(WeierstrassCurve, "contains", counted)
        spec = specs["Z2x6-scan-1"]
        cell = next(c for c in grids[spec.name].cells if not c.skipped)
        assert scan._scan_cell(spec, cell.n, cell.m) == cell
        assert callers and all(chain == ("torsion_subgroup",) for chain in callers)
        callers.clear()
        spec.lattice_point(2, -1)
        assert callers == []

    def test_counted_cells_find_torsion_in_ints(self, specs, grids, monkeypatch):
        # each cell curve is y^2 = x^3 + Ax^2 + Bx over Z: its 2-torsion
        # takes one square test, and its hints' orders an int walk
        from ellfam import curves

        roots, adds = [], []
        real_roots, real_add = curves.rational_roots, WeierstrassCurve.add

        def counted_add(E, P, Q, check=True):
            adds.append(sys._getframe(1).f_code.co_name)
            return real_add(E, P, Q, check)

        monkeypatch.setattr(curves, "rational_roots", lambda p: roots.append(p) or real_roots(p))
        monkeypatch.setattr(WeierstrassCurve, "add", counted_add)
        for name, spec in specs.items():
            cell = next(c for c in grids[name].cells if not c.skipped)
            assert scan._scan_cell(spec, cell.n, cell.m) == cell
        assert len(specs) == 3
        assert roots == [] and "_multiples" not in adds

    def test_csv_shape(self, grids):
        grid = grids["Z8-scan-1"]
        lines = grid.to_csv().strip().split("\n")
        assert lines[0] == "n,m,root,complete,skipped"
        assert len(lines) == 1 + (2 * grid.radius + 1) ** 2

    def test_json_mirror(self, grids):
        import json

        grid = grids["Z8-scan-2"]
        payload = json.loads(grid.to_json())
        assert payload["name"] == "Z8-scan-2"
        assert payload["counts"]["skipped"] == grid.counts[3]
        assert len(payload["cells"]) == (2 * grid.radius + 1) ** 2


class TestSymmetryAudit:
    def test_zero_violations(self, specs, grids):
        for name, grid in grids.items():
            rep = symmetry_audit(grid, specs[name].symmetry, spec=specs[name])
            assert rep.violations == ()
            assert rep.isomorphism_failures == ()
            assert rep.isomorphic_pairs >= 1

    def test_fault_injection(self, specs, grids):
        grid = grids["Z8-scan-2"]
        spec = specs["Z8-scan-2"]
        a, b = spec.symmetry
        index = {(c.n, c.m): c for c in grid.cells}
        target = next(
            c
            for c in grid.cells
            if c.complete
            and c.root is not None
            and (a - c.n, b - c.m) != (c.n, c.m)
            and (a - c.n, b - c.m) in index
            and index[(a - c.n, b - c.m)].complete
            and index[(a - c.n, b - c.m)].root is not None
        )
        corrupted = tuple(
            c._replace(root=-c.root) if (c.n, c.m) == (target.n, target.m) else c
            for c in grid.cells
        )
        bad = ScanGrid(name=grid.name, radius=grid.radius, cells=corrupted)
        rep = symmetry_audit(bad, spec.symmetry, spec=spec)
        assert len(rep.violations) == 1


@pytest.fixture(scope="module")
def radius2_specs():
    return builtin_scans(radius=2, budget=BUD)


def _independent_cells(spec):
    return tuple(
        scan._scan_cell(spec, n, m)
        for n in range(-spec.radius, spec.radius + 1)
        for m in range(-spec.radius, spec.radius + 1)
    )


def _later_cells(grid, symmetry):
    """(earlier partner, later cell) for each symmetric pair of cells of
    grid, ordered as lattice_scan meets them."""
    a, b = symmetry
    index = {(c.n, c.m): c for c in grid.cells}
    return [
        (index[a - c.n, b - c.m], c)
        for c in grid.cells
        if (a - c.n, b - c.m) in index and (a - c.n, b - c.m) < (c.n, c.m)
    ]


class TestOrbits:
    """lattice_scan computes one root number per proven symmetric pair."""

    def test_grid_equals_independent_cells(self, specs, grids, radius2_specs):
        for spec in [*specs.values(), radius2_specs["Z2x6-scan-1"]]:
            grid = grids[spec.name] if spec.radius == 1 else lattice_scan(spec)
            assert grid.cells == _independent_cells(spec), (spec.name, spec.radius)

    @pytest.mark.parametrize(
        "name,budget,incomplete",
        [("Z2x6-scan-1", BUD, 0), ("Z8-scan-1", FactorBudget(100, 0), 6)],
        ids=["Z2x6-scan-1", "Z8-scan-1-trial-100"],
    )
    def test_every_unskipped_partner_is_proven_and_used(
        self, radius2_specs, monkeypatch, name, budget, incomplete
    ):
        # a later cell with an unskipped partner, complete or not, costs one
        # proof and no root number; every other non-skipped cell costs one
        # root number
        spec = radius2_specs[name]._replace(budget=budget)
        roots = []
        real = scan.global_root_number
        monkeypatch.setattr(
            scan, "global_root_number", lambda E, *a, **k: roots.append(E) or real(E, *a, **k)
        )
        grid = lattice_scan(spec)
        later = [(o, c) for o, c in _later_cells(grid, spec.symmetry) if not o.skipped]
        pairs = [((o.n, o.m), (c.n, c.m)) for o, c in later if not c.skipped]
        assert len(pairs) >= 5 and list(grid.proven_pairs) == pairs
        # Z8-scan-1's incomplete partners carry different parameters
        borrowed = [(o, c) for o, c in later if not o.complete and not c.skipped]
        assert len(borrowed) == incomplete
        assert all(o.parameter != c.parameter for o, c in borrowed)
        unskipped = sum(1 for c in grid.cells if not c.skipped)
        assert len(roots) == unskipped - len(pairs)
        rep = symmetry_audit(grid, spec.symmetry, spec=spec)
        assert rep.isomorphism_failures == ()
        assert rep.isomorphic_pairs == sum(
            1 for o, c in _later_cells(grid, spec.symmetry) if not o.skipped and not c.skipped
        )

    def test_unproven_pair_is_computed_twice_and_reported(self, radius2_specs, monkeypatch):
        spec = radius2_specs["Z2x6-scan-1"]
        clean = lattice_scan(spec)
        first, later = clean.proven_pairs[0]
        index = {(c.n, c.m): c for c in clean.cells}
        pair = {
            spec.family.specialize(index[cell].parameter, spec.budget).curve()
            for cell in (first, later)
        }
        real = scan.isomorphic_over_Q

        def failing(E1, E2):
            return None if {E1, E2} == pair else real(E1, E2)

        tested = []
        real_torsion = scan.torsion_subgroup
        monkeypatch.setattr(scan, "isomorphic_over_Q", failing)
        monkeypatch.setattr(
            scan, "torsion_subgroup", lambda E, **k: tested.append(E) or real_torsion(E, **k)
        )
        grid = lattice_scan(spec)
        assert grid.cells == clean.cells
        assert grid.proven_pairs == tuple(p for p in clean.proven_pairs if p != (first, later))
        assert sum(1 for E in tested if E in pair) == 2
        rep = symmetry_audit(grid, spec.symmetry, spec=spec)
        assert rep.isomorphism_failures == ((first, later),)
        assert rep.violations == ()

    def test_partner_of_incomplete_cell_is_borrowed(self, radius2_specs):
        # trial division to 100 and no rho leave most cells incomplete; the
        # later cell of an incomplete pair takes its partner's cell, which
        # equals the cell computed on its own
        spec = radius2_specs["Z8-scan-2"]._replace(budget=FactorBudget(100, 0))
        grid = lattice_scan(spec)
        later = [
            (o, c) for o, c in _later_cells(grid, spec.symmetry)
            if not o.complete and not o.skipped and not c.skipped
        ]
        assert len(later) >= 3
        proven = {c for _o, c in grid.proven_pairs}
        assert all((c.n, c.m) in proven for _o, c in later)
        assert grid.cells == _independent_cells(spec)
        rep = symmetry_audit(grid, spec.symmetry, spec=spec)
        assert rep.isomorphism_failures == () and rep.isomorphic_pairs >= len(later)

    def test_each_rest_split_once_per_scan(self, radius2_specs, monkeypatch):
        # symmetric partners share parts, and a borrowed cell factors
        # nothing: within one scan each rest > 1 is split once, the next
        # scan splits the same rests again, and the grid is the one the
        # cells give computed on their own
        spec = radius2_specs["Z8-scan-2"]
        calls = []
        real = arith._split_rest
        monkeypatch.setattr(
            arith, "_split_rest", lambda n, found, budget: calls.append(n) or real(n, found, budget)
        )
        runs = []
        for _ in range(2):
            grid = lattice_scan(spec)
            runs.append([n for n in calls if n > 1])
            calls.clear()
        assert grid.cells == _independent_cells(spec)
        alone = [n for n in calls if n > 1]
        assert runs[0] == runs[1] and len(set(runs[0])) == len(runs[0])
        assert set(alone) == set(runs[0]) and len(alone) > len(runs[0])

    @pytest.mark.parametrize(
        "budget,counts",
        [
            (FactorBudget(100, 0), {"Z8-scan-1": 16, "Z2x6-scan-1": 13, "Z8-scan-2": 19}),
            (FactorBudget(1000, 0), {"Z8-scan-1": 13, "Z2x6-scan-1": 9, "Z8-scan-2": 19}),
        ],
        ids=["trial-100", "trial-1000"],
    )
    def test_borrowed_incomplete_pairs_at_radius_3(self, radius3_specs, budget, counts):
        # the borrowed cells of incomplete pairs equal the cells computed on
        # their own; the counts are absolute, so a borrow rule that stops
        # borrowing them shows
        for name, expected in counts.items():
            spec = radius3_specs[name]._replace(budget=budget)
            grid = lattice_scan(spec)
            index = {(c.n, c.m): c for c in grid.cells}
            borrowed = [p for p in grid.proven_pairs if not index[p[0]].complete]
            assert len(borrowed) == expected, name
            assert grid.cells == _independent_cells(spec), name

    def test_scan_never_reads_section_points(self, specs, monkeypatch):
        # a scan cell needs the torsion points only
        def unread(sp):
            raise AssertionError(f"{sp.label} at {sp.value}: points read")

        monkeypatch.setattr(families.SpecializedCurve, "points", property(unread))
        for spec in specs.values():
            grid = lattice_scan(spec)
            symmetry_audit(grid, spec.symmetry, spec=spec)


def _members(spec):
    """The specialized curves of the grid's non-skipped cells."""
    out = []
    for n in range(-spec.radius, spec.radius + 1):
        for m in range(-spec.radius, spec.radius + 1):
            try:
                param = spec.mapping.parameter(spec.lattice_point(n, m))
                out.append(spec.family.specialize(param, spec.budget))
            except (DegenerateFiber, SingularMember):
                continue
    return out


class TestFamilyParts:
    def test_same_factorization_as_generic_parts(self, radius2_specs):
        # the family's Q[u] factors against (2, a4, a2^2 - 4 a4)
        compared = 0
        for spec in radius2_specs.values():
            for sp in _members(spec):
                E = sp.curve()
                parts = spec.family.discriminant_parts(sp)
                af, _invs, ff = _minimal_ints(*_integral_ints(E), BUD, parts)
                ag, _invs, fg = _minimal_ints(*_integral_ints(E), BUD)
                assert af == ag and ff.value() == fg.value()
                assert ff.complete or not fg.complete
                if ff.complete and fg.complete:
                    assert ff == fg
                    compared += 1
        assert compared >= 20

    def test_missing_prime_is_never_complete(self, radius2_specs):
        spec = radius2_specs["Z2x6-scan-1"]
        checked = 0
        for sp in _members(spec):
            E = sp.curve()
            parts = spec.family.discriminant_parts(sp)
            rn = global_root_number(E, BUD, parts=parts)
            if not rn.complete:
                continue
            for p in rn.local_breakdown:
                def without_p(x):
                    while x % p == 0:
                        x //= p
                    return x

                stripped = [without_p(x) for x in parts]
                assert not global_root_number(E, BUD, parts=stripped).complete
                checked += 1
        assert checked >= 100


class TestSingularMembers:
    def test_root_of_B_is_skipped(self):
        fam = families.catalog()["Z2x6R2-3"]
        with pytest.raises(SingularMember):
            fam.specialize(15)

    def test_other_errors_propagate(self, specs, monkeypatch):
        def broken(*args):
            raise ValueError("not a degenerate member")

        monkeypatch.setattr(families, "square_part", broken)
        with pytest.raises(ValueError, match="not a degenerate member"):
            lattice_scan(specs["Z8-scan-2"])
