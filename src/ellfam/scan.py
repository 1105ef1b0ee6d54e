"""Mordell-Weil lattice scans over the curve catalog.

A scan walks lattice points ``n*G1 + m*G2`` on a rank-2 parametrizing
elliptic curve, sends each one to a rational parameter value of a rank-2
catalog family, and records the global root number of the specialized
curve in a grid.

The parametrizing curve is the global minimal model of the Jacobian of a
square-reduced quartic ``t^2 = q(r)``, its origin over the quartic's known
point (u0, t0).  The inverse quartic map, pulled back onto it once, is one
linear-fractional form with integer coefficients; a point then determines
``r`` (and ``t``) in integer arithmetic, and - when a biquadratic
compatibility curve links two families - the companion coordinate ``s`` by
the quadratic formula.  Points where the form's denominator vanishes lie
over the quartic's fiber at infinity and raise DegenerateFiber.  As t -> -t
is P -> Q0 - P, Q0 over (u0, -t0), builtin_scans pairs the cells (n, m)
and (a - n, b - m) for the (a, b) with Q0 = a G1 + b G2 up to torsion.

Cells are filled in (n, m) order: each row's first point is the previous
row's plus G1 and the row is walked by adding G2, so a cell costs one
group-law addition.  A cell whose symmetric partner came earlier and is
not skipped takes the partner's cell once the two curves are proven
Q-isomorphic, complete or not; every other cell is computed on its own.
The grid is deterministic for a fixed spec and budget.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .arith import DEFAULT_BUDGET, FactorBudget, rational_to_string
from .curves import (
    CurvePoint,
    WeierstrassCurve,
    isomorphic_over_Q,
    torsion_subgroup,
)
from .families import CurveFamily, SingularMember, SpecializedCurve, catalog
from .localdata import minimal_model
from .polyq import NotASquare, PolyQ, poly_sqrt, square_decompose_poly
from .rootnum import MissingLocalCase, global_root_number
from .sections import quartic_jacobian

Scalar = Union[int, Fraction]


class DegenerateFiber(Exception):
    """The quadratic fiber (or the parameter map) degenerates at the point."""


# ---------------------------------------------------------------------------
# biquadratic curves
# ---------------------------------------------------------------------------


class _BiquadraticFields(NamedTuple):
    coeffs: tuple[tuple[Fraction, Fraction, Fraction], ...]


class BiquadraticCurve(_BiquadraticFields):
    """F(r, s) = sum coeffs[i][j] * r^i * s^j = 0 with degree <= 2 per variable.

    Invariants: F is irreducible over Q and has degree exactly 2 in at
    least one variable, so the curve carries at least one fiber-swap
    involution.
    """

    __slots__ = ()

    def __new__(cls, coeffs):
        rows = tuple(
            tuple(Fraction(c) for c in row) for row in coeffs
        )
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise ValueError("expected a 3 x 3 coefficient array")
        self = super().__new__(cls, rows)
        deg_r = max((i for i in range(3) for j in range(3) if rows[i][j]), default=-1)
        deg_s = max((j for i in range(3) for j in range(3) if rows[i][j]), default=-1)
        if deg_r != 2 and deg_s != 2:
            raise ValueError("degree must be exactly 2 in at least one variable")
        if not self._is_irreducible("s" if deg_s == 2 else "r"):
            raise ValueError("the defining polynomial must be irreducible")
        return self

    # _replace copies through _make, so a changed copy is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def _is_irreducible(self, var: str) -> bool:
        """F = a x^2 + b x + c, x = ``var`` of degree 2, is reducible over Q
        exactly when gcd(a, b, c) is nonconstant or b^2 - 4ac is a square
        in Q[y] (a root in Q(y), whose factors lift by Gauss's lemma)."""
        a, b, c = self.quadratic_polys(var)
        if not a.gcd(b).gcd(c).is_constant():
            return False
        try:
            poly_sqrt(self.discriminant(var))
        except NotASquare:
            return True
        return False

    def quadratic_polys(self, var: str) -> tuple[PolyQ, PolyQ, PolyQ]:
        """(a, b, c) with F = a*x^2 + b*x + c, x the eliminated variable
        ``var`` and a, b, c polynomials in the other variable."""
        if var not in ("r", "s"):
            raise ValueError("var must be 'r' or 's'")
        other = "s" if var == "r" else "r"
        x = PolyQ.variable(other)
        out = []
        for k in (2, 1, 0):
            if var == "s":
                poly = sum((self.coeffs[i][k] * x**i for i in range(3)), PolyQ.const(0, other))
            else:
                poly = sum((self.coeffs[k][j] * x**j for j in range(3)), PolyQ.const(0, other))
            out.append(poly)
        return tuple(out)

    def discriminant(self, var: str) -> PolyQ:
        """b^2 - 4ac of the quadratic in ``var``, a polynomial in the other
        variable."""
        a, b, c = self.quadratic_polys(var)
        return b * b - 4 * a * c


# ---------------------------------------------------------------------------
# parameter maps
# ---------------------------------------------------------------------------


class ParameterMap:
    """Exact map from parametrizer points to family parameter values.

    The map goes through the quartic t^2 = q(r) with ``point`` on it; given
    a biquadratic ``correspondence`` instead, one square decomposition of
    its discriminant in s, mult^2 * q, gives both q and the companion root.
    ``parametrizer`` is the quartic Jacobian's global minimal model
    (localdata.minimal_model), its origin over ``point`` = (u0, t0), and
    P and ``q0`` - P carry the same r, q0 the point over (u0, -t0).

    The quartic's inverse map (sections.QuarticInverse) is pulled back
    once, here, through the isomorphism from the parametrizer to the
    quartic's Jacobian, the inverse of the one minimal_model returned
    (PointMap.inverse): r is then one linear-fractional form in the
    parametrizer's coordinates, with integer coefficients, and t comes from
    the same forms.  The parametrizer is integral, so a point is
    x = X/e^2, y = Y/e^3, and both are evaluated in integers, with
    t^2 = q(r) checked on them.

    ``parameter(P)`` gives the kept coordinate r; ``coordinates(P)`` also
    returns the companion coordinate s on the correspondence, the root of
    its quadratic in s taken with the quartic's t.
    Points where the form's denominator vanishes, those over the quartic's
    fiber at infinity, raise DegenerateFiber.
    """

    def __init__(
        self,
        point: tuple[Scalar, Scalar],
        q: Optional[PolyQ] = None,
        correspondence: Optional[BiquadraticCurve] = None,
    ):
        if (q is None) == (correspondence is None):
            raise ValueError("give exactly one of q and correspondence")
        if correspondence is not None:
            a, b, _ = correspondence.quadratic_polys("s")
            mult, q = square_decompose_poly(correspondence.discriminant("s"))
            self._companion = (a, b, mult)
        else:
            self._companion = None
        jacobian, fwd, inv = quartic_jacobian(q, point)
        self.parametrizer, to_min = minimal_model(jacobian)
        self.q0 = to_min.forward(fwd(point[0], -point[1]))
        self._inv = inv.pull_back(to_min.inverse())

    def _quartic_point(self, P: CurvePoint) -> tuple[Fraction, Fraction]:
        if P.is_infinity:
            return self._inv(P)
        x, y = P.x, P.y
        rt = self._inv.at(x.numerator, y.numerator, math.isqrt(x.denominator))
        if rt is None:
            raise DegenerateFiber("point lies over the fiber at infinity")
        return rt

    def parameter(self, P: CurvePoint) -> Fraction:
        """The family parameter carried by P."""
        return self._quartic_point(P)[0]

    def coordinates(self, P: CurvePoint) -> tuple[Fraction, Fraction]:
        """(r, s) on the attached biquadratic curve."""
        if self._companion is None:
            raise ValueError("no biquadratic correspondence attached")
        r, t = self._quartic_point(P)
        a, b, mult = self._companion
        av = a(r)
        if av == 0:
            raise DegenerateFiber("companion fiber degenerates at this parameter")
        s = (-b(r) + mult(r) * t) / (2 * av)
        return r, s


# ---------------------------------------------------------------------------
# scan specification and grid
# ---------------------------------------------------------------------------


class _SpecFields(NamedTuple):
    name: str
    generators: tuple[CurvePoint, CurvePoint]
    family: CurveFamily
    mapping: ParameterMap
    symmetry: tuple[int, int]
    radius: int = 2
    companion_family: Optional[CurveFamily] = None
    budget: FactorBudget = DEFAULT_BUDGET


class ScanSpec(_SpecFields):
    """Everything needed to run one lattice scan on mapping.parametrizer.

    ``symmetry = (a, b)`` declares that the cells (n, m) and (a-n, b-m)
    carry Q-isomorphic curves (builtin_scans derives it: _symmetry).
    """

    __slots__ = ()
    parametrizer = property(lambda self: self.mapping.parametrizer)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        for P in self.generators:
            if not self.parametrizer.contains(P):
                raise ValueError("the generators must lie on the parametrizer")
        return self

    # _replace copies through _make, so a changed copy is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def lattice_point(self, n: int, m: int) -> CurvePoint:
        """n G1 + m G2; the generators were proven on the curve above."""
        E = self.parametrizer
        G1, G2 = self.generators
        return E.add(E.mul(n, G1, check=False), E.mul(m, G2, check=False), check=False)


class ScanCell(NamedTuple):
    n: int
    m: int
    root: Optional[int]
    complete: bool
    skipped: bool
    parameter: Optional[Fraction] = None


class ScanGrid(NamedTuple):
    """Scan results: one cell per lattice point."""

    name: str
    radius: int
    cells: tuple[ScanCell, ...]
    # symmetric pairs (earlier cell, later cell) whose curves lattice_scan
    # proved Q-isomorphic, the later cell taking the earlier one's root and
    # completeness; a pair with a skipped cell is never listed
    proven_pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = ()

    @property
    def counts(self) -> tuple[int, int, int, int]:
        """(#+1 among complete, #-1 among complete, #incomplete, #skipped)."""
        cells = self.cells
        return (
            sum(1 for c in cells if c.complete and c.root == 1),
            sum(1 for c in cells if c.complete and c.root == -1),
            sum(1 for c in cells if not c.skipped and not c.complete),
            sum(1 for c in cells if c.skipped),
        )

    def to_csv(self) -> str:
        lines = ["n,m,root,complete,skipped"]
        for c in self.cells:
            root = "" if c.root is None else str(c.root)
            lines.append(
                f"{c.n},{c.m},{root},{str(c.complete).lower()},{str(c.skipped).lower()}"
            )
        return "\n".join(lines) + "\n"

    def counts_by_name(self) -> dict[str, int]:
        """counts keyed plus, minus, incomplete and skipped."""
        return dict(zip(("plus", "minus", "incomplete", "skipped"), self.counts))

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "radius": self.radius,
            "counts": self.counts_by_name(),
            "cells": [
                {
                    "n": c.n,
                    "m": c.m,
                    "root": c.root,
                    "complete": c.complete,
                    "skipped": c.skipped,
                    "parameter": None
                    if c.parameter is None
                    else rational_to_string(c.parameter),
                }
                for c in self.cells
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _member(
    spec: ScanSpec, n: int, m: int, T: CurvePoint
) -> Union[ScanCell, SpecializedCurve]:
    """The family member at lattice point T = n G1 + m G2, or its skipped
    cell where the parameter map or the member degenerates."""
    try:
        param = spec.mapping.parameter(T)
    except DegenerateFiber:
        return ScanCell(n, m, root=None, complete=False, skipped=True)
    try:
        return spec.family.specialize(param, spec.budget)
    except SingularMember:
        return ScanCell(n, m, root=None, complete=False, skipped=True, parameter=param)


def _scan_cell(
    spec: ScanSpec,
    n: int,
    m: int,
    member: Optional[tuple[SpecializedCurve, WeierstrassCurve]] = None,
) -> ScanCell:
    """The cell (n, m) computed on its own: its member sp and sp's curve E
    (specialized here from n G1 + m G2 when not given), its torsion, then
    its root number."""
    if member is None:
        sp = _member(spec, n, m, spec.lattice_point(n, m))
        if isinstance(sp, ScanCell):
            return sp
        member = sp, sp.curve()
    sp, E = member
    param = sp.value
    tg = torsion_subgroup(E, hints=sp.torsion_points)
    if tg.structure != spec.family.torsion:
        # outside the family's generic isomorphism class
        return ScanCell(n, m, root=None, complete=False, skipped=True, parameter=param)
    try:
        rn = global_root_number(
            E, spec.budget, parts=spec.family.discriminant_parts(sp)
        )
    except MissingLocalCase:
        return ScanCell(n, m, root=None, complete=False, skipped=False, parameter=param)
    return ScanCell(
        n, m, root=rn.value, complete=rn.complete, skipped=False, parameter=param
    )


def lattice_scan(spec: ScanSpec) -> ScanGrid:
    """Run the scan over the full (2*radius+1)^2 grid.

    Cells are filled in (n, m) order: the first row starts at
    lattice_point(-R, -R), each later row at the previous row's first point
    plus G1, and each row is walked by adding G2 to its previous point.
    A cell whose symmetric partner (a - n, b - m) came earlier and is not
    skipped is specialized, and once isomorphic_over_Q proves its curve
    Q-isomorphic to the partner's it takes the partner's root and
    completeness: isomorphic curves share torsion and root number.  Every
    other cell is computed on its own (_scan_cell); a pair whose proof
    fails is left out of the grid's ``proven_pairs``, so symmetry_audit
    checks it again.

    Per-cell failures never abort the scan: degenerate parameters are
    flagged skipped, and cells whose discriminants exceed the factoring
    budget are flagged incomplete.  The output is deterministic.

    That a borrowed complete cell equals the cell computed on its own
    follows from the isomorphism.  For an incomplete partner it is
    measured, not proven, since the budget runs on each cell's own
    discriminant parts.  For Z8-scan-2, a G1 + b G2 - Q0 is O and the
    partners share their parameter; for Z8-scan-1 and Z2x6-scan-1 it is a
    point of order 2, and the partners' parameters and parts differ.  The
    built-in scans give the grid of their cells computed on their own at
    radius 1-3 at the acceptance budget, and at radius 2-5 under
    FactorBudget(100, 0), (1000, 0) and (10^4, 0).
    """
    E = spec.parametrizer
    G1, G2 = spec.generators
    a, b = spec.symmetry
    R = spec.radius
    cells: dict[tuple[int, int], ScanCell] = {}
    curves: dict[tuple[int, int], WeierstrassCurve] = {}
    proven = []
    start = spec.lattice_point(-R, -R)
    for n in range(-R, R + 1):
        if n > -R:
            start = E.add(start, G1, check=False)
        T = start
        for m in range(-R, R + 1):
            if m > -R:
                T = E.add(T, G2, check=False)
            member = _member(spec, n, m, T)
            if isinstance(member, ScanCell):
                cells[n, m] = member
                continue
            curves[n, m] = curve = member.curve()
            o = (a - n, b - m)
            if o in cells and not cells[o].skipped and isomorphic_over_Q(curves[o], curve):
                proven.append((o, (n, m)))
                cells[n, m] = cells[o]._replace(n=n, m=m, parameter=member.value)
            else:
                cells[n, m] = _scan_cell(spec, n, m, (member, curve))
    return ScanGrid(spec.name, R, tuple(cells.values()), tuple(proven))


# ---------------------------------------------------------------------------
# symmetry audit
# ---------------------------------------------------------------------------


class SymmetryReport(NamedTuple):
    violations: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    isomorphic_pairs: int
    isomorphism_failures: tuple[tuple[tuple[int, int], tuple[int, int]], ...]


def symmetry_audit(
    grid: ScanGrid,
    symmetry: tuple[int, int],
    spec: ScanSpec,
) -> SymmetryReport:
    """Check that symmetric cells carry equal root numbers and curves.

    ``symmetry`` is a pair (a, b), declaring the involution
    (n, m) -> (a - n, b - m).  Complete symmetric pairs with differing
    signs are reported as violations.  Every symmetric pair of non-skipped
    cells must be Q-isomorphic: the pairs in the grid's ``proven_pairs``
    were proven by lattice_scan, which tries every such pair, so only a
    pair whose proof failed there is proven again here, on the curves that
    ``spec``'s family gives the two parameters; a pair with no isomorphism
    is reported in ``isomorphism_failures``.
    """
    a, b = symmetry
    index = {(c.n, c.m): c for c in grid.cells}
    proven = set(grid.proven_pairs)
    violations = []
    isomorphic = 0
    iso_failures = []
    for c in grid.cells:
        o = (a - c.n, b - c.m)
        if o not in index or o <= (c.n, c.m):
            continue
        oc = index[o]
        if c.complete and oc.complete and c.root is not None and oc.root is not None:
            if c.root != oc.root:
                violations.append(((c.n, c.m), o))
        if c.skipped or oc.skipped:
            continue
        if ((c.n, c.m), o) not in proven:
            Ea = spec.family.specialize(c.parameter, spec.budget).curve()
            Eb = spec.family.specialize(oc.parameter, spec.budget).curve()
            if isomorphic_over_Q(Ea, Eb) is None:
                iso_failures.append(((c.n, c.m), o))
                continue
        isomorphic += 1
    return SymmetryReport(
        violations=tuple(violations),
        isomorphic_pairs=isomorphic,
        isomorphism_failures=tuple(iso_failures),
    )


# ---------------------------------------------------------------------------
# the three built-in scans
# ---------------------------------------------------------------------------

# Compatibility curve linking the parameters of Z8R2-1 (variable r) and
# Z8R2-2 (variable s): a point (r, s) means both families specialize to the
# same curve, which then carries the sections of both.
CURVE_C = BiquadraticCurve((
    (Fraction(319), Fraction(0), Fraction(-11)),
    (Fraction(290), Fraction(-120), Fraction(10)),
    (Fraction(-29), Fraction(0), Fraction(1)),
))

# Compatibility curve linking the parameters of Z2x6R2-3 (variable r) and
# Z2x6R2-1 (variable s), in the same sense.
CURVE_D1 = BiquadraticCurve((
    (Fraction(5040), Fraction(-2700), Fraction(360)),
    (Fraction(-336), Fraction(168), Fraction(-24)),
    (Fraction(0), Fraction(1), Fraction(0)),
))


# One row per built-in scan: name, generators, family, the quartic t^2 = q
# (None: the correspondence's discriminant in s) with its known point, the
# correspondence, and the family of its second coordinate.  ParameterMap
# derives the parametrizer, and _symmetry the pair (a, b) of ScanSpec.
_SCANS = (
    # Z8R2-1 members with a second independent section.  Parameter pairs
    # live on CURVE_C, and the base cell maps to its point (-1, 0).
    ("Z8-scan-1", ((Fraction(-57, 4), Fraction(1043, 8)), (42, -89)),
     "Z8R2-1", None, (-1, 60), CURVE_C, "Z8R2-2"),
    # Z8R2-2 members with a second independent section.  The condition is
    # the single quartic t^2 = q(u), and the base cell maps to u = 0.
    ("Z8-scan-2", ((-77, -4410), (805, 21168)),
     "Z8R2-2", (7569, -2610, 453, -90, 9), (0, 87), None, None),
    # Z2x6R2-3 members with a second independent section.  Parameter pairs
    # live on CURVE_D1, and the base cell maps to its point (0, 4).
    ("Z2x6-scan-1", ((20, -44), (Fraction(4, 9), Fraction(-1540, 27))),
     "Z2x6R2-3", None, (0, 180), CURVE_D1, "Z2x6R2-1"),
)


def _symmetry(E: WeierstrassCurve, G1: CurvePoint, G2: CurvePoint, q0: CurvePoint):
    """The one (a, b) with |a|, |b| <= 2 and a G1 + b G2 - q0 of finite
    order (point_order: by Mazur's theorem, at most 12); ValueError unless
    exactly one pair in that box fits.  The three points are proven on E
    once, and the group law then runs unchecked."""
    for P in (G1, G2, q0):
        E._require(P)
    box = range(-2, 3)
    aG1 = [E.mul(a, G1, check=False) for a in box]
    rest = [E.sub(E.mul(b, G2, check=False), q0, check=False) for b in box]
    fits = [(a, b) for a, P in zip(box, aG1) for b, Q in zip(box, rest)
            if E.point_order(E.add(P, Q, check=False)) is not None]
    if len(fits) != 1:
        raise ValueError(f"expected one symmetry (a, b) with |a|, |b| <= 2, found {fits}")
    return fits[0]


def builtin_scans(
    radius: int = 2,
    budget: FactorBudget = DEFAULT_BUDGET,
) -> dict[str, ScanSpec]:
    """The three shipped scan setups keyed by name."""
    cat = catalog()
    specs = {}
    for name, gens, label, q, point, C, companion in _SCANS:
        mapping = ParameterMap(point, None if q is None else PolyQ(q, "u"), C)
        gens = tuple(CurvePoint(Fraction(x), Fraction(y)) for x, y in gens)
        specs[name] = ScanSpec(
            name=name,
            generators=gens,
            family=cat[label],
            mapping=mapping,
            symmetry=_symmetry(mapping.parametrizer, *gens, mapping.q0),
            radius=radius,
            companion_family=None if companion is None else cat[companion],
            budget=budget,
        )
    return specs
