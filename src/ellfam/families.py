"""Parametric curve families with torsion Z/8 and Z/2 x Z/6 over Q(u).

The two base models are derived, not transcribed: starting from the Tate
normal form y^2 + (1-c)xy - by = x^3 - bx^2 with the order-8 (resp. order-6)
relations between b and c, one change of coordinates over Q(v) moves its
2-torsion point to the origin, kills a1 and a3 and rescales, giving the
y^2 = x^3 + Ax^2 + Bx shape and carrying the torsion generator along.
Every further family in the catalog is produced by substituting a rational
function into the parameter and renormalizing.  One clearing rule serves a
substitution u = n/d and a member at a number u = p/q alike: scale by d^s
(or q^s), then strip the square part c (square_part).  Every catalog row
has one shape and stores only what cannot be derived: its parent, its
substitution, the abscissas of its sections, each written in the parent's
parameter wherever it is a function of it (then the substitution
transports it), and a specialization hint.  The y-coordinates are exact
square roots, and every substituted family's square condition is the
conic that its substitution parametrizes (_parametrized_conic).  Transported
points and lifted sections are formed already reduced
(polyq.reduced_substitute, verify_section), so a substitution takes no
polynomial gcd.

The catalog derives an entry, with its parent chain, the first time that
entry is read: a query about one family derives one to three.  Its
listing (label, torsion, rank, parent) is read off the table and derives
none: a row's rank is its count of section abscissas, and the torsion and
parent of the base models are stated once, in _BASE_MODELS.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from .arith import DEFAULT_BUDGET, FactorBudget, factor, squarefree_decompose, valuation
from .curves import INFINITY, CurvePoint, WeierstrassCurve
from .polyq import (
    PolyQ,
    RatFunc,
    _make_ratfunc,
    homogeneous_value,
    poly_sqrt,
    reduced_substitute,
)


def tate_normal_curve(b, c) -> WeierstrassCurve:
    """y^2 + (1-c)xy - by = x^3 - bx^2, with P = (0,0) on it."""
    zero = b * 0
    return WeierstrassCurve(1 - c, -b, -b, zero, zero, check=False)


def ratfunc_sqrt(f: RatFunc) -> RatFunc:
    """Exact square root in Q(u), or raise NotASquare."""
    num, den = f.num, f.den
    # den is monic; f = num/den is a square iff both parts are
    return RatFunc(poly_sqrt(num * den), den)


class SingularMember(ValueError):
    """The family's model is singular or degenerate at the parameter value:
    A(u) B(u) (A^2 - 4B)(u) = 0."""


class _MemberFields(NamedTuple):
    label: str
    value: Fraction
    A: int
    B: int
    sections: tuple[CurvePoint, ...]
    torsion_points: tuple[CurvePoint, ...]
    scale: Fraction


class SpecializedCurve(_MemberFields):
    """A member of a family at a rational parameter value, in integral form.

    (A, B) = (l^2 A(value), l^4 B(value)) and each point is mapped by
    (x, y) -> (l^2 x, l^3 y), for the scale l = q^s / c of specialize.
    The torsion points are mapped at once; ``points``, the images of the
    family's ``sections``, on first read, since a scan cell reads only the
    torsion points.
    """

    def __setattr__(self, *a):
        raise AttributeError("SpecializedCurve is immutable")

    def curve(self) -> WeierstrassCurve:
        return WeierstrassCurve(0, self.A, 0, self.B, 0)

    @cached_property
    def points(self) -> tuple[CurvePoint, ...]:
        return tuple(_specialize_point(P, self.value, self.scale) for P in self.sections)


def _specialize_point(P: CurvePoint, value: Fraction, lam: Fraction) -> CurvePoint:
    """P at ``value`` = p/q, mapped by (x, y) -> (l^2 x, l^3 y).  Each
    coordinate n/d is read off homogeneous_value on the integer
    coefficients of n and d, as specialize reads A and B; a zero
    denominator is a pole, which gives the point at infinity."""
    p, q = value.numerator, value.denominator
    coords = []
    for f, k in ((P.x, 2), (P.y, 3)):
        num, den = f.num, f.den
        d = homogeneous_value(den.ints, p, q) * num.den * lam.denominator**k
        if d == 0:
            return INFINITY
        n = homogeneous_value(num.ints, p, q) * den.den * lam.numerator**k
        e = den.degree - num.degree
        coords.append(Fraction(n * q**e, d) if e >= 0 else Fraction(n, d * q**-e))
    return CurvePoint(*coords)


class _FamilyFields(NamedTuple):
    label: str
    torsion: tuple[int, ...]
    A: PolyQ
    B: PolyQ
    torsion_points: tuple[CurvePoint, ...] = ()
    sections: tuple[CurvePoint, ...] = ()
    parent: Optional[str] = None
    substitution: Optional[RatFunc] = None
    condition: Optional[PolyQ] = None
    spec_hint: Optional[Fraction] = None


class CurveFamily(_FamilyFields):
    """y^2 = x^3 + A(t)x^2 + B(t)x over Q(t) with prescribed torsion."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # specialize reads A and B off their integer coefficients
        if self.A.den != 1 or self.B.den != 1:
            raise ValueError(f"{self.label}: A and B must have integer coefficients")
        return self

    # _replace copies through _make, so a changed copy is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __setattr__(self, *a):
        raise AttributeError("CurveFamily is immutable")

    @property
    def var(self) -> str:
        return self.A.var

    @property
    def rank(self) -> int:
        """The number of stored sections, independent over Q(t)."""
        return len(self.sections)

    def curve(self) -> WeierstrassCurve:
        zero = RatFunc.const(0, self.var)
        return WeierstrassCurve(
            zero, RatFunc(self.A), zero, RatFunc(self.B), zero, check=False
        )

    def verify(self) -> bool:
        """Check all stored points actually lie on the family curve.

        For x = xn/xd and y = yn/yd, y^2 = x^3 + Ax^2 + Bx is checked as the
        polynomial identity yn^2 xd^3 = yd^2 xn(xn^2 + A xn xd + B xd^2).
        """
        for P in self.torsion_points + self.sections:
            if P.is_infinity:
                continue
            x, y = RatFunc(P.x), RatFunc(P.y)
            if y.num * y.num * x.den**3 != y.den * y.den * _cleared_cubic(self, x.num, x.den):
                return False
        return True

    def specialize(
        self, value: Fraction | int, budget: FactorBudget = DEFAULT_BUDGET
    ) -> SpecializedCurve:
        """The member at ``value`` = p/q, or SingularMember where the model
        degenerates.  A and B have integer coefficients, so a = q^(2s) A(p/q)
        and b = q^(4s) B(p/q) are integers, and l = q^s / c for
        c = square_part(a, b): the budget only limits that strip.  A section
        with a pole at ``value`` meets the zero section on this fiber and
        specializes to the point at infinity."""
        value = Fraction(value)
        p, q = value.numerator, value.denominator
        s = _clearing_exponent(self)
        a = q ** (2 * s - self.A.degree) * homogeneous_value(self.A.ints, p, q)
        b = q ** (4 * s - self.B.degree) * homogeneous_value(self.B.ints, p, q)
        if a * b * (a * a - 4 * b) == 0:
            raise SingularMember(f"{self.label} degenerates at u = {value}")
        c = square_part(a, b, budget)
        lam = Fraction(q**s, c)
        return SpecializedCurve(
            label=self.label,
            value=value,
            A=a // (c * c),
            B=b // c**4,
            sections=self.sections,
            torsion_points=tuple(
                _specialize_point(P, value, lam) for P in self.torsion_points
            ),
            scale=lam,
        )

    @cached_property
    def discriminant_factors(self) -> tuple[tuple[Fraction, ...], tuple[PolyQ, ...]]:
        """The contents of B and A^2 - 4B, and their distinct irreducible
        factors over Q[u] (primitive, integer coefficients).

        Computed once per family object and kept on it.
        """
        contents: list[Fraction] = []
        factors: list[PolyQ] = []
        for f in (self.B, self.A * self.A - 4 * self.B):
            c, parts = f.factor()
            contents.append(c)
            factors.extend(g for g, _e in parts if g not in factors)
        return tuple(contents), tuple(factors)

    def discriminant_parts(self, sp: SpecializedCurve) -> tuple[int, ...]:
        """Integers whose primes cover those of disc(sp.curve()).

        With u = p/q and scale l = q^s / c, disc = 16 l^12 B(u)^2
        (A^2 - 4B)(u), and each factor g of B or A^2 - 4B contributes the
        integer q^deg(g) g(p/q); the rest is 2, c, q (whose primes are those
        of q^s) and the two contents.  Pass them to
        global_root_number(..., parts=...).
        """
        p, q = sp.value.numerator, sp.value.denominator
        contents, factors = self.discriminant_factors
        parts = [2, sp.scale.denominator, q]
        for c in contents:
            parts += [c.numerator, c.denominator]
        parts += [homogeneous_value(g.ints, p, q) for g in factors]
        return tuple(parts)


def _cleared_cubic(family: CurveFamily, xn: PolyQ, xd: PolyQ) -> PolyQ:
    """xd^3 (x^3 + Ax^2 + Bx) at x = xn/xd: xn(xn^2 + A xn xd + B xd^2)."""
    return xn * (xn * xn + family.A * xn * xd + family.B * (xd * xd))


def _clearing_exponent(family: CurveFamily) -> int:
    """s = max(ceil(deg A / 2), ceil(deg B / 4)): d^(2s) A(n/d) and
    d^(4s) B(n/d) are polynomials in n and d."""
    return max(-(-family.A.degree // 2), -(-family.B.degree // 4))


def square_part(a: int, b: int, budget: FactorBudget = DEFAULT_BUDGET) -> int:
    """The largest c with c^2 | a and c^4 | b over the primes that factoring
    gcd(a, b) finds within the budget; at such a prime p^e,
    min(e // 2, v_p(b) // 4) = min(v_p(a) // 2, v_p(b) // 4)."""
    fg = factor(math.gcd(a, b), budget)
    return math.prod(p ** min(e // 2, valuation(b, p) // 4) for p, e in fg.factors)


def _integer_pair(sub: RatFunc) -> tuple[PolyQ, PolyQ]:
    """Rewrite sub = n/d with coprime integer coefficients, leading(d) > 0
    (sub.den is monic, so its numerators lead with sub.den.den > 0)."""
    num, den = sub.num, sub.den
    ns = [c * den.den for c in num.ints]
    ds = [c * num.den for c in den.ints]
    g = math.gcd(*ns, *ds)
    return PolyQ([c // g for c in ns], num.var), PolyQ([c // g for c in ds], den.var)


def substitute_parameter(
    family: CurveFamily,
    sub: RatFunc,
    label: str,
    sections: Sequence[RatFunc | PolyQ] = (),
    spec_hint: Optional[Fraction | int] = None,
) -> CurveFamily:
    """Plug t := sub(new parameter) into a family and renormalize.

    The substituted model is cleared of denominators by (x, y) ->
    (l^2 x, l^3 y) with l = d^s, where d is the integer denominator of the
    substitution and s = _clearing_exponent(family); then the square part
    c of the two integer contents is stripped, so l = d^s / c, as in
    CurveFamily.specialize.  Torsion generators are transported, each
    coordinate (d^s / c)^w f(n/d) formed reduced for coprime n and d.
    ``sections`` gives the x-coordinates of infinite-order points, in order:
    one written in the family's variable is transported the same way (it
    acquires a rational y-coordinate only after the substitution), one
    written in the substitution's variable is taken as is.  Each y is the
    exact square root that verify_section finds.  The new family's
    condition is the conic that the substitution parametrizes
    (_parametrized_conic).
    """
    if sections and family.var == sub.var:
        raise ValueError(f"{label}: the parameter must be renamed to place the sections")
    n, d = _integer_pair(sub)
    s = _clearing_exponent(family)
    Ap = reduced_substitute(family.A, n, d, 2 * s).num
    Bp = reduced_substitute(family.B, n, d, 4 * s).num
    c = square_part(math.gcd(*Ap.ints), math.gcd(*Bp.ints))
    Ap = Ap * Fraction(1, c * c)
    Bp = Bp * Fraction(1, c**4)

    def scaled(f, w: int) -> RatFunc:
        """(d^s / c)^w f(n/d), formed reduced: n and d are coprime."""
        return reduced_substitute(f, n, d, w * s, c**w)

    def transport(P: CurvePoint) -> CurvePoint:
        return CurvePoint(scaled(P.x, 2), scaled(P.y, 3))

    new = CurveFamily(
        label=label,
        torsion=family.torsion,
        A=Ap,
        B=Bp,
        torsion_points=tuple(transport(P) for P in family.torsion_points),
        parent=family.label,
        substitution=sub,
        condition=_parametrized_conic(sub, family.var),
        spec_hint=None if spec_hint is None else Fraction(spec_hint),
    )
    if not new.verify():
        raise ValueError(f"transported points left the curve for {label}")
    # each section is proven by the exact square root that lifts it
    pts = (verify_section(new, scaled(x, 2) if x.var == family.var else x) for x in sections)
    return new._replace(sections=tuple(pts))


def _parametrized_conic(sub: RatFunc, var: str) -> PolyQ:
    """The conic in ``var`` that the quadratic substitution var = n(w)/d(w)
    parametrizes: n - var*d = a w^2 + b w + c has the root w0 at
    var = n(w0)/d(w0), so its discriminant b^2 - 4ac is a square there.
    Normalized as in sections.section_condition (free * P for P primitive
    with a positive leading coefficient, free the squarefree part of the
    content) by a content strip alone, with no gcd over Z[var].
    """
    n, d = _integer_pair(sub)
    if max(n.degree, d.degree) > 2:
        raise ValueError("the substitution is not quadratic")
    (n0, n1, n2), (d0, d1, d2) = ((list(f.ints) + [0, 0])[:3] for f in (n, d))
    disc = PolyQ([n1 * n1 - 4 * n0 * n2, 4 * (n0 * d2 + n2 * d0) - 2 * n1 * d1,
                  d1 * d1 - 4 * d0 * d2], var)
    g = math.gcd(*disc.ints) * (1 if disc.leading() > 0 else -1)
    _root, free = squarefree_decompose(g)
    return PolyQ([free * x // g for x in disc.ints], var)


def verify_section(family: CurveFamily, x: RatFunc | PolyQ) -> CurvePoint:
    """Lift an x-coordinate to a point of the family, or raise NotASquare.

    For x = xn/xd reduced, C = xn(xn^2 + A xn xd + B xd^2) is xn^3 mod xd,
    so C is coprime to xd and y^2 = C/xd^3 is already reduced: y exists
    exactly when the monic xd is r^2 and C is a square, and then
    y = sqrt(C)/r^3 is reduced too.  No gcd is taken.
    """
    x = RatFunc(x)
    r = poly_sqrt(x.den)
    y = _make_ratfunc(poly_sqrt(_cleared_cubic(family, x.num, x.den)), r * r * r)
    return CurvePoint(x, y)


# -- base models ----------------------------------------------------------

# label -> (torsion, parent) of each base model.  Z2x6 is substituted from
# the Z/6 Tate model, labelled Z6, which is no catalog entry.
_BASE_MODELS = {"Z8": ((8,), None), "Z2x6": ((2, 6), "Z6")}


def _tate_base_model(
    label: str, torsion: tuple[int, ...], b: RatFunc, c: RatFunc, k: int, u: RatFunc
) -> CurveFamily:
    """The Tate normal form with parameters (b, c) as y^2 = x^3 + Ax^2 + Bx.

    One change of coordinates x = u^2 x' + x(T), y = u^3 y' + s u^2 x' + t
    with s = -a1/2, t = -(a3 + a1 x(T))/2 moves the 2-torsion point T = kP
    of P = (0, 0) to the origin, kills a1 and a3, and rescales by u: it is
    the translation followed by the scaling (Silverman, AEC III.1).  P is
    carried along as the torsion generator.  A and B must come out
    polynomial, with B and A^2 - 4B nonzero.
    """
    zero = b * 0
    E = tate_normal_curve(b, c)
    P = CurvePoint(zero, zero)
    x_T = E.mul(k, P, check=False).x
    W, pm = E.transform(u, x_T, -E.a1 / 2, -(E.a3 + E.a1 * x_T) / 2)
    A, B = W.a2.as_poly(), W.a4.as_poly()
    if not (W.a1 == W.a3 == W.a6 == 0) or B.is_zero() or (A * A - 4 * B).is_zero():
        raise ValueError(f"{label}: kP is not a 2-torsion point of a nonsingular model")
    return CurveFamily(label=label, torsion=torsion, A=A, B=B, torsion_points=(pm.forward(P),))


def model_z8() -> CurveFamily:
    """The universal Z/8 family y^2 = x^3 + A8(v) x^2 + B8(v) x.

    Derived from the Tate normal form with b = (2v-1)(v-1), c = b/v, whose
    point (0,0) has order 8: one change of coordinates moves the 2-torsion
    point 4P to the origin and rescales by l = 2v.
    """
    v = RatFunc.variable("v")
    b = (2 * v - 1) * (v - 1)
    torsion, _parent = _BASE_MODELS["Z8"]
    return _tate_base_model("Z8", torsion, b, b / v, 4, 1 / (2 * v))


def model_z2x6() -> CurveFamily:
    """The universal Z/2 x Z/6 family y^2 = x^3 + A26(v) x^2 + B26(v) x.

    The Tate normal form with b = d + d^2, c = d has a point of order 6;
    moving the 2-torsion point 3P to the origin and rescaling by 2, in one
    change of coordinates, gives
    y^2 = x^3 + (1+6d-3d^2) x^2 - 16d^3 x, whose cubic splits completely
    exactly when (d+1)(9d+1) is a square.  Substituting
    d = (v^2-1)/(2(5-3v)), which parametrizes (d+1)(9d+1) = (3d+v)^2,
    yields the universal Z/2 x Z/6 model.
    """
    torsion, parent = _BASE_MODELS["Z2x6"]
    d = RatFunc.variable("v")
    base = _tate_base_model(parent, (6,), d + d * d, d, 3, RatFunc.const(Fraction(1, 2), "v"))
    # d = (v^2 - 1) / (2(5 - 3v)) splits the 2-torsion completely
    v = RatFunc.variable("v")
    sub = (v * v - 1) / (2 * (5 - 3 * v))
    fam = substitute_parameter(base, sub, label="Z2x6")
    # second 2-torsion generator: a nonzero root of x^2 + Ax + B
    disc_root = poly_sqrt(fam.A * fam.A - 4 * fam.B)
    x2 = RatFunc(-1 * fam.A + disc_root) * Fraction(1, 2)
    T2 = CurvePoint(x2, RatFunc.const(0, "v"))
    # substitute_parameter proved the generator, and T2 is on the curve
    # because poly_sqrt is exact
    return fam._replace(torsion=torsion, torsion_points=(T2,) + fam.torsion_points)


# -- catalog --------------------------------------------------------------

def _catalog_table():
    """(label, parent label, substitution, section abscissas, spec hint) per
    substituted entry, in catalog order.  The substitution and each
    abscissa are functions of no arguments that build the polynomial, so a
    row builds none until its entry is derived.  An abscissa is written in
    the parent's variable (v, resp. w) and coordinates wherever it is a
    function of that variable, else in the entry's own u and coordinates."""
    v, w, u = PolyQ.variable("v"), PolyQ.variable("w"), PolyQ.variable("u")
    return [
        ("Z8-1", "Z8", lambda: (5 - w * w) / (4 * (w + 1)), [lambda: 4 * v**4], None),
        ("Z8-2", "Z8", lambda: (w - 2) * w / (w * w + 1), [lambda: -(v - 1) * v], None),
        ("Z8-3", "Z8", lambda: -2 * (w - 1) * (w + 1) / (w * w + 3),
         [lambda: -4 * v**3 * (3 * v - 2)], None),
        ("Z8-4", "Z8", lambda: (w - 2) * w / (w * w - 2),
         [lambda: 16 * (v - 1) ** 2 * v**2 * (1 - 2 * v + 2 * v * v)], None),
        ("Z8-5", "Z8", lambda: -2 * w / (w * w + 2), [lambda: -2 * v**2 * (2 * v * v - 1)], None),
        ("Z8-6", "Z8", lambda: (w * w - 2 * w + 2) / (w * w + 4),
         [lambda: -((v - 1) ** 2) * (1 - 6 * v + 4 * v * v)], None),
        ("Z8-7", "Z8", lambda: (3 * w * w + 1) / (2 * (w * w + 3)),
         [lambda: -4 * (v - 1) ** 4 * (6 * v - 1) / (2 * v - 3)], None),
        ("Z8-8", "Z8", lambda: (w * w + 3) / (4 * (w * w + 1)),
         [lambda: -4 * (v - 1) ** 4 * (4 * v - 1) / (4 * v - 3)], None),
        ("Z8-9", "Z8", lambda: 5 * (w * w + 1) / (2 * (4 * w * w + 9)),
         [lambda: -((v - 1) ** 4) * (8 * v - 5) * (18 * v - 5) / (4 * (3 * v - 2) ** 2)], None),
        ("Z8-10", "Z8", lambda: (w * w - 4 * w + 2) / (2 * (w * w + 2)),
         [lambda: (-4 * v * v + 4 * v + 1) * Fraction(1, 8)], None),
        ("Z8-11", "Z8", lambda: (w * w - 6 * w + 34) / (w * w + 36),
         [lambda: -((v - 1) ** 2) * (2 * v - 5) ** 2 * (36 * v * v - 70 * v + 25)
          / (6 * v - 7) ** 2], None),
        ("Z8-12", "Z8", lambda: -2 * (3 * w - 14) / (w * w + 28),
         [lambda: -4 * (v - 1) ** 3 * v * (2 * v + 1) ** 2 / (2 * v - 3) ** 2], None),
        ("Z8-13", "Z8", lambda: (3 * w - 1) * (3 * w + 1) / (10 * (w - 1) * (w + 1)),
         [lambda: -4 * (v - 1) ** 3 * v * (10 * v - 1) / (10 * v - 9)], None),
        ("Z8-14", "Z8", lambda: -2 * (w - 3) * (w + 3) / (w * w + 6),
         [lambda: -(v - 1) * v * Fraction(27, 2)], None),
        ("Z8-15", "Z8", lambda: -(w * w + 80 * w + 1152) / (8 * (w * w - 128)),
         [lambda: -((16 * v * v - 16 * v + 1) ** 2) * Fraction(1, 64)], None),
        ("Z8-16", "Z8", lambda: (2 * w * w - 1) / (2 * (3 * w * w - 5)),
         [lambda: (v - 1) ** 2 * (4 * v - 1) ** 2 * (10 * v - 1) / (8 * (3 * v - 1))], None),
        ("Z8-17", "Z8", lambda: (6 * w * w - 1) / (2 * (w * w + 4)),
         [lambda: -((v - 1) ** 2) * (2 * v + 1) ** 2 * (8 * v + 1) / (8 * (v - 3))], None),
        ("Z8-18", "Z8", lambda: (9 * w * w - 13) / (2 * (5 * w * w - 9)),
         [lambda: 4 * (4 * v - 3) ** 2 * (10 * v - 9) * (18 * v * v - 26 * v + 9) ** 2
          / ((6 * v - 5) ** 2 * (18 * v - 13))], None),
        ("Z8R2-1", "Z8-3", lambda: (11 - u * u) / (10 * u),
         [lambda: -16 * (w - 1) * (w + 1) ** 3 * (3 * w * w + 1) ** 2,
          lambda: (w - 1) ** 2 * (w + 1) ** 2 * (7 * w * w + 5) ** 2 * (25 * w * w + 11)
          * Fraction(1, 16)], 22),
        ("Z8R2-2", "Z8-3", lambda: (u * u - 12 * u + 29) / (u * u - 29),
         [lambda: -16 * (w - 1) ** 3 * (w + 1) * (3 * w * w + 1) ** 2,
          lambda: (w - 1) ** 2 * (w + 1) ** 2 * (11 * w * w + 1) ** 2 * (29 * w * w + 7)
          / (16 * w * w)], 19),
        ("Z8R2-3", "Z8-3", lambda: (u * u - 12 * u + 15) / (u * u - 15),
         [lambda: -256 * w * w * (w - 1) ** 3 * (w + 1) ** 3,
          lambda: -27 * (w - 1) * (w + 1) * (w * w + 3) ** 2 * (3 * w * w + 1)], 11),
        ("Z8R2-4", "Z8-12", lambda: -(u - 28) * (u + 28) / (2 * (u - 63)),
         [lambda: -8 * w**3 * (w + 6) ** 3 * (3 * w - 14) * (w * w - 12 * w + 84) ** 2
          / (3 * w * w + 12 * w + 28) ** 2,
          lambda: -256 * w**3 * (w + 6) ** 2 * (3 * w - 14) ** 3 / (w + 14) ** 2], 17),
        ("Z8R2-5", "Z8-13", lambda: -(3 * u * u - 80 * u + 510) / (u * u - 170),
         [lambda: -u * (3 * u - 40) * (4 * u - 51) ** 4 * (2 * u * u - 60 * u + 425)
          * (u**3 - 44 * u * u + 660 * u - 3400) ** 2,
          lambda: -u * (3 * u - 40) * (4 * u - 51) ** 2 * (2 * u * u - 60 * u + 425)
          * (35 * u**3 - 1236 * u * u + 14620 * u - 57800) ** 2], 3),
        ("Z8R2-6", "Z8-17", lambda: 3 * (u * u - 20 * u + 60) / (2 * (u * u - 60)),
         [lambda: w * w * (2 * w - 3) ** 2 * (2 * w + 3) ** 2 * (7 * w * w + 3) ** 2
          * Fraction(1, 4),
          lambda: -(2 * w - 3) * (2 * w + 3) * (w * w + 4) ** 2 * (6 * w * w - 1)
          * Fraction(27, 2)], -48),
        ("Z8R2-7", "Z8-18", lambda: (u * u - 6 * u + 21) / (u * u - 14 * u + 21),
         [lambda: (u * u - 8 * u + 3) ** 2
          * (u**4 - 32 * u**3 + 278 * u * u - 672 * u + 441)
          * (2 * u**5 - 55 * u**4 + 508 * u**3 - 1834 * u * u + 3234 * u - 3087) ** 2,
          lambda: u * u * (u * u - 56 * u + 147) ** 2 * (u * u - 8 * u + 3) ** 4
          * (u**4 - 32 * u**3 + 278 * u * u - 672 * u + 441) ** 3
          / (u**5 - 22 * u**4 + 262 * u**3 - 1524 * u * u + 3465 * u - 2646) ** 2], 10),
        ("Z2x6-1", "Z2x6", lambda: -6 / (w * w - 3), [lambda: 16 * (v - 2) * (1 + v) ** 2], None),
        ("Z2x6-2", "Z2x6", lambda: 3 * (14 * w * w - 1) / (6 * w * w + 1),
         [lambda: 64 * (v - 1) ** 2 * (v + 1) ** 3 / (v + 5) ** 2], None),
        ("Z2x6-3", "Z2x6", lambda: (2 * w * w - 4 * w - 1) / (2 * w - 3),
         [lambda: (1 + v) ** 2 * (7 - 4 * v + v * v) ** 2], None),
        ("Z2x6-4", "Z2x6", lambda: (6 * w * w - 1) / (12 * w * w - 7),
         [lambda: (v - 1) * (v + 1) * (3 * v - 1) ** 2 * Fraction(64, 3)], None),
        ("Z2x6R2-1", "Z2x6-1", lambda: 3 * (u * u - 8 * u + 14) / (u * u - 14),
         [lambda: -32 * w * w * (w - 3) ** 2 * (w + 3) ** 2 * (w * w - 3),
          lambda: -((w - 3) ** 2) * (w + 3) ** 2 * (w * w - 3) * (7 * w * w + 9)], 15),
        ("Z2x6R2-2", "Z2x6-1", lambda: (u * u - 8 * u + 6) / (u * u - 6),
         [lambda: -32 * w * w * (w - 3) ** 2 * (w + 3) ** 2 * (w * w - 3),
          lambda: (w - 3) * (w + 3) * (w * w - 3) * (7 * w * w + 9) ** 2], 17),
        ("Z2x6R2-3", "Z2x6-2", lambda: (u * u - 30 * u + 180) / (3 * (u * u - 180)),
         [lambda: 128 * (3 * w - 1) ** 2 * (3 * w + 1) ** 2 * (6 * w * w + 1)
          * (24 * w * w - 1) ** 3 / (36 * w * w + 1) ** 2,
          lambda: 4 * (3 * w - 1) ** 2 * (3 * w + 1) ** 2 * (36 * w * w + 1)
          * (48 * w * w - 7)], 22),
        ("Z2x6R2-4", "Z2x6-3", lambda: -(4 * u + 9) / (u * u - 3),
         [lambda: 4 * (w - 3) * (w + 1) * (w * w - 3 * w + 1) * (w * w - 2 * w + 2) ** 2,
          lambda: (w - 2) ** 3 * (w + 1) * (2 * w - 3) * (3 * w - 2) * (w * w - 3 * w + 1)], 19),
        ("Z2x6R2-5", "Z2x6-4", lambda: 4 * (u * u + 1) / (5 * (u * u - 1)),
         [lambda: 192 * (u - 3) ** 2 * (u + 3) * (3 * u + 1) * (u * u - 5 * u + 1)
          * (11 * u * u + 1) ** 2 * (u**3 + 28 * u * u + 11 * u + 8) ** 2,
          lambda: -243 * (w - 1) ** 2 * (w + 1) ** 2 * (12 * w * w - 7) * (21 * w * w - 16)
          * Fraction(1, 4)], 20),
    ]


class _Catalog(Mapping[str, CurveFamily]):
    """The catalog as a read-only mapping in catalog order.  Its labels are
    the table's: len, in and iterating the labels derive nothing.  Reading
    an entry derives it, with its parent chain, the first time, and keeps
    it; values() and items() derive every entry in catalog order."""

    def __init__(self) -> None:
        # label -> None for a base model, else (parent, substitution,
        # section abscissas, spec hint), the polynomials not yet built
        self._rows = dict.fromkeys(_BASE_MODELS)
        self._rows.update((label, row) for label, *row in _catalog_table())
        self._families: dict[str, CurveFamily] = {}

    def __getitem__(self, label: str) -> CurveFamily:
        fam = self._families.get(label)
        if fam is None:
            row = self._rows[label]
            if row is None:
                fam = model_z8() if label == "Z8" else model_z2x6()
            else:
                parent, sub, xs, hint = row
                fam = substitute_parameter(
                    self[parent], sub(), label, sections=[x() for x in xs], spec_hint=hint
                )
            self._families[label] = fam
        return fam

    def __contains__(self, label: object) -> bool:
        return label in self._rows

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


_CATALOG: Optional[_Catalog] = None


def catalog() -> Mapping[str, CurveFamily]:
    """All families keyed by label: the two base models, the rank-1 entries
    obtained from them by a single quadratic-section substitution, and the
    rank-2 entries obtained by one more, each derived from its
    _catalog_table row.  Every entry's condition is derived: the conic that
    its substitution parametrizes.  Every call returns the same read-only
    mapping, which derives an entry and its parent chain the first time
    that entry is read: reading one rank-2 entry derives three families,
    and values() or items() derive all 36.
    """
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _Catalog()
    return _CATALOG


def catalog_listing() -> list[tuple[str, tuple[int, ...], int, Optional[str]]]:
    """(label, torsion, rank, parent) per catalog entry, in catalog order,
    read off the table without deriving a family or building a
    polynomial: a base model's torsion and parent come from _BASE_MODELS, a
    row's rank is its count of section abscissas, and its torsion is its
    parent's."""
    out = []
    torsion: dict[str, tuple[int, ...]] = {}
    for label, row in catalog()._rows.items():
        if row is None:
            torsion[label], parent = _BASE_MODELS[label]
            rank = 0
        else:
            parent, _sub, xs, _hint = row
            torsion[label], rank = torsion[parent], len(xs)
        out.append((label, torsion[label], rank, parent))
    return out
