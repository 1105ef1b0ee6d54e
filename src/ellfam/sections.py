"""Quadratic sections: section conditions and quartic-to-cubic maps.

A family y^2 = x^3 + A x^2 + B x acquires a new section at x = d whenever
d + A + B/d is a square; section_condition gives that square class.  The
catalog derives each family's condition from its substitution
(families._parametrized_conic), and the degree-4 conditions t^2 = q(u),
checked squarefree by a gcd with the derivative and given a rational point
that is not a root of q, are converted to their Jacobian elliptic curves.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, NamedTuple, Optional

from .curves import INFINITY, CurvePoint, PointMap, WeierstrassCurve
from .polyq import PolyQ, RatFunc, homogeneous_value, square_decompose_poly


class DegenerateQuartic(ValueError):
    """Raised when a quartic model is singular (not squarefree)."""


# ---------------------------------------------------------------------------
# section conditions
# ---------------------------------------------------------------------------


def section_condition(family, x: RatFunc) -> PolyQ:
    """Squarefree polynomial whose square values make x a section.

    x is a section of y^2 = x^3 + A x^2 + B x exactly when x + A + B/x is a
    square; the squarefree part of its numerator-times-denominator is the
    obstruction, well defined up to squares.
    """
    val = x + RatFunc(family.A) + RatFunc(family.B) / x
    if val.is_zero():
        raise ValueError("x is a 2-torsion abscissa, not a candidate section")
    _s, core = square_decompose_poly(val.num * val.den)
    return core


# ---------------------------------------------------------------------------
# quartics with a rational point
# ---------------------------------------------------------------------------


class _QuarticFields(NamedTuple):
    q: PolyQ
    known_point: Optional[tuple[Fraction, Fraction]] = None


class QuarticModel(_QuarticFields):
    """t^2 = q(u) with q of degree at most 4 and an optional known point."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.q.degree > 4 or self.q.is_zero():
            raise ValueError("expected a nonzero polynomial of degree <= 4")
        if self.q.gcd(self.q.derivative()).degree > 0:
            raise DegenerateQuartic(str(self.q))
        if self.known_point is not None:
            u0, t0 = self.known_point
            if Fraction(t0) ** 2 != self.q(Fraction(u0)):
                raise ValueError("known point does not satisfy the equation")
        return self

    # _replace copies through _make, so a changed copy is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))


class QuarticInverse:
    """The inverse of quartic_jacobian's forward map, P -> (u, t), read in
    the coordinates of a model of the quartic's Jacobian.

    With the known point (u0, t0) moved to u = 0, write
    q(u + u0) = a u^4 + b u^3 + c u^2 + d u + t0^2 and (X, Y) for the
    coordinates of quartic_jacobian's model.  Then
        v = u - u0 = (4 t0^2 (X + c) - d^2) / (2 t0 Y),
        t = (X v^2 - d v) / (2 t0) - t0,
    the origin maps to (u0, t0), and the map is undefined where Y = 0 (the
    points over the quartic's fiber at infinity).  X and v's numerator and
    denominator are linear forms in (X, Y, 1), kept as coefficient triples,
    the first two free of Y.  ``pull_back`` rewrites them in the
    coordinates of an isomorphic model, and ``at`` evaluates them in
    integers.
    """

    def __init__(self, q: PolyQ, u0: Fraction, t0: Fraction, d: Fraction, x_form, num, den):
        if x_form[1] or num[1]:
            raise ValueError("X and v's numerator are forms free of Y")
        self.q, self.u0, self.t0, self.d = q, u0, t0, d
        self.forms = (x_form, num, den)
        # the forms scaled to integer coefficients: L2 X, and v's numerator
        # and denominator both times L; with x', n and D their values as in
        # at, t = (k1 x' n^2 - k2 e n D - k3 D^2) / (k4 D^2)
        L2 = lcm(*(Fraction(c).denominator for c in x_form))
        L = lcm(*(Fraction(c).denominator for c in num + den))
        self._x = tuple(int(c * L2) for c in x_form[::2])
        self._num = tuple(int(c * L) for c in num[::2])
        self._den = tuple(int(c * L) for c in den)
        dn, dd = d.numerator, d.denominator
        tn, td = t0.numerator, t0.denominator
        self._t = (dd * td * td, L2 * dn * td * td, 2 * L2 * dd * tn * tn, 2 * L2 * dd * tn * td)

    def pull_back(self, pm: PointMap) -> "QuarticInverse":
        """The same map read in the coordinates of the model that pm maps
        from: X = (x - r)/u^2 and Y = (y - s (x - r) - t)/u^3."""
        u, r, s, t = (Fraction(c) for c in (pm.u, pm.r, pm.s, pm.t))
        u2, u3 = u * u, u * u * u

        def pulled(form):
            fx, fy, f1 = form
            return (fx / u2 - fy * s / u3, fy / u3, f1 - fx * r / u2 + fy * (s * r - t) / u3)

        return QuarticInverse(self.q, self.u0, self.t0, self.d, *map(pulled, self.forms))

    def at(self, X: int, Y: int, e: int) -> Optional[tuple[Fraction, Fraction]]:
        """(u, t) at the point x = X/e^2, y = Y/e^3, or None where the map is
        undefined.

        A form f gives e^3 f(x, y) = f_x X e + f_y Y + f_1 e^3, and a form
        free of Y gives e^2 f(x, y) = f_x X + f_1 e^2; so u - u0 = e n / D
        with the integers n = nx X + n1 e^2 and D = dx X e + dy Y + d1 e^3,
        and t is a quotient of integers too.  One Fraction is built per
        coordinate, and t^2 = q(u) is checked on their numerators and
        denominators.
        """
        (xx, x1), (nx, n1), (dx, dy, d1) = self._x, self._num, self._den
        k1, k2, k3, k4 = self._t
        e2 = e * e
        D = (dx * X + d1 * e2) * e + dy * Y
        if D == 0:
            return None
        n = nx * X + n1 * e2
        en, DD = e * n, D * D
        t = Fraction(k1 * (xx * X + x1 * e2) * n * n - k2 * en * D - k3 * DD, k4 * DD)
        un, ud = self.u0.numerator, self.u0.denominator
        u = Fraction(un * D + ud * en, ud * D)
        q, un, ud = self.q, u.numerator, u.denominator
        qu = homogeneous_value(q.ints, un, ud)
        if t.numerator**2 * q.den * ud**q.degree != qu * t.denominator**2:
            raise AssertionError(f"t^2 = q(u) fails at u = {u}")
        return u, t

    def __call__(self, P: CurvePoint) -> tuple[Fraction, Fraction]:
        """(u, t) of P; ValueError where the map is undefined."""
        if P.is_infinity:
            return self.u0, self.t0
        x, y = P.x, P.y
        # any e with e^2 x and e^3 y integral serves
        e = lcm(x.denominator, y.denominator)
        X, Y = x.numerator * (e * e // x.denominator), y.numerator * (e**3 // y.denominator)
        ut = self.at(X, Y, e)
        if ut is None:
            raise ValueError("map undefined at this point")
        return ut


def quartic_jacobian(
    Q: QuarticModel,
) -> tuple[WeierstrassCurve, Callable, QuarticInverse]:
    """Elliptic model of t^2 = q(u) built from the known rational point
    (u0, t0), which must not be a root of q: t0 = 0 raises ValueError.

    Returns (E, forward, inverse): forward maps a point (u, t) of the
    quartic to a CurvePoint of E, inverse (a QuarticInverse) maps a
    CurvePoint back.  Both are exact and mutually inverse wherever defined.
    """
    if Q.known_point is None:
        raise ValueError("a known rational point is required")
    u0, t0 = Fraction(Q.known_point[0]), Fraction(Q.known_point[1])
    if t0 == 0:
        raise ValueError("the known point must not be a root of q")
    # shift the known point to u = 0
    var = Q.q.var
    shifted = Q.q(PolyQ.variable(var) + u0)
    cs = list(shifted.coeffs) + [Fraction(0)] * (5 - len(shifted.coeffs))
    _e, d, c, b, a = cs[:5]
    q0 = t0
    a1 = d / q0
    a2 = c - d * d / (4 * q0 * q0)
    a3 = 2 * q0 * b
    a4 = -4 * q0 * q0 * a
    a6 = a * (d * d - 4 * q0 * q0 * c)
    E = WeierstrassCurve(a1, a2, a3, a4, a6)

    def forward(u: Fraction, t: Fraction) -> CurvePoint:
        u = Fraction(u) - u0
        t = Fraction(t)
        if u == 0:
            if t == q0:
                return INFINITY
            # the point (u0, -q0) maps to the limit of the generic formula
            X = d * d / (4 * q0 * q0) - c
            P = CurvePoint(X, -a1 * X - a3)
            assert E.contains(P)
            return P
        X = (2 * q0 * (t + q0) + d * u) / (u * u)
        Y = (
            4 * q0 * q0 * (t + q0)
            + 2 * q0 * (d * u + c * u * u)
            - d * d * u * u / (2 * q0)
        ) / (u**3)
        P = CurvePoint(X, Y)
        assert E.contains(P)
        return P

    four = 4 * q0 * q0
    inverse = QuarticInverse(
        Q.q, u0, q0, d, (1, 0, 0), (four, 0, four * c - d * d), (0, 2 * q0, 0)
    )
    return E, forward, inverse
