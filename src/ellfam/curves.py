"""Exact elliptic curves: group law, torsion certification, isomorphism.

Curves are long Weierstrass models whose coefficients live in any exact
field implementing Python arithmetic operators: ``Fraction`` for curves over
Q, ``RatFunc`` for curves over Q(u).  The group law, invariants and
coordinate changes are written generically; torsion certification and
isomorphism testing apply to curves over Q.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .arith import integer_nthroot, is_prime, square_test
from .polyq import PolyQ, RatFunc, gcd_mod_p, homogeneous_value
from .polyq import _zz_derivative, _zz_exquo, _zz_gcd, _zz_primitive

FieldElem = Union[Fraction, RatFunc]


class OffCurve(Exception):
    """A point failed the curve equation."""


class CurvePoint(NamedTuple):
    """Affine point (x, y) or the point at infinity (x = y = None)."""

    x: Optional[FieldElem] = None
    y: Optional[FieldElem] = None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __str__(self):
        return "O" if self.is_infinity else f"({self.x}, {self.y})"


INFINITY = CurvePoint()


def weierstrass_invariants(a1, a2, a3, a4, a6) -> tuple:
    """(b2, b4, b6, b8, c4, c6, disc) of the a-invariants, over any ring."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4 * b4 * b4 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, c4, c6, disc


def change_coordinates(a: tuple, u, r, s, t) -> tuple:
    """The a-invariants after x = u^2 x' + r, y = u^3 y' + s u^2 x' + t,
    over any ring: for u == 1 nothing is divided, so int tuples stay int."""
    a1, a2, a3, a4, a6 = a
    new = (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r * r * r - t * a3 - t * t - r * t * a1,
    )
    if u == 1:
        return new
    return tuple(x / u**k for x, k in zip(new, (1, 2, 3, 4, 6)))


def _invariant(i: int) -> property:
    def read(E):
        v = E.bc_invariants()[i]
        return Fraction(v) if isinstance(v, int) else v

    return property(read)


class WeierstrassCurve:
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 with nonzero discriminant.

    An integral model keeps its a-invariants as an int tuple (``_ints``,
    None otherwise).  ``bc_invariants`` is the one accessor for the seven
    invariants (b2, b4, b6, b8, c4, c6, disc), computed once: ints on an
    integral model, in int arithmetic; on any other model, elements of the
    a-invariants' field.  ``E.b2`` ... ``E.disc`` read them as field
    elements, a Fraction built on each read on an integral model.  An
    integral model's group law runs in ints too (_integral_add), one
    reduction per coordinate.
    """

    __slots__ = ("a1", "a2", "a3", "a4", "a6", "_ints", "_bcinvs", "_cache")

    def __init__(self, a1, a2, a3, a4, a6, check: bool = True):
        vals = [a1, a2, a3, a4, a6]
        vals = [Fraction(v) if isinstance(v, int) else v for v in vals]
        for name, v in zip(("a1", "a2", "a3", "a4", "a6"), vals):
            object.__setattr__(self, name, v)
        integral = all(isinstance(v, Fraction) and v.denominator == 1 for v in vals)
        object.__setattr__(self, "_ints", tuple(v.numerator for v in vals) if integral else None)
        object.__setattr__(self, "_bcinvs", None)
        object.__setattr__(self, "_cache", {})
        if check and self.bc_invariants()[6] == 0:
            raise ValueError("singular model: discriminant is zero")

    def __setattr__(self, *a):
        raise AttributeError("WeierstrassCurve is immutable")

    # -- invariants -------------------------------------------------------
    def bc_invariants(self) -> tuple:
        """(b2, b4, b6, b8, c4, c6, disc): ints on an integral model, where
        no Fraction is built, else elements of the a-invariants' field."""
        if self._bcinvs is None:
            a = self._ints if self._ints is not None else self.a_invariants()
            object.__setattr__(self, "_bcinvs", weierstrass_invariants(*a))
        return self._bcinvs

    b2, b4, b6, b8, c4, c6, disc = map(_invariant, range(7))

    @property
    def j(self):
        c = self._cache
        if "j" not in c:
            c["j"] = self.c4 * self.c4 * self.c4 / self.disc
        return c["j"]

    def a_invariants(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def __eq__(self, other):
        if not isinstance(other, WeierstrassCurve):
            return NotImplemented
        return self.a_invariants() == other.a_invariants()

    def __hash__(self):
        return hash(self.a_invariants())

    def __repr__(self):
        return f"WeierstrassCurve{self.a_invariants()}"

    # -- membership and group law ----------------------------------------
    def equation_value(self, P: CurvePoint):
        x, y = P.x, P.y
        return (
            y * y
            + self.a1 * x * y
            + self.a3 * y
            - (x * x * x + self.a2 * x * x + self.a4 * x + self.a6)
        )

    def contains(self, P: CurvePoint) -> bool:
        if P.is_infinity:
            return True
        a, x, y = self._ints, P.x, P.y
        if a is not None and x.denominator == 1 and y.denominator == 1:
            a1, a2, a3, a4, a6 = a
            x, y = x.numerator, y.numerator
            return y * (y + a1 * x + a3) == ((x + a2) * x + a4) * x + a6
        return self.equation_value(P) == 0

    def _require(self, P: CurvePoint):
        if not self.contains(P):
            raise OffCurve(f"{P} is not on {self!r}")

    def neg(self, P: CurvePoint) -> CurvePoint:
        if P.is_infinity:
            return P
        return CurvePoint(P.x, -P.y - self.a1 * P.x - self.a3)

    def add(self, P: CurvePoint, Q: CurvePoint, check: bool = True) -> CurvePoint:
        if check:
            self._require(P)
            self._require(Q)
        if P.is_infinity:
            return Q
        if Q.is_infinity:
            return P
        if self._ints is not None:
            return _integral_add(self._ints, P, Q)
        x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
        if x1 - x2 == 0:
            if y1 + y2 + self.a1 * x2 + self.a3 == 0:
                return INFINITY
            # doubling
            lam = (3 * x1 * x1 + 2 * self.a2 * x1 + self.a4 - self.a1 * y1) / (
                2 * y1 + self.a1 * x1 + self.a3
            )
        else:
            lam = (y2 - y1) / (x2 - x1)
        x3 = lam * lam + self.a1 * lam - self.a2 - x1 - x2
        y3 = lam * (x1 - x3) - y1 - self.a1 * x3 - self.a3
        return CurvePoint(x3, y3)

    def sub(self, P: CurvePoint, Q: CurvePoint, check: bool = True) -> CurvePoint:
        # -Q satisfies the curve equation exactly when Q does
        return self.add(P, self.neg(Q), check=check)

    def mul(self, n: int, P: CurvePoint, check: bool = True) -> CurvePoint:
        if check:
            self._require(P)
        if n < 0:
            return self.mul(-n, self.neg(P), check=False)
        R = INFINITY
        Q = P
        while n:
            if n & 1:
                R = self.add(R, Q, check=False)
            n >>= 1
            if n:
                Q = self.add(Q, Q, check=False)
        return R

    def point_order(self, P: CurvePoint) -> Optional[int]:
        """Exact order of P if it is at most 12, else None: by Mazur's
        theorem a rational point of larger order has infinite order."""
        multiples = self._multiples(P)
        return None if multiples is None else len(multiples) + 1

    def _multiples(self, P: CurvePoint) -> Optional[list[tuple]]:
        """The coordinates (x, y) of P, 2P, ..., (n - 1)P for P of order
        n <= 12, else None.

        On an integral model every torsion point R has 4 x(R) integral
        (Silverman, AEC VII.3.4), so the walk over the multiples of P stops
        with None at the first R without; with a1 = a3 = 0 every torsion
        point is integral (Nagell-Lutz), and the walk runs in ints.
        """
        if P.is_infinity:
            return []
        a = self._ints
        if a is not None and a[0] == 0 == a[2]:
            return _integral_multiples(a[1], a[3], P)
        out, R = [], P
        for _ in range(12):
            if R.is_infinity:
                return out
            if a is not None and (4 * R.x).denominator != 1:
                return None
            out.append((R.x, R.y))
            R = self.add(R, P, check=False)
        return None

    # -- coordinate changes ----------------------------------------------
    def transform(self, u, r, s, t) -> tuple["WeierstrassCurve", "PointMap"]:
        """Standard change of coordinates x = u^2 x' + r, y = u^3 y' + s u^2 x' + t.

        Returns the new model together with the point map old -> new.
        """
        if isinstance(u, int):
            u = Fraction(u)
        new = WeierstrassCurve(*change_coordinates(self.a_invariants(), u, r, s, t), check=False)
        return new, PointMap(u, r, s, t)

    def is_integral(self) -> bool:
        return self._ints is not None

    def integral_model(self) -> tuple["WeierstrassCurve", "PointMap"]:
        """Clear denominators by (x, y) -> (L^2 x, L^3 y) scaling; an
        integral model is its own, by the identity map."""
        if self._ints is not None:
            return self, PointMap(Fraction(1), 0, 0, 0)
        L = math.lcm(*(a.denominator for a in self.a_invariants()))
        return self.transform(Fraction(1, L), 0, 0, 0)


def _integral_add(a: tuple[int, ...], P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """P + Q for finite points of the integral model with a-invariants a,
    in ints.

    A rational point of an integral model is x = X/Z^2, y = Y/Z^3 with
    Z > 0 (the denominators of y^2 and x^3 agree).  The slope is L/Z3,
    and x1 Z3^2 = A, y1 Z3^3 = B, (x1 + x2) Z3^2 = C are integers, so the
    chord-and-tangent formulas give x3 = X3/Z3^2 and y3 = Y3/Z3^3 with
    X3, Y3 integers, each reduced once.
    """
    a1, a2, a3, a4, _a6 = a
    X1, Y1, X2, Y2 = P.x.numerator, P.y.numerator, Q.x.numerator, Q.y.numerator
    Z1, Z2 = math.isqrt(P.x.denominator), math.isqrt(Q.x.denominator)
    Z1s, Z2s = Z1 * Z1, Z2 * Z2
    U1, U2 = X1 * Z2s, X2 * Z1s
    if U1 == U2:
        # x1 = x2, so Z1 = Z2 and Q = P or -P
        D = 2 * Y1 + (a1 * X1 + a3 * Z1s) * Z1
        if Y2 - Y1 + D == 0:
            return INFINITY
        L = 3 * X1 * X1 + (2 * a2 * X1 + a4 * Z1s) * Z1s - a1 * Y1 * Z1
        Z3, A, B = Z1 * D, X1 * D * D, Y1 * D * D * D
        C = 2 * A
    else:
        H = U2 - U1
        S1 = Y1 * Z2s * Z2
        L = Y2 * Z1s * Z1 - S1
        H2 = H * H
        Z3, A, B, C = Z1 * Z2 * H, U1 * H2, S1 * H2 * H, (U1 + U2) * H2
    Z3s = Z3 * Z3
    X3 = L * L + a1 * L * Z3 - a2 * Z3s - C
    Y3 = L * (A - X3) - B - (a1 * X3 + a3 * Z3s) * Z3
    return CurvePoint(Fraction(X3, Z3s), Fraction(Y3, Z3s * Z3))


def _integral_multiples(a2: int, a4: int, P: CurvePoint) -> Optional[list[tuple[int, int]]]:
    """_multiples on y^2 = x^3 + a2 x^2 + a4 x + a6 over Z, in ints: a
    non-integral P, or a slope lam that makes the next multiple's
    x = lam^2 - a2 - x - x1 non-integral, proves infinite order."""
    if P.x.denominator != 1 or P.y.denominator != 1:
        return None
    x1, y1 = P.x.numerator, P.y.numerator
    x, y = x1, y1  # (n - 1) P
    out = [(x, y)]
    for _ in range(2, 13):
        if x == x1:
            if y == -y1:
                return out
            num, den = (3 * x + 2 * a2) * x + a4, 2 * y
        else:
            num, den = y1 - y, x1 - x
        lam, rem = divmod(num, den)
        if rem:
            return None
        x3 = lam * lam - a2 - x - x1
        x, y = x3, lam * (x - x3) - y
        out.append((x, y))
    return None


class PointMap(NamedTuple):
    """The point part of a Weierstrass change of coordinates (old -> new)."""

    u: FieldElem
    r: FieldElem
    s: FieldElem
    t: FieldElem

    def forward(self, P: CurvePoint) -> CurvePoint:
        if P.is_infinity:
            return P
        u, r, s, t = self.u, self.r, self.s, self.t
        x = (P.x - r) / (u * u)
        y = (P.y - s * (P.x - r) - t) / (u * u * u)
        return CurvePoint(x, y)

    def inverse(self) -> "PointMap":
        """The map new -> old: the change of coordinates with scale 1/u
        that carries the new model back onto the old one."""
        u, r, s, t = self.u, self.r, self.s, self.t
        return PointMap(1 / u, -r / (u * u), -s / u, (r * s - t) / (u * u * u))


# -- point counting over F_p ---------------------------------------------

def count_points_mod_p(E: WeierstrassCurve, p: int) -> int:
    """#E(F_p) for an integral E and odd p of good reduction: y^2 over F_p
    is counted on the completed square (2y + a1x + a3)^2 = psi_2^2(x)."""
    c0, c1, c2, c3 = (c % p for c in _psi2_squared(E).ints)
    count = 1  # infinity
    half = (p - 1) // 2
    for x in range(p):
        t = (((c3 * x + c2) * x + c1) * x + c0) % p
        if t == 0:
            count += 1
        elif pow(t, half, p) == 1:
            count += 2
    return count


# -- division polynomials -------------------------------------------------

def _psi2_squared(E: WeierstrassCurve) -> PolyQ:
    """psi_2^2 = 4x^3 + b2 x^2 + 2 b4 x + b6, built once per model."""
    c = E._cache
    if "psi2sq" not in c:
        c["psi2sq"] = PolyQ([E.b6, 2 * E.b4, E.b2, 4], "x")
    return c["psi2sq"]


def _division_poly_cache(E: WeierstrassCurve) -> dict:
    c = E._cache
    if "divpoly" not in c:
        b2, b4, b6, b8 = E.b2, E.b4, E.b6, E.b8
        g3 = PolyQ([b8, 3 * b6, 3 * b4, b2, 3], "x")
        g4 = PolyQ([b4 * b8 - b6 * b6, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4, b2, 2], "x")
        c["divpoly"] = {1: PolyQ([1], "x"), 2: PolyQ([1], "x"), 3: g3, 4: g4}
    return c["divpoly"]


def division_poly(E: WeierstrassCurve, n: int) -> PolyQ:
    """The x-polynomial part g_n of the n-th division polynomial.

    psi_n = g_n for odd n and psi_n = g_n * psi_2 for even n, with
    psi_2^2 = 4x^3 + b2 x^2 + 2 b4 x + b6.  Roots of g_n are x-coordinates of
    the points killed by n that are not 2-torsion (plus possibly others'
    component for composite n).
    """
    if n < 1:
        raise ValueError("n must be positive")
    cache = _division_poly_cache(E)
    if n in cache:
        return cache[n]
    f = _psi2_squared(E)

    def g(k: int) -> PolyQ:
        # g(1)..g(4) are cached, and for k >= 5 no index below 1 is asked
        if k in cache:
            return cache[k]
        if k % 2:
            m = (k - 1) // 2
            if m % 2 == 0:
                val = f * f * g(m + 2) * g(m) ** 3 - g(m - 1) * g(m + 1) ** 3
            else:
                val = g(m + 2) * g(m) ** 3 - f * f * g(m - 1) * g(m + 1) ** 3
        else:
            m = k // 2
            val = g(m) * (g(m + 2) * g(m - 1) ** 2 - g(m - 2) * g(m + 1) ** 2)
        cache[k] = val
        return val

    return g(n)


def rational_roots(p: PolyQ) -> list[Fraction]:
    """The distinct rational roots of p, ordered by multiplicity, then
    denominator, then decreasing numerator: the order of the linear factors
    in ``PolyQ.factor`` (and in sympy's ``dup_factor_list``, which it
    matches), which fixes two_torsion_points' first point and so the
    torsion generators.

    The squarefree part s = f / gcd(f, f') has simple roots.  Modulo the
    first prime q with q not dividing lc(s) and s squarefree mod q, each
    root found by brute force lifts by Newton's iteration to a root r mod
    q^k > 2 (|lc| + max |s_i|), which bounds |lc x| for every root x.  The
    symmetric residue y of lc r mod q^k is then lc x for the rational root x
    that r approximates, if there is one, and x = y / lc is kept when s
    vanishes there exactly.  A root's multiplicity in f is the number of
    derivatives of f that vanish at it.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    f = list(p.ints)
    if len(f) < 2:
        return []
    s = _zz_primitive(_zz_exquo(f, _zz_gcd(f, _zz_derivative(f))))
    ds, lc = _zz_derivative(s), s[-1]
    q = 2
    while not (is_prime(q) and lc % q and len(gcd_mod_p(s, ds, q)) == 1):
        q += 1
    bound = 2 * (abs(lc) + max(map(abs, s)))
    keyed = []
    for r in range(q):
        if _value_mod(s, r, q):
            continue
        m = q
        while m <= bound:
            m *= m
            r = (r - _value_mod(s, r, m) * pow(_value_mod(ds, r, m), -1, m)) % m
        y = lc * r % m
        x = Fraction(y - m if 2 * y > m else y, lc)
        if homogeneous_value(s, x.numerator, x.denominator) == 0:
            mult, g = 0, f
            while homogeneous_value(g, x.numerator, x.denominator) == 0:
                mult, g = mult + 1, _zz_derivative(g)
            keyed.append(((mult, x.denominator, -x.numerator), x))
    return [x for _, x in sorted(keyed)]


def _value_mod(xs: list[int], r: int, m: int) -> int:
    """sum(xs[i] r^i) mod m, by Horner."""
    acc = 0
    for c in reversed(xs):
        acc = (acc * r + c) % m
    return acc


def lift_x(E: WeierstrassCurve, x: Fraction) -> Optional[CurvePoint]:
    """A rational point of E with the given x-coordinate, if one exists."""
    # y^2 + (a1 x + a3) y - (x^3 + a2 x^2 + a4 x + a6) = 0
    b = E.a1 * x + E.a3
    c = -(x**3 + E.a2 * x * x + E.a4 * x + E.a6)
    disc = b * b - 4 * c
    r = square_test(disc)
    if r is None:
        return None
    return CurvePoint(x, (-b + r) / 2)


# -- torsion --------------------------------------------------------------

def torsion_label(structure: tuple[int, ...]) -> str:
    """(2, 6) -> "Z/2 x Z/6"."""
    return " x ".join(f"Z/{n}" for n in structure)


class TorsionGroup(NamedTuple):
    """structure: (n,) for Z/n or (2, 2m) for Z/2 x Z/2m; generators included."""

    structure: tuple[int, ...]
    generators: tuple[CurvePoint, ...]

    @property
    def order(self) -> int:
        out = 1
        for n in self.structure:
            out *= n
        return out

    def label(self) -> str:
        return "trivial" if self.structure == (1,) else torsion_label(self.structure)


def torsion_bound(E: WeierstrassCurve, realized: int = 1) -> int:
    """gcd of #E(F_p) over the first 16 primes p >= 5 not dividing disc(E),
    a multiple of the torsion order.  The count stops once the gcd equals
    ``realized``, the order of a known rational subgroup: the torsion order
    is a multiple of it and divides every partial gcd."""
    Ei, _ = E.integral_model()
    disc = Ei.bc_invariants()[6]
    g, p, used = 0, 3, 0
    while used < 16 and g != realized:
        p += 2
        if is_prime(p) and disc % p:
            g = math.gcd(g, count_points_mod_p(Ei, p))
            used += 1
    return g


def two_torsion_points(E: WeierstrassCurve) -> list[CurvePoint]:
    """All rational points of exact order 2, at the rational roots of
    psi_2^2 in ``rational_roots``' order.  When b6 = 0 (as on y^2 = x^3 +
    A x^2 + B x), psi_2^2 = x (4x^2 + b2 x + 2 b4), whose roots are 0 and
    those that one square test of b2^2 - 32 b4 gives, in ints on an
    integral model; on a nonsingular model they are simple, so
    (denominator, -numerator) is that order."""
    b2, b4, b6, *_, disc = E.bc_invariants()
    if b6 == 0 and disc != 0:
        roots = [Fraction(0)]
        r = square_test(b2 * b2 - 32 * b4)
        if r is not None:
            roots += [(r - b2) / 8, (-r - b2) / 8]
        roots.sort(key=lambda x: (x.denominator, -x.numerator))
    else:
        roots = rational_roots(_psi2_squared(E))
    # y = -(a1 x + a3) / 2, the same for every root when a1 = 0
    y0 = -E.a3 / 2
    return [CurvePoint(x, y0 - E.a1 * x / 2 if E.a1 else y0) for x in roots]


# the orders of the groups in Mazur's list that no group in it strictly
# contains, by their number of rational 2-torsion points: Z/5, Z/7, Z/9;
# Z/8, Z/10, Z/12; Z/2 x Z/6, Z/2 x Z/8
_MAZUR_MAXIMAL = {0: (5, 7, 9), 1: (8, 10, 12), 3: (12, 16)}


def torsion_subgroup(E: WeierstrassCurve, hints: Sequence[CurvePoint] = ()) -> TorsionGroup:
    """Exact rational torsion subgroup, certified by explicit points.

    The #E(F_p) gcd over good primes gives an upper bound; points of the
    claimed orders (from hints, 2-torsion cubic roots, and division
    polynomial rational roots) realize it.  Mazur's classification closes the
    remaining gap in the two ambiguous cases.  Hints are checked on E and
    their orders found by ``point_order``; the 2-torsion points lie on E
    with order 2 by construction, and so do the points found by the search,
    so the group law runs unchecked.

    No points are counted when the hints and the 2-torsion realize a group
    that no group in Mazur's list strictly contains (_MAZUR_MAXIMAL): it is
    then the torsion subgroup, and its order is the bound.  A scan member's
    hint realizes its family's Z/8 or Z/2 x Z/6, so a member counts none.
    """
    t2 = two_torsion_points(E)
    best: tuple[int, CurvePoint] = (1, INFINITY)
    for P in hints:
        if P.is_infinity or not E.contains(P):
            continue
        n = E.point_order(P)
        if n is not None and n > best[0]:
            best = (n, P)
    if t2 and best[0] == 1:
        best = (2, t2[0])
    # the order of the subgroup generated by best[1] and the 2-torsion
    realized = best[0] * (2 if t2 and best[0] % 2 else 1) * (2 if len(t2) == 3 else 1)
    bound = realized if realized in _MAZUR_MAXIMAL[len(t2)] else torsion_bound(E, realized)

    # Search maximal cyclic orders still allowed by the gcd bound and the
    # 2-torsion count, largest first.  With full 2-torsion the group is
    # Z/2 x Z/2m (order 4m), so the candidate order 2m must have 2*(2m)
    # dividing the bound; with one 2-torsion point the cyclic order is even;
    # with none it is odd.
    if len(t2) == 3:
        candidates = [n for n in (8, 6, 4) if bound % (2 * n) == 0]
    elif len(t2) == 1:
        candidates = [n for n in (12, 10, 8, 6, 4) if bound % n == 0]
    else:
        candidates = [n for n in (9, 7, 5, 3) if bound % n == 0]
    for n in candidates:
        if n <= best[0]:
            break
        found = _point_of_exact_order(E, n)
        if found is not None:
            best = (n, found)
            break

    n, P = best
    if len(t2) < 3:
        if n == 1:
            return TorsionGroup((1,), ())
        return TorsionGroup((n,), (P,))
    # full 2-torsion: group is Z/2 x Z/2m with 2m = max point order (>= 2)
    if n % 2:
        # odd n with full 2-torsion: combine with a 2-torsion point
        P = E.add(P, t2[0], check=False)
        n *= 2
    # the x of (n/2) P, from the walk over P's multiples that point_order
    # takes (in ints on y^2 = x^3 + Ax^2 + Bx), not from the group law
    half_x = E._multiples(P)[n // 2 - 1][0]
    other = next(T for T in t2 if T.x != half_x)
    return TorsionGroup((2, n), (other, P))


def _point_of_exact_order(E: WeierstrassCurve, n: int) -> Optional[CurvePoint]:
    g = division_poly(E, n)
    for x in rational_roots(g):
        P = lift_x(E, x)
        if P is None:
            continue
        if E.point_order(P) == n:
            return P
    return None


# -- isomorphism over Q ---------------------------------------------------

def _nth_root_rational(q: Fraction, n: int) -> Optional[Fraction]:
    """The positive rational n-th root of q > 0, if there is one."""
    if q <= 0:
        return None
    num = integer_nthroot(q.numerator, n)
    den = integer_nthroot(q.denominator, n)
    return Fraction(num, den) if num**n == q.numerator and den**n == q.denominator else None


def _translation_for_scale(E1: WeierstrassCurve, E2: WeierstrassCurve, u):
    """The (r, s, t) that, with scale u, carry E1 onto E2 when some change
    of coordinates with that scale does."""
    s = (u * E2.a1 - E1.a1) / 2
    r = (u * u * E2.a2 - E1.a2 + s * E1.a1 + s * s) / 3
    t = (u**3 * E2.a3 - E1.a3 - r * E1.a1) / 2
    return r, s, t


def isomorphic_over_Q(
    E1: WeierstrassCurve, E2: WeierstrassCurve
) -> Optional[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """The (u, r, s, t) with transform(E1, u, r, s, t) == E2, if one exists.

    A scale u carries (c4, c6) to (c4/u^4, c6/u^6), so u^k = ratio with
    (k, ratio) = (2, c4' c6 / (c4 c6')) when c4 and c6 are nonzero,
    (4, c4 / c4') when c6 = 0 (j = 1728) and (6, c6 / c6') when c4 = 0
    (j = 0); curves whose (c4, c6) vanish in different places have
    different j.  The positive rational root u certifies the isomorphism
    once c4 = u^4 c4' and c6 = u^6 c6' (Silverman, AEC III.1.3 and Table
    3.1): both curves are then isomorphic to the same short model, by
    changes of coordinates whose scales differ by u.  For a given scale
    the translation (r, s, t) is forced (_translation_for_scale).
    """
    c4, c6 = E1.bc_invariants()[4:6]
    d4, d6 = E2.bc_invariants()[4:6]
    if (c4 == 0) != (d4 == 0) or (c6 == 0) != (d6 == 0):
        return None
    if c4 == 0:
        k, ratio = 6, Fraction(c6, d6)
    elif c6 == 0:
        k, ratio = 4, Fraction(c4, d4)
    else:
        k, ratio = 2, Fraction(d4 * c6, c4 * d6)
    u = _nth_root_rational(ratio, k)
    if u is None:
        return None
    n, d = u.numerator, u.denominator
    if c4 * d**4 != n**4 * d4 or c6 * d**6 != n**6 * d6:
        return None
    return (u, *_translation_for_scale(E1, E2, u))
