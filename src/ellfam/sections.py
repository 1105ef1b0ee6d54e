"""Quadratic sections: section conditions, conics, and quartic-to-cubic maps.

A family y^2 = x^3 + A x^2 + B x acquires a new section at x = d whenever
d + A + B/d is a square.  The degree-2 conditions are conics, solved and
parametrized exactly here; the degree-4 conditions t^2 = q(u), checked
squarefree by a gcd with the derivative and given a rational point that is
not a root of q, are converted to their Jacobian elliptic curves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Optional, Sequence

from .arith import (
    DEFAULT_BUDGET,
    FactorBudget,
    Unfactored,
    factor,
    hilbert_symbol,
    squarefree_decompose,
)
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
# conics
# ---------------------------------------------------------------------------


def _content_reduce_matrix(M) -> tuple[tuple[int, ...], ...]:
    entries = [int(x) for row in M for x in row]
    g = 0
    for x in entries:
        g = gcd(g, abs(x))
    g = g or 1
    return tuple(tuple(int(x) // g for x in row) for row in M)


@dataclass(frozen=True)
class Conic:
    """Projective conic x^T M x = 0 with a symmetric integer matrix M."""

    M: tuple[tuple[int, ...], ...]

    def __init__(self, M: Sequence[Sequence[int]]):
        rows = tuple(tuple(int(x) for x in row) for row in M)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("conic matrix must be 3x3")
        for i in range(3):
            for j in range(3):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("conic matrix must be symmetric")
        rows = _content_reduce_matrix(rows)
        if _det3(rows) == 0:
            raise ValueError("degenerate conic")
        object.__setattr__(self, "M", rows)

    def value(self, pt: Sequence[Fraction]) -> Fraction:
        x = [Fraction(c) for c in pt]
        return sum(
            self.M[i][j] * x[i] * x[j] for i in range(3) for j in range(3)
        )

    @staticmethod
    def from_quadratic(a: int, b: int, c: int, d: int, e: int, f: int) -> "Conic":
        """Conic of a x^2 + b y^2 + c z^2 + d xy + e xz + f yz = 0."""
        return Conic(
            [
                [2 * a, d, e],
                [d, 2 * b, f],
                [e, f, 2 * c],
            ]
        )


def _det3(M) -> int:
    return (
        M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
        - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
        + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
    )


def _diagonalize(M) -> tuple[list[Fraction], list[list[Fraction]], Optional[tuple]]:
    """Congruence-diagonalize M over Q.

    Returns (diag, T, point) where x = T y maps diagonal solutions back to M,
    or point is an immediate rational solution discovered along the way
    (an isotropic basis vector).
    """
    A = [[Fraction(M[i][j]) for j in range(3)] for i in range(3)]
    T = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    for k in range(3):
        if A[k][k] == 0:
            # find a later index with nonzero diagonal to swap in
            swap = next((i for i in range(k + 1, 3) if A[i][i] != 0), None)
            if swap is None:
                # all remaining diagonal entries vanish: basis vector e_k of
                # the current coordinates is on the conic
                pt = tuple(T[i][k] for i in range(3))
                return [], [], pt
            for i in range(3):
                A[k][i], A[swap][i] = A[swap][i], A[k][i]
            for i in range(3):
                A[i][k], A[i][swap] = A[i][swap], A[i][k]
            for i in range(3):
                T[i][k], T[i][swap] = T[i][swap], T[i][k]
        for i in range(k + 1, 3):
            if A[k][i] != 0:
                lam = -A[k][i] / A[k][k]
                # column operation C_i += lam C_k, and same row operation
                for j in range(3):
                    A[j][i] += lam * A[j][k]
                for j in range(3):
                    A[i][j] += lam * A[k][j]
                for j in range(3):
                    T[j][i] += lam * T[j][k]
    return [A[0][0], A[1][1], A[2][2]], T, None


def _squarefree_diagonal(diag, budget: FactorBudget) -> tuple[list[int], list[Fraction]]:
    """Lists sf, scale with diag[i] = sf[i] * scale[i]^2, each sf[i] a squarefree integer."""
    parts = [squarefree_decompose(q.numerator * q.denominator, budget) for q in diag]
    return [f for _s, f in parts], [Fraction(s, q.denominator) for (s, _f), q in zip(parts, diag)]


REAL_PLACE = "real"


def local_obstruction(C: Conic, budget: FactorBudget = DEFAULT_BUDGET):
    """Return a place obstructing solvability (REAL_PLACE or a prime), or
    None when the conic is locally solvable everywhere."""
    diag, _T, pt = _diagonalize(C.M)
    if pt is not None:
        return None
    return _diagonal_obstruction(_squarefree_diagonal(diag, budget)[0], budget)


def _diagonal_obstruction(sf: Sequence[int], budget: FactorBudget):
    """local_obstruction of sum(sf[i] * x[i]^2) = 0 for squarefree integers sf[i]."""
    a, b, c = sf
    # a x^2 + b y^2 + c z^2 = 0  <=>  (-a c) X^2 + (-b c) Y^2 = Z^2
    places = {None, 2}
    for n in (a, b, c):
        fi = factor(abs(n), budget)
        if not fi.complete:
            raise Unfactored(f"cannot certify conic solvability: {n}")
        places.update(fi.primes())
    for p in sorted(places, key=lambda x: (x is not None, x or 0)):
        if hilbert_symbol(-a * c, -b * c, p) != 1:
            return REAL_PLACE if p is None else p
    return None


def _make_pairwise_coprime(sf: list[int], scales: list[Fraction]) -> None:
    """Rewrite sum(sf[i] * v[i]^2) = 0, v[i] = scales[i] * y[i], in place so
    the squarefree sf[i] are pairwise coprime, which sympy's ternary solver
    assumes without checking.

    With g = gcd(sf[i], sf[j]) and k the third index, g times the form is
    (sf[i]/g)(g v[i])^2 + (sf[j]/g)(g v[j])^2 + (g sf[k]) v[k]^2: the
    coefficients stay squarefree and |sf[0] sf[1] sf[2]| drops by g.
    """
    g = gcd(*sf)
    sf[:] = [f // g for f in sf]
    while True:
        for i, j in itertools.combinations(range(3), 2):
            g = gcd(sf[i], sf[j])
            if g > 1:
                break
        else:
            return
        sf[i] //= g
        sf[j] //= g
        sf[3 - i - j] *= g
        scales[i] *= g
        scales[j] *= g


def solve_conic(
    C: Conic, budget: FactorBudget = DEFAULT_BUDGET
) -> Optional[tuple[Fraction, Fraction, Fraction]]:
    """An exact projective point on the conic, or None when none exists.

    Emptiness is certified by a local obstruction (see local_obstruction),
    never by giving up on a search.  Only sympy's ternary solver finds the
    point of a diagonal conic, so this is the one use of sympy here.
    """
    import sympy
    from sympy.solvers.diophantine.diophantine import diop_ternary_quadratic_normal

    diag, T, pt = _diagonalize(C.M)
    if pt is not None:
        sol = tuple(Fraction(v) for v in pt)
        assert C.value(sol) == 0
        return sol
    # sum(sf[i] * (scales[i] * y[i])^2) = 0 in the diagonal coordinates y,
    # with each sf[i] a squarefree integer
    sf, scales = _squarefree_diagonal(diag, budget)
    if _diagonal_obstruction(sf, budget) is not None:
        return None
    _make_pairwise_coprime(sf, scales)
    x, y, z = sympy.symbols("x y z", integer=True)
    vals = diop_ternary_quadratic_normal(sf[0] * x**2 + sf[1] * y**2 + sf[2] * z**2)
    # undo the squarefree scaling, then the diagonalizing change of basis
    yvec = [int(v) / s for v, s in zip(vals, scales)]
    out = tuple(
        sum(T[i][j] * yvec[j] for j in range(3)) for i in range(3)
    )
    assert C.value(out) == 0 and any(out)
    return out


def parametrize_conic(
    C: Conic, p0: Sequence[Fraction], var: str = "t"
) -> tuple[PolyQ, PolyQ, PolyQ]:
    """Sweep the lines through p0: degree-2 polynomials (x(t), y(t), z(t))
    with x^T M x identically zero and p0 among the values."""
    p = [Fraction(c) for c in p0]
    if C.value(p) != 0:
        raise ValueError("base point is not on the conic")

    def bilinear(u, w):
        return sum(C.M[i][j] * u[i] * w[j] for i in range(3) for j in range(3))

    # direction r(t) = e_i + t e_j with p, e_i, e_j independent and the
    # tangency parameter B(p, r(t)) = 0 attainable (so p0 itself is swept)
    basis = [
        [Fraction(int(i == k)) for i in range(3)] for k in range(3)
    ]
    choice = None
    for i, j in itertools.permutations(range(3), 2):
        e_i, e_j = basis[i], basis[j]
        if bilinear(p, e_j) == 0:
            continue
        det = _det3([p, e_i, e_j])
        if det != 0:
            choice = (e_i, e_j)
            break
    if choice is None:  # pragma: no cover - impossible for nondegenerate conics
        raise RuntimeError("no sweeping direction found")
    e_i, e_j = choice
    t = PolyQ.variable(var)
    r = [PolyQ.const(e_i[k], var) + t * e_j[k] for k in range(3)]
    # second intersection of the line p + s r with the conic:
    # Q(r) p - 2 B(p, r) r
    Qr = sum(
        r[a] * r[b] * C.M[a][b] for a in range(3) for b in range(3)
    )
    Bpr = sum(
        r[b] * C.M[a][b] * p[a] for a in range(3) for b in range(3)
    )
    out = tuple(Qr * PolyQ.const(p[k], var) - 2 * Bpr * r[k] for k in range(3))
    check = sum(
        out[a] * out[b] * C.M[a][b] for a in range(3) for b in range(3)
    )
    assert check.is_zero()
    return out


# ---------------------------------------------------------------------------
# quartics with a rational point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuarticModel:
    """t^2 = q(u) with q of degree at most 4 and an optional known point."""

    q: PolyQ
    known_point: Optional[tuple[Fraction, Fraction]] = None

    def __post_init__(self):
        if self.q.degree > 4 or self.q.is_zero():
            raise ValueError("expected a nonzero polynomial of degree <= 4")
        if self.q.gcd(self.q.derivative()).degree > 0:
            raise DegenerateQuartic(str(self.q))
        if self.known_point is not None:
            u0, t0 = self.known_point
            if Fraction(t0) ** 2 != self.q(Fraction(u0)):
                raise ValueError("known point does not satisfy the equation")


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
