"""Canonical heights, height pairings, and independence certificates.

The canonical height is computed as ``(2·λ∞(kP) + log den x(kP)) / k²``
where ``k`` is the smallest multiple moving the point to nonsingular
reduction at every bad prime of the minimal model.  For such points the
non-archimedean contribution is exactly half the log-denominator, and the
archimedean part is a telescoping duplication series with error below
``4^(-terms)``, far inside DEFAULT_EPS.

Normalization: ``ĥ(P) = lim 4^(-n) · log H(x(2^n P))`` with ``H`` the naive
multiplicative height of the x-coordinate, so ``ĥ(2P) = 4·ĥ(P)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .arith import DEFAULT_BUDGET, FactorBudget, Unfactored, factor, valuation_fraction
from .curves import INFINITY, CurvePoint, WeierstrassCurve
from .localdata import LocalData, minimal_model, tate_local

# DEFAULT_EPS bounds the error of each height and pairing entry: the
# archimedean series stops after _SERIES_TERMS = 64 duplications, so its
# tail is below 4^-64 (about 3e-39); it is summed with _WORK_DPS = 60
# digits; and the float64 result is off by a relative 2^-53 (about 1e-16).
DEFAULT_EPS = 1e-10
INDEPENDENCE_THRESHOLD = 1e-6
_SERIES_TERMS = 64
_WORK_DPS = 60


def _lambda_inf(E: WeierstrassCurve, x0: Fraction) -> mp.mpf:
    """Archimedean local height of a point with x-coordinate x0.

    λ(P) = (1/4)·λ(2P) + (1/8)·log|4x³ + b2x² + 2b4x + b6| telescoped for
    _SERIES_TERMS duplications, closed with the crude bound
    λ(Q) ≈ (1/2)·log max(|x(Q)|, 1); the tail carries a 4^(-terms) factor.
    """
    b2 = mp.mpf(int(E.b2))
    b4 = mp.mpf(int(E.b4))
    b6 = mp.mpf(int(E.b6))
    b8 = mp.mpf(int(E.b8))
    x = mp.mpf(x0.numerator) / mp.mpf(x0.denominator)
    lam = mp.mpf(0)
    scale = mp.mpf(1)
    for _ in range(_SERIES_TERMS):
        dup_den = ((4 * x + b2) * x + 2 * b4) * x + b6
        dup_num = ((x * x - b4) * x - 2 * b6) * x - b8
        if dup_den == 0:
            # numerically exact 2-division point: the point was (numerically)
            # torsion, which callers exclude; stop the telescope here
            break
        lam += scale * mp.log(abs(dup_den)) / 8
        x = dup_num / dup_den
        scale /= 4
    lam += scale * mp.log(max(abs(x), mp.mpf(1))) / 2
    return lam


def _mod_p(q: Fraction, p: int) -> int:
    num, den = q.numerator, q.denominator
    return num * pow(den, -1, p) % p


def _nonsingular_at(E: WeierstrassCurve, Q: CurvePoint, p: int) -> bool:
    """Does Q reduce to a nonsingular point of the fiber at p?"""
    if Q.is_infinity:
        return True
    x_frac = Fraction(Q.x)
    if x_frac != 0 and valuation_fraction(x_frac, p) < 0:
        return True  # reduces to the (nonsingular) point at infinity
    x = _mod_p(Fraction(Q.x), p)
    y = _mod_p(Fraction(Q.y), p)
    a1, a2, a3, a4 = (int(E.a1) % p, int(E.a2) % p, int(E.a3) % p, int(E.a4) % p)
    fy = (2 * y + a1 * x + a3) % p
    fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p
    return not (fx == 0 and fy == 0)


def _singular_local_data(
    E: WeierstrassCurve, Q: CurvePoint, budget: FactorBudget
) -> list[LocalData]:
    """LocalData at the primes where Q reduces to a singular point.

    Such a prime divides both integralized partial derivatives at Q, so the
    candidates come from one small gcd — the (often enormous) discriminant
    is never factored.
    """
    if Q.is_infinity:
        return []
    x, y = Fraction(Q.x), Fraction(Q.y)
    e2 = x.denominator
    e = math.isqrt(e2)
    assert e * e == e2, "integral model denominators must be squares"
    a = x.numerator
    b = y * e**3
    assert b.denominator == 1, "integral model denominators must be cubes"
    b = b.numerator
    a1, a2, a3, a4 = (int(E.a1), int(E.a2), int(E.a3), int(E.a4))
    fy = 2 * b + a1 * a * e + a3 * e**3
    fx = a1 * b * e - 3 * a * a - 2 * a2 * a * e * e - a4 * e**4
    g = math.gcd(fy, fx, int(E.disc))
    # strip denominator primes: they reduce Q to the smooth point at infinity
    d = math.gcd(g, e)
    while d > 1:
        while g % d == 0:
            g //= d
        d = math.gcd(g, e)
    if g == 1:
        return []
    fi = factor(g, budget)
    if not fi.complete:
        raise Unfactored("singular-prime gcd factorization incomplete")
    out = []
    for p, _exp in fi.factors:
        if not _nonsingular_at(E, Q, p):
            out.append(tate_local(E, p))
    return out


def _good_position_multiple(
    E: WeierstrassCurve, P: CurvePoint, bad: Sequence[LocalData]
) -> tuple[int, CurvePoint]:
    """Smallest k with kP nonsingular at every bad prime, together with kP.

    The component of P in the group of rational components at p has order
    dividing the Tamagawa number, so k divides lcm of the c_p.
    """
    limit = math.lcm(*(ld.c_p for ld in bad)) if bad else 1
    divisors = sorted(d for d in range(1, limit + 1) if limit % d == 0)
    for k in divisors:
        Q = E.mul(k, P)
        if Q.is_infinity:
            raise ValueError("torsion point reached inside good-position search")
        if all(_nonsingular_at(E, Q, ld.p) for ld in bad):
            return k, Q
    raise AssertionError("lcm of Tamagawa numbers must reach good position")


def canonical_height(
    E: WeierstrassCurve, P: CurvePoint, budget: FactorBudget = DEFAULT_BUDGET
) -> float:
    """Canonical height ĥ(P), within DEFAULT_EPS.

    Raises Unfactored when the minimal discriminant cannot be factored
    within budget (bad primes would be unknown).
    """
    if P.is_infinity:
        return 0.0
    Emin, pm = minimal_model(E, budget)
    Q0 = pm.forward(P)
    if not Emin.contains(Q0):
        raise ValueError("point is not on the curve")
    if Emin.point_order(Q0) is not None:
        return 0.0
    return _height_on_minimal(Emin, Q0, budget)


def _height_on_minimal(
    Emin: WeierstrassCurve, Q0: CurvePoint, budget: FactorBudget
) -> float:
    bad = _singular_local_data(Emin, Q0, budget)
    k, Q = _good_position_multiple(Emin, Q0, bad)
    with mp.workdps(_WORK_DPS):
        lam = _lambda_inf(Emin, Fraction(Q.x))
        finite = mp.log(Fraction(Q.x).denominator) / 2
        h = (2 * lam + 2 * finite) / k**2
        return float(h)


@dataclass(frozen=True)
class HeightPairingMatrix:
    points: tuple[CurvePoint, ...]
    entries: tuple[tuple[float, ...], ...]

    def gram_determinant(self) -> float:
        n = len(self.points)
        m = [list(row) for row in self.entries]
        det = 1.0
        for i in range(n):
            pivot = max(range(i, n), key=lambda r: abs(m[r][i]))
            if abs(m[pivot][i]) < DEFAULT_EPS:
                return 0.0
            if pivot != i:
                m[i], m[pivot] = m[pivot], m[i]
                det = -det
            det *= m[i][i]
            for r in range(i + 1, n):
                f = m[r][i] / m[i][i]
                for c in range(i, n):
                    m[r][c] -= f * m[i][c]
        return det

    def certificate(self) -> str:
        """"independent" iff the Gram determinant clears
        INDEPENDENCE_THRESHOLD and the error bound propagated from the
        entries' DEFAULT_EPS; otherwise "inconclusive" (never "dependent":
        that claim would require exact linear relations)."""
        det = self.gram_determinant()
        n = len(self.points)
        scale = max((abs(e) for row in self.entries for e in row), default=0.0) + DEFAULT_EPS
        err_bound = n * math.factorial(n) * scale ** (n - 1) * DEFAULT_EPS
        if det > max(INDEPENDENCE_THRESHOLD, err_bound):
            return "independent"
        return "inconclusive"


def pairing_matrix(
    E: WeierstrassCurve, pts: Sequence[CurvePoint], budget: FactorBudget = DEFAULT_BUDGET
) -> HeightPairingMatrix:
    """Néron–Tate pairing matrix ⟨Pᵢ, Pⱼ⟩ = (ĥ(Pᵢ+Pⱼ) − ĥ(Pᵢ) − ĥ(Pⱼ))/2."""
    Emin, pm = minimal_model(E, budget)
    qs = []
    for P in pts:
        Q = pm.forward(P)
        if not Emin.contains(Q):
            raise ValueError("point is not on the curve")
        qs.append(Q)

    def h(Q: CurvePoint) -> float:
        if Q.is_infinity or Emin.point_order(Q) is not None:
            return 0.0
        return _height_on_minimal(Emin, Q, budget)

    heights = [h(Q) for Q in qs]
    n = len(qs)
    entries = [[0.0] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = heights[i]
        for j in range(i + 1, n):
            hij = h(Emin.add(qs[i], qs[j]))
            entries[i][j] = entries[j][i] = (hij - heights[i] - heights[j]) / 2
    return HeightPairingMatrix(
        points=tuple(pts),
        entries=tuple(tuple(row) for row in entries),
    )


def regulator(
    E: WeierstrassCurve, pts: Sequence[CurvePoint], budget: FactorBudget = DEFAULT_BUDGET
) -> float:
    """Gram determinant of the height pairing on pts."""
    return pairing_matrix(E, pts, budget).gram_determinant()


def independence_certificate(
    E: WeierstrassCurve, pts: Sequence[CurvePoint], budget: FactorBudget = DEFAULT_BUDGET
) -> str:
    """The certificate (HeightPairingMatrix.certificate) of pts' pairing
    matrix."""
    return pairing_matrix(E, pts, budget).certificate()
