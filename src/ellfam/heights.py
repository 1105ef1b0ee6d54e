"""Canonical heights, height pairings, and independence certificates.

For a point Q = (x, y) of infinite order on the minimal model,
``ĥ(Q) = 2·λ∞(x) + log den x + Σ z_p·log p``.  The archimedean part is a
telescoping duplication series with error below ``4^(-terms)``, far inside
DEFAULT_EPS.  At a prime where Q reduces to a nonsingular point the local
height is half of ``v_p(den x)·log p``, which ``log den x`` already holds.
At the few primes where Q reduces to a singular point, Silverman's closed
form (*Math. Comp.* 51, 1988; Cohen, *GTM* 138, Alg. 7.5.7) gives the
correction z_p from three valuations at Q itself, so no multiple of Q has
to be moved to nonsingular reduction first.

Normalization: ``ĥ(P) = lim 4^(-n) · log H(x(2^n P))`` with ``H`` the naive
multiplicative height of the x-coordinate, so ``ĥ(2P) = 4·ĥ(P)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arith import DEFAULT_BUDGET, FactorBudget, Unfactored, factor, valuation
from .curves import CurvePoint, WeierstrassCurve, division_poly
from .localdata import minimal_model
from .polyq import homogeneous_value

# DEFAULT_EPS bounds the error of each height and pairing entry: the
# archimedean series stops after _SERIES_TERMS = 64 duplications, so its
# tail is below 4^-64 (about 3e-39); it is summed with _WORK_DPS = 60
# digits; and the float64 result is off by a relative 2^-53 (about 1e-16).
DEFAULT_EPS = 1e-10
INDEPENDENCE_THRESHOLD = 1e-6
_SERIES_TERMS = 64
_WORK_DPS = 60


def _lambda_inf(E: WeierstrassCurve, x0: Fraction):
    """Archimedean local height of a point with x-coordinate x0, an mpmath
    mpf at the caller's working precision.

    λ(P) = (1/4)·λ(2P) + (1/8)·log|4x³ + b2x² + 2b4x + b6| telescoped for
    _SERIES_TERMS duplications, closed with the crude bound
    λ(Q) ≈ (1/2)·log max(|x(Q)|, 1); the tail carries a 4^(-terms) factor.
    """
    import mpmath as mp

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


def _singular_corrections(
    E: WeierstrassCurve, Q: CurvePoint, budget: FactorBudget
) -> list[tuple[int, Fraction]]:
    """(p, z) at each prime p where Q reduces to a singular point.

    Such a prime divides both integralized partial derivatives at Q, so the
    primes come from one small gcd — the (often enormous) discriminant is
    never factored — and every prime left in it is singular.  z·log p is
    the local height's correction to log den x at p (Silverman 1988),
    from N = v_p(Δ), B = v_p(2y + a1x + a3) and
    C = v_p(ψ3) on the minimal model E, with ψ3 from `division_poly`
    homogenized at x.

    Q must be affine and of order above 3: 2y + a1x + a3 vanishes only at
    2-torsion, ψ3 only at 3-torsion.
    """
    x, y = Fraction(Q.x), Fraction(Q.y)
    e2 = x.denominator
    e = math.isqrt(e2)
    assert e * e == e2, "integral model denominators must be squares"
    a = x.numerator
    b = y * e**3
    assert b.denominator == 1, "integral model denominators must be cubes"
    b = b.numerator
    a1, a2, a3, a4 = (int(E.a1), int(E.a2), int(E.a3), int(E.a4))
    disc = int(E.disc)
    fy = 2 * b + a1 * a * e + a3 * e**3
    fx = a1 * b * e - 3 * a * a - 2 * a2 * a * e * e - a4 * e**4
    g = math.gcd(fy, fx, disc)
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
        N = valuation(disc, p)
        B = valuation(fy, p)
        if int(E.c4) % p:  # multiplicative
            M = min(Fraction(B), Fraction(N, 2))
            z = M * (M - N) / N
        else:  # additive
            # E is integral, so ψ3 has den 1
            C = valuation(homogeneous_value(division_poly(E, 3).ints, a, e2), p)
            z = Fraction(-2 * B, 3) if C >= 3 * B else Fraction(-C, 4)
        out.append((p, z))
    return out


def _on_minimal(
    E: WeierstrassCurve, pts: Sequence[CurvePoint], budget: FactorBudget
) -> tuple[WeierstrassCurve, list[CurvePoint]]:
    """The minimal model of E and pts mapped onto it, proven on it."""
    Emin, pm = minimal_model(E, budget)
    qs = [pm.forward(P) for P in pts]
    if not all(Emin.contains(Q) for Q in qs):
        raise ValueError("point is not on the curve")
    return Emin, qs


def _height_on_minimal(
    Emin: WeierstrassCurve, Q: CurvePoint, budget: FactorBudget
) -> float:
    """ĥ(Q) for Q on the minimal model Emin: 0 at torsion, else
    2·λ∞(x) + log den x + Σ z·log p over the singular primes."""
    import mpmath as mp

    if Q.is_infinity or Emin.point_order(Q) is not None:
        return 0.0
    x = Fraction(Q.x)
    with mp.workdps(_WORK_DPS):
        h = 2 * _lambda_inf(Emin, x) + mp.log(x.denominator)
        for p, z in _singular_corrections(Emin, Q, budget):
            h += mp.mpf(z.numerator) / z.denominator * mp.log(p)
        return float(h)


def canonical_height(
    E: WeierstrassCurve, P: CurvePoint, budget: FactorBudget = DEFAULT_BUDGET
) -> float:
    """Canonical height ĥ(P), within DEFAULT_EPS.

    Raises Unfactored when `minimal_model` cannot certify the minimal
    model, or when the gcd that holds the singular primes of P cannot be
    factored within budget.
    """
    Emin, (Q,) = _on_minimal(E, [P], budget)
    return _height_on_minimal(Emin, Q, budget)


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
    Emin, qs = _on_minimal(E, pts, budget)
    heights = [_height_on_minimal(Emin, Q, budget) for Q in qs]
    n = len(qs)
    entries = [[0.0] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = heights[i]
        for j in range(i + 1, n):
            hij = _height_on_minimal(Emin, Emin.add(qs[i], qs[j], check=False), budget)
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
