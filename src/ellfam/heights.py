"""Canonical heights, height pairings, and independence certificates.

For a point Q = (x, y) of infinite order on the minimal model,
``ĥ(Q) = 2·λ∞(x) + log den x + Σ z_p·log p``.  The archimedean part is a
telescoping duplication series, whose tail is below ``4^(-terms)``.  Where
x(2^k Q) lies near a root of 4x³ + b2x² + 2b4x + b6, a step cancels digits
that no fixed precision bounds, so the series owns its precision: it runs
at _WORK_DPS / 2 and _WORK_DPS digits, and at twice the precision again
until two runs agree within DEFAULT_EPS; the later run is then more
accurate by the digits added.  A run in which that cubic rounds to zero
agrees with none, since no multiple of a point of infinite order is
2-torsion.

At a prime where Q reduces to a nonsingular point the local height is half
of ``v_p(den x)·log p``, which ``log den x`` already holds.  At the few
primes where Q reduces to a singular point, Silverman's closed form
(*Math. Comp.* 51, 1988; Cohen, *GTM* 138, Alg. 7.5.7) gives the
correction z_p from three valuations at Q itself, so no multiple of Q has
to be moved to nonsingular reduction first.  Those corrections are summed
over a coprime base with no factoring (Silverman, "Computing canonical
heights with little (or no) factorization", *Math. Comp.* 66, 1997): the
budget reaches heights only through `minimal_model`, the one source of
Unfactored here.

Normalization: ``ĥ(P) = lim 4^(-n) · log H(x(2^n P))`` with ``H`` the naive
multiplicative height of the x-coordinate, so ``ĥ(2P) = 4·ĥ(P)``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

import mpmath as mp

from .arith import DEFAULT_BUDGET, FactorBudget, _coprime_pieces, valuation
from .curves import CurvePoint, WeierstrassCurve, division_poly
from .localdata import minimal_model
from .polyq import homogeneous_value

# DEFAULT_EPS bounds the error of each height and pairing entry: the
# archimedean series stops after _SERIES_TERMS = 64 duplications, so its
# tail is below 4^-64 (about 3e-39); its precision is raised until it holds
# (see the module docstring); and the float64 result is off by a relative
# 2^-53 (about 1e-16).
DEFAULT_EPS = 1e-10
INDEPENDENCE_THRESHOLD = 1e-6
_SERIES_TERMS = 64
_WORK_DPS = 60


def _lambda_inf(E: WeierstrassCurve, x0: Fraction):
    """Archimedean local height of a point of infinite order with
    x-coordinate x0, an mpmath mpf: the later of the first two runs of the
    duplication series, doubling its precision, that agree within
    DEFAULT_EPS."""
    dps = _WORK_DPS // 2
    last = _duplication_series(E, x0, dps)
    while True:
        dps *= 2
        lam = _duplication_series(E, x0, dps)
        if lam is not None and last is not None and abs(lam - last) < DEFAULT_EPS:
            return lam
        last = lam


def _duplication_series(E: WeierstrassCurve, x0: Fraction, dps: int):
    """λ(P) = (1/4)·λ(2P) + (1/8)·log|4x³ + b2x² + 2b4x + b6| telescoped for
    _SERIES_TERMS duplications at dps digits, closed with the crude bound
    λ(Q) ≈ (1/2)·log max(|x(Q)|, 1); the tail carries a 4^(-terms) factor.
    """
    with mp.workdps(dps):
        b2, b4, b6, b8 = map(mp.mpf, E.bc_invariants()[:4])
        x = mp.mpf(x0.numerator) / mp.mpf(x0.denominator)
        lam = mp.mpf(0)
        scale = mp.mpf(1)
        for _ in range(_SERIES_TERMS):
            dup_den = ((4 * x + b2) * x + 2 * b4) * x + b6
            dup_num = ((x * x - b4) * x - 2 * b6) * x - b8
            if dup_den == 0:
                # callers exclude torsion, so no multiple of the point is
                # 2-torsion: the cancellation took every digit
                return None
            lam += scale * mp.log(abs(dup_den)) / 8
            x = dup_num / dup_den
            scale /= 4
        lam += scale * mp.log(max(abs(x), mp.mpf(1))) / 2
        return lam


def _singular_corrections(E: WeierstrassCurve, Q: CurvePoint) -> list[tuple[int, Fraction]]:
    """(r, z) over pairwise coprime r whose primes are those where Q reduces
    to a singular point; z·log r is the local height's correction to
    log den x at the primes of r.

    Such a prime divides g, the gcd of both integralized partial
    derivatives at Q and Δ, and does not divide e = √(den x).  Silverman's
    z_p (1988) from N = v_p(Δ), B = v_p(2y + a1x + a3) and C = v_p(ψ3),
    with ψ3 from `division_poly` homogenized at x, is homogeneous of degree
    1 in (N, B, C).  Over a coprime base of g, e, Δ, f_y, ψ3 and c4 every
    prime p of a piece r has v_p(X) = v_r(X)·v_p(r) for each of them, and
    divides c4 exactly when r shares a factor with it, so
    Σ_{p|r} z_p·log p = z(v_r)·log r and nothing is factored (Silverman,
    *Math. Comp.* 66, 1997).

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
    a1, a2, a3, a4, _a6 = E._ints
    _b2, _b4, _b6, _b8, c4, _c6, disc = E.bc_invariants()
    fy = 2 * b + a1 * a * e + a3 * e**3
    fx = a1 * b * e - 3 * a * a - 2 * a2 * a * e * e - a4 * e**4
    g = math.gcd(fy, fx, disc)
    # E is integral, so ψ3 has den 1
    psi3 = homogeneous_value(division_poly(E, 3).ints, a, e2)
    out = []
    for r in _coprime_pieces([abs(v) for v in (g, e, disc, fy, psi3, c4) if v]):
        # primes of e reduce Q to the smooth point at infinity
        if g % r or math.gcd(r, e) > 1:
            continue
        N = valuation(disc, r)
        B = valuation(fy, r)
        if math.gcd(c4, r) == 1:  # multiplicative
            M = min(Fraction(B), Fraction(N, 2))
            z = M * (M - N) / N
        else:  # additive
            C = valuation(psi3, r)
            z = Fraction(-2 * B, 3) if C >= 3 * B else Fraction(-C, 4)
        out.append((r, z))
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


def _height_on_minimal(Emin: WeierstrassCurve, Q: CurvePoint) -> float:
    """ĥ(Q) for Q on the minimal model Emin: 0 at torsion, else
    2·λ∞(x) + log den x + Σ z·log r over the singular pieces."""
    if Q.is_infinity or Emin.point_order(Q) is not None:
        return 0.0
    x = Fraction(Q.x)
    with mp.workdps(_WORK_DPS):
        h = 2 * _lambda_inf(Emin, x) + mp.log(x.denominator)
        for r, z in _singular_corrections(Emin, Q):
            h += mp.mpf(z.numerator) / z.denominator * mp.log(r)
        return float(h)


def canonical_height(
    E: WeierstrassCurve, P: CurvePoint, budget: FactorBudget = DEFAULT_BUDGET
) -> float:
    """Canonical height ĥ(P), within DEFAULT_EPS.

    The corrections at singular primes are summed over a coprime base,
    with no factoring (Silverman 1997).  The budget serves only
    `minimal_model`, which must find the primes whose fourth power divides
    gcd(c4, c6); Unfactored is raised only when it cannot certify the
    minimal model within budget.
    """
    Emin, (Q,) = _on_minimal(E, [P], budget)
    return _height_on_minimal(Emin, Q)


class HeightPairingMatrix(NamedTuple):
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
    """Néron–Tate pairing matrix ⟨Pᵢ, Pⱼ⟩ = (ĥ(Pᵢ+Pⱼ) − ĥ(Pᵢ) − ĥ(Pⱼ))/2.

    The budget serves only `minimal_model`, as in `canonical_height`."""
    Emin, qs = _on_minimal(E, pts, budget)
    heights = [_height_on_minimal(Emin, Q) for Q in qs]
    n = len(qs)
    entries = [[0.0] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = heights[i]
        for j in range(i + 1, n):
            hij = _height_on_minimal(Emin, Emin.add(qs[i], qs[j], check=False))
            entries[i][j] = entries[j][i] = (hij - heights[i] - heights[j]) / 2
    return HeightPairingMatrix(
        points=tuple(pts),
        entries=tuple(tuple(row) for row in entries),
    )
