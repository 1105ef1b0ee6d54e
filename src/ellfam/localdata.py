"""Minimal models, Tate's algorithm and conductors over Q.

All computations are exact over the integers: reductions are handled through
p-adic valuations of the integral coefficients, never through floating point
or truncated p-adic expansions.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from fractions import Fraction

from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_from_int_poly, gf_gcd, gf_pow_mod, gf_sub

from .arith import (
    DEFAULT_BUDGET,
    FactorBudget,
    FactoredInt,
    Unfactored,
    factor,
    factor_with_parts,
    jacobi,
    valuation,
)
from .curves import PointMap, WeierstrassCurve


@dataclass(frozen=True)
class LocalData:
    """Reduction data of a minimal model at one prime."""

    p: int
    kodaira: str  # "I0", "In", "II", "III", "IV", "I0*", "In*", "IV*", "III*", "II*"
    f_p: int
    c_p: int
    reduction: str  # good | split-multiplicative | nonsplit-multiplicative | additive
    vp_disc_min: int

    def components(self) -> int:
        """Number of components of the special fiber (with multiplicity 1
        counting), as used in the conductor-discriminant relation."""
        k = self.kodaira
        named = {"II": 1, "III": 2, "IV": 3, "IV*": 7, "III*": 8, "II*": 9}
        if k in named:
            return named[k]
        if k.endswith("*"):
            return int(k[1:-1]) + 5
        return max(int(k[1:]), 1)


def _int_invariants(E: WeierstrassCurve) -> tuple[int, int, int, int, int]:
    ai = []
    for a in (E.a1, E.a2, E.a3, E.a4, E.a6):
        a = Fraction(a)
        if a.denominator != 1:
            raise ValueError("integral model required")
        ai.append(a.numerator)
    return tuple(ai)


# ---------------------------------------------------------------------------
# minimal models (Laska-Kraus-Connell)
# ---------------------------------------------------------------------------


def _kraus_ok(c4: int, c6: int, p: int) -> bool:
    """Whether (c4, c6) arises from some integral model over Z_p."""
    if p == 3:
        return valuation(c6, 3) != 2 if c6 else True
    if p == 2:
        if c6 % 4 == 3:
            return True
        return c4 % 16 == 0 and c6 % 32 in (0, 8)
    return True


def _curve_from_c4c6(c4: int, c6: int) -> WeierstrassCurve:
    """Integral model with the given invariants (Kraus conditions assumed)."""
    b2 = (-c6) % 12
    if b2 > 6:
        b2 -= 12
    b4 = (b2 * b2 - c4) // 24
    b6 = (-b2**3 + 36 * b2 * b4 - c6) // 216
    a1 = b2 % 2
    a2 = (b2 - a1) // 4
    a3 = b6 % 2
    a4 = (b4 - a1 * a3) // 2
    a6 = (b6 - a3) // 4
    E = WeierstrassCurve(a1, a2, a3, a4, a6)
    assert (E.c4, E.c6) == (c4, c6)
    return E


def minimal_model(
    E: WeierstrassCurve, budget: FactorBudget = DEFAULT_BUDGET
) -> tuple[WeierstrassCurve, PointMap]:
    """Global minimal model over Q, with the point map onto it.

    A prime p can be scaled away only when p^4 | c4 and p^6 | c6, so the
    candidate primes are read off a factorization of gcd(c4, c6) (of the
    nonzero invariant when the other vanishes).  The discriminant itself is
    never factored; an unfactorable gcd residue raises Unfactored unless it
    is certifiably 4th-power-free.
    """
    if not E.is_integral():
        E, _pm = E.integral_model()
    _int_invariants(E)
    c4, c6 = int(E.c4), int(E.c6)
    g = math.gcd(c4, c6) if c4 and c6 else abs(c4 or c6)
    fi = factor(g, budget)
    if not fi.complete:
        # every prime factor of the residue exceeds the trial bound, so a
        # hidden candidate prime p (with p^4 dividing the residue) would
        # force the residue to be at least trial_bound^4
        if fi.residue >= budget.trial_bound**4:
            raise Unfactored(
                "gcd(c4, c6) residue could hide a 4th power; "
                "minimality cannot be certified"
            )
    Emin, u = _minimize_at(E, [p for p, e in fi.factors if p < 5 or e >= 4])
    # the map E -> Emin: compose scaling by u with the translation aligning
    # the (c4, c6)-standard model
    pm = _isomorphism_with_scale(E, Emin, Fraction(u))
    return Emin, pm


def _minimize_at(E: WeierstrassCurve, primes) -> tuple[WeierstrassCurve, int]:
    """The (c4, c6)-standard model of integral E, minimal at each of primes,
    and the scale u it was reached by."""
    c4, c6, disc = int(E.c4), int(E.c6), int(E.disc)
    u = 1
    for p in primes:
        while True:
            g4, g6 = valuation(c4, p) if c4 else 10**9, valuation(c6, p) if c6 else 10**9
            if g4 < 4 or g6 < 6 or valuation(disc, p) < 12:
                break
            nc4, nc6 = c4 // p**4, c6 // p**6
            if p in (2, 3) and not _kraus_ok(nc4, nc6, p):
                break
            c4, c6, disc = nc4, nc6, disc // p**12
            u *= p
    return _curve_from_c4c6(c4, c6), u


def _isomorphism_with_scale(E1, E2, u: Fraction) -> PointMap:
    """PointMap from E1 to E2 for a known scale factor u (c4_2 = c4_1/u^4)."""
    s = (u * E2.a1 - E1.a1) / 2
    r = (u * u * E2.a2 - E1.a2 + s * E1.a1 + s * s) / 3
    t = (u**3 * E2.a3 - E1.a3 - r * E1.a1) / 2
    check, pm = E1.transform(u, r, s, t)
    assert check == E2
    return pm


# ---------------------------------------------------------------------------
# Tate's algorithm
# ---------------------------------------------------------------------------


def _vp(n: int, p: int) -> int:
    return valuation(n, p) if n else 10**9


def _has_root_quadratic(a: int, b: int, c: int, p: int) -> bool:
    """Whether a y^2 + b y + c has a root in F_p.

    For odd p this reads off the discriminant, so a and b must not both
    vanish mod p (Tate's algorithm only asks with a = 1 or with a nonzero
    discriminant).
    """
    if p == 2:
        return c % 2 == 0 or (a + b + c) % 2 == 0
    d = (b * b - 4 * a * c) % p
    return d == 0 or jacobi(d, p) == 1


def _repeated_root(cs: list[int], p: int) -> int:
    """The repeated root in F_p (p >= 5) of a T^3 + b T^2 + c T + d, given
    by ascending coefficients, whose discriminant vanishes mod p.

    For a (T - r)^2 (T - s): b^2 - 3ac = a^2 (r - s)^2 and
    9ad - bc = 2 a^2 r (r - s)^2, so the double root is their quotient
    over 2; when b^2 - 3ac vanishes the root is triple, -b/(3a).
    """
    d, c, b, a = (x % p for x in cs)
    h = (b * b - 3 * a * c) % p
    if h == 0:
        return (-b * pow(3 * a, -1, p)) % p
    return (9 * a * d - b * c) * pow(2 * h, -1, p) % p


def _count_roots_cubic(cs: list[int], p: int) -> int:
    """Number of distinct roots in F_p of a cubic given by ascending
    coefficients, nonzero mod p: the degree of gcd(f, T^p - T).

    Below p = 500, trying every residue is faster than that gcd.
    """
    d, c, b, a = (x % p for x in cs)
    if p < 500:
        return sum((((a * x + b) * x + c) * x + d) % p == 0 for x in range(p))
    f = gf_from_int_poly([a, b, c, d], p)
    x = [ZZ(1), ZZ(0)]
    h = gf_sub(gf_pow_mod(x, p, f, p, ZZ), x, p, ZZ)
    return len(gf_gcd(f, h, p, ZZ)) - 1


class _Model:
    """Mutable integral model while Tate's algorithm runs."""

    def __init__(self, ai):
        self.a1, self.a2, self.a3, self.a4, self.a6 = [int(a) for a in ai]

    def invariants(self):
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        c4 = b2 * b2 - 24 * b4
        c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
        disc = (
            -(b2 * b2 * b8) - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        )
        return b2, b4, b6, b8, c4, c6, disc

    def translate(self, r: int, s: int, t: int):
        """Apply (x, y) -> (x + r, y + s x + t): the u = 1 coordinate change."""
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        self.a1 = a1 + 2 * s
        self.a2 = a2 - s * a1 + 3 * r - s * s
        self.a3 = a3 + r * a1 + 2 * t
        self.a4 = a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t
        self.a6 = a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1

    def unscale(self, p: int):
        self.a1 //= p
        self.a2 //= p * p
        self.a3 //= p**3
        self.a4 //= p**4
        self.a6 //= p**6


def tate_local(E: WeierstrassCurve, p: int) -> LocalData:
    """Complete local reduction data at p (Tate's algorithm)."""
    M = _Model(_int_invariants(E))
    while True:
        b2, b4, b6, b8, c4, c6, disc = M.invariants()
        assert disc != 0
        n = _vp(disc, p)
        if n == 0:
            return LocalData(p, "I0", 0, 1, "good", 0)
        # move the singular point of the reduction to (0, 0)
        _move_singular_point(M, p)
        b2, b4, b6, b8, c4, c6, disc = M.invariants()
        if c4 % p != 0:
            # multiplicative reduction, type In
            split = _tangent_splits(M, p)
            if split:
                red, c = "split-multiplicative", n
            else:
                red, c = "nonsplit-multiplicative", (2 if n % 2 == 0 else 1)
            return LocalData(p, f"I{n}", 1, c, red, n)
        p2, p3, p4 = p * p, p**3, p**4
        if M.a6 % p2 != 0:
            return LocalData(p, "II", n, 1, "additive", n)
        if b8 % p3 != 0:
            return LocalData(p, "III", n - 1, 2, "additive", n)
        if b6 % p3 != 0:
            # type IV: c depends on Y^2 + (a3/p) Y - a6/p^2 splitting
            root = _has_root_quadratic(1, M.a3 // p, -(M.a6 // p2), p)
            return LocalData(p, "IV", n - 2, 3 if root else 1, "additive", n)
        _arrange_step7(M, p)
        assert M.a1 % p == 0 and M.a2 % p == 0
        assert M.a3 % p2 == 0 and M.a4 % p2 == 0 and M.a6 % p3 == 0
        # cubic P(T) = T^3 + (a2/p) T^2 + (a4/p^2) T + a6/p^3 mod p
        cub = [M.a6 // p3, M.a4 // p2, M.a2 // p, 1]
        disc_cub = _cubic_disc(cub) % p
        if disc_cub != 0:
            c = 1 + _count_roots_cubic(cub, p)
            return LocalData(p, "I0*", n - 4, c, "additive", n)
        if _cubic_has_triple_root(cub, p):
            r0 = _cubic_triple_root(cub, p)
            M.translate(p * r0, 0, 0)
            return _steps_8_to_11(M, p, n)
        # double (not triple) root: the In* family
        r0 = _cubic_double_root(cub, p)
        M.translate(p * r0, 0, 0)
        return _instar_loop(M, p, n)


def _move_singular_point(M: _Model, p: int):
    if p <= 3:
        for r in range(p):
            for t in range(p):
                T = _Model((M.a1, M.a2, M.a3, M.a4, M.a6))
                T.translate(r, 0, t)
                if T.a3 % p == 0 and T.a4 % p == 0 and T.a6 % p == 0:
                    M.translate(r, 0, t)
                    return
        raise RuntimeError("no singular point found")  # pragma: no cover
    b2, b4, b6, b8, c4, c6, disc = M.invariants()
    # repeated root of 4x^3 + b2 x^2 + 2 b4 x + b6 mod p
    x0 = _repeated_root([b6, 2 * b4, b2, 4], p)
    y0 = (-(M.a1 * x0 + M.a3) * pow(2, -1, p)) % p
    M.translate(x0, 0, y0)
    assert M.a3 % p == 0 and M.a4 % p == 0 and M.a6 % p == 0


def _tangent_splits(M: _Model, p: int) -> bool:
    """Split vs nonsplit multiplicative: do the tangent directions at the
    node lie in F_p?  They are the roots of T^2 + a1 T - a2."""
    if p == 2:
        return (-M.a2) % 2 == 0 or (1 + M.a1 - M.a2) % 2 == 0
    b2 = M.a1 * M.a1 + 4 * M.a2
    return jacobi(b2 % p, p) == 1


def _arrange_step7(M: _Model, p: int):
    """Translate so that p | a1, a2; p^2 | a3, a4; p^3 | a6."""
    if p == 2:
        for r in (0, 2, 4, 6):
            for s in (0, 1):
                for t in range(8):
                    T = _Model((M.a1, M.a2, M.a3, M.a4, M.a6))
                    T.translate(r, s, t)
                    if (
                        T.a1 % 2 == 0
                        and T.a2 % 2 == 0
                        and T.a3 % 4 == 0
                        and T.a4 % 4 == 0
                        and T.a6 % 8 == 0
                    ):
                        M.translate(r, s, t)
                        return
        raise RuntimeError("step 7 arrangement failed")  # pragma: no cover
    # p odd: kill a1 and a3 modulo p^3; the remaining valuations then follow
    # from the b6 and b8 divisibility already established
    p3 = p**3
    inv2 = pow(2, -1, p3)
    s = (-M.a1 * inv2) % p3
    M.translate(0, s, 0)
    t = (-M.a3 * inv2) % p3
    M.translate(0, 0, t)


def _cubic_disc(cs) -> int:
    d, c, b, a = cs  # a T^3 + b T^2 + c T + d with a = 1
    return (
        18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d
    )


def _cubic_has_triple_root(cs, p) -> bool:
    # monic cubic T^3 + bT^2 + cT + d has a triple root mod p iff it equals
    # (T + b/3)^3, i.e. b^2 = 3c and b c = 9 d (valid for p != 3 via the
    # depressed form; check directly mod p)
    d, c, b, _a = [x % p for x in cs]
    if p == 3:
        # triple root r satisfies r^3 = -(d) and c = 0 and b = 0 mod 3 after
        # depressing is unavailable; test all residues
        for r in range(3):
            if all(
                x % 3 == 0
                for x in _expand_shift_cubic(cs, r)
            ):
                return True
        return False
    return (b * b - 3 * c) % p == 0 and (b * c - 9 * d) % p == 0


def _expand_shift_cubic(cs, r):
    """Coefficients (below leading) of the cubic shifted by T -> T + r."""
    d, c, b, a = cs
    # (T + r)^3 + b (T + r)^2 + c (T + r) + d
    nb = 3 * r * a + b
    nc = 3 * r * r * a + 2 * b * r + c
    nd = a * r**3 + b * r * r + c * r + d
    return [nd, nc, nb]


def _cubic_triple_root(cs, p) -> int:
    if p == 3:
        for r in range(3):
            if all(x % 3 == 0 for x in _expand_shift_cubic(cs, r)):
                return r
        raise RuntimeError("triple root lost")  # pragma: no cover
    b = cs[2]
    return (-b * pow(3, -1, p)) % p


def _cubic_double_root(cs, p) -> int:
    if p <= 3:
        for r in range(p):
            nd, nc, _nb = _expand_shift_cubic(cs, r)
            if nd % p == 0 and nc % p == 0:
                return r
        raise RuntimeError("double root lost")  # pragma: no cover
    return _repeated_root(cs, p)


def _instar_loop(M: _Model, p: int, n: int) -> LocalData:
    """Types Im* for m >= 1: the double-root sub-procedure."""
    q = 2
    while True:
        # quadratic in Y: Y^2 + (a3/p^q) Y - a6/p^(2q)
        m = 2 * q - 3
        a3t = M.a3 // p**q
        a6t = M.a6 // p ** (2 * q)
        if (a3t * a3t + 4 * a6t) % p != 0:
            c = 4 if _has_root_quadratic(1, a3t, -a6t, p) else 2
            return LocalData(p, f"I{m}*", n - 4 - m, c, "additive", n)
        if p == 2:
            alpha = next(
                y for y in range(2) if (y * y + a3t * y - a6t) % 2 == 0
            )
        else:
            alpha = (-a3t * pow(2, -1, p)) % p
        M.translate(0, 0, p**q * alpha)
        # quadratic in X: (a2/p) X^2 + (a4/p^(q+1)) X + a6/p^(2q+1)
        m = 2 * q - 2
        a2t = M.a2 // p
        a4t = M.a4 // p ** (q + 1)
        a6t = M.a6 // p ** (2 * q + 1)
        if (a4t * a4t - 4 * a2t * a6t) % p != 0:
            c = 4 if _has_root_quadratic(a2t, a4t, a6t, p) else 2
            return LocalData(p, f"I{m}*", n - 4 - m, c, "additive", n)
        if p == 2:
            alpha = next(
                x for x in range(2) if (a2t * x * x + a4t * x + a6t) % 2 == 0
            )
        else:
            alpha = (-a4t * pow(2 * a2t, -1, p)) % p
        M.translate(p**q * alpha, 0, 0)
        q += 1


def _steps_8_to_11(M: _Model, p: int, n: int) -> LocalData:
    """Triple-root tail of the algorithm: IV*, III*, II* or restart."""
    p2, p3, p4, p5, p6 = p * p, p**3, p**4, p**5, p**6
    # quadratic Y^2 + (a3/p^2) Y - a6/p^4 mod p
    a3t = M.a3 // p2
    a6t = M.a6 // p4
    if (a3t * a3t + 4 * a6t) % p != 0:
        root = _has_root_quadratic(1, a3t, -a6t, p)
        return LocalData(p, "IV*", n - 6, 3 if root else 1, "additive", n)
    if p == 2:
        alpha = next(y for y in range(2) if (y * y + a3t * y - a6t) % 2 == 0)
    else:
        alpha = (-a3t * pow(2, -1, p)) % p
    M.translate(0, 0, p2 * alpha)
    if M.a4 % p4 != 0:
        return LocalData(p, "III*", n - 7, 2, "additive", n)
    if M.a6 % p6 != 0:
        return LocalData(p, "II*", n - 8, 1, "additive", n)
    # non-minimal at p: rescale and rerun
    M.unscale(p)
    return tate_local(WeierstrassCurve(M.a1, M.a2, M.a3, M.a4, M.a6), p)


# ---------------------------------------------------------------------------
# conductor
# ---------------------------------------------------------------------------


def discriminant_factorization(
    E: WeierstrassCurve, budget: FactorBudget = DEFAULT_BUDGET
) -> tuple[WeierstrassCurve, FactoredInt]:
    """Global minimal model of E and a factorization of |disc_min|.

    For an integral y^2 = x^3 + a2 x^2 + a4 x the discriminant is
    16 a4^2 (a2^2 - 4 a4) and disc(E) = u^12 disc_min, so every prime of
    disc_min divides 2, a4 or a2^2 - 4 a4: those small parts are factored
    instead of disc_min as one number.  Any other model falls back to
    factoring |disc_min| whole.  Either way the result is certified by
    exact division (see factor_with_parts).

    When minimal_model cannot certify minimality, the discriminant of E
    is factored instead and E is minimized at every prime found.  Every
    prime that can be scaled away divides disc(E), so the result is
    complete, and the model certified minimal, exactly when that
    factorization is; otherwise it covers the known primes (complete=False).
    """
    try:
        Emin, _pm = minimal_model(E, budget)
    except Unfactored:
        if not E.is_integral():
            E, _pm = E.integral_model()
        fE = _factor_disc(E, abs(int(E.disc)), budget)
        Emin, _u = _minimize_at(E, fE.primes())
        m = abs(int(Emin.disc))
        found = []
        for p in fE.primes():
            e = valuation(m, p)
            if e:
                found.append((p, e))
                m //= p**e
        return Emin, FactoredInt(1, tuple(found), m)
    return Emin, _factor_disc(E, abs(int(Emin.disc)), budget)


def _factor_disc(E: WeierstrassCurve, disc: int, budget: FactorBudget) -> FactoredInt:
    """Factor disc, a discriminant of a model isomorphic to E (see
    discriminant_factorization)."""
    if E.is_integral() and E.a1 == E.a3 == E.a6 == 0:
        a2, a4 = int(E.a2), int(E.a4)
        return factor_with_parts(disc, (2, a4, a2 * a2 - 4 * a4), budget)
    return factor(disc, budget)


def conductor(
    E: WeierstrassCurve, budget: FactorBudget = DEFAULT_BUDGET, partial: bool = False
) -> FactoredInt:
    """Conductor of E as a factored integer.

    When the minimal discriminant cannot be fully factored within budget,
    Unfactored is raised by default; with partial=True the best-effort
    value is returned instead, carrying the unfactored discriminant residue
    so the incompleteness stays explicit (complete=False).  The listed prime
    part is exact either way.
    """
    Emin, fi = discriminant_factorization(E, budget)
    if not fi.complete and not partial:
        raise Unfactored("discriminant factorization incomplete")
    out = []
    for p, _e in fi.factors:
        ld = tate_local(Emin, p)
        if ld.f_p:
            out.append((p, ld.f_p))
    return FactoredInt(1, tuple(out), fi.residue)


def local_data_all(
    E: WeierstrassCurve, budget: FactorBudget = DEFAULT_BUDGET
) -> list[LocalData]:
    """LocalData at every prime dividing the minimal discriminant."""
    Emin, fi = discriminant_factorization(E, budget)
    if not fi.complete:
        raise Unfactored("discriminant factorization incomplete")
    return [tate_local(Emin, p) for p, _e in fi.factors]
