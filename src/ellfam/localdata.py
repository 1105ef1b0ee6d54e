"""Minimal models, Tate's algorithm and conductors over Q.

All computations are exact over the integers: reductions are handled through
p-adic valuations of the integral coefficients, never through floating point
or truncated p-adic expansions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .arith import (
    DEFAULT_BUDGET,
    FactorBudget,
    FactoredInt,
    Unfactored,
    factor,
    factor_with_parts,
    is_prime,
    jacobi,
    valuation,
)
from .curves import (
    PointMap,
    WeierstrassCurve,
    _translation_for_scale,
    change_coordinates,
    weierstrass_invariants,
)
from .polyq import gcd_mod_p


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
    if E._ints is None:
        raise ValueError("integral model required")
    return E._ints


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
    assert E.bc_invariants()[4:6] == (c4, c6)
    return E


def minimal_model(
    E: WeierstrassCurve, budget: FactorBudget = DEFAULT_BUDGET
) -> tuple[WeierstrassCurve, PointMap]:
    """Global minimal model over Q, with the point map from E onto it.

    The primes to scale away come from _scalable_primes, which raises
    Unfactored when minimality cannot be certified.
    """
    Ei, pm = E.integral_model()
    Emin, u = _minimize_at(Ei, _scalable_primes(Ei, budget))
    u *= pm.u
    check, pm = E.transform(u, *_translation_for_scale(E, Emin, u))
    assert check == Emin
    return Emin, pm


def _scalable_primes(E: WeierstrassCurve, budget: FactorBudget) -> list[int]:
    """Every prime that can be scaled away from the integral model E.

    A prime p can be scaled away only when p^4 | c4 and p^6 | c6, so the
    candidate primes are read off a factorization of gcd(c4, c6) (of the
    nonzero invariant when the other vanishes).  The discriminant itself is
    never factored; an unfactorable gcd residue raises Unfactored unless it
    is certifiably 4th-power-free.
    """
    _b2, _b4, _b6, _b8, c4, c6, _disc = E.bc_invariants()
    g = math.gcd(c4, c6) if c4 and c6 else abs(c4 or c6)
    fi = factor(g, budget)
    # every prime factor of the residue exceeds the trial bound, so a hidden
    # candidate prime p (with p^4 dividing the residue) would force the
    # residue to be at least trial_bound^4
    if not fi.complete and fi.residue >= budget.trial_bound**4:
        raise Unfactored(
            "gcd(c4, c6) residue could hide a 4th power; "
            "minimality cannot be certified"
        )
    return [p for p, e in fi.factors if p < 5 or e >= 4]


def _minimize_at(E: WeierstrassCurve, primes) -> tuple[WeierstrassCurve, int]:
    """The (c4, c6)-standard model of integral E, minimal at each of primes,
    and the scale u it was reached by."""
    _b2, _b4, _b6, _b8, c4, c6, disc = E.bc_invariants()
    u = 1
    for p in primes:
        p4, p6, p12 = p**4, p**6, p**12
        while c4 % p4 == 0 and c6 % p6 == 0 and disc % p12 == 0:
            nc4, nc6 = c4 // p4, c6 // p6
            if p in (2, 3) and not _kraus_ok(nc4, nc6, p):
                break
            c4, c6, disc = nc4, nc6, disc // p12
            u *= p
    return _curve_from_c4c6(c4, c6), u


# ---------------------------------------------------------------------------
# Tate's algorithm (Cremona, Algorithms for Modular Elliptic Curves, 3.2),
# one loop on the integer a-invariants
# ---------------------------------------------------------------------------


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


def _double_root(a: int, b: int, c: int, p: int) -> int:
    """The root in F_p of a y^2 + b y + c, a a unit mod p, whose
    discriminant vanishes mod p."""
    if p == 2:
        return next(y for y in range(2) if (a * y * y + b * y + c) % 2 == 0)
    return -b * pow(2 * a, -1, p) % p


def _multiple_root(cs: list[int], p: int) -> tuple[int, bool] | None:
    """The multiple root r in F_p of a T^3 + b T^2 + c T + d, given by
    ascending coefficients with a a unit mod p, and whether it is triple;
    None when the discriminant is a unit mod p (three distinct roots).

    A multiple root of a cubic over F_p lies in F_p, so the cubic is
    a (T - r)^2 (T - s).  Then b^2 - 3ac = a^2 (r - s)^2, so the root is
    triple exactly when b^2 - 3ac vanishes, in every characteristic.  For
    p >= 5, 9ad - bc = 2 a^2 r (r - s)^2 gives the double root as their
    quotient over 2, and a triple root is -b/(3a); for p <= 3 the residue
    with f(r) = f'(r) = 0 is found by trial.
    """
    d, c, b, a = (x % p for x in cs)
    disc = (
        18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d
    )
    if disc % p:
        return None
    h = (b * b - 3 * a * c) % p
    if p <= 3:
        r = next(
            x
            for x in range(p)
            if (((a * x + b) * x + c) * x + d) % p == 0
            and ((3 * a * x + 2 * b) * x + c) % p == 0
        )
    elif h == 0:
        r = -b * pow(3 * a, -1, p) % p
    else:
        r = (9 * a * d - b * c) * pow(2 * h, -1, p) % p
    return r, h == 0


def _count_roots_cubic(cs: list[int], p: int) -> int:
    """Number of distinct roots in F_p of a cubic given by ascending
    coefficients, nonzero mod p: the degree of gcd(f, T^p - T).

    Below p = 500, trying every residue is faster than that gcd.  Above,
    T^p mod f is formed by squaring, on residue lists (index = degree).
    """
    d, c, b, a = (x % p for x in cs)
    if p < 500:
        return sum((((a * x + b) * x + c) * x + d) % p == 0 for x in range(p))
    m = pow(a, -1, p)
    f0, f1, f2 = d * m % p, c * m % p, b * m % p

    def mulmod(x: list[int], y: list[int]) -> list[int]:
        # x y mod T^3 + f2 T^2 + f1 T + f0, for x and y of degree < 3
        z = [0] * 5
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                z[i + j] += xi * yj
        for k in (4, 3):
            z[k - 3] -= z[k] * f0
            z[k - 2] -= z[k] * f1
            z[k - 1] -= z[k] * f2
        return [v % p for v in z[:3]]

    h, sq, e = [1, 0, 0], [0, 1, 0], p
    while e:
        if e & 1:
            h = mulmod(h, sq)
        sq = mulmod(sq, sq)
        e >>= 1
    h[1] -= 1
    return len(gcd_mod_p([d, c, b, a], h, p)) - 1


def tate_local(E: WeierstrassCurve, p: int) -> LocalData:
    """Complete local reduction data at the prime p (Tate's algorithm); ValueError otherwise."""
    if not is_prime(p):
        raise ValueError(f"not a prime: {p}")
    a = _int_invariants(E)
    p2, p3, p4, p6 = p * p, p**3, p**4, p**6
    while True:
        b2, b4, b6, _b8, c4, _c6, disc = weierstrass_invariants(*a)
        assert disc != 0
        n = valuation(disc, p)
        if n == 0:
            return LocalData(p, "I0", 0, 1, "good", 0)
        # move the singular point of the reduction to (0, 0); c4 and disc
        # are unchanged by the translation
        a = _move_singular_point(a, p, b2, b4, b6)
        a1, a2, a3, a4, a6 = a
        if c4 % p != 0:
            # multiplicative reduction, type In
            # split exactly when the tangents at the node, the roots of
            # T^2 + a1 T - a2, lie in F_p; their discriminant b2 is a unit,
            # as c4 = b2^2 mod p
            if _has_root_quadratic(1, a1, -a2, p):
                return LocalData(p, f"I{n}", 1, n, "split-multiplicative", n)
            c = 2 if n % 2 == 0 else 1
            return LocalData(p, f"I{n}", 1, c, "nonsplit-multiplicative", n)
        _b2, _b4, b6, b8, _c4, _c6, _disc = weierstrass_invariants(*a)
        if a6 % p2 != 0:
            return LocalData(p, "II", n, 1, "additive", n)
        if b8 % p3 != 0:
            return LocalData(p, "III", n - 1, 2, "additive", n)
        if b6 % p3 != 0:
            # type IV: c depends on Y^2 + (a3/p) Y - a6/p^2 splitting
            root = _has_root_quadratic(1, a3 // p, -(a6 // p2), p)
            return LocalData(p, "IV", n - 2, 3 if root else 1, "additive", n)
        a = _arrange_step7(a, p)
        a1, a2, a3, a4, a6 = a
        assert a1 % p == 0 and a2 % p == 0
        assert a3 % p2 == 0 and a4 % p2 == 0 and a6 % p3 == 0
        # cubic P(T) = T^3 + (a2/p) T^2 + (a4/p^2) T + a6/p^3 mod p
        cub = [a6 // p3, a4 // p2, a2 // p, 1]
        root = _multiple_root(cub, p)
        if root is None:
            c = 1 + _count_roots_cubic(cub, p)
            return LocalData(p, "I0*", n - 4, c, "additive", n)
        r, triple = root
        a = change_coordinates(a, 1, p * r, 0, 0)
        if not triple:
            return _instar_loop(a, p, n)
        # triple root: IV*, III*, II*, or a model that is not minimal at p
        a3t, a6t = a[2] // p2, a[4] // p4
        if (a3t * a3t + 4 * a6t) % p != 0:
            root = _has_root_quadratic(1, a3t, -a6t, p)
            return LocalData(p, "IV*", n - 6, 3 if root else 1, "additive", n)
        a = change_coordinates(a, 1, 0, 0, p2 * _double_root(1, a3t, -a6t, p))
        a1, a2, a3, a4, a6 = a
        if a4 % p4 != 0:
            return LocalData(p, "III*", n - 7, 2, "additive", n)
        if a6 % p6 != 0:
            return LocalData(p, "II*", n - 8, 1, "additive", n)
        a = (a1 // p, a2 // p2, a3 // p3, a4 // p4, a6 // p6)


def _move_singular_point(a: tuple, p: int, b2: int, b4: int, b6: int) -> tuple:
    """Translate the singular point of the reduction mod p to (0, 0)."""
    if p <= 3:
        for r in range(p):
            for t in range(p):
                moved = change_coordinates(a, 1, r, 0, t)
                if moved[2] % p == 0 and moved[3] % p == 0 and moved[4] % p == 0:
                    return moved
        raise RuntimeError("no singular point found")  # pragma: no cover
    # repeated root of 4x^3 + b2 x^2 + 2 b4 x + b6 mod p
    x0, _triple = _multiple_root([b6, 2 * b4, b2, 4], p)
    y0 = (-(a[0] * x0 + a[2]) * pow(2, -1, p)) % p
    moved = change_coordinates(a, 1, x0, 0, y0)
    assert moved[2] % p == 0 and moved[3] % p == 0 and moved[4] % p == 0
    return moved


def _arrange_step7(a: tuple, p: int) -> tuple:
    """Translate so that p | a1, a2; p^2 | a3, a4; p^3 | a6."""
    if p == 2:
        for r in (0, 2, 4, 6):
            for s in (0, 1):
                for t in range(8):
                    T = change_coordinates(a, 1, r, s, t)
                    if (
                        T[0] % 2 == 0
                        and T[1] % 2 == 0
                        and T[2] % 4 == 0
                        and T[3] % 4 == 0
                        and T[4] % 8 == 0
                    ):
                        return T
        raise RuntimeError("step 7 arrangement failed")  # pragma: no cover
    # p odd: kill a1 and a3 modulo p^3; the remaining valuations then follow
    # from the b6 and b8 divisibility already established
    p3 = p**3
    inv2 = pow(2, -1, p3)
    return change_coordinates(a, 1, 0, (-a[0] * inv2) % p3, (-a[2] * inv2) % p3)


def _instar_loop(a: tuple, p: int, n: int) -> LocalData:
    """Types Im* for m >= 1: the double-root sub-procedure."""
    q = 2
    while True:
        # quadratic in Y: Y^2 + (a3/p^q) Y - a6/p^(2q)
        m = 2 * q - 3
        a3t = a[2] // p**q
        a6t = a[4] // p ** (2 * q)
        if (a3t * a3t + 4 * a6t) % p != 0:
            c = 4 if _has_root_quadratic(1, a3t, -a6t, p) else 2
            return LocalData(p, f"I{m}*", n - 4 - m, c, "additive", n)
        a = change_coordinates(a, 1, 0, 0, p**q * _double_root(1, a3t, -a6t, p))
        # quadratic in X: (a2/p) X^2 + (a4/p^(q+1)) X + a6/p^(2q+1)
        m = 2 * q - 2
        a2t = a[1] // p
        a4t = a[3] // p ** (q + 1)
        a6t = a[4] // p ** (2 * q + 1)
        if (a4t * a4t - 4 * a2t * a6t) % p != 0:
            c = 4 if _has_root_quadratic(a2t, a4t, a6t, p) else 2
            return LocalData(p, f"I{m}*", n - 4 - m, c, "additive", n)
        a = change_coordinates(a, 1, p**q * _double_root(a2t, a4t, a6t, p), 0, 0)
        q += 1


# ---------------------------------------------------------------------------
# conductor
# ---------------------------------------------------------------------------


def discriminant_factorization(
    E: WeierstrassCurve,
    budget: FactorBudget = DEFAULT_BUDGET,
    *,
    parts: Optional[Sequence[int]] = None,
) -> tuple[WeierstrassCurve, FactoredInt]:
    """Global minimal model of E and a factorization of |disc_min|.

    The discriminant of the integral model is factored once, and the model
    is minimized at every prime found.  Every prime that can be scaled away
    divides disc(E) = u^12 disc_min, so the model is certified minimal, and
    the result complete, exactly when that factorization is; otherwise it
    covers the known primes (complete=False).

    For y^2 = x^3 + a2 x^2 + a4 x the discriminant is 16 a4^2 (a2^2 - 4 a4),
    so the parts 2, a4 and a2^2 - 4 a4 are factored instead of disc(E) as
    one number.  ``parts``, when given, replaces them: integers whose primes
    cover those of disc(E) for the integral E (a family member passes
    CurveFamily.discriminant_parts).  Either way the result is certified by
    exact division (see factor_with_parts), so parts that miss a prime give
    complete=False, never a wrong factorization.
    """
    E, _pm = E.integral_model()
    disc = abs(E.bc_invariants()[6])
    a1, a2, a3, a4, a6 = _int_invariants(E)
    if parts is None and a1 == a3 == a6 == 0:
        parts = (2, a4, a2 * a2 - 4 * a4)
    fE = factor(disc, budget) if parts is None else factor_with_parts(disc, parts, budget)
    Emin, u = _minimize_at(E, fE.primes())
    # u is a product of primes found, so the residue is disc_min's too
    found = ((p, e - 12 * valuation(u, p)) for p, e in fE.factors)
    return Emin, FactoredInt(1, tuple((p, e) for p, e in found if e), fE.residue)


def conductor(E: WeierstrassCurve, budget: FactorBudget = DEFAULT_BUDGET) -> FactoredInt:
    """Conductor of E as a factored integer.

    Raises Unfactored when the minimal discriminant cannot be fully
    factored within budget (discriminant_factorization reports the residue).
    """
    Emin, fi = discriminant_factorization(E, budget)
    if not fi.complete:
        raise Unfactored("discriminant factorization incomplete")
    out = []
    for p, _e in fi.factors:
        ld = tate_local(Emin, p)
        if ld.f_p:
            out.append((p, ld.f_p))
    return FactoredInt(1, tuple(out))

