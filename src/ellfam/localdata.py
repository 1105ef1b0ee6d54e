"""Minimal models, Tate's algorithm and conductors over Q.

All computations are exact over the integers: reductions are handled through
p-adic valuations of the integral coefficients, never through floating point
or truncated p-adic expansions.

A model is made minimal at p by Kraus's conditions only (_minimize_at;
Cremona, Algorithms for Modular Elliptic Curves, 3.2): Tate's algorithm
runs on a model already minimal at p.  Multiplicative reduction is split
exactly when -c6 is a square in Q_p (_is_split).

The root-number path runs on Python ints only and builds no
WeierstrassCurve and no Fraction: _minimal_ints takes an integral model's
a-invariants and its seven invariants and returns the minimal model's
a-invariants, its seven invariants and the factored |disc_min|, and
_tate_ints is Tate's algorithm on an int tuple, given v_p(disc) and the
invariants.  An integral curve's invariants are computed once, by its
constructor's singularity check (WeierstrassCurve.bc_invariants).  The
wrappers on WeierstrassCurve models take any model and start from
_integral_ints, which hands on the a-invariants and invariants of E or of
its integral model: bad_places serves the CLI's `local` and conductor,
tate_local the CLI's `local --prime`, and rootnum.global_root_number
starts there too.  minimal_model, which also returns the point map,
serves heights and the scans' parametrizers.
At p = 2 and 3 Tate's translations are closed forms, not searches (Cohen,
GTM 138, Algorithm 7.5.1; Cremona 3.2).  _tate_ints decides types II, III
and IV on the a6, b8 and b6 of the model translated by the singular point
(_singular_point) before that model is built, and builds it only from
step 6 on.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .arith import (
    DEFAULT_BUDGET,
    FactorBudget,
    FactoredInt,
    Unfactored,
    factor,
    factor_with_parts,
    is_prime,
    legendre_is_square,
    valuation,
)
from .curves import (
    PointMap,
    WeierstrassCurve,
    _translation_for_scale,
    change_coordinates,
)
from .polyq import _pow_mod, _sub_mod, gcd_mod_p


class LocalData(NamedTuple):
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


def _integral_ints(E: WeierstrassCurve) -> tuple[tuple, tuple]:
    """The int a-invariants and invariants (b2, ..., disc) of E if
    integral, else of its integral model: an integral E hands on the
    invariants its constructor computed (bc_invariants)."""
    Ei = E if E._ints is not None else E.integral_model()[0]
    return Ei._ints, Ei.bc_invariants()


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


def _curve_from_c4c6(c4: int, c6: int, disc: int) -> tuple[tuple, tuple]:
    """The a-invariants and the invariants (b2, ..., disc) of the integral
    model with invariants c4, c6 and discriminant disc (Kraus conditions
    assumed).

    ArithmeticError when the model has other invariants, which only a wrong
    Kraus step can cause.
    """
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
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    if b2 * b2 - 24 * b4 != c4 or -b2**3 + 36 * b2 * b4 - 216 * b6 != c6:
        raise ArithmeticError(f"no integral model with c4 = {c4}, c6 = {c6}")
    b8 = (b2 * b6 - b4 * b4) // 4
    return (a1, a2, a3, a4, a6), (b2, b4, b6, b8, c4, c6, disc)


def _minimal_ints(
    a: tuple,
    invs: tuple,
    budget: FactorBudget = DEFAULT_BUDGET,
    parts: Optional[Sequence[int]] = None,
) -> tuple[tuple, tuple, FactoredInt]:
    """The global minimal model of the integral model with a-invariants a
    and invariants invs = weierstrass_invariants(*a), on ints only: its
    a-invariants, its invariants (b2, ..., disc) and a factorization of
    |disc_min|.

    The discriminant of the integral model is factored once, and the model
    is minimized at every prime found with p^12 | disc: every prime that
    can be scaled away has p^12 | disc = u^12 disc_min, so the model is
    certified minimal, and the factorization complete, exactly when that
    factorization is; otherwise it covers the known primes
    (complete=False).

    For y^2 = x^3 + a2 x^2 + a4 x the discriminant is 16 a4^2 (a2^2 - 4 a4),
    so the parts 2, a4 and a2^2 - 4 a4 are factored instead of disc as one
    number.  ``parts``, when given, replaces them: integers whose primes
    cover those of disc (a family member passes
    CurveFamily.discriminant_parts).  Either way the result is certified by
    exact division (see factor_with_parts), so parts that miss a prime give
    complete=False, never a wrong factorization.
    """
    disc = abs(invs[6])
    a1, a2, a3, a4, a6 = a
    if parts is None and a1 == a3 == a6 == 0:
        parts = (2, a4, a2 * a2 - 4 * a4)
    fE = factor(disc, budget) if parts is None else factor_with_parts(disc, parts, budget)
    amin, invs, u = _minimize_at(invs, [p for p, e in fE.factors if e >= 12])
    if u == 1:
        return amin, invs, fE
    # u is a product of primes found with e >= 12, so the residue is
    # disc_min's too, and only those exponents drop: by 12 for each time
    # p divides u
    found = []
    for p, e in fE.factors:
        while e >= 12 and u % p == 0:
            u //= p
            e -= 12
        if e:
            found.append((p, e))
    return amin, invs, FactoredInt(1, tuple(found), fE.residue)


def minimal_model(
    E: WeierstrassCurve, budget: FactorBudget = DEFAULT_BUDGET
) -> tuple[WeierstrassCurve, PointMap]:
    """Global minimal model over Q, with the point map from E onto it.

    The primes to scale away come from _scalable_primes, which raises
    Unfactored when minimality cannot be certified.
    """
    Ei, pm = E.integral_model()
    invs = Ei.bc_invariants()
    a, _invs, u = _minimize_at(invs, _scalable_primes(invs, budget))
    Emin = WeierstrassCurve(*a)
    u *= pm.u
    check, pm = E.transform(u, *_translation_for_scale(E, Emin, u))
    assert check == Emin
    return Emin, pm


def _scalable_primes(invs: tuple, budget: FactorBudget) -> list[int]:
    """Every prime that can be scaled away from the integral model with
    invariants invs = (b2, ..., disc).

    A prime p can be scaled away only when p^4 | c4 and p^6 | c6, so the
    candidate primes are read off a factorization of gcd(c4, c6) (of the
    nonzero invariant when the other vanishes).  The discriminant itself is
    never factored; an unfactorable gcd residue raises Unfactored unless it
    is certifiably 4th-power-free.
    """
    c4, c6 = invs[4], invs[5]
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


def _minimize_at(invs: tuple, primes) -> tuple[tuple, tuple, int]:
    """The (c4, c6)-standard model of the integral model with invariants
    invs = (b2, ..., disc), minimal at each of primes: its a-invariants, its
    invariants and the scale u it was reached by."""
    _b2, _b4, _b6, _b8, c4, c6, disc = invs
    u = 1
    for p in primes:
        p4 = p * p * p * p
        p6 = p4 * p * p
        while c4 % p4 == 0 and c6 % p6 == 0 and disc % (p6 * p6) == 0:
            nc4, nc6 = c4 // p4, c6 // p6
            if p in (2, 3) and not _kraus_ok(nc4, nc6, p):
                break
            c4, c6, disc = nc4, nc6, disc // (p6 * p6)
            u *= p
    a, invs = _curve_from_c4c6(c4, c6, disc)
    return a, invs, u


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
    return d == 0 or legendre_is_square(d, p)


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
    p <= 3 the residue with f(r) = f'(r) = 0 is found by trial, which alone
    decides: no such residue means no multiple root.  For p >= 5,
    9ad - bc = 2 a^2 r (r - s)^2 gives the double root as their quotient
    over 2, and a triple root is -b/(3a).
    """
    d, c, b, a = (x % p for x in cs)
    h = (b * b - 3 * a * c) % p
    if p <= 3:
        for r in range(p):
            if (((a * r + b) * r + c) * r + d) % p == 0 and ((3 * a * r + 2 * b) * r + c) % p == 0:
                return r, h == 0
        return None
    if (18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d) % p:
        return None
    if h == 0:
        r = -b * pow(3 * a, -1, p) % p
    else:
        r = (9 * a * d - b * c) * pow(2 * h, -1, p) % p
    return r, h == 0


def _count_roots_cubic(cs: list[int], p: int) -> int:
    """Number of distinct roots in F_p of a cubic f given by ascending
    coefficients, its leading one a unit mod p: the degree of
    gcd(f, T^p - T), the first step of zzfactor's distinct-degree
    factorization.  Below p = 500, trying every residue is faster.
    """
    d, c, b, a = (x % p for x in cs)
    if p < 500:
        return sum((((a * x + b) * x + c) * x + d) % p == 0 for x in range(p))
    f = [d, c, b, a]
    h = _pow_mod([0, 1], p, f, p)
    return len(gcd_mod_p(f, _sub_mod(h, [0, 1], p), p)) - 1


def _is_split(c6: int, p: int) -> bool:
    """Whether multiplicative reduction at p, on a model with p | disc and
    p not dividing c4, is split: exactly when -c6 is a square in Q_p
    (Rohrlich, Compositio Math. 87, 1993).  -c6 = b2^3 mod p is then a unit,
    so at 2 that is -c6 = 1 mod 8 and at odd p a Legendre symbol."""
    return -c6 % 8 == 1 if p == 2 else legendre_is_square(-c6, p)


def tate_local(E: WeierstrassCurve, p: int) -> LocalData:
    """Complete local reduction data at the prime p of E (Tate's
    algorithm), run on E's integral model made minimal at p by Kraus's
    conditions (Cremona 3.2)."""
    if not is_prime(p):
        raise ValueError(f"not a prime: {p}")
    a, invs, _u = _minimize_at(_integral_ints(E)[1], [p])
    return _tate_ints(a, p, valuation(invs[6], p), invs)


def _tate_ints(a: tuple, p: int, n: int, invs: tuple) -> LocalData:
    """Tate's algorithm at the prime p on the int a-invariants a of an
    integral model minimal at p (ArithmeticError at step 11 otherwise),
    with n = v_p(disc) of that model and invs its
    weierstrass_invariants(*a).

    Types II, III and IV are decided on the a6, b8 and b6 of the model
    translated by the singular point (r, t) before that model is built
    (IV's quadratic reads the translated a3 and a6): it is built only from
    step 6 on.
    """
    b2, b4, b6, b8, c4, c6, _disc = invs
    if n == 0:
        return LocalData(p, "I0", 0, 1, "good", 0)
    if c4 % p != 0:
        # multiplicative reduction, type In
        if _is_split(c6, p):
            return LocalData(p, f"I{n}", 1, n, "split-multiplicative", n)
        return LocalData(p, f"I{n}", 1, 2 - n % 2, "nonsplit-multiplicative", n)
    p2, p3 = p * p, p * p * p
    r, t = _singular_point(a, p, b2, b4, b6)
    # a3, a4 and a6 of change_coordinates(a, 1, r, 0, t): (r, t) is the
    # singular point exactly when p divides all three
    a1, a2, a3, a4, a6 = a
    a6 += r * (a4 + r * (a2 + r)) - t * (a3 + t + r * a1)
    a4 += r * (2 * a2 + 3 * r) - t * a1
    a3 += r * a1 + 2 * t
    assert a3 % p == 0 and a4 % p == 0 and a6 % p == 0
    if a6 % p2 != 0:
        return LocalData(p, "II", n, 1, "additive", n)
    # b6 and b8 after x -> x + r (a translation in y moves no b_i)
    b6, b8 = (
        b6 + r * (2 * b4 + r * (b2 + 4 * r)),
        b8 + r * (3 * b6 + r * (3 * b4 + r * (b2 + 3 * r))),
    )
    if b8 % p3 != 0:
        return LocalData(p, "III", n - 1, 2, "additive", n)
    if b6 % p3 != 0:
        # type IV: c depends on Y^2 + (a3/p) Y - a6/p^2 splitting
        root = _has_root_quadratic(1, a3 // p, -(a6 // p2), p)
        return LocalData(p, "IV", n - 2, 3 if root else 1, "additive", n)
    a = _arrange_step7((a1, a2 + 3 * r, a3, a4, a6), p)
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
    # triple root: IV*, III* or II*
    a3t, a6t = a[2] // p2, a[4] // (p2 * p2)
    if (a3t * a3t + 4 * a6t) % p != 0:
        root = _has_root_quadratic(1, a3t, -a6t, p)
        return LocalData(p, "IV*", n - 6, 3 if root else 1, "additive", n)
    a = change_coordinates(a, 1, 0, 0, p2 * _double_root(1, a3t, -a6t, p))
    if a[3] % (p2 * p2) != 0:
        return LocalData(p, "III*", n - 7, 2, "additive", n)
    if a[4] % (p3 * p3) != 0:
        return LocalData(p, "II*", n - 8, 1, "additive", n)
    raise ArithmeticError(f"model {a} is not minimal at {p}")


def _singular_point(a: tuple, p: int, b2: int, b4: int, b6: int) -> tuple[int, int]:
    """The singular point (r, t), 0 <= r, t < p, of an additive reduction
    mod p of the model with a-invariants a: change_coordinates(a, 1, r, 0,
    t) moves it to (0, 0).

    At p = 2, a1 is even (c4 = a1^4 mod 2), and r and t mod 2 follow from
    the translated a4 and a6 (Cohen, GTM 138, Algorithm 7.5.1).  Otherwise
    r is the repeated root of 4x^3 + b2 x^2 + 2 b4 x + b6 and t = -(a1 r +
    a3)/2 mod p; at p = 3, where 3 | b2, that cubic is (x + b6)^3 and
    r = -b6.
    """
    a1, a2, a3, a4, a6 = a
    if p == 2:
        r = a4 % 2
        return r, (r * (1 + a2 + a4) + a6) % 2
    if p == 3:
        r = -b6 % 3
        return r, (a1 * r + a3) % 3
    r, _triple = _multiple_root([b6, 2 * b4, b2, 4], p)
    return r, -(a1 * r + a3) * pow(2, -1, p) % p


def _arrange_step7(a: tuple, p: int) -> tuple:
    """Translate so that p | a1, a2; p^2 | a3, a4; p^3 | a6."""
    if p == 2:
        # 2 | a1 and 4 | a6, 8 | b6 = a3^2 + 4 a6 give 4 | a3: s = a2 mod 2
        # makes a2 even, and t = 0 or 2 makes a6 - t a3 - t^2 = a6 - t^2
        # vanish mod 8; the b8 divisibility already established then gives
        # 4 | a4 with r = 0
        return change_coordinates(a, 1, 0, a[1] % 2, 2 * (a[4] // 4 % 2))
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


def bad_places(
    E: WeierstrassCurve, budget: FactorBudget = DEFAULT_BUDGET
) -> tuple[list[LocalData], FactoredInt]:
    """Local data at every prime found in |disc_min| and that factorization
    (see _minimal_ints): the model is minimized once, and Tate's algorithm
    runs on the minimal model at each prime found."""
    a, invs, fi = _minimal_ints(*_integral_ints(E), budget)
    return [_tate_ints(a, p, e, invs) for p, e in fi.factors], fi


def conductor(E: WeierstrassCurve, budget: FactorBudget = DEFAULT_BUDGET) -> FactoredInt:
    """Conductor of E as a factored integer.

    Raises Unfactored when the minimal discriminant cannot be fully
    factored within budget (bad_places reports the residue; see
    _minimal_ints).
    """
    places, fi = bad_places(E, budget)
    if not fi.complete:
        raise Unfactored("discriminant factorization incomplete")
    return FactoredInt(1, tuple((ld.p, ld.f_p) for ld in places if ld.f_p))
