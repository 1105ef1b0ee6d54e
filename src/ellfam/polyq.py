"""Univariate polynomials and rational functions over Q.

This is the symbolic engine in which curve families, parameter substitutions
and section identities live.  A polynomial is a dense tuple of integer
numerators (index = degree) over one positive denominator, reduced so that
the two share no factor; rational functions are reduced num/den pairs with
monic denominator, so equality of canonical forms is structural equality.

Everything but factorization is implemented directly on the integer
numerators, with one gcd per result, and a rational function is normalized
once per result: ``RatFunc`` divides num and den by one gcd in Z[u], a
primitive remainder sequence after a coprimality test mod a prime.  A
substitution f(n/d) with coprime n and d needs no gcd at all:
``reduced_substitute`` forms it on integer lists already reduced, by a
resultant argument.  A square forms each cross term once.
Factorization into irreducibles over Q runs on the numerators in
``zzfactor`` (Cantor-Zassenhaus with Hensel lifting), which ``PolyQ.factor``
imports on first use.  Arithmetic on residue lists mod m (division,
powers mod a polynomial, ``gcd_mod_p``) is written once, here: ``_zz_gcd``,
``zzfactor`` and the root count of Tate's algorithm share it.  Nothing here
imports sympy, and nothing else in the package does: sympy is a test
dependency only, the reference that the tests compare against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .arith import isqrt_exact, squarefree_decompose

Scalar = Union[int, Fraction]


class NotASquare(Exception):
    """The polynomial is not the square of a polynomial over Q."""


def _rational(x) -> Scalar:
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"not a rational scalar: {x!r}")


def _zz_mul(xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """Product of integer coefficient lists (index = degree); a square
    (ys is xs) forms each cross term once."""
    if not xs or not ys:
        return []
    if xs is ys:
        return _zz_sqr(xs)
    out = [0] * (len(xs) + len(ys) - 1)
    for i, a in enumerate(xs):
        if a:
            k = i
            for b in ys:
                out[k] += a * b
                k += 1
    return out


def _zz_sqr(xs: Sequence[int]) -> list[int]:
    """Square of a nonempty integer coefficient list: the term x_i x_j for
    i < j is formed once and doubled."""
    out = [0] * (2 * len(xs) - 1)
    for i, a in enumerate(xs):
        if a:
            k = 2 * i
            out[k] += a * a
            a2 = a + a
            for b in xs[i + 1:]:
                k += 1
                out[k] += a2 * b
    return out


def _zz_derivative(xs: Sequence[int]) -> list[int]:
    """Derivative of an integer coefficient list (index = degree)."""
    return [i * c for i, c in enumerate(xs)][1:]


def _zz_primitive(xs: list[int]) -> list[int]:
    """xs over its content, with a positive leading coefficient."""
    g = math.gcd(*xs)
    return [c // g for c in xs] if xs[-1] > 0 else [-c // g for c in xs]


def _zz_add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


# -- polynomials modulo m (residues in [0, m), no trailing zero) ----------

def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _mod(a: Sequence[int], m: int) -> list[int]:
    return _trim([c % m for c in a])


def _mul_mod(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    return _mod(_zz_mul(a, b), m)


def _sub_mod(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    return _mod(_zz_add(a, [-c for c in b]), m)


def _divmod_mod(a: Sequence[int], b: Sequence[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b mod m, lc(b) a unit mod m."""
    r = [c % m for c in a]
    db = len(b) - 1
    if len(r) <= db:
        return [], _trim(r)
    inv = pow(b[-1], -1, m)
    q = [0] * (len(r) - db)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + db] * inv % m
        if c:
            for j in range(db):
                r[i + j] = (r[i + j] - c * b[j]) % m
    return _trim(q), _trim(r[:db])


def _pow_mod(a: list[int], e: int, g: list[int], p: int) -> list[int]:
    """a^e mod (g, p), by squaring from the top bit of e."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _divmod_mod(_zz_mul(out, out), g, p)[1]
        if bit == "1":
            out = _divmod_mod(_zz_mul(out, a), g, p)[1]
    return out


def gcd_mod_p(xs: Sequence[int], ys: Sequence[int], p: int) -> list[int]:
    """Monic gcd mod the prime p of two integer polynomials (index =
    degree), as residues; [] when both vanish mod p."""
    a, b = _mod(xs, p), _mod(ys, p)
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


# a prime far above the coefficients of the catalog's polynomials, so that
# it divides a leading coefficient only by a rare accident
_GCD_PRIME = 2**61 - 1


def _zz_gcd(xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """The primitive gcd in Z[u] of two nonzero integer polynomials (index
    = degree), with a positive leading coefficient.

    When _GCD_PRIME does not divide lc(xs), the gcd's reduction mod that
    prime keeps its degree and divides the gcd mod the prime, so a gcd of 1
    there proves xs and ys coprime.  Otherwise a primitive remainder
    sequence: a pseudo-remainder scaled only as far as each step needs,
    over its content.
    """
    if xs[-1] % _GCD_PRIME and len(gcd_mod_p(xs, ys, _GCD_PRIME)) == 1:
        return [1]
    a, b = _zz_primitive(list(xs)), _zz_primitive(list(ys))
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        lb, db = b[-1], len(b) - 1
        while len(a) > db:
            g = math.gcd(a[-1], lb)
            m, k = lb // g, a[-1] // g
            shift = len(a) - 1 - db
            a = [c * m for c in a]
            for j, c in enumerate(b):
                a[shift + j] -= k * c
            _trim(a)
        if not a:
            return b
        a, b = b, _zz_primitive(a)
    return [1]


def _zz_exquo(xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """xs / ys for integer polynomials (index = degree) when ys divides xs
    in Z[u]."""
    r = list(xs)
    dy, ly = len(ys) - 1, ys[-1]
    q = [0] * (len(r) - dy)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + dy] // ly
        if c:
            for j, y in enumerate(ys):
                r[i + j] -= c * y
    return q


class PolyQ:
    """Dense univariate polynomial over Q. Immutable.

    Stored in integer-content form: ``ints`` (index = degree, no trailing
    zero) over one denominator ``den`` > 0 with gcd(den, *ints) = 1, so
    equal polynomials have equal ``(ints, den)``.  ``coeffs`` is the
    ``Fraction`` view, computed on first read.
    """

    __slots__ = ("ints", "den", "var", "_coeffs")

    def __init__(self, coeffs: Iterable[Scalar] = (), var: str = "u"):
        cs = [_rational(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        _reduce_into(self, [c.numerator * (den // c.denominator) for c in cs], den, var)

    def __setattr__(self, *a):
        raise AttributeError("PolyQ is immutable")

    # -- constructors -----------------------------------------------------
    @staticmethod
    def const(c: Scalar, var: str = "u") -> "PolyQ":
        return PolyQ([c], var)

    @staticmethod
    def variable(var: str = "u") -> "PolyQ":
        return PolyQ([0, 1], var)

    # -- basic queries ----------------------------------------------------
    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        try:
            return self._coeffs
        except AttributeError:
            cs = tuple(Fraction(c, self.den) for c in self.ints)
            object.__setattr__(self, "_coeffs", cs)
            return cs

    @property
    def degree(self) -> int:
        return len(self.ints) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.ints

    def is_constant(self) -> bool:
        return len(self.ints) <= 1

    def leading(self) -> Fraction:
        return Fraction(self.ints[-1], self.den) if self.ints else Fraction(0)

    def __hash__(self):
        # == ignores the variable, and a constant equals its scalar
        if self.is_constant():
            return hash(self.leading())
        return hash((self.ints, self.den))

    def __eq__(self, other) -> bool:
        other = _as_poly(other, self.var)
        if other is None:
            return NotImplemented
        return self.ints == other.ints and self.den == other.den

    def _join_var(self, other: "PolyQ") -> str:
        if self.is_constant():
            return other.var
        if other.is_constant() or other.var == self.var:
            return self.var
        raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    # -- ring operations --------------------------------------------------
    def __add__(self, other):
        other = _as_poly(other, self.var)
        if other is None:
            return NotImplemented
        var = self._join_var(other)
        xs, ys, d = self.ints, other.ints, self.den
        if d != other.den:
            d = math.lcm(d, other.den)
            xs = [c * (d // self.den) for c in xs]
            ys = [c * (d // other.den) for c in ys]
        return _make(_zz_add(xs, ys), d, var)

    __radd__ = __add__

    def __neg__(self):
        return _make([-c for c in self.ints], self.den, self.var)

    def __sub__(self, other):
        other = _as_poly(other, self.var)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            ints = [c * other.numerator for c in self.ints]
            return _make(ints, self.den * other.denominator, self.var)
        if not isinstance(other, PolyQ):
            return NotImplemented
        return _make(_zz_mul(self.ints, other.ints), self.den * other.den, self._join_var(other))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial; use RatFunc")
        result = PolyQ([1], self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        if isinstance(other, PolyQ):
            return RatFunc(self, other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunc(PolyQ.const(other, self.var), self)
        return NotImplemented

    # -- calculus-ish -----------------------------------------------------
    def derivative(self) -> "PolyQ":
        return _make(_zz_derivative(self.ints), self.den, self.var)

    def __call__(self, x):
        """Evaluate at a scalar (by Horner), a PolyQ (composition: the
        numerator of ratfunc_substitute) or a RatFunc (ratfunc_substitute)."""
        if isinstance(x, RatFunc):
            return ratfunc_substitute(self, x)
        if isinstance(x, PolyQ):
            return ratfunc_substitute(self, x).num
        q = x.denominator
        value = homogeneous_value(self.ints, x.numerator, q)
        return Fraction(value, self.den * q ** max(self.degree, 0))

    # -- gcd / factorization ----------------------------------------------
    def monic(self) -> "PolyQ":
        if self.is_zero():
            return self
        return _make(self.ints, self.ints[-1], self.var)

    def gcd(self, other: "PolyQ") -> "PolyQ":
        if self.is_zero():
            return other.monic()
        if other.is_zero():
            return self.monic()
        g = _zz_gcd(self.ints, other.ints)
        return _make(g, g[-1], self._join_var(other))

    def factor(self) -> tuple[Fraction, list[tuple["PolyQ", int]]]:
        """Factor into content * prod(irreducible**e) over Q.

        Irreducible parts are primitive with positive leading integer
        coefficients, ordered by degree, then multiplicity, then
        coefficients from the top (the order of sympy's
        ``dup_factor_list``, which it reproduces).  The numerators are
        factored in Z[u] by ``zzfactor``, imported here on first use; no
        sympy is imported, so a scan, which calls this through
        ``CurveFamily.discriminant_factors``, imports none.
        """
        from .zzfactor import factor_list

        if self.is_zero():
            raise ValueError("cannot factor the zero polynomial")
        c, parts = factor_list(self.ints)
        return Fraction(c, self.den), [(_make(f, 1, self.var), e) for f, e in parts]

    # -- display ----------------------------------------------------------
    def __repr__(self):
        return f"PolyQ({to_string(self)!r})"

    def __str__(self):
        return to_string(self)


def homogeneous_value(ints: Sequence[int], p: int, q: int) -> int:
    """q^deg(f) f(p/q) for the integer polynomial f = sum ints[i] u^i, by
    Horner on the homogenized form (0 for f = 0)."""
    if not ints:
        return 0
    acc, qk = ints[-1], 1
    for c in ints[-2::-1]:
        qk *= q
        acc = acc * p + c * qk
    return acc


def _reduce_into(p: PolyQ, ints: Sequence[int], den: int, var: str) -> None:
    """Store ints/den on p in integer-content form: strip trailing zeros,
    divide out gcd(den, *ints) and make den positive."""
    n = len(ints)
    while n and not ints[n - 1]:
        n -= 1
    if not n:
        ints, den = (), 1
    else:
        g = math.gcd(den, *ints)
        if den < 0:
            g = -g
        ints = tuple(ints[:n]) if g == 1 else tuple(c // g for c in ints[:n])
        den //= g
    object.__setattr__(p, "ints", ints)
    object.__setattr__(p, "den", den)
    object.__setattr__(p, "var", var)


def _make(ints: Sequence[int], den: int, var: str) -> PolyQ:
    """The polynomial sum(ints[i] u^i) / den (den != 0)."""
    p = object.__new__(PolyQ)
    _reduce_into(p, ints, den, var)
    return p


def _as_poly(x, var: str) -> Optional[PolyQ]:
    """x as a PolyQ when it is one or a rational scalar, else None."""
    if isinstance(x, PolyQ):
        return x
    if isinstance(x, (int, Fraction)):
        return _make([x.numerator], x.denominator, var)
    return None


def _zz_yun(xs: Sequence[int]) -> list[list[int]]:
    """[b_1, b_2, ..., b_n] for a primitive integer polynomial xs of
    positive leading coefficient: xs = prod a_i^i with the a_i squarefree
    and pairwise coprime, a_n nonconstant, and b_i = prod_{j >= i} a_j, so
    a_i = b_i / b_(i+1).  Every b_i is primitive with a positive leading
    coefficient; a constant xs gives [].

    Yun's algorithm (von zur Gathen-Gerhard, Modern Computer Algebra,
    14.6) over Z: one gcd per multiplicity.
    """
    c = _zz_derivative(xs)
    g = _zz_gcd(xs, c) if c else [1]
    bs, b, c = [], _zz_exquo(xs, g), _zz_exquo(c, g)
    while len(b) > 1:
        bs.append(b)
        # d = c - b' is 0 when b = a_i, else of degree exactly deg b - 1
        d = [x - y for x, y in zip(c, _zz_derivative(b))]
        a = _zz_gcd(b, d) if any(d) else b
        b, c = _zz_exquo(b, a), _zz_exquo(d, a)
    return bs


def square_decompose_poly(p: PolyQ) -> tuple[PolyQ, PolyQ]:
    """Write p = s*s*q with q free of repeated polynomial factors.

    p = c P with P primitive of positive leading coefficient, and c = n/d
    enters as n d = root^2 free, free a squarefree integer.  With
    P = prod a_i^i and b_i = prod_{j >= i} a_j from _zz_yun,
    S = b_2 b_4 b_6 ... is P's square part: s = root/d * S has a positive
    leading coefficient, and q = free * P / S^2.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    xs = _zz_primitive(list(p.ints))
    content = Fraction(p.ints[-1], p.den * xs[-1])
    root, free = squarefree_decompose(content.numerator * content.denominator)
    S = [1]
    for b in _zz_yun(xs)[1::2]:
        S = _zz_mul(S, b)
    q = [free * x for x in _zz_exquo(xs, _zz_mul(S, S))]
    return _make([root * x for x in S], content.denominator, p.var), _make(q, 1, p.var)


def poly_sqrt(p: PolyQ) -> PolyQ:
    """Exact polynomial square root with positive leading coefficient, or
    raise NotASquare.

    p = P/den^2 for the integer polynomial P = den*ints.  A root of P over
    Q has integer coefficients (Gauss's lemma), so the root S of P is found
    top down by exact integer division; then p = (S/den)^2.
    """
    if p.is_zero():
        return p
    if p.degree % 2:
        raise NotASquare("odd degree")
    m = p.degree // 2
    P = [c * p.den for c in p.ints]
    r = isqrt_exact(P[-1])
    if r is None:
        raise NotASquare("leading coefficient is not a rational square")
    s = [0] * (m + 1)
    s[m] = r
    for k in range(m - 1, -1, -1):
        acc = P[m + k] - sum(s[i] * s[m + k - i] for i in range(k + 1, m))
        s[k], rem = divmod(acc, 2 * r)
        if rem:
            raise NotASquare("not a perfect square")
    if _zz_mul(s, s) == P:
        return _make(s, p.den, p.var)
    raise NotASquare("not a perfect square")


class RatFunc:
    """Reduced rational function num/den over Q with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, var: str = "u"):
        if isinstance(num, RatFunc) or isinstance(den, RatFunc):
            # a RatFunc is already reduced with a monic denominator: keep
            # the value and variable of num / den
            if den is not None:
                num = num / den
            object.__setattr__(self, "num", num.num)
            object.__setattr__(self, "den", num.den)
            return
        if den is None:
            den = PolyQ([1], var)
        if isinstance(num, (int, Fraction)):
            num = PolyQ([num], den.var if isinstance(den, PolyQ) else var)
        if isinstance(den, (int, Fraction)):
            den = PolyQ([den], num.var)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = PolyQ([1], den.var)
        elif num.is_constant() or den.is_constant():
            lc = den.leading()
            if lc != 1:
                num = num * (1 / lc)
                den = den * (1 / lc)
        else:
            # one gcd g over Z gives both cofactors: with num = xs/dn and
            # den = ys/dd, num/den = (xs/g) dd / ((ys/g) dn)
            var = num._join_var(den)
            g = _zz_gcd(num.ints, den.ints)
            cff, cfg = _zz_exquo(num.ints, g), _zz_exquo(den.ints, g)
            lc = cfg[-1]
            num = _make([c * den.den for c in cff], lc * num.den, var)
            den = _make(cfg, lc, var)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def variable(var: str = "u") -> "RatFunc":
        return RatFunc(PolyQ.variable(var))

    @staticmethod
    def const(c: Scalar, var: str = "u") -> "RatFunc":
        return RatFunc(PolyQ.const(c, var))

    @property
    def var(self) -> str:
        return self.num.var if not self.num.is_constant() else self.den.var

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def as_poly(self) -> PolyQ:
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: denominator {self.den}")
        return self.num  # den is monic, so a constant den is 1

    def __hash__(self):
        # den is monic, so a constant den is 1 and self equals its numerator
        if self.den.is_constant():
            return hash(self.num)
        return hash((self.num, self.den))

    def __eq__(self, other) -> bool:
        other = _coerce(other, self.var)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __add__(self, other):
        other = _coerce(other, self.var)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce(other, self.var)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other, self.var)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other, self.var)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce(other, self.var)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            return RatFunc(self.den, self.num) ** (-n)
        return RatFunc(self.num**n, self.den**n)

    def __call__(self, x):
        """Evaluate at a scalar (returns Fraction) or compose with a PolyQ or
        RatFunc (see ratfunc_substitute)."""
        if isinstance(x, (PolyQ, RatFunc)):
            return ratfunc_substitute(self, x)
        num = self.num(x)
        den = self.den(x)
        if den == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return num / den

    def __repr__(self):
        return f"RatFunc({to_string(self)!r})"

    def __str__(self):
        return to_string(self)


def _make_ratfunc(num: PolyQ, den: PolyQ) -> RatFunc:
    """The RatFunc num/den for coprime num and monic den, as given."""
    f = object.__new__(RatFunc)
    object.__setattr__(f, "num", num)
    object.__setattr__(f, "den", den)
    return f


def _coerce(x, var: str) -> Optional[RatFunc]:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, PolyQ):
        return RatFunc(x, PolyQ([1], x.var))
    if isinstance(x, (int, Fraction)):
        return RatFunc(PolyQ([x], var), PolyQ([1], var))
    return None


def _cleared(n: PolyQ, d: PolyQ) -> tuple[list[int], list[int], int]:
    """Integer lists L n and L d for L = lcm(den n, den d), and L."""
    L = math.lcm(n.den, d.den)
    return [c * (L // n.den) for c in n.ints], [c * (L // d.den) for c in d.ints], L


def _powers(ds: list[int], top: int) -> list[list[int]]:
    """[d^0, d^1, ..., d^top] for the integer list d."""
    dpow = [[1]]
    for _ in range(top):
        dpow.append(_zz_mul(dpow[-1], ds))
    return dpow


def _homogeneous(ps: Sequence[int], ns: list[int], dpow: list[list[int]]) -> list[int]:
    """d^m p(n/d) for the nonzero integer polynomial p of degree m, with
    dpow[i] = d^i: Horner on the homogenized form, acc -> acc*n + p_i
    d^(m-i) from the top coefficient p_m down."""
    m = len(ps) - 1
    acc = [ps[m]]
    for i in range(m - 1, -1, -1):
        acc = _zz_mul(acc, ns)
        if ps[i]:
            term = dpow[m - i]
            acc += [0] * (len(term) - len(acc))
            for j, c in enumerate(term):
                acc[j] += ps[i] * c
    return acc


def reduced_substitute(
    f: Union[RatFunc, PolyQ], n: PolyQ, d: PolyQ, shift: int = 0, scale: int = 1
) -> RatFunc:
    """d^shift f(n/d) / scale for coprime n and d (scale a nonzero
    integer), formed reduced: no gcd is taken.

    Write f = fn/fd reduced, a = deg fn, b = deg fd, Hn = d^a fn(n/d) and
    Hd = d^b fd(n/d).  Hn = lc(fn) n^a mod d, so Hn is coprime to d, and so
    is Hd; a common factor of Hn and Hd divides Res(fn, fd) times a power
    of n and Res(fn, fd) times a power of d (von zur Gathen and Gerhard,
    Modern Computer Algebra, 6.8), so Hn and Hd are coprime too.  Hence the value is d^e Hn / Hd
    with e = shift + b - a, already reduced; for e < 0, d^(-e) joins the
    denominator.  Only making the denominator monic is left.
    """
    fn, fd = (f, PolyQ([1], f.var)) if isinstance(f, PolyQ) else (f.num, f.den)
    var = n._join_var(d)
    if fn.is_zero():
        return _make_ratfunc(PolyQ([], var), PolyQ([1], var))
    # with L n and L d in place of n and d, d^shift gains a factor L^shift
    ns, ds, L = _cleared(n, d)
    a, b = fn.degree, fd.degree
    e = shift + b - a
    dpow = _powers(ds, max(a, b, abs(e)))
    hn, hd = _homogeneous(fn.ints, ns, dpow), _trim(_homogeneous(fd.ints, ns, dpow))
    if not hd:
        raise ZeroDivisionError("zero denominator")
    if e >= 0:
        hn = _zz_mul(hn, dpow[e])
    else:
        hd = _zz_mul(hd, dpow[-e])
    lc = hd[-1]
    return _make_ratfunc(
        _make([c * fd.den for c in hn], lc * fn.den * L**shift * scale, var),
        _make(hd, lc, var),
    )


def ratfunc_substitute(f: Union[RatFunc, PolyQ], sub: Union[RatFunc, PolyQ]) -> RatFunc:
    """Compose f with u := sub(w), exactly: sub = n/d is reduced, so
    f(n/d) comes out reduced from reduced_substitute."""
    n, d = (sub, PolyQ([1], sub.var)) if isinstance(sub, PolyQ) else (sub.num, sub.den)
    return reduced_substitute(f, n, d)


# -- textual serialization ------------------------------------------------

def to_string(p: Union[PolyQ, RatFunc]) -> str:
    """Sparse 'coeff*u^k' sum with exact rationals."""
    if isinstance(p, RatFunc):
        if p.den == PolyQ([1], p.den.var):
            return to_string(p.num)
        return f"({to_string(p.num)}) / ({to_string(p.den)})"
    if p.is_zero():
        return "0"
    terms = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        c = abs(c)
        if i == 0:
            body = str(c)
        else:
            xpow = p.var if i == 1 else f"{p.var}^{i}"
            body = xpow if c == 1 else f"{c}*{xpow}"
        terms.append((sign, body))
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out

