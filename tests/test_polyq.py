"""Polynomial and rational-function layer tests."""

import math
import operator
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ellfam import polyq
from ellfam.curves import WeierstrassCurve, weierstrass_invariants
from ellfam.families import catalog
from ellfam.polyq import (
    _GCD_PRIME,
    NotASquare,
    PolyQ,
    RatFunc,
    _zz_exquo,
    _zz_gcd,
    _zz_mul,
    gcd_mod_p,
    poly_sqrt,
    ratfunc_substitute,
    reduced_substitute,
    square_decompose_poly,
    to_string,
)

small_fracs = st.builds(
    Fraction, st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=12)
)


def polys(max_degree=5, var="u"):
    return st.lists(small_fracs, min_size=0, max_size=max_degree + 1).map(
        lambda cs: PolyQ(cs, var)
    )


class TestPolyRing:
    def test_degree_and_zero(self):
        assert PolyQ([], "u").degree == -1
        assert PolyQ([0, 0], "u").is_zero()
        assert PolyQ([1, 2, 3], "u").degree == 2

    def test_basic_arithmetic(self):
        u = PolyQ.variable("u")
        p = (u + 1) * (u - 1)
        assert p == u**2 - 1

    def test_variable_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PolyQ.variable("u") + PolyQ.variable("v")

    def test_constants_mix_with_any_variable(self):
        assert PolyQ.const(3, "u") + PolyQ.variable("v") == PolyQ([3, 1], "v")

    @given(polys(), polys(), polys())
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    @given(polys(), small_fracs)
    @settings(max_examples=60)
    def test_evaluation_is_ring_hom(self, a, x):
        u = PolyQ.variable("u")
        assert (a * u + 1)(x) == a(x) * x + 1

    def test_gcd_is_monic_common_divisor(self):
        u = PolyQ.variable("u")
        g = (u**2 - 2 * u + 1).gcd(u**2 - 1)
        assert g == u - 1

    def test_factor(self):
        u = PolyQ.variable("u")
        content, parts = (6 * u**2 - 6).factor()
        assert content == 6
        assert {str(f) for f, e in parts} == {"u - 1", "u + 1"}

    @given(polys(3), polys(3))
    @settings(max_examples=40)
    def test_derivative_product_rule(self, a, b):
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


U = sympy.Symbol("u")
wide_fracs = st.builds(
    Fraction, st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=1, max_value=10**4)
)


def wide_polys(max_degree=6):
    return st.lists(wide_fracs, min_size=0, max_size=max_degree + 1).map(lambda cs: PolyQ(cs, "u"))


def sympy_poly(p):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)] or [0], U, domain="QQ")


def from_sympy_poly(P, var="u"):
    return PolyQ([Fraction(int(c.p), int(c.q)) for c in reversed(P.all_coeffs())], var)


def naive_product(a, b):
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return PolyQ(out, "u")


class TestDenseCore:
    """gcd, factor and multiply against sympy and the schoolbook definitions."""

    @given(polys(4), polys(4), polys(3))
    @settings(max_examples=150)
    def test_gcd_monic_common_divisor_matches_sympy(self, a, b, c):
        a, b = a * c, b * c
        g = a.gcd(b)
        assert g == b.gcd(a)
        if a.is_zero() and b.is_zero():
            assert g.is_zero()
        else:
            assert g.leading() == 1
            assert not ref_divmod(a.coeffs, g.coeffs)[1] and not ref_divmod(b.coeffs, g.coeffs)[1]
            if not c.is_zero():
                assert not ref_divmod(g.coeffs, c.monic().coeffs)[1]
        assert g == from_sympy_poly(sympy.gcd(sympy_poly(a), sympy_poly(b)))

    @given(wide_polys(4), wide_polys(4))
    @settings(max_examples=60)
    def test_gcd_wide_coefficients_matches_sympy(self, a, b):
        assert a.gcd(b) == from_sympy_poly(sympy.gcd(sympy_poly(a), sympy_poly(b)))

    @pytest.mark.parametrize("k", [Fraction(0), Fraction(3), Fraction(-2, 7)])
    def test_gcd_with_constants_of_another_variable(self, k):
        u = PolyQ.variable("u")
        const = PolyQ([k], "v")
        for p in (u**2 + 1, 3 * u - 6, PolyQ([], "u"), PolyQ([5], "u")):
            expected = from_sympy_poly(sympy.gcd(sympy_poly(const), sympy_poly(p)))
            assert const.gcd(p) == expected and p.gcd(const) == expected

    def test_gcd_of_mismatched_variables_rejected(self):
        with pytest.raises(ValueError):
            PolyQ.variable("u").gcd(PolyQ.variable("v"))

    @given(wide_polys(), wide_polys())
    @settings(max_examples=150)
    def test_product_is_naive_convolution(self, a, b):
        assert (a * b).coeffs == naive_product(a, b).coeffs

    @given(wide_polys())
    @settings(max_examples=100)
    def test_square_is_naive_convolution(self, a):
        # a * a and _zz_mul(xs, xs) take the squaring path
        assert (a * a).coeffs == naive_product(a, a).coeffs
        assert _zz_mul(a.ints, a.ints) == _zz_mul(a.ints, list(a.ints))
        assert (a**3).coeffs == naive_product(naive_product(a, a), a).coeffs

    @given(polys(3), polys(2), polys(2))
    @settings(max_examples=100)
    # u^4 - 10u^2 + 1 is irreducible but splits mod every prime, so its
    # modular factors must be recombined; so must a product of two such
    # quartics (with u^4 - 14u^2 + 9, for sqrt 2 + sqrt 5)
    @example(PolyQ([1, 0, -10, 0, 1]), PolyQ([1]), PolyQ([1]))
    @example(PolyQ([1, 0, -10, 0, 1]), PolyQ([1]), PolyQ([9, 0, -14, 0, 1]))
    @example(PolyQ([1, 0, -10, 0, 1]), PolyQ([9, 0, -14, 0, 1]), PolyQ([Fraction(-3, 2), 0, 0, 1]))
    @example(PolyQ([5, -4, 0, -6]), PolyQ([-1, 2]), PolyQ([Fraction(7, 3)]))  # negative lc
    @example(PolyQ([0, 0, 1]), PolyQ([0, 1]), PolyQ([0, -2]))  # -2u^5
    @example(PolyQ([Fraction(-7, 4)]), PolyQ([1]), PolyQ([1]))  # a constant
    def test_factor_reconstructs_and_matches_sympy(self, a, b, c):
        p = a * b * b * c
        if p.is_zero():
            return
        content, parts = p.factor()
        assert p.factor() == (content, parts)
        prod = PolyQ([content], "u")
        for f, e in parts:
            assert f.leading() > 0 and all(x.denominator == 1 for x in f.coeffs)
            assert f.den == 1 and math.gcd(*f.ints) == 1
            prod = prod * f**e
        assert prod == p
        ref_content, ref_parts = sympy.factor_list(sympy_poly(p))
        assert content == Fraction(int(ref_content.p), int(ref_content.q))
        assert parts == [(from_sympy_poly(f), e) for f, e in ref_parts]


@pytest.mark.parametrize("which", ["B", "A^2-4B"])
@pytest.mark.parametrize("label", list(catalog()))
def test_factor_matches_dup_factor_list_on_catalog(label, which):
    # the discriminant polynomials a scan factors: content, factors,
    # multiplicities and their order are sympy's
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_factor_list

    fam = catalog()[label]
    f = fam.B if which == "B" else fam.A * fam.A - 4 * fam.B
    c, parts = dup_factor_list(list(f.ints[::-1]), ZZ)
    expected = (Fraction(int(c), f.den), [(PolyQ([int(x) for x in g[::-1]]), e) for g, e in parts])
    assert f.factor() == expected


int_polys = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=6).filter(
    lambda cs: cs[-1] != 0
)


def _zz_mul_ref(xs, ys):
    out = [0] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i + j] += x * y
    return out


def _proportional(xs, ys):
    """xs = c ys for a nonzero rational c."""
    return len(xs) == len(ys) and all(x * ys[-1] == y * xs[-1] for x, y in zip(xs, ys))


class TestIntegerGcd:
    """The gcd in Z[u] behind PolyQ.gcd and RatFunc, against sympy's
    dup_inner_gcd: its cofactors are sympy's up to one nonzero rational
    factor (sympy's gcd also carries the common content), which the
    canonical forms divide out."""

    @given(int_polys, int_polys, int_polys, st.integers(-30, 30).filter(bool), st.integers(-30, 30).filter(bool))
    @settings(max_examples=200, deadline=None)
    def test_cofactors_match_dup_inner_gcd(self, a, b, c, k, m):
        from sympy.polys.domains import ZZ
        from sympy.polys.euclidtools import dup_inner_gcd

        # a common content 6 and a common factor c, with the sign of each
        # leading coefficient free
        xs = [6 * k * x for x in _zz_mul_ref(a, c)]
        ys = [6 * m * y for y in _zz_mul_ref(b, c)]
        g = _zz_gcd(xs, ys)
        cff, cfg = _zz_exquo(xs, g), _zz_exquo(ys, g)
        assert _zz_mul_ref(cff, g) == xs and _zz_mul_ref(cfg, g) == ys
        assert g[-1] > 0 and math.gcd(*g) == 1
        h, sff, sfg = (
            [int(x) for x in reversed(v)] for v in dup_inner_gcd(xs[::-1], ys[::-1], ZZ)
        )
        assert _proportional(g, h)
        assert _proportional(cff, sff) and _proportional(cfg, sfg)
        assert cff[-1] * sfg[-1] == sff[-1] * cfg[-1]

    def test_common_factor_that_vanishes_mod_the_prime(self):
        # xs = u (P u + 1) and ys = (u + 1)(P u + 1) are coprime mod P:
        # only the remainder sequence sees their gcd
        xs, ys = [0, 1, _GCD_PRIME], [1, _GCD_PRIME + 1, _GCD_PRIME]
        assert len(gcd_mod_p(xs, ys, _GCD_PRIME)) == 1
        assert _zz_gcd(xs, ys) == [1, _GCD_PRIME]

    @given(int_polys, int_polys, int_polys.filter(lambda cs: len(cs) > 1))
    @settings(max_examples=60, deadline=None)
    def test_remainder_sequence_when_the_prime_divides_the_lead(self, a, b, c):
        # a common factor whose leading coefficient _GCD_PRIME divides:
        # lc(xs) = 0 mod that prime skips the coprimality test, so the
        # remainder sequence alone must find the gcd
        c = c[:-1] + [_GCD_PRIME * c[-1]]
        xs, ys = _zz_mul_ref(a, c), _zz_mul_ref(b, c)
        g = _zz_gcd(xs, ys)
        ref = sympy.gcd(sympy.Poly(xs[::-1], U), sympy.Poly(ys[::-1], U))
        assert _proportional(g, [int(x) for x in reversed(ref.all_coeffs())])

    def test_gcd_mod_p(self):
        # (u - 1)(u + 2) and (u - 1)(u - 3) mod 7: monic gcd u - 1
        assert gcd_mod_p([-2, 1, 1], [3, -4, 1], 7) == [6, 1]
        assert gcd_mod_p([1, 1], [2, 1], 7) == [1]
        assert gcd_mod_p([7, 14], [0, 21], 7) == []
        assert gcd_mod_p([3, 0, 2], [0], 5) == [4, 0, 1]

    @given(
        st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, _GCD_PRIME]),
        st.lists(st.integers(-(10**20), 10**20), max_size=6),
        st.lists(st.integers(-(10**20), 10**20), max_size=6),
        st.lists(st.integers(-(10**20), 10**20), min_size=1, max_size=4),
    )
    @example(p=7, a=[], b=[], c=[1])
    @example(p=7, a=[3], b=[], c=[1])
    @example(p=7, a=[14], b=[0, 0, 21], c=[1])
    @example(p=5, a=[2], b=[1, 1], c=[1])
    @example(p=_GCD_PRIME, a=[_GCD_PRIME + 1], b=[0, 1], c=[1])
    @settings(max_examples=300, deadline=None)
    def test_gcd_mod_p_matches_gf_gcd(self, p, a, b, c):
        # a shared factor c makes the gcd nontrivial mod the large prime;
        # empty and one-element lists give zero and constant inputs
        from sympy.polys.domains import ZZ
        from sympy.polys.galoistools import gf_from_int_poly, gf_gcd

        xs, ys = _zz_mul_ref(a, c), _zz_mul_ref(b, c)
        ref = gf_gcd(gf_from_int_poly(xs[::-1], p), gf_from_int_poly(ys[::-1], p), p, ZZ)
        assert gcd_mod_p(xs, ys, p) == [int(x) for x in ref[::-1]]


class TestSquareDecompose:
    def test_known_decomposition(self):
        v = PolyQ.variable("v")
        p = 16 * v**8 * (2 * v - 1) ** 2 * (4 * v**2 - 4 * v + 5)
        s, q = square_decompose_poly(p)
        assert s * s * q == p
        assert q == 4 * v**2 - 4 * v + 5
        # the content's square class goes into q as a squarefree integer
        u = PolyQ.variable("u")
        assert square_decompose_poly((u * u + 1) / 2) == (PolyQ.const(Fraction(1, 2)), 2 * u * u + 2)
        p = Fraction(-3, 8) * (u - 1) ** 2 * (u * u + 1)
        assert square_decompose_poly(p) == ((u - 1) / 4, -6 * u * u - 6)

    @given(
        st.lists(st.tuples(polys(2), st.integers(min_value=1, max_value=5)), max_size=4),
        small_fracs.filter(bool),
    )
    @settings(max_examples=60, deadline=None)
    def test_reconstruction(self, parts, content):
        # content * prod f^e, multiplicities up to 5, factors possibly shared
        p = PolyQ.const(content)
        for f, e in parts:
            if not f.is_zero():
                p = p * f**e
        s, q = square_decompose_poly(p)
        assert s * s * q == p
        # q has no repeated roots and squarefree integer content, and s has a
        # positive leading coefficient
        content, parts = q.factor()
        assert all(e == 1 for _f, e in parts)
        assert content.denominator == 1
        assert all(e == 1 for e in sympy.factorint(content.numerator).values())
        assert s.leading() > 0

    def test_poly_sqrt(self):
        v = PolyQ.variable("v")
        assert poly_sqrt(4 * v**2 - 4 * v + 1) == 2 * v - 1
        with pytest.raises(NotASquare):
            poly_sqrt(4 * v**2 - 4 * v + 5)

    @given(polys(3))
    @settings(max_examples=40)
    def test_poly_sqrt_roundtrip(self, a):
        if a.is_zero() or a.leading() < 0:
            return
        r = poly_sqrt(a * a)
        assert r * r == a * a


class TestDiscShiftedCubic:
    def test_matches_weierstrass_discriminant(self):
        # y^2 = x^3 + Ax^2 + Bx has discriminant 16 B^2 (A^2 - 4B)
        for A, B in [(49, 256), (37, 160), (-3, 7)]:
            E = WeierstrassCurve(0, A, 0, B, 0)
            assert E.disc == 16 * B * B * (A * A - 4 * B)

    def test_symbolic(self):
        d = PolyQ.variable("d")
        A6 = 1 + 6 * d - 3 * d**2
        B6 = -16 * d**3
        disc = weierstrass_invariants(0, A6, 0, B6, 0)[6]
        assert disc == 16 * 256 * d**6 * (d + 1) ** 3 * (9 * d + 1)


class TestRatFunc:
    def test_reduction(self):
        u = PolyQ.variable("u")
        f = RatFunc(u**2 - 1, u - 1)
        assert f.is_polynomial() and f.as_poly() == u + 1

    def test_monic_denominator(self):
        u = PolyQ.variable("u")
        f = RatFunc(u, 2 * u + 2)
        assert f.den.leading() == 1

    def test_ratfunc_over_a_denominator_is_the_quotient(self):
        # RatFunc(r, den) with r already a RatFunc is r / den, reduced
        w = PolyQ.variable("w")
        r = (w + 1) / (w * w + 3)
        f = RatFunc(r, 2)
        assert isinstance(f.num, PolyQ) and f == r / 2
        assert RatFunc(r, w + 1) == RatFunc(PolyQ([1], "w"), w * w + 3)
        with pytest.raises(ZeroDivisionError):
            RatFunc(r, 0)

    def test_over_a_ratfunc_denominator_is_the_quotient(self):
        # RatFunc(num, r) with r a RatFunc is num / r, whatever num is
        w = PolyQ.variable("w")
        r = (w + 1) / (w * w + 3)
        assert RatFunc(w + 1, r) == RatFunc(w * w + 3)
        assert RatFunc(2, r) == RatFunc(2 * (w * w + 3), w + 1)
        assert RatFunc(Fraction(1, 2), r) == 1 / (2 * r)
        assert RatFunc(r, r) == 1 and RatFunc(2, r).var == "w"
        with pytest.raises(ZeroDivisionError):
            RatFunc(1, r - r)

    @given(polys(3), polys(2), polys(2))
    @settings(max_examples=40)
    def test_field_axioms(self, a, b, c):
        if b.is_zero() or c.is_zero():
            return
        x = RatFunc(a, b)
        y = RatFunc(b, c)
        assert x + y - y == x
        if not y.is_zero():
            assert (x / y) * y == x

    def test_pole_evaluation_raises(self):
        u = PolyQ.variable("u")
        f = RatFunc(PolyQ.const(1, "u"), u - 2)
        with pytest.raises(ZeroDivisionError):
            f(Fraction(2))
        assert f(Fraction(3)) == 1

    def test_substitution(self):
        u = RatFunc.variable("u")
        f = (u**2 + 1) / u
        g = ratfunc_substitute(f, 1 - u)
        assert g == ((1 - u) ** 2 + 1) / (1 - u)

    @given(small_fracs.filter(lambda q: q != 0), small_fracs)
    def test_substitution_commutes_with_evaluation(self, x, shift):
        u = RatFunc.variable("u")
        f = (u**3 - 2) / (u**2 + 1)
        g = ratfunc_substitute(f, u + shift)
        assert g(x) == f(x + shift)


def reference_normalize(num, den):
    """RatFunc normalization by gcd, two exact divisions and a monic den."""
    if not num.is_zero():
        g = num.gcd(den)
        if not g.is_constant():
            num = PolyQ(ref_divmod(num.coeffs, g.coeffs)[0], num.var)
            den = PolyQ(ref_divmod(den.coeffs, g.coeffs)[0], den.var)
    lc = den.leading()
    num, den = num * (1 / lc), den * (1 / lc)
    if num.is_zero():
        den = PolyQ([1], den.var)
    return num, den


def reference_substitute(f, sub):
    """f(sub) by Horner on num and den in RatFunc arithmetic."""

    def horner(p):
        acc = RatFunc.const(0, sub.var)
        for c in reversed(p.coeffs):
            acc = acc * sub + c
        return acc

    return horner(f.num) / horner(f.den)


class TestNormalizeOnce:
    """The cofactor normalization and the homogenized substitution agree
    with the reference paths above."""

    @given(polys(4), polys(4).filter(lambda p: not p.is_zero()))
    @settings(max_examples=80, deadline=None)
    def test_cofactors_match_reference(self, num, den):
        f = RatFunc(num, den)
        assert (f.num, f.den) == reference_normalize(num, den)
        assert f.den.leading() == 1

    @pytest.mark.parametrize(
        "num,den",
        [
            (PolyQ([], "u"), PolyQ([3, 0, -2], "u")),  # zero numerator
            (PolyQ([Fraction(-5, 3)], "u"), PolyQ([1, 2, -7], "u")),  # constant numerator
            (PolyQ([1, 2, -7], "u"), PolyQ([Fraction(-4, 9)], "u")),  # constant denominator
            (PolyQ([-6, 0, 6], "u"), PolyQ([-3, -3], "u")),  # negative leading coefficients
            (PolyQ([2, 3, 1], "u") * PolyQ([Fraction(1, 2), 5], "u"),
             PolyQ([2, 3, 1], "u") * PolyQ([7, 0, -3], "u")),  # shared quadratic, non-monic
        ],
    )
    def test_cofactor_edge_cases(self, num, den):
        f = RatFunc(num, den)
        assert (f.num, f.den) == reference_normalize(num, den)

    @given(
        polys(4),
        polys(4).filter(lambda p: not p.is_zero()),
        polys(2, "w"),
        polys(2, "w").filter(lambda p: not p.is_zero()),
    )
    @settings(max_examples=80, deadline=None)
    def test_substitute_matches_horner(self, a, b, c, d):
        f, sub = RatFunc(a, b), RatFunc(c, d)
        try:
            expected = reference_substitute(f, sub)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                ratfunc_substitute(f, sub)
            return
        got = ratfunc_substitute(f, sub)
        assert (got.num, got.den) == (expected.num, expected.den)
        assert f(sub) == got
        if not got.is_constant():
            assert got.var == "w"

    @pytest.mark.parametrize(
        "f,sub",
        [
            (RatFunc(PolyQ([], "u")), RatFunc(PolyQ([1, 1], "w"), PolyQ([0, 2], "w"))),
            (RatFunc(PolyQ([Fraction(7, 2)], "u")), RatFunc(PolyQ([0, 0, 1], "w"))),
            (RatFunc(PolyQ([1, -3, 0, -2], "u"), PolyQ([Fraction(5, 4)], "u")),
             RatFunc(PolyQ([-1, 0, -3], "w"), PolyQ([2, -5], "w"))),
            (RatFunc(PolyQ([0, -2], "u"), PolyQ([1, 0, -1], "u")),
             RatFunc(PolyQ([Fraction(1, 3)], "w"))),  # constant substitution
            (RatFunc(PolyQ([4, 0, -1], "u"), PolyQ([0, 0, 0, 3], "u")),
             RatFunc(PolyQ([1, -2], "w"), PolyQ([Fraction(-1, 2), 0, 3], "w"))),
        ],
    )
    def test_substitute_edge_cases(self, f, sub):
        assert ratfunc_substitute(f, sub) == reference_substitute(f, sub)
        assert ratfunc_substitute(f.num, sub) == reference_substitute(RatFunc(f.num), sub)

    @given(polys(4), polys(2, "w"), polys(2, "w").filter(lambda p: not p.is_zero()),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_homogenized_is_cleared_substitution(self, p, n, d, extra):
        k = max(p.degree, 0) + extra
        h = reduced_substitute(p, n, d, k).num
        assert RatFunc(h) == RatFunc(d) ** k * reference_substitute(RatFunc(p), RatFunc(n, d))
        # composition with a polynomial is the d = 1 case; Horner in PolyQ
        acc = PolyQ([], "w")
        for c in reversed(p.coeffs):
            acc = acc * n + c
        assert p(n) == acc


def normalized_substitute(f, n, d, shift, scale):
    """d^shift f(n/d) / scale in RatFunc arithmetic, each step reduced by
    RatFunc's gcd."""
    if isinstance(f, PolyQ):
        f = RatFunc(f)
    return RatFunc(d) ** shift * reference_substitute(f, RatFunc(n, d)) / scale


def _no_gcd(*args):
    raise AssertionError("reduced_substitute took a gcd")


def coprime(n, d):
    return n.gcd(d).is_constant()


int_w_polys = st.lists(st.integers(min_value=-9, max_value=9), max_size=4).map(
    lambda cs: PolyQ(cs, "w")
)


class TestReducedSubstitute:
    """reduced_substitute forms d^shift f(n/d) / scale for coprime n, d
    already reduced: it agrees with RatFunc's normalization of the
    unreduced pair and takes no gcd."""

    def check(self, f, n, d, shift, scale):
        try:
            expected = normalized_substitute(f, n, d, shift, scale)
        except ZeroDivisionError:
            # a constant substitution at a pole of f
            with pytest.raises(ZeroDivisionError):
                reduced_substitute(f, n, d, shift, scale)
            return
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polyq, "_zz_gcd", _no_gcd)
            got = reduced_substitute(f, n, d, shift, scale)
        assert (got.num.ints, got.num.den, got.den.ints, got.den.den) == (
            expected.num.ints, expected.num.den, expected.den.ints, expected.den.den
        )
        assert got.den.leading() == 1
        if not got.num.is_zero():
            assert _zz_gcd(got.num.ints, got.den.ints) == [1]

    @given(
        polys(4),
        polys(4).filter(lambda p: not p.is_zero()),
        int_w_polys,
        int_w_polys.filter(lambda p: not p.is_zero()),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=-12, max_value=12).filter(bool),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_normalized_pair(self, a, b, n, d, shift, scale):
        # deg fn <, = and > deg fd, zero and constant parts all occur
        assume(coprime(n, d))
        self.check(RatFunc(a, b), n, d, shift, scale)

    @pytest.mark.parametrize(
        "f,n,d,shift,scale",
        [
            # zero numerator
            (RatFunc(PolyQ([], "u")), PolyQ([1, 1], "w"), PolyQ([-3, 2], "w"), 2, 5),
            # constant numerator
            (RatFunc(PolyQ([Fraction(5, 3)], "u"), PolyQ([1, 0, 1], "u")),
             PolyQ([0, 0, 1], "w"), PolyQ([1, 1], "w"), 0, 1),
            # constant denominator, f a PolyQ
            (PolyQ([0, Fraction(-2, 7), 0, 1], "u"), PolyQ([-1, 3], "w"), PolyQ([2, 0, 1], "w"), 1, 1),
            # deg fn < deg fd
            (RatFunc(PolyQ([1, 1], "u"), PolyQ([-2, 0, 0, 1], "u")),
             PolyQ([0, 1], "w"), PolyQ([-1, 1], "w"), 3, 1),
            # deg fn = deg fd, leading terms of n and d that cancel
            (RatFunc(PolyQ([-1, 0, 2], "u"), PolyQ([1, 1, 1], "u")),
             PolyQ([1, 0, 1], "w"), PolyQ([0, 2], "w"), 0, 6),
            (RatFunc(PolyQ([1, 0, 1], "u"), PolyQ([0, 3, 1], "u")),
             PolyQ([1, 2, 1], "w"), PolyQ([0, 0, -1], "w"), 1, 1),
            # deg fn > deg fd by more than the shift: d^(-e) joins the denominator
            (RatFunc(PolyQ([-3, 0, 0, 0, 1], "u"), PolyQ([-1, 4], "u")),
             PolyQ([1, -1], "w"), PolyQ([3, 1, 1], "w"), 2, 4),
            # constant d: a polynomial substitution
            (RatFunc(PolyQ([2, 0, 1], "u"), PolyQ([1, 1], "u")),
             PolyQ([-5, 0, 1], "w"), PolyQ([3], "w"), 2, 1),
            # rational n and d, cleared by L = 30: d^shift gains 1/L^shift
            (RatFunc(PolyQ([1, -2, 1], "u"), PolyQ([0, 5], "u")),
             PolyQ([Fraction(1, 2), Fraction(1, 3)], "w"),
             PolyQ([Fraction(2, 5), 0, 1], "w"), 2, 3),
            # negative scale
            (RatFunc(PolyQ([0, 1], "u"), PolyQ([1, 0, 1], "u")),
             PolyQ([1, 1], "w"), PolyQ([0, 1], "w"), 4, -2),
            # constant substitution, at a pole of f and off it
            (RatFunc(PolyQ([0, -2], "u"), PolyQ([1, 0, -1], "u")), PolyQ([1], "w"), PolyQ([1], "w"), 0, 1),
            (RatFunc(PolyQ([0, -2], "u"), PolyQ([1, 0, -1], "u")), PolyQ([3], "w"), PolyQ([2], "w"), 1, 1),
        ],
    )
    def test_edge_cases(self, f, n, d, shift, scale):
        assert coprime(n, d)
        self.check(f, n, d, shift, scale)

    def test_pole_of_a_constant_substitution(self):
        f = RatFunc(PolyQ([1], "u"), PolyQ([-1, 1], "u"))
        with pytest.raises(ZeroDivisionError):
            reduced_substitute(f, PolyQ([1], "w"), PolyQ([1], "w"))


def parse_poly(s, var):
    """Reference parser of to_string's output (polynomials only)."""
    x = sympy.Symbol(var)
    expr = sympy.sympify(s.replace("^", "**"), locals={var: x}, rational=True)
    return from_sympy_poly(sympy.Poly(expr, x, domain="QQ"), var)


class TestSerialization:
    def test_to_string_poly(self):
        v = PolyQ.variable("v")
        s = to_string(16 * v**3 - v + Fraction(1, 2))
        assert parse_poly(s, "v") == 16 * v**3 - v + Fraction(1, 2)

    @given(polys(4))
    @settings(max_examples=40)
    def test_roundtrip(self, p):
        assert parse_poly(to_string(p), "u") == p


# -- the integer-content form against a plain Fraction-list reference -----

def ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def ref_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a, b):
    quo, rem = [Fraction(0)] * max(len(a) - len(b) + 1, 0), list(a)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quo[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return ref_trim(quo), ref_trim(rem)


def ref_monic(a):
    return tuple(c / a[-1] for c in a)


def ref_gcd(a, b):
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def ref_sqrt(a):
    """The positive-leading square root by the Fraction recursion, or None."""
    if not a:
        return ()
    if len(a) % 2 == 0 or a[-1] < 0:
        return None
    m = len(a) // 2
    r = Fraction(math.isqrt(a[-1].numerator), math.isqrt(a[-1].denominator))
    s = [Fraction(0)] * (m + 1)
    s[m] = r
    for k in range(m - 1, -1, -1):
        acc = a[m + k] - sum(s[i] * s[m + k - i] for i in range(k + 1, m))
        s[k] = acc / (2 * r)
    return tuple(s) if ref_mul(s, s) == a else None


def assert_form(p):
    """den > 0, gcd(den, *ints) = 1, integer numerators, no trailing zero."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int for c in p.ints)
    assert math.gcd(p.den, *p.ints) == 1
    assert not p.ints or p.ints[-1] != 0


def check(p, ref):
    assert_form(p)
    assert p.coeffs == ref_trim(ref)
    assert p.ints == tuple(c * p.den for c in p.coeffs)


huge_fracs = st.builds(
    Fraction, st.integers(min_value=-10**30, max_value=10**30), st.integers(min_value=1, max_value=10**30)
)
frac_lists = st.builds(
    lambda cs, pad: cs + [Fraction(0)] * pad,
    st.lists(huge_fracs | st.just(Fraction(0)), max_size=6),
    st.integers(min_value=0, max_value=3),
)


class TestIntegerContentForm:
    @given(frac_lists, frac_lists, huge_fracs, st.integers(min_value=-10**30, max_value=10**30))
    @settings(max_examples=150, deadline=None)
    def test_ring_operations(self, a, b, k, n):
        p, q = PolyQ(a, "u"), PolyQ(b, "u")
        check(p, a)
        check(p + q, ref_add(a, b))
        check(p - q, ref_add(a, [-c for c in b]))
        check(-p, [-c for c in a])
        check(p * q, ref_mul(a, b))
        check(p * k, [c * k for c in a])
        check(n * p, [n * c for c in a])
        check(p / k if k else p, [c / k for c in a] if k else a)
        check(p.derivative(), [i * c for i, c in enumerate(a)][1:])
        if not p.is_zero():
            check(p.monic(), ref_monic(ref_trim(a)))

    @given(frac_lists, huge_fracs)
    @settings(max_examples=100, deadline=None)
    def test_evaluation_at_a_fraction(self, a, x):
        value = PolyQ(a, "u")(x)
        assert type(value) is Fraction
        assert value == sum((c * x**i for i, c in enumerate(a)), Fraction(0))

    @given(frac_lists)
    @settings(max_examples=100, deadline=None)
    def test_sqrt_of_a_square(self, s):
        s = ref_trim(s)
        root = poly_sqrt(PolyQ(s, "u") * PolyQ(s, "u"))
        check(root, s if not s or s[-1] > 0 else [-c for c in s])

    @given(frac_lists, huge_fracs.filter(lambda e: e != 0), st.integers(min_value=0, max_value=12))
    @settings(max_examples=150, deadline=None)
    def test_sqrt_of_a_perturbed_square(self, s, e, j):
        # s^2 + e u^j is a square only in special cases: follow the reference
        a = ref_add(ref_mul(s, s), [Fraction(0)] * j + [e])
        expected = ref_sqrt(a)
        if expected is None:
            with pytest.raises(NotASquare):
                poly_sqrt(PolyQ(a, "u"))
        else:
            check(poly_sqrt(PolyQ(a, "u")), expected)

    @pytest.mark.parametrize(
        "a",
        [
            [Fraction(-1)],                      # negative constant
            [0, 0, Fraction(2, 9)],              # 2/9 is not a rational square
            [1, 0, 0, 1],                        # odd degree
            [Fraction(1, 4), 1, 1, 0, 1],        # (u^2 + 1/2)^2 + u
            [Fraction(1, 9), 0, Fraction(2, 3), 0, 1, 0, 0],  # (u^2 + 1/3)^2 with zero padding
        ],
    )
    def test_sqrt_edge_cases(self, a):
        expected = ref_sqrt(ref_trim(map(Fraction, a)))
        if expected is None:
            with pytest.raises(NotASquare):
                poly_sqrt(PolyQ(a, "u"))
        else:
            check(poly_sqrt(PolyQ(a, "u")), expected)

    @given(frac_lists, frac_lists.filter(lambda cs: any(cs)), frac_lists)
    @settings(max_examples=100, deadline=None)
    def test_ratfunc_normalization(self, a, b, c):
        # a shared factor c (when nonzero) must cancel
        if any(c):
            a, b = ref_mul(a, c), ref_mul(ref_trim(b), c)
        a, b = ref_trim(a), ref_trim(b)
        f = RatFunc(PolyQ(a, "u"), PolyQ(b, "u"))
        if not a:
            num, den = (), (Fraction(1),)
        else:
            g = ref_gcd(a, b)
            num, den = ref_divmod(a, g)[0], ref_divmod(b, g)[0]
            num, den = tuple(x / den[-1] for x in num), ref_monic(den)
        check(f.num, num)
        check(f.den, den)


class TestHashAgreesWithEq:
    def test_variable_is_ignored(self):
        a, b = PolyQ([0, 1], "u"), PolyQ([0, 1], "v")
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1

    @pytest.mark.parametrize("k", [0, 1, -7, Fraction(3, 7), Fraction(-10**40, 3)])
    def test_constants_hash_as_their_value(self, k):
        for x in (PolyQ.const(k, "u"), PolyQ.const(k, "v"), RatFunc.const(k, "w")):
            assert x == k and hash(x) == hash(k)
            assert x == Fraction(k) and hash(x) == hash(Fraction(k))

    def test_polynomial_ratfunc_hashes_as_its_numerator(self):
        u = PolyQ.variable("u")
        for p in (u, 3 * u**2 - Fraction(1, 2), PolyQ.const(Fraction(5, 2))):
            f = RatFunc(p * 6, PolyQ.const(6))
            assert f == p and hash(f) == hash(p)
        assert RatFunc(u, u + 1) != u

    @given(st.lists(st.lists(st.sampled_from([0, 1, -1, Fraction(1, 2)]), max_size=3), min_size=2, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_equal_objects_hash_equal(self, lists):
        pool = []
        for cs in lists:
            pool += [PolyQ(cs, "u"), PolyQ(cs, "v"), RatFunc(PolyQ(cs, "u") * 2, PolyQ.const(2, "u"))]
            p = PolyQ(cs, "u")
            if p.is_constant():
                k = p.leading()
                pool += [k] + ([int(k)] if k.denominator == 1 else [])
            if not p.is_zero():
                pool.append(RatFunc(PolyQ([1], "u"), p))
        for x in pool:
            for y in pool:
                if x == y:
                    assert hash(x) == hash(y), (x, y)


class TestMixedTypeOperators:
    def test_polyq_minus_ratfunc_reaches_ratfunc(self):
        u = PolyQ.variable("u")
        f = RatFunc(PolyQ.const(1), u + 1)
        assert u - f == RatFunc(u * u + u - 1, u + 1)
        assert u + f == RatFunc(u * u + u + 1, u + 1)
        assert f - u == RatFunc(1 - u * u - u, u + 1)

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.truediv])
    def test_float_raises_type_error(self, op):
        u = PolyQ.variable("u")
        for x in (u, RatFunc(PolyQ.const(1), u + 1)):
            with pytest.raises(TypeError):
                op(x, 1.5)
            with pytest.raises(TypeError):
                op(1.5, x)
