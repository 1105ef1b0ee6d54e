"""Quadratic-section engine tests: conditions and quartic Jacobians."""

from fractions import Fraction

import pytest

from ellfam.curves import INFINITY, WeierstrassCurve, isomorphic_over_Q
from ellfam.families import catalog
from ellfam.polyq import PolyQ, RatFunc, square_decompose_poly
from ellfam.sections import quartic_jacobian

w = PolyQ.variable("w")
u = PolyQ.variable("u")


def same_square_class(p: PolyQ, q: PolyQ) -> bool:
    _s, core = square_decompose_poly(p * q)
    return core == 1


class TestDivisorConditions:
    def test_known_second_point_conditions(self):
        from ellfam.sections import section_condition

        # imposing these specific abscissae as new points reduces to the
        # stated quadratic conditions
        x17 = RatFunc(
            (2 * w - 3) * (2 * w + 3) * (4 + w**2) ** 2 * (6 * w**2 - 1)
        ) * Fraction(-27, 2)
        c17 = section_condition(catalog()["Z8-17"], x17)
        assert same_square_class(c17, 30 * (3 + 2 * w**2))

        x18 = RatFunc(4 * (1 + 3 * w**2) ** 2 * (9 * w**2 - 13) ** 2) / RatFunc(
            7 * w**2 - 3
        )
        c18 = section_condition(catalog()["Z8-18"], x18)
        assert same_square_class(c18, 7 * w**2 - 3)


def conic_line_sweep(bilinear, p):
    """Second intersections of the conic B(x, x) = 0 with the lines through
    its point p in the directions (1, k, 0): Q(d) p - 2 B(p, d) d, in k."""
    k = PolyQ.variable("k")
    d = (1, k, 0)
    return tuple(bilinear(d, d) * p[i] - 2 * bilinear(p, d) * d[i] for i in range(3))


def section_conic(a, b):
    # t^2 = 4v^2 - 4vz + 5z^2, the Z8-1 condition as a conic in (v, t, z)
    return 4 * a[0] * b[0] - a[1] * b[1] + 5 * a[2] * b[2] - 2 * (a[0] * b[2] + a[2] * b[0])


class TestParametrizeConic:
    def test_section_conic_recovers_parametrization(self):
        # lines through (1, 4, 2), i.e. v = 1/2, t = 2, on t^2 = 4v^2 - 4v + 5;
        # the swept v/z is an alternative form of the parametrization attached
        # to the first rank-1 entry
        x, t, z = conic_line_sweep(section_conic, (1, 4, 2))
        assert section_conic((x, t, z), (x, t, z)).is_zero()
        # substituting the swept value v(k)/z(k) into the condition gives a
        # perfect square, as the catalog's printed substitution does
        _s, core = square_decompose_poly(4 * x * x - 4 * x * z + 5 * z * z)
        assert core == 1


class TestQuarticJacobian:
    def test_validation(self):
        with pytest.raises(ValueError, match="degree <= 4"):
            quartic_jacobian(u**5 + 1, (Fraction(0), Fraction(1)))
        with pytest.raises(ValueError, match="does not satisfy"):
            quartic_jacobian(u**4 + 1, (Fraction(1), Fraction(1)))
        with pytest.raises(ValueError, match="root of q"):
            quartic_jacobian(u**4 - 1, (Fraction(1), Fraction(0)))

    @pytest.mark.parametrize(
        "q,point",
        [
            # degree 3: a double root, twice, and a triple root
            ((u - 1) ** 2 * (u + 3), (-2, 3)),
            (2 * (u - 1) ** 2 * (u + 1), (7, 24)),
            ((u - 1) ** 3, (2, 1)),
            # degree 4: a double root, a triple root, two double roots and
            # a fourfold root
            ((u - 1) ** 2 * (u * u + 1), (0, 1)),
            ((u - 1) ** 3 * (u + 2), (-3, 8)),
            ((u - 1) ** 2 * (u + 1) ** 2, (0, 1)),
            ((u - 1) ** 4, (0, 1)),
        ],
    )
    def test_repeated_root_is_singular(self, q, point):
        # with a valid point, the Jacobian's discriminant is a nonzero
        # multiple of disc q, so the curve's own check rejects the model
        point = (Fraction(point[0]), Fraction(point[1]))
        assert point[1] ** 2 == q(point[0])
        with pytest.raises(ValueError, match="singular model"):
            quartic_jacobian(q, point)

    def test_known_cubic_models(self):
        r = PolyQ.variable("r")
        cases = [
            (29 * r**4 + 62 * r**2 + 3509, (1, 60),
             WeierstrassCurve(0, -463, 0, 45936, 0)),
            (15 * u**4 + 1770 * u**2 + 1815, (1, 60),
             WeierstrassCurve(0, 1770, 0, -108900, -192753000)),
            (3 * (2523 - 870 * u + 151 * u**2 - 30 * u**3 + 3 * u**4), (0, 87),
             WeierstrassCurve(0, 453, 0, -37584, -817452)),
        ]
        for q, (u0, t0), expected in cases:
            E, fwd, inv = quartic_jacobian(q, (Fraction(u0), Fraction(t0)))
            assert isomorphic_over_Q(E, expected) is not None

    def test_further_quartics_give_elliptic_curves(self):
        quartics = [
            (4 * u**4 - 54 * u**3 + 293 * u**2 - 756 * u + 784, (0, 28)),
            (u**4 - 30 * u**3 + 197 * u**2 - 420 * u + 196, (0, 14)),
            (4 * u**4 - 66 * u**3 + 383 * u**2 - 924 * u + 784, (0, 28)),
            (u**4 + 336 * u**3 - 9432 * u**2 + 60480 * u + 32400, (0, 180)),
        ]
        for q, (u0, t0) in quartics:
            E, fwd, inv = quartic_jacobian(q, (Fraction(u0), Fraction(t0)))
            assert fwd(Fraction(u0), Fraction(t0)) == INFINITY

    def test_roundtrip_on_curve_points(self):
        r = PolyQ.variable("r")
        q = 29 * r**4 + 62 * r**2 + 3509
        E, fwd, inv = quartic_jacobian(q, (Fraction(1), Fraction(60)))
        # generate rational points from the images of the quartic's visible
        # points and small group combinations
        P = fwd(Fraction(-1), Fraction(60))
        Pm = fwd(Fraction(1), Fraction(-60))
        count = 0
        for a in range(-3, 4):
            for b in range(-3, 4):
                R = E.add(E.mul(a, P), E.mul(b, Pm))
                if R.is_infinity:
                    continue
                try:
                    u0, t0 = inv(R)
                except ValueError:
                    continue
                assert t0 * t0 == q(u0)
                assert fwd(u0, t0) == R
                count += 1
        assert count >= 40

    def test_root_base_point_is_rejected(self):
        q = u * (u - 1) * (u - 2) * (u - 5)
        with pytest.raises(ValueError, match="root of q"):
            quartic_jacobian(q, (Fraction(1), Fraction(0)))
