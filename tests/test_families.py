"""Family construction, catalog fidelity and specialization tests."""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellfam import families
from ellfam.arith import FactorBudget, primes_below
from ellfam.curves import CurvePoint, torsion_subgroup
from ellfam.families import (
    CurveFamily,
    SingularMember,
    _cleared_cubic,
    _parametrized_conic,
    _tate_base_model,
    catalog,
    model_z8,
    model_z2x6,
    ratfunc_sqrt,
    square_part,
    substitute_parameter,
    tate_normal_curve,
    verify_section,
)
from ellfam import polyq
from ellfam.polyq import (
    NotASquare,
    PolyQ,
    RatFunc,
    _zz_gcd,
    poly_sqrt,
    ratfunc_substitute,
)
from ellfam.sections import section_condition

w = PolyQ.variable("w")
u = PolyQ.variable("u")
v = PolyQ.variable("v")


def _catalog_rows():
    """The rows of the catalog table with their polynomials built."""
    return [(label, parent, sub(), [x() for x in xs], hint)
            for label, parent, sub, xs, hint in families._catalog_table()]


def _assert_condition_becomes_square(fam):
    val = ratfunc_substitute(RatFunc(fam.condition), fam.substitution)
    ratfunc_sqrt(val)  # raises NotASquare on failure


def _z8_rank1_data():
    return [r for r in _catalog_rows() if r[1] == "Z8"]


def _z2x6_rank1_data():
    return [r for r in _catalog_rows() if r[1] == "Z2x6"]


class TestTateNormalForm:
    def test_multiples_table(self):
        # order-8 parameters b = (2d-1)(d-1), c = b/d at d = 3
        d = Fraction(3)
        b = (2 * d - 1) * (d - 1)
        c = b / d
        E = tate_normal_curve(b, c)
        P = CurvePoint(Fraction(0), Fraction(0))
        m = {n: E.mul(n, P) for n in (1, -1, 2, -2, 3, -3, 4, -4)}
        assert m[1] == P
        assert m[-1] == CurvePoint(Fraction(0), c * d)
        assert m[2] == CurvePoint(c * d, c * c * d)
        assert m[-2] == CurvePoint(c * d, Fraction(0))
        assert m[3] == CurvePoint(c, c * (d - 1))
        assert m[-3] == CurvePoint(c, c * c)
        assert m[4] == CurvePoint(d * (d - 1), d * d * (c - d + 1))
        assert m[-4] == CurvePoint(d * (d - 1), d * (d - 1) ** 2)
        for n, pt in m.items():
            assert E.contains(pt)
        assert E.point_order(P) == 8

    def test_order_six_relation(self):
        # b = c + c^2 forces order 6
        c = Fraction(5)
        E = tate_normal_curve(c + c * c, c)
        assert E.point_order(CurvePoint(Fraction(0), Fraction(0))) == 6


class TestBaseModels:
    def test_z8_model_coefficients(self):
        fam = model_z8()
        assert fam.A == 1 - 8 * v + 16 * v**2 - 16 * v**3 + 8 * v**4
        assert fam.B == 16 * (v - 1) ** 4 * v**4
        assert fam.torsion == (8,)

    def test_z8_torsion_generator(self):
        fam = model_z8()
        E = fam.curve()
        (gen,) = fam.torsion_points
        assert E.contains(gen)
        assert E.point_order(gen) == 8

    def test_z8_j_symmetry(self):
        fam = model_z8()
        j = fam.curve().j
        vv = RatFunc.variable("v")
        assert ratfunc_substitute(j, 1 - vv) == j

    def test_z2x6_model_coefficients(self):
        fam = model_z2x6()
        assert fam.A == 37 - 84 * v + 102 * v**2 - 36 * v**3 - 3 * v**4
        assert fam.B == 32 * (v - 1) ** 3 * (v + 1) ** 3 * (3 * v - 5)
        assert fam.torsion == (2, 6)

    def test_z2x6_generators(self):
        fam = model_z2x6()
        E = fam.curve()
        orders = sorted(E.point_order(P) for P in fam.torsion_points)
        assert orders == [2, 6]

    def test_z2x6_j_symmetries(self):
        fam = model_z2x6()
        j = fam.curve().j
        vv = RatFunc.variable("v")
        subs = [
            2 - vv,
            (vv - 7) / (3 * vv - 5),
            (vv + 5) / (3 * vv - 1),
            (5 * vv - 7) / (3 * vv - 1),
            (5 * vv - 3) / (3 * vv - 5),
        ]
        for s in subs:
            assert ratfunc_substitute(j, s) == j

    def test_base_model_rejects_a_point_that_is_not_two_torsion(self):
        vv = RatFunc.variable("v")
        b = (2 * vv - 1) * (vv - 1)
        for k in (1, 2, 3):
            with pytest.raises(ValueError, match="not a 2-torsion point"):
                _tate_base_model("Z8", (8,), b, b / vv, k, 1 / (2 * vv))


class TestSections:
    def test_square_condition_example(self):
        # el(4v^4) on the Z/8 model factors as a square times 4v^2-4v+5
        fam = model_z8()
        x = RatFunc(4 * v**4)
        f = x**3 + RatFunc(fam.A) * x * x + RatFunc(fam.B) * x
        assert f.as_poly() == 16 * v**8 * (2 * v - 1) ** 2 * (4 * v**2 - 4 * v + 5)

    def test_verify_section_accepts_true_point(self):
        fam = catalog()["Z8-1"]
        P = fam.sections[0]
        E = fam.curve()
        assert E.contains(P)

    def test_verify_section_rejects_non_point(self):
        fam = model_z8()
        with pytest.raises(NotASquare):
            verify_section(fam, RatFunc(4 * v**4))

    def test_ratfunc_sqrt(self):
        f = RatFunc(4 * v**2 - 4 * v + 1) / RatFunc(v * v)
        r = ratfunc_sqrt(f)
        assert r * r == f


# sha1 of the catalog content: labels, A, B, section and torsion points as
# strings, sorted by label
CATALOG_HASH = "dba418eaa43a6e8536632ca34afdb688a6f6f230"


def catalog_content_hash(cat) -> str:
    h = hashlib.sha1()
    for label in sorted(cat):
        fam = cat[label]
        h.update(repr((
            label,
            str(fam.A),
            str(fam.B),
            [(str(P.x), str(P.y)) for P in fam.sections],
            [(str(P.x), str(P.y)) for P in fam.torsion_points],
        )).encode())
    return h.hexdigest()


class TestCatalogPin:
    def test_content_hash(self):
        cat = catalog()
        assert catalog_content_hash(cat) == CATALOG_HASH
        assert all(fam.verify() for fam in cat.values())

    @pytest.mark.parametrize("label", ["Z8R2-1", "Z2x6R2-3", "Z8-9"])
    @pytest.mark.parametrize(
        "move", [lambda P: CurvePoint(P.x + 1, P.y), lambda P: CurvePoint(P.x, 2 * P.y)]
    )
    def test_verify_rejects_moved_points(self, label, move):
        fam = catalog()[label]
        for i, P in enumerate(fam.sections):
            moved = fam.sections[:i] + (move(P),) + fam.sections[i + 1:]
            assert not fam._replace(sections=moved).verify()
        for i, P in enumerate(fam.torsion_points):
            if move(P) == P:  # a 2-torsion point has y = 2y = 0
                continue
            moved = fam.torsion_points[:i] + (move(P),) + fam.torsion_points[i + 1:]
            assert not fam._replace(torsion_points=moved).verify()

    def test_verify_section_rejects_moved_x(self):
        # Z8R2-1's second section has x-denominator u^2
        fam = catalog()["Z8R2-1"]
        for P in fam.sections:
            assert verify_section(fam, P.x).y in (P.y, -P.y)
            for x in (P.x + 1, 4 * P.x, P.x / 2):
                with pytest.raises(NotASquare):
                    verify_section(fam, x)


@pytest.fixture
def derived(monkeypatch):
    """A fresh catalog, and the label of each family that its reads derive:
    a base model's Tate model or a substitution, in the order made."""
    made = []

    def counted(real):
        def wrapper(*args, **kwargs):
            fam = real(*args, **kwargs)
            made.append(fam.label)
            return fam
        return wrapper

    monkeypatch.setattr(families, "_CATALOG", None)
    for name in ("_tate_base_model", "substitute_parameter"):
        monkeypatch.setattr(families, name, counted(getattr(families, name)))
    return made


def _parent_chain(label):
    """label and its ancestors, as derived: Z2x6 is substituted from Z6."""
    parents = {base: parent for base, (_t, parent) in families._BASE_MODELS.items()}
    parents.update((row[0], row[1]) for row in _catalog_rows())
    chain = []
    while label is not None:
        chain.append(label)
        label = parents.get(label)
    return chain


class TestCatalogOnFirstRead:
    @pytest.mark.parametrize("label", list(catalog()))
    def test_a_read_derives_its_parent_chain_once(self, derived, label):
        cat = catalog()
        assert len(cat) == 36 and label in cat and list(cat)[0] == "Z8"
        assert derived == []
        fam = cat[label]
        assert sorted(derived) == sorted(_parent_chain(label))
        derived.clear()
        assert cat[label] is fam and catalog()[label] is fam
        assert derived == []

    def test_listing_reads_the_table(self, derived):
        listing = families.catalog_listing()
        assert derived == []
        assert [row[0] for row in listing] == list(catalog())
        assert listing == [
            (fam.label, fam.torsion, fam.rank, fam.parent) for fam in catalog().values()
        ]
        assert len(derived) == 37  # Z6 as well

    def test_rows_build_their_polynomials_on_derivation(self, derived, monkeypatch):
        # the listing and the labels build no row's substitution or
        # abscissas; a read builds those of its chain's rows, once
        built = []
        table = families._catalog_table

        def recorded(label, build):
            return lambda: built.append(label) or build()

        def recorded_table():
            return [
                (label, parent, recorded(label, sub), [recorded(label, x) for x in xs], hint)
                for label, parent, sub, xs, hint in table()
            ]

        monkeypatch.setattr(families, "_catalog_table", recorded_table)
        families.catalog_listing()
        assert len(catalog()) == 36 and "Z8R2-1" in catalog()
        assert built == []
        catalog()["Z8R2-1"]
        assert built == ["Z8-3"] * 2 + ["Z8R2-1"] * 3
        built.clear()
        catalog()["Z8R2-1"]
        assert built == []

    def test_derivation_order_does_not_matter(self, derived, monkeypatch):
        cat = catalog()
        reverse = {label: cat[label] for label in reversed(list(cat))}
        monkeypatch.setattr(families, "_CATALOG", None)
        forward = dict(catalog().items())
        assert reverse == forward
        assert catalog_content_hash(reverse) == catalog_content_hash(forward) == CATALOG_HASH
        assert len(derived) == 2 * 37

    def test_unknown_label(self, derived):
        cat = catalog()
        assert "Z9" not in cat
        with pytest.raises(KeyError):
            cat["Z9"]
        assert derived == []


class TestReducedByConstruction:
    """Transported points and lifted sections are formed reduced, without a
    gcd (see reduced_substitute and verify_section)."""

    def test_catalog_coordinates_are_reduced(self):
        for fam in catalog().values():
            for P in fam.torsion_points + fam.sections:
                for f in (P.x, P.y):
                    assert f.den.leading() == 1, fam.label
                    if f.num.is_zero():
                        assert f.den == 1, fam.label
                    else:
                        assert _zz_gcd(f.num.ints, f.den.ints) == [1], fam.label

    def test_section_y_matches_the_normalized_square_root(self):
        for fam in catalog().values():
            for P in fam.sections:
                C = RatFunc(_cleared_cubic(fam, P.x.num, P.x.den), P.x.den**3)
                y = ratfunc_sqrt(C)
                assert (P.y.num, P.y.den) == (y.num, y.den), fam.label

    def test_unliftable_x_raises_not_a_square(self):
        fam = catalog()["Z8R2-1"]
        x = fam.sections[1].x
        assert x.den == u * u
        # a denominator that is not a square
        with pytest.raises(NotASquare):
            verify_section(fam, x / u)
        # a square denominator with C = xn(xn^2 + A xn xd + B xd^2) not a square
        moved = x + 1
        assert poly_sqrt(moved.den) == u
        with pytest.raises(NotASquare):
            verify_section(fam, moved)

    def test_substitution_takes_no_polynomial_gcd(self, monkeypatch):
        # Z8R2-1's sections are both transported from w; Z2x6R2-5 takes x1
        # in u as is and transports x2 from w
        cat = catalog()
        rows = [r for r in _catalog_rows() if r[0] in ("Z8R2-1", "Z2x6R2-5")]
        assert len(rows) == 2

        def no_gcd(*args):
            raise AssertionError("substitute_parameter took a gcd")

        monkeypatch.setattr(polyq, "_zz_gcd", no_gcd)
        for label, parent, sub, xs, hint in rows:
            new = substitute_parameter(cat[parent], sub, label, sections=xs, spec_hint=hint)
            assert new == cat[label]

    def test_cold_catalog_gcd_count(self, monkeypatch):
        # each base model is one change of coordinates, so a cold catalog
        # makes at most 103 gcds over Z[u]
        calls = []
        real = polyq._zz_gcd
        monkeypatch.setattr(polyq, "_zz_gcd", lambda *a: calls.append(1) or real(*a))
        monkeypatch.setattr(families, "_CATALOG", None)
        assert len(list(families.catalog().values())) == 36
        assert len(calls) <= 103


class TestCatalogShape:
    def test_all_entries_present(self):
        cat = catalog()
        labels = set(cat)
        assert {"Z8", "Z2x6"} <= labels
        assert all(f"Z8-{i}" in labels for i in range(1, 19))
        assert all(f"Z8R2-{i}" in labels for i in range(1, 8))
        assert all(f"Z2x6-{i}" in labels for i in range(1, 5))
        assert all(f"Z2x6R2-{i}" in labels for i in range(1, 6))
        assert len(cat) == 36

    def test_all_families_verify(self):
        for fam in catalog().values():
            assert fam.verify(), fam.label

    def test_rank1_j_invariants_distinct(self):
        cat = catalog()
        js = [cat[f"Z8-{i}"].curve().j for i in range(1, 19)]
        for i in range(len(js)):
            for k in range(i + 1, len(js)):
                assert js[i] != js[k], (i + 1, k + 1)

    def test_rank1_conditions_become_squares(self):
        # the condition of each entry below rank 2 (Z2x6 included),
        # evaluated along the substitution that produced it, is a square in
        # the new function field (that is exactly why the entry has a
        # section); rank-2 entries are checked in test_rank2_conditions
        cat = catalog()
        substituted = [fam for fam in cat.values() if fam.substitution is not None]
        assert [fam.label for fam in substituted] == ["Z2x6"] + [r[0] for r in _catalog_rows()]
        for fam in substituted:
            if fam.rank < 2:
                _assert_condition_becomes_square(fam)
        assert cat["Z2x6"].condition == 9 * v * v + 10 * v + 1

    @pytest.mark.parametrize(
        "base, rows", [("Z8", _z8_rank1_data), ("Z2x6", _z2x6_rank1_data)]
    )
    def test_rank1_conditions_are_section_square_classes(self, base, rows):
        # the conic derived from each substitution is exactly the square
        # class of x + A + B/x, for the row's section x on the base model
        fam = catalog()[base]
        for label, _parent, _sub, xs, _hint in rows():
            assert catalog()[label].condition == section_condition(fam, RatFunc(xs[-1])), label

    def test_rank2_conditions(self):
        # every rank-2 condition becomes a square along its substitution,
        # and it is the square class of x + A + B/x on the parent for the
        # row's second abscissa x, wherever x is written in the parent's
        # variable
        cat = catalog()
        rows = [r for r in _catalog_rows() if cat[r[0]].rank == 2]
        assert [r[0] for r in rows] == (
            [f"Z8R2-{i}" for i in range(1, 8)] + [f"Z2x6R2-{i}" for i in range(1, 6)]
        )
        in_parent = []
        for label, parent, _sub, xs, _hint in rows:
            _assert_condition_becomes_square(cat[label])
            x = RatFunc(xs[-1])
            if x.var == cat[parent].var:
                assert cat[label].condition == section_condition(cat[parent], x), label
                in_parent.append(label)
        assert {r[0] for r in rows} - set(in_parent) == {"Z8R2-5", "Z8R2-7"}

    def test_ratfunc_of_a_ratfunc_is_itself(self):
        # RatFunc(r) keeps r's value and variable
        x1 = next(r for r in _catalog_rows() if r[0] == "Z8R2-4")[3][0]
        for r in ((w + 1) / (w * w + 3), x1):
            assert isinstance(r, RatFunc)
            assert RatFunc(r) == r
            assert RatFunc(r).den.var == "w"

    def test_parametrized_conic_needs_a_quadratic_substitution(self):
        ww = RatFunc.variable("w")
        assert _parametrized_conic(ww * ww / (ww + 1), "v") == PolyQ([0, 4, 1], "v")
        with pytest.raises(ValueError, match="not quadratic"):
            _parametrized_conic(ww**3 / (ww + 1), "v")


class TestCatalogPrintedModels:
    """The catalog is produced by substitution recipes; these frozen
    polynomials pin the results down coefficient by coefficient."""

    def test_z8_rank1_models(self):
        cat = catalog()
        assert cat["Z8-3"].A == -31 - 148 * w**2 + 214 * w**4 - 116 * w**6 + 337 * w**8
        assert cat["Z8-3"].B == 256 * (w - 1) ** 4 * (w + 1) ** 4 * (1 + 3 * w**2) ** 4
        assert cat["Z8-12"].A == (
            614656 - 1053696 * w + 363776 * w**2 - 59136 * w**3 - 7328 * w**4
            + 2112 * w**5 + 464 * w**6 + 48 * w**7 + w**8
        )
        assert cat["Z8-12"].B == 256 * w**4 * (6 + w) ** 4 * (3 * w - 14) ** 4
        assert cat["Z8-13"].A == 2 * (431 + 3524 * w**2 - 3814 * w**4 + 3524 * w**6 + 431 * w**8)
        assert cat["Z8-13"].B == (w - 3) ** 4 * (w + 3) ** 4 * (3 * w - 1) ** 4 * (3 * w + 1) ** 4
        assert cat["Z8-17"].A == 2 * (1169 - 3956 * w**2 + 3704 * w**4 - 2216 * w**6 + 674 * w**8)
        assert cat["Z8-17"].B == (2 * w - 3) ** 4 * (2 * w + 3) ** 4 * (6 * w**2 - 1) ** 4
        assert cat["Z8-18"].A == 2 * (-3713 + 5492 * w**2 - 1462 * w**4 - 1004 * w**6 + 431 * w**8)
        assert cat["Z8-18"].B == (w**2 - 5) ** 4 * (9 * w**2 - 13) ** 4

    def test_z8_rank1_section_x(self):
        cat = catalog()
        assert cat["Z8-3"].sections[0].x == RatFunc(-256 * (w - 1) ** 3 * w**2 * (w + 1) ** 3)
        x12 = -8 * RatFunc(w**3 * (w + 6) ** 3 * (3 * w - 14) * (w**2 - 12 * w + 84) ** 2) / RatFunc(
            (3 * w**2 + 12 * w + 28) ** 2
        )
        assert cat["Z8-12"].sections[0].x == x12
        assert cat["Z8-13"].sections[0].x == RatFunc(
            (w - 3) ** 3 * w**2 * (w + 3) ** 3 * (3 * w - 1) * (3 * w + 1)
        )
        assert cat["Z8-17"].sections[0].x == RatFunc(
            w**2 * (2 * w - 3) ** 2 * (2 * w + 3) ** 2 * (7 * w**2 + 3) ** 2
        ) * Fraction(1, 4)
        x18 = RatFunc((3 * w**2 + 1) ** 2 * (9 * w**4 + 70 * w**2 - 63) ** 2) / RatFunc(
            w**2 * (w**2 + 3) ** 2
        )
        assert cat["Z8-18"].sections[0].x == x18

    def test_z8_rank2_models(self):
        cat = catalog()
        aa1 = (
            337 * u**16 - 41256 * u**14 + 4047356 * u**12 - 288332632 * u**10
            + 2363813190 * u**8 - 34888248472 * u**6 + 59257339196 * u**4
            - 73087520616 * u**2 + 72238942897
        )
        bb1 = 256 * (363 + 34 * u**2 + 3 * u**4) ** 4 * (11 + u) ** 4 * (u - 11) ** 4 \
            * (u - 1) ** 4 * (1 + u) ** 4
        assert cat["Z8R2-1"].A == aa1 and cat["Z8R2-1"].B == bb1

        aa2 = (
            500246412961 - 2069985157080 * u + 3162080774436 * u**2
            - 2895517882032 * u**3 + 1873181389706 * u**4 - 906769167048 * u**5
            + 333391978480 * u**6 - 93284915496 * u**7 + 19860033555 * u**8
            - 3216721224 * u**9 + 396423280 * u**10 - 37179432 * u**11
            + 2648426 * u**12 - 141168 * u**13 + 5316 * u**14 - 120 * u**15 + u**16
        )
        bb2 = 256 * (u - 6) ** 4 * u**4 * (6 * u - 29) ** 4 \
            * (841 - 522 * u + 137 * u**2 - 18 * u**3 + u**4) ** 4
        assert cat["Z8R2-2"].A == aa2 and cat["Z8R2-2"].B == bb2

        aa3 = (
            2562890625 - 20503125000 * u + 58638937500 * u**2 - 98524350000 * u**3
            + 112751696250 * u**4 - 92004903000 * u**5 + 54062154000 * u**6
            - 22880209320 * u**7 + 6966724707 * u**8 - 1525347288 * u**9
            + 240276240 * u**10 - 27260712 * u**11 + 2227194 * u**12
            - 129744 * u**13 + 5148 * u**14 - 120 * u**15 + u**16
        )
        bb3 = 20736 * (u - 6) ** 4 * u**4 * (2 * u - 5) ** 4 \
            * (75 - 15 * u + u**2) ** 4 * (3 - 3 * u + u**2) ** 4
        assert cat["Z8R2-3"].A == aa3 and cat["Z8R2-3"].B == bb3

        aa4 = (
            1058387660788345388204032 - 141209336315730168643584 * u
            + 7118408590330053918720 * u**2 + 46091099527055278080 * u**3
            - 20521534612217970688 * u**4 + 473831305485189120 * u**5
            + 19585996741025792 * u**6 - 545185218600960 * u**7
            - 18026420955648 * u**8 + 234415749120 * u**9 + 22250170880 * u**10
            - 242597376 * u**11 - 14269120 * u**12 + 276096 * u**13
            + 1632 * u**14 - 96 * u**15 + u**16
        )
        bb4 = 4096 * (u - 63) ** 4 * (u - 28) ** 4 * (u - 14) ** 4 * (u + 2) ** 4 \
            * (u + 28) ** 4 * (u + 42) ** 4 * (3 * u - 98) ** 4
        assert cat["Z8R2-4"].A == aa4 and cat["Z8R2-4"].B == bb4

        aa5 = (
            4 * u**16 - 768 * u**15 + 68736 * u**14 - 3816768 * u**13
            + 147831608 * u**12 - 4261407840 * u**11 + 95281085176 * u**10
            - 1698380209632 * u**9 + 24531870965502 * u**8
            - 288724635637440 * u**7 + 2753623361586400 * u**6
            - 20936296717920000 * u**5 + 123470437317680000 * u**4
            - 541926476217600000 * u**3 + 1659119942784000000 * u**2
            - 3151401008640000000 * u + 2790302976400000000
        )
        bb5 = u**4 * (3 * u - 40) ** 4 * (4 * u - 51) ** 4 \
            * (u**2 - 24 * u + 136) ** 4 * (2 * u**2 - 60 * u + 425) ** 4
        assert cat["Z8R2-5"].A == aa5 and cat["Z8R2-5"].B == bb5

        aa6 = (
            625 * u**16 - 180000 * u**15 + 17872800 * u**14 - 1010171520 * u**13
            + 37753002432 * u**12 - 973296787968 * u**11 + 17592030254592 * u**10
            - 225415897049088 * u**9 + 2063161668920832 * u**8
            - 13524953822945280 * u**7 + 63331308916531200 * u**6
            - 210232106201088000 * u**5 + 489278911518720000 * u**4
            - 785509373952000000 * u**3 + 833873356800000000 * u**2
            - 503884800000000000 * u + 104976000000000000
        )
        bb6 = 6879707136 * (u - 10) ** 4 * (u - 6) ** 4 * u**4 \
            * (u**2 - 36 * u + 300) ** 4 * (5 * u**2 - 36 * u + 60) ** 4
        assert cat["Z8R2-6"].A == aa6 and cat["Z8R2-6"].B == bb6

        aa7 = (
            -2 * u**16 + 384 * u**15 - 30128 * u**14 + 1278592 * u**13
            - 32804472 * u**12 + 545481088 * u**11 - 6133914960 * u**10
            + 47788256896 * u**9 - 261061974220 * u**8 + 1003553394816 * u**7
            - 2705056497360 * u**6 + 5051700355968 * u**5 - 6379846519032 * u**4
            + 5221898865792 * u**3 - 2583961693488 * u**2
            + 691617999744 * u - 75645718722
        )
        bb7 = (u**2 - 56 * u + 147) ** 4 * (u**2 - 8 * u + 3) ** 4 \
            * (u**4 - 32 * u**3 + 278 * u**2 - 672 * u + 441) ** 4
        assert cat["Z8R2-7"].A == aa7 and cat["Z8R2-7"].B == bb7

    def test_z2x6_rank1_models(self):
        cat = catalog()
        assert cat["Z2x6-1"].A == -4779 - 4644 * w**2 + 1134 * w**4 + 60 * w**6 + 37 * w**8
        assert cat["Z2x6-1"].B == 32 * (w - 3) ** 3 * (3 + w) ** 3 * (w**2 - 3) \
            * (3 + w**2) ** 3 * (3 + 5 * w**2)
        assert cat["Z2x6-2"].A == 121 - 2136 * w**2 - 5184 * w**4 + 273024 * w**6 - 1223424 * w**8
        assert cat["Z2x6-2"].B == 128 * (3 * w - 1) ** 3 * (3 * w + 1) ** 3 * (1 + 6 * w**2) \
            * (24 * w**2 - 1) ** 3 * (48 * w**2 - 7)
        assert cat["Z2x6-3"].A == (
            96 - 480 * w + 1584 * w**2 - 3084 * w**3 + 3001 * w**4 - 1440 * w**5
            + 306 * w**6 - 12 * w**7 - 3 * w**8
        )
        assert cat["Z2x6-3"].B == 16 * (w - 3) * (w - 2) ** 3 * (1 + w) ** 3 \
            * (2 * w - 3) * (3 * w - 2) * (1 - 3 * w + w**2) ** 3
        assert cat["Z2x6-4"].A == 4048 - 22512 * w**2 + 49248 * w**4 - 50652 * w**6 + 20493 * w**8
        assert cat["Z2x6-4"].B == 432 * (w - 1) ** 3 * (1 + w) ** 3 * (3 * w - 2) ** 3 \
            * (2 + 3 * w) ** 3 * (12 * w**2 - 7) * (21 * w**2 - 16)

    def test_z2x6_rank1_section_x(self):
        cat = catalog()
        assert cat["Z2x6-1"].sections[0].x == RatFunc(
            -32 * (w - 3) ** 2 * w**2 * (3 + w) ** 2 * (w**2 - 3)
        )
        x2 = RatFunc(
            128 * (3 * w - 1) ** 2 * (3 * w + 1) ** 2 * (6 * w**2 + 1) * (24 * w**2 - 1) ** 3
        ) / RatFunc((36 * w**2 + 1) ** 2)
        assert cat["Z2x6-2"].sections[0].x == x2
        x3 = RatFunc(
            4 * (w - 2) ** 2 * (w + 1) ** 2 * (w**4 - 8 * w**3 + 24 * w**2 - 29 * w + 13) ** 2
        ) / RatFunc((2 * w - 3) ** 2)
        assert cat["Z2x6-3"].sections[0].x == x3
        assert cat["Z2x6-4"].sections[0].x == RatFunc(
            -64 * (w - 1) * (1 + w) * (3 * w - 2) * (2 + 3 * w) * (2 + 3 * w**2) ** 2
        )

    def test_z2x6_rank2_models(self):
        cat = catalog()
        aa1 = (
            1475789056 - 6324810240 * u + 12303261824 * u**2 - 14934296832 * u**3
            + 12836014912 * u**4 - 8279778528 * u**5 + 4113507272 * u**6
            - 1590783936 * u**7 + 480725533 * u**8 - 113627424 * u**9
            + 20987282 * u**10 - 3017412 * u**11 + 334132 * u**12
            - 27768 * u**13 + 1634 * u**14 - 60 * u**15 + u**16
        )
        bb1 = -27 * (u - 4) ** 3 * u**3 * (2 * u - 7) ** 3 \
            * (196 - 336 * u + 152 * u**2 - 24 * u**3 + u**4) \
            * (196 - 168 * u + 62 * u**2 - 12 * u**3 + u**4) ** 3 \
            * (392 - 420 * u + 169 * u**2 - 30 * u**3 + 2 * u**4)
        assert cat["Z2x6R2-1"].A == aa1 and cat["Z2x6R2-1"].B == bb1

        aa2 = (
            -3359232 + 2239488 * u + 6905088 * u**2 - 11695104 * u**3
            + 6925824 * u**4 - 2494368 * u**5 + 3007512 * u**6 - 3509088 * u**7
            + 2015437 * u**8 - 584848 * u**9 + 83542 * u**10 - 11548 * u**11
            + 5344 * u**12 - 1504 * u**13 + 148 * u**14 + 8 * u**15 - 2 * u**16
        )
        bb2 = (u - 3) ** 3 * (u - 2) ** 3 * (1 + u) ** 3 * (6 + u) ** 3 \
            * (36 - 60 * u + 43 * u**2 - 10 * u**3 + u**4) \
            * (36 - 24 * u + 10 * u**2 - 4 * u**3 + u**4) ** 3 \
            * (36 + 48 * u - 56 * u**2 + 8 * u**3 + u**4)
        assert cat["Z2x6R2-2"].A == aa2 and cat["Z2x6R2-2"].B == bb2

        # sixteenth, fifteenth, fourteenth and constant coefficients of the
        # third entry (the printed middle coefficients are unreliable; the
        # recipe is authoritative)
        f3 = cat["Z2x6R2-3"]
        assert f3.A.coeffs[16] == 1
        assert f3.A.coeffs[15] == -96
        assert f3.A.coeffs[14] == -26496
        assert f3.A.coeffs[0] == 1101996057600000000
        bb3 = 5971968 * (u - 15) ** 3 * (u - 12) ** 3 * u**3 \
            * (32400 - 17280 * u + 2232 * u**2 - 96 * u**3 + u**4) ** 3 \
            * (32400 - 4320 * u + 288 * u**2 - 24 * u**3 + u**4) \
            * (32400 + 34560 * u - 5544 * u**2 + 192 * u**3 + u**4)
        assert f3.B == bb3

        aa4 = (
            -314928 - 7978176 * u - 47134224 * u**2 - 141974208 * u**3
            - 263196864 * u**4 - 321113808 * u**5 - 259493652 * u**6
            - 128609568 * u**7 - 23353995 * u**8 + 16908960 * u**9
            + 16006092 * u**10 + 6735888 * u**11 + 1706128 * u**12
            + 271104 * u**13 + 27360 * u**14 + 1920 * u**15 + 96 * u**16
        )
        bb4 = 16 * (u - 6) ** 3 * u * (u + 2) ** 3 * (3 * u + 4) * (u**2 - 3) \
            * (u**2 + 3 * u + 1) ** 3 * (u**2 + 9 * u + 9) ** 3 \
            * (2 * u**2 + 4 * u + 3) ** 3 * (2 * u**2 + 12 * u + 21) \
            * (3 * u**2 + 8 * u + 9)
        assert cat["Z2x6R2-4"].A == aa4 and cat["Z2x6R2-4"].B == bb4

        aa5 = (
            -675347 - 8801576 * u**2 + 443877484 * u**4 - 944081432 * u**6
            + 22507829710 * u**8 - 944081432 * u**10 + 443877484 * u**12
            - 8801576 * u**14 - 675347 * u**16
        )
        bb5 = 6912 * (u - 3) ** 3 * (3 + u) ** 3 * (3 * u - 1) ** 3 * (1 + 3 * u) ** 3 \
            * (11 + u**2) ** 3 * (1 - 5 * u + u**2) * (1 + 5 * u + u**2) \
            * (1 + 11 * u**2) ** 3 * (17 + 734 * u**2 + 17 * u**4)
        assert cat["Z2x6R2-5"].A == aa5 and cat["Z2x6R2-5"].B == bb5


class TestSpecialization:
    def test_z8_base_at_2(self):
        s = model_z8().specialize(2)
        assert (s.A, s.B) == (49, 256)
        E = s.curve()
        assert E.point_order(s.torsion_points[0]) == 8

    def test_z2x6_base_at_0(self):
        s = model_z2x6().specialize(0)
        assert (s.A, s.B) == (37, 160)

    def test_points_survive_specialization(self):
        fam = catalog()["Z8-2"]
        s = fam.specialize(Fraction(3, 5))
        E = s.curve()
        for P in s.points + s.torsion_points:
            assert E.contains(P)

    def test_square_part(self):
        # square reduction: (4^2 A, 4^4 B) comes back down
        assert square_part(49 * 16, 256 * 256) == 4
        # c is bounded by v_2(a) // 2 and by v_2(b) // 4
        assert square_part(49 * 16, 2**8) == 4
        assert square_part(49 * 16, 2**7) == 2
        assert square_part(-3 * 5**6, -(5**4)) == 5
        assert square_part(49, 256) == 1

    @given(
        st.integers(-(10**6), 10**6).filter(bool),
        st.integers(-(10**6), 10**6).filter(bool),
        st.integers(min_value=1, max_value=5 * 7 * 997),
    )
    @settings(max_examples=80, deadline=None)
    def test_square_part_square_reduced(self, a, b, k):
        # square content k^2, k^4 must come back out
        a, b = a * k * k, b * k**4
        c = square_part(a, b)
        assert c % k == 0 and a % (c * c) == 0 and b % c**4 == 0
        A, B = a // (c * c), b // c**4
        for p in primes_below(1000):
            assert A % (p * p) != 0 or B % p**4 != 0

    @given(
        st.integers(0, 35),
        st.fractions(-(10**4), 10**4, max_denominator=10**3),
    )
    @settings(max_examples=80, deadline=None)
    def test_specialize_square_reduced(self, index, u):
        fam = list(catalog().values())[index]
        try:
            s = fam.specialize(u)
        except SingularMember:
            return
        assert (s.A, s.B) == (s.scale**2 * fam.A(u), s.scale**4 * fam.B(u))
        for p in primes_below(1000):
            assert s.A % (p * p) != 0 or s.B % p**4 != 0

    def test_rejects_non_integral_coefficients(self):
        # specialize reads A and B off their integer coefficients, so a
        # denominator would silently give another curve
        t = PolyQ.variable("t")
        with pytest.raises(ValueError, match="integer coefficients"):
            CurveFamily("t", (1,), A=t + Fraction(1, 2), B=t * t + 3)
        with pytest.raises(ValueError, match="integer coefficients"):
            CurveFamily("t", (1,), A=t + 1, B=t * t * Fraction(1, 3))

    def test_catalog_is_integral(self):
        # specialize reads A and B off their integer coefficients
        assert len(catalog()) == 36
        for fam in catalog().values():
            assert fam.A.den == fam.B.den == 1

    def test_factors_only_the_gcd(self, monkeypatch):
        fam = catalog()["Z8R2-1"]
        u = Fraction(3, 1009 * 1013)
        calls = []
        real = families.factor
        monkeypatch.setattr(families, "factor", lambda n, *a: calls.append(n) or real(n, *a))
        s = fam.specialize(u)
        q, e = u.denominator, families._clearing_exponent(fam)
        a, b = q ** (2 * e) * fam.A(u), q ** (4 * e) * fam.B(u)
        assert calls == [math.gcd(int(a), int(b))]
        assert s.scale == Fraction(q**e, square_part(int(a), int(b)))

    def test_scale(self):
        fam = catalog()["Z8R2-2"]
        value = Fraction(7, 3)
        s = fam.specialize(value)
        assert (s.A, s.B) == (s.scale**2 * fam.A(value), s.scale**4 * fam.B(value))

    def test_section_pole_is_the_point_at_infinity(self):
        # the second section of Z8R2-1 has x = (...)/u^2, and the fiber at
        # u = 0 is smooth: there the section meets the zero section
        s = catalog()["Z8R2-1"].specialize(0)
        assert s.points[1].is_infinity
        assert s.curve().contains(s.points[0])

    def test_singular_member(self):
        fam = catalog()["Z2x6R2-3"]
        assert fam.B(15) == 0
        with pytest.raises(SingularMember):
            fam.specialize(15)
        assert issubclass(SingularMember, ValueError)

    @pytest.mark.parametrize("label", ["Z8R2-1", "Z8R2-2", "Z2x6R2-3", "Z8-4"])
    @given(value=st.fractions(-50, 50, max_denominator=60))
    @settings(max_examples=15, deadline=None)
    def test_discriminant_parts_cover_the_discriminant(self, label, value):
        fam = catalog()[label]
        try:
            s = fam.specialize(value)
        except SingularMember:
            return
        disc = abs(int(s.curve().disc))
        for part in fam.discriminant_parts(s):
            g = abs(part)
            while g > 1 and math.gcd(disc, g) > 1:
                disc //= math.gcd(disc, g)
        assert disc == 1

    def test_discriminant_factors_cached(self):
        fam = catalog()["Z2x6R2-3"]
        assert fam.discriminant_factors is fam.discriminant_factors
        contents, factors = fam.discriminant_factors
        product = contents[0]
        for g, e in fam.B.factor()[1]:
            assert g in factors
            product *= g**e
        assert product == fam.B

    def test_discriminant_factors_computed_once_per_family(self, monkeypatch):
        # a copy is a new family object, which factors once on first read;
        # the original keeps its own
        fam = catalog()["Z2x6R2-3"]
        cached = fam.discriminant_factors
        calls = []
        real = PolyQ.factor
        monkeypatch.setattr(PolyQ, "factor", lambda f, *a: calls.append(f) or real(f, *a))
        copy = fam._replace(label="copy")
        assert copy.discriminant_factors == cached
        assert copy.discriminant_factors is copy.discriminant_factors
        assert len(calls) == 2 and fam.discriminant_factors is cached and len(calls) == 2

    @pytest.mark.parametrize("label", ["Z8R2-1", "Z2x6R2-3"])
    def test_unfactored_denominator_is_cleared(self, label):
        # 1009 * 1013 is above the trial bound 10 and rho is off, but u is
        # cleared by q^s with no factoring, so A and B stay exact
        fam = catalog()[label]
        u = Fraction(3, 1009 * 1013)
        s = fam.specialize(u, FactorBudget(10, 0))
        assert (s.A, s.B) == (s.scale**2 * fam.A(u), s.scale**4 * fam.B(u))
        E = s.curve()
        for P in s.points + s.torsion_points:
            assert E.contains(P)

    @pytest.mark.parametrize("label", ["Z8R2-1", "Z2x6R2-3"])
    def test_budget_only_limits_the_square_strip(self, label):
        # u's denominator 1009 * 1013 is not split at this budget, and the
        # member is the one of the default budget, field by field
        fam = catalog()[label]
        u = Fraction(3, 1009 * 1013)
        assert fam.specialize(u, FactorBudget(10, 0)) == fam.specialize(u)

    @pytest.mark.parametrize("label", ["Z8R2-1", "Z8R2-5", "Z2x6R2-1", "Z2x6R2-5"])
    def test_rank2_specialization_torsion(self, label):
        fam = catalog()[label]
        s = fam.specialize(fam.spec_hint)
        E = s.curve()
        for P in s.points + s.torsion_points:
            assert E.contains(P)
        T = torsion_subgroup(E, hints=s.torsion_points)
        assert T.structure == ((8,) if label.startswith("Z8") else (2, 6))


class TestRecords:
    def test_copy_checks_integer_coefficients(self):
        fam = catalog()["Z8-1"]
        with pytest.raises(ValueError, match="integer coefficients"):
            fam._replace(A=fam.A + Fraction(1, 2))
        copy = fam._replace(label=fam.label)
        assert copy == fam and hash(copy) == hash(fam) and copy is not fam

    @pytest.mark.parametrize("name", ["label", "discriminant_factors", "points", "other"])
    def test_setting_an_attribute_raises(self, name):
        fam = catalog()["Z8R2-1"]
        member = fam.specialize(22)
        assert fam.discriminant_factors and member.points  # both cached
        for record in (fam, member):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        assert member.points == fam.specialize(22).points


class TestSubstituteParameter:
    def test_rejects_non_clearing(self):
        # substituting into a family and then demanding a bogus section fails
        fam = model_z8()
        ww = RatFunc.variable("w")
        with pytest.raises(NotASquare):
            substitute_parameter(
                fam, (5 - ww * ww) / (4 * (ww + 1)), label="t",
                sections=[RatFunc(PolyQ.variable("w"))],
            )

    def test_sections_in_either_variable(self):
        # Z2x6R2-5 stores x1 in u and x2 in the parent's w; x2 written as
        # the transported function of u gives the same family
        label, parent, sub, xs, hint = next(r for r in _catalog_rows() if r[0] == "Z2x6R2-5")
        fam = catalog()[label]
        assert [x.var for x in xs] == ["u", "w"]
        assert fam.sections[0].x == RatFunc(xs[0])
        in_u = [xs[0], fam.sections[1].x]
        assert substitute_parameter(
            catalog()[parent], sub, label, sections=in_u, spec_hint=hint
        ) == fam

    def test_sections_need_a_renamed_parameter(self):
        fam = model_z8()
        vv = RatFunc.variable("v")
        sub = (5 - vv * vv) / (4 * (vv + 1))
        assert substitute_parameter(fam, sub, label="t").var == "v"
        with pytest.raises(ValueError, match="renamed"):
            substitute_parameter(fam, sub, label="t", sections=[4 * v**4])

    def test_torsion_transported(self):
        fam = model_z8()
        ww = RatFunc.variable("w")
        sub = (5 - ww * ww) / (4 * (ww + 1))
        new = substitute_parameter(fam, sub, label="t")
        E = new.curve()
        assert E.point_order(new.torsion_points[0]) == 8

    def test_off_curve_torsion_rejected_before_sections_are_lifted(self):
        # the transported torsion points are proven first, so a parent with
        # an off-curve torsion point fails with ValueError even when the
        # section asked for would not lift either
        fam = model_z8()
        (P,) = fam.torsion_points
        bad = fam._replace(torsion_points=(CurvePoint(P.x + 1, P.y),))
        ww = RatFunc.variable("w")
        with pytest.raises(ValueError, match="transported points left the curve"):
            substitute_parameter(
                bad, (5 - ww * ww) / (4 * (ww + 1)), label="t",
                sections=[RatFunc(PolyQ.variable("w"))],
            )

    def test_each_section_proven_once(self, monkeypatch):
        # verify() proves the torsion points only; verify_section's square
        # root is the one proof of each section
        parent = catalog()["Z8-3"]
        calls = []
        real = families._cleared_cubic

        def counted(family, xn, xd):
            calls.append(family.label)
            return real(family, xn, xd)

        monkeypatch.setattr(families, "_cleared_cubic", counted)
        _label, _parent, sub, xs, _hint = next(r for r in _catalog_rows() if r[0] == "Z8-3")
        new = substitute_parameter(model_z8(), sub, label="t", sections=xs)
        assert new == parent._replace(label="t")
        # one torsion point and one section
        assert len(calls) == 2

    def test_cold_catalog_proves_each_point_once(self, monkeypatch):
        # model_z2x6 proves nothing after substitute_parameter: its
        # generator was proven there, and T2 is on the curve by poly_sqrt
        calls = []
        real = families._cleared_cubic
        monkeypatch.setattr(
            families, "_cleared_cubic", lambda f, xn, xd: calls.append(f.label) or real(f, xn, xd)
        )
        monkeypatch.setattr(families, "_CATALOG", None)
        assert len(list(families.catalog().values())) == 36
        assert calls.count("Z2x6") == 1
        assert len(calls) == 90
