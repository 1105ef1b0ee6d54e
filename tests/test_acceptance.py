"""Release acceptance suite: one top-level test per acceptance criterion.

Each test exercises a full slice of the library end to end; `pytest -v`
prints one pass/fail line per criterion.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ellfam.arith import FactorBudget, factor, is_prime, jacobi, square_test
from ellfam.curves import (
    CurvePoint,
    INFINITY,
    WeierstrassCurve,
    isomorphic_over_Q,
    torsion_subgroup,
)
from ellfam.families import catalog, model_z8, model_z2x6, ratfunc_sqrt, verify_section
from ellfam.heights import canonical_height, pairing_matrix
from ellfam.polyq import (
    PolyQ,
    RatFunc,
    poly_sqrt,
    ratfunc_substitute,
    square_decompose_poly,
)
from ellfam.rootnum import global_root_number
from ellfam.scan import (
    CURVE_C,
    CURVE_D1,
    DegenerateFiber,
    builtin_scans,
    lattice_scan,
    symmetry_audit,
)
from ellfam.sections import QuarticModel, quartic_jacobian

DATA = Path(__file__).parent / "data"
SCAN_BUDGET = FactorBudget(10**5, 2 * 10**5)

u = PolyQ.variable("u")
v = PolyQ.variable("v")
w = PolyQ.variable("w")
r = PolyQ.variable("r")

F = Fraction


def pt(x, y):
    return CurvePoint(Fraction(x), Fraction(y))


# the three rank-2 parametrizing curves of the lattice scans
E_SCAN1 = WeierstrassCurve(1, 1, 1, -1595, -4768)
E_SCAN2 = WeierstrassCurve(0, 0, 0, -105987, 11743634)
E_SCAN3 = WeierstrassCurve(0, -1, 0, -456, 3456)
SCAN_GENERATORS = [
    (E_SCAN1, pt(F(-57, 4), F(1043, 8)), pt(42, -89)),
    (E_SCAN2, pt(-77, -4410), pt(805, 21168)),
    (E_SCAN3, pt(20, -44), pt(F(4, 9), F(-1540, 27))),
]


@pytest.fixture(scope="module")
def cat():
    return catalog()


def test_criterion_01_catalog_identity_suite(cat):
    # shape: 18 + 7 rank-2 with torsion Z/8, 4 + 5 with torsion Z/2 x Z/6
    assert sum(1 for f in cat.values() if f.torsion == (8,) and f.rank == 1) == 18
    assert sum(1 for f in cat.values() if f.torsion == (8,) and f.rank == 2) == 7
    assert sum(1 for f in cat.values() if f.torsion == (2, 6) and f.rank == 1) == 4
    assert sum(1 for f in cat.values() if f.torsion == (2, 6) and f.rank == 2) == 5
    # every stored point lies on its family curve, and every recorded section
    # X-coordinate independently regenerates a rational point
    for fam in cat.values():
        assert fam.verify(), fam.label
        E = fam.curve()
        for P in fam.sections:
            Q = verify_section(fam, P.x)
            assert E.contains(Q), fam.label
    # frozen catalog coefficients, pinned term by term
    import test_families

    printed = test_families.TestCatalogPrintedModels()
    printed.test_z8_rank1_models()
    printed.test_z8_rank1_section_x()
    printed.test_z8_rank2_models()
    printed.test_z2x6_rank1_models()
    printed.test_z2x6_rank1_section_x()
    printed.test_z2x6_rank2_models()


def test_criterion_02_base_models_and_j_symmetries():
    f8 = model_z8()
    assert f8.A == 1 - 8 * v + 16 * v**2 - 16 * v**3 + 8 * v**4
    assert f8.B == 16 * (v - 1) ** 4 * v**4
    f26 = model_z2x6()
    assert f26.A == 37 - 84 * v + 102 * v**2 - 36 * v**3 - 3 * v**4
    assert f26.B == 32 * (v - 1) ** 3 * (v + 1) ** 3 * (3 * v - 5)
    vv = RatFunc.variable("v")
    j8 = f8.curve().j
    assert ratfunc_substitute(j8, 1 - vv) == j8
    j26 = f26.curve().j
    for sub in [
        2 - vv,
        (vv - 7) / (3 * vv - 5),
        (vv + 5) / (3 * vv - 1),
        (5 * vv - 7) / (3 * vv - 1),
        (5 * vv - 3) / (3 * vv - 5),
    ]:
        assert ratfunc_substitute(j26, sub) == j26


def test_criterion_03_worked_square_condition_example(cat):
    # x = 4v^4 on the Z/8 base model: the cubic value splits off the square
    # (4v^4(2v-1))^2, leaving the quadratic condition 4v^2 - 4v + 5
    fam = model_z8()
    x = RatFunc(4 * v**4)
    f = (x**3 + RatFunc(fam.A) * x * x + RatFunc(fam.B) * x).as_poly()
    s, q = square_decompose_poly(f)
    assert s == 4 * v**4 * (2 * v - 1)
    assert q == 4 * v * v - 4 * v + 5
    # the catalog derives exactly this condition for Z8-1, whose recorded
    # substitution (5 - w^2)/(4(w + 1)) makes it a square
    ww = RatFunc.variable("w")
    v1 = (5 - ww * ww) / (4 * (ww + 1))
    assert cat["Z8-1"].condition == q and cat["Z8-1"].substitution == v1
    val = ratfunc_substitute(RatFunc(q), v1)
    rt = ratfunc_sqrt(val)
    assert rt * rt == val
    from test_sections import conic_line_sweep, section_conic

    # t^2 = 4v^2 - 4vz + 5z^2 as a conic in (v, t, z): the lines through its
    # point p = (1, 4, 2) meet it again where v = X/Z makes the condition a square
    X, T, Z = conic_line_sweep(section_conic, (1, 4, 2))
    assert section_conic((X, T, Z), (X, T, Z)).is_zero()
    _s2, core = square_decompose_poly(4 * X * X - 4 * X * Z + 5 * Z * Z)
    assert core == 1
    # both parametrize the same conic: the recorded substitution's point
    # (v1(w0), rt(w0), 1) is the sweep's at the rational slope k0 of the
    # line through p and it; at w0 = 1 it is p, at the tangent slope 0
    for w0 in [F(0), F(1), F(3), F(-2), F(5, 7)]:
        v0, t0 = v1(w0), rt(w0)
        k0 = 0 if (2 * v0, t0) == (1, 2) else (2 * t0 - 4) / (2 * v0 - 1)
        assert X(k0) / Z(k0) == v0, w0


def test_criterion_04_torsion_certification(cat):
    expected_hints = {
        "Z8R2-1": 22, "Z8R2-2": 19, "Z8R2-3": 11, "Z8R2-4": 17,
        "Z8R2-5": 3, "Z8R2-6": -48, "Z8R2-7": 10,
        "Z2x6R2-1": 15, "Z2x6R2-2": 17, "Z2x6R2-3": 22,
        "Z2x6R2-4": 19, "Z2x6R2-5": 20,
    }
    for label, u0 in expected_hints.items():
        fam = cat[label]
        assert fam.spec_hint == u0
        sp = fam.specialize(u0)
        tg = torsion_subgroup(sp.curve(), hints=sp.torsion_points)
        assert tg.structure == fam.torsion, label


def test_criterion_05_independence_certificates(cat):
    # the two section points of every rank-2 family, specialized at the
    # recorded parameter value, are independent modulo torsion
    for fam in cat.values():
        if fam.rank != 2:
            continue
        sp = fam.specialize(fam.spec_hint)
        E = sp.curve()
        pts = list(sp.points)
        assert len(pts) == 2
        cert = pairing_matrix(E, pts).certificate()
        assert cert == "independent", fam.label
    # same for the generator pairs on the three parametrizing curves
    for E, G1, G2 in SCAN_GENERATORS:
        assert pairing_matrix(E, [G1, G2]).certificate() == "independent"


def test_criterion_06_quartic_to_cubic_models():
    cases = [
        (29 * r**4 + 62 * r**2 + 3509, (1, 60),
         [WeierstrassCurve(0, -463, 0, 45936, 0), E_SCAN1]),
        (15 * u**4 + 1770 * u**2 + 1815, (1, 60),
         [WeierstrassCurve(0, 1770, 0, -108900, -192753000)]),
        (3 * (2523 - 870 * u + 151 * u**2 - 30 * u**3 + 3 * u**4), (0, 87),
         [WeierstrassCurve(0, 453, 0, -37584, -817452), E_SCAN2]),
        (u**4 + 336 * u**3 - 9432 * u**2 + 60480 * u + 32400, (0, 180),
         [E_SCAN3]),
        (4 * u**4 - 54 * u**3 + 293 * u**2 - 756 * u + 784, (0, 28), []),
        (u**4 - 30 * u**3 + 197 * u**2 - 420 * u + 196, (0, 14), []),
        (4 * u**4 - 66 * u**3 + 383 * u**2 - 924 * u + 784, (0, 28), []),
    ]
    for q, (u0, t0), expected_models in cases:
        Q = QuarticModel(q, (F(u0), F(t0)))
        E, fwd, _inv = quartic_jacobian(Q)
        assert fwd(F(u0), F(t0)) == INFINITY
        for model in expected_models:
            assert isomorphic_over_Q(E, model) is not None, str(q)


def test_criterion_07_root_numbers(cat):
    # exhaustive agreement with the frozen functional-equation oracle
    oracle = json.loads((DATA / "rootnum_oracle.json").read_text())
    assert len(oracle) >= 200
    kinds = set()
    for row in oracle:
        E = WeierstrassCurve(*[Fraction(a) for a in row["a"]])
        rn = global_root_number(E)
        assert rn.complete and rn.value == row["W"], row["a"]
        for p, _kod, red, _vd in row["bad"]:
            kinds.add((p, red))
    assert (2, "additive") in kinds and (3, "additive") in kinds
    # radius-2 sub-grid of each lattice scan: every budget-complete cell
    # carries the frozen sign, and the grid symmetry shows no violations;
    # the pair counts are absolute, so a wrong symmetry pair shows too
    scan_oracle = json.loads((DATA / "scan_oracle.json").read_text())
    pair_counts = {"Z8-scan-1": (7, 7), "Z8-scan-2": (8, 7), "Z2x6-scan-1": (7, 7)}
    specs = builtin_scans(radius=2, budget=SCAN_BUDGET)
    for name, spec in specs.items():
        frozen = scan_oracle[name]
        assert frozen["budget"] == [SCAN_BUDGET.trial_bound, SCAN_BUDGET.rho_iterations]
        grid = lattice_scan(spec)
        by_cell = {(c["n"], c["m"]): c for c in frozen["cells"]}
        compared = 0
        for cell in grid.cells:
            ref = by_cell[(cell.n, cell.m)]
            assert cell.skipped == ref["skipped"], (name, cell.n, cell.m)
            if cell.complete and ref["complete"]:
                assert cell.root == ref["root"], (name, cell.n, cell.m)
                compared += 1
        assert compared >= 10, name
        report = symmetry_audit(grid, spec.symmetry, spec=spec)
        assert report.violations == (), name
        assert report.isomorphism_failures == (), name
        assert (report.isomorphic_pairs, len(grid.proven_pairs)) == pair_counts[name]


def test_criterion_08_involutions():
    from test_scan import CURVE_D2, involutions, on_curve

    # the recorded image of the base point, exactly on-curve
    tau1, tau2 = involutions(CURVE_C, (F(-1), F(0)))
    assert tau1 == (F(-1), F(6))
    assert on_curve(CURVE_C, tau1) and on_curve(CURVE_C, tau2)
    # both involutions square to the identity on >= 100 sampled points
    rng = random.Random(8)
    specs = builtin_scans(radius=2, budget=FactorBudget(10**4, 10**4))
    pools = {"C": set(), "D1": set(), "D2": set()}
    sources = [("C", specs["Z8-scan-1"]), ("D1", specs["Z2x6-scan-1"])]
    for _ in range(120):
        n, m = rng.randint(-5, 5), rng.randint(-5, 5)
        for key, spec in sources:
            try:
                pools[key].add(spec.mapping.coordinates(spec.lattice_point(n, m)))
            except DegenerateFiber:
                continue
    # the second biquadratic of the third scan has a rational fiber over the
    # same r-values as the first (shared square-reduced discriminant)
    for r0, _s0 in list(pools["D1"]):
        a, b, c = (p(r0) for p in CURVE_D2.quadratic_polys("s"))
        if a == 0:
            continue
        root = square_test(b * b - 4 * a * c)
        if root is not None:
            for sgn in (1, -1):
                pools["D2"].add((r0, (-b + sgn * root) / (2 * a)))
    checked = 0
    for key, curve in (("C", CURVE_C), ("D1", CURVE_D1), ("D2", CURVE_D2)):
        assert len(pools[key]) >= 20, key
        for point in pools[key]:
            assert on_curve(curve, point)
            try:
                t1, t2 = involutions(curve, point)
            except DegenerateFiber:
                continue
            assert involutions(curve, t1)[0] == point
            assert involutions(curve, t2)[1] == point
            checked += 1
    assert checked >= 100


def test_criterion_09_property_suites():
    rng = random.Random(9)
    # group-law associativity: 500 random triples over random small curves
    for _ in range(500):
        a1, a2, a3 = (rng.randint(-2, 2) for _ in range(3))
        x1, y1 = F(rng.randint(-5, 5)), F(rng.randint(-5, 5))
        x2, y2 = F(rng.randint(-5, 5)), F(rng.randint(-5, 5))
        if x1 == x2:
            continue
        # solve a4, a6 so both points lie on the curve
        rhs1 = y1 * y1 + a1 * x1 * y1 + a3 * y1 - x1**3 - a2 * x1 * x1
        rhs2 = y2 * y2 + a1 * x2 * y2 + a3 * y2 - x2**3 - a2 * x2 * x2
        a4 = (rhs1 - rhs2) / (x1 - x2)
        a6 = rhs1 - a4 * x1
        E = WeierstrassCurve(a1, a2, a3, a4, a6, check=False)
        if E.disc == 0:
            continue
        P, Q = CurvePoint(x1, y1), CurvePoint(x2, y2)
        R = E.add(E.mul(rng.randint(-2, 2), P), E.mul(rng.randint(-2, 2), Q))
        assert E.add(E.add(P, Q), R) == E.add(P, E.add(Q, R))
    # height parallelogram law on random combinations
    E389 = WeierstrassCurve(0, 1, 1, -2, 0)
    G1, G2 = pt(-1, 1), pt(0, -1)
    for _ in range(5):
        P = E389.add(E389.mul(rng.randint(-2, 2), G1), E389.mul(rng.randint(-2, 2), G2))
        Q = E389.add(E389.mul(rng.randint(-2, 2), G1), E389.mul(rng.randint(-2, 2), G2))
        hs = canonical_height(E389, E389.add(P, Q))
        hd = canonical_height(E389, E389.sub(P, Q))
        hp = canonical_height(E389, P)
        hq = canonical_height(E389, Q)
        assert abs(hs + hd - 2 * hp - 2 * hq) < 1e-8
    # factorization reconstruction on 500 random integers
    for _ in range(500):
        n = rng.randint(2, 10**6)
        f = factor(n)
        assert f.complete and f.value() == n
        assert all(is_prime(p) for p in f.primes())
    # exact square detection on 1000 random rationals
    for _ in range(1000):
        q = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        assert square_test(q * q) == abs(q)
    # jacobi multiplicativity
    for _ in range(200):
        n = 2 * rng.randint(1, 10**4) + 1
        a, b = rng.randint(-100, 100), rng.randint(-100, 100)
        assert jacobi(a * b % n, n) == jacobi(a % n, n) * jacobi(b % n, n)
    # polynomial square roots and square decomposition round-trips
    for _ in range(100):
        coeffs = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 6))]
        p = PolyQ(coeffs, "u")
        if p.is_zero():
            continue
        sq = p * p
        rt = poly_sqrt(sq)
        assert rt * rt == sq
        s, core = square_decompose_poly(sq * (u * u + 1))
        assert s * s * core == sq * (u * u + 1)


def test_criterion_10_record_value_smoke(cat):
    # published high-rank parameter values specialize to nonsingular members
    # with the full designed torsion (rank itself is out of scope)
    cases = [
        ("Z8-12", F(-261, 70), (8,)),
        ("Z8-13", F(1327, 989), (8,)),
        ("Z2x6R2-1", F(-5, 6), (2, 6)),
        ("Z2x6R2-3", F(3, 4), (2, 6)),
    ]
    for label, u0, torsion in cases:
        sp = cat[label].specialize(u0, SCAN_BUDGET)
        E = sp.curve()
        assert E.disc != 0
        tg = torsion_subgroup(E, hints=sp.torsion_points)
        assert tg.structure == torsion, (label, u0)
    # the record curve announced to appear in two families at once does, with
    # the sign of the first parameter corrected
    E_a = cat["Z2x6R2-1"].specialize(F(5, 6), SCAN_BUDGET).curve()
    E_b = cat["Z2x6R2-3"].specialize(F(3, 4), SCAN_BUDGET).curve()
    assert isomorphic_over_Q(E_a, E_b) is not None
