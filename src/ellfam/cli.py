"""Command-line entry point wiring the whole toolkit together.

Subcommands: catalog, specialize, torsion, local, rootnumber, heights,
sections, scan, verify-all.  Exact rationals are serialized as "p/q"
strings; output is deterministic byte-for-byte for a fixed invocation and
budget.  Exit codes: 0 success, 1 verification/computation failure,
2 usage error.

Every command needs arith, polyq, curves and families, imported here.
The layers only some commands run are imported inside their handlers:
localdata (local), rootnum (rootnumber), heights (heights, verify-all) and
scan with sections (scan).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import NoReturn, Optional, Sequence

from .arith import (
    DEFAULT_BUDGET,
    FactorBudget,
    Unfactored,
    is_prime,
    rational_to_string,
)
from .curves import CurvePoint, WeierstrassCurve, torsion_label, torsion_subgroup
from .families import (
    CurveFamily,
    SingularMember,
    catalog,
    catalog_listing,
    verify_section,
)
from .polyq import NotASquare


def _parse_budget(raw: str) -> FactorBudget:
    parts = raw.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("budget must be 'trial_bound,rho_iterations'")
    try:
        return FactorBudget(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"budget {raw!r}: {exc}") from None


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _parse_prime(raw: str) -> int:
    p = int(raw)
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"{raw} is not a prime")
    return p


def _parse_radius(raw: str) -> int:
    r = int(raw)
    if r < 0:
        raise argparse.ArgumentTypeError("radius must be nonnegative")
    return r


def _parse_rational(raw: str) -> Fraction:
    try:
        return Fraction(raw.strip())
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{raw!r} is not a rational 'p/q'") from None


def _parse_curve(raw: str) -> WeierstrassCurve:
    parts = [_parse_rational(p) for p in raw.split(",")]
    if len(parts) != 5:
        raise argparse.ArgumentTypeError("curve must be 'a1,a2,a3,a4,a6'")
    try:
        return WeierstrassCurve(*parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"curve {raw!r}: {exc}") from None


def _parse_points(raw: str) -> list[CurvePoint]:
    pts = []
    for chunk in raw.split(";"):
        if not chunk.strip():
            continue
        xy = chunk.split(",")
        if len(xy) != 2:
            raise argparse.ArgumentTypeError(f"point {chunk.strip()!r} must be 'x,y'")
        pts.append(CurvePoint(*(_parse_rational(c) for c in xy)))
    return pts


def _usage_error(message: str) -> NoReturn:
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _family(label: str) -> CurveFamily:
    """The catalog entry for label; an unknown label is a usage error.  The
    label is looked up before the entry is derived, so an error raised in
    the derivation propagates as itself."""
    cat = catalog()
    if label not in cat:
        _usage_error(f"unknown catalog label: {label}")
    return cat[label]


def _resolve_curve(args):
    """(curve, section points, torsion points) from --curve or LABEL --u;
    both at once is a usage error."""
    if args.curve is not None:
        if args.label is not None or args.u is not None:
            _usage_error("--curve cannot be combined with a catalog label or --u")
        return args.curve, (), ()
    if not args.label:
        _usage_error("a catalog label or --curve is required")
    fam = _family(args.label)
    if args.u is None:
        _usage_error("a parameter value --u is required with a catalog label")
    sp = fam.specialize(args.u, args.budget)
    return sp.curve(), sp.points, sp.torsion_points


def _point_json(P: CurvePoint):
    if P.is_infinity:
        return None
    return [rational_to_string(Fraction(P.x)), rational_to_string(Fraction(P.y))]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_catalog(args) -> int:
    if args.label is None:
        # read off the table: the listing derives no family
        payload = [
            {
                "label": label,
                "torsion": torsion_label(torsion),
                "rank": rank,
                "parent": parent,
            }
            for label, torsion, rank, parent in catalog_listing()
        ]
        _emit(payload)
        return 0
    fam = _family(args.label)
    payload = {
        "label": fam.label,
        "torsion": torsion_label(fam.torsion),
        "rank": fam.rank,
        "parent": fam.parent,
        "A": str(fam.A),
        "B": str(fam.B),
        "sections_x": [str(P.x) for P in fam.sections],
        "torsion_points": [[str(P.x), str(P.y)] for P in fam.torsion_points],
        "condition": None if fam.condition is None else str(fam.condition),
        "spec_hint": None
        if fam.spec_hint is None
        else rational_to_string(fam.spec_hint),
    }
    _emit(payload)
    return 0


def _cmd_specialize(args) -> int:
    sp = _family(args.label).specialize(args.u, args.budget)
    payload = {
        "label": sp.label,
        "u": rational_to_string(sp.value),
        "A": str(sp.A),
        "B": str(sp.B),
        "model": "y^2 = x^3 + A*x^2 + B*x",
        "points": [_point_json(P) for P in sp.points],
        "torsion_points": [_point_json(P) for P in sp.torsion_points],
    }
    _emit(payload)
    return 0


def _cmd_torsion(args) -> int:
    E, _pts, tors = _resolve_curve(args)
    tg = torsion_subgroup(E, hints=tors)
    payload = {
        "structure": list(tg.structure),
        "order": tg.order,
        "label": tg.label(),
        "generators": [_point_json(P) for P in tg.generators],
    }
    _emit(payload)
    return 0


def _cmd_local(args) -> int:
    from .localdata import bad_places, tate_local

    E, _pts, _tors = _resolve_curve(args)
    if args.prime is not None:
        # tate_local makes the model minimal at that one prime first
        places = [tate_local(E.integral_model()[0], args.prime)]
        complete = True
    else:
        places, fi = bad_places(E, args.budget)
        complete = fi.complete
    data = [
        {
            "p": ld.p,
            "kodaira": ld.kodaira,
            "reduction": ld.reduction,
            "f_p": ld.f_p,
            "c_p": ld.c_p,
            "vp_disc_min": ld.vp_disc_min,
        }
        for ld in places
    ]
    _emit({"complete": complete, "places": data})
    return 0


def _cmd_rootnumber(args) -> int:
    from .rootnum import MissingLocalCase, global_root_number

    E, _pts, _tors = _resolve_curve(args)
    try:
        rn = global_root_number(E, args.budget)
    except MissingLocalCase as exc:
        print(f"root number not determined: {exc}", file=sys.stderr)
        return 1
    payload = {
        "value": rn.value,
        "complete": rn.complete,
        "local": {str(p): w for p, w in sorted(rn.local_breakdown.items())},
    }
    _emit(payload)
    return 0


def _cmd_heights(args) -> int:
    from .heights import pairing_matrix

    E, sect, _tors = _resolve_curve(args)
    pts = args.points or list(sect)
    if not pts:
        print("no points given and the curve carries no stored sections",
              file=sys.stderr)
        return 2
    off = next((P for P in pts if not E.contains(P)), None)
    if off is not None:
        print(f"point {off} is not on the curve", file=sys.stderr)
        return 2
    M = pairing_matrix(E, pts, args.budget)
    payload = {
        "heights": [f"{M.entries[i][i]:.12f}" for i in range(len(pts))],
        "pairing": [[f"{e:.12f}" for e in row] for row in M.entries],
        "determinant": f"{M.gram_determinant():.12e}",
        "certificate": M.certificate(),
    }
    _emit(payload)
    return 0


def _cmd_sections(args) -> int:
    fam = _family(args.label)
    results = []
    ok = True
    for P in fam.sections:
        try:
            verify_section(fam, P.x)
            results.append({"x": str(P.x), "verified": True})
        except NotASquare as exc:
            ok = False
            results.append({"x": str(P.x), "verified": False, "error": str(exc)})
    payload = {
        "label": fam.label,
        "points_on_curve": fam.verify(),
        "sections": results,
    }
    _emit(payload)
    return 0 if ok and payload["points_on_curve"] else 1


def _cmd_scan(args) -> int:
    # scan imports sections, rootnum and localdata; only this command needs
    # all three
    from .scan import builtin_scans, lattice_scan, symmetry_audit

    specs = builtin_scans(radius=args.radius, budget=args.budget)
    if args.name not in specs:
        print(f"unknown scan: {args.name}; known: {sorted(specs)}", file=sys.stderr)
        return 2
    spec = specs[args.name]
    # --out is opened before the scan runs, so a path that cannot be
    # written is a usage error, not a traceback after the whole scan
    try:
        fh = open(args.out, "w") if args.out else sys.stdout
    except OSError as exc:
        _usage_error(f"cannot write --out {args.out}: {exc.strerror}")
    try:
        grid = lattice_scan(spec)
        rep = symmetry_audit(grid, spec.symmetry, spec=spec)
        fh.write(grid.to_json() if args.format == "json" else grid.to_csv())
    finally:
        if fh is not sys.stdout:
            fh.close()
    summary = {
        "counts": grid.counts_by_name(),
        "isomorphism_failures": len(rep.isomorphism_failures),
        "symmetry_violations": len(rep.violations),
    }
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return 0


def _cmd_verify_all(args) -> int:
    from .heights import pairing_matrix

    failures = 0
    for label, fam in catalog().items():
        problems = []
        if not fam.verify():
            problems.append("stored points miss the family curve")
        if fam.rank == 2 and fam.spec_hint is not None:
            try:
                sp = fam.specialize(fam.spec_hint, args.budget)
                E = sp.curve()
                tg = torsion_subgroup(E, hints=sp.torsion_points)
                if tg.structure != fam.torsion:
                    problems.append(
                        f"torsion {tg.structure} != expected {fam.torsion}"
                    )
                cert = pairing_matrix(E, list(sp.points), args.budget).certificate()
                if cert != "independent":
                    problems.append(f"independence certificate: {cert}")
            except (SingularMember, Unfactored) as exc:
                problems.append(str(exc))
        status = "ok" if not problems else "FAIL: " + "; ".join(problems)
        print(f"{label}: {status}")
        if problems:
            failures += 1
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_curve_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("label", nargs="?", help="catalog label (with --u)")
    p.add_argument("--u", type=_parse_rational,
                   help="parameter value for the catalog label, as p/q")
    p.add_argument("--curve", type=_parse_curve,
                   help="explicit model 'a1,a2,a3,a4,a6' (rationals as p/q)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellfam",
        description="Exact tools for elliptic-curve families with torsion "
        "Z/8 and Z/2 x Z/6 over Q(u).",
    )
    parser.add_argument(
        "--budget",
        type=_parse_budget,
        default=DEFAULT_BUDGET,
        help="factoring budget 'trial_bound,rho_iterations' (default built-in)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list catalog entries or show one")
    p.add_argument("label", nargs="?")
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("specialize", help="specialize a family at u")
    p.add_argument("label")
    p.add_argument("--u", type=_parse_rational, required=True)
    p.set_defaults(fn=_cmd_specialize)

    p = sub.add_parser("torsion", help="certified rational torsion subgroup")
    _add_curve_source(p)
    p.set_defaults(fn=_cmd_torsion)

    p = sub.add_parser("local", help="reduction data at bad primes")
    _add_curve_source(p)
    p.add_argument("--prime", type=_parse_prime, help="one prime (default: every bad prime)")
    p.set_defaults(fn=_cmd_local)

    p = sub.add_parser("rootnumber", help="global root number with local factors")
    _add_curve_source(p)
    p.set_defaults(fn=_cmd_rootnumber)

    p = sub.add_parser("heights", help="canonical heights and independence")
    _add_curve_source(p)
    p.add_argument("--points", type=_parse_points, help="semicolon-separated 'x,y' pairs")
    p.set_defaults(fn=_cmd_heights)

    p = sub.add_parser("sections", help="verify the stored sections of a family")
    p.add_argument("label")
    p.set_defaults(fn=_cmd_sections)

    p = sub.add_parser("scan", help="run a lattice scan")
    p.add_argument("--name", required=True, help="built-in scan name")
    p.add_argument("--radius", type=_parse_radius, default=2)
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("verify-all", help="run the full catalog verification suite")
    p.set_defaults(fn=_cmd_verify_all)

    # no option starts with a digit, so "-3/4" or "-1,0,0,0,1" is a value
    # (argparse itself only takes "-3" and "-0.5" for numbers)
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"^-\d")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Unfactored as exc:
        print(f"factorization budget exhausted: {exc}", file=sys.stderr)
        return 1
    except SingularMember as exc:
        print(f"no curve at this parameter: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
