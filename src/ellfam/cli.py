"""Command-line entry point wiring the whole toolkit together.

Subcommands: catalog, specialize, torsion, local, rootnumber, heights,
sections, scan, verify-all.  Exact rationals are serialized as "p/q"
strings; output is deterministic byte-for-byte for a fixed invocation and
configuration.  Exit codes: 0 success, 1 verification/computation failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .arith import (
    DEFAULT_BUDGET,
    FactorBudget,
    Unfactored,
    is_prime,
    rational_from_string,
    rational_to_string,
)
from .curves import CurvePoint, INFINITY, WeierstrassCurve, torsion_subgroup
from .families import SingularMember, catalog, verify_section
from .heights import (
    DEFAULT_EPS,
    INDEPENDENCE_THRESHOLD,
    canonical_height,
    independence_certificate,
    pairing_matrix,
)
from .localdata import discriminant_factorization, tate_local
from .polyq import NotASquare
from .rootnum import MissingLocalCase, global_root_number
from .scan import builtin_scans, lattice_scan, symmetry_audit

BUDGET_ENV = "ELLFAM_BUDGET"


@dataclass(frozen=True)
class Config:
    """Shared settings honored by every subcommand."""

    budget: FactorBudget = DEFAULT_BUDGET
    height_eps: float = DEFAULT_EPS
    independence_threshold: float = INDEPENDENCE_THRESHOLD
    output: str = "json"

    def __post_init__(self):
        if self.height_eps <= 0 or self.independence_threshold <= 0:
            raise ValueError("numeric settings must be positive")


def _default_budget() -> FactorBudget:
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return DEFAULT_BUDGET
    return _parse_budget(raw)


def _parse_budget(raw: str) -> FactorBudget:
    parts = raw.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("budget must be 'trial_bound,rho_iterations'")
    try:
        return FactorBudget(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"budget {raw!r}: {exc}") from None


def _config(args) -> Config:
    return Config(
        budget=args.budget if args.budget is not None else _default_budget(),
        height_eps=args.eps,
        independence_threshold=args.threshold,
        output=args.format,
    )


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _parse_prime(raw: str) -> int:
    p = int(raw)
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"{raw} is not a prime")
    return p


def _parse_curve(raw: str) -> WeierstrassCurve:
    parts = [rational_from_string(p.strip()) for p in raw.split(",")]
    if len(parts) != 5:
        raise argparse.ArgumentTypeError("curve must be 'a1,a2,a3,a4,a6'")
    return WeierstrassCurve(*parts)


def _parse_points(raw: str) -> list[CurvePoint]:
    pts = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        x, y = (rational_from_string(c.strip()) for c in chunk.split(","))
        pts.append(CurvePoint(x, y))
    return pts


def _resolve_curve(args, cfg: Config):
    """(curve, section points, torsion points) from --curve or LABEL --u."""
    if getattr(args, "curve", None):
        return _parse_curve(args.curve), (), ()
    label = getattr(args, "label", None)
    if not label:
        raise SystemExit(2)
    fam = catalog().get(label)
    if fam is None:
        print(f"unknown catalog label: {label}", file=sys.stderr)
        raise SystemExit(2)
    if getattr(args, "u", None) is None:
        print("a parameter value --u is required with a catalog label", file=sys.stderr)
        raise SystemExit(2)
    sp = fam.specialize(rational_from_string(args.u), cfg.budget)
    return sp.curve(), sp.points, sp.torsion_points


def _point_json(P: CurvePoint):
    if P.is_infinity:
        return None
    return [rational_to_string(Fraction(P.x)), rational_to_string(Fraction(P.y))]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_catalog(args, cfg: Config) -> int:
    cat = catalog()
    if args.label is None:
        payload = [
            {
                "label": fam.label,
                "torsion": fam.torsion_label(),
                "rank": fam.rank,
                "parent": fam.parent,
            }
            for fam in cat.values()
        ]
        _emit(payload)
        return 0
    fam = cat.get(args.label)
    if fam is None:
        print(f"unknown catalog label: {args.label}", file=sys.stderr)
        return 2
    payload = {
        "label": fam.label,
        "torsion": fam.torsion_label(),
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


def _cmd_specialize(args, cfg: Config) -> int:
    fam = catalog().get(args.label)
    if fam is None:
        print(f"unknown catalog label: {args.label}", file=sys.stderr)
        return 2
    sp = fam.specialize(rational_from_string(args.u), cfg.budget)
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


def _cmd_torsion(args, cfg: Config) -> int:
    E, _pts, tors = _resolve_curve(args, cfg)
    tg = torsion_subgroup(E, hints=tors)
    payload = {
        "structure": list(tg.structure),
        "order": tg.order,
        "label": tg.label(),
        "generators": [_point_json(P) for P in tg.generators],
    }
    _emit(payload)
    return 0


def _cmd_local(args, cfg: Config) -> int:
    E, _pts, _tors = _resolve_curve(args, cfg)
    if args.prime is not None:
        # Tate's algorithm minimizes at the prime it runs at
        places = [tate_local(E.integral_model()[0], args.prime)]
        complete = True
    else:
        Emin, fi = discriminant_factorization(E, cfg.budget)
        places = [tate_local(Emin, p) for p in fi.primes()]
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


def _cmd_rootnumber(args, cfg: Config) -> int:
    E, _pts, _tors = _resolve_curve(args, cfg)
    try:
        rn = global_root_number(E, cfg.budget)
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


def _cmd_heights(args, cfg: Config) -> int:
    E, sect, _tors = _resolve_curve(args, cfg)
    pts = _parse_points(args.points) if args.points else list(sect)
    if not pts:
        print("no points given and the curve carries no stored sections",
              file=sys.stderr)
        return 2
    M = pairing_matrix(E, pts, cfg.height_eps, cfg.budget)
    payload = {
        "heights": [f"{M.entries[i][i]:.12f}" for i in range(len(pts))],
        "pairing": [[f"{e:.12f}" for e in row] for row in M.entries],
        "determinant": f"{M.gram_determinant():.12e}",
        "certificate": M.certificate(cfg.independence_threshold),
    }
    _emit(payload)
    return 0


def _cmd_sections(args, cfg: Config) -> int:
    fam = catalog().get(args.label)
    if fam is None:
        print(f"unknown catalog label: {args.label}", file=sys.stderr)
        return 2
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


def _cmd_scan(args, cfg: Config) -> int:
    specs = builtin_scans(radius=args.radius, budget=cfg.budget)
    if args.name not in specs:
        print(f"unknown scan: {args.name}; known: {sorted(specs)}", file=sys.stderr)
        return 2
    spec = specs[args.name]
    grid = lattice_scan(spec)
    rep = symmetry_audit(grid, spec.symmetry)
    out = grid.to_json() if cfg.output == "json" else grid.to_csv()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    plus, minus, incomplete, skipped = grid.counts
    summary = {
        "counts": {
            "plus": plus,
            "minus": minus,
            "incomplete": incomplete,
            "skipped": skipped,
        },
        "symmetry_violations": len(rep.violations),
    }
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return 0


def _cmd_verify_all(args, cfg: Config) -> int:
    failures = 0
    for label, fam in catalog().items():
        problems = []
        if not fam.verify():
            problems.append("stored points miss the family curve")
        if fam.rank == 2 and fam.spec_hint is not None:
            try:
                sp = fam.specialize(fam.spec_hint, cfg.budget)
                E = sp.curve()
                tg = torsion_subgroup(E, hints=sp.torsion_points)
                if tg.structure != fam.torsion:
                    problems.append(
                        f"torsion {tg.structure} != expected {fam.torsion}"
                    )
                cert = independence_certificate(
                    E,
                    list(sp.points),
                    cfg.height_eps,
                    cfg.independence_threshold,
                    cfg.budget,
                )
                if cert != "independent":
                    problems.append(f"independence certificate: {cert}")
            except (ValueError, Unfactored) as exc:
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
    p.add_argument("--u", help="parameter value for the catalog label, as p/q")
    p.add_argument("--curve", help="explicit model 'a1,a2,a3,a4,a6' (rationals as p/q)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellfam",
        description="Exact tools for elliptic-curve families with torsion "
        "Z/8 and Z/2 x Z/6 over Q(u).",
    )
    parser.add_argument(
        "--budget",
        type=_parse_budget,
        default=None,
        help=f"factoring budget 'trial_bound,rho_iterations' "
        f"(default from ${BUDGET_ENV} or built-in)",
    )
    parser.add_argument("--eps", type=float, default=DEFAULT_EPS,
                        help="height precision")
    parser.add_argument("--threshold", type=float, default=INDEPENDENCE_THRESHOLD,
                        help="independence determinant threshold")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (scan supports csv)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list catalog entries or show one")
    p.add_argument("label", nargs="?")
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("specialize", help="specialize a family at u")
    p.add_argument("label")
    p.add_argument("--u", required=True)
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
    p.add_argument("--points", help="semicolon-separated 'x,y' pairs")
    p.set_defaults(fn=_cmd_heights)

    p = sub.add_parser("sections", help="verify the stored sections of a family")
    p.add_argument("label")
    p.set_defaults(fn=_cmd_sections)

    p = sub.add_parser("scan", help="run a lattice scan")
    p.add_argument("--name", required=True, help="built-in scan name")
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("verify-all", help="run the full catalog verification suite")
    p.set_defaults(fn=_cmd_verify_all)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config(args)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        parser.error(str(exc))
    try:
        return args.fn(args, cfg)
    except SystemExit as exc:
        raise
    except Unfactored as exc:
        print(f"factorization budget exhausted: {exc}", file=sys.stderr)
        return 1
    except SingularMember as exc:
        print(f"no curve at this parameter: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
