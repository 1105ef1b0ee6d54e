"""Exact arithmetic for elliptic-curve families over Q(u) with torsion
Z/8Z and Z/2Z x Z/6Z: a certified catalog of rank-1 and rank-2 families,
quadratic-section machinery, local reduction data, root numbers, canonical
heights, and lattice scans over rank-2 parametrizing curves.

The scan names are served on first use: importing ``ellfam.scan`` and
``ellfam.sections`` costs 20-30 ms, and no query but a scan needs them.
"""

from .arith import DEFAULT_BUDGET, FactorBudget, Unfactored
from .curves import CurvePoint, INFINITY, WeierstrassCurve, torsion_subgroup
from .families import CurveFamily, catalog
from .heights import canonical_height, independence_certificate, regulator
from .localdata import conductor, minimal_model, tate_local
from .rootnum import global_root_number

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_BUDGET",
    "FactorBudget",
    "Unfactored",
    "CurvePoint",
    "INFINITY",
    "WeierstrassCurve",
    "torsion_subgroup",
    "CurveFamily",
    "catalog",
    "canonical_height",
    "independence_certificate",
    "regulator",
    "conductor",
    "minimal_model",
    "tate_local",
    "global_root_number",
    "builtin_scans",
    "lattice_scan",
    "symmetry_audit",
    "__version__",
]


_SCAN_NAMES = ("builtin_scans", "lattice_scan", "symmetry_audit")


def __getattr__(name: str):
    if name in _SCAN_NAMES:
        from . import scan

        return getattr(scan, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
