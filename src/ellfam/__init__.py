"""Exact arithmetic for elliptic-curve families over Q(u) with torsion
Z/8Z and Z/2Z x Z/6Z: a certified catalog of rank-1 and rank-2 families,
quadratic-section machinery, local reduction data, root numbers, canonical
heights, and lattice scans over rank-2 parametrizing curves.

Importing the package loads arith, polyq, curves and families, the layers
that every CLI command needs.  The names of heights, localdata, rootnum
and scan are served on first use, from _LAZY: a `catalog` or `specialize`
query never reads them, and without cached bytecode each module an
interpreter imports is compiled afresh.
"""

from importlib import import_module

from .arith import DEFAULT_BUDGET, FactorBudget, Unfactored
from .curves import CurvePoint, INFINITY, WeierstrassCurve, torsion_subgroup
from .families import CurveFamily, catalog

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
    "pairing_matrix",
    "conductor",
    "minimal_model",
    "tate_local",
    "global_root_number",
    "builtin_scans",
    "lattice_scan",
    "symmetry_audit",
    "__version__",
]


# name -> the module that defines it, imported when the name is first read
_LAZY = {
    "canonical_height": "heights",
    "pairing_matrix": "heights",
    "conductor": "localdata",
    "minimal_model": "localdata",
    "tate_local": "localdata",
    "global_root_number": "rootnum",
    "builtin_scans": "scan",
    "lattice_scan": "scan",
    "symmetry_audit": "scan",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
