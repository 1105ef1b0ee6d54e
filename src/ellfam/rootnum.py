"""Local and global root numbers of elliptic curves over Q.

Local factors: +1 at good and nonsplit multiplicative primes, -1 at split
multiplicative primes.  For additive reduction the curve is either
potentially multiplicative — then the local root number is the Hilbert
symbol (-c6*c4, -1)_p — or potentially good: for p >= 5 a Kronecker symbol
driven by v_p(disc_min), and for p in {2, 3} a frozen finite case table
(see _rootnum_tables).  All three rules were validated exhaustively against
a numeric functional-equation oracle.

A table key (_table_key) is the Kodaira type, the valuations of c4, c6 and
disc, and their unit parts modulo TABLE_MODULI[p], which a unit change of
model leaves fixed: at p = 2 that is (8, 8, 16).  The 2-adic table was first
keyed by c6 mod 16; where keys differing by 8 in c6 were both present they
agreed, and merging them lets a key that only one of them had answer both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .arith import (
    DEFAULT_BUDGET,
    FactorBudget,
    hilbert_symbol,
    jacobi,
    valuation,
)
from .curves import WeierstrassCurve
from .localdata import LocalData, discriminant_factorization, tate_local
from ._rootnum_tables import RESIDUE_CLASS, TABLE_MODULI, TABLE_P2, TABLE_P3


class MissingLocalCase(Exception):
    """An additive configuration at p in {2, 3} outside the frozen tables."""


@dataclass(frozen=True)
class RootNumber:
    """Sign of the functional equation with its local decomposition.

    complete is False when an unfactored discriminant residue could hide
    further bad primes, making value a best-effort guess rather than a
    certified sign.
    """

    local_breakdown: Mapping[int, int]
    complete: bool

    @property
    def value(self) -> int:
        """The archimedean factor -1 times every finite local factor."""
        return -math.prod(self.local_breakdown.values())


def _potentially_multiplicative(E: WeierstrassCurve, ld: LocalData) -> bool:
    c4 = int(E.c4)
    return c4 != 0 and 3 * valuation(c4, ld.p) < ld.vp_disc_min


def _table_key(E: WeierstrassCurve, ld: LocalData) -> tuple:
    p, vd = ld.p, ld.vp_disc_min
    m4, m6, md = TABLE_MODULI[p]
    c4, c6 = int(E.c4), int(E.c6)
    v4 = valuation(c4, p) if c4 else 99
    v6 = valuation(c6, p) if c6 else 99
    c4u = (c4 // p**v4) % m4 if c4 else 0
    c6u = (c6 // p**v6) % m6 if c6 else 0
    du = (int(E.disc) // p**vd) % md
    return (ld.kodaira, min(v4, 12), min(v6, 12), vd, c4u, c6u, du)


def local_root_number(E: WeierstrassCurve, ld: LocalData) -> int:
    """Local root number at ld.p for a minimal integral model E, with
    ld = tate_local(E, ld.p)."""
    if ld.reduction == "good":
        return 1
    if ld.reduction == "nonsplit-multiplicative":
        return 1
    if ld.reduction == "split-multiplicative":
        return -1
    p = ld.p
    if _potentially_multiplicative(E, ld):
        # quadratic twist of a Tate curve; the sign is chi(-1) for the
        # twisting character, uniformly a Hilbert symbol
        return hilbert_symbol(-int(E.c6) * int(E.c4), -1, p)
    if p >= 5:
        return jacobi(RESIDUE_CLASS[ld.vp_disc_min] % p, p)
    table = TABLE_P2 if p == 2 else TABLE_P3
    key = _table_key(E, ld)
    try:
        return table[key]
    except KeyError:
        raise MissingLocalCase(f"p={p} key={key}") from None


def global_root_number(
    E: WeierstrassCurve,
    budget: FactorBudget = DEFAULT_BUDGET,
    *,
    parts: Optional[Sequence[int]] = None,
) -> RootNumber:
    """Product of the archimedean factor (-1) and all finite local factors.

    ``parts`` goes to discriminant_factorization.  When the minimal
    discriminant cannot be fully factored, the value covers the known bad
    primes only and complete=False records that the sign is not certified —
    never a silent wrong sign.
    """
    Emin, fi = discriminant_factorization(E, budget, parts=parts)
    breakdown: dict[int, int] = {}
    for p, _e in fi.factors:
        ld = tate_local(Emin, p)
        if ld.reduction != "good":
            breakdown[p] = local_root_number(Emin, ld)
    return RootNumber(local_breakdown=breakdown, complete=fi.complete)
