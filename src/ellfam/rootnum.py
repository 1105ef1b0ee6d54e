"""Local and global root numbers of elliptic curves over Q.

Local factors: +1 at good and nonsplit multiplicative primes, -1 at split
multiplicative primes.  For additive reduction the curve is either
potentially multiplicative — then the local root number is the Hilbert
symbol (-c6*c4, -1)_p — or potentially good: for p >= 5 a Kronecker symbol
driven by v_p(disc_min), and for p in {2, 3} a frozen finite case table
(see _rootnum_tables).  All three rules were validated exhaustively against
a numeric functional-equation oracle.

At p >= 5 no Kodaira type is needed (Rohrlich, Compositio Math. 87, 1993;
Cremona, Algorithms for Modular Elliptic Curves, 3.2): on a minimal model
the reduction is multiplicative exactly when p does not divide c4, and then
split exactly when -c6 is a square mod p, since c4 = b2^2 and c6 = -b2^3
mod p once the node is at (0, 0); otherwise v_p(c4) and v_p(disc_min)
decide.  So _root_number_above_3 reads the minimal model's integer c4 and
c6 and the exponent of p in its discriminant's factorization, and
global_root_number runs Tate's algorithm only at 2 and 3.

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


def _twisted_tate_sign(c4: int, c6: int, p: int, e: int) -> Optional[int]:
    """The local root number at p of a curve with potentially
    multiplicative reduction there (c4 != 0 and 3 v_p(c4) < e, e the
    exponent of p in disc_min), None when the reduction is potentially good.

    Such a curve is a quadratic twist of a Tate curve; the sign is chi(-1)
    for the twisting character, uniformly a Hilbert symbol.
    """
    if c4 != 0 and 3 * valuation(c4, p) < e:
        return hilbert_symbol(-c6 * c4, -1, p)
    return None


def _root_number_above_3(c4: int, c6: int, p: int, e: int) -> int:
    """Local root number at a bad prime p >= 5 of a minimal integral model
    with invariants c4 and c6, e = v_p(disc_min) > 0."""
    if c4 % p:
        # multiplicative: split exactly when -c6 = b2^3 mod p is a square
        return -jacobi(-c6, p)
    w = _twisted_tate_sign(c4, c6, p, e)
    return jacobi(RESIDUE_CLASS[e] % p, p) if w is None else w


def _table_key(E: WeierstrassCurve, ld: LocalData) -> tuple:
    p, vd = ld.p, ld.vp_disc_min
    m4, m6, md = TABLE_MODULI[p]
    _b2, _b4, _b6, _b8, c4, c6, disc = E.bc_invariants()
    v4 = valuation(c4, p) if c4 else 99
    v6 = valuation(c6, p) if c6 else 99
    c4u = (c4 // p**v4) % m4 if c4 else 0
    c6u = (c6 // p**v6) % m6 if c6 else 0
    du = (disc // p**vd) % md
    return (ld.kodaira, min(v4, 12), min(v6, 12), vd, c4u, c6u, du)


def local_root_number(E: WeierstrassCurve, ld: LocalData) -> int:
    """Local root number at ld.p for a minimal integral model E, with
    ld = tate_local(E, ld.p).

    At p >= 5 only ld.vp_disc_min is read, by _root_number_above_3; at 2
    and 3 the reduction type, then the Hilbert symbol or the tables.
    """
    if ld.reduction == "good":
        return 1
    p = ld.p
    _b2, _b4, _b6, _b8, c4, c6, _disc = E.bc_invariants()
    if p >= 5:
        return _root_number_above_3(c4, c6, p, ld.vp_disc_min)
    if ld.reduction == "nonsplit-multiplicative":
        return 1
    if ld.reduction == "split-multiplicative":
        return -1
    w = _twisted_tate_sign(c4, c6, p, ld.vp_disc_min)
    if w is not None:
        return w
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

    Tate's algorithm runs at 2 and 3 only; a factor at p >= 5 is read off
    the minimal model's c4 and c6 and the exponent of p in disc_min.
    ``parts`` goes to discriminant_factorization.  When the minimal
    discriminant cannot be fully factored, the value covers the known bad
    primes only and complete=False records that the sign is not certified —
    never a silent wrong sign.
    """
    Emin, fi = discriminant_factorization(E, budget, parts=parts)
    _b2, _b4, _b6, _b8, c4, c6, _disc = Emin.bc_invariants()
    breakdown: dict[int, int] = {}
    for p, e in fi.factors:
        if p >= 5:
            breakdown[p] = _root_number_above_3(c4, c6, p, e)
        else:
            breakdown[p] = local_root_number(Emin, tate_local(Emin, p))
    return RootNumber(local_breakdown=breakdown, complete=fi.complete)
