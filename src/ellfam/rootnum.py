"""Local and global root numbers of elliptic curves over Q.

One rule for each class of bad place p of a minimal model, read off its
integer c4 and c6 and e = v_p(disc_min) by _local_sign (Rohrlich,
Compositio Math. 87, 1993; Cremona, Algorithms for Modular Elliptic Curves,
3.2):
- multiplicative (p does not divide c4): -1 exactly when the reduction is
  split, that is when -c6 is a square in Q_p (localdata._is_split);
- potentially multiplicative (c4 != 0 and 3 v_p(c4) < e): the Hilbert
  symbol (-c6*c4, -1)_p, as such a curve is a quadratic twist of a Tate
  curve;
- potentially good: at p >= 5 a Kronecker symbol driven by e, and at 2 and
  3 a frozen finite case table (see _rootnum_tables), keyed by the Kodaira
  symbol among others.
The tests check all three rules against the frozen root numbers of
tests/data/rootnum_oracle.json and the twist rule W(E^d) = chi_d(-N) W(E).
global_root_number runs Tate's algorithm only where a table key needs the
Kodaira symbol, at potentially good places at 2 and 3.

global_root_number works on ints from the integral model to the local
signs (localdata._minimal_ints, localdata._tate_ints, _local_sign) and
builds no WeierstrassCurve or Fraction; it hands _minimal_ints the
integral model's invariants, which the curve's constructor computed.  The
Legendre symbols at odd primes are arith.legendre_is_square, a table
lookup below 2^9.  local_root_number wraps _local_sign for a
WeierstrassCurve and its LocalData; no command calls it, and it is kept
only because perfbench/tracer.py binds it (ROADMAP item 16).

A table key is the Kodaira type, the valuations of c4, c6 and disc, and
their unit parts modulo TABLE_MODULI[p], which a unit change of model
leaves fixed: at p = 2 that is (8, 8, 16).  The 2-adic table was first
keyed by c6 mod 16; where keys differing by 8 in c6 were both present they
agreed, and merging them lets a key that only one of them had answer both.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Optional, Sequence

from .arith import DEFAULT_BUDGET, FactorBudget, hilbert_symbol, legendre_is_square, valuation
from .curves import WeierstrassCurve
from .localdata import LocalData, _integral_ints, _is_split, _minimal_ints, _tate_ints
from ._rootnum_tables import RESIDUE_CLASS, TABLE_MODULI, TABLE_P2, TABLE_P3


class MissingLocalCase(Exception):
    """An additive configuration at p in {2, 3} outside the frozen tables."""


class RootNumber(NamedTuple):
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


def _local_sign(invs: tuple, p: int, e: int, a: tuple) -> int:
    """Local root number at p of the minimal model with a-invariants a and
    invariants invs = (b2, ..., disc), e = v_p(disc_min).  v_p(c4) is taken
    once, at an additive place; a is read only for a table key at 2 and 3,
    whose Kodaira symbol Tate's algorithm finds on it.
    """
    if e == 0:
        return 1
    c4, c6 = invs[4], invs[5]
    if c4 % p:
        return -1 if _is_split(c6, p) else 1
    v4 = valuation(c4, p) if c4 else 99
    if c4 and 3 * v4 < e:
        # potentially multiplicative: v_p(j) < 0
        return hilbert_symbol(-c6 * c4, -1, p)
    if p >= 5:
        return 1 if legendre_is_square(RESIDUE_CLASS[e], p) else -1
    m4, m6, md = TABLE_MODULI[p]
    v6 = valuation(c6, p) if c6 else 99
    if p == 2:
        # x >> k is x // 2^k for negative x too, and 0 >> 99 is 0
        c4u, c6u, du = (c4 >> v4) % m4, (c6 >> v6) % m6, (invs[6] >> e) % md
    else:
        c4u = (c4 // 3**v4) % m4 if c4 else 0
        c6u = (c6 // 3**v6) % m6 if c6 else 0
        du = (invs[6] // 3**e) % md
    kodaira = _tate_ints(a, p, e, invs).kodaira
    key = (kodaira, min(v4, 12), min(v6, 12), e, c4u, c6u, du)
    try:
        return (TABLE_P2 if p == 2 else TABLE_P3)[key]
    except KeyError:
        raise MissingLocalCase(f"p={p} key={key}") from None


def local_root_number(E: WeierstrassCurve, ld: LocalData) -> int:
    """Local root number at ld.p for an integral model E minimal at ld.p,
    with ld = tate_local(E, ld.p)."""
    return _local_sign(E.bc_invariants(), ld.p, ld.vp_disc_min, E._ints)


def global_root_number(
    E: WeierstrassCurve,
    budget: FactorBudget = DEFAULT_BUDGET,
    *,
    parts: Optional[Sequence[int]] = None,
) -> RootNumber:
    """Product of the archimedean factor (-1) and all finite local factors.

    Tate's algorithm runs only at potentially good places at 2 and 3, for
    the Kodaira symbol of a table key.  ``parts`` is as in
    localdata._minimal_ints.  When the minimal discriminant cannot be
    fully factored, the value covers the known bad primes only and
    complete=False records that the sign is not certified — never a silent
    wrong sign.
    """
    a, invs, fi = _minimal_ints(*_integral_ints(E), budget, parts)
    breakdown = {}
    for p, e in fi.factors:
        breakdown[p] = _local_sign(invs, p, e, a)
    return RootNumber(breakdown, fi.complete)
