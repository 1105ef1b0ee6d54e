"""Expected answers and the arithmetic the benchmark checks them with.

Everything pinned here was computed at the commit that introduced the
benchmark; the oracles under tests/data are read as they are.
"""

from __future__ import annotations

import hashlib
import math

# sha1 of the catalog content (labels, A, B, section and torsion points as
# strings), see catalog_hash.
CATALOG_HASH = "dba418eaa43a6e8536632ca34afdb688a6f6f230"

# Rank-2 members the cold CLI session asks about: label -> (spec_hint, W).
# Z8R2-5 is left out: at its spec_hint u = 3 the root number hits the
# missing p = 2 table key ('I3*', 4, 6, 11, 1, 9, 15) and `rootnumber`
# exits 1, which would fail the exit-code gate in every session.  That gap
# is measured by rootnum_sweep, whose twists hit missing keys.
CLI_MEMBERS = {
    "Z8R2-1": ("22", 1),
    "Z8R2-2": ("19", 1),
    "Z8R2-3": ("11", 1),
    "Z8R2-4": ("17", 1),
    "Z8R2-6": ("-48", -1),
    "Z8R2-7": ("10", 1),
    "Z2x6R2-1": ("15", 1),
    "Z2x6R2-2": ("17", 1),
    "Z2x6R2-3": ("22", 1),
    "Z2x6R2-4": ("19", 1),
    "Z2x6R2-5": ("20", 1),
}

CATALOG_SIZE = 36


def catalog_hash(cat) -> str:
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


def _squarefree(n: int) -> bool:
    n = abs(n)
    return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))


def is_fundamental(d: int) -> bool:
    """d is the discriminant of a quadratic field."""
    if d in (0, 1):
        return False
    if d % 4 == 1:
        return _squarefree(d)
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and _squarefree(d // 4)


def kronecker(d: int, n: int) -> int:
    """The Kronecker symbol (d / n)."""
    if n == 0:
        return 1 if abs(d) == 1 else 0
    result = 1
    if n < 0:
        n = -n
        if d < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5):
            result = -result
    # Jacobi symbol (d / n) for odd n > 0
    a = d % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
