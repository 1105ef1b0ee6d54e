"""Factorization into irreducibles in Z[u], on integer coefficient lists.

The modular algorithm of Cantor and Zassenhaus (Math. Comp. 36, 1981) as
von zur Gathen and Gerhard give it (Modern Computer Algebra, ch. 14-15):
Yun's squarefree decomposition over Z (``polyq._zz_yun``); each squarefree
part factored modulo a small prime p by distinct-degree factorization and
equal-degree splitting; the modular factors lifted by Hensel's lemma to a
power of p above twice the Landau-Mignotte bound; and true factors
recovered from subsets of increasing size, each checked by exact division.

Lists are indexed by degree, as in ``polyq``, whose helpers on residue
lists mod m (``_divmod_mod``, ``_pow_mod``, ``gcd_mod_p`` and their kin)
this module uses.  ``PolyQ.factor`` is the only caller and imports this
module when it first runs.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from typing import Optional, Sequence

from .arith import is_prime
from .polyq import (
    _divmod_mod,
    _mod,
    _mul_mod,
    _pow_mod,
    _sub_mod,
    _zz_add,
    _zz_derivative,
    _zz_exquo,
    _zz_mul,
    _zz_primitive,
    _zz_yun,
    gcd_mod_p,
)

# squarefree primes tried per part; the one with the fewest modular
# factors leaves the fewest subsets to recombine
_PRIMES_TRIED = 5


def factor_list(xs: Sequence[int]) -> tuple[int, list[tuple[list[int], int]]]:
    """xs = c * prod f^e for a nonzero integer polynomial xs: c is its
    content with the sign of its leading coefficient, and the f are
    distinct irreducible primitive polynomials with positive leading
    coefficients.

    The pairs (f, e) come in the order of sympy's ``dup_factor_list``:
    by length, then multiplicity, then coefficients from the top.
    """
    j = 0
    while not xs[j]:
        j += 1
    xs = xs[j:]
    c = math.gcd(*xs) if xs[-1] > 0 else -math.gcd(*xs)
    parts = [([0, 1], j)] if j else []
    bs = _zz_yun([x // c for x in xs])
    for i, b in enumerate(bs):
        a = _zz_exquo(b, bs[i + 1]) if i + 1 < len(bs) else b
        if len(a) > 1:
            parts += [(f, i + 1) for f in _zassenhaus(a)]
    parts.sort(key=lambda fe: (len(fe[0]), fe[1], fe[0][::-1]))
    return c, parts


def _zassenhaus(f: list[int]) -> list[list[int]]:
    """The irreducible factors of a squarefree primitive f of positive
    leading coefficient.

    A factor g of f has |g|_inf <= 2^deg(f) |f|_2 (Mignotte; von zur
    Gathen-Gerhard 6.33), so (lc f / lc g) g, congruent to lc(f) times a
    product of the lifted factors, is that product's symmetric residue mod
    p^l once p^l > 2 B with B = |lc f| 2^deg(f) ceil(|f|_2).
    """
    if len(f) == 2:
        return [f]
    p, modular = _modular_factors(f)
    if len(modular) == 1:
        return [f]
    norm2 = sum(c * c for c in f)
    norm = math.isqrt(norm2)
    norm += norm * norm < norm2
    bound = 2 * abs(f[-1]) * 2 ** (len(f) - 1) * norm
    l, m = 1, p
    while m <= bound:
        l, m = l + 1, m * p
    return _recombine(f, _hensel_lift(f, modular, p, l), m)


def _modular_factors(f: list[int]) -> tuple[int, list[list[int]]]:
    """(p, the monic irreducible factors of f mod p) for the odd prime p,
    among the first _PRIMES_TRIED with p not dividing lc(f) and f
    squarefree mod p, with the fewest factors; the splitting draws from a
    generator seeded in this call."""
    df, lc = _zz_derivative(f), f[-1]
    best, tried, p = None, 0, 2
    while tried < _PRIMES_TRIED:
        p += 1
        if not is_prime(p) or lc % p == 0 or len(gcd_mod_p(f, df, p)) != 1:
            continue
        tried += 1
        # f's gcd with 0 is f made monic mod p
        parts = _distinct_degree(gcd_mod_p(f, [], p), p)
        count = sum((len(g) - 1) // d for g, d in parts)
        if best is None or count < best[0]:
            best = (count, p, parts)
        if count == 1:
            break
    _count, p, parts = best
    rng = random.Random(0)
    return p, [h for g, d in parts for h in _equal_degree(g, d, p, rng)]


# -- factoring modulo a prime ---------------------------------------------

def _distinct_degree(g: list[int], p: int) -> list[tuple[list[int], int]]:
    """Distinct-degree factorization of a monic squarefree g mod p: pairs
    (g_d, d) with g_d the product of g's irreducible factors of degree d
    (von zur Gathen-Gerhard, Algorithm 14.3)."""
    parts, h, d = [], [0, 1], 0
    while len(g) - 1 >= 2 * (d + 1):
        d += 1
        h = _pow_mod(h, p, g, p)
        gd = gcd_mod_p(g, _sub_mod(h, [0, 1], p), p)
        if len(gd) > 1:
            parts.append((gd, d))
            g = _divmod_mod(g, gd, p)[0]
            h = _divmod_mod(h, g, p)[1]
    if len(g) > 1:
        parts.append((g, len(g) - 1))
    return parts


def _equal_degree(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """The monic irreducible factors, all of degree d, of a monic
    squarefree g mod the odd prime p: gcd(a^((p^d - 1)/2) - 1, g) for a
    random a splits g with probability about 1/2 (Cantor-Zassenhaus; von
    zur Gathen-Gerhard, Algorithm 14.8)."""
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p**d - 1) // 2
    while True:
        a = _mod([rng.randrange(p) for _ in range(n)], p)
        if len(a) < 2:
            continue
        h = gcd_mod_p(g, a, p)
        if len(h) == 1:
            h = gcd_mod_p(g, _sub_mod(_pow_mod(a, e, g, p), [1], p), p)
        if 1 < len(h) < len(g):
            rest = _divmod_mod(g, h, p)[0]
            return _equal_degree(h, d, p, rng) + _equal_degree(rest, d, p, rng)


# -- Hensel lifting and recombination -------------------------------------

def _xgcd_mod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(s, t) with s a + t b = 1 mod p, deg s < deg b and deg t < deg a,
    for a, b coprime mod p."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
        t0, t1 = t1, _sub_mod(t0, _mul_mod(q, t1, p), p)
    inv = pow(r0[-1], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _hensel_step(m: int, f: list[int], g: list[int], h: list[int], s: list[int], t: list[int]):
    """From f = g h and s g + t h = 1 mod m, h monic, the same mod m^2
    (von zur Gathen-Gerhard, Algorithm 15.10)."""
    M = m * m
    e = _sub_mod(f, _zz_mul(g, h), M)
    q, r = _divmod_mod(_zz_mul(s, e), h, M)
    g = _mod(_zz_add(g, _zz_add(_zz_mul(t, e), _zz_mul(q, g))), M)
    h = _mod(_zz_add(h, r), M)
    b = _sub_mod(_zz_add(_zz_mul(s, g), _zz_mul(t, h)), [1], M)
    c, d = _divmod_mod(_zz_mul(s, b), h, M)
    s = _sub_mod(s, d, M)
    t = _sub_mod(t, _zz_add(_zz_mul(t, b), _zz_mul(c, g)), M)
    return g, h, s, t


def _hensel_lift(f: list[int], gs: list[list[int]], p: int, l: int) -> list[list[int]]:
    """Monic lifts mod p^l of the monic gs, pairwise coprime mod p with
    f = lc(f) prod gs mod p: split gs in halves, lift that two-factor
    split quadratically, and recurse on each half."""
    m = p**l
    if len(gs) == 1:
        inv = pow(f[-1], -1, m)
        return [[c * inv % m for c in f]]
    k = len(gs) // 2
    g = [f[-1] % p]
    for x in gs[:k]:
        g = _mul_mod(g, x, p)
    h = [1]
    for x in gs[k:]:
        h = _mul_mod(h, x, p)
    s, t = _xgcd_mod(g, h, p)
    f, q = [c % m for c in f], p
    while q < m:
        g, h, s, t = _hensel_step(q, f, g, h, s, t)
        q *= q
    g, h = [c % m for c in g], [c % m for c in h]
    return _hensel_lift(g, gs[:k], p, l) + _hensel_lift(h, gs[k:], p, l)


def _exact_quotient(xs: list[int], ys: list[int]) -> Optional[list[int]]:
    """xs / ys in Z[u] when ys divides xs there, else None."""
    dy, ly = len(ys) - 1, ys[-1]
    if len(xs) <= dy or xs[-1] % ly or (xs[0] % ys[0] if ys[0] else xs[0]):
        return None
    r = list(xs)
    q = [0] * (len(r) - dy)
    for i in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[i + dy], ly)
        if rem:
            return None
        q[i] = c
        if c:
            for j, y in enumerate(ys):
                r[i + j] -= c * y
    return None if any(r[:dy]) else q


def _recombine(f: list[int], gs: list[list[int]], m: int) -> list[list[int]]:
    """The irreducible factors of f over Z from the monic factors gs of f
    mod m (f = lc(f) prod gs mod m, m above twice the bound).

    Subsets of s modular factors are tried for s = 1, 2, ...: the
    symmetric residue of lc(f) times their product, made primitive, is a
    factor exactly when it divides f.  A factor found is split off and
    its modular factors dropped; once 2 s exceeds the number left, what
    remains of f is irreducible.
    """
    factors, s = [], 1
    while 2 * s <= len(gs):
        for S in combinations(range(len(gs)), s):
            G = [f[-1] % m]
            for i in S:
                G = _mul_mod(G, gs[i], m)
            G = _zz_primitive([c - m if 2 * c > m else c for c in G])
            q = _exact_quotient(f, G)
            if q is not None:
                factors.append(G)
                f = q
                gs = [g for i, g in enumerate(gs) if i not in S]
                break
        else:
            s += 1
    factors.append(f)
    return factors
