"""Exact integer and rational arithmetic kernel.

Everything downstream (polynomials, curves, local data, scans) sits on top of
this module: budgeted integer factorization, primality testing, rational
square detection, Jacobi symbols and Legendre symbols (from tables of
the quadratic residues mod each odd prime below 2^9, built on first use),
all in the standard library.
Factorization is trial division, then Brent's rho, which tries one Pollard
p - 1 probe (stage 1, bound 10^4, with a gcd checkpoint at 10^3) in every
call that runs 2^11 iterations without a split.  Trial division walks the
primes that the sieve already holds below 727, the first block of 128
primes, in one loop, and from there on segments cut at the square root of
what is left, growing the sieve to a segment's end only when the segment
reaches past it: a walk that stops in the segment [lo, hi) leaves the sieve
at least hi long, and hi is at most lo^2, and where the segment grows the
sieve, at most twice its length or 2^14.  A rest 1 < n < lo^2 left where
the walk ends at lo has had every prime up to its square root tried: it is
prime, and joins the factors with exponent 1; only a larger rest goes on to
is_prime and rho.  All values are immutable and every result depends on the
arguments alone; the one shared state is the module's prime sieve, which the
factoring routines and primes_below() grow in place, with the products of
its blocks of primes that trial division caches, the tables of quadratic
residues that Legendre symbols read, and the memo of rests that
rho has split, which lives only inside a split_memo() block (one lattice
scan); none of them is thread-safe.  The probe's exponents are built from
the sieve once, on first use.

Rationals are plain ``fractions.Fraction`` objects; the stdlib type already
keeps gcd(num, den) = 1 and den >= 1, which is exactly the canonical form we
need.
"""

from __future__ import annotations

import contextlib
import functools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import compress
from typing import Iterable, Iterator, NamedTuple, Optional


class Unfactored(Exception):
    """A factorization budget ran out before the answer was certain."""


# The shared prime sieve: _sieve_flags[n] is 1 exactly when n is prime, for
# n < len(_sieve_flags), and _sieve_primes lists those primes in order.
_sieve_flags = bytearray(2)
_sieve_primes: list[int] = []
# the residues mod 30 prime to 30
_WHEEL = (1, 7, 11, 13, 17, 19, 23, 29)


def _sieve_to(bound: int) -> None:
    """Extend the shared sieve to cover every n < bound, by one segment."""
    root = math.isqrt(max(bound - 1, 0))
    if root >= len(_sieve_flags):
        _sieve_to(root + 1)
    lo = len(_sieve_flags)
    if bound <= lo:
        return
    seg = bytearray(b"\x01") * (bound - lo)
    for p in _sieve_primes:
        if p > root:
            break
        start = max(p * p, -(-lo // p) * p) - lo
        seg[start::p] = bytes(len(range(start, bound - lo, p)))
    _sieve_flags.extend(seg)
    if lo < 7:
        _sieve_primes.extend(compress(range(lo, bound), seg))
        return
    # from 7 up a prime lies in one of the eight classes prime to 30
    found: list[int] = []
    for r in _WHEEL:
        start = lo + (r - lo) % 30
        found += compress(range(start, bound, 30), seg[start - lo :: 30])
    found.sort()
    _sieve_primes.extend(found)


# Miller-Rabin bases, and _MR_PSI[k] the least strong pseudoprime to all of
# _MR_BASES[:k + 1] (Jaeschke; Zhang and Tang; Sorenson and Webster): below
# it those k + 1 bases decide primality.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)


def is_prime(n: int) -> bool:
    """Primality test, exact below 3.317e24.

    n inside the shared sieve is looked up; above it, n is a strong
    probable prime to as many of the prime bases 2 ... 41 as make the
    answer certain, and from 3.317e24 up a Baillie-PSW probable prime
    (base-2 strong probable prime, not a square, strong Lucas probable
    prime with Selfridge's parameters; no counterexample is known).
    """
    if n < len(_sieve_flags):
        return n >= 0 and _sieve_flags[n] == 1
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if n >= _MR_PSI[-1]:
        return _strong_probable_prime(n, 2, d, s) and isqrt_exact(n) is None and _strong_lucas(n)
    bases = _MR_BASES[: bisect_right(_MR_PSI, n) + 1]
    return all(_strong_probable_prime(n, a, d, s) for a in bases)


def _strong_probable_prime(n: int, a: int, d: int, s: int) -> bool:
    """Miller-Rabin round: n - 1 = d 2^s with d odd, base a coprime to n."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test for odd n > 1 that is not a square.

    Selfridge's parameters: D is the first of 5, -7, 9, -11, ... with
    (D|n) = -1, P = 1 and Q = (1 - D)/4.  With n + 1 = d 2^s, d odd, n
    passes when U_d = 0 or V_(d 2^r) = 0 mod n for some r < s.
    """
    D = 5
    while True:
        j = jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s

    def half(x: int) -> int:
        return (x + n if x & 1 else x) // 2 % n

    # U_k, V_k, Q^k for k = 1, then along the bits of d (P = 1):
    # U_2k = U_k V_k, V_2k = V_k^2 - 2Q^k, U_k+1 = (U_k + V_k)/2,
    # V_k+1 = (D U_k + V_k)/2
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


class _BudgetFields(NamedTuple):
    trial_bound: int = 10**6
    rho_iterations: int = 2 * 10**6


class FactorBudget(_BudgetFields):
    """Effort limit for integer factorization.

    trial_bound: trial-divide by the primes below this bound.
    rho_iterations: Brent-rho iteration allowance per factor() call (and
        per part in factor_with_parts()).  Each rho call may spend whatever
        is left of it and is charged the iterations it took (as _brent_rho
        counts them); rho stops once the allowance is used up.  A rho call
        given more than 2^11 iterations also tries one Pollard p - 1 probe
        with bound 10^4 once it has spent 2^11 of them without a split; the
        probe stops early where a gcd at bound 10^3 already decides it, and
        its cost is not charged to the allowance.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.trial_bound < 0 or self.rho_iterations < 0:
            raise ValueError("trial_bound and rho_iterations must be nonnegative")
        return self

    # _replace copies through _make, so a changed copy is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))


DEFAULT_BUDGET = FactorBudget()


class FactoredInt(NamedTuple):
    """A partially factored integer: value = sign * prod(p**e) * residue.

    ``residue`` is 1 when the factorization is complete; otherwise it is the
    unfactored leftover (from factor(), with no prime factor below the
    trial bound that was used).  Every prime listed in ``factors`` has
    passed ``is_prime``, or has been proven prime by trial division: a rest
    of the walk below the square of where it stopped.
    """

    sign: int
    factors: tuple[tuple[int, int], ...]
    residue: int = 1

    @property
    def complete(self) -> bool:
        return self.residue == 1

    def value(self) -> int:
        v = self.sign
        for p, e in self.factors:
            v *= p**e
        return v * self.residue

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def __str__(self) -> str:
        parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors]
        if self.residue != 1:
            parts.append(f"[{self.residue}]")
        body = "*".join(parts) if parts else "1"
        return ("-" if self.sign < 0 else "") + body


def primes_below(bound: int) -> list[int]:
    """The primes below bound, from the shared sieve."""
    _sieve_to(bound)
    return _sieve_primes[: bisect_left(_sieve_primes, bound)]


def _brent_rho(n: int, max_iters: int) -> tuple[Optional[int], int]:
    """Brent's cycle variant of Pollard rho: a nontrivial factor of n or
    None, and the iterations spent, at most max_iters.

    An iteration is one step y -> y^2 + c mod n that multiplies x - y
    into the gcd product, or one backtracking step.  Before each batch of
    them y moves ahead by as many steps that form no product, so an
    iteration costs at most about two steps.  A batch reduces its product
    once every 8 steps, and the advance takes 4 steps a pass; a signed
    difference gives the product's gcd with n that |x - y| gives, so the
    sequence, the points where a gcd is taken and the iterations spent are
    those of one step at a time.

    When max_iters exceeds _PM1_AFTER = 2^11, the first batch that brings
    the iterations spent to 2^11 or more without a factor is followed by
    one p - 1 probe (_pm1, stage-1 bound 10^4).  A proper divisor it finds
    is returned with the iterations spent so far; otherwise the same
    sequence carries on.  The probe costs a modular power of about 1 400
    bits and a gcd, its checkpoint at bound 10^3, and only when that gcd
    is 1 a second power that completes the 14 400 bits of bound 10^4; it
    is not counted as iterations, and runs at most once.
    """
    if n % 2 == 0:
        return 2, 0
    seed = 1
    left = max_iters
    probe = max_iters > _PM1_AFTER
    while left > 0:
        y, c, m = (seed * 2862933555777941757 + 3037000493) % n, seed % (n - 1) + 1, 128
        g, r, q = 1, 1, 1
        x = ys = y
        while g == 1 and left > 0:
            x = y
            for _ in range(r >> 2):
                y = (y * y + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
            for _ in range(r & 3):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1 and left > 0:
                ys = y
                steps = min(m, r - k, left)
                for _ in range(steps >> 3):
                    y1 = (y * y + c) % n
                    y2 = (y1 * y1 + c) % n
                    y3 = (y2 * y2 + c) % n
                    y4 = (y3 * y3 + c) % n
                    y5 = (y4 * y4 + c) % n
                    y6 = (y5 * y5 + c) % n
                    y7 = (y6 * y6 + c) % n
                    y = (y7 * y7 + c) % n
                    q = (
                        q * (x - y1) * (x - y2) * (x - y3) * (x - y4)
                        * (x - y5) * (x - y6) * (x - y7) * (x - y) % n
                    )
                for _ in range(steps & 7):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += steps
                left -= steps
                if probe and g == 1 and max_iters - left >= _PM1_AFTER:
                    probe = False
                    d = _pm1(n)
                    if d is not None:
                        return d, max_iters - left
            r *= 2
        if g == n:
            g = 1
            while g == 1 and left > 0:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
                left -= 1
        if 1 < g < n:
            return g, max_iters - left
        seed += 1
    return None, max_iters - left


# rho iterations after which _brent_rho tries one p - 1 probe, the probe's
# stage-1 bound, and the bound of its gcd checkpoint
_PM1_AFTER = 2**11
_PM1_B1 = 10**4
_PM1_CHECKPOINT = 10**3


@functools.cache
def _pm1_exponent(bound: int = _PM1_B1) -> int:
    """The product of the largest power of each prime below bound that
    does not exceed it; for a smaller bound it divides this one."""
    e = 1
    for p in primes_below(bound):
        q = p
        while q * p <= bound:
            q *= p
        e *= q
    return e


def _pm1(n: int) -> Optional[int]:
    """Pollard's p - 1 stage 1 with base 2: g = gcd(2^E - 1, n) for odd n
    and E = _pm1_exponent(), when 1 < g < n, else None.  A prime p of n
    divides g exactly when the order of 2 mod p divides E, as it does when
    every prime power dividing p - 1 is at most _PM1_B1.

    The power stops at a gcd checkpoint: a = 2^E1 mod n with E1 the
    exponent of bound _PM1_CHECKPOINT, which divides E and has a tenth of
    its bits.  A proper gcd(a - 1, n) is returned; gcd n means a = 1 mod n,
    so 2^E gives n as well, and None is returned; only at gcd 1 does the
    probe go on to a^(E / E1) = 2^E.  So its answer differs from that of
    the single power 2^E only where that one finds n, and there the
    checkpoint may split n.  Where the checkpoint's gcd is 1 the two powers
    take about a tenth longer than the single one (CPython's pow multiplies
    by powers of a full residue a, not of 2); where it is not, they take a
    tenth as long."""
    first = _pm1_exponent(_PM1_CHECKPOINT)
    a = pow(2, first, n)
    g = math.gcd(a - 1, n)
    if g == 1:
        g = math.gcd(pow(a, _pm1_exponent() // first, n) - 1, n)
    return g if 1 < g < n else None


def _power_root(m: int, t: int) -> Optional[int]:
    """r with m = r^k for some prime k, or None, for m > 1 with no prime
    factor below t >= 2: then m >= t^k, so only those k are tried."""
    for k in primes_below(m.bit_length() + 1):
        if t**k > m:
            break
        r = integer_nthroot(m, k)
        if r**k == m:
            return r
    return None


def factor(n: int, budget: FactorBudget = DEFAULT_BUDGET) -> FactoredInt:
    """Factor ``n`` as far as the budget allows.

    Partial results are encoded in the residue, never raised as errors.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = -1 if n < 0 else 1
    n = abs(n)
    found: dict[int, int] = {}

    # walk the primes that the shared sieve already holds below the trial
    # bound and _FLAT_END in one loop; from there on, walk in segments
    # [lo, lo^2) cut at the square root of what is left of n, growing the
    # sieve in place only when a segment is not covered yet, and then by at
    # most doubling it (_grow_sieve), so that small or smooth n never make
    # it sieve far; a segment of at least a block's length is walked block
    # by block (_trial_primes).  This is
    # _trial_divide for one value, without the bookkeeping of several,
    # which would cost a quarter of the time on small n
    lo = min(budget.trial_bound, len(_sieve_flags), _FLAT_END)
    for p in _sieve_primes:
        if p * p > n or p >= lo:
            break
        if n % p == 0:
            n, found[p] = _strip(n, p)
    while lo < budget.trial_bound and lo * lo <= n:
        hi = min(budget.trial_bound, math.isqrt(n) + 1, lo * lo)
        if hi > len(_sieve_flags):
            hi = _grow_sieve(hi)
        i, end = bisect_left(_sieve_primes, lo), bisect_left(_sieve_primes, hi)
        ps = _sieve_primes[i:end] if end - i < _BLOCK else _trial_primes(n, i, end)
        for p in ps:
            if p * p > n:
                break
            if n % p == 0:
                n, found[p] = _strip(n, p)
        lo = hi
    if 1 < n < lo * lo:
        # every prime below lo, or below a p with p^2 > n, has been tried
        found[n] = 1
        n = 1
    residue = _split_rest(n, found, budget) if n > 1 else 1
    return FactoredInt(sign, tuple(sorted(found.items())), residue)


# a segment that grows the shared sieve ends at most at the larger of
# twice its length and _SIEVE_STEP
_SIEVE_STEP = 2**14


def _grow_sieve(hi: int) -> int:
    """Grow the shared sieve to end = min(hi, max(2 len, _SIEVE_STEP)) and
    return end, the end of the segment to walk: a walk that stops early
    pays for a sieve at most about twice as long as it needed, not one up
    to lo^2."""
    hi = min(hi, max(2 * len(_sieve_flags), _SIEVE_STEP))
    _sieve_to(hi)
    return hi


def _trial_divide(values: list[int], bound: int) -> tuple[list[int], list[dict[int, int]]]:
    """Trial division of nonzero values by the sieve primes below bound, in
    one walk for all of them: what is left of each |value|, and for each
    the primes found with their exponents.

    The walk is factor()'s, with its segments cut at the square root of
    the largest rest, so it stops once p^2 exceeds every rest and goes no
    further than a walk per value would.  A prime is tried against the
    product of the rests and, only when it divides it, against each rest; a
    whole block of primes takes one gcd with that product (_trial_primes).
    Each rest has no prime factor below min(p, bound) for the prime p the
    walk stopped at; a rest that this proves prime (one below lo^2, with
    every prime below the walk's end lo tried) joins its found primes with
    exponent 1, and its rest is 1.
    """
    rests = list(map(abs, values))
    found: list[dict[int, int]] = [{} for _ in rests]
    prod, top = math.prod(rests), max(rests, default=1)
    # the primes the sieve already holds below _FLAT_END are the first
    # segment, walked without growing it
    lo, hi = 2, min(bound, len(_sieve_flags), _FLAT_END)
    while True:
        i, end = bisect_left(_sieve_primes, lo), bisect_left(_sieve_primes, hi)
        ps = _sieve_primes[i:end] if end - i < _BLOCK else _trial_primes(prod, i, end)
        for p in ps:
            if p * p > top:
                break
            if prod % p == 0:
                for k, r in enumerate(rests):
                    if r % p == 0:
                        rests[k], e = _strip(r, p)
                        found[k][p] = e
                        prod //= p**e
                top = max(rests)
        lo = hi
        if lo >= bound or lo * lo > top:
            break
        hi = min(bound, math.isqrt(top) + 1, lo * lo)
        if hi > len(_sieve_flags):
            hi = _grow_sieve(hi)
    # a rest below lo^2 is prime, as in factor()
    for k, r in enumerate(rests):
        if 1 < r < lo * lo:
            found[k][r] = 1
            rests[k] = 1
    return rests, found


# (rest, budget) -> (the primes _split_rest found in the rest, with their
# exponents, and its residue), for the rests split within one lattice scan
# (split_memo); None outside one
_split_memo: Optional[dict[tuple[int, FactorBudget], tuple[tuple, int]]] = None


@contextlib.contextmanager
def split_memo() -> Iterator[None]:
    """Within the block, _split_rest splits each (rest, budget) once and
    hands a repeat the same primes and residue; the memo is dropped on
    leaving the block.  _split_rest depends on its arguments alone, so a
    repeat's answer needs no proof."""
    global _split_memo
    outer = _split_memo
    _split_memo = {}
    try:
        yield
    finally:
        _split_memo = outer


def _split_rest(n: int, found: dict[int, int], budget: FactorBudget) -> int:
    """Split n, the rest that trial division left, with rho until the
    budget's allowance runs out (_rho_split); the primes go into found with
    their exponents, and what is left (1 when complete) is returned; a
    rest of 1 is returned at once.  Within split_memo a rest already split
    is not split again."""
    if n == 1:
        return 1
    memo = _split_memo
    if memo is None:
        return _rho_split(n, found, budget)
    key = (n, budget)
    if key not in memo:
        primes: dict[int, int] = {}
        residue = _rho_split(n, primes, budget)
        memo[key] = (tuple(primes.items()), residue)
    primes_found, residue = memo[key]
    found.update(primes_found)
    return residue


def _rho_split(n: int, found: dict[int, int], budget: FactorBudget) -> int:
    """_split_rest without the memo, for n > 1.

    Each prime is proven once and divided out of every cofactor popped
    after it; a perfect power is pushed once, as its root; a cofactor rho
    cannot split is dropped, and is left in the residue.
    """
    primes: list[int] = []
    stack = [n]
    iters = budget.rho_iterations
    while stack:
        m = stack.pop()
        for p in primes:
            m = _strip(m, p)[0]
        if m == 1:
            continue
        if is_prime(m):
            primes.append(m)
            continue
        root = _power_root(m, max(budget.trial_bound, 2))
        if root is not None:
            stack.append(root)
            continue
        if iters > 0:
            d, spent = _brent_rho(m, iters)
            iters -= spent
            if d is not None:
                # d is popped first, so a prime d is stripped from m // d
                stack.extend([m // d, d])
    # exponents and the residue by exact division
    for p in primes:
        n, found[p] = _strip(n, p)
    return n


# _block_products[b] is the product of the aligned block of sieve primes
# _sieve_primes[b * _BLOCK : (b + 1) * _BLOCK], built on first use; the
# sieve only grows at its end, so a complete block never changes
_BLOCK = 128
_block_products: list[int] = []
# the first prime past the first block: trial division walks the sieve's
# primes below it in one loop, and whole blocks from there on
_FLAT_END = 727


def _block_product(b: int) -> int:
    while len(_block_products) <= b:
        k = len(_block_products) * _BLOCK
        _block_products.append(math.prod(_sieve_primes[k : k + _BLOCK]))
    return _block_products[b]


def _trial_primes(n: int, i: int, end: int) -> Iterator[int]:
    """The sieve primes with index i ... end - 1 that can divide n, in
    order: all of them, except that of a whole block past the first only
    the first prime and the others dividing the block's gcd with n.

    The first prime comes before the gcd, so a caller that stops at a
    prime p with p^2 above what is left of n skips that gcd.
    """
    j = min(end, max(_BLOCK, -(-i // _BLOCK) * _BLOCK))
    yield from _sieve_primes[i:j]
    while j + _BLOCK <= end:
        yield _sieve_primes[j]
        g = math.gcd(n, _block_product(j // _BLOCK))
        if g > 1:
            yield from [p for p in _sieve_primes[j + 1 : j + _BLOCK] if g % p == 0]
        j += _BLOCK
    yield from _sieve_primes[j:end]


def _strip(n: int, p: int) -> tuple[int, int]:
    """(n / p^e, e) with p^e the exact power of p dividing n, for n != 0;
    for p = 2, e is the index of n's lowest set bit, negative n too."""
    if p == 2:
        e = (n & -n).bit_length() - 1
        return n >> e, e
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return n, e


def factor_with_parts(
    n: int, parts: Iterable[int], budget: FactorBudget = DEFAULT_BUDGET
) -> FactoredInt:
    """Factor ``n`` through integers ``parts`` whose primes should cover n's.

    The nonzero parts are trial-divided in one walk of the sieve
    (_trial_divide), and each part's rest is then split by rho on its own
    allowance, so every part gets what factor() would give it.  The parts'
    unfactored residues (with the primes found) are split into pairwise
    coprime pieces by gcds, and every piece that is prime joins the primes.
    |n| is then divided by each prime, and what is left is the residue.
    The result is exact whatever the parts are: value() == n, and it is
    complete only when the primes leave nothing of n over.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    primes: set[int] = set()
    residues: list[int] = []
    rests, founds = _trial_divide([part for part in parts if part], budget.trial_bound)
    for rest, found in zip(rests, founds):
        residue = _split_rest(rest, found, budget)
        primes.update(found)
        if residue > 1:
            residues.append(residue)
    if residues:
        for q in _coprime_pieces(sorted(primes) + residues):
            if q not in primes and is_prime(q):
                primes.add(q)
    m = abs(n)
    found: dict[int, int] = {}
    for p in sorted(primes):
        m, e = _strip(m, p)
        if e:
            found[p] = e
    return FactoredInt(-1 if n < 0 else 1, tuple(found.items()), m)


def _coprime_pieces(values: list[int]) -> list[int]:
    """Pairwise coprime integers > 1 with the same prime support as values,
    every value (each > 0) a product of powers of them.

    Replacing two pieces x, q with g = gcd(x, q) > 1, x/g and q/g shrinks
    their product, so the splitting ends; x and q stay products of the
    three, so every value stays a product of powers of the pieces, and for
    each piece r and each prime p of r, v_p(value) = v_r(value)·v_p(r).
    """
    pieces: list[int] = []
    todo = list(values)
    while todo:
        x = todo.pop()
        if x == 1:
            continue
        for i, q in enumerate(pieces):
            g = math.gcd(x, q)
            if g > 1:
                del pieces[i]
                todo.extend((g, x // g, q // g))
                break
        else:
            pieces.append(x)
    return pieces


def integer_nthroot(x: int, n: int) -> int:
    """floor(x^(1/n)) for x >= 0: Newton's iteration from above, which
    decreases to the floor."""
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def isqrt_exact(n: int) -> Optional[int]:
    """Integer square root if n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def square_test(q: Fraction | int) -> Optional[Fraction]:
    """Return r >= 0 with r*r == q when q is a rational square, else None."""
    q = Fraction(q)
    if q < 0:
        return None
    rn = isqrt_exact(q.numerator)
    if rn is None:
        return None
    rd = isqrt_exact(q.denominator)
    if rd is None:
        return None
    return Fraction(rn, rd)


def squarefree_decompose(n: int, budget: FactorBudget = DEFAULT_BUDGET) -> tuple[int, int]:
    """Write n = s*s*f with f squarefree (sign carried by f).

    Raises Unfactored if the budget runs out before the squarefree part is
    certain.
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    fi = factor(n, budget)
    if not fi.complete:
        # a perfect-square residue would still be fine, anything else is not
        r = isqrt_exact(fi.residue)
        if r is None:
            raise Unfactored(f"residue {fi.residue} left while decomposing {n}")
        s_extra, extra_free = r, 1
    else:
        s_extra, extra_free = 1, 1
    s, f = s_extra, extra_free * fi.sign
    for p, e in fi.factors:
        s *= p ** (e // 2)
        if e % 2:
            f *= p
    return s, f


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    a %= n
    result = 1
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


# legendre_is_square reads _residue_tables[p], the quadratic residues mod p
# as a table of length p, for odd primes p below _RESIDUE_TABLE_BOUND; a
# table is built on first use and never changes
_RESIDUE_TABLE_BOUND = 2**9
_residue_tables: list[Optional[bytes]] = [None] * _RESIDUE_TABLE_BOUND


def legendre_is_square(a: int, p: int) -> bool:
    """Whether a is a nonzero square mod the odd prime p, that is whether
    the Legendre symbol (a|p) is 1: read off a table of the residues mod p
    below _RESIDUE_TABLE_BOUND, and by jacobi above it."""
    if p >= _RESIDUE_TABLE_BOUND:
        return jacobi(a, p) == 1
    table = _residue_tables[p]
    if table is None:
        flags = bytearray(p)
        for x in range(1, (p + 1) // 2):
            flags[x * x % p] = 1
        table = _residue_tables[p] = bytes(flags)
    return table[a % p] == 1


def valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer, for an integer p >= 2."""
    if n == 0:
        raise ValueError("valuation of 0")
    if p < 2:
        raise ValueError(f"valuation needs p >= 2, not {p}")
    if p == 2:
        return (n & -n).bit_length() - 1
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def hilbert_symbol(a: Fraction | int, b: Fraction | int, p: Optional[int]) -> int:
    """Hilbert symbol (a, b)_p over Q_p (p=None means the real place);
    ValueError unless p is None or a prime.

    A rational n/d enters as n d, a square d^2 away.  With a = p^alpha u,
    b = p^beta v and u, v prime to p (Serre, A Course in Arithmetic, III.1.2,
    Thm. 1) it is (-1)^(alpha beta (p-1)/2) (u|p)^beta (v|p)^alpha for odd
    p and (-1)^(e(u) e(v) + alpha w(v) + beta w(u)) at 2, where e(x) =
    (x-1)/2 and w(x) = (x^2-1)/8."""
    if p is not None and not is_prime(p):
        raise ValueError(f"not a prime: {p}")
    a, b = a.numerator * a.denominator, b.numerator * b.denominator
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero arguments")
    if p is None:
        return -1 if a < 0 and b < 0 else 1
    u, alpha = _strip(a, p)
    v, beta = _strip(b, p)
    if p == 2:
        u, v = u % 8, v % 8
        e = (u - 1) // 2 * ((v - 1) // 2)
        e += alpha * ((v * v - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if e % 2 else 1
    s = -1 if alpha * beta * (p - 1) // 2 % 2 else 1
    if beta % 2 and not legendre_is_square(u, p):
        s = -s
    if alpha % 2 and not legendre_is_square(v, p):
        s = -s
    return s


def rational_to_string(q: Fraction) -> str:
    return str(q)
