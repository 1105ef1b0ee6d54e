"""Exact integer and rational arithmetic kernel.

Everything downstream (polynomials, curves, local data, scans) sits on top of
this module: budgeted integer factorization, primality testing, rational
square detection and Jacobi symbols, all in the standard library.  All
values are immutable and every result depends on the arguments alone; the
one shared state is the module's prime sieve, which factor() and
primes_below() grow in place, with the products of its blocks of primes
that factor() caches; neither is thread-safe.

Rationals are plain ``fractions.Fraction`` objects; the stdlib type already
keeps gcd(num, den) = 1 and den >= 1, which is exactly the canonical form we
need.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Iterator, Optional


class Unfactored(Exception):
    """A factorization budget ran out before the answer was certain."""


# The shared prime sieve: _sieve_flags[n] is 1 exactly when n is prime, for
# n < len(_sieve_flags), and _sieve_primes lists those primes in order.
_sieve_flags = bytearray(2)
_sieve_primes: list[int] = []


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
    _sieve_primes.extend(compress(range(lo, bound), seg))


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


@dataclass(frozen=True)
class FactorBudget:
    """Effort limit for integer factorization.

    trial_bound: trial-divide by the primes below this bound.
    rho_iterations: Brent-rho iteration allowance per factor() call (and
        per part in factor_with_parts()).  Each rho call may spend whatever
        is left of it and is charged the iterations it took (as _brent_rho
        counts them); rho stops once the allowance is used up.
    """

    trial_bound: int = 10**6
    rho_iterations: int = 2 * 10**6

    def __post_init__(self):
        if self.trial_bound < 0 or self.rho_iterations < 0:
            raise ValueError("trial_bound and rho_iterations must be nonnegative")


DEFAULT_BUDGET = FactorBudget()


@dataclass(frozen=True)
class FactoredInt:
    """A partially factored integer: value = sign * prod(p**e) * residue.

    ``residue`` is 1 when the factorization is complete; otherwise it is the
    unfactored leftover (from factor(), with no prime factor below the
    trial bound that was used).  Every prime listed in
    ``factors`` has passed ``is_prime``.
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

    An iteration is one step y -> y^2 + c mod n that multiplies |x - y|
    into the gcd product, or one backtracking step.  Before each batch of
    them y moves ahead by as many steps that form no product, so an
    iteration costs at most about two steps.
    """
    if n % 2 == 0:
        return 2, 0
    seed = 1
    left = max_iters
    while left > 0:
        y, c, m = (seed * 2862933555777941757 + 3037000493) % n, seed % (n - 1) + 1, 128
        g, r, q = 1, 1, 1
        x = ys = y
        while g == 1 and left > 0:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1 and left > 0:
                ys = y
                steps = min(m, r - k, left)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += steps
                left -= steps
            r *= 2
        if g == n:
            g = 1
            while g == 1 and left > 0:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                left -= 1
        if 1 < g < n:
            return g, max_iters - left
        seed += 1
    return None, max_iters - left


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

    # walk the shared sieve, grown in place to exactly the bound needed, in
    # segments [lo, lo^2) cut at the square root of what is left of n, so
    # that small or smooth n never make it sieve far; a segment of at least
    # a block's length is walked block by block (_trial_primes)
    lo = 2
    while lo < budget.trial_bound and lo * lo <= n:
        hi = min(budget.trial_bound, math.isqrt(n) + 1, lo * lo)
        _sieve_to(hi)
        i, end = bisect_left(_sieve_primes, lo), bisect_left(_sieve_primes, hi)
        ps = _sieve_primes[i:end] if end - i < _BLOCK else _trial_primes(n, i, end)
        for p in ps:
            if p * p > n:
                break
            if n % p == 0:
                n, found[p] = _strip(n, p)
        lo = hi

    # remaining part: split it with rho until the budget runs out.  Each
    # prime is proven once and divided out of every cofactor popped after
    # it; a perfect power is pushed once, as its root; a cofactor rho
    # cannot split is dropped, and is left in the residue below
    primes: list[int] = []
    stack = [n] if n > 1 else []
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
    # exponents and the residue by exact division of what trial division left
    for p in primes:
        n, found[p] = _strip(n, p)
    return FactoredInt(sign, tuple(sorted(found.items())), n)


# _block_products[b] is the product of the aligned block of sieve primes
# _sieve_primes[b * _BLOCK : (b + 1) * _BLOCK], built on first use; the
# sieve only grows at its end, so a complete block never changes
_BLOCK = 128
_block_products: list[int] = []


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
    """(n / p^e, e) with p^e the exact power of p dividing n."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return n, e


def factor_with_parts(
    n: int, parts: Iterable[int], budget: FactorBudget = DEFAULT_BUDGET
) -> FactoredInt:
    """Factor ``n`` through integers ``parts`` whose primes should cover n's.

    Each nonzero part is factored on its own budget; the parts' unfactored
    residues (with the primes found) are split into pairwise coprime pieces
    by gcds, and every piece that is prime joins the primes.  |n| is then
    divided by each prime, and what is left is the residue.  The result is
    exact whatever the parts are: value() == n, and it is complete only
    when the primes leave nothing of n over.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    primes: set[int] = set()
    residues: list[int] = []
    for part in parts:
        if part == 0:
            continue
        fi = factor(part, budget)
        primes.update(fi.primes())
        if fi.residue > 1:
            residues.append(fi.residue)
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
    """Pairwise coprime integers > 1 with the same prime support as values.

    Replacing two pieces x, q with g = gcd(x, q) > 1, x/g and q/g shrinks
    their product, so the splitting ends.
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


def valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer, for an integer p >= 2."""
    if n == 0:
        raise ValueError("valuation of 0")
    if p < 2:
        raise ValueError(f"valuation needs p >= 2, not {p}")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation_fraction(q: Fraction, p: int) -> int:
    if q == 0:
        raise ValueError("valuation of 0")
    return valuation(q.numerator, p) - valuation(q.denominator, p)


def hilbert_symbol(a: Fraction | int, b: Fraction | int, p: Optional[int]) -> int:
    """Hilbert symbol (a, b)_p over Q_p (p=None means the real place);
    ValueError unless p is None or a prime."""
    if p is not None and not is_prime(p):
        raise ValueError(f"not a prime: {p}")
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero arguments")
    if p is None:
        return -1 if a < 0 and b < 0 else 1
    alpha = valuation_fraction(a, p)
    beta = valuation_fraction(b, p)
    # unit parts as integers modulo enough powers of p
    ua = a / Fraction(p) ** alpha
    ub = b / Fraction(p) ** beta
    if p != 2:
        ra = ua.numerator * pow(ua.denominator, -1, p) % p
        rb = ub.numerator * pow(ub.denominator, -1, p) % p
        s = 1
        if beta % 2:
            s *= jacobi(ra, p)
        if alpha % 2:
            s *= jacobi(rb, p)
        if alpha % 2 and beta % 2 and p % 4 == 3:
            s = -s
        return s
    # p = 2
    m8 = 1 << 3
    ra = ua.numerator * pow(ua.denominator, -1, m8) % m8
    rb = ub.numerator * pow(ub.denominator, -1, m8) % m8
    e = ((ra - 1) // 2) * ((rb - 1) // 2)
    e += alpha * ((rb * rb - 1) // 8) + beta * ((ra * ra - 1) // 8)
    return -1 if e % 2 else 1


def rational_to_string(q: Fraction) -> str:
    return str(q)
