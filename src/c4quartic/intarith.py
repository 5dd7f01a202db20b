"""Exact integer arithmetic: square roots, factorization, radicals, valuations.

Everything here takes and returns plain Python ints, so every operation is
exact at any size.  The factorizer is sized for desk-scale inputs: small
prime trial division first, then a Brent-cycle splitter guarded by a fixed
witness primality test.  It answers reliably for |n| up to about 2**90 and
raises :class:`FactorizationIncomplete` once its effort budget runs out,
never spinning silently on adversarial input.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
# the integer square root is math's, exported here under its own name: it
# already raises ValueError on a negative argument
from math import isqrt

__all__ = [
    "Factorization",
    "FactorizationIncomplete",
    "factor",
    "is_prime",
    "is_square",
    "is_squarefree",
    "isqrt",
    "primes_upto",
    "radical",
    "valuation",
]


class FactorizationIncomplete(ArithmeticError):
    """The factorizer ran out of effort budget; ``.n`` holds the input."""

    def __init__(self, n: int, message: str):
        super().__init__(message)
        self.n = n


@dataclass(frozen=True)
class Factorization:
    """A signed prime factorization: ``sign * prod(p**e for p, e in factors)``.

    ``factors`` lists (prime, exponent) pairs with primes strictly increasing
    and every exponent >= 1; the units +1 and -1 carry an empty list.
    """

    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        """Reconstruct the factored integer."""
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n

    def primes(self) -> tuple[int, ...]:
        """Distinct prime divisors, increasing."""
        return tuple(p for p, _ in self.factors)

    def __str__(self) -> str:
        body = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)
        return ("-" if self.sign < 0 else "") + (body or "1")


def is_square(n: int) -> bool:
    """True exactly when n = s*s for some integer s >= 0."""
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


# Fixed Miller-Rabin witnesses, proven deterministic below this bound:
# psi_12, the least strong pseudoprime to all twelve (Sorenson and Webster,
# Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_BOUND = 318_665_857_834_031_151_167_461

# (bound, bases): every n below bound is decided by the first k bases, where
# bound is the least strong pseudoprime to them (OEIS A014233); a(8) = a(7)
# and a(11) = a(10) = a(9), so those k gain nothing and are left out.
_MR_TIERS = tuple(
    (bound, _MR_BASES[:k])
    for bound, k in (
        (2_047, 1),
        (1_373_653, 2),
        (25_326_001, 3),
        (3_215_031_751, 4),
        (2_152_302_898_747, 5),
        (3_474_749_660_383, 6),
        (341_550_071_728_321, 7),
        (3_825_123_056_546_413_051, 9),
        (_MR_PROVEN_BOUND, 12),
    )
)


def _miller_rabin(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    # n odd positive
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


def _strong_lucas(n: int) -> bool:
    # n odd, not a perfect square (caller guarantees both).
    D = 5
    while _jacobi(D, n) != -1:
        D = -(D + 2) if D > 0 else -(D - 2)
    P, Q = 1, (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:
        return ((x + n) // 2 if x % 2 else x // 2) % n

    U, V, Qk = 1, P, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = half(P * U + V), half(D * U + P * V)
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def is_prime(n: int) -> bool:
    """Primality with a fixed, reproducible witness policy.

    Deterministic (proven) for n < 3.18e23 via the 12 smallest prime bases,
    of which a smaller n needs only the first few; larger inputs must pass
    all 12 and a strong Lucas test.  No composite is known to pass the
    combination.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    for bound, bases in _MR_TIERS:
        if n < bound:
            return all(_miller_rabin(n, a) for a in bases)
    if not all(_miller_rabin(n, a) for a in _MR_BASES):
        return False
    if is_square(n):
        return False
    return _strong_lucas(n)


def primes_upto(n: int) -> list[int]:
    """All primes <= n, by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = bytearray(len(range(start, n + 1, p)))
    return [i for i, flag in enumerate(sieve) if flag]


_TRIAL_LIMIT = 1_000
_MAX_EFFORT = 1 << 24


@functools.cache
def _trial_primes() -> tuple[int, ...]:
    return tuple(primes_upto(_TRIAL_LIMIT))


class _BudgetExhausted(Exception):
    pass


def _brent_splitter(n: int, c: int, budget: list[int]) -> int | None:
    """One Brent cycle attempt on odd composite n with increment c.

    Returns a nontrivial factor or None (cycle failed for this c).  Charges
    every f-evaluation against the shared budget and raises once it is gone.
    """
    y, r, q, g = 2, 1, 1, 1
    x = ys = y
    m = 128
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        budget[0] -= 2 * r
        if budget[0] < 0:
            raise _BudgetExhausted
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            budget[0] -= 1
            if budget[0] < 0:
                raise _BudgetExhausted
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g if g != n else None


def factor(n: int) -> Factorization:
    """Deterministic prime factorization of a nonzero integer.

    Trial division by the primes below 1000 strips the small factors.  A
    surviving cofactor is prime when it is below 1000^2 or passes
    ``is_prime``; otherwise it goes to a Brent splitter with a fixed
    increment schedule.  A composite cofactor below 10^12 has a prime
    factor below 10^6, which the splitter finds in about a thousand steps,
    far fewer than trial division would take.  ``_MAX_EFFORT``, read at
    each call, caps the splitter's total step count across all attempts;
    exceeding it raises FactorizationIncomplete.

    >>> str(factor(2000))
    '2^4 * 5^3'
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    counts: dict[int, int] = {}
    _factor_into(n, counts, 1)
    return Factorization(-1 if n < 0 else 1, tuple(sorted(counts.items())))


def _factor_into(n: int, counts: dict[int, int], k: int) -> None:
    # unchecked core of factor: n nonzero; adds k * v_p(n) to counts[p] for
    # every prime p | n, so several numbers can share one count table
    m = abs(n)
    for p in _trial_primes():
        if p * p > m:
            break
        if m % p == 0:
            m //= p
            j = 1
            while m % p == 0:
                m //= p
                j += 1
            counts[p] = counts.get(p, 0) + j * k
    if m > 1:
        _factor_tail(n, m, counts, k)


def _factor_tail(n: int, m: int, counts: dict[int, int], k: int) -> None:
    # unchecked tail of factor: m > 1 divides n and is prime or free of the
    # primes below 1000; adds k * v_p(m) to counts[p] for every prime p | m.
    # The budget is fresh for each call: one per number factored.
    budget = [_MAX_EFFORT]
    stack = [m]
    while stack:
        v = stack.pop()
        if v <= _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(v):
            # below 1000^2, a number free of the primes below 1000 is prime
            counts[v] = counts.get(v, 0) + k
            continue
        d = None
        for c in itertools.count(1):
            try:
                d = _brent_splitter(v, c, budget)
            except _BudgetExhausted:
                raise FactorizationIncomplete(
                    n, f"factorization of {n} exceeded effort budget at cofactor {v}"
                ) from None
            if d is not None:
                break
        stack.append(d)
        stack.append(v // d)


def _icbrt(n: int) -> int:
    # the integer cube root of n >= 0: the largest y with y^3 <= n, by
    # Newton's method from 2^ceil(bits/3), which is at least the root
    if n == 0:
        return 0
    y = 1 << -(-n.bit_length() // 3)
    while True:
        z = (2 * y + n // (y * y)) // 3
        if z >= y:
            return y
        y = z


# a run of n terms is sieved past 1000, to the cube root of its largest
# term, only while that root is at most n * _SIEVE_PER_TERM: each prime
# costs the run about the same whether it divides a term or not, while the
# Brent tail it spares is paid per term.  So a full segment of 64 cells of
# a search row is sieved to the cube root up to |e| = 64000^3 = 2.6 * 10^14
_SIEVE_PER_TERM = 1000


@functools.cache
def _sieve_primes(limit: int) -> tuple[tuple[int, int], ...]:
    # (p, 4^-1 mod p) for the odd primes up to limit: p | a - 4i iff
    # i = a/4 mod p.  The sieve asks for a power of two above its bound,
    # so a few tables serve every run
    return tuple((p, pow(4, -1, p)) for p in primes_upto(limit)[1:])


def _sieve_progression(a: int, n: int) -> tuple[list[list[tuple[int, int]]], list[int], int]:
    """The small prime factors of a, a - 4, ..., a - 4(n - 1), by sieving.

    Unchecked: n >= 1.  Returns (found, rest, y), one entry of found and
    rest per term.  With T = max |term|, the bound y is icbrt(T) when
    1000 < icbrt(T) <= n * ``_SIEVE_PER_TERM``, and 1000 otherwise.
    found[i] is (2, v_2) first, then (p, v_p) for each odd prime p <= y
    with p^2 <= T that divides term i, p ascending; rest[i] is |term i|
    with those prime powers divided out.  A zero term gets [(2, 0)] and
    rest 1.

    The 2-adic parts come off by bit operations.  An odd p divides exactly
    the terms with i = a * 4^-1 mod p, so it is tried on those alone,
    instead of every term trying every prime.

    A rest below (y + 1)^3 is 1, a prime p, a prime square p^2 or a
    product p*q of two distinct primes.  A prime p <= y left in a rest has
    p^2 > T, so it is the whole rest: any other prime q of it is smaller,
    and q*p > q^2 > T.  Otherwise every prime of the rest exceeds y, and
    three of them would make it at least (y + 1)^3.  So some prime's
    square divides such a rest exactly when the rest is a square above 1,
    and that prime is its square root.  T < (y + 1)^3, so every rest is
    below (y + 1)^3 unless icbrt(T) > n * ``_SIEVE_PER_TERM``; a rest that
    is not is free of the primes below 1000.  ``_factor_tail`` takes any
    rest as it is.
    """
    rest: list[int] = []
    found: list[list[tuple[int, int]]] = []
    for term in range(a, a - 4 * n, -4):
        m = abs(term) or 1
        v = (m & -m).bit_length() - 1
        rest.append(m >> v)
        found.append([(2, v)])
    top = max(abs(a), abs(a - 4 * (n - 1)))
    y = _icbrt(top)
    if not _TRIAL_LIMIT < y <= n * _SIEVE_PER_TERM:
        y = _TRIAL_LIMIT
    bound = min(y, isqrt(top))
    for p, inv4 in _sieve_primes(1 << bound.bit_length()):
        if p > bound:
            break
        # a while loop, not a range: most primes past n hit one term or none
        i = a * inv4 % p
        while i < n:
            m = rest[i]
            if m % p == 0:
                m //= p
                j = 1
                while m % p == 0:
                    m //= p
                    j += 1
                found[i].append((p, j))
                rest[i] = m
            i += p
    return found, rest, y


def radical(n: int) -> int:
    """Product of the distinct primes dividing |n|; radical(+-1) = 1."""
    if n == 0:
        raise ValueError("radical of 0 is undefined")
    return math.prod(factor(n).primes())


def is_squarefree(n: int) -> bool:
    """True when no prime square divides n."""
    if n == 0:
        raise ValueError("squarefreeness of 0 is undefined")
    return all(e == 1 for _, e in factor(n).factors)


def valuation(n: int, q: int) -> int:
    """Largest e with q**e dividing n (q prime, n nonzero)."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if not is_prime(q):
        raise ValueError(f"valuation base {q} is not prime")
    m, e = abs(n), 0
    while m % q == 0:
        m //= q
        e += 1
    return e
