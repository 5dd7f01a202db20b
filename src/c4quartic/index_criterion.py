"""Prime-by-prime freeness test for the index of Z[theta] in the ring of integers.

For an irreducible f = x^4 + b*x^2 + d and a prime q dividing disc(f), this
module decides whether q divides the index [Z_K : Z[theta]].  f is monogenic
exactly when no such q divides the index.  The decision splits into five
mutually exclusive branches on the divisibility pattern of (b, d) by q:

  1. q | b, q | d          index-free iff q^2 does not divide d
  2. q = 2, 2 | b, 2 ∤ d   two-disjunct test on b2 = b/2 and d1 = (d + d^4)/2
  3. q ∤ b, q | d          index-free iff q | b1 and q ∤ d2, where d2 = d/q and
                           b1 = (b + (-b)^s)/q with s = 2 at q = 2, else 1
  4. q = 2, 2 ∤ b*d        coprimality over GF(2) of x^2 + b*x + d and
                           (b*x^2 + d + (b*x + d)^2)/2
  5. q ∤ 2*b*d             index-free iff q^2 does not divide b^2 - 4*d

These are the arms of the trinomial criterion of Jakhar, Khanduja and
Sangwan that can fire on this shape.  Branch 2 is q = 2 only: an odd q with
q | b and q ∤ d has b^2 - 4d = -4d, a unit mod q, so q ∤ disc(f).  Branch 3
drops the second disjunct, b1*d2*(d2 - b*b1) a unit mod q, which never
holds: b1 = 0 at odd q, and at q = 2 odd b1 and d2 make d2 - b*b1 even.

All intermediate divisions are exact by construction; a nonzero remainder,
or an odd prime reaching branch 2, would mean the branch dispatch is wrong,
so it raises ArithmeticError rather than returning a wrong verdict.
Verdicts carry their branch, intermediates, and (for branch 4) the two GF(2)
polynomials and their gcd as coefficient tuples, lowest degree first, so a
caller can show its work.

A JSON search line builds no verdict: ``_verdict_texts`` writes each
verdict's text straight from (b, d, e) by the closed form of
``_least_index_prime``, and this engine is its independent oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .gfq import Coeffs, _gcd, _trim
from .intarith import is_prime
from .trinomial import Trinomial, _json_form, discriminant, is_irreducible

__all__ = [
    "BranchIntermediates",
    "PrimeVerdict",
    "prime_index_test",
]


@dataclass(frozen=True)
class BranchIntermediates:
    """Derived quantities for branches 2 and 3; unused fields stay None.

    ``disjunct`` records which of the two alternatives certified freeness
    (1 or 2, left to right), or None when both failed.
    """

    b1: int | None = None
    b2: int | None = None
    d1: int | None = None
    d2: int | None = None
    s: int | None = None
    disjunct: int | None = None

    def to_dict(self) -> dict:
        return _json_form(self)


@dataclass(frozen=True)
class PrimeVerdict:
    """Outcome of the index test at one prime.

    ``evaluated`` is False for primes that were never tested because an
    earlier prime already divided the index; such placeholder verdicts
    claim nothing about divisibility.
    """

    prime: int
    evaluated: bool
    divides_index: bool
    branch: int | None
    intermediates: BranchIntermediates | None = None
    h1: Coeffs | None = None
    h2: Coeffs | None = None
    h_gcd: Coeffs | None = None

    @classmethod
    def skipped(cls, prime: int) -> "PrimeVerdict":
        """The placeholder for a prime left untested after an earlier one divided the index."""
        return cls(prime=prime, evaluated=False, divides_index=False, branch=None)

    def to_dict(self) -> dict:
        return _json_form(self)


def _exact_div(num: int, q: int) -> int:
    quo, rem = divmod(num, q)
    if rem:
        raise ArithmeticError(f"{num} is not divisible by {q}; branch dispatch is broken")
    return quo


def _branch_1(t: Trinomial, q: int) -> PrimeVerdict:
    return PrimeVerdict(q, True, t.d % (q * q) == 0, 1)


def _branch_2(t: Trinomial) -> PrimeVerdict:
    # q = 2 only, so s = 4 and (-d)^4 = d^4
    b2 = _exact_div(t.b, 2)
    d1 = _exact_div(t.d + t.d**4, 2)
    if b2 % 2 == 0 and d1 % 2 != 0:
        disjunct = 1
    elif (b2 * (-t.d * b2 * b2 - d1 * d1)) % 2 != 0:
        disjunct = 2
    else:
        disjunct = None
    inter = BranchIntermediates(b2=b2, d1=d1, s=4, disjunct=disjunct)
    return PrimeVerdict(2, True, disjunct is None, 2, inter)


def _branch_3(t: Trinomial, q: int) -> PrimeVerdict:
    s = 2 if q == 2 else 1
    b1 = _exact_div(t.b + (-t.b) ** s, q)
    d2 = _exact_div(t.d, q)
    # no second disjunct: b1*d2*(d2 - b*b1) is never a unit mod q, since
    # b1 = 0 at odd q and odd b1, d2 make d2 - b*b1 even at q = 2
    disjunct = 1 if b1 % q == 0 and d2 % q != 0 else None
    inter = BranchIntermediates(b1=b1, d2=d2, s=s, disjunct=disjunct)
    return PrimeVerdict(q, True, disjunct is None, 3, inter)


def _branch_4(b: int, d: int) -> PrimeVerdict:
    # called with (b, d) mod 4: h1 and h2 reduced mod 2 depend on nothing more
    h1 = _trim(2, (d, b, 1))
    h2 = _trim(2, (_exact_div(d * (1 + d), 2), b * d, _exact_div(b * (1 + b), 2)))
    g = _gcd(2, h1, h2)
    return PrimeVerdict(2, True, len(g) > 1, 4, h1=h1, h2=h2, h_gcd=g)


def _branch_5(t: Trinomial, q: int) -> PrimeVerdict:
    e = t.b * t.b - 4 * t.d
    return PrimeVerdict(q, True, e % (q * q) == 0, 5)


def _verdict(t: Trinomial, q: int) -> PrimeVerdict:
    # unchecked branch dispatch: q prime, t irreducible and q | disc(t)
    b_div, d_div = t.b % q == 0, t.d % q == 0
    if b_div and d_div:
        return _branch_1(t, q)
    if b_div:
        if q != 2:
            raise ArithmeticError(f"{t} at odd {q} reached branch 2; dispatch is broken")
        return _branch_2(t)
    if d_div:
        return _branch_3(t, q)
    if q == 2:
        return _branch_4(t.b % 4, t.d % 4)
    return _branch_5(t, q)


# the classes of (b mod 4, d mod 4) on which 2 divides the index; see
# _least_index_prime for the derivation from branches 1 to 4
_FAILS_AT_2 = frozenset({(0, 0), (2, 0), (0, 3), (2, 1), (1, 0), (1, 2), (3, 0), (1, 1)})


def _least_index_prime(
    b: int, d: int, d_counts: dict[int, int], e_counts: Iterable[tuple[int, int]]
) -> int | None:
    """The least prime dividing the index among 2 and the primes listed, or None.

    Unchecked: x^4 + b*x^2 + d is irreducible (so d and e = b^2 - 4d are
    nonzero); ``d_counts`` maps odd primes p to v_p(d), and ``e_counts``
    holds pairs (p, v_p(e)).  Entries for 2 are not read, and a prime whose
    valuation is at most 1 may be left out.  Its one caller,
    ``search._record``, has both at hand: d's exponents, and the primes of
    e a walk has found (the dense walk's segment sieve, or the C4 walk's
    full factorization), with the prime square a square test finds in the
    rest of e, or the Brent tail's primes of that rest, added.

    The five branches reduce to a closed form, prime by prime:

    - At 2 (2 always divides disc = 16*d*e^2) the verdict depends only on
      (b, d) mod 4, and 2 divides the index on 8 of the 16 classes:
      - branch 1 (b, d even): exactly when 4 | d, the classes (0, 0), (2, 0);
      - branch 2 (b even, d odd): b2 = b/2 and d1 = (d + d^4)/2, where d1 is
        odd exactly when d = 1 mod 4.  With 4 | b, b2 is even, so only the
        first disjunct can hold, and it fails at (0, 3).  With b = 2 mod 4,
        b2 is odd, the second disjunct's factor -d*b2^2 - d1^2 = 1 + d1
        (mod 2) is odd exactly when d1 is even, and it fails at (2, 1);
      - branch 3 (b odd, d even): b1 = b(b + 1)/2 is even exactly when
        b = 3 mod 4, and d2 = d/2 is odd exactly when d = 2 mod 4, so it
        fails everywhere but (3, 2): at (1, 0), (1, 2), (3, 0);
      - branch 4 (b, d odd): h1 = x^2 + x + 1 is irreducible over GF(2), and
        h2 = d(1 + d)/2 + x + b(1 + b)/2 * x^2 equals it exactly at (1, 1).
    - At an odd q:
      - q | d: branch 1 (q | b) fails exactly when q^2 | d, and so does
        branch 3 (q ∤ b), since b1 = (b - b)/q = 0 leaves the test on
        d2 = d/q;
      - q ∤ d: branch 2 never meets an odd q (q | b makes e = -4d a unit
        mod q), and branch 5 fails exactly when q^2 | e.
      So q divides the index exactly when q^2 | d, or q ∤ d and q^2 | e,
      and the test needs no q ∤ d: q | d and q^2 | e force q | b, hence
      q^2 | b^2 - e = 4d.  A q with q^2 | d or q^2 | e divides disc, so
      these are all the odd primes dividing the index.

    Every prime returned divides the index.  It is the cell's failing
    prime, the least prime dividing the index, when the tables list every
    q below it with q^2 | d or q^2 | e: with the full factorizations of d
    and e (a C4 cell, or any cell after the Brent tail) that holds
    everywhere, and None then means monogenic.  Before the tail, a cell of
    the dense walk has all of d and the primes of e up to the sieve's bound
    y.  Where the rest of e is below (y + 1)^3 it is 1, p, p^2 or p*q for
    primes past the sieve (see ``intarith._sieve_progression``), so the
    square test adds the only q^2 | e the sieve missed, and the answer
    holds everywhere with no factoring.  Past (y + 1)^3, where y = 1000,
    it holds for an answer below 1000; ``search._record`` lets the tail
    decide any other.
    """
    if (b % 4, d % 4) in _FAILS_AT_2:
        return 2
    pairs = itertools.chain(d_counts.items(), e_counts)
    return min((p for p, j in pairs if j > 1 and p > 2), default=None)


# the h1, h2 and h_gcd of a branch 4 verdict by (b, d) mod 4, both odd:
# h1 = x^2 + x + 1 and h2 = d(1 + d)/2 + x + b(1 + b)/2 * x^2 over GF(2),
# whose gcd is h1 exactly at (1, 1), as _least_index_prime derives
_BRANCH_4_POLYS = {
    (1, 1): ',"h1":[1,1,1],"h2":[1,1,1],"h_gcd":[1,1,1]',
    (1, 3): ',"h1":[1,1,1],"h2":[0,1,1],"h_gcd":[1]',
    (3, 1): ',"h1":[1,1,1],"h2":[1,1],"h_gcd":[1]',
    (3, 3): ',"h1":[1,1,1],"h2":[0,1],"h_gcd":[1]',
}

# the disjunct of branch 2 that certifies freeness by (b, d) mod 4, b even and
# d odd; (0, 3) and (2, 1) have none
_BRANCH_2_DISJUNCT = {(0, 1): ',"disjunct":1', (2, 3): ',"disjunct":2'}


def _verdict_texts(b: int, d: int, e: int, primes: Iterable[int]) -> tuple[list[str], bool]:
    """The JSON text of the cell's verdict at each prime, and whether none divides the index.

    Each text is the bytes of the compact JSON encoding of the engine's
    verdict's ``to_dict()``, written from (b, d, e) by the closed form of
    ``_least_index_prime`` with no verdict built.  Unchecked: x^4 + b*x^2 + d
    is irreducible, e = b^2 - 4d, and ``primes`` are primes dividing its
    discriminant, in increasing order.  As in ``monogenic._verdicts``, the
    primes after the first that divides the index get placeholder texts.

    - At 2 the branch is read off the parities of b and d, and the rest off
      (b, d) mod 4: whether 2 divides the index (``_FAILS_AT_2``), the
      disjunct of branches 2 and 3, and the polynomials of branch 4.
    - At an odd q, q | d gives branch 1 (q | b) or branch 3, where b1 = 0,
      and q fails exactly when q^2 | d; otherwise q | e, and branch 5 fails
      exactly when q^2 | e.
    """
    texts = []
    rest = iter(primes)
    for q in rest:
        tail = ""
        if q == 2:
            cls = b % 4, d % 4
            fails = cls in _FAILS_AT_2
            if b % 2 == 0 and d % 2 == 0:
                branch = 1
            elif b % 2 == 0:
                branch = 2
                disjunct = _BRANCH_2_DISJUNCT.get(cls, "")
                tail = f',"intermediates":{{"b2":{b // 2},"d1":{(d + d**4) // 2},"s":4{disjunct}}}'
            elif d % 2 == 0:
                branch = 3
                disjunct = "" if fails else ',"disjunct":1'
                tail = f',"intermediates":{{"b1":{(b + b * b) // 2},"d2":{d // 2},"s":2{disjunct}}}'
            else:
                branch = 4
                tail = _BRANCH_4_POLYS[cls]
        elif d % q == 0:
            fails = d % (q * q) == 0
            branch = 1 if b % q == 0 else 3
            if branch == 3:
                disjunct = "" if fails else ',"disjunct":1'
                tail = f',"intermediates":{{"b1":0,"d2":{d // q},"s":1{disjunct}}}'
        else:
            fails = e % (q * q) == 0
            branch = 5
        flag = "true" if fails else "false"
        texts.append(f'{{"prime":{q},"evaluated":true,"divides_index":{flag},"branch":{branch}{tail}}}')
        if fails:
            texts.extend(
                f'{{"prime":{p},"evaluated":false,"divides_index":false,"branch":null}}' for p in rest
            )
            return texts, False
    return texts, True


def prime_index_test(t: Trinomial, q: int) -> PrimeVerdict:
    """Decide whether the prime q divides the index of x^4 + b*x^2 + d.

    Requires q prime, t irreducible, and q | disc(t); primes outside the
    discriminant never divide the index, so asking about one is a bug.
    """
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if not is_irreducible(t):
        raise ValueError(f"{t} is reducible; the index test needs a quartic field")
    if discriminant(t) % q != 0:
        raise ValueError(f"{q} does not divide disc({t})")
    return _verdict(t, q)
