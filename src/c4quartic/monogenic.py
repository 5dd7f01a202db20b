"""Monogenicity decision and the full per-trinomial report.

A number field K = Q[x]/(f) is monogenic via f when Z[theta] is the whole
ring of integers, equivalently when disc(f) = disc(K), equivalently when no
prime dividing disc(f) divides the index [Z_K : Z[theta]].  This module runs
the prime-by-prime branch test over the factored discriminant and assembles
everything a caller might want into one immutable report with a stable
dictionary form for serialization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

from .index_criterion import PrimeVerdict, _verdict
from .intarith import (
    Factorization,
    FactorizationIncomplete,
    _factor_into,
    _factor_tail,
    _trial_primes,
    factor,
    isqrt,
    radical,
)
from .trinomial import Signature, Trinomial, _c4, _irreducible, _signature, is_c4

__all__ = [
    "DegenerateTrinomialError",
    "MonogenicityReport",
    "StructuralConstraints",
    "factor_discriminant",
    "is_monogenic",
    "structural_constraints",
]


class DegenerateTrinomialError(ValueError):
    """Raised for d = 0, where x^4 + b*x^2 is not even squarefree."""


def factor_discriminant(t: Trinomial) -> Factorization:
    """Factor disc(t) = 16 * d * (b^2 - 4d)^2 by factoring the small pieces.

    Never factors the discriminant itself: 2^4, the exponents of d, and
    those of b^2 - 4d (doubled) go into one count table, keeping inputs to
    the integer factorizer box-sized.  d is factored first, each piece on a
    budget of its own.
    """
    d = t.d
    e = t.b * t.b - 4 * d
    if d == 0 or e == 0:
        raise ValueError(f"disc({t}) = 0 has no prime factorization")
    counts = {2: 4}
    _factor_into(d, counts, 1)
    _factor_into(e, counts, 2)
    return Factorization(-1 if d < 0 else 1, tuple(sorted(counts.items())))


# cells per sieve segment along a row: a segment is sieved before its first
# cell is handed out, so it bounds the work done ahead of the first line
_SEGMENT = 64


@functools.cache
def _sieve_primes() -> tuple[tuple[int, int], ...]:
    # (p, 4^-1 mod p) for the odd trial primes: p | b^2 - 4d iff d = b^2/4 mod p
    return tuple((p, pow(4, -1, p)) for p in _trial_primes()[1:])


class _BoxFactorizer:
    """``factor_discriminant`` for every cell of one walk over a d-range.

    Unchecked, and meant to live for one box walk.  Each d is factored once,
    on first use, and kept (or its give-up kept) for every later row.  Along
    a row, e = b^2 - 4d is factored segment by segment: the 2-adic part by
    bit operations, then each odd prime p < 1000 with p^2 <= max |e| of the
    segment divides out of exactly the cells with d = b^2/4 mod p.  What is
    left of e is prime or free of the primes below 1000, and goes to the
    factorizer's Brent tail, as in ``factor``.
    """

    def __init__(self, d_min: int, d_max: int):
        self._d_min = d_min
        self._d_max = d_max
        # d -> {2: 4} plus the exponents of d, or the give-up factoring d raised
        self._d: dict[int, dict[int, int] | FactorizationIncomplete] = {}

    def _d_counts(self, d: int) -> dict[int, int] | FactorizationIncomplete:
        got = self._d.get(d)
        if got is None:
            got = {2: 4}
            try:
                _factor_into(d, got, 1)
            except FactorizationIncomplete as exc:
                got = exc
            self._d[d] = got
        return got

    def row(self, b: int) -> Iterator[Factorization | FactorizationIncomplete | None]:
        """``factor_discriminant(Trinomial(b, d))`` for each d of the range, in order.

        A cell gets None where d = 0 or e = 0 (there is nothing to factor),
        and the ``FactorizationIncomplete`` that ``factor_discriminant``
        would raise where the factorizer gives up.
        """
        bb = b * b
        for lo in range(self._d_min, self._d_max + 1, _SEGMENT):
            yield from self._segment(bb, lo, min(lo + _SEGMENT, self._d_max + 1))

    def _segment(
        self, bb: int, lo: int, hi: int
    ) -> Iterator[Factorization | FactorizationIncomplete | None]:
        # cells d in [lo, hi): only e's small primes are found before the
        # first cell is handed out; d and the rest of e wait for their cell.
        # rest[i] is what is left of |e| (1 where e = 0, which no p divides)
        # and found[i] the (p, v_p(e)) divided out of it, 2 first
        rest: list[int] = []
        found: list[list[tuple[int, int]]] = []
        for e in range(bb - 4 * lo, bb - 4 * hi, -4):
            m = abs(e) or 1
            v = (m & -m).bit_length() - 1
            rest.append(m >> v)
            found.append([(2, v)])
        n = hi - lo
        bound = isqrt(max(abs(bb - 4 * lo), abs(bb - 4 * (hi - 1))))
        for p, inv4 in _sieve_primes():
            if p > bound:
                break
            for i in range((bb * inv4 - lo) % p, n, p):
                m = rest[i]
                if m % p == 0:
                    m //= p
                    j = 1
                    while m % p == 0:
                        m //= p
                        j += 1
                    found[i].append((p, j))
                    rest[i] = m
        for i in range(n):
            d = lo + i
            e = bb - 4 * d
            if d == 0 or e == 0:
                yield None
                continue
            got = self._d_counts(d)
            if not isinstance(got, dict):
                yield got
                continue
            counts = dict(got)
            for p, j in found[i]:
                counts[p] = counts.get(p, 0) + 2 * j
            if rest[i] > 1:
                try:
                    _factor_tail(e, rest[i], counts, 2)
                except FactorizationIncomplete as exc:
                    yield exc
                    continue
            yield Factorization(-1 if d < 0 else 1, tuple(sorted(counts.items())))


@dataclass(frozen=True)
class MonogenicityReport:
    """Everything decided about one trinomial, in decision order.

    For reducible input the verdict tuple is empty and the c4/monogenic
    flags are False; ``field_disc`` is disc(t) when monogenic and None
    otherwise; ``disc_factored`` is None only when disc(t) = 0.
    """

    trinomial: Trinomial
    irreducible: bool
    c4: bool
    disc: int
    disc_factored: Factorization | None
    verdicts: tuple[PrimeVerdict, ...]
    monogenic: bool
    field_disc: int | None
    signature: Signature | None

    def failing_prime(self) -> int | None:
        """The prime whose verdict sank monogenicity, if any."""
        for v in self.verdicts:
            if v.evaluated and v.divides_index:
                return v.prime
        return None

    def to_dict(self) -> dict:
        return {
            "trinomial": {"b": self.trinomial.b, "d": self.trinomial.d},
            "irreducible": self.irreducible,
            "c4": self.c4,
            "disc": self.disc,
            "disc_factored": None
            if self.disc_factored is None
            else {
                "sign": self.disc_factored.sign,
                "factors": [[p, e] for p, e in self.disc_factored.factors],
            },
            "verdicts": [v.to_dict() for v in self.verdicts],
            "monogenic": self.monogenic,
            "field_disc": self.field_disc,
            "signature": None
            if self.signature is None
            else {"r1": self.signature.r1, "r2": self.signature.r2},
        }


def is_monogenic(t: Trinomial) -> MonogenicityReport:
    """Decide monogenicity of x^4 + b*x^2 + d and report the evidence.

    Primes dividing the discriminant are tested in increasing order and
    the scan stops at the first one dividing the index; later primes get
    placeholder verdicts marked unevaluated.

    One pass: e, disc(t) and the factorization are computed once, and the
    unchecked branch test runs at each prime, whose preconditions hold by
    construction (t irreducible, q a certified prime factor of disc(t)).
    """
    if t.d == 0:
        raise DegenerateTrinomialError(f"{t} has d = 0; its root generates no quartic order")
    return _report(t, None if t.b * t.b == 4 * t.d else factor_discriminant(t))


def _report(t: Trinomial, fact: Factorization | None) -> MonogenicityReport:
    # unchecked core of is_monogenic: t.d != 0, and fact is
    # factor_discriminant(t), or None when disc(t) = 0
    b, d = t.b, t.d
    e = b * b - 4 * d
    disc = 16 * d * e * e
    if not _irreducible(b, d, e):
        return MonogenicityReport(t, False, False, disc, fact, (), False, None, None)

    verdicts: list[PrimeVerdict] = []
    blocked = False
    for q in fact.primes():
        if blocked:
            verdicts.append(PrimeVerdict.skipped(q))
        else:
            v = _verdict(t, q)
            verdicts.append(v)
            blocked = v.divides_index
    return MonogenicityReport(
        trinomial=t,
        irreducible=True,
        c4=_c4(d, e),
        disc=disc,
        disc_factored=fact,
        verdicts=tuple(verdicts),
        monogenic=not blocked,
        field_disc=disc if not blocked else None,
        signature=_signature(b, d, e),
    )


@dataclass(frozen=True)
class StructuralConstraints:
    """Shape constraints that every monogenic cyclic quartic trinomial obeys.

    With e = b^2 - 4d: d is positive and squarefree, d divides b, e >= 2,
    and d and e share the same radical.
    """

    d_positive: bool
    d_squarefree: bool
    d_divides_b: bool
    e_at_least_two: bool
    same_radical: bool

    @property
    def all_pass(self) -> bool:
        return (
            self.d_positive
            and self.d_squarefree
            and self.d_divides_b
            and self.e_at_least_two
            and self.same_radical
        )


def structural_constraints(t: Trinomial) -> StructuralConstraints:
    """Evaluate the five shape constraints on a cyclic quartic trinomial."""
    if not is_c4(t):
        raise ValueError(f"{t} is not a cyclic quartic; constraints do not apply")
    e = t.b * t.b - 4 * t.d
    # d is factored once for both of its checks
    fd = factor(t.d)
    return StructuralConstraints(
        d_positive=t.d > 0,
        d_squarefree=all(k == 1 for _, k in fd.factors),
        d_divides_b=t.b % t.d == 0,
        e_at_least_two=e >= 2,
        same_radical=math.prod(fd.primes()) == radical(e),
    )
