"""Monogenicity decision and the full per-trinomial report.

A number field K = Q[x]/(f) is monogenic via f when Z[theta] is the whole
ring of integers, equivalently when disc(f) = disc(K), equivalently when no
prime dividing disc(f) divides the index [Z_K : Z[theta]].  This module runs
the prime-by-prime branch test over the factored discriminant and assembles
everything a caller might want into one immutable report with a stable
dictionary form for serialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .index_criterion import PrimeVerdict, _verdict
from .intarith import Factorization, _factor_into, factor, radical
from .trinomial import Signature, Trinomial, _c4, _irreducible, _json_form, _signature, is_c4

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
        return _json_form(self)


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

    verdicts = tuple(_verdicts(t, fact.primes()))
    blocked = any(v.divides_index for v in verdicts)
    return MonogenicityReport(
        trinomial=t,
        irreducible=True,
        c4=_c4(d, e),
        disc=disc,
        disc_factored=fact,
        verdicts=verdicts,
        monogenic=not blocked,
        field_disc=disc if not blocked else None,
        signature=_signature(b, d, e),
    )


def _verdicts(t: Trinomial, primes: Iterable[int]) -> Iterator[PrimeVerdict]:
    # the stopping rule of is_monogenic: the branch test at each prime, in
    # increasing order, until one divides the index, then placeholders.
    # Unchecked: t irreducible and the primes those of disc(t)
    rest = iter(primes)
    for q in rest:
        v = _verdict(t, q)
        yield v
        if v.divides_index:
            break
    for q in rest:
        yield PrimeVerdict.skipped(q)


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
