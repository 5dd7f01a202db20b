"""Dedekind's index criterion, used as an independent cross-check.

Shares no logic with the branch-based test in :mod:`.index_criterion`.
Write f mod q = P_1 * P_2^2 * ... as its squarefree decomposition, P_m the
monic product of the irreducible factors of multiplicity exactly m.  Let g
and h be monic integer lifts of rad(f mod q) = prod P_m and of
(f mod q)/rad(f mod q) = prod P_m^(m-1), and F = (f - g*h)/q.  Dedekind's
criterion (Cohen, *A Course in Computational Algebraic Number Theory*,
Thm 6.1.4): q divides [Z_K : Z[theta]] exactly when gcd(F, g, h) mod q is
not 1, and gcd(g, h) mod q = prod_{m >= 2} P_m.

The irreducible factors are never needed, because the verdict does not
depend on the lifts.  Other monic lifts g + q*u and h + q*v give
F' = F - (u*h + v*g) - q*u*v, so F' mod q differs from F mod q by a
multiple of gcd(g, h) mod q, and the gcd with it is unchanged.  This
module lifts each P_m with coefficients in [0, q), so g*h is the integer
product of the lifted P_m^m.  Agreement between the two routes on random and
exhaustive samples is what certifies the branch engine.

Given these lifts, the verdict depends only on (b, d) mod q^2.  The P_m
come from f mod q, and so do their lifts, g*h included.  Replacing (b, d)
by (b + i*q^2, d + j*q^2) adds q^2*(i*x^2 + j) to f and leaves g*h as it
is, so F changes by q*(i*x^2 + j), which is 0 mod q.  Both F mod q and
the P_m are therefore fixed by the class, and with them the gcd.
``oracle_check`` relies on this to compute the verdict once per class.
"""

from __future__ import annotations

from .gfq import _shares_factor, _squarefree
from .intarith import is_prime
from .trinomial import Trinomial, is_irreducible

__all__ = ["dedekind_divides_index"]


def _int_mul(a: list[int], b: tuple[int, ...]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def dedekind_divides_index(t: Trinomial, q: int) -> bool:
    """True when q divides the index of Z[theta] for theta a root of t.

    Valid for any prime q; primes outside the discriminant give False
    because f mod q is then squarefree.
    """
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if not is_irreducible(t):
        raise ValueError(f"{t} is reducible; the index test needs a quartic field")
    return _divides_index(t, q)


def _divides_index(t: Trinomial, q: int) -> bool:
    # unchecked core of dedekind_divides_index: q prime, t irreducible
    f = t.coefficients()
    # f is monic, so its reduction is already trimmed
    parts = _squarefree(q, tuple(c % q for c in f))

    lift = [1]
    for p, m in parts:
        for _ in range(m):
            lift = _int_mul(lift, p)
    if len(lift) != len(f):
        raise ArithmeticError("lift degree mismatch; f mod q must stay quartic")

    defect = []
    for fc, gc in zip(f, lift):
        quo, rem = divmod(fc - gc, q)
        if rem:
            raise ArithmeticError("lift does not reduce to f mod q")
        defect.append(quo)
    return _shares_factor(q, defect, parts)
