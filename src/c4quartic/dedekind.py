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

Given these lifts, the route has two steps at two classes.  The P_m come
from f mod q, and so do their lifts, g*h included: ``_lift`` depends only
on (b, d) mod q.  The verdict depends only on (b, d) mod q^2.  Replacing
(b, d) by (b + i*q^2, d + j*q^2) adds q^2*(i*x^2 + j) to f and leaves g*h
as it is, so F changes by q*(i*x^2 + j), which is 0 mod q.  Both F mod q
and the P_m are therefore fixed by the class, and with them the gcd.
``oracle_check`` relies on this to run ``_lift`` once per class mod q and
``_divides_index`` once per class mod q^2.  A lift from another class
mod q does not reduce to f mod q, and ``_divides_index`` raises on it.
"""

from __future__ import annotations

from .gfq import Coeffs, _gcd, _mul, _squarefree, _trim
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
    return _divides_index(t, q, _lift(q, t.b, t.d))


def _lift(q: int, b: int, d: int) -> tuple[tuple[int, ...], Coeffs]:
    # unchecked first step, a function of (b mod q, d mod q): the integer
    # product g*h of the lifted P_m^m and R = prod_{m >= 2} P_m mod q
    parts = _squarefree(q, (d % q, 0, b % q, 0, 1))
    lift = [1]
    repeated: Coeffs = (1,)
    for p, m in parts:
        for _ in range(m):
            lift = _int_mul(lift, p)
        if m >= 2:
            repeated = _mul(q, repeated, p)
    if len(lift) != 5:
        raise ArithmeticError("lift degree mismatch; f mod q must stay quartic")
    return tuple(lift), repeated


def _divides_index(t: Trinomial, q: int, lifted: tuple[tuple[int, ...], Coeffs]) -> bool:
    # unchecked second step: q prime, t irreducible, lifted = _lift(q, t.b, t.d)
    lift, repeated = lifted
    defect = []
    for fc, gc in zip(t.coefficients(), lift):
        quo, rem = divmod(fc - gc, q)
        if rem:
            raise ArithmeticError("lift does not reduce to f mod q")
        defect.append(quo)
    return len(_gcd(q, _trim(q, defect), repeated)) > 1
