"""Dedekind's index criterion, used as an independent cross-check.

Shares no logic with the branch-based test in :mod:`.index_criterion`: this
route factors f mod q, lifts the factorization back to Z canonically, and
inspects the defect (f - lift)/q.  The prime q divides [Z_K : Z[theta]]
exactly when that defect, reduced mod q, shares a factor with the repeated
part of f mod q.  Agreement between the two routes on random and exhaustive
samples is what certifies the branch engine.
"""

from __future__ import annotations

from .gfq import GfPoly, gf_factor, gf_gcd, gf_mul
from .intarith import is_prime
from .trinomial import Trinomial, is_irreducible

__all__ = ["dedekind_divides_index"]


def _int_mul(a: list[int], b: list[int]) -> list[int]:
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

    f = list(t.coefficients())
    fbar = GfPoly(q, tuple(f))
    factors = gf_factor(fbar)

    # canonical lift of the full factorization, multiplied out over Z
    lift = [1]
    for g, e in factors:
        for _ in range(e):
            lift = _int_mul(lift, list(g.coeffs))
    if len(lift) != len(f):
        raise ArithmeticError("lift degree mismatch; f mod q must stay quartic")

    defect = []
    for fc, gc in zip(f, lift):
        quo, rem = divmod(fc - gc, q)
        if rem:
            raise ArithmeticError("lift does not reduce to f mod q")
        defect.append(quo)
    defect_bar = GfPoly(q, tuple(defect))

    repeated = GfPoly(q, (1,))
    for g, e in factors:
        if e >= 2:
            repeated = gf_mul(repeated, g)
    return gf_gcd(defect_bar, repeated).degree > 0
