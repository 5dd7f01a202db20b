"""Exact enumeration of the cyclic quartic cells of a box.

x^4 + b*x^2 + d has cyclic quartic Galois group exactly when d and
e = b^2 - 4d are non-squares while d*e is a perfect square (see
:mod:`.trinomial`).  A positive square product with both factors
non-square means d and e share a squarefree part s > 1: d = s*u^2 and
e = s*v^2.  Then b^2 = e + 4d = s*(v^2 + 4u^2), so the squarefree s divides
b; writing b = s*w leaves v^2 = s*w^2 - 4u^2.  So every cyclic quartic cell
comes from a triple (s, u, w) with s > 1 squarefree, u >= 1 and
s*w^2 - 4u^2 a positive square.

Conversely, take any non-square s > 1, squarefree or not, with u >= 1 and
s*w^2 - 4u^2 = v^2 for some v >= 1.  Then d = s*u^2 and e = s*v^2 are both
non-squares and d*e = (s*u*v)^2, so (s*w, s*u^2) is a cyclic quartic cell.
The scan therefore visits every non-square s, which covers the squarefree
ones, and needs no factoring.  A cell can be reached from more than one s,
(8, 8) from (2, 2, 4) and from (8, 1, 1), and is listed once.  Listing the
triples visits about B*sqrt(D) points of a B x D box instead of all B*D
cells.
"""

from __future__ import annotations

from math import isqrt

__all__ = ["scan_c4"]


def scan_c4(b_min: int, b_max: int, d_min: int, d_max: int) -> list[tuple[int, int]]:
    """All (b, d) in the box with cyclic quartic Galois group, (b, d)-ascending."""
    out = set()
    b_abs = max(abs(b_min), abs(b_max))
    for u in range(1, isqrt(max(d_max, 0)) + 1):
        uu = u * u
        for s in range(max(2, -(-d_min // uu)), min(d_max // uu, b_abs) + 1):
            r = isqrt(s)
            if r * r == s:
                continue
            d = s * uu
            # s*w^2 > 4u^2 exactly when |w| > isqrt(4u^2 // s)
            w_abs = isqrt(4 * uu // s) + 1
            for w in range(-(-b_min // s), b_max // s + 1):
                if -w_abs < w < w_abs:
                    continue
                vv = s * w * w - 4 * uu
                v = isqrt(vv)
                if v * v == vv:
                    out.add((s * w, d))
    return sorted(out)
