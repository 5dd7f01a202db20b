"""Exact enumeration of the cyclic quartic cells of a box.

**The cells.**  x^4 + b*x^2 + d has cyclic quartic Galois group exactly
when d and e = b^2 - 4d are non-squares while d*e is a perfect square (see
:mod:`.trinomial`).  A positive square product with both factors non-square
means d and e share a squarefree part s > 1: d = s*u^2 and e = s*v^2 with
u, v >= 1.  Then b^2 = e + 4d = s*(v^2 + 4u^2), so the squarefree s divides
b; writing b = s*w leaves

    v^2 + (2u)^2 = s*w^2.                                           (*)

Conversely, take any non-square s > 1, squarefree or not, and u, v >= 1
satisfying (*).  Then d = s*u^2 and e = s*v^2 are both non-squares and
d*e = (s*u*v)^2, so (s*w, s*u^2) is a cyclic quartic cell.  So a scan may
list solutions of (*) for any non-square s, as long as it reaches every
squarefree one: it then lists every cell, and nothing else.

**No prime p = 3 (mod 4) divides s.**  If one did, v^2 + 4u^2 = 0 (mod p)
with -1 a non-residue mod p forces p | v and p | u; then p^2 | s*w^2 with
s squarefree gives p | w, and (s, u/p, v/p, w/p) solves (*) again.  By
descent p^k | u for every k, which is impossible with u >= 1.

**The solutions of (*) in Z[i].**  (*) says N(z) = s*w^2 for the Gaussian
integer z = v + 2u*i.  Let c = gcd(v, 2u) and z = c*z0, so z0 is
primitive (no rational prime divides it).  From c^2 | s*w^2 with s
squarefree, c | w, so N(z0) = s*w0^2 with w0 = |w|/c.  In the unique
factorization domain Z[i] a primitive z0 is divisible by 1 + i at most
once, by no p = 3 (mod 4), and, for each p = pi*conj(pi) = 1 (mod 4), by
one of pi, conj(pi) only.  So z0 = unit * (1+i)^eps * prod pi_j^a_j and
N(z0) = 2^eps * prod p_j^a_j = s*w0^2; since s is squarefree, a_j is odd
exactly when p_j | s, and w0 is odd.  Hence

    z0 = unit * sigma * q^2,   N(sigma) = s,   N(q) = w0 odd,

with sigma = (1+i)^eps * prod_{a_j odd} pi_j and q = prod pi_j^(a_j // 2),
both primitive.  Units are absorbed by taking sigma = B + C*i with B >= 1,
C >= 0, gcd(B, C) = 1, and q = m + n*i with m >= 1, n >= 0, gcd(m, n) = 1
and m + n odd (N(q) odd).  Writing X + Y*i = sigma*q^2, which must then be
primitive, (v, 2u) is c*(|X|, |Y|) or c*(|Y|, |X|).  The second case is
the first for the pair (C + B*i, n + m*i), which the walk also takes:
(C + B*i)*(n + m*i)^2 = -i*conj(sigma*q^2) = -Y - X*i.  So each cell is

    (b, d) = (+-s*c*N(q), s*(c*|Y|/2)^2)   with c*Y even.

:func:`_scan_gaussian` walks exactly these (sigma, q, c).  Every point it
produces satisfies (*) with w = c*N(q), so it is a cell.

**Non-squarefree s adds only repeats.**  The walk takes every primitive
sigma of non-square norm and never factors it.  When N(sigma) is not
squarefree, some pi^2 divides sigma (primitivity rules out 2^2 and
pi*conj(pi)), so sigma = pi^2*sigma' and sigma*q^2 = sigma'*(pi*q)^2.
Such a point is still a cell, and every cell is reached through its
squarefree s, so the repeat is absorbed by the set that collects the
cells.  No sieve and no per-s table are needed; memory is O(output).

**Bounds.**  |b| = s*c*N(q) >= s and d = s*u^2 >= s, so
s <= S = min(max|b|, d_max), and s*N(q) <= max|b|.  d bounds only
u = c*h/2, not q: h may be small while N(q) is large, since
v <= sqrt(s)*|w|.  So the Gaussian walk takes about S points sigma and
B*log S pairs (sigma, q) for B = max|b|, however narrow the box is.

**Three routes.**  :func:`_scan_triples` walks (s, u, w) directly: every
non-square s and u with s*u^2 in the d-range, every w with s*w in the
b-range, keeping those where s*w^2 - 4u^2 is a positive square.  Its cost
is the sum over (u, s) of 1 + width_b/s, which is small for a narrow
b-strip far from the origin, where B*log S is huge.  Both walks still
visit every u <= sqrt(d_max), so on a small box far out, such as one cell
at d = 5*400003^2, :func:`_scan_cells` is cheaper still: it tests each
cell as :func:`.trinomial.is_c4` does.  :func:`scan_c4` estimates the
three costs from the box alone, in units of one w step, and runs the
cheapest route:

- Gaussian: about 2.5*S for the points sigma, plus 0.13*log2(S) per unit
  of B for the pairs (sigma, q), plus 2.4 steps for each pair that has a
  multiple in the |b| range (:func:`_gaussian_cost`);
- triples: 4 steps per u, 2 per s and width_b/s per s, summed over a
  sample of the u (:func:`_triples_cost`);
- cells: 9 steps per cell of the box.

The weights were fitted to timings of the walks on 192 box shapes, and of
one cell test (1.65 us against 0.18 us per w step); they decide only the
speed.  All three routes are exact and return the same list.
"""

from __future__ import annotations

from math import gcd, isqrt

from .trinomial import _c4

__all__ = ["scan_c4"]

# the cost of testing one cell with _c4, in w steps of _scan_triples
_CELL_STEPS = 9


def scan_c4(b_min: int, b_max: int, d_min: int, d_max: int) -> list[tuple[int, int]]:
    """All (b, d) in the box with cyclic quartic Galois group, (b, d)-ascending."""
    return _route(b_min, b_max, d_min, d_max)(b_min, b_max, d_min, d_max)


def _route(b_min: int, b_max: int, d_min: int, d_max: int):
    """The route with the smallest estimated cost on this box."""
    triples = _triples_cost(b_min, b_max, d_min, d_max)
    gaussian = _gaussian_cost(b_min, b_max, d_max)
    cells = _CELL_STEPS * (b_max - b_min + 1) * (d_max - d_min + 1)
    if cells < min(triples, gaussian):
        return _scan_cells
    return _scan_triples if triples < gaussian else _scan_gaussian


def _scan_gaussian(b_min: int, b_max: int, d_min: int, d_max: int) -> list[tuple[int, int]]:
    """The cells as (+-s*c*N(q), s*(c*Y/2)^2) from X + Y*i = sigma*q^2."""
    out = set()
    b_lo, b_abs = _abs_b_range(b_min, b_max)
    s_max = min(b_abs, d_max)
    d4 = 4 * d_max
    for B in range(1, isqrt(max(s_max, 0)) + 1):
        for C in range(isqrt(s_max - B * B) + 1):
            s = B * B + C * C
            r = isqrt(s)
            if r * r == s or gcd(B, C) != 1:
                continue
            n_max = b_abs // s
            for m in range(1, isqrt(n_max) + 1):
                mm = m * m
                for n in range(1 - m % 2, isqrt(n_max - mm) + 1, 2):
                    t = s * (mm + n * n)
                    # multipliers c with c*t in the box's |b| range
                    c_lo = -(-b_lo // t)
                    c_hi = b_abs // t
                    if c_lo > c_hi or gcd(m, n) != 1:
                        continue
                    re = mm - n * n
                    im = 2 * m * n
                    x = B * re - C * im
                    y = B * im + C * re
                    # u >= |y|/2 puts d past d_max; coprime also means
                    # nonzero here, as N(sigma*q^2) > 1
                    if s * y * y > d4 or gcd(x, y) != 1:
                        continue
                    # c = g*k with c*y even, and d = a*k^2
                    if y % 2:
                        g, a = 2, s * y * y
                    else:
                        g, a = 1, s * (y // 2) ** 2
                    k_lo = max(-(-c_lo // g), isqrt(-(-max(d_min, 1) // a) - 1) + 1)
                    k_hi = min(c_hi // g, isqrt(d_max // a))
                    for k in range(k_lo, k_hi + 1):
                        b = g * t * k
                        d = a * k * k
                        if b <= b_max:
                            out.add((b, d))
                        if -b >= b_min:
                            out.add((-b, d))
    return sorted(out)


def _scan_triples(b_min: int, b_max: int, d_min: int, d_max: int) -> list[tuple[int, int]]:
    """The cells as (s*w, s*u^2) with s*w^2 - 4u^2 a positive square."""
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


def _scan_cells(b_min: int, b_max: int, d_min: int, d_max: int) -> list[tuple[int, int]]:
    """The cells that pass the test of :func:`.trinomial.is_c4`, one by one."""
    return [
        (b, d)
        for b in range(b_min, b_max + 1)
        for d in range(d_min, d_max + 1)
        if _c4(d, b * b - 4 * d)
    ]


def _abs_b_range(b_min: int, b_max: int) -> tuple[int, int]:
    """The least and the greatest |b| of a nonzero b in [b_min, b_max]."""
    return (b_min if b_min > 0 else -b_max if b_max < 0 else 1), max(-b_min, b_max)


def _log2_256(x: int) -> int:
    """About 256*log2(x) for x >= 1, linear between powers of 2."""
    n = x.bit_length() - 1
    return (n << 8) + (x << 8 >> n) - 256


def _ln_ratio(x: int, hi: int, lo: int) -> int:
    """About x*ln(hi/lo) for hi, lo >= 1; ln(2)/256 is about 177/65536."""
    return x * (_log2_256(hi) - _log2_256(lo)) * 177 // 65536


def _gaussian_cost(b_min: int, b_max: int, d_max: int) -> int:
    """Estimated cost of :func:`_scan_gaussian`, in w steps of :func:`_scan_triples`.

    About (pi/4)*S points sigma at 3.3 steps, and 0.19*B*ln(S) pairs
    (sigma, q) at 1 step; of those, the ones with a multiple of s*N(q) in
    a |b| range of width W, about 0.19*W*ln(S)*(1 + ln(B/W)), cost 2.4
    more.
    """
    b_lo, b_abs = _abs_b_range(b_min, b_max)
    s_max = min(b_abs, d_max)
    if s_max < 2:
        return 0
    width = b_abs - b_lo + 1
    spread = width + _ln_ratio(width, b_abs, width)
    return 5 * s_max // 2 + _log2_256(s_max) * (b_abs + 12 * spread // 5) // 1969


def _triples_cost(b_min: int, b_max: int, d_min: int, d_max: int) -> int:
    """Estimated cost of :func:`_scan_triples`, in its w steps.

    Each u costs 4 steps, each of its s 2 more, and its w steps come to
    about width_b*ln(hi/lo) for its s in [lo/u^2, hi/u^2).  These vary
    slowly with u, so the u in the middle of each run of about u/4
    consecutive u stands for the run: about 60 samples up to u = 10^6.
    """
    b_abs = max(-b_min, b_max)
    width_b = b_max - b_min + 1
    u_max = isqrt(max(d_max, 0))
    cost = 0
    u = 1
    while u <= u_max:
        end = min(u_max + 1, u + 1 + u // 4)
        uu = ((u + end - 1) // 2) ** 2
        lo = max(2 * uu, d_min)
        hi = min(d_max + 1, (b_abs + 1) * uu)
        steps = 4
        if lo < hi:
            steps += 2 * (hi - lo) // uu + _ln_ratio(width_b, hi, lo)
        cost += (end - u) * steps
        u = end
    return cost
