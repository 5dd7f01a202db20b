"""Dense univariate polynomial arithmetic over GF(q), q prime: an unchecked kernel.

Polynomials are immutable coefficient tuples, lowest degree first, always
reduced mod q and trimmed of leading zeros (the zero polynomial is the empty
tuple, degree -1).  Every function here is private and checks nothing: the
caller passes a prime q and tuples in that form (``_trim`` makes one from
any integer sequence), and gets such tuples back.  The callers are the
Dedekind route (``_squarefree``, ``_mul``, ``_trim``, ``_gcd``) and branch 4
of the index test (``_trim``, ``_gcd``, always at q = 2); they validate
their own inputs, so there is no public API.
"""

from __future__ import annotations

__all__: list[str] = []

Coeffs = tuple[int, ...]


def _trim(q: int, cs) -> Coeffs:
    """Coefficients reduced mod q, without leading zeros."""
    out = [c % q for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# ---------------------------------------------------------------------------
# unchecked kernels: q prime, every argument reduced mod q and trimmed


def _mul(q: int, a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    # the leading coefficient is a product of units, so nothing to trim
    return tuple(c % q for c in out)


def _divmod(q: int, a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs]:
    """Quotient and remainder; b must be nonzero."""
    db = len(b) - 1
    if len(a) <= db:
        return (), a
    inv_lead = pow(b[-1], -1, q)
    rem = list(a)
    quo = [0] * (len(a) - db)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + db] * inv_lead % q
        if c:
            quo[i] = c
            for j in range(db):
                rem[i + j] = (rem[i + j] - c * b[j]) % q
    del rem[db:]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(quo), tuple(rem)


def _monic(q: int, a: Coeffs) -> Coeffs:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, q)
    return tuple(c * inv % q for c in a)


def _gcd(q: int, a: Coeffs, b: Coeffs) -> Coeffs:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    while b:
        a, b = b, _divmod(q, a, b)[1]
    return _monic(q, a)


def _squarefree(q: int, a: Coeffs) -> list[tuple[Coeffs, int]]:
    """Yun's squarefree decomposition of monic(a), a nonzero.

    Returns [(P_m, m), ...] with m ascending, where P_m is the monic product
    of the irreducible factors of multiplicity exactly m; the parts are
    pairwise coprime and the product of P_m**m is monic(a).
    """
    a = _monic(q, a)
    if len(a) < 2:
        return []
    da = _trim(q, [i * c for i, c in enumerate(a)][1:])
    if not da:
        # a = c(x^q) = c(x)^q in characteristic q; Frobenius fixes the base
        # field, so the q-th root keeps every q-th coefficient
        return [(g, m * q) for g, m in _squarefree(q, a[::q])]
    c = _gcd(q, a, da)
    w = _divmod(q, a, c)[0]
    out = []
    m = 1
    while len(w) > 1:
        y = _gcd(q, w, c)
        z = _divmod(q, w, y)[0]
        if len(z) > 1:
            out.append((z, m))
        w = y
        c = _divmod(q, c, y)[0]
        m += 1
    if len(c) > 1:
        # the residual keeps the factors whose multiplicity is divisible by
        # q, at full multiplicity; it is a q-th power, so the zero-derivative
        # branch of the recursion supplies the scaling
        out.extend(_squarefree(q, c))
        out.sort(key=lambda pm: pm[1])
    return out
