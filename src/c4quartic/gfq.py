"""Dense univariate polynomial arithmetic and factorization over GF(q), q prime.

Polynomials are immutable coefficient tuples, lowest degree first, always
reduced mod q and trimmed of leading zeros (the zero polynomial is the empty
tuple, degree -1).  The private functions (``_mul``, ``_divmod``, ``_gcd``,
``_monic``, ``_pow_mod``, ``_squarefree`` and their helpers) are the only
implementation of each operation: they take such tuples and the modulus,
check nothing, and return such tuples.  The public ``GfPoly``/``gf_*`` API
checks its input (prime modulus, same field, nonzero divisor, nonnegative
exponent), runs one kernel call and wraps the result once.

Factorization is the classical three-stage pipeline: squarefree
decomposition, distinct-degree splitting, then Cantor-Zassenhaus
equal-degree splitting (trace maps for q = 2).  The random choices inside
equal-degree splitting come from a caller-suppliable rng so results are
reproducible; the returned factor list is sorted and canonical either way.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .intarith import is_prime

__all__ = [
    "GfPoly",
    "gf_add",
    "gf_divmod",
    "gf_factor",
    "gf_gcd",
    "gf_mod",
    "gf_monic",
    "gf_mul",
    "gf_pow_mod",
    "gf_sub",
    "gf_x",
]

Coeffs = tuple[int, ...]


@functools.lru_cache(maxsize=None)
def _check_modulus(q: int) -> None:
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")


def _trim(q: int, cs) -> Coeffs:
    """Coefficients reduced mod q, without leading zeros."""
    out = [c % q for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class GfPoly:
    """A polynomial over GF(modulus); coeffs[i] multiplies x^i."""

    modulus: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        _check_modulus(self.modulus)
        object.__setattr__(self, "coeffs", _trim(self.modulus, self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.modulus
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return " + ".join(reversed(terms))


# ---------------------------------------------------------------------------
# unchecked kernels: q prime, every argument reduced mod q and trimmed


def _add(q: int, a: Coeffs, b: Coeffs) -> Coeffs:
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] += y
    return _trim(q, out)


def _sub(q: int, a: Coeffs, b: Coeffs) -> Coeffs:
    return _add(q, a, tuple(-y for y in b))


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


def _pow_mod(q: int, base: Coeffs, exp: int, mod: Coeffs) -> Coeffs:
    """base**exp reduced mod ``mod`` (nonzero), by binary exponentiation."""
    result: Coeffs = (1,)
    base = _divmod(q, base, mod)[1]
    while exp:
        if exp & 1:
            result = _divmod(q, _mul(q, result, base), mod)[1]
        base = _divmod(q, _mul(q, base, base), mod)[1]
        exp >>= 1
    return result


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


def _shares_factor(q: int, a, parts: list[tuple[Coeffs, int]]) -> bool:
    """Whether a and prod_{m >= 2} P_m have a common factor of positive degree.

    ``a`` is any integer coefficient sequence, reduced mod q here; ``parts``
    is a squarefree decomposition as returned by :func:`_squarefree`.
    """
    repeated: Coeffs = (1,)
    for p, m in parts:
        if m >= 2:
            repeated = _mul(q, repeated, p)
    return len(_gcd(q, _trim(q, a), repeated)) > 1


def _distinct_degree_parts(q: int, a: Coeffs) -> list[tuple[Coeffs, int]]:
    """Split monic squarefree a into products of factors of equal degree."""
    x = (0, 1)
    out = []
    h = x
    d = 0
    while len(a) - 1 >= 2 * (d + 1):
        d += 1
        h = _pow_mod(q, h, q, a)
        g = _gcd(q, _sub(q, h, x), a)
        if len(g) > 1:
            out.append((g, d))
            a = _divmod(q, a, g)[0]
            h = _divmod(q, h, a)[1]
    if len(a) > 1:
        # whatever survives is a single irreducible of full remaining degree
        out.append((a, len(a) - 1))
    return out


def _equal_degree_split(q: int, a: Coeffs, d: int, rng: random.Random) -> list[Coeffs]:
    """Factor monic squarefree a whose irreducible factors all have degree d."""
    if len(a) - 1 == d:
        return [a]
    while True:
        h = _trim(q, [rng.randrange(q) for _ in range(len(a) - 1)])
        if len(h) < 2:
            continue
        if q == 2:
            # trace map over GF(2^d)
            t = acc = h
            for _ in range(d - 1):
                t = _divmod(q, _mul(q, t, t), a)[1]
                acc = _add(q, acc, t)
            g = _gcd(q, acc, a)
        else:
            g = _gcd(q, h, a)
            if len(g) == 1:
                e = _pow_mod(q, h, (q**d - 1) // 2, a)
                g = _gcd(q, _sub(q, e, (1,)), a)
        if 1 < len(g) < len(a):
            left = _equal_degree_split(q, g, d, rng)
            right = _equal_degree_split(q, _divmod(q, a, g)[0], d, rng)
            return left + right


# ---------------------------------------------------------------------------
# the checked public API: one kernel call, one wrap per result


def _same_field(a: GfPoly, b: GfPoly) -> int:
    if a.modulus != b.modulus:
        raise ValueError(f"mixed moduli {a.modulus} and {b.modulus}")
    return a.modulus


def _nonzero_divisor(b: GfPoly) -> None:
    if b.is_zero:
        raise ValueError("division by the zero polynomial")


def gf_x(q: int) -> GfPoly:
    """The monomial x over GF(q)."""
    return GfPoly(q, (0, 1))


def gf_add(a: GfPoly, b: GfPoly) -> GfPoly:
    q = _same_field(a, b)
    return GfPoly(q, _add(q, a.coeffs, b.coeffs))


def gf_sub(a: GfPoly, b: GfPoly) -> GfPoly:
    q = _same_field(a, b)
    return GfPoly(q, _sub(q, a.coeffs, b.coeffs))


def gf_mul(a: GfPoly, b: GfPoly) -> GfPoly:
    q = _same_field(a, b)
    return GfPoly(q, _mul(q, a.coeffs, b.coeffs))


def gf_divmod(a: GfPoly, b: GfPoly) -> tuple[GfPoly, GfPoly]:
    q = _same_field(a, b)
    _nonzero_divisor(b)
    quo, rem = _divmod(q, a.coeffs, b.coeffs)
    return GfPoly(q, quo), GfPoly(q, rem)


def gf_mod(a: GfPoly, b: GfPoly) -> GfPoly:
    return gf_divmod(a, b)[1]


def gf_monic(a: GfPoly) -> GfPoly:
    return GfPoly(a.modulus, _monic(a.modulus, a.coeffs))


def gf_gcd(a: GfPoly, b: GfPoly) -> GfPoly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    q = _same_field(a, b)
    return GfPoly(q, _gcd(q, a.coeffs, b.coeffs))


def gf_pow_mod(base: GfPoly, exp: int, mod: GfPoly) -> GfPoly:
    """base**exp reduced mod ``mod``, by binary exponentiation."""
    q = _same_field(base, mod)
    if exp < 0:
        raise ValueError("negative exponent")
    _nonzero_divisor(mod)
    return GfPoly(q, _pow_mod(q, base.coeffs, exp, mod.coeffs))


def gf_factor(a: GfPoly, rng: random.Random | None = None) -> list[tuple[GfPoly, int]]:
    """Full factorization into monic irreducibles with multiplicities.

    Returns [(g, e), ...] sorted by (degree, coefficients); the product of
    g**e times the leading coefficient of ``a`` reconstructs ``a``.
    """
    if a.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if rng is None:
        rng = random.Random(1)
    q = a.modulus
    out = []
    for part, mult in _squarefree(q, a.coeffs):
        for piece, deg in _distinct_degree_parts(q, part):
            for g in _equal_degree_split(q, piece, deg, rng):
                out.append((g, mult))
    out.sort(key=lambda ge: (len(ge[0]), ge[0]))
    return [(GfPoly(q, g), mult) for g, mult in out]
