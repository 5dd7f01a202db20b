"""Even quartic trinomials x^4 + b*x^2 + d and their exact invariants.

The defining data is just the integer pair (b, d).  This module computes the
polynomial discriminant in closed form, decides irreducibility over Q and
cyclic-quartic Galois structure by integer square tests alone (no floating
point, no factoring), and reads off the real/complex root signature from
sign conditions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, is_dataclass

from .intarith import is_square, isqrt

__all__ = [
    "Classification",
    "Signature",
    "Trinomial",
    "classify",
    "discriminant",
    "is_c4",
    "is_irreducible",
    "signature",
]


@dataclass(frozen=True, order=True)
class Trinomial:
    """The quartic x^4 + b*x^2 + d with integer coefficients."""

    b: int
    d: int

    def coefficients(self) -> tuple[int, int, int, int, int]:
        """Coefficients lowest degree first."""
        return (self.d, 0, self.b, 0, 1)

    def __str__(self) -> str:
        parts = ["x^4"]
        if self.b:
            parts.append(f"{self.b:+d}*x^2")
        if self.d:
            parts.append(f"{self.d:+d}")
        return " ".join(parts).replace("+", "+ ").replace("-", "- ").replace("  ", " ")


@dataclass(frozen=True)
class Signature:
    """Real embeddings r1 and conjugate complex pairs r2; r1 + 2*r2 = 4."""

    r1: int
    r2: int


def _json_form(x):
    # the JSON form of a result type: a dataclass is a dict of its
    # fields in declaration order, without an optional part (a field whose
    # default is None) while it is None; a tuple is a list
    if is_dataclass(x):
        return {
            f.name: _json_form(v)
            for f in fields(x)
            if (v := getattr(x, f.name)) is not None or f.default is not None
        }
    if isinstance(x, tuple):
        return [_json_form(v) for v in x]
    return x


class Classification(enum.Enum):
    REDUCIBLE = "reducible"
    NON_C4 = "irreducible-non-c4"
    C4 = "irreducible-c4"


def discriminant(t: Trinomial) -> int:
    """disc(x^4 + b*x^2 + d) = 16 * d * (b^2 - 4*d)^2, exactly.

    >>> discriminant(Trinomial(-5, 5))
    2000
    """
    e = t.b * t.b - 4 * t.d
    return 16 * t.d * e * e


def _irreducible(b: int, d: int, e: int) -> bool:
    # unchecked core of is_irreducible; e must be b*b - 4*d
    if is_square(e):
        return False
    if d >= 0:
        s = isqrt(d)
        if s * s == d and (is_square(2 * s - b) or is_square(-2 * s - b)):
            return False
    return True


def _c4(d: int, e: int) -> bool:
    # unchecked core of is_c4; non-square d and e already make _irreducible true
    return not is_square(d) and not is_square(e) and is_square(d * e)


def _signature(b: int, d: int, e: int) -> Signature:
    # unchecked core of signature; the caller has established irreducibility
    if e < 0:
        return Signature(0, 2)
    if d < 0:
        return Signature(2, 1)
    if d > 0 and b < 0:
        # both roots of the resolvent are positive
        return Signature(4, 0)
    return Signature(0, 2)


def is_irreducible(t: Trinomial) -> bool:
    """Irreducibility over Q, decided by integer square tests.

    A biquadratic factors iff its resolvent quadratic splits (b^2 - 4d is a
    square) or it splits into two non-rational quadratics, which forces
    d = s^2 and one of +-2s - b to be a square.  Linear factors only arise
    inside one of those quadratic splits, so the two checks are complete.
    """
    return _irreducible(t.b, t.d, t.b * t.b - 4 * t.d)


def is_c4(t: Trinomial) -> bool:
    """True when the Galois group of x^4 + b*x^2 + d is cyclic of order 4.

    For an irreducible biquadratic this happens exactly when d and
    b^2 - 4d are both non-squares while their product d*(b^2 - 4d) is a
    square.  Those two non-squares already make the trinomial irreducible,
    so reducible input never passes.
    """
    return _c4(t.d, t.b * t.b - 4 * t.d)


def signature(t: Trinomial) -> Signature:
    """Signature (r1, r2) of the quartic field Q[x]/(f); f must be irreducible.

    The roots are x^2 = (-b +- sqrt(e))/2 with e = b^2 - 4d.  With e < 0
    both square-roots of x^2 are non-real.  With e > 0 the two values of
    x^2 are real with product d and sum -b, so their signs follow from the
    signs of d and b.
    """
    b, d = t.b, t.d
    e = b * b - 4 * d
    if not _irreducible(b, d, e):
        raise ValueError(f"{t} is reducible; signature is for quartic fields")
    return _signature(b, d, e)


def classify(t: Trinomial) -> Classification:
    """Three-way label: reducible, irreducible non-cyclic, or cyclic quartic."""
    if not is_irreducible(t):
        return Classification.REDUCIBLE
    return Classification.C4 if is_c4(t) else Classification.NON_C4
