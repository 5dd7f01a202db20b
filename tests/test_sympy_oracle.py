"""sympy as a field oracle: the ring of integers by round two, the Galois group.

sympy computes the field discriminant d_K by the round-two algorithm and
the Galois group from resolvents, sharing nothing with the package's index
test or its square conditions.  disc(f) = [Z_K : Z[theta]]^2 * d_K, so f is
monogenic exactly when the two discriminants are equal.
"""

import pytest

from c4quartic.monogenic import is_monogenic
from c4quartic.trinomial import Trinomial, discriminant, is_c4, is_irreducible

sympy = pytest.importorskip("sympy")
from sympy.polys.numberfields.basis import round_two  # noqa: E402
from sympy.polys.numberfields.galoisgroups import galois_group  # noqa: E402

X = sympy.symbols("x")


def quartic(t):
    return sympy.Poly(X**4 + t.b * X**2 + t.d, X)


def irreducible_cells(bound):
    for b in range(-bound, bound + 1):
        for d in range(-bound, bound + 1):
            t = Trinomial(b, d)
            if d and is_irreducible(t):
                yield t


def field_discriminant(t):
    return round_two(quartic(t))[1]


@pytest.mark.parametrize("b, d, d_k, disc", [(5, 5, 125, 2000), (-10, 20, 8000, 128000)])
def test_pinned_non_monogenic_c4(b, d, d_k, disc):
    t = Trinomial(b, d)
    assert (field_discriminant(t), discriminant(t)) == (d_k, disc)
    assert not is_monogenic(t).monogenic


def test_monogenic_exactly_when_disc_is_field_disc():
    cells = list(irreducible_cells(8))
    assert len(cells) == 225
    for t in cells:
        same = field_discriminant(t) == discriminant(t)
        assert same == is_monogenic(t).monogenic, t


def test_c4_exactly_when_galois_group_is_c4():
    names = set()
    for t in irreducible_cells(8):
        name = galois_group(quartic(t), by_name=True)[0].name
        assert (name == "C4") == is_c4(t), t
        names.add(name)
    assert {"C4", "V", "D4"} <= names
