import itertools

import pytest
from hypothesis import given, settings, strategies as st

from c4quartic.gfq import GfPoly, _divmod, _gcd, _monic, _mul, _squarefree, gf_gcd
from oracles import nmod_divmod, nmod_factor, nmod_mul, nmod_trim

small_primes = st.sampled_from([2, 3, 5, 7, 13])


def polys(q, max_degree=6):
    return st.lists(
        st.integers(min_value=0, max_value=q - 1), min_size=0, max_size=max_degree + 1
    ).map(lambda cs: GfPoly(q, tuple(cs)))


poly_pairs = small_primes.flatmap(lambda q: st.tuples(polys(q), polys(q)))


class TestConstruction:
    def test_reduction_and_trim(self):
        p = GfPoly(5, (7, 10, 3, 0, 0))
        assert p.coeffs == (2, 0, 3)
        assert p.degree == 2

    def test_zero(self):
        z = GfPoly(3, (0, 0))
        assert z.is_zero
        assert z.coeffs == ()
        assert z.degree == -1

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            GfPoly(4, (1,))
        with pytest.raises(ValueError):
            GfPoly(1, (1,))

    def test_str(self):
        assert str(GfPoly(2, (1, 1, 1))) == "x^2 + x + 1"
        assert str(GfPoly(5, (0, 2))) == "2*x"
        assert str(GfPoly(3, ())) == "0"


class TestRingAxioms:
    """The unchecked kernels against the naive arithmetic in ``oracles``."""

    @given(poly_pairs)
    def test_mul_commutes(self, ab):
        a, b = ab
        q = a.modulus
        assert _mul(q, a.coeffs, b.coeffs) == _mul(q, b.coeffs, a.coeffs)

    @given(poly_pairs)
    def test_mul_matches_naive(self, ab):
        a, b = ab
        q = a.modulus
        assert _mul(q, a.coeffs, b.coeffs) == nmod_mul(q, a.coeffs, b.coeffs)

    @given(poly_pairs)
    def test_divmod_roundtrip(self, ab):
        a, b = ab
        if b.is_zero:
            return
        q = a.modulus
        quo, rem = _divmod(q, a.coeffs, b.coeffs)
        assert (quo, rem) == nmod_divmod(q, a.coeffs, b.coeffs)
        assert len(rem) < len(b.coeffs)
        # a - rem = quo * b
        diff = nmod_trim(q, [x - y for x, y in itertools.zip_longest(a.coeffs, rem, fillvalue=0)])
        assert diff == nmod_mul(q, quo, b.coeffs)

    @given(poly_pairs)
    def test_gcd_divides_both(self, ab):
        a, b = ab
        q = a.modulus
        g = gf_gcd(a, b)
        assert g.coeffs == _gcd(q, a.coeffs, b.coeffs)
        if g.is_zero:
            assert a.is_zero and b.is_zero
            return
        assert g.coeffs[-1] == 1
        assert nmod_divmod(q, a.coeffs, g.coeffs)[1] == ()
        assert nmod_divmod(q, b.coeffs, g.coeffs)[1] == ()

    def test_gcd_rejects_mixed_moduli(self):
        with pytest.raises(ValueError, match="mixed moduli"):
            gf_gcd(GfPoly(2, (1, 1)), GfPoly(3, (1, 1)))

    def test_monic(self):
        q = 7
        p = (2, 4, 6)
        m = _monic(q, p)
        assert m == (5, 3, 1)
        assert nmod_divmod(q, p, m)[1] == ()
        assert _monic(q, m) == m
        assert _monic(q, ()) == ()


def _grouped_by_multiplicity(q, coeffs):
    """Products of the irreducible factors of each multiplicity, from the oracle."""
    groups = {}
    for g, e in nmod_factor(q, coeffs):
        groups[e] = nmod_mul(q, groups.get(e, (1,)), g)
    return sorted((part, m) for m, part in groups.items())


class TestSquarefree:
    def check(self, a):
        q = a.modulus
        parts = _squarefree(q, a.coeffs)
        assert sorted(parts) == _grouped_by_multiplicity(q, a.coeffs)
        assert [m for _, m in parts] == sorted({m for _, m in parts})
        for (p1, _), (p2, _) in itertools.combinations(parts, 2):
            assert _gcd(q, p1, p2) == (1,)
        prod = (1,)
        for part, m in parts:
            for _ in range(m):
                prod = nmod_mul(q, prod, part)
        assert prod == _monic(q, a.coeffs)

    @pytest.mark.parametrize(
        "q, coeffs",
        [
            (2, (1, 0, 0, 0, 1)),  # (x + 1)^4, a 4th power mod 2
            (3, nmod_mul(3, nmod_mul(3, (1, 2, 0, 1), (1, 2, 0, 1)), (1, 2, 0, 1))),  # g^3
            (2, nmod_mul(2, (0, 0, 1), (1, 1, 1, 1))),  # x^2 (x + 1)^3
        ],
        ids=["x+1^4-mod-2", "g^3-mod-3", "x^2-x+1^3-mod-2"],
    )
    def test_qth_powers(self, q, coeffs):
        self.check(GfPoly(q, coeffs))

    @given(small_primes.flatmap(lambda q: polys(q, max_degree=8)))
    @settings(max_examples=150)
    def test_matches_factorization_grouped_by_multiplicity(self, a):
        if not a.is_zero:
            self.check(a)
