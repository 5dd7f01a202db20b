import itertools
import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from c4quartic.gfq import (
    GfPoly,
    _squarefree,
    gf_add,
    gf_divmod,
    gf_factor,
    gf_gcd,
    gf_mod,
    gf_monic,
    gf_mul,
    gf_pow_mod,
    gf_sub,
    gf_x,
)
from oracles import nmod_factor, nmod_is_irreducible, nmod_mul

small_primes = st.sampled_from([2, 3, 5, 7, 13])


def polys(q, max_degree=6):
    return st.lists(
        st.integers(min_value=0, max_value=q - 1), min_size=0, max_size=max_degree + 1
    ).map(lambda cs: GfPoly(q, tuple(cs)))


poly_pairs = small_primes.flatmap(lambda q: st.tuples(polys(q), polys(q)))
poly_triples = small_primes.flatmap(lambda q: st.tuples(polys(q), polys(q), polys(q)))


class TestConstruction:
    def test_reduction_and_trim(self):
        p = GfPoly(5, (7, 10, 3, 0, 0))
        assert p.coeffs == (2, 0, 3)
        assert p.degree == 2
        assert p.leading() == 3

    def test_zero(self):
        z = GfPoly(3, (0, 0))
        assert z.is_zero
        assert z.degree == -1
        with pytest.raises(ValueError):
            z.leading()

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            GfPoly(4, (1,))
        with pytest.raises(ValueError):
            GfPoly(1, (1,))

    def test_evaluation(self):
        p = GfPoly(7, (1, 2, 3))  # 3x^2 + 2x + 1
        for x in range(7):
            assert p(x) == (3 * x * x + 2 * x + 1) % 7

    def test_str(self):
        assert str(GfPoly(2, (1, 1, 1))) == "x^2 + x + 1"
        assert str(GfPoly(5, (0, 2))) == "2*x"
        assert str(GfPoly(3, ())) == "0"


class TestRingAxioms:
    @given(poly_pairs)
    def test_add_sub_roundtrip(self, ab):
        a, b = ab
        assert gf_sub(gf_add(a, b), b) == a

    @given(poly_pairs)
    def test_mul_commutes(self, ab):
        a, b = ab
        assert gf_mul(a, b) == gf_mul(b, a)

    @given(poly_triples)
    def test_mul_distributes(self, abc):
        a, b, c = abc
        assert gf_mul(a, gf_add(b, c)) == gf_add(gf_mul(a, b), gf_mul(a, c))

    @given(poly_pairs)
    def test_mul_matches_naive(self, ab):
        a, b = ab
        q = a.modulus
        assert gf_mul(a, b).coeffs == nmod_mul(q, a.coeffs, b.coeffs)

    @given(poly_pairs)
    def test_divmod_roundtrip(self, ab):
        a, b = ab
        if b.is_zero:
            with pytest.raises(ValueError):
                gf_divmod(a, b)
            return
        quo, rem = gf_divmod(a, b)
        assert gf_add(gf_mul(quo, b), rem) == a
        assert rem.degree < b.degree

    @given(poly_pairs)
    def test_gcd_divides_both(self, ab):
        a, b = ab
        g = gf_gcd(a, b)
        if g.is_zero:
            assert a.is_zero and b.is_zero
            return
        assert g.leading() == 1
        assert gf_mod(a, g).is_zero
        assert gf_mod(b, g).is_zero

    def test_pow_mod(self):
        q = 5
        mod = GfPoly(q, (1, 1, 1))
        base = GfPoly(q, (2, 3))
        acc = GfPoly(q, (1,))
        for e in range(10):
            assert gf_pow_mod(base, e, mod) == acc
            acc = gf_mod(gf_mul(acc, base), mod)

    def test_monic(self):
        p = GfPoly(7, (2, 4, 6))
        m = gf_monic(p)
        assert m.leading() == 1
        assert gf_mod(p, m).is_zero


class TestFactor:
    def test_known_factorizations(self):
        # x^2 + 1 factors differently by residue of q mod 4
        assert gf_factor(GfPoly(2, (1, 0, 1))) == [(GfPoly(2, (1, 1)), 2)]
        assert gf_factor(GfPoly(5, (1, 0, 1))) == [
            (GfPoly(5, (2, 1)), 1),
            (GfPoly(5, (3, 1)), 1),
        ]
        assert gf_factor(GfPoly(3, (1, 0, 1))) == [(GfPoly(3, (1, 0, 1)), 1)]

    def test_quartic_mod_2(self):
        # x^4 + 1 = (x + 1)^4 over GF(2)
        assert gf_factor(GfPoly(2, (1, 0, 0, 0, 1))) == [(GfPoly(2, (1, 1)), 4)]

    def test_frobenius_power(self):
        # g(x)^3 for irreducible g over GF(3) has zero derivative territory
        g = GfPoly(3, (1, 2, 0, 1))  # x^3 + 2x + 1, irreducible over GF(3)
        assert nmod_is_irreducible(3, g.coeffs)
        cube = gf_mul(gf_mul(g, g), g)
        assert gf_factor(cube) == [(g, 3)]

    def test_deterministic(self):
        p = GfPoly(13, (5, 0, 7, 1, 0, 11, 1))
        assert gf_factor(p) == gf_factor(p)
        assert gf_factor(p, random.Random(99)) == gf_factor(p, random.Random(1))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            gf_factor(GfPoly(3, ()))

    @given(small_primes.flatmap(lambda q: polys(q, max_degree=7)))
    @settings(max_examples=150)
    def test_reconstruction_and_irreducibility(self, a):
        if a.degree < 1:
            return
        factors = gf_factor(a)
        q = a.modulus
        prod = GfPoly(q, (a.leading(),))
        for g, e in factors:
            assert g.leading() == 1
            assert nmod_is_irreducible(q, g.coeffs), str(g)
            prod = reduce(gf_mul, [g] * e, prod)
        assert prod == a
        degs = [g.degree for g, _ in factors]
        assert degs == sorted(degs)

    @given(st.sampled_from([2, 3, 5]).flatmap(lambda q: polys(q, max_degree=5)))
    @settings(max_examples=100)
    def test_matches_bruteforce_factorization(self, a):
        if a.degree < 1:
            return
        got = [(g.coeffs, e) for g, e in gf_factor(a)]
        expected = nmod_factor(a.modulus, a.coeffs)
        assert sorted(got) == sorted(expected)


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
            assert gf_gcd(GfPoly(q, p1), GfPoly(q, p2)) == GfPoly(q, (1,))
        prod = (1,)
        for part, m in parts:
            for _ in range(m):
                prod = nmod_mul(q, prod, part)
        assert prod == gf_monic(a).coeffs

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
