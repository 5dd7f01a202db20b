import itertools

import pytest
from hypothesis import given, settings, strategies as st

from c4quartic.gfq import _divmod, _gcd, _monic, _mul, _squarefree, _trim
from oracles import nmod_divmod, nmod_factor, nmod_gcd, nmod_mul, nmod_trim

small_primes = st.sampled_from([2, 3, 5, 7, 13])


def polys(q, max_degree=6):
    """Trimmed coefficient tuples over GF(q), the form the kernel takes."""
    return st.lists(
        st.integers(min_value=0, max_value=q - 1), min_size=0, max_size=max_degree + 1
    ).map(lambda cs: nmod_trim(q, cs))


poly_pairs = small_primes.flatmap(lambda q: st.tuples(st.just(q), polys(q), polys(q)))


class TestConstruction:
    def test_reduction_and_trim(self):
        assert _trim(5, (7, 10, 3, 0, 0)) == (2, 0, 3)
        assert _trim(2, [-3, 5, 4]) == (1, 1)

    def test_zero(self):
        assert _trim(3, (0, 0)) == ()
        assert _trim(3, (3, -6)) == ()
        assert _trim(3, ()) == ()


class TestRingAxioms:
    """The unchecked kernels against the naive arithmetic in ``oracles``."""

    @given(poly_pairs)
    def test_mul_commutes(self, qab):
        q, a, b = qab
        assert _mul(q, a, b) == _mul(q, b, a)

    @given(poly_pairs)
    def test_mul_matches_naive(self, qab):
        q, a, b = qab
        assert _mul(q, a, b) == nmod_mul(q, a, b)

    @given(poly_pairs)
    def test_divmod_roundtrip(self, qab):
        q, a, b = qab
        if not b:
            return
        quo, rem = _divmod(q, a, b)
        assert (quo, rem) == nmod_divmod(q, a, b)
        assert len(rem) < len(b)
        # a - rem = quo * b
        diff = nmod_trim(q, [x - y for x, y in itertools.zip_longest(a, rem, fillvalue=0)])
        assert diff == nmod_mul(q, quo, b)

    @given(poly_pairs)
    def test_gcd_divides_both(self, qab):
        q, a, b = qab
        g = _gcd(q, a, b)
        assert g == nmod_gcd(q, a, b)
        if not g:
            assert not a and not b
            return
        assert g[-1] == 1
        assert nmod_divmod(q, a, g)[1] == ()
        assert nmod_divmod(q, b, g)[1] == ()

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
    def check(self, q, a):
        parts = _squarefree(q, a)
        assert sorted(parts) == _grouped_by_multiplicity(q, a)
        assert [m for _, m in parts] == sorted({m for _, m in parts})
        for (p1, _), (p2, _) in itertools.combinations(parts, 2):
            assert _gcd(q, p1, p2) == (1,)
        prod = (1,)
        for part, m in parts:
            for _ in range(m):
                prod = nmod_mul(q, prod, part)
        assert prod == _monic(q, a)

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
        self.check(q, coeffs)

    @given(small_primes.flatmap(lambda q: st.tuples(st.just(q), polys(q, max_degree=8))))
    @settings(max_examples=150)
    def test_matches_factorization_grouped_by_multiplicity(self, qa):
        q, a = qa
        if a:
            self.check(q, a)
