import pytest
from hypothesis import given, strategies as st

from c4quartic import dedekind
from c4quartic.dedekind import dedekind_divides_index
from c4quartic.gfq import GfPoly
from c4quartic.intarith import primes_upto
from c4quartic.trinomial import Trinomial, discriminant, is_irreducible

coeffs = st.integers(min_value=-150, max_value=150)


class TestKnownVerdicts:
    def test_non_monogenic_witness(self):
        # x^4 + 5x^2 + 5 mod 2 is (x^2+x+1)^2; the lifted defect is
        # x^3 + x^2 + x mod 2, sharing x^2+x+1 with the repeated part
        assert dedekind_divides_index(Trinomial(5, 5), 2) is True

    def test_monogenic_witnesses(self):
        assert dedekind_divides_index(Trinomial(-5, 5), 2) is False
        assert dedekind_divides_index(Trinomial(-4, 2), 2) is False
        assert dedekind_divides_index(Trinomial(4, 2), 2) is False
        assert dedekind_divides_index(Trinomial(0, 1), 2) is False

    def test_fifth_prime_of_2000(self):
        assert dedekind_divides_index(Trinomial(5, 5), 5) is False
        assert dedekind_divides_index(Trinomial(-5, 5), 5) is False

    def test_classical_monogenic_families(self):
        # x^4 - 2: Z[2^(1/4)] is the full ring of integers
        t = Trinomial(0, -2)
        for q in (2, 3, 7):
            assert dedekind_divides_index(t, q) is False


class TestGeneralBehavior:
    @given(coeffs, coeffs, st.sampled_from([2, 3, 5, 7, 11, 13]))
    def test_primes_outside_disc_never_divide(self, b, d, q):
        t = Trinomial(b, d)
        if not is_irreducible(t) or discriminant(t) % q == 0:
            return
        assert dedekind_divides_index(t, q) is False

    @given(coeffs, coeffs)
    def test_total_on_irreducibles(self, b, d):
        # never raises, always boolean, on any irreducible cell at any disc prime
        t = Trinomial(b, d)
        if not is_irreducible(t):
            return
        disc = discriminant(t)
        for q in primes_upto(30):
            if disc % q == 0:
                assert dedekind_divides_index(t, q) in (True, False)


class TestValidation:
    def test_composite_q_rejected(self):
        with pytest.raises(ValueError):
            dedekind_divides_index(Trinomial(5, 5), 6)

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            dedekind_divides_index(Trinomial(0, -1), 2)


class TestLiftChecks:
    """A wrong factorization mod q must raise, also under ``python -O``."""

    @pytest.mark.parametrize(
        "wrong",
        [
            [(GfPoly(5, (1, 1)), 1)],  # x + 1: the lift is not quartic
            [(GfPoly(5, (0, 1)), 4)],  # x^4: the lift is not f mod 5
        ],
        ids=["degree", "residue"],
    )
    def test_wrong_factorization_raises(self, monkeypatch, wrong):
        monkeypatch.setattr(dedekind, "gf_factor", lambda fbar: wrong)
        with pytest.raises(ArithmeticError):
            dedekind_divides_index(Trinomial(2, 5), 5)
