import json

import pytest
from hypothesis import given, settings, strategies as st

from c4quartic import intarith
from c4quartic.intarith import Factorization, FactorizationIncomplete
from c4quartic.monogenic import (
    DegenerateTrinomialError,
    factor_discriminant,
    is_monogenic,
    structural_constraints,
)
from c4quartic.trinomial import Signature, Trinomial, discriminant, is_irreducible
from oracles import factor_discriminant_reference, is_monogenic_reference, monogenic_closed_form

coeffs = st.integers(min_value=-150, max_value=150)

REPORT_KEYS = [
    "trinomial",
    "irreducible",
    "c4",
    "disc",
    "disc_factored",
    "verdicts",
    "monogenic",
    "field_disc",
    "signature",
]


class TestFactorDiscriminant:
    def test_golden_values(self):
        assert factor_discriminant(Trinomial(-5, 5)) == Factorization(1, ((2, 4), (5, 3)))
        assert factor_discriminant(Trinomial(-4, 2)) == Factorization(1, ((2, 11),))
        assert factor_discriminant(Trinomial(4, 2)) == Factorization(1, ((2, 11),))
        assert factor_discriminant(Trinomial(0, 1)) == Factorization(1, ((2, 8),))

    def test_zero_disc_rejected(self):
        with pytest.raises(ValueError):
            factor_discriminant(Trinomial(2, 1))  # b^2 = 4d
        with pytest.raises(ValueError):
            factor_discriminant(Trinomial(1, 0))

    @given(coeffs, coeffs)
    def test_value_roundtrip(self, b, d):
        t = Trinomial(b, d)
        if d == 0 or b * b == 4 * d:
            return
        assert factor_discriminant(t).value() == discriminant(t)

    def test_matches_reference_on_a_grid(self):
        cells = [(b, d) for b in range(-60, 61) for d in range(-60, 61)]
        cells += [(b, d) for b in range(10**5, 10**5 + 20) for d in range(10**9, 10**9 + 20)]
        for b, d in cells:
            if d == 0 or b * b == 4 * d:
                continue
            t = Trinomial(b, d)
            assert factor_discriminant(t) == factor_discriminant_reference(t), (b, d)

    @given(
        st.integers(min_value=-10**12, max_value=10**12),
        st.integers(min_value=-10**12, max_value=10**12),
    )
    def test_matches_reference_near_10_to_the_12(self, b, d):
        if d == 0 or b * b == 4 * d:
            return
        t = Trinomial(b, d)
        assert factor_discriminant(t) == factor_discriminant_reference(t)

    # a budget of 1000 steps splits neither d, the product of the two primes
    # after 2^40, nor e = (2^40 + 1)^2 - 4*33 = 20766489347 * 58215223546751
    @pytest.mark.parametrize(
        "b, d, named",
        [
            (2**40 + 1, 1099511627791 * 1099511627803, "d"),
            (2**40 + 1, 33, "e"),
        ],
    )
    def test_give_up_names_d_first(self, monkeypatch, b, d, named):
        monkeypatch.setattr(intarith, "_MAX_EFFORT", 1000)
        t = Trinomial(b, d)
        with pytest.raises(FactorizationIncomplete) as got:
            factor_discriminant(t)
        with pytest.raises(FactorizationIncomplete) as want:
            factor_discriminant_reference(t)
        assert str(got.value) == str(want.value)
        assert got.value.n == want.value.n == (d if named == "d" else b * b - 4 * d)


class TestIsMonogenic:
    def test_the_three_positives(self):
        for b, d in [(-4, 2), (4, 2), (-5, 5)]:
            r = is_monogenic(Trinomial(b, d))
            assert r.monogenic, (b, d)
            assert r.c4
            assert r.field_disc == r.disc
            assert r.failing_prime() is None

    def test_non_monogenic_witness(self):
        r = is_monogenic(Trinomial(5, 5))
        assert r.irreducible and r.c4 and not r.monogenic
        assert r.field_disc is None
        assert r.failing_prime() == 2

    def test_short_circuit_marks_skipped(self):
        r = is_monogenic(Trinomial(5, 5))
        assert [v.prime for v in r.verdicts] == [2, 5]
        assert r.verdicts[0].evaluated and r.verdicts[0].divides_index
        assert not r.verdicts[1].evaluated

    def test_all_primes_evaluated_when_monogenic(self):
        r = is_monogenic(Trinomial(-5, 5))
        assert [v.prime for v in r.verdicts] == [2, 5]
        assert all(v.evaluated for v in r.verdicts)
        assert not any(v.divides_index for v in r.verdicts)

    def test_reducible_report(self):
        r = is_monogenic(Trinomial(0, -1))
        assert not r.irreducible and not r.c4 and not r.monogenic
        assert r.verdicts == ()
        assert r.signature is None
        assert r.field_disc is None
        assert r.disc == -256
        assert r.disc_factored == Factorization(-1, ((2, 8),))

    def test_zero_disc_report(self):
        r = is_monogenic(Trinomial(2, 1))  # (x^2+1)^2
        assert r.disc == 0
        assert r.disc_factored is None
        assert not r.irreducible

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateTrinomialError):
            is_monogenic(Trinomial(3, 0))

    @given(coeffs, coeffs)
    @settings(max_examples=200)
    def test_report_invariants(self, b, d):
        if d == 0:
            return
        t = Trinomial(b, d)
        r = is_monogenic(t)
        assert r.trinomial == t
        assert r.irreducible == is_irreducible(t)
        assert r.disc == discriminant(t)
        assert r.monogenic == (r.field_disc is not None)
        assert (r.signature is not None) == r.irreducible
        if r.irreducible:
            assert [v.prime for v in r.verdicts] == list(r.disc_factored.primes())
            evaluated = [v for v in r.verdicts if v.evaluated]
            assert r.monogenic == (not any(v.divides_index for v in evaluated))
            # every prime after the first failure is marked skipped, none before
            failing = r.failing_prime()
            for v in r.verdicts:
                assert v.evaluated == (failing is None or v.prime <= failing)


class TestSinglePassAgainstReference:
    """The single pass must give the report the public entry points give."""

    def test_every_small_cell(self):
        for b in range(-60, 61):
            for d in range(-60, 61):
                if d:
                    t = Trinomial(b, d)
                    assert is_monogenic(t) == is_monogenic_reference(t), (b, d)

    def test_large_coefficient_box(self):
        for b in range(10**5, 10**5 + 30):
            for d in range(10**9, 10**9 + 30):
                t = Trinomial(b, d)
                assert is_monogenic(t) == is_monogenic_reference(t), (b, d)


class TestClosedFormAgainstEngine:
    """The five branches, read prime by prime, reduce to valuations and a table mod 4."""

    def test_every_small_irreducible_cell(self):
        verdicts = {True: 0, False: 0}
        for b in range(-60, 61):
            for d in range(-60, 61):
                if d == 0:
                    continue
                r = is_monogenic(Trinomial(b, d))
                if r.irreducible:
                    assert r.monogenic == monogenic_closed_form(b, d), (b, d)
                    verdicts[r.monogenic] += 1
        assert verdicts[True] > 0 and verdicts[False] > 0

    @given(
        st.integers(min_value=-2 * 10**6, max_value=2 * 10**6),
        st.integers(min_value=10**12 - 10**6, max_value=10**12 + 10**6),
        st.sampled_from([1, -1]),
    )
    @settings(max_examples=200)
    def test_near_10_to_the_12(self, b, d_abs, sign):
        d = sign * d_abs
        r = is_monogenic(Trinomial(b, d))
        if r.irreducible:
            assert r.monogenic == monogenic_closed_form(b, d)


class TestReportDict:
    def test_key_set_and_order(self):
        # literal key lists: a new or moved dataclass field changes stdout;
        # non-monogenic, monogenic, reducible with e = 0, reducible
        for b, d in [(5, 5), (-5, 5), (4, 4), (0, -1)]:
            r = is_monogenic(Trinomial(b, d))
            got = r.to_dict()
            assert list(got.keys()) == REPORT_KEYS
            assert list(got["trinomial"]) == ["b", "d"]
            if r.disc_factored is None:
                assert got["disc_factored"] is None
            else:
                assert list(got["disc_factored"]) == ["sign", "factors"]
            if r.irreducible:
                assert list(got["signature"]) == ["r1", "r2"]
                assert got["verdicts"] == [v.to_dict() for v in r.verdicts] != []
            else:
                assert (got["verdicts"], got["field_disc"], got["signature"]) == ([], None, None)

    def test_json_serializable(self):
        for b, d in [(5, 5), (-5, 5), (0, 1), (0, -1), (2, 1)]:
            r = is_monogenic(Trinomial(b, d))
            parsed = json.loads(json.dumps(r.to_dict()))
            assert parsed["trinomial"] == {"b": b, "d": d}

    def test_golden_dict(self):
        got = is_monogenic(Trinomial(-5, 5)).to_dict()
        assert got["trinomial"] == {"b": -5, "d": 5}
        assert got["irreducible"] is True
        assert got["c4"] is True
        assert got["disc"] == 2000
        assert got["disc_factored"] == {"sign": 1, "factors": [[2, 4], [5, 3]]}
        assert got["monogenic"] is True
        assert got["field_disc"] == 2000
        assert got["signature"] == {"r1": 4, "r2": 0}


class TestStructuralConstraints:
    def test_known_monogenic_satisfy_all(self):
        for b, d in [(-4, 2), (4, 2), (-5, 5)]:
            assert structural_constraints(Trinomial(b, d)).all_pass

    def test_scaled_cyclic_violates(self):
        # (10, 20) is cyclic but d = 20 is neither squarefree nor a divisor of b
        c = structural_constraints(Trinomial(10, 20))
        assert not c.d_squarefree
        assert not c.d_divides_b
        assert not c.all_pass

    def test_non_cyclic_rejected(self):
        with pytest.raises(ValueError):
            structural_constraints(Trinomial(0, 1))

    def test_witness_fields(self):
        c = structural_constraints(Trinomial(-5, 5))
        assert c == type(c)(
            d_positive=True,
            d_squarefree=True,
            d_divides_b=True,
            e_at_least_two=True,
            same_radical=True,
        )


def test_signature_golden():
    assert is_monogenic(Trinomial(-4, 2)).signature == Signature(4, 0)
    assert is_monogenic(Trinomial(4, 2)).signature == Signature(0, 2)
