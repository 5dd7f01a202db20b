import pytest
from hypothesis import given, strategies as st

from c4quartic import dedekind, search
from c4quartic.dedekind import _divides_index, _lift, dedekind_divides_index
from c4quartic.index_criterion import _verdict
from c4quartic.intarith import primes_upto
from c4quartic.monogenic import factor_discriminant
from c4quartic.scan import scan_c4_candidates
from c4quartic.search import oracle_check
from c4quartic.trinomial import Trinomial, discriminant, is_irreducible
from oracles import dedekind_bruteforce, oracle_check_reference

coeffs = st.integers(min_value=-150, max_value=150)
large_coeffs = st.integers(min_value=-(10**12), max_value=10**12)
BRUTE_PRIMES = (2, 3, 5, 7)


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


class TestAgainstOracles:
    def test_bruteforce_on_small_box(self):
        # every irreducible cell with b, d in [-30, 30], at each small prime
        # dividing the discriminant; both verdicts must occur
        verdicts = {True: 0, False: 0}
        for b in range(-30, 31):
            for d in range(-30, 31):
                t = Trinomial(b, d)
                if d == 0 or not is_irreducible(t):
                    continue
                disc = discriminant(t)
                for q in BRUTE_PRIMES:
                    if disc % q == 0:
                        got = dedekind_divides_index(t, q)
                        assert got == dedekind_bruteforce(b, d, q), (b, d, q)
                        verdicts[got] += 1
        assert verdicts[True] > 0 and verdicts[False] > 0

    @given(large_coeffs, large_coeffs)
    def test_bruteforce_on_large_coefficients(self, b, d):
        t = Trinomial(b, d)
        if d == 0 or not is_irreducible(t):
            return
        disc = discriminant(t)
        for q in BRUTE_PRIMES:
            if disc % q == 0:
                assert dedekind_divides_index(t, q) == dedekind_bruteforce(b, d, q)

    def test_full_factorization_route_on_oracle_check_pairs(self, monkeypatch):
        # the (t, q) pairs of `oracle-check --samples 2000 --seed 1` with
        # bound 10^6, every prime q <= 97 dividing the discriminant.  The
        # engine still runs once per pair, so the pairs are recorded there;
        # the Dedekind route lifts f mod q once per class of (q, b mod q,
        # d mod q) and decides once per class of (q, b mod q^2, d mod q^2)
        pairs = []
        lift_calls = []
        oracle_calls = []

        def recording_engine(t, q):
            pairs.append((t, q))
            return _verdict(t, q)

        def counting_lift(q, b, d):
            lift_calls.append((q, b % q, d % q))
            return _lift(q, b, d)

        def counting_oracle(t, q, lifted):
            oracle_calls.append((q, t.b % (q * q), t.d % (q * q)))
            return _divides_index(t, q, lifted)

        monkeypatch.setattr(search, "_verdict", recording_engine)
        monkeypatch.setattr(search, "_lift", counting_lift)
        monkeypatch.setattr(search, "_divides_index", counting_oracle)
        bound = 10**6
        result = oracle_check(2000, 1, -bound, bound, -bound, bound)
        assert result.agreements == len(pairs) == 6758
        assert len(oracle_calls) == len(set(oracle_calls)) == 3010
        assert set(oracle_calls) == {(q, t.b % (q * q), t.d % (q * q)) for t, q in pairs}
        assert len(lift_calls) == len(set(lift_calls)) == 974
        assert set(lift_calls) == {(q, t.b % q, t.d % q) for t, q in pairs}
        split = [
            (t, q) for t, q in pairs if dedekind_bruteforce(t.b, t.d, q) != dedekind_divides_index(t, q)
        ]
        assert split == []

    def test_every_prime_of_every_theorem_candidate(self):
        # the cyclic quartic candidates of `verify-theorem --b-bound 300
        # --d-bound 30000`, on which the theorem rests, at every prime of
        # the discriminant, with no cap on the prime
        candidates = scan_c4_candidates(-300, 300, 1, 30000)
        pairs = 0
        for b, d in candidates:
            t = Trinomial(b, d)
            for q in factor_discriminant(t).primes():
                assert _verdict(t, q).divides_index == _divides_index(t, q, _lift(q, b, d)), (b, d, q)
                pairs += 1
        assert (len(candidates), pairs) == (1194, 3790)


class TestResidueClassReuse:
    """``oracle_check`` lifts f once per class mod q and decides once per class mod q^2."""

    @pytest.mark.parametrize("q", BRUTE_PRIMES)
    def test_verdict_is_constant_on_each_class(self, q):
        # the lemma in the module docstring of dedekind.py: every class of
        # (b, d) mod q^2 has at least two distinct irreducible lifts among
        # a small grid of shifts and one far out, and all of them get the
        # same verdict
        qq = q * q
        shifts = [(i, j) for i in (0, -1, 2) for j in (0, 1, -3)] + [(10**6, -(10**6))]
        seen = set()
        for b0 in range(qq):
            for d0 in range(qq):
                lifts = [Trinomial(b0 + i * qq, d0 + j * qq) for i, j in shifts]
                lifts = [t for t in lifts if t.d != 0 and is_irreducible(t)]
                assert len(lifts) >= 2, (q, b0, d0)
                verdicts = {_divides_index(t, q, _lift(q, b0, d0)) for t in lifts}
                assert len(verdicts) == 1, (q, b0, d0)
                seen |= verdicts
        assert seen == {True, False}

    @pytest.mark.parametrize("q", primes_upto(13))
    def test_lift_is_constant_on_each_class_mod_q(self, q):
        # the first step of the lemma in the module docstring of
        # dedekind.py: _lift reads only (b, d) mod q, one shift lies near
        # 10^6, and the lift of the class decides every irreducible member
        # as the factoring oracle does; the shift (1, q) puts q^2 into d
        # when q | d, so both verdicts occur
        shifts = [(0, 0), (1, 0), (0, 1), (-2, 3), (3, -1), (1, q), (10**6, 1 - 10**6)]
        seen = set()
        for b0 in range(q):
            for d0 in range(q):
                lifted = _lift(q, b0, d0)
                members = [(b0 + i * q, d0 + j * q) for i, j in shifts]
                assert {_lift(q, b, d) for b, d in members} == {lifted}, (q, b0, d0)
                for b, d in members:
                    t = Trinomial(b, d)
                    if d != 0 and is_irreducible(t):
                        got = _divides_index(t, q, lifted)
                        assert got == dedekind_bruteforce(b, d, q), (q, b, d)
                        seen.add(got)
        assert seen == {True, False}

    @pytest.mark.parametrize("q", primes_upto(13))
    def test_lift_of_another_class_raises(self, q):
        # a lift keyed by the wrong class mod q does not reduce to f mod q
        t = Trinomial(q + 1, 2 * q + 1)
        for b1 in range(q):
            for d1 in range(q):
                if (b1, d1) == (1, 1):
                    continue
                with pytest.raises(ArithmeticError, match="does not reduce"):
                    _divides_index(t, q, _lift(q, b1, d1))

    def test_wrong_lift_key_fails_the_whole_check(self, monkeypatch):
        # an oracle_check whose lift comes from the next class mod q raises
        # instead of reporting agreements or disagreements
        monkeypatch.setattr(search, "_lift", lambda q, b, d: _lift(q, b + 1, d))
        bound = 10**6
        with pytest.raises(ArithmeticError, match="does not reduce"):
            oracle_check(300, 4, -bound, bound, -bound, bound)

    def test_nothing_survives_between_calls(self, monkeypatch):
        lifts = []
        calls = []

        def counting_lift(q, b, d):
            lifts.append((q, b, d))
            return _lift(q, b, d)

        def counting(t, q, lifted):
            calls.append((t, q))
            return _divides_index(t, q, lifted)

        monkeypatch.setattr(search, "_lift", counting_lift)
        monkeypatch.setattr(search, "_divides_index", counting)
        bound = 10**6
        first = oracle_check(300, 4, -bound, bound, -bound, bound)
        n_lifts, n_first = len(lifts), len(calls)
        second = oracle_check(300, 4, -bound, bound, -bound, bound)
        assert first == second
        assert 0 < n_first == len(calls) - n_first < first.agreements
        assert 0 < n_lifts == len(lifts) - n_lifts < n_first

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_a_verdict_per_pair(self, seed):
        # the reference runs both public index tests on every pair.  A
        # reuse keyed by (q, b mod q, d mod q) instead of mod q^2 merges
        # classes with different verdicts: on seed 1 it reports 1926
        # disagreements and fewer agreements, and this comparison fails
        bound = 10**6
        got = oracle_check(2000, seed, -bound, bound, -bound, bound)
        assert got == oracle_check_reference(2000, seed, -bound, bound, -bound, bound)
        assert got.disagreements == ()


class TestValidation:
    def test_composite_q_rejected(self):
        with pytest.raises(ValueError):
            dedekind_divides_index(Trinomial(5, 5), 6)

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            dedekind_divides_index(Trinomial(0, -1), 2)


class TestLiftChecks:
    """A wrong squarefree decomposition mod q must raise, also under ``python -O``."""

    @pytest.mark.parametrize(
        "wrong",
        [
            [((1, 1), 1)],  # x + 1: the lift is not quartic
            [((0, 1), 4)],  # x^4: the lift is not f mod 5
        ],
        ids=["degree", "residue"],
    )
    def test_wrong_factorization_raises(self, monkeypatch, wrong):
        monkeypatch.setattr(dedekind, "_squarefree", lambda q, fbar: wrong)
        with pytest.raises(ArithmeticError):
            dedekind_divides_index(Trinomial(2, 5), 5)
