import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from c4quartic import intarith
from c4quartic.intarith import (
    _MR_BASES,
    _MR_PROVEN_BOUND,
    _MR_TIERS,
    Factorization,
    FactorizationIncomplete,
    _factor_into,
    _miller_rabin,
    _sieve_progression,
    factor,
    is_prime,
    is_square,
    is_squarefree,
    isqrt,
    primes_upto,
    radical,
    valuation,
)
from oracles import trial_factorization


class TestIsqrt:
    @given(st.integers(min_value=0, max_value=10**40))
    def test_bracketing(self, n):
        r = isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            isqrt(-1)


class TestIsSquare:
    @given(st.integers(min_value=0, max_value=10**20))
    def test_squares_detected(self, n):
        assert is_square(n * n)

    @given(st.integers(min_value=1, max_value=10**20))
    def test_off_by_one_rejected(self, n):
        assert not is_square(n * n + 1)

    def test_negative(self):
        assert not is_square(-4)

    def test_zero_and_one(self):
        assert is_square(0)
        assert is_square(1)


class TestIsPrime:
    def test_matches_sieve(self):
        sieve = set(primes_upto(10_000))
        for n in range(-5, 10_000):
            assert is_prime(n) == (n in sieve)

    def test_mersenne_primes(self):
        for e in (31, 61, 89, 107, 127):
            assert is_prime(2**e - 1)

    def test_mersenne_composites(self):
        for e in (67, 257):
            # classic factorizations: 2^67-1 = 193707721 * ..., 2^257-1 composite
            assert not is_prime(2**e - 1)

    def test_carmichael_numbers(self):
        for n in (561, 1105, 1729, 41041, 825265, 321197185):
            assert not is_prime(n)

    def test_strong_pseudoprimes_base_2(self):
        for n in (2047, 3277, 4033, 1093**2):
            assert not is_prime(n)

    def test_large_square_rejected(self):
        p = 2**89 - 1
        assert not is_prime(p * p)

    def test_large_semiprime_rejected(self):
        assert not is_prime((2**61 - 1) * (2**89 - 1))

    @given(st.integers(min_value=2, max_value=10**6))
    def test_matches_trial_division(self, n):
        by_trial = all(n % k for k in range(2, math.isqrt(n) + 1))
        assert is_prime(n) == by_trial

    # psi_12 and psi_13, the least strong pseudoprimes to the first twelve and
    # thirteen prime bases (Sorenson and Webster, Math. Comp. 86 (2017));
    # past psi_12 the strong Lucas test decides
    PSI_12 = 318665857834031151167461
    PSI_13 = 3317044064679887385961981

    # OEIS A014233: a(k), the least strong pseudoprime to the first k prime bases
    A014233 = {
        1: 2047,
        2: 1373653,
        3: 25326001,
        4: 3215031751,
        5: 2152302898747,
        6: 3474749660383,
        7: 341550071728321,
        8: 341550071728321,
        9: 3825123056546413051,
        10: 3825123056546413051,
        11: 3825123056546413051,
        12: PSI_12,
        13: PSI_13,
    }

    def test_psi_12_needs_the_lucas_test(self):
        assert self.PSI_12 == 399165290221 * 798330580441 == _MR_PROVEN_BOUND
        assert all(_miller_rabin(self.PSI_12, a) for a in _MR_BASES)
        assert not is_prime(self.PSI_12)
        assert factor(self.PSI_12).factors == ((399165290221, 1), (798330580441, 1))

    def test_psi_13_needs_the_lucas_test(self):
        assert self.PSI_13 == 1287836182261 * 2575672364521
        assert all(_miller_rabin(self.PSI_13, a) for a in _MR_BASES)
        assert not is_prime(self.PSI_13)

    def test_tiers_follow_a014233(self):
        bounds = [bound for bound, _ in _MR_TIERS]
        assert bounds == sorted(set(bounds)) and bounds[-1] == _MR_PROVEN_BOUND
        for bound, bases in _MR_TIERS:
            k = len(bases)
            assert bases == _MR_BASES[:k] and self.A014233[k] == bound

    @pytest.mark.parametrize("k", range(1, 14))
    def test_each_a014233_entry_passes_its_bases_and_is_rejected(self, k):
        n = self.A014233[k]
        assert all(_miller_rabin(n, a) for a in _MR_BASES[:k])
        assert not is_prime(n)

    def test_matches_sympy_in_every_tier(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(7)
        lows = [41 * 41] + [bound for bound, _ in _MR_TIERS]
        for lo, hi in zip(lows, lows[1:]):
            odd = [rng.randrange(lo, hi) | 1 for _ in range(300)]
            primes = [sympy.prevprime(rng.randrange(lo, hi) + 1) for _ in range(30)]
            for n in odd + primes + [lo, hi - 1, hi - 2]:
                assert is_prime(n) == sympy.isprime(n), n

    @pytest.mark.parametrize(
        "p",
        [
            3317044064679887385962123,  # the first prime past psi_13
            10**25 + 13,
            1237940039285380274899124357,  # the first prime past 2^90
        ],
    )
    def test_primes_past_the_proven_bound(self, p):
        # unlike the Mersenne primes, n + 1 is not a power of two here, so
        # the Lucas sequence runs its general bit loop
        assert is_prime(p)

    def test_matches_sympy_past_the_proven_bound(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(12)
        for lo in (self.PSI_12, self.PSI_13):
            odd = [rng.randrange(lo, 2**100) | 1 for _ in range(3000)]
            primes = [sympy.nextprime(rng.randrange(lo, 2**100)) for _ in range(200)]
            for n in odd + primes:
                assert is_prime(n) == sympy.isprime(n), n


class TestPrimesUpto:
    def test_small(self):
        assert primes_upto(1) == []
        assert primes_upto(2) == [2]
        assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_counts(self):
        assert len(primes_upto(1000)) == 168
        assert len(primes_upto(10_000)) == 1229


class TestFactor:
    def test_golden_values(self):
        assert factor(2000) == Factorization(1, ((2, 4), (5, 3)))
        assert factor(2048) == Factorization(1, ((2, 11),))
        assert factor(-2048) == Factorization(-1, ((2, 11),))
        assert factor(1) == Factorization(1, ())
        assert factor(-1) == Factorization(-1, ())

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor(0)

    @given(st.integers(min_value=-10**9, max_value=10**9).filter(lambda n: n != 0))
    def test_matches_trial_oracle(self, n):
        got = factor(n)
        assert dict(got.factors) == trial_factorization(n)
        assert got.sign == (-1 if n < 0 else 1)

    @given(st.integers(min_value=2, max_value=10**12))
    def test_roundtrip_and_structure(self, n):
        got = factor(n)
        assert got.value() == n
        assert list(got.primes()) == sorted(got.primes())
        assert all(is_prime(p) for p in got.primes())
        assert all(e >= 1 for _, e in got.factors)

    @pytest.mark.parametrize(
        "n",
        [
            997 * 1009,  # the last trial prime times the first prime past it
            1009**2,
            7 * 1009**3,
            99991 * 100003,  # straddles the former trial bound of 10^5
            2 * 3 * 99991**2,
            -(1013 * 99989),
        ],
    )
    def test_around_trial_bounds(self, n):
        got = factor(n)
        assert dict(got.factors) == trial_factorization(n)
        assert got.sign == (-1 if n < 0 else 1)

    def test_rho_path(self):
        # 2^64 + 1 = 274177 * 67280421310721: both beyond the trial bound
        got = factor(2**64 + 1)
        assert got.factors == ((274177, 1), (67280421310721, 1))

    def test_large_prime_survives(self):
        p = 2**89 - 1
        assert factor(p).factors == ((p, 1),)

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(intarith, "_MAX_EFFORT", 100)
        n = (2**89 - 1) * (2**107 - 1)
        with pytest.raises(FactorizationIncomplete) as info:
            factor(n)
        assert info.value.n == n

    # the two primes after 2^40: past trial division and the 10^12 bound, so the
    # splitter needs about 2^20 steps
    SEMIPRIME = 1099511627791 * 1099511627803

    def test_budget_message_matches_the_core(self, monkeypatch):
        monkeypatch.setattr(intarith, "_MAX_EFFORT", 1000)
        n = -self.SEMIPRIME
        with pytest.raises(FactorizationIncomplete) as public:
            factor(n)
        with pytest.raises(FactorizationIncomplete) as core:
            _factor_into(n, {2: 4}, 2)
        assert str(core.value) == str(public.value)
        assert core.value.n == public.value.n == n
        assert str(public.value) == (
            f"factorization of {n} exceeded effort budget at cofactor {self.SEMIPRIME}"
        )

    def test_default_budget_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(intarith, "_MAX_EFFORT", 1000)
        with pytest.raises(FactorizationIncomplete) as patched:
            factor(self.SEMIPRIME)
        assert str(patched.value) == (
            f"factorization of {self.SEMIPRIME} exceeded effort budget"
            f" at cofactor {self.SEMIPRIME}"
        )
        monkeypatch.undo()
        assert factor(self.SEMIPRIME).factors == ((1099511627791, 1), (1099511627803, 1))

    @given(
        st.integers(min_value=-10**12, max_value=10**12).filter(lambda n: n != 0),
        st.integers(min_value=1, max_value=3),
    )
    def test_core_adds_k_times_the_exponents(self, n, k):
        counts = {2: 4, 3: 1}
        _factor_into(n, counts, k)
        want = {2: 4, 3: 1}
        for p, e in factor(n).factors:
            want[p] = want.get(p, 0) + k * e
        assert counts == want

    def test_str(self):
        assert str(factor(2000)) == "2^4 * 5^3"
        assert str(factor(-10)) == "-2 * 5"
        assert str(factor(1)) == "1"


class TestSieveProgression:
    """``_sieve_progression`` term by term against undiluted trial division."""

    # the least prime above 997^2: a cofactor the sieve must leave whole
    PRIME_ABOVE_997_SQUARED = 994013

    def check(self, a, n):
        sympy = pytest.importorskip("sympy")
        found, rest, y = _sieve_progression(a, n)
        terms = [a - 4 * i for i in range(n)]
        assert len(found) == len(rest) == n
        top = max(abs(t) for t in terms)
        # the bound: the cube root of T, where it lies past 1000 and within
        # n * _SIEVE_PER_TERM, else 1000
        root = sympy.integer_nthroot(top, 3)[0]
        assert y == (root if 1000 < root <= n * intarith._SIEVE_PER_TERM else 1000)
        for term, f, r in zip(terms, found, rest):
            if term == 0:
                assert (f, r) == ([(2, 0)], 1)
                continue
            want = trial_factorization(term)
            assert f[0] == (2, want.get(2, 0)), term
            odd = [p for p, _ in f[1:]]
            # exactly the odd primes p <= y with p^2 <= max |term| dividing term
            assert odd == sorted(p for p in want if 2 < p <= y and p * p <= top), term
            assert all(want[p] == j for p, j in f[1:]), term
            left = {p: k for p, k in want.items() if p != 2 and p not in odd}
            assert r == math.prod(p**k for p, k in left.items()), term
            # what _factor_tail may take: 1, a prime, or free of the primes below 1000
            assert r == 1 or left == {r: 1} or min(left) > 1000, term
            if r < (y + 1) ** 3:
                # the lemma: 1, p, p^2 or p*q, by sympy's factorization
                assert sorted(sympy.factorint(r).values()) in ([], [1], [2], [1, 1]), term
            else:
                # only past the bound's reach
                assert root > n * intarith._SIEVE_PER_TERM, term

    @pytest.mark.parametrize(
        "a, n",
        [
            (20, 11),  # 20 down to -20: crosses 0, with a zero term
            (0, 1),  # a lone zero
            (45, 1),  # n = 1
            (1, 1),
            (-7, 30),  # negative terms only
            (130, 70),  # crosses 0, ends at -146
            (3**12, 5),  # 3^12 = 531441, then 531437, ...
            (3**13, 1),
            (4 * 3**9 + 4, 2),  # 2^4 * 7 * 19 * 37, then 2^2 * 3^9
            (2**20, 3),  # a pure power of 2
            (3 * PRIME_ABOVE_997_SQUARED, 1),  # cofactor prime just above 997^2
            (PRIME_ABOVE_997_SQUARED, 1),
            (997**2, 3),  # largest |term| exactly 997^2, at the start
            (-1, 13),  # -1 down to -49: largest |term| exactly 7^2, at the end
            (997**2 - 8, 3),  # ends at 997^2 - 16 = 993 * 1001 = 3 * 7 * 11 * 13 * 331
            (1009**3, 2),  # T = y^3 for y = 1009
            (1010**3 - 1, 2),  # T = (y + 1)^3 - 1 = 7^3 * 13 * 229 * 1009
            (1013**2 * 1003, 2),  # a rest 1013^2, past y = 1009
            (1009**2 * 1013, 1),  # one term: root 1010 > 1000, so y = 1000
            (1009**2 * 1013, 2),  # two terms: y = 1010 strips 1009^2
            (-1009 * 1013 * 1019, 4),  # negative, y = 1013: rest 1019
            (10**11 + 3, 3),  # y = 4641
        ],
    )
    def test_terms(self, a, n):
        self.check(a, n)

    def test_largest_term_exactly_p_squared(self):
        # p^2 = max |term| is still sieved by p, at either end of the run
        assert _sieve_progression(997**2, 1) == ([[(2, 0), (997, 2)]], [1], 1000)
        found, rest, _ = _sieve_progression(-1, 13)
        assert (found[-1], rest[-1]) == ([(2, 0), (7, 2)], 1)

    def test_the_bound_at_a_cube_and_just_below_the_next(self):
        # T = 1009^3: the bound is 1009, and 1009 itself is sieved
        found, rest, y = _sieve_progression(1009**3, 2)
        assert (y, found[0], rest[0]) == (1009, [(2, 0), (1009, 3)], 1)
        # T = 1010^3 - 1, the largest with bound 1009
        found, rest, y = _sieve_progression(1010**3 - 1, 2)
        assert (y, found[0], rest[0]) == (1009, [(2, 0), (7, 3), (13, 1), (229, 1), (1009, 1)], 1)
        assert _sieve_progression(1010**3, 2)[2] == 1010
        # a square rest past the bound is a prime's square
        found, rest, y = _sieve_progression(1013**2 * 1003, 2)
        assert (y, found[0], rest[0]) == (1009, [(2, 0), (17, 1), (59, 1)], 1013**2)
        # a lone term past the cube root's reach keeps the bound at 1000
        # and leaves a rest of three primes, at least 1001^3
        found, rest, y = _sieve_progression(1009**2 * 1013, 1)
        assert (y, found, rest) == (1000, [[(2, 0)]], [1009**2 * 1013])
        assert rest[0] >= 1001**3

    def test_icbrt(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(5)
        ns = list(range(3000)) + [k**3 + j for k in range(2, 5000, 37) for j in (-1, 0, 1)]
        ns += [rng.randrange(10**k) for k in range(1, 60) for _ in range(5)]
        for n in ns:
            assert intarith._icbrt(n) == sympy.integer_nthroot(n, 3)[0], n

    @settings(max_examples=40)
    @given(
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=1, max_value=150),
    )
    def test_random_runs(self, a, n):
        self.check(a, n)

    @settings(max_examples=10)
    @given(
        st.integers(min_value=1031 * 10**6, max_value=4 * 10**9),
        st.sampled_from([-1, 1]),
        st.integers(min_value=2, max_value=6),
    )
    def test_random_runs_past_1000(self, a, sign, n):
        # T above 1.03 * 10^9, so the bound passes 1000
        self.check(sign * a, n)


class TestRadicalSquarefreeValuation:
    def test_radical(self):
        assert radical(2000) == 10
        assert radical(-12) == 6
        assert radical(1) == 1
        assert radical(97) == 97
        with pytest.raises(ValueError):
            radical(0)

    def test_is_squarefree(self):
        assert is_squarefree(10)
        assert is_squarefree(-15)
        assert is_squarefree(1)
        assert not is_squarefree(12)
        assert not is_squarefree(-4)
        with pytest.raises(ValueError):
            is_squarefree(0)

    def test_valuation(self):
        assert valuation(2048, 2) == 11
        assert valuation(2000, 5) == 3
        assert valuation(2000, 3) == 0
        assert valuation(-8, 2) == 3
        with pytest.raises(ValueError):
            valuation(8, 4)
        with pytest.raises(ValueError):
            valuation(0, 2)

    @given(
        st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0),
        st.sampled_from([2, 3, 5, 7, 11]),
    )
    def test_valuation_definition(self, n, q):
        e = valuation(n, q)
        assert n % q**e == 0
        assert n % q ** (e + 1) != 0
