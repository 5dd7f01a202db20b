import pytest
from hypothesis import given, settings, strategies as st

from c4quartic.dedekind import dedekind_divides_index
from c4quartic.index_criterion import (
    _FAILS_AT_2,
    BranchIntermediates,
    PrimeVerdict,
    _least_index_prime,
    _verdict,
    _verdict_texts,
    prime_index_test,
)
from c4quartic.intarith import factor, primes_upto, valuation
from c4quartic.monogenic import _verdicts, factor_discriminant, is_monogenic
from c4quartic.search import _JSON
from c4quartic.trinomial import Trinomial, discriminant, is_irreducible
from oracles import (
    FAILING_CLASSES_MOD_4,
    closed_form_divides_index,
    dedekind_bruteforce,
    nmod_gcd,
    nmod_trim,
)

coeffs = st.integers(min_value=-120, max_value=120)


def disc_primes(t, cap=97):
    disc = discriminant(t)
    return [q for q in primes_upto(cap) if disc % q == 0]


class TestBranchSelection:
    def test_branch_1(self):
        # q divides both b and d; free exactly when q^2 does not divide d
        v = prime_index_test(Trinomial(6, 3), 3)
        assert (v.branch, v.divides_index) == (1, False)
        v = prime_index_test(Trinomial(3, 9), 3)
        assert (v.branch, v.divides_index) == (1, True)

    def test_branch_2(self):
        v = prime_index_test(Trinomial(0, 1), 2)
        assert (v.branch, v.divides_index) == (2, False)
        assert v.intermediates.b2 == 0
        assert v.intermediates.d1 == 1
        assert v.intermediates.disjunct == 1

        v = prime_index_test(Trinomial(2, 3), 2)
        assert (v.branch, v.divides_index) == (2, False)
        assert v.intermediates.disjunct == 2

        v = prime_index_test(Trinomial(6, 1), 2)
        assert (v.branch, v.divides_index) == (2, True)
        assert v.intermediates.disjunct is None

    def test_branch_3(self):
        v = prime_index_test(Trinomial(1, 3), 3)
        assert (v.branch, v.divides_index) == (3, False)
        v = prime_index_test(Trinomial(1, 18), 3)
        assert (v.branch, v.divides_index) == (3, True)

    def test_branch_4(self):
        v = prime_index_test(Trinomial(5, 5), 2)
        assert (v.branch, v.divides_index) == (4, True)
        assert v.h1 == (1, 1, 1)
        assert v.h2 == (1, 1, 1)
        assert v.h_gcd == (1, 1, 1)

        v = prime_index_test(Trinomial(-5, 5), 2)
        assert (v.branch, v.divides_index) == (4, False)
        assert v.h2 == (1, 1)
        assert v.h_gcd == (1,)

    def test_branch_4_cached_by_residue(self):
        # the verdict is built from (b mod 4, d mod 4); it must equal the one
        # built from the full coefficients
        for b in range(-41, 42, 2):
            for d in range(-41, 42, 2):
                h1 = nmod_trim(2, (d, b, 1))
                h2 = nmod_trim(2, (d * (1 + d) // 2, b * d, b * (1 + b) // 2))
                g = nmod_gcd(2, h1, h2)
                expected = PrimeVerdict(2, True, len(g) > 1, 4, h1=h1, h2=h2, h_gcd=g)
                assert _verdict(Trinomial(b, d), 2) == expected, (b, d)

    def test_branch_5(self):
        v = prime_index_test(Trinomial(1, -1), 5)
        assert (v.branch, v.divides_index) == (5, False)
        # e = 4 - 4*26 = -100 with 25 | e, and 5 divides neither 2 nor 26
        v = prime_index_test(Trinomial(2, 26), 5)
        assert (v.branch, v.divides_index) == (5, True)

    @given(coeffs, coeffs)
    def test_every_disc_prime_lands_in_a_branch(self, b, d):
        t = Trinomial(b, d)
        if not is_irreducible(t):
            return
        for q in disc_primes(t):
            v = prime_index_test(t, q)
            assert v.evaluated
            assert v.branch in (1, 2, 3, 4, 5)
            b_div, d_div = b % q == 0, d % q == 0
            if b_div and d_div:
                assert v.branch == 1
            elif b_div:
                assert v.branch == 2
            elif d_div:
                assert v.branch == 3
            elif q == 2:
                assert v.branch == 4
            else:
                assert v.branch == 5


class TestClosedForms:
    @given(coeffs, coeffs, st.sampled_from([3, 5, 7, 11, 13]))
    def test_odd_q_branch_2_unreachable(self, half, d, q):
        # odd q | b with q not dividing d forces q not dividing the discriminant,
        # since b^2 - 4d = -4d mod q; so branch 2 only ever fires at q = 2
        b = q * half
        if d % q == 0:
            return
        assert discriminant(Trinomial(b, d)) % q != 0

    @given(coeffs, coeffs, st.sampled_from([3, 5, 7, 11, 13]))
    def test_odd_q_branch_3(self, b, d2, q):
        # for odd q | d with q not dividing b: free exactly when q^2 does not divide d
        d = q * d2
        t = Trinomial(b, d)
        if d == 0 or b % q == 0 or not is_irreducible(t):
            return
        v = prime_index_test(t, q)
        assert v.branch == 3
        assert v.divides_index == (d % (q * q) == 0)

    @given(coeffs, coeffs)
    def test_mod_4_form_at_2(self, half_b, d):
        # q = 2 with b even and d odd: free exactly for (b, d) = (0, 1) or (2, 3) mod 4
        b = 2 * half_b
        if d % 2 == 0:
            return
        t = Trinomial(b, d)
        if not is_irreducible(t):
            return
        v = prime_index_test(t, 2)
        assert v.branch == 2
        expected_free = (b % 4, d % 4) in {(0, 1), (2, 3)}
        assert v.divides_index == (not expected_free)


def irreducible_lift(b, d, m):
    """The first irreducible (b + m*i, d + m*j) with d != 0, small i and j first."""
    for i in range(4):
        for j in range(4):
            t = Trinomial(b + m * i, d + m * j)
            if t.d and is_irreducible(t):
                return t
    raise AssertionError(f"no irreducible lift of {(b, d)} mod {m}")


class TestResidueClasses:
    # every verdict at q depends only on (b, d) mod q^2, so one irreducible
    # lift per residue class settles the engine's branches for all (b, d)
    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
    def test_every_class_mod_q_squared(self, q):
        qq = q * q
        checked = 0
        for b0 in range(qq):
            for d0 in range(qq):
                t = irreducible_lift(b0, d0, qq)
                b, d = t.b, t.d
                if q > 2 and b % q == 0 and d % q != 0:
                    # branch 2 never meets an odd prime
                    assert discriminant(t) % q != 0, (b, d)
                if discriminant(t) % q:
                    continue
                engine = _verdict(t, q).divides_index
                assert engine == dedekind_bruteforce(b, d, q), (b, d, q)
                assert engine == closed_form_divides_index(b, d, q), (b, d, q)
                if d % q == 0 and b % q != 0:
                    # branch 3's deleted disjunct is never a unit mod q
                    s = 2 if q == 2 else 1
                    b1, d2 = (b + (-b) ** s) // q, d // q
                    assert b1 * d2 * (d2 - b * b1) % q == 0, (b, d, q)
                checked += 1
        assert checked > 0


class TestVerdictTexts:
    # the JSON writer's text at q depends on (b, d) mod q^2 and, in branches
    # 2 and 3, on b/2, (d + d^4)/2 or d/q; one irreducible lift per class
    # checks each of its arms against the engine's verdict, encoded
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_every_class_mod_q_squared(self, q):
        qq = q * q
        shapes = set()
        skipped = 0
        for b0 in range(qq):
            for d0 in range(qq):
                t = irreducible_lift(b0, d0, qq)
                if discriminant(t) % q:
                    continue
                b, d = t.b, t.d
                e = b * b - 4 * d
                v = _verdict(t, q)
                texts, monogenic = _verdict_texts(b, d, e, [q])
                assert texts == [_JSON.encode(v.to_dict())], (b, d, q)
                assert monogenic == (not v.divides_index), (b, d, q)
                # the primes after a failing q get placeholders, as in the engine
                primes = factor_discriminant(t).primes()
                later = [p for p in primes if p > q]
                texts, _ = _verdict_texts(b, d, e, [q, *later])
                if v.divides_index:
                    want = [_JSON.encode(PrimeVerdict.skipped(p).to_dict()) for p in later]
                    assert texts[1:] == want, (b, d, q)
                    skipped += len(later)
                texts, monogenic = _verdict_texts(b, d, e, primes)
                engine = list(_verdicts(t, primes))
                assert texts == [_JSON.encode(w.to_dict()) for w in engine], (b, d, q)
                assert monogenic == (not any(w.divides_index for w in engine)), (b, d, q)
                shapes.add((v.branch, v.divides_index))
        branches = (1, 2, 3, 4) if q == 2 else (1, 3, 5)
        assert shapes == {(k, x) for k in branches for x in (False, True)}
        assert skipped > 0


def lift_free_at_2(b, d, m):
    """The first irreducible (b + m*i, d + m*j) with d != 0 on which 2 does
    not divide the index, for odd m; i and j run over all classes mod 4."""
    for i in range(16):
        for j in range(16):
            t = Trinomial(b + m * i, d + m * j)
            if t.d and (t.b % 4, t.d % 4) not in _FAILS_AT_2 and is_irreducible(t):
                return t
    raise AssertionError(f"no lift of {(b, d)} mod {m} free at 2")


def least_index_prime_of(t, e_below=None):
    """The criterion on a cell's full factorization of d and that of e, or
    only e's primes below ``e_below``."""
    e = t.b * t.b - 4 * t.d
    e_counts = [(p, j) for p, j in factor(e).factors if e_below is None or p < e_below]
    return _least_index_prime(t.b, t.d, dict(factor(t.d).factors), e_counts)


class TestSmallIndexPrime:
    def test_mod_4_table_is_the_closed_form(self):
        assert _FAILS_AT_2 == FAILING_CLASSES_MOD_4
        assert len(_FAILS_AT_2) == 8

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
    def test_every_class_mod_q_squared(self, q):
        # the criterion read at q alone, on one lift per class mod q^2; at an
        # odd q the lift is free at 2, so the mod-4 table does not answer first
        qq = q * q
        sunk = 0
        for b0 in range(qq):
            for d0 in range(qq):
                if q == 2:
                    t = irreducible_lift(b0, d0, qq)
                    d_counts, e_found = {}, []
                else:
                    t = lift_free_at_2(b0, d0, qq)
                    e = t.b * t.b - 4 * t.d
                    d_counts = {q: valuation(t.d, q)} if t.d % q == 0 else {}
                    e_found = [(q, valuation(e, q))] if e % q == 0 else []
                b, d = t.b, t.d
                assert (b % qq, d % qq) == (b0, d0)
                closed = closed_form_divides_index(b, d, q)
                got = _least_index_prime(b, d, d_counts, e_found)
                assert got == (q if closed else None), (b, d, q)
                if discriminant(t) % q == 0:
                    assert closed == _verdict(t, q).divides_index, (b, d, q)
                else:
                    assert not closed, (b, d, q)
                sunk += closed
        assert 0 < sunk < qq * qq

    def test_every_cell_around_the_origin(self):
        for b in range(-30, 31):
            for d in range(-30, 31):
                t = Trinomial(b, d)
                if d and is_irreducible(t):
                    assert least_index_prime_of(t) == is_monogenic(t).failing_prime(), (b, d)

    @settings(max_examples=200)
    @given(
        st.integers(min_value=-10**9, max_value=10**9),
        st.integers(min_value=-10**9, max_value=10**9),
    )
    def test_random_cells(self, b, d):
        t = Trinomial(b, d)
        if d and is_irreducible(t):
            assert least_index_prime_of(t) == is_monogenic(t).failing_prime()

    @pytest.mark.parametrize(
        "b, d",
        [
            (1, 3 * 1009**2),  # 1009^2 | d
            (1, 3 * 933241),  # e = -11 * 1009^2, and 1009 does not divide d
        ],
    )
    def test_a_failing_prime_above_1000_is_left_open(self, b, d):
        # the first failing prime lies above the trial primes, so on all of
        # d and e's primes below 1000, what a dense walk holds before its
        # Brent tail, the criterion names no prime below 1000, only 1009^2
        # in d; on all of e it names the failing prime
        t = Trinomial(b, d)
        assert is_irreducible(t)
        assert is_monogenic(t).failing_prime() == 1009
        assert least_index_prime_of(t, e_below=1000) == (1009 if d % 1009 == 0 else None)
        assert least_index_prime_of(t) == 1009


class TestValidation:
    def test_composite_q_rejected(self):
        with pytest.raises(ValueError):
            prime_index_test(Trinomial(5, 5), 4)

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            prime_index_test(Trinomial(0, -1), 2)

    def test_prime_outside_disc_rejected(self):
        with pytest.raises(ValueError):
            prime_index_test(Trinomial(5, 5), 3)

    def test_unchecked_dispatch_refuses_branch_2_at_odd_prime(self):
        # 3 | b and 3 ∤ d keep 3 out of disc(f), so only a broken caller
        # gets here; the dispatch raises rather than label it prime 2
        with pytest.raises(ArithmeticError):
            _verdict(Trinomial(3, 1), 3)


def docstring_verdict(b, d, q):
    """The verdict at q, built field by field from the five branches as the
    module docstring states them."""
    e = b * b - 4 * d
    if b % q == 0 and d % q == 0:
        return PrimeVerdict(q, True, d % (q * q) == 0, 1)
    if b % q == 0:
        assert q == 2
        b2, d1 = b // 2, (d + d**4) // 2
        if b2 % 2 == 0 and d1 % 2 == 1:
            disjunct = 1
        elif b2 * (-d * b2 * b2 - d1 * d1) % 2 == 1:
            disjunct = 2
        else:
            disjunct = None
        inter = BranchIntermediates(b2=b2, d1=d1, s=4, disjunct=disjunct)
        return PrimeVerdict(2, True, disjunct is None, 2, inter)
    if d % q == 0:
        s = 2 if q == 2 else 1
        b1, d2 = (b + (-b) ** s) // q, d // q
        disjunct = 1 if b1 % q == 0 and d2 % q != 0 else None
        inter = BranchIntermediates(b1=b1, d2=d2, s=s, disjunct=disjunct)
        return PrimeVerdict(q, True, disjunct is None, 3, inter)
    if q == 2:
        h1 = nmod_trim(2, (d, b, 1))
        h2 = nmod_trim(2, (d * (1 + d) // 2, b * d, b * (1 + b) // 2))
        g = nmod_gcd(2, h1, h2)
        return PrimeVerdict(2, True, len(g) > 1, 4, h1=h1, h2=h2, h_gcd=g)
    return PrimeVerdict(q, True, e % (q * q) == 0, 5)


class TestDocstringVerdicts:
    def test_every_cell_of_a_box(self):
        # every branch's verdict is the module docstring's, and a second
        # call on the same cell and prime gives an equal one
        branches = set()
        for b in range(-30, 31):
            for d in range(-30, 31):
                t = Trinomial(b, d)
                if not d or not is_irreducible(t):
                    continue
                for q in disc_primes(t, cap=13):
                    v = _verdict(t, q)
                    assert v == docstring_verdict(b, d, q), (b, d, q)
                    assert _verdict(t, q) == v, (b, d, q)
                    branches.add((v.branch, q == 2))
        # every branch, and branches 1 and 3 both at 2 and at an odd q
        assert branches == {(1, True), (1, False), (2, True), (3, True), (3, False), (4, True), (5, False)}


# the JSON key order of every verdict; the optional parts follow it
VERDICT_KEYS = ["prime", "evaluated", "divides_index", "branch"]


class TestVerdictType:
    def test_skipped(self):
        v = PrimeVerdict.skipped(7)
        assert v.prime == 7
        assert not v.evaluated
        assert not v.divides_index
        assert v.branch is None
        assert v.to_dict() == dict(zip(VERDICT_KEYS, (7, False, False, None)))
        assert list(v.to_dict()) == VERDICT_KEYS

    @pytest.mark.parametrize(
        "b, d, q, branch, keys, intermediates",
        [
            (6, 3, 3, 1, VERDICT_KEYS, None),
            (3, 9, 3, 1, VERDICT_KEYS, None),
            (0, 1, 2, 2, VERDICT_KEYS + ["intermediates"], ["b2", "d1", "s", "disjunct"]),
            (-12, -9, 2, 2, VERDICT_KEYS + ["intermediates"], ["b2", "d1", "s"]),
            (1, 3, 3, 3, VERDICT_KEYS + ["intermediates"], ["b1", "d2", "s", "disjunct"]),
            (-11, -10, 2, 3, VERDICT_KEYS + ["intermediates"], ["b1", "d2", "s"]),
            (5, 5, 2, 4, VERDICT_KEYS + ["h1", "h2", "h_gcd"], None),
            (-11, -9, 2, 4, VERDICT_KEYS + ["h1", "h2", "h_gcd"], None),
            (1, -1, 5, 5, VERDICT_KEYS, None),
        ],
    )
    def test_to_dict_key_order(self, b, d, q, branch, keys, intermediates):
        # literal key lists: a new or moved dataclass field changes stdout
        v = prime_index_test(Trinomial(b, d), q)
        assert v.branch == branch
        got = v.to_dict()
        assert list(got) == keys
        if intermediates is not None:
            assert list(got["intermediates"]) == intermediates

    def test_to_dict_branch_4(self):
        d = prime_index_test(Trinomial(5, 5), 2).to_dict()
        assert d["prime"] == 2
        assert d["branch"] == 4
        assert d["divides_index"] is True
        assert d["h1"] == [1, 1, 1]
        assert d["h_gcd"] == [1, 1, 1]

    def test_to_dict_branch_2(self):
        d = prime_index_test(Trinomial(0, 1), 2).to_dict()
        assert d["intermediates"] == {"b2": 0, "d1": 1, "s": 4, "disjunct": 1}
        assert "h1" not in d


class TestAgainstDedekind:
    def test_exhaustive_small_box(self):
        for b in range(-10, 11):
            for d in range(-10, 11):
                t = Trinomial(b, d)
                if not is_irreducible(t):
                    continue
                for q in disc_primes(t):
                    engine = prime_index_test(t, q).divides_index
                    oracle = dedekind_divides_index(t, q)
                    assert engine == oracle, (b, d, q)

    @given(coeffs, coeffs)
    @settings(max_examples=300)
    def test_random_cells(self, b, d):
        t = Trinomial(b, d)
        if not is_irreducible(t):
            return
        for q in disc_primes(t, cap=50):
            assert prime_index_test(t, q).divides_index == dedekind_divides_index(t, q)
