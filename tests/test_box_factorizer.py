"""The dense search walk against the per-cell route.

Without ``c4_only``, ``iter_box`` runs ``search._dense_items``: it factors
each d of a walk once and sieves e = b^2 - 4d along each row in segments
(``intarith._sieve_progression``).  ``_cell_report`` classifies one cell
through ``is_monogenic``, which factors d and e by trial division
(``factor_discriminant``), and is the oracle here, cell by cell: equal
reports carry equal factorizations.  Give-ups are checked against the
package-independent ``factor_discriminant_reference``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from c4quartic import intarith, search
from c4quartic.intarith import FactorizationIncomplete
from c4quartic.search import (
    _SEGMENT,
    SearchError,
    _cell_report,
    format_item,
    iter_box,
    search_lines,
)
from c4quartic.trinomial import Trinomial
from oracles import factor_discriminant_reference

# the two primes after 2^40: past trial division, so with a budget of 1000
# steps the splitter gives up on their product
SEMIPRIME = 1099511627791 * 1099511627803


def check_box(b_min, b_max, d_min, d_max):
    cells = [(b, d) for b in range(b_min, b_max + 1) for d in range(d_min, d_max + 1)]
    got = list(iter_box(b_min, b_max, d_min, d_max))
    if len(got) != len(cells):
        raise AssertionError(f"{len(got)} items for {len(cells)} cells")
    for (b, d), item in zip(cells, got):
        want = _cell_report(b, d)
        if item != want:
            raise AssertionError(f"cell ({b}, {d}): {item!r} != {want!r}")


def count_factor_into(monkeypatch):
    """The list of every number the dense walk hands to ``_factor_into``."""
    calls = []

    def counting(n, counts, k):
        calls.append(n)
        intarith._factor_into(n, counts, k)

    monkeypatch.setattr(search, "_factor_into", counting)
    return calls


class TestAgainstFactorDiscriminant:
    def test_every_cell_around_the_origin(self):
        check_box(-40, 40, -40, 40)
        cells = [(b, d) for b in range(-40, 41) for d in range(-40, 41)]
        es = [b * b - 4 * d for b, d in cells]
        # the d = 0 column, e = 0 cells, negative e, and whole rows of |e| < 1000
        assert any(d == 0 for _, d in cells)
        assert 0 in es and min(es) < 0
        assert all(abs(b * b - 4 * d) < 1000 for b in (0, 1) for d in range(-40, 41))
        assert 81 % _SEGMENT != 0

    @pytest.mark.parametrize(
        "b_min, b_max, d_min, d_max",
        [
            (-3, 3, 7, 7),  # one cell wide
            (-3, 3, 0, 0),  # the d = 0 column alone
            (5, 9, 1, _SEGMENT),  # exactly one segment
            (5, 9, 1, _SEGMENT + 1),  # one segment and one cell
            (5, 9, -_SEGMENT - 7, 2 * _SEGMENT),  # crosses 0, ends mid-segment
            (-20, 20, 1, 100),  # e = 0 on the even rows
            (99_998, 100_002, 999_999_950, 1_000_000_080),  # e near 10^10
            (-3, 3, -10**12 - 70, -10**12 + 70),  # negative d near -10^12
        ],
    )
    def test_boxes(self, b_min, b_max, d_min, d_max):
        check_box(b_min, b_max, d_min, d_max)

    @settings(max_examples=25)
    @given(
        st.integers(min_value=-10**12, max_value=10**12),
        st.integers(min_value=-10**12, max_value=10**12),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2 * _SEGMENT + 3),
    )
    def test_boxes_near_10_to_the_12(self, b, d, rows, width):
        check_box(b, b + rows, d, d + width)


class TestWalk:
    # 7 rows over 1, 2 and 3 workers give chunks of 7, 4+3 and 3+3+1 rows,
    # so a worker's factorizer starts at a row of its own, and every row of
    # the 150-wide d-range ends in a partial segment
    BOX = (100_000, 100_006, 999_999_993, 1_000_000_142)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_search_lines_match_the_per_cell_route(self, fmt, workers):
        b_min, b_max, d_min, d_max = self.BOX
        want = [
            format_item(_cell_report(b, d), fmt)
            for b in range(b_min, b_max + 1)
            for d in range(d_min, d_max + 1)
        ]
        got = list(search_lines(*self.BOX, fmt=fmt, workers=workers))
        assert got == want

    def test_no_factorization_outlives_a_walk(self, monkeypatch):
        calls = count_factor_into(monkeypatch)
        for _ in range(2):
            calls.clear()
            list(iter_box(-6, 6, -5, 9))
            # each nonzero d once per walk: no table is shared between walks
            assert sorted(calls) == [d for d in range(-5, 10) if d != 0]

    def test_each_d_factored_once_per_worker_process(self, monkeypatch, serial_pool):
        calls = count_factor_into(monkeypatch)
        # 1101 columns, wider than a chunk: 4 chunks of one row each, all
        # run in this one process
        got = list(search_lines(0, 3, -600, 500, workers=2))
        assert len(serial_pool[0].submitted) == 4
        assert sorted(calls) == [d for d in range(-600, 501) if d != 0]
        # a new d-range drops the table of the old one
        list(search_lines(0, 1, 1, 1100, workers=2))
        assert list(search._d_tables) == [(1, 1100)]
        calls.clear()
        assert got == list(search_lines(0, 3, -600, 500, workers=1))
        assert sorted(calls) == [d for d in range(-600, 501) if d != 0]


class TestGiveUps:
    def test_a_d_give_up_repeats_on_every_row_of_its_column(self, monkeypatch):
        monkeypatch.setattr(intarith, "_MAX_EFFORT", 1000)
        calls = count_factor_into(monkeypatch)
        rows = range(2**40 + 1, 2**40 + 4)
        items = list(iter_box(rows[0], rows[-1], SEMIPRIME - 2, SEMIPRIME + 2))
        # the give-up is kept for the later rows, not found again on each
        assert calls.count(SEMIPRIME) == 1
        # every cell as the per-cell route gives it, under the same budget
        cells = [(b, d) for b in rows for d in range(SEMIPRIME - 2, SEMIPRIME + 3)]
        assert items == [_cell_report(b, d) for b, d in cells]
        column = [item for item in items if item.trinomial.d == SEMIPRIME]
        assert [item.trinomial.b for item in column] == list(rows)
        for item in column:
            with pytest.raises(FactorizationIncomplete) as want:
                factor_discriminant_reference(item.trinomial)
            assert want.value.n == SEMIPRIME
            assert item.message == str(want.value)
        assert len({item.message for item in column}) == 1

    def test_an_e_give_up_names_e(self, monkeypatch):
        monkeypatch.setattr(intarith, "_MAX_EFFORT", 1000)
        # e = (2^40 + 1)^2 - 4*33 = 20766489347 * 58215223546751
        b = 2**40 + 1
        e = b * b - 4 * 33
        items = dict(zip(range(30, 37), iter_box(b, b, 30, 36)))
        got = items[33]
        assert isinstance(got, SearchError) and got.trinomial == Trinomial(b, 33)
        with pytest.raises(FactorizationIncomplete) as want:
            factor_discriminant_reference(Trinomial(b, 33))
        assert want.value.n == e
        assert got.message == str(want.value)
        assert got.message.startswith(f"factorization of {e} exceeded")
        for d, item in items.items():
            assert item == _cell_report(b, d), d
