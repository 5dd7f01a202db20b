"""The dense search walk against the per-cell route.

Without ``c4_only``, ``iter_box`` runs ``search._dense_items``: it factors
each d of a walk once and sieves e = b^2 - 4d along each row in segments
(``intarith._sieve_progression``).  ``_cell_report`` classifies one cell
through ``is_monogenic``, which factors d and e by trial division
(``factor_discriminant``), and is the oracle here, cell by cell: equal
reports carry equal factorizations.  Give-ups are checked against the
package-independent ``factor_discriminant_reference``.

A CSV or ``monogenic_only`` walk decides every cell from the closed form of
the index criterion.  Where the rest of e is below (y + 1)^3, for the
sieve's bound y, it is 1, p, p^2 or p*q, and a square test finds the one
prime square it can hold; where it is (y + 1)^3 or more, a reducible cell,
or one whose index a prime below 1000 divides, is decided before the rest
of e is factored, and any other after.  Its stream must still equal the
per-cell route's, formatted and filtered; only a filtered JSON stream or
``iter_box`` factors the rest of a monogenic cell's e, to print it, and
they build a report only for a monogenic cell that ``iter_box`` prints.
"""

import pytest
from hypothesis import given, settings, strategies as st

from c4quartic import intarith, search
from c4quartic.index_criterion import PrimeVerdict
from c4quartic.intarith import FactorizationIncomplete
from c4quartic.monogenic import MonogenicityReport
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


def cells_of(b_min, b_max, d_min, d_max):
    return [(b, d) for b in range(b_min, b_max + 1) for d in range(d_min, d_max + 1)]


def kept(report, monogenic_only):
    return not (monogenic_only and isinstance(report, MonogenicityReport) and not report.monogenic)


def per_cell_lines(reports, fmt, monogenic_only):
    """The lines of a search, and its skip messages, from per-cell reports."""
    lines, skips = [], []
    for report in reports:
        if not kept(report, monogenic_only):
            continue
        line = format_item(report, fmt)
        if line is None:
            t = report.trinomial
            skips.append(f"b={t.b} d={t.d}: {report.message}")
        else:
            lines.append(line)
    return lines, skips


def check_decided_box(box, workers=1):
    """The streams that decide before factoring against the per-cell route."""
    reports = [_cell_report(b, d) for b, d in cells_of(*box)]
    for fmt, monogenic_only in (("csv", False), ("csv", True), ("json", True)):
        skips = []
        got = list(
            search_lines(
                *box, fmt=fmt, monogenic_only=monogenic_only, workers=workers, on_skip=skips.append
            )
        )
        assert (got, skips) == per_cell_lines(reports, fmt, monogenic_only), (fmt, monogenic_only)
    assert list(iter_box(*box, monogenic_only=True)) == [r for r in reports if kept(r, True)]


def is_decided(report):
    # reducible, or sunk at a prime below 1000: decided before the Brent
    # tail whatever the bound the sieve reached
    if isinstance(report, SearchError):
        return False
    p = report.failing_prime()
    return not report.irreducible or (p is not None and p < 1000)


def count_calls(monkeypatch, module, name):
    """The argument tuples of every call of ``module.name``."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def count_factor_into(monkeypatch):
    """The list of every number the dense walk hands to ``_factor_into``."""
    calls = []

    def counting(n, counts, k):
        calls.append(n)
        intarith._factor_into(n, counts, k)

    monkeypatch.setattr(search, "_factor_into", counting)
    return calls


# the boxes of TestAgainstFactorDiscriminant.test_boxes, walked again by
# TestDecideBeforeFactoring
BOXES = [
    (-3, 3, 7, 7),  # one cell wide
    (-3, 3, 0, 0),  # the d = 0 column alone
    (5, 9, 1, _SEGMENT),  # exactly one segment
    (5, 9, 1, _SEGMENT + 1),  # one segment and one cell
    (5, 9, -_SEGMENT - 7, 2 * _SEGMENT),  # crosses 0, ends mid-segment
    (-20, 20, 1, 100),  # e = 0 on the even rows
    (99_998, 100_002, 999_999_950, 1_000_000_080),  # e near 10^10
    (-3, 3, -10**12 - 70, -10**12 + 70),  # negative d near -10^12
] + [
    # one row each near the cube of the sieve's cap, 64 * _SIEVE_PER_TERM =
    # 64000 for a full segment; each row ends in a 2-cell segment, sieved
    # to 1000 only.  Below the cap: |e| near 1.95 * 10^14, where the cell
    # with e = -195 * 1000003^2 fails at 1000003 by the square test
    (1, 1, 48750292500439 - 60, 48750292500439 + 69),
    # above it: e near 3 * 10^14
    (1, 1, -75 * 10**12, -75 * 10**12 + 129),
    # across it: the first segment's e reaches 64001^3, the second's not
    (1, 1, -65539072048063, -65539072047934),
]

# the box of the box-csv-w2 benchmark workload
BENCHMARK_BOX = (100_000, 100_119, 10**9, 10**9 + 119)


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

    @pytest.mark.parametrize("b_min, b_max, d_min, d_max", BOXES)
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


class TestDecideBeforeFactoring:
    def test_every_cell_around_the_origin(self):
        check_decided_box((-40, 40, -40, 40))

    @pytest.mark.parametrize("box", BOXES)
    def test_boxes(self, box):
        check_decided_box(box)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_walk_box_on_any_worker_count(self, workers):
        check_decided_box(TestWalk.BOX, workers)

    @pytest.mark.parametrize("box", BOXES[-3:])
    def test_boxes_near_the_cap_on_two_workers(self, serial_pool, box):
        check_decided_box(box, 2)
        # one pool for each of the three searches
        assert len(serial_pool) == 3

    def test_the_cap_boxes_sit_at_the_cap(self):
        below, above, across = BOXES[-3:]
        cap = 64 * intarith._SIEVE_PER_TERM
        bounds = [
            intarith._sieve_progression(b * b - 4 * lo, min(_SEGMENT, d_max + 1 - lo))[2]
            for b, _, d_min, d_max in (below, above, across)
            for lo in range(d_min, d_max + 1, _SEGMENT)
        ]
        assert bounds == [57989, 57989, 1000, 1000, 1000, 1000, 1000, cap, 1000]
        assert _cell_report(1, 48750292500439).failing_prime() == 1000003

    @settings(max_examples=15)
    @given(
        st.integers(min_value=-10**12, max_value=10**12),
        st.integers(min_value=-10**12, max_value=10**12),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2 * _SEGMENT + 3),
    )
    def test_boxes_near_10_to_the_12(self, b, d, rows, width):
        check_decided_box((b, b + rows, d, d + width))

    @pytest.mark.parametrize("fmt, monogenic_only", [("csv", False), ("json", True)])
    def test_decided_cells_never_reach_the_brent_tail(self, monkeypatch, fmt, monogenic_only):
        tails = count_calls(monkeypatch, search, "_factor_tail")
        reports = count_calls(monkeypatch, search, "_report")
        list(search_lines(*TestWalk.BOX, fmt=fmt, monogenic_only=monogenic_only))
        by_e = {b * b - 4 * d: _cell_report(b, d) for b, d in cells_of(*TestWalk.BOX)}
        # e = b^2 - 4d tells the cells of this box apart
        assert len(by_e) == len(cells_of(*TestWalk.BOX))
        decided = [r for r in by_e.values() if is_decided(r)]
        assert 0 < len(decided) < len(by_e)
        assert not any(is_decided(by_e[args[0]]) for args in tails)
        # |e| is near 6 * 10^9 here, so the sieve reaches its cube root and
        # every cell is decided without the tail; the JSON stream factors
        # the rest of e of the monogenic cells it prints, and no other
        if fmt == "csv":
            assert tails == []
        assert all(by_e[args[0]].monogenic for args in tails)
        # each e at most once
        assert len({args[0] for args in tails}) == len(tails)
        # the JSON stream prints monogenic cells, each written from its
        # record: no stream builds a report
        monogenic = {r.trinomial for r in by_e.values() if r.monogenic}
        assert 0 < len(monogenic) <= len(by_e) - len(decided)
        assert reports == []

    def test_benchmark_box_spares_the_tail_and_the_placeholders(self, monkeypatch):
        # each number the walk factors past trial division: the d table's
        # through intarith, the rest of e through search
        d_tails = count_calls(monkeypatch, intarith, "_factor_tail")
        e_tails = count_calls(monkeypatch, search, "_factor_tail")
        placeholders = []
        skipped = PrimeVerdict.skipped

        def counting_skipped(cls, prime):
            placeholders.append(prime)
            return skipped(prime)

        monkeypatch.setattr(PrimeVerdict, "skipped", classmethod(counting_skipped))
        reports = count_calls(monkeypatch, search, "_report")
        cells = len(cells_of(*BENCHMARK_BOX))
        lines = list(search_lines(*BENCHMARK_BOX, fmt="csv"))
        assert placeholders == []
        assert reports == []
        assert len(lines) == cells
        # the sieve reaches the cube root of e, so no rest of e reaches the
        # tail; 119 of the 120 values of d do, once each
        assert e_tails == []
        assert len(d_tails) == 119
        # one cell fails above the trial primes, at 1109; the sieve finds
        # 1109^2 in its e, and the placeholder the per-cell report gives its
        # last prime is never built
        assert [line for line in lines if line.endswith(",1109")] == [
            "100089,1000000047,true,false,579424185814609041962658665328,false,0,2,1109"
        ]
        assert 1000000047 == 3 * 333333349
        assert _cell_report(100089, 1000000047).verdicts[-1] == PrimeVerdict.skipped(333333349)

    @pytest.mark.parametrize(
        "b, d",
        [
            (1, 3 * 1009**2),  # 1009^2 | d
            (1, 3 * 933241),  # e = -11 * 1009^2: a square in the rest of e
        ],
    )
    def test_a_failing_prime_above_1000_is_decided_after_the_brent_tail(self, monkeypatch, b, d):
        box = (b, b, d - 2, d + 2)
        want = [_cell_report(b, x) for x in range(d - 2, d + 3)]
        tails = count_calls(monkeypatch, search, "_factor_tail")
        reports = count_calls(monkeypatch, search, "_report")
        for fmt, monogenic_only in (("csv", False), ("json", True)):
            got = list(search_lines(*box, fmt=fmt, monogenic_only=monogenic_only))
            assert got == per_cell_lines(want, fmt, monogenic_only)[0]
        # the square test or d's table decides it, so its e never reaches
        # the tail, and no report is built
        assert [args[0] for args in tails].count(b * b - 4 * d) == 0
        assert [args[0].d for args in reports].count(d) == 0
        assert _cell_report(b, d).failing_prime() == 1009
        assert next(search_lines(b, b, d, d, fmt="csv")).endswith(",1009")

    # cells whose factors above the trial primes decide them, each with the
    # number the Brent tail would have to split: the d table's own, or the
    # rest of e
    ABOVE_1000 = [
        # d = 1009^2 * 1013, so the d table's tail finds the square
        (3, 1009**2 * 1013, 1009, "d", 1009**2 * 1013),
        # e = 1009^2 * 1013
        (1, -257829013, 1009, "e", 1009**2 * 1013),
        # monogenic, with e = 1009 * 1013
        (1, -255529, None, "e", 1009 * 1013),
    ]

    @pytest.mark.parametrize("b, d, failing, part, tail", ABOVE_1000)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_primes_above_1000_decide_the_cell(
        self, monkeypatch, serial_pool, b, d, failing, part, tail, workers
    ):
        report = _cell_report(b, d)
        assert report.irreducible and report.failing_prime() == failing
        assert report.monogenic == (failing is None)
        tails = count_calls(monkeypatch, intarith if part == "d" else search, "_factor_tail")
        # three rows, so two workers get two chunks, both run in this process
        check_decided_box((b - 1, b + 1, d - 3, d + 3), workers)
        n = b * b - 4 * d if part == "e" else d
        if part == "d":
            assert (n, tail) in [args[:2] for args in tails]
        else:
            # each rest of e is below (y + 1)^3 (y = 1010 for the failing
            # e, 1000 for the monogenic one), so a failing e never reaches
            # the tail, and a monogenic one only where its factorization is
            # printed: in the filtered JSON stream and in iter_box
            factored = [args[:2] for args in tails].count((n, tail))
            assert factored == (0 if failing else 2)
        # one pool for each of the three searches
        assert len(serial_pool) == (3 if workers == 2 else 0)
        assert all(len(pool.submitted) == 2 for pool in serial_pool)

    def test_a_rest_past_the_bound_still_reaches_the_tail(self, monkeypatch):
        # one cell, so its segment is sieved to 1000 only, and the rest of
        # e = 1009^2 * 1013 is at least 1001^3: not a square, yet it fails
        # at 1009, which the Brent tail finds on every stream
        b, d = 1, -257829013
        e = b * b - 4 * d
        assert e == 1009**2 * 1013 >= 1001**3
        tails = count_calls(monkeypatch, search, "_factor_tail")
        check_decided_box((b, b, d, d))
        assert [args[:2] for args in tails] == [(e, e)] * 4
        assert next(search_lines(b, b, d, d, fmt="csv")).endswith(",1009")

    def test_a_prime_of_d_above_1000_waits_for_the_tail_past_the_bound(self):
        # one cell, so its segment is sieved to 1000 only, and the rest of
        # e = -4 * 1009^2 * 1019^2 is past 1001^3.  Before the tail, d's
        # table sinks the cell at 1019, but the tail finds 1009 in e, the
        # least prime dividing the index
        b, d = 2038, 1057136643602
        assert d == 2 * 13 * 1019**2 * 39157
        assert b * b - 4 * d == -4 * 1009**2 * 1019**2
        assert (1009 * 1019) ** 2 >= 1001**3
        report = _cell_report(b, d)
        assert report.failing_prime() == 1009
        check_decided_box((b, b, d, d))
        assert next(search_lines(b, b, d, d, fmt="csv")).endswith(",1009")
        assert list(search_lines(b, b, d, d, monogenic_only=True)) == []
        assert list(iter_box(b, b, d, d)) == [report]

    def test_a_settled_monogenic_cell_cannot_give_up_on_e(self, monkeypatch):
        # e = 1009 * 1013 is monogenic, and a budget of one step gives up on it
        b, d = 1, -255529
        want = format_item(_cell_report(b, d), "csv")
        monkeypatch.setattr(intarith, "_MAX_EFFORT", 1)
        give_up = _cell_report(b, d)
        assert isinstance(give_up, SearchError)
        # a CSV walk settles it by the square test and prints its row; the
        # streams that print its factorization factor e, and give up
        assert list(search_lines(b, b, d, d, fmt="csv")) == [want]
        assert list(search_lines(b, b, d, d, fmt="csv", monogenic_only=True)) == [want]
        assert list(search_lines(b, b, d, d, monogenic_only=True)) == [format_item(give_up, "json")]
        assert list(iter_box(b, b, d, d, monogenic_only=True)) == [give_up]

    def test_a_decided_cell_cannot_give_up_on_e(self, monkeypatch, serial_pool):
        monkeypatch.setattr(intarith, "_MAX_EFFORT", 1000)
        # on this row the factorizer gives up on e at d = 30, 31, 33 and 35
        # under this budget; 2 divides the index at d = 30 and 33, and the
        # other two are left open by the closed form
        b = 2**40 + 1
        box = (b, b, 30, 36)
        for d in (30, 31, 33, 35):
            assert isinstance(_cell_report(b, d), SearchError)
        assert [is_decided(_cell_report(b, d)) for d in (32, 34, 36)] == [True] * 3
        open_give_ups = [_cell_report(b, 31), _cell_report(b, 35)]
        # with two workers the row is one pool chunk, run in this process by
        # the serial pool, so the small budget holds there too
        for workers in (1, 2):
            skips = []
            csv = list(search_lines(*box, fmt="csv", workers=workers, on_skip=skips.append))
            # CSV prints the decided cells and skips only the open ones
            assert [int(line.split(",")[1]) for line in csv] == [30, 32, 33, 34, 36]
            assert [msg.split(":")[0] for msg in skips] == [f"b={b} d=31", f"b={b} d=35"]
            for line in csv:
                assert line.split(",")[5] == "false" and line.endswith(",2")
            # monogenic_only drops them, and passes the open give-ups through
            mono = list(search_lines(*box, monogenic_only=True, workers=workers))
            assert mono == [format_item(item, "json") for item in open_give_ups]
        assert len(serial_pool) == 2
        assert list(iter_box(*box, monogenic_only=True)) == open_give_ups
        # unfiltered JSON still carries every give-up as an error record
        errors = [item.trinomial.d for item in iter_box(*box) if isinstance(item, SearchError)]
        assert errors == [30, 31, 33, 35]
