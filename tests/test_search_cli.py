import dataclasses
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import c4quartic
from c4quartic import index_criterion, intarith, search
from c4quartic._scan_py import _route, _scan_cells, _scan_gaussian, _scan_triples, scan_c4
from c4quartic.cli import main
from c4quartic.index_criterion import PrimeVerdict, _verdict_texts
from c4quartic.intarith import FactorizationIncomplete
from c4quartic.monogenic import DegenerateTrinomialError, MonogenicityReport, is_monogenic
from c4quartic.search import (
    _JSON,
    CSV_HEADER,
    SearchError,
    _cell_report,
    format_item,
    iter_box,
    oracle_check,
    search_lines,
    verify_theorem,
)
from c4quartic.trinomial import Trinomial
from oracles import factor_discriminant_reference, is_monogenic_reference
from test_box_factorizer import SEMIPRIME, count_calls, kept, per_cell_lines
from test_scan import EXHAUSTIVE_BOXES


class TestIterBox:
    def test_matches_per_cell_classification(self):
        items = list(iter_box(-4, 4, -3, 3))
        cells = [(b, d) for b in range(-4, 5) for d in range(-3, 4)]
        assert len(items) == len(cells)
        for item, (b, d) in zip(items, cells):
            assert item.trinomial == Trinomial(b, d)
            if d == 0:
                assert isinstance(item, SearchError)
            else:
                assert isinstance(item, MonogenicityReport)
                assert item == is_monogenic(Trinomial(b, d))

    def test_c4_only(self):
        items = list(iter_box(-10, 10, 1, 25, c4_only=True))
        assert all(isinstance(i, MonogenicityReport) and i.c4 for i in items)
        got = {(i.trinomial.b, i.trinomial.d) for i in items}
        assert {(-5, 5), (-4, 2), (4, 2), (5, 5)} <= got

    def test_monogenic_and_c4_box(self):
        items = list(iter_box(-10, 10, 1, 25, c4_only=True, monogenic_only=True))
        got = {(i.trinomial.b, i.trinomial.d) for i in items}
        assert got == {(-5, 5), (-4, 2), (4, 2)}

    def test_monogenic_only_keeps_errors(self):
        items = list(iter_box(1, 1, -1, 1, monogenic_only=True))
        assert any(isinstance(i, SearchError) for i in items)

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            list(iter_box(2, 1, 0, 0))

    def test_empty_box_rejected_when_called(self):
        # checked at the call, not at the first next, like search_lines
        with pytest.raises(ValueError, match="empty box"):
            iter_box(2, 1, 0, 0)


# a box that reaches every verdict shape: each branch either way, each
# disjunct, placeholders, reducible cells, disc 0 and error records
SHAPES_BOX = (-30, 30, -30, 30)


def reference_items(box):
    """Each cell of the box as the multi-pass reference report, or its error record."""
    items = []
    for b in range(box[0], box[1] + 1):
        for d in range(box[2], box[3] + 1):
            t = Trinomial(b, d)
            try:
                items.append(is_monogenic_reference(t))
            except (DegenerateTrinomialError, FactorizationIncomplete) as exc:
                items.append(SearchError(t, str(exc)))
    return items


class TestFormatting:
    def test_json_report_line(self):
        line = format_item(is_monogenic(Trinomial(-5, 5)), "json")
        parsed = json.loads(line)
        assert parsed["trinomial"] == {"b": -5, "d": 5}
        assert parsed["monogenic"] is True
        assert "\n" not in line
        # verdicts from branches 2 to 5, skipped ones, and a blocked prime
        reports = [is_monogenic(Trinomial(b, d)) for b, d in ((2, 3), (5, 5), (1, 3), (2, 5))]
        assert {v.branch for r in reports for v in r.verdicts} >= {2, 3, 4, 5, None}
        for r in reports:
            assert format_item(r, "json") == json.dumps(r.to_dict(), separators=(",", ":"))

    def test_json_error_line(self):
        err = SearchError(Trinomial(1, 0), "degenerate")
        parsed = json.loads(format_item(err, "json"))
        assert parsed == {"trinomial": {"b": 1, "d": 0}, "error": "degenerate"}
        assert format_item(err, "json") == json.dumps(err.to_dict(), separators=(",", ":"))

    def test_json_writer_matches_the_encoder_on_every_small_cell(self):
        seen = set()
        for item in iter_box(*SHAPES_BOX):
            assert format_item(item, "json") == _JSON.encode(item.to_dict()), item.trinomial
            if isinstance(item, SearchError):
                seen.add("error")
                continue
            if item.disc_factored is None:
                seen.add("disc 0")
            if not item.irreducible:
                seen.add("reducible")
            for v in item.verdicts:
                seen.add(("branch", v.branch, v.divides_index))
                if v.branch in (2, 3):
                    seen.add((v.branch, "disjunct", v.intermediates.disjunct))
        assert seen >= {"error", "disc 0", "reducible"}
        # every verdict shape: each branch either way, each disjunct, placeholders
        assert seen >= {("branch", k, x) for k in (1, 2, 3, 4, 5) for x in (False, True)}
        assert ("branch", None, False) in seen
        assert seen >= {(2, "disjunct", k) for k in (1, 2, None)}
        assert seen >= {(3, "disjunct", k) for k in (1, None)}

    @pytest.mark.parametrize("chunk", [4096, 3])
    def test_json_streams_match_the_reference_encoder(self, monkeypatch, serial_pool, chunk):
        # the reference is the json module on the reference reports, which
        # the engine builds before the count starts.  A chunk of 4096 cells
        # gives the 2-worker stream two chunks; one of 3 sends every row of
        # the box through the window as a chunk of its own.  The streams
        # write every verdict from the closed form, so they never reach the
        # engine
        monkeypatch.setattr(search, "_CHUNK", chunk)
        items = reference_items(SHAPES_BOX)
        verdicts = {v for r in items if isinstance(r, MonogenicityReport) for v in r.verdicts}
        assert len(verdicts) > 3
        wants = {
            monogenic_only: [_JSON.encode(r.to_dict()) for r in items if kept(r, monogenic_only)]
            for monogenic_only in (False, True)
        }
        built = count_calls(monkeypatch, search, "_report")
        # every binding of the engine's dispatch
        dispatched = count_calls(monkeypatch, index_criterion, "_verdict")
        for name in ("c4quartic.monogenic._verdict", "c4quartic.search._verdict"):
            monkeypatch.setattr(name, index_criterion._verdict)
        for monogenic_only, want in wants.items():
            for workers in (1, 2):
                got = list(search_lines(*SHAPES_BOX, monogenic_only=monogenic_only, workers=workers))
                assert got == want, (monogenic_only, workers)
        # the streams build no report and no verdict, filtered or not, on
        # any worker count
        assert built == []
        assert dispatched == []
        # two chunks a stream, or one for each of the box's 61 rows
        assert [len(pool.submitted) for pool in serial_pool] == [{4096: 2, 3: 61}[chunk]] * 2

    @given(
        st.integers(min_value=-10**12, max_value=10**12),
        st.integers(min_value=-10**12, max_value=10**12),
    )
    def test_json_writer_matches_the_encoder_near_10_to_the_12(self, b, d):
        [item] = iter_box(b, b, d, d)
        assert format_item(item, "json") == _JSON.encode(item.to_dict())

    def test_json_writer_on_a_give_up(self, monkeypatch):
        monkeypatch.setattr(intarith, "_MAX_EFFORT", 1000)
        t = Trinomial(2**40 + 1, 33)
        [item] = iter_box(t.b, t.b, t.d, t.d)
        with pytest.raises(FactorizationIncomplete) as want:
            factor_discriminant_reference(t)
        assert item == SearchError(t, str(want.value))
        assert format_item(item, "json") == _JSON.encode(item.to_dict())

    def test_json_writer_escapes_messages_like_the_encoder(self):
        err = SearchError(Trinomial(-7, 0), 'quote " backslash \\ tab \t é ∑ 𝔽 \x7f')
        line = format_item(err, "json")
        assert line == _JSON.encode(err.to_dict())
        assert line.isascii() and json.loads(line)["error"] == err.message

    def test_csv_rows(self):
        assert format_item(is_monogenic(Trinomial(-5, 5)), "csv") == (
            "-5,5,true,true,2000,true,4,0,"
        )
        assert format_item(is_monogenic(Trinomial(5, 5)), "csv") == (
            "5,5,true,true,2000,false,0,2,2"
        )
        assert format_item(is_monogenic(Trinomial(0, -1)), "csv") == (
            "0,-1,false,false,-256,false,,,"
        )

    def test_csv_cannot_carry_errors(self):
        assert format_item(SearchError(Trinomial(1, 0), "x"), "csv") is None

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            format_item(is_monogenic(Trinomial(5, 5)), "xml")


def shape_reports():
    """The irreducible reports of SHAPES_BOX, whose verdicts hold every verdict shape."""
    reports = [r for r in iter_box(*SHAPES_BOX) if isinstance(r, MonogenicityReport) and r.irreducible]
    verdicts = [v for r in reports for v in r.verdicts]
    shapes = {(v.branch, v.divides_index) for v in verdicts}
    assert shapes >= {(k, x) for k in (1, 2, 3, 4, 5) for x in (False, True)}
    assert (None, False) in shapes
    disjuncts = {(v.branch, v.intermediates.disjunct) for v in verdicts if v.branch in (2, 3)}
    assert disjuncts == {(2, 1), (2, 2), (2, None), (3, 1), (3, None)}
    return reports


class TestVerdictText:
    def test_every_verdict_renders_the_encoders_bytes_once(self):
        # the one writer of verdict text, from the cell alone, against the
        # encoder on each of the engine's verdicts for it
        for r in shape_reports():
            b, d = r.trinomial.b, r.trinomial.d
            texts, monogenic = _verdict_texts(b, d, b * b - 4 * d, r.disc_factored.primes())
            assert texts == [_JSON.encode(v.to_dict()) for v in r.verdicts], r.trinomial
            assert monogenic == r.monogenic, r.trinomial

    def test_the_text_is_not_part_of_the_value(self, serial_pool):
        # writing lines, of a report or of a stream, leaves the engine's
        # verdicts as they were
        reports = shape_reports()
        before = [
            (v, dict(vars(v)), hash(v), repr(v), v.to_dict(), dataclasses.replace(v))
            for r in reports
            for v in r.verdicts
        ]
        for r in reports:
            format_item(r, "json")
        for workers in (1, 2):
            list(search_lines(*SHAPES_BOX, workers=workers))
        for v, fields, h, text, form, copy in before:
            assert vars(v) == fields, v
            assert v == copy and hash(v) == h == hash(copy), v
            assert repr(v) == text == repr(copy)
            assert v.to_dict() == form == copy.to_dict()

    def test_texts_kept_across_streams_match_a_fresh_process(self, serial_pool):
        # streams run one after another in one process, serial or parallel,
        # print what a fresh process prints: no state they leave behind
        # changes a later line
        argv = [f"--{k}={x}" for k, x in zip(("b-min", "b-max", "d-min", "d-max"), SHAPES_BOX)]
        fresh = subprocess.run(
            [sys.executable, "-m", "c4quartic", "search", *argv, "--format", "json"],
            capture_output=True,
            text=True,
            env=child_env(),
            check=True,
        ).stdout
        for workers in (1, 1, 2):
            assert "".join(line + "\n" for line in search_lines(*SHAPES_BOX, workers=workers)) == fresh
        assert len(serial_pool) == 1


# boxes whose chunks differ with the worker count: a chunk is about
# search._CHUNK cells of whole rows, and a small box gets one per worker
INVARIANCE_BOXES = [
    (-8, 8, -6, 6),
    (-300, 300, 7, 7),  # a d-range of width 1: many rows per chunk
    (0, 3, -600, 600),  # wider than search._CHUNK: one row per chunk
    (-11, 11, -50, 49),  # 23 rows of 100: chunks of 10, 8 or 3 rows, the last one short
]
# the filters, alone and together, on a box with C4 cells in many rows
FILTERED_BOX = (-30, 30, -10, 60)
FILTERS = [(True, False), (False, True), (True, True)]


def lines_and_skips(box, workers, **kwargs):
    skips = []
    lines = list(search_lines(*box, workers=workers, on_skip=skips.append, **kwargs))
    return lines, skips


class TestSearchLines:
    def test_worker_invariance(self):
        runs = [(box, False, False) for box in INVARIANCE_BOXES]
        runs += [(FILTERED_BOX, c4, mono) for c4, mono in FILTERS]
        for box, c4_only, monogenic_only in runs:
            for fmt in ("json", "csv"):
                kwargs = dict(c4_only=c4_only, monogenic_only=monogenic_only, fmt=fmt)
                one = lines_and_skips(box, 1, **kwargs)
                assert one[0], (box, kwargs)
                # the d = 0 column gives CSV skips, and no C4 cell
                has_skips = fmt == "csv" and not c4_only and box[2] <= 0 <= box[3]
                assert bool(one[1]) == has_skips, (box, kwargs)
                for workers in (2, 3, 8):
                    assert lines_and_skips(box, workers, **kwargs) == one, (box, workers, kwargs)

    def test_more_workers_than_strips(self):
        one = list(search_lines(0, 1, 1, 30, workers=1))
        many = list(search_lines(0, 1, 1, 30, workers=16))
        assert one == many

    def test_pool_capped_at_cpu_count(self, serial_pool):
        wide = list(search_lines(0, 63, 1, 2, workers=64))
        assert serial_pool and serial_pool[0].max_workers <= (os.cpu_count() or 1)
        assert wide == list(search_lines(0, 63, 1, 2, workers=1))

    # 20 rows of 8 cells in chunks of 16 cells: 10 chunks of 2 rows
    SMALL_CHUNKS = (0, 19, 1, 8)

    def test_window_bounds_the_chunks_in_flight(self, monkeypatch, serial_pool):
        monkeypatch.setattr(search, "_CHUNK", 16)
        got = list(search_lines(*self.SMALL_CHUNKS, workers=2))
        (pool,) = serial_pool
        assert len(pool.submitted) == 10
        assert pool.peak <= 2 * pool.max_workers
        assert pool.shutdowns == [True]
        assert got == list(search_lines(*self.SMALL_CHUNKS, workers=1))

    def test_early_close_cancels_the_chunks_not_started(self, monkeypatch, serial_pool):
        monkeypatch.setattr(search, "_CHUNK", 16)
        lines = search_lines(*self.SMALL_CHUNKS, workers=2)
        first = next(lines)
        lines.close()
        (pool,) = serial_pool
        assert first == next(search_lines(*self.SMALL_CHUNKS, workers=1))
        assert len(pool.submitted) <= 2 * pool.max_workers < 10
        assert pool.shutdowns == [True]

    def test_parallel_c4_search_scans_once(self, monkeypatch, serial_pool):
        scans = []

        def counting(*box):
            scans.append(box)
            return scan_c4(*box)

        monkeypatch.setattr(search, "scan_c4", counting)
        got = list(search_lines(*FILTERED_BOX, c4_only=True, workers=3))
        assert scans == [FILTERED_BOX]
        # the candidates went out in chunks, each of whole rows
        chunks = [args[4] for args in serial_pool[0].submitted]
        assert len(chunks) == 3
        assert all(a[-1][0] < b[0][0] for a, b in zip(chunks, chunks[1:]))
        assert got == list(search_lines(*FILTERED_BOX, c4_only=True, workers=1))

    def test_no_chunks_starts_no_pool(self, serial_pool):
        # no cell of this box is cyclic quartic
        assert list(search_lines(-3, 3, 1, 2, c4_only=True, workers=2)) == []
        assert serial_pool == []

    def test_csv_skips_are_reported(self):
        skips = []
        lines = list(
            search_lines(1, 1, -1, 1, fmt="csv", on_skip=skips.append)
        )
        assert len(lines) == 2  # d = -1 and d = 1; d = 0 dropped
        assert len(skips) == 1
        assert "d=0" in skips[0]

    def test_csv_skips_with_workers(self):
        skips = []
        list(search_lines(-2, 2, 0, 0, fmt="csv", workers=2, on_skip=skips.append))
        assert len(skips) == 5

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            list(search_lines(0, 1, 1, 2, workers=0))
        with pytest.raises(ValueError):
            list(search_lines(0, 1, 1, 2, fmt="yaml"))
        with pytest.raises(ValueError):
            list(search_lines(1, 0, 1, 2))


# a box for each scan route, beside the small ones of test_scan; K is a
# prime = 3 (mod 4), so the scaled witness (5K, 5K^2) of the last box passes
# at 2 and fails at K, with K^2 | d
K = 400_031
C4_ROUTE_BOXES = {
    _scan_gaussian: (100_000, 100_500, 1, 100_000),
    _scan_triples: (300_000, 300_300, 1, 300_000),
    _scan_cells: (5 * K - 3, 5 * K + 3, 5 * K**2 - 60, 5 * K**2 + 60),
}
C4_BOXES = EXHAUSTIVE_BOXES + list(C4_ROUTE_BOXES.values())
# the streams a --c4-only search can write: (fmt, monogenic_only)
C4_STREAMS = [("csv", False), ("csv", True), ("json", True), ("json", False)]


def c4_reports(box):
    """The C4 cells of the box on the per-cell route, the five-branch engine's."""
    return [_cell_report(b, d) for b, d in scan_c4(*box)]


class TestC4Records:
    """A --c4-only walk yields the same records as the dense walk, decided
    by the closed form of the index criterion; its streams must equal the
    per-cell route's, formatted and filtered."""

    def test_a_box_for_each_route(self):
        for route, box in C4_ROUTE_BOXES.items():
            assert _route(*box) is route
            assert scan_c4(*box), route.__name__

    def test_the_boxes_fail_every_way(self):
        ways = set()
        for box in C4_BOXES:
            for report in c4_reports(box):
                d, p = report.trinomial.d, report.failing_prime()
                if p is None:
                    ways.add("monogenic")
                else:
                    ways.add(2 if p == 2 else "p^2 | d" if d % p == 0 else "p^2 | e")
        assert ways == {"monogenic", 2, "p^2 | d", "p^2 | e"}
        # K sinks its cell, past the trial primes
        assert c4_reports(C4_ROUTE_BOXES[_scan_cells])[0].failing_prime() == K

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("box", C4_BOXES)
    def test_streams_match_the_per_cell_route(self, serial_pool, box, workers):
        reports = c4_reports(box)
        for fmt, monogenic_only in C4_STREAMS:
            got = lines_and_skips(box, workers, c4_only=True, fmt=fmt, monogenic_only=monogenic_only)
            assert got == per_cell_lines(reports, fmt, monogenic_only), (fmt, monogenic_only)

    @pytest.mark.parametrize("box", C4_BOXES)
    def test_iter_box_matches_the_per_cell_route(self, box):
        reports = c4_reports(box)
        assert list(iter_box(*box, c4_only=True)) == reports
        want = [r for r in reports if kept(r, True)]
        assert list(iter_box(*box, c4_only=True, monogenic_only=True)) == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reports_only_where_printed(self, monkeypatch, serial_pool, workers):
        box = (-60, 60, 1, 300)
        reports = c4_reports(box)
        monogenic = [r.trinomial for r in reports if r.monogenic]
        assert 0 < len(monogenic) < len(reports)
        built = count_calls(monkeypatch, search, "_report")
        # every stream writes its lines from the records: none builds a report
        for fmt, monogenic_only in C4_STREAMS:
            kwargs = dict(c4_only=True, fmt=fmt, monogenic_only=monogenic_only, workers=workers)
            assert list(search_lines(*box, **kwargs)), (fmt, monogenic_only)
            assert built == [], (fmt, monogenic_only)

    def test_a_give_up_is_the_per_cell_error(self, monkeypatch, serial_pool):
        monkeypatch.setattr(intarith, "_MAX_EFFORT", 1000)
        # the C4 cell (4, 2) scaled by m: d = 2m^2 and e = 8m^2, and the
        # factorizer gives up on both; d is factored first, so it is named
        m = SEMIPRIME
        box = (4 * m, 4 * m, 2 * m * m, 2 * m * m)
        [want] = c4_reports(box)
        assert isinstance(want, SearchError)
        assert want.message.startswith(f"factorization of {2 * m * m} exceeded")
        assert list(iter_box(*box, c4_only=True)) == [want]
        assert list(iter_box(*box, c4_only=True, monogenic_only=True)) == [want]
        for workers in (1, 2):
            for fmt, monogenic_only in C4_STREAMS:
                got = lines_and_skips(box, workers, c4_only=True, fmt=fmt, monogenic_only=monogenic_only)
                assert got == per_cell_lines([want], fmt, monogenic_only), (workers, fmt)
        assert len(serial_pool) == len(C4_STREAMS)


class TestVerifyTheorem:
    def test_smallest_valid_box(self):
        res = verify_theorem(5, 5)
        assert res.passed
        assert {(t.b, t.d) for t in res.found} == {(-5, 5), (-4, 2), (4, 2)}
        assert res.n_classes == 3
        assert res.n_undecided == 0

    def test_medium_box(self):
        assert verify_theorem(30, 400).passed

    def test_bounds_too_small(self):
        with pytest.raises(ValueError):
            verify_theorem(4, 5)
        with pytest.raises(ValueError):
            verify_theorem(5, 4)

    def test_to_dict(self):
        d = verify_theorem(5, 5).to_dict()
        assert set(d) == {"found", "pass", "classes", "undecided_pairs"}
        assert d["pass"] is True

    def test_a_give_up_raises_the_factorizers_own_error(self, monkeypatch, capsys):
        # with a budget of one step the first candidate given up on is
        # (-2980, 94178), whose e = 8503688 = 8 * 1031^2 needs the Brent tail
        monkeypatch.setattr(intarith, "_MAX_EFFORT", 1)
        message = "factorization of 8503688 exceeded effort budget at cofactor 1062961"
        with pytest.raises(FactorizationIncomplete) as info:
            verify_theorem(3000, 300000)
        assert info.value.n == 8503688
        assert str(info.value) == message
        assert main(["verify-theorem", "--b-bound", "3000", "--d-bound", "300000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("b_bound, d_bound", [(30, 400), (300, 30000)])
    def test_the_theorem_does_not_rest_on_the_closed_form(self, monkeypatch, b_bound, d_bound):
        # every candidate runs the five-branch engine, so the check stays
        # independent of the closed form the CSV and filtered searches use
        def closed_form(*args):
            raise AssertionError("verify_theorem reached the closed form")

        monkeypatch.setattr(search, "_least_index_prime", closed_form)
        res = verify_theorem(b_bound, d_bound)
        assert res.passed
        reports = [_cell_report(b, d) for b, d in scan_c4(-b_bound, b_bound, 1, d_bound)]
        assert res.found == tuple(r.trinomial for r in reports if r.monogenic)

    @pytest.mark.parametrize("b_bound, d_bound", [(5, 5), (30, 400), (300, 30000)])
    def test_reports_only_the_monogenic_candidates(self, monkeypatch, b_bound, d_bound):
        # the engine stops at a candidate's first prime dividing the index,
        # so it builds no placeholder, and only a kept candidate gets a report
        reports = count_calls(monkeypatch, search, "_report")
        placeholders = []
        skipped = PrimeVerdict.skipped

        def counting_skipped(cls, prime):
            placeholders.append(prime)
            return skipped(prime)

        monkeypatch.setattr(PrimeVerdict, "skipped", classmethod(counting_skipped))
        res = verify_theorem(b_bound, d_bound)
        assert res.passed
        assert len(reports) == len(res.found) == 3
        assert placeholders == []


class TestOracleCheck:
    def test_seeded_reproducibility(self):
        a = oracle_check(50, 123, -40, 40, -40, 40)
        b = oracle_check(50, 123, -40, 40, -40, 40)
        assert a == b

    def test_full_agreement(self):
        res = oracle_check(150, 1, -40, 40, -40, 40)
        assert res.sampled == 150
        assert res.disagreements == ()
        assert res.agreements > 0

    def test_zero_samples(self):
        res = oracle_check(0, 1, -10, 10, -10, 10)
        assert res == type(res)(0, 0, 0, ())

    def test_reducible_only_box(self):
        # (2, 1) is (x^2+1)^2; nothing is sampled, which is not an error
        res = oracle_check(5, 1, 2, 2, 1, 1)
        assert res.sampled == 0
        assert res.agreements == 0
        assert res.disagreements == ()

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            oracle_check(-1, 1, 0, 1, 1, 2)

    def test_prime_cap_below_2_rejected(self):
        with pytest.raises(ValueError):
            oracle_check(5, 1, -10, 10, -10, 10, prime_cap=1)

    def test_prime_cap_above_10_to_the_7_rejected_before_any_sieve(self, monkeypatch):
        # the sieve of primes up to the cap holds cap + 1 bytes and a list of
        # the primes; a cap past the bound must never reach it
        sieves = []

        def sieve(n):
            sieves.append(n)
            return [2, 3]

        monkeypatch.setattr(search, "primes_upto", sieve)
        for cap in (10**7 + 1, 10**12):
            with pytest.raises(ValueError, match="at most 10000000"):
                oracle_check(5, 1, -10, 10, -10, 10, prime_cap=cap)
        assert sieves == []
        # the bound itself is taken
        oracle_check(5, 1, -10, 10, -10, 10, prime_cap=10**7)
        assert sieves == [10**7]


def flip_first_oracle_answer(monkeypatch):
    """Negate the Dedekind oracle on the first (t, q) it is asked about.

    ``oracle_check`` reuses that answer for every later pair in the class of
    (q, b mod q^2, d mod q^2), so each of those pairs becomes a disagreement.
    """
    real = search._divides_index
    flipped = []

    def patched(t, q, lifted):
        ans = real(t, q, lifted)
        if not flipped:
            flipped.append((t, q, not ans))
            return not ans
        return ans

    monkeypatch.setattr(search, "_divides_index", patched)
    return flipped


class TestOracleCheckEdges:
    ARGS = (25, 9, -30, 30, -30, 30)

    def test_disagreement_is_reported(self, monkeypatch):
        honest = oracle_check(*self.ARGS)
        flipped = flip_first_oracle_answer(monkeypatch)
        res = oracle_check(*self.ARGS)
        [(t, q, oracle)] = flipped
        dis = res.disagreements[0]
        assert (dis.trinomial, dis.prime, dis.oracle_divides) == (t, q, oracle)
        in_class = [
            (x.trinomial.b - t.b) % (q * q) == (x.trinomial.d - t.d) % (q * q) == 0
            for x in res.disagreements
        ]
        assert {x.prime for x in res.disagreements} == {q} and all(in_class)
        assert all(x.engine.divides_index != oracle == x.oracle_divides for x in res.disagreements)
        assert res.agreements == honest.agreements - len(res.disagreements)
        out = dis.to_dict()
        assert list(out) == ["trinomial", "prime", "engine", "oracle_divides"]
        assert out["trinomial"] == {"b": t.b, "d": t.d}
        assert out["engine"] == dis.engine.to_dict() and out["engine"]["prime"] == q
        whole = res.to_dict()
        assert list(whole) == ["requested", "sampled", "agreements", "disagreements"]
        assert whole["disagreements"] == [x.to_dict() for x in res.disagreements]

    def test_cli_prints_it_and_exits_1(self, monkeypatch, capsys):
        flipped = flip_first_oracle_answer(monkeypatch)
        rc = main(
            [
                "oracle-check",
                "--samples", "25", "--seed", "9",
                "--b-bound", "30", "--d-bound", "30",
            ]
        )
        assert rc == 1
        [(t, q, oracle)] = flipped
        dis = json.loads(capsys.readouterr().out)["disagreements"][0]
        assert dis["trinomial"] == {"b": t.b, "d": t.d}
        assert (dis["prime"], dis["oracle_divides"]) == (q, oracle)

    def test_cli_prime_cap_bounds_the_primes(self, monkeypatch, capsys):
        asked = []

        def recording(t, q):
            asked.append(q)
            return real(t, q)

        # the engine runs once per (t, q) pair, the Dedekind route once per class
        real = search._verdict
        monkeypatch.setattr(search, "_verdict", recording)
        rc = main(
            [
                "oracle-check",
                "--samples", "40", "--seed", "3",
                "--b-bound", "40", "--d-bound", "40", "--prime-cap", "3",
            ]
        )
        assert rc == 0
        assert set(asked) == {2, 3}
        assert json.loads(capsys.readouterr().out)["agreements"] == len(asked)

    def test_cli_prime_cap_1_exits_2(self, capsys):
        rc = main(
            [
                "oracle-check",
                "--samples", "5", "--seed", "1",
                "--b-bound", "10", "--d-bound", "10", "--prime-cap", "1",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_cli_huge_prime_cap_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(search, "primes_upto", lambda n: pytest.fail(f"sieve of {n} built"))
        rc = main(
            [
                "oracle-check",
                "--samples", "5", "--seed", "1",
                "--b-bound", "10", "--d-bound", "10", "--prime-cap", str(10**12),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: prime_cap must be at most 10000000\n"


class TestCli:
    def test_classify(self, capsys):
        assert main(["classify", "--b", "5", "--d", "5"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["label"] == "irreducible-c4"
        assert parsed["c4"] is True
        assert parsed["monogenic"] is False
        failing = [v for v in parsed["verdicts"] if v["divides_index"]]
        assert failing and failing[0]["prime"] == 2 and failing[0]["branch"] == 4

    def test_classify_accepts_plus_prefix(self, capsys):
        assert main(["classify", "--b", "+4", "--d", "+2"]) == 0
        assert json.loads(capsys.readouterr().out)["monogenic"] is True

    def test_monogenic(self, capsys):
        assert main(["monogenic", "--b", "-5", "--d", "5"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "b": -5,
            "d": 5,
            "monogenic": True,
        }

    def test_search_csv(self, capsys):
        rc = main(
            [
                "search",
                "--b-min", "-10", "--b-max", "10",
                "--d-min", "1", "--d-max", "25",
                "--c4-only", "--monogenic-only", "--format", "csv",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == CSV_HEADER
        assert set(out[1:]) == {
            "-5,5,true,true,2000,true,4,0,",
            "-4,2,true,true,2048,true,4,0,",
            "4,2,true,true,2048,true,0,2,",
        }

    def test_search_csv_skip_warnings_on_stderr(self, capsys):
        rc = main(
            [
                "search",
                "--b-min", "1", "--b-max", "1",
                "--d-min", "0", "--d-max", "1",
                "--format", "csv",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "skipped" in captured.err and "d=0" in captured.err

    def test_verify_theorem_pass(self, capsys):
        assert main(["verify-theorem", "--b-bound", "8", "--d-bound", "30"]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_verify_theorem_bad_bounds(self, capsys):
        assert main(["verify-theorem", "--b-bound", "4", "--d-bound", "30"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_oracle_check(self, capsys):
        rc = main(
            [
                "oracle-check",
                "--samples", "25", "--seed", "9",
                "--b-bound", "30", "--d-bound", "30",
            ]
        )
        assert rc == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["sampled"] == 25
        assert parsed["disagreements"] == []

    def test_degenerate_input_is_usage_error(self, capsys):
        assert main(["classify", "--b", "3", "--d", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_box_is_usage_error(self, capsys):
        rc = main(
            [
                "search",
                "--b-min", "2", "--b-max", "1",
                "--d-min", "1", "--d-max", "2",
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "box, workers",
        [(("5", "1", "1", "2"), "1"), (("1", "2", "1", "2"), "0")],
        ids=["empty-box", "workers-0"],
    )
    def test_rejected_search_writes_nothing(self, capsys, box, workers, fmt):
        b_min, b_max, d_min, d_max = box
        rc = main(
            [
                "search",
                "--b-min", b_min, "--b-max", b_max,
                "--d-min", d_min, "--d-max", d_max,
                "--format", fmt, "--workers", workers,
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_search_writes_each_line_once(self, capsys, fmt):
        rc = main(
            [
                "search",
                "--b-min", "-6", "--b-max", "6",
                "--d-min", "-6", "--d-max", "6",
                "--format", fmt,
            ]
        )
        header = CSV_HEADER + "\n" if fmt == "csv" else ""
        lines = search_lines(-6, 6, -6, 6, fmt=fmt)
        assert rc == 0
        assert capsys.readouterr().out == header + "".join(line + "\n" for line in lines)

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_module_entry_point(self):
        out = subprocess.run(
            [sys.executable, "-m", "c4quartic", "monogenic", "--b", "4", "--d", "2"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["monogenic"] is True

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_closed_pipe_ends_quietly(self, fmt, workers):
        # the reader takes one line and closes the pipe, as `| head -1` does;
        # the output left is far more than the pipe and stdout buffers hold
        argv = [
            "search",
            "--b-min", "-60", "--b-max", "60",
            "--d-min", "1", "--d-max", "60",
            "--format", fmt, "--workers", workers,
        ]
        proc = subprocess.Popen(
            [sys.executable, "-m", "c4quartic", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert first.endswith(b"\n")
        assert proc.returncode == 141  # 128 + SIGPIPE
        assert err == b""


def child_env():
    """The environment for a child that imports this package, also from a checkout."""
    src = os.path.dirname(os.path.dirname(c4quartic.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}
