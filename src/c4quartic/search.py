"""Box searches, the exactly-three verification, and engine-vs-oracle sampling.

A search walks a coefficient rectangle, classifies every cell, and streams
one formatted line per surviving item.  With more than one worker the box
is cut into small chunks of whole b-rows (of C4 candidates, with
``c4_only``), classified in a process pool and emitted in b order; every
chunk is classified deterministically, so the output stream is
byte-identical for any worker count.  At most two chunks per process are
in flight, so memory stays bounded and a reader who stops early stops the
pool within that window.  The pool's modules are imported only when a
parallel search starts, so every command that runs in one process starts
without them.

Cells that cannot be classified (d = 0, or a discriminant the factorizer
gave up on) become error records rather than aborting the run.  JSON output
carries them inline as ``{"trinomial": ..., "error": ...}`` lines; CSV has
no column for them, so they are dropped from the stream and reported through
the ``on_skip`` callback instead.

Every walk, dense or ``c4_only``, yields each cell it can classify as the
record (b, d, e, v), and ``_record`` is the one place that makes it, from
the factors the walk found and the rest of e.  A walk that writes CSV, or
keeps only monogenic cells, decides every cell from the closed form of the
index criterion: v is None for a reducible cell, the least prime dividing
the index for a failing one, and the discriminant's factorization for a
monogenic one, which a CSV walk leaves out.  The dense walk sieves e to its
cube root where that is cheaper than factoring the rest (see
``intarith._sieve_progression``); the rest is then 1, p, p^2 or p*q, so a
square test finds any prime square in it, and the cell is decided with no
factoring.  The C4 walk factors d and e in full, so no rest is left.
Elsewhere a reducible cell, or one sunk at a prime below 1000, is decided
in the same way.  Such a cell never reaches the factorizer's Brent tail,
and a give-up there cannot happen to it.  Every other cell is decided
once the tail has factored the rest of e, and so is a monogenic cell
whose factorization a filtered JSON stream or ``iter_box`` prints.  A walk
that does not decide (an unfiltered JSON walk or an unfiltered
``iter_box``) carries the factorization in every record, or None where
e = 0 and disc = 0.  CSV writes every row from its record, and
``monogenic_only`` keeps only the monogenic records.  A JSON line is
written from its record alone: each verdict's text comes from (b, d, e)
and the primes of the factorization by the closed form of the index
criterion (``index_criterion._verdict_texts``), so a search builds no
verdict.  Only ``iter_box`` builds a report, from the
factorization its record carries, and runs the five-branch engine for it.

``verify_theorem`` walks no records.  It takes the scan's C4 candidates and
classifies each on the per-cell route: the five-branch engine at 2, which
divides every discriminant, then for a candidate that survives 2
``factor_discriminant`` and the engine at each odd prime until one divides
the index.  So it shares no code with the walks, their error records or
the closed form, it factors only the candidates that survive 2, and it
builds the reports of only the candidates it keeps.
"""

from __future__ import annotations

import json
import os
import random
from collections import deque
from dataclasses import dataclass
from itertools import islice
from math import isqrt
from typing import Callable, Generator, Iterable, Iterator

from .fields import distinct_fields
from .index_criterion import PrimeVerdict, _least_index_prime, _verdict, _verdict_texts
from .dedekind import _divides_index, _lift
from .intarith import (
    _TRIAL_LIMIT,
    Factorization,
    FactorizationIncomplete,
    _factor_into,
    _factor_tail,
    _sieve_progression,
    primes_upto,
)
from .monogenic import DegenerateTrinomialError, MonogenicityReport, _report, _verdicts, factor_discriminant, is_monogenic
from ._scan_py import scan_c4
from .scan import _check_box, scan_c4_candidates
from .trinomial import (
    Trinomial,
    _c4,
    _irreducible,
    _json_form,
    _signature,
    discriminant,
    is_irreducible,
)

__all__ = [
    "CSV_HEADER",
    "Disagreement",
    "OracleCheckResult",
    "SearchError",
    "TheoremVerification",
    "format_item",
    "iter_box",
    "oracle_check",
    "search_lines",
    "verify_theorem",
]

CSV_HEADER = "b,d,irreducible,c4,disc,monogenic,r1,r2,failing_prime"

# the compact encoding every JSON line has; it writes the error records,
# while _json_cell writes the cells' lines directly, with the same bytes
_JSON = json.JSONEncoder(separators=(",", ":"))


@dataclass(frozen=True)
class SearchError:
    """A cell the search could not classify; the box walk continues past it."""

    trinomial: Trinomial
    message: str

    def to_dict(self) -> dict:
        return {
            "trinomial": {"b": self.trinomial.b, "d": self.trinomial.d},
            "error": self.message,
        }


def _cell_report(b: int, d: int) -> MonogenicityReport | SearchError:
    t = Trinomial(b, d)
    try:
        return is_monogenic(t)
    except (DegenerateTrinomialError, FactorizationIncomplete) as exc:
        return SearchError(t, str(exc))


def iter_box(
    b_min: int,
    b_max: int,
    d_min: int,
    d_max: int,
    *,
    c4_only: bool = False,
    monogenic_only: bool = False,
) -> Iterator[MonogenicityReport | SearchError]:
    """Classify every cell of the box in (b, d)-ascending order.

    The box is checked when this is called, before the first item is asked
    for.  ``c4_only`` restricts to cyclic quartic cells via the fast scan
    before any heavier work; ``monogenic_only`` drops non-monogenic reports.
    Error records always pass through the filters.
    """
    _check_box(b_min, b_max, d_min, d_max)
    # it decides only where monogenic_only keeps no record but a monogenic
    # one, whose report is built here from the factorization it carries
    decide = _DECIDED if monogenic_only else _FACTORED
    items = _items(b_min, b_max, d_min, d_max, c4_only, None, {}, monogenic_only, decide)
    return map(_reported, items)


# how a walk classifies its cells, its decide argument.  _FACTORED carries
# the factorization of every cell.  _DECIDED decides every cell from the
# closed form of the index criterion, and carries the factorization of a
# monogenic one only; _SETTLED decides as well, but need not factor a
# monogenic cell, and may carry _MONOGENIC in its place: all a CSV row needs
_FACTORED, _DECIDED, _SETTLED = 0, 1, 2
_MONOGENIC = "monogenic"

# a classified cell: (b, d, e, v).  A deciding walk gives v None for a
# reducible cell, the least prime dividing the index for a failing one, and
# the factorization of the discriminant (or, when _SETTLED, _MONOGENIC) for
# a monogenic one; any other walk gives the factorization for every cell,
# and None where e = 0
_Decided = tuple[int, int, int, int | Factorization | str | None]

# an item of a search stream: a classified cell or an error record
_Item = _Decided | SearchError


def _reported(item: _Item) -> MonogenicityReport | SearchError:
    # a report in place of a record, from the factorization it carries; an
    # error record as it is
    if isinstance(item, tuple):
        b, d, _, fact = item
        return _report(Trinomial(b, d), fact)
    return item


def _items(
    b_lo: int,
    b_hi: int,
    d_min: int,
    d_max: int,
    c4_only: bool,
    cells: list[tuple[int, int]] | None,
    d_counts: _DTable,
    monogenic_only: bool,
    decide: int,
) -> Iterator[_Item]:
    # unchecked body of iter_box and of every search: the items of rows
    # b_lo..b_hi, each cell of them, or, with c4_only, their C4 cells, which
    # are the given cells or else the scan's.  Both walks yield records, and
    # monogenic_only always comes with decide, so a kept record is monogenic
    # exactly when it carries neither None nor a failing prime
    if c4_only:
        if cells is None:
            cells = scan_c4(b_lo, b_hi, d_min, d_max)
        items = _c4_items(cells, decide)
    else:
        items = _dense_items(b_lo, b_hi, d_min, d_max, d_counts, decide)
    for item in items:
        if monogenic_only and isinstance(item, tuple) and (item[3] is None or isinstance(item[3], int)):
            continue
        yield item


def _record(
    b: int, d: int, e: int, d_counts: dict[int, int], e_counts: Iterable[tuple[int, int]],
    r: int, exact: bool, decide: int,
) -> _Decided:
    # the record of a cell, the one place a walk makes it: d_counts holds 2^4
    # and d's exponents, e_counts the pairs (p, v_p(e)) found so far, r the
    # rest of |e| (1 where e is factored in full), and exact tells that r is
    # below the sieve's (y + 1)^3.  With decide the cell is irreducible, and
    # the closed form of the index criterion sinks it at its least prime
    # dividing the index, if any: before the Brent tail where r is exact or
    # that prime is below 1000, else after it.  A give-up on r is raised
    if decide:
        if exact:
            # r is 1, p, p^2 or p*q for primes p, q past the sieve, so a
            # square above 1 is the one prime square in it
            s = isqrt(r)
            if r > 1 and s * s == r:
                e_counts = [*e_counts, (s, 2)]
        p = _least_index_prime(b, d, d_counts, e_counts)
        if p is not None and (exact or p < _TRIAL_LIMIT):
            return b, d, e, p
        if exact and decide == _SETTLED:
            return b, d, e, _MONOGENIC
    if r > 1:
        tail: dict[int, int] = {}
        _factor_tail(e, r, tail, 1)
        e_counts = [*e_counts, *tail.items()]
        if decide and not exact:
            p = _least_index_prime(b, d, d_counts, e_counts)
            if p is not None:
                return b, d, e, p
    counts = dict(d_counts)
    for p, j in e_counts:
        counts[p] = counts.get(p, 0) + 2 * j
    return b, d, e, Factorization(-1 if d < 0 else 1, tuple(sorted(counts.items())))


def _c4_items(cells: list[tuple[int, int]], decide: int) -> Iterator[_Item]:
    # the C4 cells one by one, few and far apart, where a sieve would cost
    # more than the cells it serves.  d and then e are factored in full, as
    # factor_discriminant does, so a give-up names the same number with the
    # same text, and no rest of e is left.  A C4 cell is irreducible, with
    # d and e positive
    for b, d in cells:
        e = b * b - 4 * d
        d_counts = {2: 4}
        e_counts: dict[int, int] = {}
        try:
            _factor_into(d, d_counts, 1)
            _factor_into(e, e_counts, 1)
            item = _record(b, d, e, d_counts, e_counts.items(), 1, True, decide)
        except FactorizationIncomplete as exc:
            item = SearchError(Trinomial(b, d), str(exc))
        yield item


# cells per sieve segment along a row: a segment is sieved before its first
# cell is handed out, so it bounds the work done ahead of the first line
_SEGMENT = 64


# each d a dense walk has factored: the prime counts of 16*d, its part of
# the discriminant 16*d*e^2, or the factorizer's give-up
_DTable = dict[int, dict[int, int] | FactorizationIncomplete]


def _dense_items(
    b_min: int,
    b_max: int,
    d_min: int,
    d_max: int,
    d_counts: _DTable,
    decide: int,
) -> Iterator[_Item]:
    # every cell, row by row, with factorizations shared across the walk.
    # Each d is factored once, on first use, and kept in d_counts (or its
    # give-up kept) for every later row.  Along a row, e = b^2 - 4d steps
    # down by 4 and is sieved segment by segment, to a bound y.  With
    # decide, a reducible cell is recorded here; every other cell becomes
    # its record in _record, from d's table, the sieve's primes of e and
    # the rest of e, which waits for its cell
    for b in range(b_min, b_max + 1):
        bb = b * b
        for lo in range(d_min, d_max + 1, _SEGMENT):
            hi = min(lo + _SEGMENT, d_max + 1)
            found, rest, y = _sieve_progression(bb - 4 * lo, hi - lo)
            cube = (y + 1) ** 3
            for i in range(hi - lo):
                d = lo + i
                e = bb - 4 * d
                if d == 0 or e == 0:
                    # d = 0 is an error record; e = 0 is reducible, with
                    # disc 0, and the per-cell route factors nothing there
                    yield (b, d, e, None) if d else _cell_report(b, d)
                    continue
                got = d_counts.get(d)
                if got is None:
                    got = {2: 4}
                    try:
                        _factor_into(d, got, 1)
                    except FactorizationIncomplete as exc:
                        got = exc
                    d_counts[d] = got
                if isinstance(got, FactorizationIncomplete):
                    yield SearchError(Trinomial(b, d), str(got))
                elif decide and not _irreducible(b, d, e):
                    yield b, d, e, None
                else:
                    try:
                        item = _record(b, d, e, got, found[i], rest[i], rest[i] < cube, decide)
                    except FactorizationIncomplete as exc:
                        item = SearchError(Trinomial(b, d), str(exc))
                    yield item


def _settled_csv(b: int, d: int, e: int, v: int | Factorization | str | None) -> str:
    # the one CSV row writer, in the order of CSV_HEADER, for a decided
    # cell: reducible when v is None, sunk at v when it is a prime, else
    # monogenic
    disc = 16 * d * e * e
    if v is None:
        return f"{b},{d},false,false,{disc},false,,,"
    c4, sig = _bool_str(_c4(d, e)), _signature(b, d, e)
    if isinstance(v, int):
        return f"{b},{d},true,{c4},{disc},false,{sig.r1},{sig.r2},{v}"
    return f"{b},{d},true,{c4},{disc},true,{sig.r1},{sig.r2},"


def _bool_str(v: bool) -> str:
    return "true" if v else "false"


def _json_cell(b: int, d: int, e: int, fact: Factorization | None) -> str:
    """The one writer of a cell's JSON line: the bytes of ``_JSON.encode(report.to_dict())``.

    The report is that of the cell (b, d), with e = b^2 - 4d and ``fact``
    the factorization of its discriminant (None where it is 0).  Its
    verdicts are written by ``_verdict_texts`` from the cell and the primes
    of ``fact``, with no verdict built.
    """
    disc = 16 * d * e * e
    fact_text = (
        "null"
        if fact is None
        else f'{{"sign":{fact.sign},"factors":[' + ",".join(f"[{p},{k}]" for p, k in fact.factors) + "]}"
    )
    head = f'{{"trinomial":{{"b":{b},"d":{d}}},'
    if not _irreducible(b, d, e):
        return (
            f'{head}"irreducible":false,"c4":false,"disc":{disc},"disc_factored":{fact_text},'
            '"verdicts":[],"monogenic":false,"field_disc":null,"signature":null}'
        )
    texts, monogenic = _verdict_texts(b, d, e, fact.primes())
    sig = _signature(b, d, e)
    return (
        f'{head}"irreducible":true,"c4":{_bool_str(_c4(d, e))},"disc":{disc},'
        f'"disc_factored":{fact_text},"verdicts":[{",".join(texts)}],'
        f'"monogenic":{_bool_str(monogenic)},"field_disc":{disc if monogenic else "null"},'
        f'"signature":{{"r1":{sig.r1},"r2":{sig.r2}}}}}'
    )


def format_item(item: MonogenicityReport | SearchError, fmt: str) -> str | None:
    """One output line for an item, or None when the format cannot carry it."""
    if fmt == "json":
        if isinstance(item, SearchError):
            return _JSON.encode(item.to_dict())
        b, d = item.trinomial.b, item.trinomial.d
        return _json_cell(b, d, b * b - 4 * d, item.disc_factored)
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}; expected 'json' or 'csv'")
    if isinstance(item, SearchError):
        return None
    b, d = item.trinomial.b, item.trinomial.d
    v = item.disc_factored if item.monogenic else item.failing_prime()
    return _settled_csv(b, d, b * b - 4 * d, v)


def _lines(items: Iterator[_Item], fmt: str, on_skip: Callable[[str], None]) -> Iterator[str]:
    """One line per item; each item the format cannot carry goes to ``on_skip``.

    A JSON line is written from its record alone, with no report or
    verdict built.
    """
    for item in items:
        if isinstance(item, SearchError):
            if fmt == "csv":
                on_skip(f"b={item.trinomial.b} d={item.trinomial.d}: {item.message}")
            else:
                yield _JSON.encode(item.to_dict())
        elif fmt == "csv":
            yield _settled_csv(*item)
        else:
            yield _json_cell(*item)


# cells (or C4 candidates) per parallel chunk: the unit a pool worker
# classifies and hands back whole, so it is what the first line waits for
_CHUNK = 1024

# this process's d table for dense chunks, keyed by their d-range: each d is
# factored once per worker process, not once per chunk
_d_tables: dict[tuple[int, int], _DTable] = {}


def _d_table(d_min: int, d_max: int) -> _DTable:
    table = _d_tables.get((d_min, d_max))
    if table is None:
        # a new d-range: the old table has no later use
        _d_tables.clear()
        table = _d_tables[d_min, d_max] = {}
    return table


def _lines_for_range(
    b_lo: int,
    b_hi: int,
    d_min: int,
    d_max: int,
    cells: list[tuple[int, int]] | None,
    monogenic_only: bool,
    decide: int,
    fmt: str,
) -> tuple[list[str], list[str]]:
    # one chunk in a pool worker, whole: the lines of rows b_lo..b_hi, or,
    # for a c4 search, of the candidate cells of those rows
    table = _d_table(d_min, d_max)
    items = _items(b_lo, b_hi, d_min, d_max, cells is not None, cells, table, monogenic_only, decide)
    skips: list[str] = []
    return list(_lines(items, fmt, skips.append)), skips


def _chunks(
    b_min: int, b_max: int, d_min: int, d_max: int, c4_only: bool, workers: int
) -> list[tuple[int, int, list[tuple[int, int]] | None]]:
    """The chunks of a parallel search as (b_lo, b_hi, cells), in b order.

    A chunk is about ``_CHUNK`` cells of whole rows, or ``_CHUNK`` C4
    candidates cut between rows, so no two chunks share a first row.  A
    small box still gets one chunk per worker where its rows allow.
    """
    if not c4_only:
        rows = -(-(b_max - b_min + 1) // workers)
        rows = max(1, min(rows, _CHUNK // (d_max - d_min + 1)))
        return [(lo, min(lo + rows - 1, b_max), None) for lo in range(b_min, b_max + 1, rows)]
    # the scan runs once, here; the workers only classify its candidates
    cells = scan_c4(b_min, b_max, d_min, d_max)
    size = max(1, min(_CHUNK, -(-len(cells) // workers)))
    chunks = []
    start = 0
    while start < len(cells):
        end = min(start + size, len(cells))
        while end < len(cells) and cells[end][0] == cells[end - 1][0]:
            end += 1
        part = cells[start:end]
        chunks.append((part[0][0], part[-1][0], part))
        start = end
    return chunks


def ProcessPoolExecutor(max_workers: int):
    # imported here, so that a command run in one process never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def search_lines(
    b_min: int,
    b_max: int,
    d_min: int,
    d_max: int,
    *,
    c4_only: bool = False,
    monogenic_only: bool = False,
    fmt: str = "json",
    workers: int = 1,
    on_skip: Callable[[str], None] | None = None,
) -> Generator[str, None, None]:
    """Stream formatted lines for a box search; output is worker-count invariant.

    The arguments are checked here, before the first line is asked for, so a
    caller can reject them before writing anything.  ``on_skip`` receives one
    message per cell the chosen format had to drop (CSV only); leaving it
    None discards the messages.  Closing the stream early cancels the
    chunks not yet started.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}; expected 'json' or 'csv'")
    _check_box(b_min, b_max, d_min, d_max)
    skip = on_skip or (lambda msg: None)
    # a CSV row needs no report, nor a monogenic cell's factorization, and
    # a monogenic_only JSON search needs them only for the cells it keeps;
    # the filter reads the decided records, so monogenic_only always
    # implies decide
    decide = _SETTLED if fmt == "csv" else _DECIDED if monogenic_only else _FACTORED
    if workers == 1:
        items = _items(b_min, b_max, d_min, d_max, c4_only, None, {}, monogenic_only, decide)
        return _lines(items, fmt, skip)

    def stream() -> Iterator[str]:
        chunks = _chunks(b_min, b_max, d_min, d_max, c4_only, workers)
        if not chunks:
            return
        # the CPUs this process may run on, which taskset or a pinned
        # container can make fewer than the host has
        affinity = getattr(os, "sched_getaffinity", None)
        cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
        procs = min(workers, len(chunks), cpus)
        todo = iter(chunks)
        pool = ProcessPoolExecutor(max_workers=procs)

        def submit(chunk: tuple):
            b_lo, b_hi, cells = chunk
            args = (b_lo, b_hi, d_min, d_max, cells, monogenic_only, decide, fmt)
            return pool.submit(_lines_for_range, *args)

        try:
            # the window: at most 2 chunks per process are queued or running,
            # and the next is submitted once the oldest is written out
            window = deque(map(submit, islice(todo, 2 * procs)))
            while window:
                lines, skips = window.popleft().result()
                for msg in skips:
                    skip(msg)
                yield from lines
                window.extend(map(submit, islice(todo, 1)))
        finally:
            # on an early close, chunks not yet started never run
            pool.shutdown(cancel_futures=True)

    return stream()


_EXPECTED_MONOGENIC_C4 = (Trinomial(-5, 5), Trinomial(-4, 2), Trinomial(4, 2))


@dataclass(frozen=True)
class TheoremVerification:
    """Outcome of the exactly-three check over one search box."""

    found: tuple[Trinomial, ...]
    passed: bool
    n_classes: int
    n_undecided: int

    def to_dict(self) -> dict:
        return {
            "found": [{"b": t.b, "d": t.d} for t in self.found],
            "pass": self.passed,
            "classes": self.n_classes,
            "undecided_pairs": self.n_undecided,
        }


def verify_theorem(b_bound: int, d_bound: int) -> TheoremVerification:
    """Search |b| <= b_bound, 1 <= d <= d_bound for monogenic cyclic quartics.

    Passes when the monogenic cyclic quartic trinomials found are exactly
    x^4 - 5x^2 + 5, x^4 - 4x^2 + 2, and x^4 + 4x^2 + 2, and their field
    invariants split them into three provably distinct fields.  Bounds must
    be at least 5 so the box can contain all three witnesses.

    The candidates are the scan's C4 cells of the box
    (``scan_c4_candidates``), each classified on the per-cell route, not on
    a search's record walk: the five-branch engine runs at 2 first, and a
    candidate that survives 2 has its discriminant factored by
    ``factor_discriminant``, then the engine runs at each odd prime until
    one divides the index.  So the check rests neither on the walk nor on
    the closed form the deciding searches use.  Only the candidates it
    keeps get a report.  A cell the factorizer gives up on raises its
    ``FactorizationIncomplete``, from ``factor_discriminant``; only a
    candidate that survives 2 is factored, so only such a one can raise.
    """
    if b_bound < 5 or d_bound < 5:
        raise ValueError("bounds below 5 cannot contain the three known witnesses")
    reports = []
    for b, d in scan_c4_candidates(-b_bound, b_bound, 1, d_bound):
        t = Trinomial(b, d)
        # 2^4 divides every discriminant 16*d*e^2, so 2 is its least prime
        # and the engine can rule on it before anything is factored
        if _verdict(t, 2).divides_index:
            continue
        fact = factor_discriminant(t)
        if not any(v.divides_index for v in _verdicts(t, fact.primes()[1:])):
            reports.append(_report(t, fact))
    found = tuple(r.trinomial for r in reports)
    partition = distinct_fields(reports)
    passed = (
        set(found) == set(_EXPECTED_MONOGENIC_C4)
        and len(partition.classes) == 3
        and not partition.undecided_pairs
    )
    return TheoremVerification(
        found=found,
        passed=passed,
        n_classes=len(partition.classes),
        n_undecided=len(partition.undecided_pairs),
    )


@dataclass(frozen=True)
class Disagreement:
    """A prime where the branch engine and the Dedekind oracle split."""

    trinomial: Trinomial
    prime: int
    engine: PrimeVerdict
    oracle_divides: bool

    def to_dict(self) -> dict:
        return _json_form(self)


@dataclass(frozen=True)
class OracleCheckResult:
    requested: int
    sampled: int
    agreements: int
    disagreements: tuple[Disagreement, ...]

    def to_dict(self) -> dict:
        return _json_form(self)


# the largest prime_cap oracle_check takes: its sieve of the primes up to
# the cap holds cap + 1 bytes and a list of those primes
_PRIME_CAP_MAX = 10**7


def oracle_check(
    samples: int,
    seed: int,
    b_min: int,
    b_max: int,
    d_min: int,
    d_max: int,
    *,
    prime_cap: int = 97,
) -> OracleCheckResult:
    """Compare the branch engine against the Dedekind route on random cells.

    Draws (b, d) uniformly from the box until ``samples`` irreducible
    trinomials are found, then runs both index tests at every prime
    q <= prime_cap dividing the discriminant; agreements count (t, q)
    pairs.  ``prime_cap`` lies between 2 and 10^7, so the sieve of the
    primes up to it stays bounded.  The Dedekind route at q lifts f mod q,
    a function of (b, d) mod q, and its verdict depends only on (b, d)
    mod q^2 (see :mod:`.dedekind`).  So each call lifts once per class
    mod q and decides once per class mod q^2, and reuses both for every
    later pair in the class; the engine still runs on every pair.
    Sampling is seeded and fully reproducible.  Rejection sampling gives
    up once attempts far exceed ``samples``, so a box with few usable
    cells yields fewer samples rather than a hang.
    """
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    if prime_cap < 2:
        raise ValueError("prime_cap must be at least 2")
    if prime_cap > _PRIME_CAP_MAX:
        raise ValueError(f"prime_cap must be at most {_PRIME_CAP_MAX}")
    _check_box(b_min, b_max, d_min, d_max)
    rng = random.Random(seed)
    small_primes = primes_upto(prime_cap)
    sampled = agreements = 0
    disagreements: list[Disagreement] = []
    # Dedekind lift per (q, b mod q, d mod q) and verdict per (q, b mod q^2,
    # d mod q^2); local, so no call sees another's
    lift_by_class: dict[tuple[int, int, int], tuple] = {}
    oracle_by_class: dict[tuple[int, int, int], bool] = {}
    max_attempts = max(1000, 200 * samples)
    for _ in range(max_attempts):
        if sampled >= samples:
            break
        b = rng.randint(b_min, b_max)
        d = rng.randint(d_min, d_max)
        t = Trinomial(b, d)
        if not is_irreducible(t):
            continue
        sampled += 1
        disc = discriminant(t)
        for q in small_primes:
            if disc % q:
                continue
            # t is irreducible and q a prime dividing disc(t): the
            # preconditions of both unchecked cores hold
            engine = _verdict(t, q)
            qq = q * q
            key = (q, b % qq, d % qq)
            oracle = oracle_by_class.get(key)
            if oracle is None:
                low = (q, b % q, d % q)
                lifted = lift_by_class.get(low)
                if lifted is None:
                    lifted = lift_by_class[low] = _lift(q, b, d)
                oracle = oracle_by_class[key] = _divides_index(t, q, lifted)
            if engine.divides_index == oracle:
                agreements += 1
            else:
                disagreements.append(Disagreement(t, q, engine, oracle))
    return OracleCheckResult(samples, sampled, agreements, tuple(disagreements))
