"""The four benchmark workloads: the argv a user would type, and its output check.

Each workload is one ``c4quartic`` command.  ``full`` is the measured size;
``tiny`` is the same command on a box small enough for the self-test.  A
check returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

NAMES = ("theorem", "box-json", "box-csv-w2", "oracle")
DEFAULT_SEED = 1

# The three monogenic cyclic quartic trinomials the paper proves unique.
THEOREM_FOUND = {(-5, 5), (-4, 2), (4, 2)}

# Pins.  box-json does not depend on the seed; the others are pinned for
# DEFAULT_SEED only, at full size.
BOX_JSON_SHA256 = {
    "full": "d1093eca0a6047626158867b00566c9b502e5a04b56567ba8618a748b2451dae",
    "tiny": "11108051dbce5ed8689ce01fbb01f70113c18bd862817583a60e1a151a48169f",
}
BOX_CSV_W2_SHA256 = "c90557a517cab0a01c4741d5ad6210c22fc72ffecf7906f57ae52d7d249de3f4"
ORACLE_AGREEMENTS = 6758


@dataclass
class Outcome:
    """What one command produced, as seen by the user."""

    argv: list[str]
    code: object
    wall_s: float
    # time to the first result line, after any header
    first_line_s: float | None
    digest: str
    lines: int
    error_records: int
    text: str | None
    stderr: str


@dataclass
class Workload:
    name: str
    argv: list[str]
    cells: int
    box: dict
    capture: bool
    check: Callable[[Outcome], list[str]]
    header_lines: int = 0
    # argv whose output digest ``check`` compares against, run once untimed
    reference_argv: list[str] | None = None
    reference: dict = field(default_factory=dict)
    # argv of the i-th timed command, when the commands of a run differ
    argv_at: Callable[[int], list[str]] | None = None

    def command(self, i: int) -> list[str]:
        return self.argv if self.argv_at is None else self.argv_at(i)


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _parse(out: Outcome, problems: list[str]) -> dict:
    try:
        return json.loads(out.text or "")
    except ValueError:
        problems.append("stdout is not one JSON document")
        return {}


def _box_argv(b_min: int, b_max: int, d_min: int, d_max: int) -> list[str]:
    return ["--b-min", str(b_min), "--b-max", str(b_max), "--d-min", str(d_min), "--d-max", str(d_max)]


def theorem(size: str) -> Workload:
    b_bound, d_bound = (300, 30_000) if size == "full" else (6, 40)

    def check(out: Outcome) -> list[str]:
        problems: list[str] = []
        _expect(problems, out.code == 0, f"exit code {out.code!r}, expected 0")
        doc = _parse(out, problems)
        _expect(problems, doc.get("pass") is True, "verification did not pass")
        found = {(t["b"], t["d"]) for t in doc.get("found", [])}
        _expect(problems, found == THEOREM_FOUND, f"found {sorted(found)}")
        return problems

    return Workload(
        name="theorem",
        argv=["verify-theorem", "--b-bound", str(b_bound), "--d-bound", str(d_bound)],
        cells=(2 * b_bound + 1) * d_bound,
        box={"b": [-b_bound, b_bound], "d": [1, d_bound]},
        capture=True,
        check=check,
    )


def box_json(size: str) -> Workload:
    r = 100 if size == "full" else 3
    side = 2 * r + 1

    def check(out: Outcome) -> list[str]:
        problems: list[str] = []
        _expect(problems, out.code == 0, f"exit code {out.code!r}, expected 0")
        _expect(problems, out.lines == side * side, f"{out.lines} lines, expected {side * side}")
        _expect(problems, out.error_records == side, f"{out.error_records} error records, expected {side}")
        _expect(problems, out.digest == BOX_JSON_SHA256[size], f"stdout sha256 {out.digest} is not the pinned one")
        return problems

    return Workload(
        name="box-json",
        argv=["search", *_box_argv(-r, r, -r, r), "--format", "json"],
        cells=side * side,
        box={"b": [-r, r], "d": [-r, r]},
        capture=False,
        check=check,
    )


def csv_origin(seed: int) -> tuple[int, int]:
    """Origin of the box-csv-w2 box: (10^5, 10^9) for the default seed, shifted by the seed.

    The shift is at most 9 in b and in d, so the boxes of any two seeds
    share at least 85% of their cells and cost about the same to search.
    """
    k = (seed - DEFAULT_SEED) % 100
    return 100_000 + k % 10, 1_000_000_000 + k // 10


def box_csv_w2(size: str, seed: int) -> Workload:
    b0, d0 = csv_origin(seed)
    n = 120 if size == "full" else 4
    box = _box_argv(b0, b0 + n - 1, d0, d0 + n - 1)
    reference: dict = {}

    def check(out: Outcome) -> list[str]:
        problems: list[str] = []
        _expect(problems, out.code == 0, f"exit code {out.code!r}, expected 0")
        _expect(problems, out.lines == n * n + 1, f"{out.lines} lines, expected {n * n + 1}")
        _expect(problems, out.stderr == "", "cells were skipped")
        _expect(problems, out.digest == reference.get("digest"), "stdout differs from the --workers 1 run")
        if size == "full" and seed == DEFAULT_SEED:
            _expect(problems, out.digest == BOX_CSV_W2_SHA256, f"stdout sha256 {out.digest} is not the pinned one")
        return problems

    return Workload(
        name="box-csv-w2",
        argv=["search", *box, "--format", "csv", "--workers", "2"],
        cells=n * n,
        box={"b": [b0, b0 + n - 1], "d": [d0, d0 + n - 1]},
        capture=False,
        check=check,
        header_lines=1,
        reference_argv=["search", *box, "--format", "csv", "--workers", "1"],
        reference=reference,
    )


def oracle(size: str, seed: int) -> Workload:
    """The i-th timed command samples with oracle seed ``seed + i``.

    The cost of 2000 samples depends on the oracle seed by up to about 10%;
    varying it within a run lets the run's mean average that out, so runs
    on different seeds measure the same mix of work.
    """
    samples = 2000 if size == "full" else 30
    bound = 1_000_000

    def argv_at(i: int) -> list[str]:
        return [
            "oracle-check", "--samples", str(samples), "--seed", str(seed + i),
            "--b-bound", str(bound), "--d-bound", str(bound),
        ]

    def check(out: Outcome) -> list[str]:
        problems: list[str] = []
        _expect(problems, out.code == 0, f"exit code {out.code!r}, expected 0")
        doc = _parse(out, problems)
        _expect(problems, doc.get("disagreements") == [], "engine and Dedekind route disagree")
        _expect(problems, doc.get("sampled") == samples, f"sampled {doc.get('sampled')}, expected {samples}")
        if size == "full" and out.argv[out.argv.index("--seed") + 1] == str(DEFAULT_SEED):
            got = doc.get("agreements")
            _expect(problems, got == ORACLE_AGREEMENTS, f"{got} agreements, expected {ORACLE_AGREEMENTS}")
        return problems

    return Workload(
        name="oracle",
        argv=argv_at(0),
        # a cell is one sampled trinomial, classified by both routes
        cells=samples,
        box={"b": [-bound, bound], "d": [-bound, bound], "samples": samples},
        capture=True,
        check=check,
        argv_at=argv_at,
    )


def make(name: str, seed: int, size: str = "full") -> Workload:
    if name == "theorem":
        return theorem(size)
    if name == "box-json":
        return box_json(size)
    if name == "box-csv-w2":
        return box_csv_w2(size, seed)
    if name == "oracle":
        return oracle(size, seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
