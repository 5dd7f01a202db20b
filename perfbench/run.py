#!/usr/bin/env python3
"""c4quartic benchmark: one workload per run, closed loop, checked outputs.

    python3 perfbench/run.py --workload theorem --seed 1 --seconds 20 --trace 0

One client issues one command at a time.  Each command is the argv a user
would type, driven in-process through ``c4quartic.cli.main`` with stdout
going into a sink that hashes and counts it, and each output is checked.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with every package function wrapped by
:mod:`tracer`, and reports the per-layer metrics.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in turn.  See README.md here.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import c4quartic.cli; "
    "from c4quartic.intarith import _trial_primes; _trial_primes()"
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cells_per_s": "1/s",
    "first_line_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "scan.s": "s",
    "scan.self_s": "s",
    "scan.cells": "count",
    "scan.candidates": "count",
    "scan.hit_ratio": "ratio",
    "trinomial.self_s": "s",
    "trinomial.is_irreducible.calls_per_cell": "calls/cell",
    "intarith.self_s": "s",
    "intarith.factor.calls": "count",
    "intarith.factor.s": "s",
    "intarith.is_prime.calls": "count",
    "intarith.factor.giveups": "count",
    "monogenic.self_s": "s",
    "monogenic.is_monogenic.self_s": "s",
    "monogenic.factor_discriminant.s": "s",
    "index_criterion.self_s": "s",
    "index_criterion.prime_index_test.calls": "count",
    "index_criterion.prime_index_test.s": "s",
    **{f"index_criterion.branch_{k}": "count" for k in range(1, 6)},
    "search.self_s": "s",
    "search.format_item.s": "s",
    "search.bytes_out": "B",
    "search.error_records": "count",
    "search.pool.wait_s": "s",
    "search.strip_s.max": "s",
    "search.strip_s.min": "s",
    "fields.self_s": "s",
    "fields.distinct_fields.s": "s",
    "dedekind.self_s": "s",
    "dedekind.calls": "count",
    "dedekind.s": "s",
    "gfq.self_s": "s",
    "gfq.gf_factor.calls": "count",
    "gfq.gf_factor.s": "s",
    "gfq.gf_divmod.calls": "count",
    "cli.self_s": "s",
    "cli.write_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Sink(io.TextIOBase):
    """A stdout that keeps a sha256, a line count and an error-record count.

    ``first_line_at`` is when the line after the first ``header_lines``
    lines was completed.
    """

    def __init__(self, capture: bool, header_lines: int = 0):
        self._header_lines = header_lines
        self._hash = hashlib.sha256()
        self.lines = 0
        self.error_records = 0
        self.first_line_at: float | None = None
        self._parts: list[str] | None = [] if capture else None

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        data = s.encode()
        self._hash.update(data)
        newlines = data.count(b"\n")
        if newlines:
            self.lines += newlines
            if self.first_line_at is None and self.lines > self._header_lines:
                self.first_line_at = time.perf_counter()
        self.error_records += data.count(b',"error":')
        if self._parts is not None:
            self._parts.append(s)
        return len(s)

    def digest(self) -> str:
        return self._hash.hexdigest()

    def text(self) -> str | None:
        return None if self._parts is None else "".join(self._parts)


def run_command(argv: list[str], capture: bool, tracer=None, header_lines: int = 0) -> workloads.Outcome:
    """Run one CLI command in-process and describe what the user would have seen."""
    from c4quartic import cli

    out, err = Sink(capture, header_lines), Sink(capture=True)
    if tracer is not None:
        tracer.wrap_write(out)
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed attempt, not the end of the run
            code = f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    first = None if out.first_line_at is None else out.first_line_at - start
    return workloads.Outcome(
        argv=argv,
        code=code,
        wall_s=wall,
        first_line_s=first,
        digest=out.digest(),
        lines=out.lines,
        error_records=out.error_records,
        text=out.text(),
        stderr=err.text() or "",
    )


def measure_setup() -> float:
    """Seconds from a fresh interpreter to ``c4quartic.cli`` imported and ready."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for, in MB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024


def layer_hooks(tr: tracing.Tracer) -> dict:
    """Counters recorded from arguments and results at layer boundaries."""
    from c4quartic.search import SearchError

    def scan(args, result):
        b_min, b_max, d_min, d_max = args[:4]
        tr.count("scan.cells", (b_max - b_min + 1) * (d_max - d_min + 1))
        tr.count("scan.candidates", len(result))

    def prime_index_test(args, result):
        tr.count(f"index_criterion.branch_{result.branch}")

    def format_item(args, result):
        if isinstance(args[0], SearchError):
            tr.count("search.error_records")
        if result is not None:
            tr.count("search.bytes_out", len(result.encode()) + 1)

    return {
        "scan.scan_c4_candidates": scan,
        "index_criterion.prime_index_test": prime_index_test,
        "search.format_item": format_item,
    }


def layer_metrics(agg: dict, cells: int) -> dict[str, float]:
    """The per-layer metrics of one traced command."""
    calls, incl, self_s = agg["calls"], agg["s"], agg["self_s"]
    counters = agg["counters"]
    strips = [d for name, d in agg["roots"] if name == tracing.STRIP]
    scan_cells = counters.get("scan.cells", 0)
    m = {f"{layer}.self_s": agg["layer_self_s"][layer] for layer in tracing.LAYERS}
    m.update(
        {
            "scan.s": agg["layer_s"]["scan"],
            "scan.cells": scan_cells,
            "scan.candidates": counters.get("scan.candidates", 0),
            "scan.hit_ratio": counters.get("scan.candidates", 0) / scan_cells if scan_cells else 0.0,
            "trinomial.is_irreducible.calls_per_cell": calls.get("trinomial.is_irreducible", 0) / cells,
            "intarith.factor.calls": calls.get("intarith.factor", 0),
            "intarith.factor.s": incl.get("intarith.factor", 0.0),
            "intarith.is_prime.calls": calls.get("intarith.is_prime", 0),
            "intarith.factor.giveups": counters.get("intarith.factor.raised.FactorizationIncomplete", 0),
            "monogenic.is_monogenic.self_s": self_s.get("monogenic.is_monogenic", 0.0),
            "monogenic.factor_discriminant.s": incl.get("monogenic.factor_discriminant", 0.0),
            "index_criterion.prime_index_test.calls": calls.get("index_criterion.prime_index_test", 0),
            "index_criterion.prime_index_test.s": incl.get("index_criterion.prime_index_test", 0.0),
            **{f"index_criterion.branch_{k}": counters.get(f"index_criterion.branch_{k}", 0) for k in range(1, 6)},
            "search.format_item.s": incl.get("search.format_item", 0.0),
            "search.bytes_out": counters.get("search.bytes_out", 0),
            "search.error_records": counters.get("search.error_records", 0),
            "search.pool.wait_s": incl.get(tracing.POOL_WAIT, 0.0),
            "search.strip_s.max": max(strips, default=0.0),
            "search.strip_s.min": min(strips, default=0.0),
            "fields.distinct_fields.s": incl.get("fields.distinct_fields", 0.0),
            "dedekind.calls": calls.get("dedekind.dedekind_divides_index", 0),
            "dedekind.s": incl.get("dedekind.dedekind_divides_index", 0.0),
            "gfq.gf_factor.calls": calls.get("gfq.gf_factor", 0),
            "gfq.gf_factor.s": incl.get("gfq.gf_factor", 0.0),
            "gfq.gf_divmod.calls": calls.get("gfq.gf_divmod", 0),
            "cli.write_s": incl.get(tracing.WRITE, 0.0),
            "trace.spans": agg["spans"],
        }
    )
    return m


class Run:
    """The attempts of one workload run and the metrics drawn from them."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setups: list[float] = []
        self.walls: list[float] = []
        self.first_lines: list[float] = []
        self.traced: list[dict[str, float]] = []
        self.traced_walls: list[float] = []
        # whether the i-th command runs ``wl.command(i)``; else always the first
        self.vary = True

    def attempt(self, tr: tracing.Tracer | None = None) -> workloads.Outcome:
        wl = self.wl
        argv = wl.command(self.attempted if self.vary else 0)
        out = run_command(argv, wl.capture, tr, wl.header_lines)
        self.attempted += 1
        problems = wl.check(out)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return out

    def loop(self, seconds: float, tr: tracing.Tracer | None = None, spans_path: Path | None = None):
        """Issue commands for about ``seconds``: stop where the loop ends nearest that."""
        deadline = time.perf_counter() + seconds
        costs = []
        while True:
            began = time.perf_counter()
            out = self.attempt(tr)
            if tr is None:
                self.walls.append(out.wall_s)
                if out.first_line_s is not None:
                    self.first_lines.append(out.first_line_s)
                # spread over the run, so it sees the same machine as the commands
                self.setups.append(measure_setup())
            else:
                self.traced_walls.append(out.wall_s)
                self._collect(tr, spans_path)
            now = time.perf_counter()
            costs.append(now - began)
            if now + statistics.median(costs) / 2 >= deadline:
                return

    def _collect(self, tr: tracing.Tracer, spans_path: Path | None) -> None:
        buffers = [tr.take()] + [buf for _, buf in tr.merged_worker_buffers()]
        self.traced.append(layer_metrics(tracing.aggregate(tr.names, buffers), self.wl.cells))
        if spans_path is not None:
            with open(spans_path, "wb") as fh:
                for buf in buffers:
                    buf.dump(fh, tr.names)

    def end_to_end(self) -> dict[str, float]:
        # Command times are means over the run, not medians: they fall in a
        # fast and a slow cluster as the machine's speed switches, and the
        # median jumps between the clusters from run to run (README.md).
        wall = statistics.fmean(self.walls)
        return {
            "setup_s": statistics.median(self.setups),
            "wall_s": wall,
            "cells_per_s": self.wl.cells / wall,
            "first_line_s": statistics.fmean(self.first_lines) if self.first_lines else wall,
            "peak_rss_mb": peak_rss_mb(),
        }

    def per_layer(self) -> dict[str, float]:
        m = {}
        for key in self.traced[0]:
            values = [t[key] for t in self.traced]
            m[key] = statistics.median(values) if PER_LAYER[key] == "s" else statistics.median_low(values)
        m["trace.wall_s"] = statistics.fmean(self.traced_walls)
        m["trace.overhead_s"] = m["trace.wall_s"] - statistics.fmean(self.walls)
        return m


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "c4quartic").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(wl: workloads.Workload, args) -> dict:
    import c4quartic

    return {
        "workload": wl.name,
        "argv": ["c4quartic", *wl.argv],
        # the oracle's seed steps by one per command in untraced runs
        "argv_varies": wl.argv_at is not None and not args.trace,
        "box": wl.box,
        "cells": wl.cells,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "backend": c4quartic.active_backend(),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
    }


def run_workload(name: str, args) -> tuple[Run, dict[str, float], dict]:
    from c4quartic import cli  # noqa: F401  (the import setup_s times, done before the clock)
    from c4quartic.intarith import _trial_primes

    _trial_primes()
    wl = workloads.make(name, args.seed, args.size)
    run = Run(wl)
    record = run_record(wl, args)
    if wl.reference_argv is not None:
        wl.reference["digest"] = run_command(wl.reference_argv, capture=False).digest
    if not args.trace:
        run.loop(args.seconds)
        return run, run.end_to_end(), record

    # one command throughout, so the traced counts repeat exactly
    run.vary = False
    run.loop(args.seconds / 2)
    tr = tracing.Tracer()
    tr.worker_dir = OUT / f"workers-{os.getpid()}"
    tr.worker_dir.mkdir(parents=True, exist_ok=True)
    tr.install(layer_hooks(tr))
    try:
        run.loop(args.seconds / 2, tr, OUT / f"spans-{name}.bin")
    finally:
        tr.uninstall()
        shutil.rmtree(tr.worker_dir, ignore_errors=True)
    return run, run.per_layer(), record


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the self-test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "c4quartic" / "__init__.py").is_file():
        print(f"error: no c4quartic sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import c4quartic

    if Path(c4quartic.__file__).resolve().parent != SRC / "c4quartic":
        print(f"error: imported c4quartic from {c4quartic.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        run, values, record = run_workload(name, args)
        attempted += run.attempted
        failed += run.failed
        print("record " + json.dumps(record, sort_keys=True))
        for problem in dict.fromkeys(run.problems):
            print(f"{name}: check failed: {problem}")
        for key, unit in units.items():
            print(f"{name:<11} {key:<40} {_fmt(values[key]):>14} {unit}")
        share = run.failed / run.attempted
        print(f"{name:<11} {'failed_share':<40} {_fmt(share):>14} share  ({run.failed} of {run.attempted})")
        prefix = "" if len(names) == 1 else f"{name}."
        for key, unit in units.items():
            metrics[prefix + key] = {"value": values[key], "unit": unit}
        with open(OUT / f"{name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            result = {
                "record": record,
                "attempted": run.attempted,
                "failed": run.failed,
                "problems": run.problems,
                "metrics": values,
                "setup_s": run.setups,
                "wall_s": run.walls,
                "first_line_s": run.first_lines,
                "traced_wall_s": run.traced_walls,
            }
            json.dump(result, fh, indent=1)
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
