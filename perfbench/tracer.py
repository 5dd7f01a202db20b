"""In-memory span tracer that wraps c4quartic's public functions from outside.

Nothing in ``src/`` knows about tracing.  :meth:`Tracer.install` replaces
every public function of every package module (the names in each module's
``__all__``) with a timing wrapper and rebinds that name wherever a package
module imported it, so calls between modules go through the wrappers too.
Two private boundaries are wrapped as well, because they are where parallel
work happens: ``search._lines_for_range`` (one b-strip, run in a pool
worker) and ``search.ProcessPoolExecutor`` (whose ``map`` results the
parent waits on).

A span is (name, start, end, parent); the spans of one process live in four
flat arrays.  Generator functions get one span per resume, so a layer's time
is the time spent inside it, not the time its consumer held it open.  Pool
workers are forked and inherit the wrappers; each worker starts with empty
buffers and writes its spans to ``<worker_dir>/strip-<b_lo>.spans`` when its
strip ends.  The parent merges those files in strip order.

A layer is a module; ``scan`` covers ``scan.py`` and ``_scan_py.py``.  A
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

PACKAGE = "c4quartic"
MODULES = (
    "trinomial",
    "intarith",
    "monogenic",
    "index_criterion",
    "search",
    "fields",
    "dedekind",
    "gfq",
    "scan",
    "_scan_py",
    "cli",
)
LAYER_OF_MODULE = {m: m for m in MODULES} | {"_scan_py": "scan"}
LAYERS = tuple(dict.fromkeys(LAYER_OF_MODULE.values()))

STRIP = "search.strip"
POOL_WAIT = "search.pool.wait"
WRITE = "cli.write"


def layer_of(span_name: str) -> str:
    return LAYER_OF_MODULE[span_name.split(".", 1)[0]]


class Buffer:
    """The spans of one process, in start order; parents precede children."""

    def __init__(self):
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counters: dict[str, int] = {}

    def clear(self) -> None:
        for arr in (self.names, self.starts, self.ends, self.parents):
            del arr[:]
        self.counters.clear()

    def __len__(self) -> int:
        return len(self.names)

    def dump(self, fh, names: list[str]) -> None:
        """Write one header line of JSON, then the four arrays raw."""
        header = {"names": names, "counters": self.counters, "n": len(self)}
        fh.write(json.dumps(header).encode() + b"\n")
        for arr in (self.names, self.starts, self.ends, self.parents):
            arr.tofile(fh)

    @classmethod
    def load(cls, fh, names: list[str]) -> "Buffer":
        """Read a :meth:`dump`, remapping its name ids onto ``names``."""
        header = json.loads(fh.readline())
        buf = cls()
        n = header["n"]
        for arr in (buf.names, buf.starts, buf.ends, buf.parents):
            arr.fromfile(fh, n)
        remap = array("i", (names.index(x) for x in header["names"]))
        buf.names = array("i", (remap[i] for i in buf.names))
        buf.counters.update(header["counters"])
        return buf


class _TracedIterator:
    """Times each ``next`` on a wrapped generator or iterator as one span."""

    def __init__(self, tracer: "Tracer", it, nid: int):
        self._tracer = tracer
        self._it = it
        self._nid = nid

    def __iter__(self):
        return self

    def __next__(self):
        tr = self._tracer
        i = tr._open(self._nid)
        try:
            return next(self._it)
        finally:
            tr._close(i)


class Tracer:
    """Span buffers for this process, plus the wrappers that fill them."""

    def __init__(self):
        self.names: list[str] = []
        self.buf = Buffer()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.worker_dir: Path | None = None
        self._in_worker = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -----------------------------------------------------

    def _nid(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def _open(self, nid: int) -> int:
        buf = self.buf
        i = len(buf.names)
        buf.names.append(nid)
        buf.parents.append(self._stack[-1])
        buf.ends.append(0.0)
        self._stack.append(i)
        buf.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.buf.ends[i] = time.perf_counter()
        self._stack.pop()

    def take(self) -> Buffer:
        """This process's spans so far; recording continues into a fresh buffer."""
        buf, self.buf = self.buf, Buffer()
        return buf

    def count(self, key: str, n: int = 1) -> None:
        c = self.buf.counters
        c[key] = c.get(key, 0) + n

    def wrap(self, fn, name: str, hook=None):
        """A traced stand-in for ``fn``; ``hook(args, result)`` sees each result."""
        nid = self._nid(name)
        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                return _TracedIterator(self, fn(*args, **kwargs), nid)

            return functools.update_wrapper(traced_gen, fn)

        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.count(f"{name}.raised.{type(exc).__name__}")
                raise
            finally:
                self._close(i)
            if hook is not None:
                hook(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- worker processes ----------------------------------------------

    def _after_fork(self) -> None:
        self.buf.clear()
        self._stack[:] = [-1]
        self._in_worker = True

    def _strip_wrapper(self, fn):
        traced = self.wrap(fn, STRIP)

        def strip(b_lo, *rest):
            result = traced(b_lo, *rest)
            if self._in_worker and self.worker_dir is not None and len(self._stack) == 1:
                with open(self.worker_dir / f"strip-{b_lo}.spans", "wb") as fh:
                    self.buf.dump(fh, self.names)
                self.buf.clear()
            return result

        return functools.update_wrapper(strip, fn)

    def merged_worker_buffers(self) -> list[tuple[int, Buffer]]:
        """Worker buffers written since the last call, as (b_lo, buffer) in strip order."""
        if self.worker_dir is None:
            return []
        out = []
        for path in self.worker_dir.glob("strip-*.spans"):
            b_lo = int(path.stem.split("-", 1)[1])
            with open(path, "rb") as fh:
                out.append((b_lo, Buffer.load(fh, self.names)))
            path.unlink()
        out.sort(key=lambda pair: pair[0])
        return out

    # -- installing ----------------------------------------------------

    def install(self, hooks: dict | None = None) -> None:
        """Wrap every public package function and rebind it in every package module."""
        hooks = hooks or {}
        modules = {m: sys.modules[f"{PACKAGE}.{m}"] for m in MODULES}
        replacements: dict[int, object] = {}
        for short, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    replacements[id(fn)] = self.wrap(fn, name, hooks.get(name))
        search = modules["search"]
        replacements[id(search._lines_for_range)] = self._strip_wrapper(search._lines_for_range)
        tracer, wait_id = self, self._nid(POOL_WAIT)

        class TimedPool(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                return _TracedIterator(tracer, super().map(fn, *iterables, **kwargs), wait_id)

        replacements[id(search.ProcessPoolExecutor)] = TimedPool

        targets = [sys.modules[PACKAGE], *modules.values()]
        for mod in targets:
            for attr, value in list(vars(mod).items()):
                new = replacements.get(id(value))
                if new is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def wrap_write(self, sink) -> None:
        """Record each write to ``sink`` as a ``cli.write`` span."""
        sink.write = self.wrap(sink.write, WRITE)


def aggregate(names: list[str], buffers: list[Buffer]) -> dict:
    """Per-function and per-layer totals over the given process buffers.

    ``calls`` counts every span; ``s`` sums spans whose parent is another
    function (so direct recursion is not counted twice); ``self_s`` sums
    self times.  ``layer_s`` sums spans entered from another layer or from
    outside the package; ``layer_self_s`` sums self times by layer.
    """
    calls = [0] * len(names)
    incl = [0.0] * len(names)
    self_s = [0.0] * len(names)
    layer_idx = [LAYERS.index(layer_of(n)) for n in names]
    layer_s = [0.0] * len(LAYERS)
    layer_self = [0.0] * len(LAYERS)
    counters: dict[str, int] = {}
    roots: list[tuple[str, float]] = []
    for buf in buffers:
        n = len(buf)
        nm, st, en, pa = buf.names, buf.starts, buf.ends, buf.parents
        child = [0.0] * n
        for i in range(n):
            p = pa[i]
            if p >= 0:
                child[p] += en[i] - st[i]
        for i in range(n):
            k = nm[i]
            d = en[i] - st[i]
            p = pa[i]
            calls[k] += 1
            own = d - child[i]
            self_s[k] += own
            layer_self[layer_idx[k]] += own
            if p < 0:
                roots.append((names[k], d))
            pk = nm[p] if p >= 0 else -1
            if pk != k:
                incl[k] += d
            if pk < 0 or layer_idx[pk] != layer_idx[k]:
                layer_s[layer_idx[k]] += d
        for key, v in buf.counters.items():
            counters[key] = counters.get(key, 0) + v
    return {
        "calls": {names[k]: calls[k] for k in range(len(names))},
        "s": {names[k]: incl[k] for k in range(len(names))},
        "self_s": {names[k]: self_s[k] for k in range(len(names))},
        "layer_s": dict(zip(LAYERS, layer_s)),
        "layer_self_s": dict(zip(LAYERS, layer_self)),
        "counters": counters,
        "roots": roots,
        "spans": sum(len(b) for b in buffers),
    }
