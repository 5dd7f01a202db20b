from concurrent.futures import Future

import pytest

# rewrite the asserts in the oracles too, so their checks survive python -O
pytest.register_assert_rewrite("oracles")

import hypothesis

hypothesis.settings.register_profile("exact", deadline=None)
hypothesis.settings.load_profile("exact")


class SerialPool:
    """Stands in for the search's process pool: runs each chunk in this
    process as it is submitted, and records the chunks, the most that were
    ever submitted and not yet taken, and every shutdown."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.submitted = []
        self.in_flight = self.peak = 0
        self.shutdowns = []

    def submit(self, fn, *args):
        self.submitted.append(args)
        self.in_flight += 1
        self.peak = max(self.peak, self.in_flight)
        return _Taken(self, fn(*args))

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdowns.append(cancel_futures)


class _Taken(Future):
    """A finished future that tells its pool when its result is taken."""

    def __init__(self, pool, value):
        super().__init__()
        self.set_result(value)
        self._pool = pool

    def result(self, timeout=None):
        self._pool.in_flight -= 1
        return super().result(timeout)


@pytest.fixture
def serial_pool(monkeypatch):
    """The pools a search starts, each a SerialPool; worker d tables start empty."""
    from c4quartic import search

    pools = []

    def start(max_workers):
        pools.append(SerialPool(max_workers))
        return pools[-1]

    monkeypatch.setattr(search, "ProcessPoolExecutor", start)
    monkeypatch.setattr(search, "_d_tables", {})
    return pools
