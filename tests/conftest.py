"""Fixtures shared by the test modules."""

import concurrent.futures

import pytest


class InProcessPool:
    """A process pool that records its size and runs each task at once,
    in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = concurrent.futures.Future()
        fut.set_result(fn(*args))
        return fut


@pytest.fixture
def pool(monkeypatch):
    """Replace ``ProcessPoolExecutor`` by :class:`InProcessPool`, so that
    no process starts; returns the list of the pools' sizes."""
    monkeypatch.setattr(InProcessPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    return InProcessPool.sizes
