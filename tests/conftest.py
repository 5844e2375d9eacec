import os

import pytest


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made during a test, one entry each, with two usable
    CPUs whatever the host, so that the CSV export's second writer is allowed."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return calls
