import os

import pytest


@pytest.fixture
def cpus(monkeypatch):
    """cpus(k) makes this process see k usable CPUs (``os.sched_getaffinity``)."""
    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    return use


@pytest.fixture
def forks(monkeypatch, cpus):
    """Pids of the children that ``os.fork`` starts, on a host of 4 usable CPUs.

    The CPU count is patched so that tabulation forks whatever the host;
    ``cpus`` changes it.  After the test every recorded child must be
    reaped already.
    """
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    cpus(4)
    monkeypatch.setattr(os, "fork", recorded)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):  # reaped: no longer this process's child
            os.waitpid(pid, os.WNOHANG)
