"""Checks that apply to every test."""

import multiprocessing
import os

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind.

    `multiprocessing` children are stopped and joined first. A child forked
    directly that is still running, or has exited but was never waited for,
    is found by a non-blocking wait on any child.
    """
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join(timeout=10)
    assert not left, f"the test left child processes alive: {left}"
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child, running or exited
        return
    state = "running" if pid == 0 else f"exited but never waited for (pid {pid})"
    pytest.fail(f"the test left a forked child {state}")


@pytest.fixture
def eigvals_calls(monkeypatch):
    """The list that gets the input's shape of each np.linalg.eigvals call
    made during the test."""
    calls, eigvals = [], np.linalg.eigvals

    def counted(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls
