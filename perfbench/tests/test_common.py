"""A run leaves no process behind: the resource tracker is stopped."""

import os
from multiprocessing import resource_tracker

import pytest

from common import stop_resource_tracker


def test_stop_resource_tracker_ends_and_reaps_the_tracker():
    resource_tracker.ensure_running()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    stop_resource_tracker()
    # Reaped, not just signalled: the pid no longer names a process.
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
    stop_resource_tracker()  # stopping twice is harmless
