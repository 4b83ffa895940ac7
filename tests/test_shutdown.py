"""Every background loop stops promptly when its owner is stopped.

A loop that sleeps instead of waiting on its stop signal makes
``stop()`` sit out the whole interval (or the join timeout) and leaks
the thread.  Each case starts one loop with a long interval, stops it
and requires the thread to be gone within :data:`STOP_BUDGET_S`.  The
server process itself must drain and exit on SIGTERM within
:data:`DRAIN_BUDGET_S`.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.worker import FleetWorker
from repro.service.jobs import JobManager

STOP_BUDGET_S = 0.5


def _coordinator_reaper():
    coordinator = FleetCoordinator(lease_ttl=30.0, reap_interval=3600.0).start()
    return [coordinator._reaper], coordinator.stop


def _worker_heartbeat():
    # The heartbeat loop only talks to the coordinator while it holds
    # leases; with none it just waits out its period.
    worker = FleetWorker("http://127.0.0.1:9")
    worker._heartbeat_s = 3600.0
    worker._ensure_heartbeats()
    return [worker._heartbeat_thread], worker.stop


def _job_manager_workers():
    manager = JobManager(workers=2).start()
    return list(manager._threads), manager.stop


@pytest.mark.parametrize(
    "start",
    [_coordinator_reaper, _worker_heartbeat, _job_manager_workers],
    ids=["coordinator-reaper", "worker-heartbeat", "job-manager-workers"],
)
def test_background_loop_stops_promptly(start):
    threads, stop = start()
    assert threads and all(thread.is_alive() for thread in threads)
    began = time.monotonic()
    stop()
    for thread in threads:
        thread.join(max(0.0, STOP_BUDGET_S - (time.monotonic() - began)))
    elapsed = time.monotonic() - began
    assert not any(thread.is_alive() for thread in threads)
    assert elapsed < STOP_BUDGET_S


#: Wall-clock budget from SIGTERM to exit of an idle ``repro-gpp serve``.
DRAIN_BUDGET_S = 10.0


def test_sigterm_drains_an_idle_server_and_exits_zero(tmp_path):
    """``repro-gpp serve`` turns SIGTERM into a graceful drain: with no
    job in flight it reports a clean drain and exits 0 promptly."""
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src"),
        "REPRO_CACHE_DIR": str(tmp_path),
    })
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.harness.cli", "serve", "--port", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        ready = server.stdout.readline()
        assert "listening on" in ready, ready
        began = time.monotonic()
        server.send_signal(signal.SIGTERM)
        output, _ = server.communicate(timeout=DRAIN_BUDGET_S)
        elapsed = time.monotonic() - began
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    assert "drained cleanly" in output, output
    assert server.returncode == 0
    assert elapsed < DRAIN_BUDGET_S
