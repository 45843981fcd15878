"""Shared-memory lifecycle hardening for the shard plane.

Two failure modes this file pins down:

* **Stranded segments** — a coordinator killed before ``close()`` used
  to leave its segments in ``/dev/shm`` forever.  Segments now carry
  ``chz-<pid>-<nonce>-<tag>`` names, the coordinator registers an
  ``atexit`` hook, and startup reaps any segment whose owning pid is
  dead (``repro.shard.names``).  A plane maps one kind of segment, one
  per live generation: the publishes and acks ride each worker's pipe.
* **Orphaned workers** — a worker whose coordinator was SIGKILLed,
  even before the worker reached its loop, exits on its own: it reads
  EOF on its pipe, or its orphan poll sees it was re-parented.
"""

import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.router import ForwardingEngine
from repro.serve import SnapshotRouter
from repro.shard.coordinator import ShardCoordinator
from repro.shard.names import (
    SEGMENT_PREFIX,
    fresh_nonce,
    reap_stale_segments,
    segment_name,
)
from repro.shard.worker import _ORPHAN_POLL_SECONDS
from repro.workloads import synthetic_table

SHM_DIR = "/dev/shm"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR),
    reason="needs a POSIX /dev/shm to observe segment lifetimes",
)


@pytest.fixture(autouse=True, scope="module")
def _isolated_registry():
    """Fresh metrics registry: coordinator construction registers shard
    gauges whose values other modules assert over."""
    from repro.obs import MetricsRegistry, set_registry

    previous = set_registry(MetricsRegistry())
    yield
    set_registry(previous)


def our_segments(pid=None):
    pid_pattern = str(pid) if pid is not None else r"\d+"
    pattern = re.compile(rf"^{SEGMENT_PREFIX}-{pid_pattern}-")
    return sorted(
        name for name in os.listdir(SHM_DIR) if pattern.match(name)
    )


def build_router(size=200, seed=17):
    fib = ForwardingEngine.from_table(synthetic_table(size, seed=seed))
    return SnapshotRouter(fib)


#: Subprocess body shared by the lifecycle tests below.  These must run
#: in a *real* interpreter (not a multiprocessing child): a forked
#: ``Process`` exits through ``_bootstrap`` without running ``atexit``
#: hooks, and its daemon workers would inherit pytest's capture pipes.
_COORDINATOR_SCRIPT = """
import os, signal, time
from multiprocessing import resource_tracker
from repro.router import ForwardingEngine
from repro.serve import SnapshotRouter
from repro.shard.coordinator import ShardCoordinator
from repro.workloads import synthetic_table
{prelude}
fib = ForwardingEngine.from_table(synthetic_table(120, seed=17))
coordinator = ShardCoordinator(SnapshotRouter(fib), workers=1)
{ending}
"""

#: Script ending: report the worker (and resource-tracker) pids on
#: stdout, then die without any cleanup.
_PRINT_PIDS_AND_KILL = """
print(*(p.pid for p in coordinator._processes), flush=True)
print(resource_tracker._resource_tracker._pid, flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def run_coordinator_subprocess(ending, prelude="", lines=0):
    """Run the coordinator script; -> (pid, returncode, printed ints).

    Reads exactly ``lines`` lines instead of waiting for EOF: a worker
    that outlives the script holds the pipe open.
    """
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src)
    script = _COORDINATOR_SCRIPT.format(prelude=prelude, ending=ending)
    process = subprocess.Popen(
        [sys.executable, "-c", script], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        printed = []
        for _ in range(lines):
            printed.extend(map(int, process.stdout.readline().split()))
        returncode = process.wait(timeout=120)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise
    finally:
        process.stdout.close()
    return process.pid, returncode, printed


def process_alive(pid):
    """True while ``pid`` runs (a zombie awaiting its reaper is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state != "Z"


def wait_gone(pids, timeout):
    """Poll until every pid is gone; SIGKILL and return the survivors."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and any(map(process_alive, pids)):
        time.sleep(0.05)
    survivors = [pid for pid in pids if process_alive(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)  # never leak them past the test
    return survivors


class TestNames:
    def test_segment_name_shape(self):
        nonce = fresh_nonce()
        name = segment_name("g7", nonce)
        assert name == f"chz-{os.getpid()}-{nonce}-g7"
        # macOS caps shm names at 31 bytes (PSHMNAMLEN); stay under it.
        assert len(name) <= 31

    def test_reap_ignores_live_and_foreign(self, tmp_path):
        shm_dir = tmp_path
        live = f"chz-{os.getpid()}-deadbeef-g1"
        foreign = "psm_something_else"
        for name in (live, foreign):
            (shm_dir / name).write_bytes(b"x")
        removed = reap_stale_segments(str(shm_dir))
        assert removed == []
        assert sorted(p.name for p in shm_dir.iterdir()) == sorted(
            [live, foreign])

    def test_reap_removes_dead_pid_segments(self, tmp_path):
        # Grab a pid that is certainly dead: fork a child and wait it out.
        child = multiprocessing.get_context("fork").Process(target=lambda: None)
        child.start()
        dead_pid = child.pid
        child.join()
        stale = f"chz-{dead_pid}-cafef00d-g3"
        (tmp_path / stale).write_bytes(b"x")
        removed = reap_stale_segments(str(tmp_path))
        assert removed == [stale]
        assert not (tmp_path / stale).exists()


class TestCoordinatorLifecycle:
    def test_close_leaves_no_segments(self):
        before = our_segments(os.getpid())
        coordinator = ShardCoordinator(build_router(), workers=1)
        fresh = sorted(set(our_segments(os.getpid())) - set(before))
        assert len(fresh) == 1, f"one generation, one segment: {fresh}"
        coordinator.close()
        assert our_segments(os.getpid()) == before

    def test_killed_coordinator_is_reaped_on_next_start(self):
        """A SIGKILLed coordinator leaves segments; the next coordinator
        start (or an explicit reap) removes them by dead-pid scan, and
        its orphaned worker (then its resource tracker) exits on its
        own.  One batch is served first, so the worker is in its loop
        (not attaching segments the reap below removes) when the
        coordinator dies."""
        pid, returncode, pids = run_coordinator_subprocess(
            "coordinator.lookup_batch([1, 2, 3])" + _PRINT_PIDS_AND_KILL,
            lines=2)
        print(f"killed coordinator {pid}: worker, tracker pids {pids}")
        try:
            assert returncode == -signal.SIGKILL
            stranded = our_segments(pid)
            assert stranded, "the killed coordinator should strand segments"
            removed = reap_stale_segments()
            assert set(stranded) <= set(removed)
            assert our_segments(pid) == []
        finally:
            survivors = wait_gone(pids, 3 * _ORPHAN_POLL_SECONDS)
        assert survivors == [], "orphans outlived 3 orphan polls"

    def test_worker_orphaned_before_its_loop_exits(self):
        """Regression: a coordinator killed before its worker got far
        enough to read ``os.getppid()`` left the worker comparing
        against its new parent (the reaper), so it never exited.  The
        slowed attach makes that interleaving certain."""
        prelude = (
            "from repro.shard.codec import SharedSnapshot\n"
            "_attach = SharedSnapshot.attach.__func__\n"
            "SharedSnapshot.attach = classmethod(\n"
            "    lambda cls, name: time.sleep(0.5) or _attach(cls, name))\n"
        )
        pid, returncode, pids = run_coordinator_subprocess(
            _PRINT_PIDS_AND_KILL, prelude=prelude, lines=2)
        try:
            assert returncode == -signal.SIGKILL
        finally:
            survivors = wait_gone(pids, 3 * _ORPHAN_POLL_SECONDS)
            reap_stale_segments()
        assert survivors == [], "orphans outlived 3 orphan polls"
        assert our_segments(pid) == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc to read a worker's mappings")
    def test_worker_maps_only_the_current_segment(self):
        """After four publishes the worker maps, and holds descriptors
        on, the current generation's segment alone.  It used to keep the
        mapping it inherited from the coordinator at its fork, and a
        descriptor on every generation it had attached, past their
        retirement."""
        coordinator = ShardCoordinator(build_router(), workers=1)
        try:
            coordinator.lookup_batch([1, 2, 3])
            for _ in range(4):
                coordinator.publish()
            # The batch queues behind the last attach: once it is
            # answered, the worker has dropped the previous generation.
            coordinator.lookup_batch([1, 2, 3])
            current = {os.path.join(
                SHM_DIR, coordinator._segment_name(coordinator.generation))}
            segments = os.path.join(SHM_DIR, f"{SEGMENT_PREFIX}-")
            pid = coordinator._processes[0].pid
            with open(f"/proc/{pid}/maps") as handle:
                mapped = {line.split(None, 5)[-1].strip() for line in handle
                          if segments in line}
            held = set()
            for fd in os.listdir(f"/proc/{pid}/fd"):
                try:
                    target = os.readlink(f"/proc/{pid}/fd/{fd}")
                except OSError:
                    continue  # closed since the listing
                if target.startswith(segments):
                    held.add(target)
            assert mapped == current
            assert held == current
        finally:
            coordinator.close()

    def test_atexit_cleanup_on_interpreter_exit(self):
        """A coordinator alive at normal interpreter exit is closed by
        the atexit hook — nothing left in /dev/shm."""
        pid, returncode, _pids = run_coordinator_subprocess(
            "pass  # fall off the end: interpreter exit runs atexit")
        assert returncode == 0
        assert our_segments(pid) == []
