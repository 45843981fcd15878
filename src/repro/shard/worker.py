"""``ShardWorker`` — one reader process of the sharded serving plane.

Each worker serves the key slices the coordinator sends it from the
zero-copy batch datapath over one generation's segment.  One duplex pipe
carries every message both ways (no worker id: the pipe names the
sender), and its order is the generation fence from the reader side:

* a worker starts on the generation current at its spawn (passed as
  arguments); every later publish arrives as a ``TASK_ATTACH`` message,
  sent ahead of any batch cut against it (the coordinator publishes
  before it dispatches).  The worker attaches (verifying the segment's
  digests) and acks with ``RESULT_ATTACHED`` before it reads its next
  task — so no batch is ever answered from a generation older than the
  one current at dispatch time;
* then each batch's burst, the words the router patched since its last
  cut, is written into private copies of the tables it touches
  (``BatchLookup.write_burst``) — unless it was cut against an older
  generation, which the attached segment already holds;
* counters (keys served, serve seconds) ride every result message and
  are folded into the ``repro.obs`` registry by the coordinator —
  workers never touch the registry themselves, so the aggregated
  metrics stay single-writer.

A worker that hits an unrecoverable error — an attach failure included
— reports it on its pipe and exits; the coordinator reads EOF there and
respawns it (tests/test_shard.py::test_worker_crash_recovery).  EOF read
by the worker means the coordinator is gone: it exits too.
"""

from __future__ import annotations

import os
import time
from contextlib import suppress
from multiprocessing.connection import Connection
from typing import Optional

from ..core.batch import normalize_keys
from .codec import SharedBatchLookup, SharedSnapshot, SnapshotIntegrityError

#: Task tuples: (kind, *payload).  Results mirror the shape.
TASK_ATTACH = "attach"
TASK_BATCH = "batch"
TASK_STOP = "stop"

RESULT_ATTACHED = "attached"
RESULT_BATCH = "result"
RESULT_ERROR = "error"

#: How long a worker waits on its pipe before checking whether its
#: coordinator is still alive.  A hard-killed coordinator never sends
#: ``TASK_STOP``, and its end of the pipe reads EOF only if no process
#: forked outside ``multiprocessing`` holds a copy; without this poll the
#: worker could wait forever, pinning its inherited file descriptors and
#: shared-memory mappings (the second flavour of stranded resource).
_ORPHAN_POLL_SECONDS = 1.0


class _WorkerRuntime:
    """Per-process serving state: the attached generation and its segment."""

    def __init__(self, pipe: Connection) -> None:
        self.pipe = pipe
        self.segment: Optional[SharedSnapshot] = None
        self.generation = 0

    def attach(self, generation: int, name: str) -> SharedBatchLookup:
        """Serve ``generation`` from segment ``name`` and ack it.

        Returns the lookup serving it.  The segment cannot have been
        retired: the coordinator retires a generation only after every
        live worker acked a newer one.
        """
        segment = SharedSnapshot.attach(name)
        if segment.generation != generation:
            segment.close()
            raise SnapshotIntegrityError(
                f"segment {name} holds generation {segment.generation}, "
                f"not {generation}")
        previous = self.segment
        self.segment = segment
        self.generation = generation
        self.pipe.send((RESULT_ATTACHED, generation))
        if previous is not None:
            # The caller dropped the old lookup's views, so this close
            # releases the old mapping and its descriptor.
            previous.close()
        return segment.to_lookup()

    def close(self) -> None:
        if self.segment is not None:
            self.segment.close()
            self.segment = None


def worker_main(generation: int, segment_name: str, pipe: Connection,
                parent_pid: int) -> int:
    """The worker process entry point (module-level: spawn-safe).

    ``generation`` and ``segment_name`` are the generation current at
    spawn.  ``parent_pid`` is the coordinator's pid as the coordinator
    saw it at spawn time.  Reading ``os.getppid()`` here instead would
    race a coordinator killed before this process got that far: the
    worker would record the reaper's pid and never notice it was
    orphaned.
    """
    runtime = _WorkerRuntime(pipe)
    try:
        lookup = runtime.attach(generation, segment_name)
        while True:
            if not pipe.poll(_ORPHAN_POLL_SECONDS):
                # Coordinator hard-killed (we were re-parented): exit so
                # we do not strand mappings and inherited descriptors.
                if os.getppid() != parent_pid:
                    return 2
                continue
            task = pipe.recv()
            kind = task[0]
            if kind == TASK_STOP:
                return 0
            if kind == TASK_ATTACH:
                del lookup  # the old generation's views pin its segment
                lookup = runtime.attach(task[1], task[2])
                continue
            if kind != TASK_BATCH:
                raise ValueError(f"unknown shard task kind {kind!r}")
            _kind, batch_id, keys, burst = task
            started = time.perf_counter()
            if burst and burst[0] == runtime.generation:
                lookup.write_burst(burst[1])
            # Same normalization as every other batch entry point: a bad
            # key batch must raise a clear ValueError here (reported via
            # RESULT_ERROR) instead of an opaque OverflowError or a 0-d
            # crash deep inside the datapath.
            key_array = normalize_keys(keys, lookup.width)
            answers = lookup.lookup_keys(key_array)
            elapsed = time.perf_counter() - started
            pipe.send((RESULT_BATCH, batch_id, answers, elapsed,
                       len(key_array)))
    except EOFError:
        return 2  # the coordinator is gone
    except KeyboardInterrupt:
        return 130
    except Exception as error:
        # Surface the failure to the coordinator before dying; it owns
        # the respawn decision.  A coordinator that is gone reads none.
        with suppress(OSError):
            pipe.send((RESULT_ERROR, repr(error)))
        return 1
    finally:
        runtime.close()
