"""The three workloads: serving-stack set-up, closed loops, checks, metrics.

Every workload is a closed loop with one client: the next batch (or
update burst) is handed in when the previous call returns.  A *pass*
builds the stack, runs the loop until the timed calls add up to the
requested seconds, checks answers outside the timed calls, and tears
everything down.  An untraced pass yields the end-to-end metrics; a
traced pass also keeps spans around every call the benchmark makes into
a layer and replays inputs through layers that are only reachable inside
another (``core`` under ``serve``), which yields the per-layer metrics.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.batch import BatchLookup
from repro.core.config import ChiselConfig
from repro.core.updates import ANNOUNCE
from repro.replicate import ReplicaHandle, ReplicationCoordinator, bootstrap
from repro.replicate.replica import CMD_PROBE
from repro.router.fib import ForwardingEngine
from repro.serve.snapshot import RecompilePolicy, SnapshotRouter, overlay_mask
from repro.shard import ShardCoordinator
from repro.store import CheckpointPolicy, SnapshotStore, cold_start
from repro.store.store import checkpoint_path

from inputs import WIDTH, Inputs, Oracle, make_inputs, next_hop_for
from tracing import RegistryWindow, Tracer, mean, percentile

READS = ("lookup", "churn")

#: Per-workload load parameters (documented in perfbench/README.md).
CHURN_UPDATES_PER_BATCH = 16
#: lookup's traced pass forces a shard publish every this many batches
#: (about every 2 s), so publish and fence are measured too.
SHARD_PUBLISH_EVERY = 512
REPLICATE_BURST = 256
RESTART_TAIL = 2_000
CHECKPOINT_EVERY = 4_096
STATUS_INTERVAL_S = 0.01
#: The replica's periodic scrub stalls its apply loop for a full table
#: scan (and an interval shorter than the host's uptime fires at once);
#: it is off so the lag measures streaming.
SCRUB_INTERVAL_S = math.inf
#: Keys per batch checked against the oracle, outside the timed calls,
#: and the most batches whose samples wait to be checked together.
CHECKED_KEYS = 16
CHECK_EVERY = 8
#: Update-rate ceilings, two to two and a half times the rates measured on
#: 2 vCPUs: the trace covers the longest window (twice --seconds) at that
#: rate, so it is never cycled.
MAX_UPDATES_PER_S = {"churn": 2_000, "replicate": 2_000}
WAIT_S = 30.0
#: Registry counters of waste and repair that a steady closed loop never
#: moves: any rise across the window counts as a failed operation.
FAULT_COUNTERS = (
    "shard_publish_discards_total", "shard_worker_respawns_total",
    "shard_fence_timeouts_total", "repl_recon_sessions_total",
    "repl_resyncs_total",
)
#: The tail metric; p99 did not repeat across 10 s runs (README.md).
TAIL = 90
#: The gated fast end of the call latencies.  The host runs a call at two
#: speeds, fast while its other tenants leave the core alone and ~1.5x
#: slower while they run, and the share of fast calls swings from run to
#: run; p1 sits in the fast speed and p90 in the slow one, while the median
#: jumps between them (README.md, "Run-to-run noise").
FAST = 1

_GENERIC = ("setup_s", "ops_per_s", "call_p1_us", "call_p90_us")
_FOOTPRINT = ("peak_rss_mb", "storage_bits_per_route", "error_rate")
_BATCHES = ("lookup_mkeys_per_s", "batch_p50_us", "batch_p90_us")
_UPDATES = ("update_p50_us", "update_p90_us")
#: The end-to-end metrics each workload measures; the rest read 0 there.
APPLIES = {
    "lookup": _GENERIC + _BATCHES + _FOOTPRINT,
    "churn": _GENERIC + _BATCHES + _UPDATES + ("restart_s",) + _FOOTPRINT,
    "replicate": _GENERIC + _UPDATES + (
        "update_per_s", "replica_lag_p50_ms", "replica_lag_p90_ms")
    + _FOOTPRINT,
}


def trace_length(workload: str, seconds: float) -> int:
    """Updates to generate so the longest plausible run never cycles."""
    if workload not in MAX_UPDATES_PER_S:
        return 0
    tail = RESTART_TAIL if workload == "churn" else REPLICATE_BURST
    return int(MAX_UPDATES_PER_S[workload] * 2 * seconds) + tail


def inputs_for(workload: str, seed: int, seconds: float) -> Inputs:
    return make_inputs(seed, skewed=workload == "lookup",
                       updates=trace_length(workload, seconds))


@contextmanager
def span(tracer: Optional[Tracer], name: str, op: int = 0):
    if tracer is None:
        yield
        return
    index = tracer.open(name, op)
    try:
        yield
    finally:
        tracer.close(index)


def traced_journal(router: SnapshotRouter, tracer: Tracer, name: str) -> None:
    """Wrap the router's installed journal hook in a span."""
    inner = router.journal

    def hook(*record) -> None:
        index = tracer.open(name)
        try:
            inner(*record)
        finally:
            tracer.close(index)

    router.set_journal(hook)


class SnapshotTap:
    """The ``BatchLookup`` the router serves from, for core replays.

    Wraps ``SnapshotRouter.recompile`` through its public hooks, so every
    swap (inline recompile or shard publish) hands over the compiled
    snapshot; the first one is compiled here from the unchanged engine.
    """

    def __init__(self, router: SnapshotRouter) -> None:
        self.snapshot = BatchLookup(router.fib.engine)
        original = router.recompile

        def recompile(post_compile=None, commit=None, discard=None):
            def on_commit(snapshot, extra):
                self.snapshot = snapshot
                if commit is not None:
                    commit(snapshot, extra)

            return original(post_compile=post_compile, commit=on_commit,
                            discard=discard)

        router.recompile = recompile


class Stack:
    """The serving stack of one pass; ``close`` stops all of it."""

    def __init__(self) -> None:
        self.router: Optional[SnapshotRouter] = None
        self.store: Optional[SnapshotStore] = None
        self.mapping = None  # the checkpoint a cold start serves from
        self.shard: Optional[ShardCoordinator] = None
        self.replication: Optional[ReplicationCoordinator] = None
        self.replica: Optional[ReplicaHandle] = None
        self.directory = ""

    def close(self) -> None:
        """Stop replica, coordinators and store, then remove the files.

        Every step runs even when an earlier one fails; the first error
        is raised at the end.
        """
        steps = (
            self.replica and self.replica.stop,
            self.replication and self.replication.stop,
            self.shard and self.shard.close,
            self.store and self.store.close,
            self.mapping and self.mapping.close,
            self.directory and (lambda: shutil.rmtree(self.directory)),
        )
        errors = []
        for step in steps:
            if step:
                try:
                    step()
                except Exception as error:
                    errors.append(error)
        self.__init__()
        if errors:
            raise errors[0]


def build(workload: str, inputs: Inputs, scratch: str,
          tracer: Optional[Tracer]) -> Stack:
    """Set up the workload's stack; the caller times this call."""
    stack = Stack()
    try:
        _build(stack, workload, inputs, scratch, tracer)
    except BaseException:
        stack.close()
        raise
    return stack


def _build(stack: Stack, workload: str, inputs: Inputs, scratch: str,
           tracer: Optional[Tracer]) -> None:
    config = ChiselConfig(width=WIDTH)
    ledger = None
    with span(tracer, "setup.fib"):
        if workload == "replicate":
            fib, ledger = bootstrap(inputs.table, config)
        else:
            fib = ForwardingEngine.from_table(inputs.table, config=config)
    with span(tracer, "setup.router"):
        stack.router = SnapshotRouter(fib, policy=RecompilePolicy())
    if workload in ("churn", "replicate"):
        stack.directory = tempfile.mkdtemp(prefix="stack-", dir=scratch)
    if workload == "replicate":
        # The replica boots on the other core while the store writes
        # its first checkpoint; it is forked before any thread starts.
        with span(tracer, "setup.replica_spawn"):
            stack.replication = ReplicationCoordinator(stack.router, ledger,
                                                       config)
            port = stack.replication.listen()
            stack.replica = ReplicaHandle(
                0, port, inputs.table, config,
                os.path.join(stack.directory, "replica"),
                STATUS_INTERVAL_S, SCRUB_INTERVAL_S)
            stack.replica.spawn()
    if stack.directory:
        with span(tracer, "setup.store"):
            stack.store = SnapshotStore.create(
                os.path.join(stack.directory, "store"), stack.router,
                policy=CheckpointPolicy(every_records=CHECKPOINT_EVERY),
                sync=True)
        if tracer is not None:
            traced_journal(stack.router, tracer, "store.append")
    if workload == "replicate":
        with span(tracer, "setup.replica_connect"):
            _connect_replica(stack, tracer)
    if workload in READS:
        with span(tracer, "setup.warmup"):
            stack.router.lookup_batch(next(inputs.keys))


def _connect_replica(stack: Stack, tracer: Optional[Tracer]) -> None:
    """Start streaming and wait until the replica's session is open."""
    stack.replication.start()
    if tracer is not None:
        traced_journal(stack.router, tracer, "replicate.hook")
    deadline = time.monotonic() + 2 * WAIT_S
    while stack.replication.status()["connected"] < 1:
        if time.monotonic() > deadline:
            raise TimeoutError("replica did not connect within "
                               f"{2 * WAIT_S:.0f}s")
        if not stack.replica.process.is_alive():
            raise RuntimeError("replica process died during boot")
        time.sleep(0.005)


def apply_update(router: SnapshotRouter, op) -> None:
    if op.op == ANNOUNCE:
        router.announce(op.prefix, *next_hop_for(op))
    else:
        router.withdraw(op.prefix)


class Pass:
    """One pass of a workload: a stack, its closed loop, its samples."""

    def __init__(self, workload: str, inputs: Inputs, scratch: str,
                 seconds: float, tracer: Optional[Tracer]) -> None:
        self.workload = workload
        self.inputs = inputs
        self.scratch = scratch
        self.seconds = seconds
        self.tracer = tracer
        self.tap: Optional[SnapshotTap] = None
        self.oracle = Oracle(inputs.table)
        self.position = 0
        self.setup_s: List[float] = []
        self.batch_s: List[float] = []
        self.update_s: List[float] = []
        self.lag_s: List[float] = []
        self.keys = 0
        self.window = 0.0
        self.confirmed = 0
        self.burst_wall = 0.0
        self.restart_s = 0.0
        self.storage_bits_per_route = 0.0
        self.attempted = 0
        self.failures: List[str] = []
        self._unchecked: List[tuple] = []
        self.samples: Dict[str, List[float]] = {}
        self.replay_s = 0.0
        self.checkpoint_bytes = 0
        self.traffic_bytes = 0
        self.registry: Optional[RegistryWindow] = None

    # -- bookkeeping ---------------------------------------------------------

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def note(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def timed(self, name: str, call: Callable, *args, op: int = 0):
        """One timed call into the stack; its time counts in the window."""
        index = self.tracer.open(name, op) if self.tracer else -1
        started = time.perf_counter()
        try:
            result = call(*args)
        finally:
            elapsed = time.perf_counter() - started
            if self.tracer:
                self.tracer.close(index)
        self.window += elapsed
        return result, elapsed, index

    def next_updates(self, count: int):
        ops = self.inputs.take(self.position, count)
        self.position += count
        return ops

    def update(self, stack: Stack, op) -> None:
        self._verify(stack)
        self.attempted += 1
        _result, elapsed, _index = self.timed(
            "serve.update", apply_update, stack.router, op, op=self.position)
        self.update_s.append(elapsed)

    # -- set-up --------------------------------------------------------------

    def setup(self, repeats: int) -> Stack:
        """Set up ``repeats`` times; keep the last stack, time them all."""
        stack = None
        for attempt in range(repeats):
            gc.collect()
            keep = attempt == repeats - 1
            tracer = self.tracer if keep else None
            started = time.perf_counter()
            stack = build(self.workload, self.inputs, self.scratch, tracer)
            self.setup_s.append(time.perf_counter() - started)
            if not keep:
                stack.close()
                stack = None
        return stack

    # -- the loops -----------------------------------------------------------

    def run(self, repeats: int) -> None:
        stack = self.setup(repeats)
        try:
            if self.tracer is not None:
                self.tap = SnapshotTap(stack.router)
                if self.workload == "lookup":
                    # The shard layer's only measurement: lookup's batches
                    # replayed through one worker over the same router.
                    stack.shard = ShardCoordinator(
                        stack.router, workers=1, batch_timeout=WAIT_S,
                        ack_timeout=WAIT_S)
            gc.collect()
            self.registry = RegistryWindow()
            deadline = time.monotonic() + 4 * self.seconds + WAIT_S
            loop = getattr(self, f"_loop_{self.workload}")
            loop(stack, deadline)
            self.registry.close()
            self._verify(stack)
            for name in FAULT_COUNTERS:
                if self.registry.counter(name):
                    self.fail(f"{name} rose by {self.registry.counter(name):g}"
                              " during the window")
            router = stack.router
            self.storage_bits_per_route = (
                router.fib.engine.total_storage_bits() / len(router.fib))
            if self.workload == "churn":
                self._restart(stack)
            if self.workload == "replicate":
                self._check_replica(stack)
        finally:
            self.tap = None
            stack.close()

    def _batch(self, stack: Stack, keys: np.ndarray, number: int) -> None:
        """One batch call, its replays when traced, and its check."""
        self.attempted += 1
        answers, elapsed, index = self.timed(
            "serve.lookup_batch", stack.router.lookup_batch, keys, op=number)
        self.batch_s.append(elapsed)
        self.keys += len(keys)
        if self.tracer is not None:
            self._replay(stack, keys, index, number)
            if stack.shard is not None:
                self._replay_shard(stack, keys, answers, number)
        self._sample(stack, keys, answers)

    def _loop_lookup(self, stack: Stack, deadline: float) -> None:
        number = 0
        while not self._done(True, deadline):
            number += 1
            self._batch(stack, next(self.inputs.keys), number)

    def _done(self, boundary: bool, deadline: float) -> bool:
        """End the window on a boundary of the workload's periodic event.

        Checkpoints are long and rare, so a window cut between two of them
        would count one more or one less depending on speed; ending right
        after one keeps whole periods.
        """
        if time.monotonic() > deadline or self.window >= 2 * self.seconds:
            return True
        return boundary and self.window >= self.seconds

    def _loop_churn(self, stack: Stack, deadline: float) -> None:
        number, checkpointed = 0, False
        while not self._done(checkpointed, deadline):
            number += 1
            for op in self.next_updates(CHURN_UPDATES_PER_BATCH):
                self.update(stack, op)
                self.oracle.apply(op)
            self._batch(stack, next(self.inputs.keys), number)
            fired, elapsed, _ = self.timed("serve.maybe_recompile",
                                           stack.router.maybe_recompile)
            if fired:
                self.note("serve.recompile_s", elapsed)
            checkpointed, elapsed, _ = self.timed(
                "store.maybe_checkpoint", stack.store.maybe_checkpoint)
            if checkpointed:
                self.note("store.checkpoint_s", elapsed)

    def _loop_replicate(self, stack: Stack, deadline: float) -> None:
        replication = stack.replication
        self.traffic_bytes = -_traffic(replication)
        while self.burst_wall < self.seconds and time.monotonic() < deadline:
            ops = self.next_updates(REPLICATE_BURST)
            started = time.perf_counter()
            for op in ops:
                self.update(stack, op)
            ended = time.perf_counter()
            last = replication.seq
            self.attempted += 1
            seen = self._await_status(stack, last, ended + WAIT_S)
            if seen is None:
                self.fail(f"replica STATUS at seq {last} not seen "
                          f"within {WAIT_S:.0f}s")
                break
            self.lag_s.append(seen - ended)
            self.burst_wall += seen - started
            self.confirmed += len(ops)
            for op in ops:
                self.oracle.apply(op)
        self.traffic_bytes += _traffic(replication)

    @staticmethod
    def _await_status(stack: Stack, seq: int,
                      deadline: float) -> Optional[float]:
        """When the writer saw the replica's STATUS reach ``seq``."""
        while time.perf_counter() < deadline:
            session = stack.replication.status()["sessions"].get(0)
            if session and (session["last_status_seq"] or 0) >= seq:
                return time.perf_counter()
            if not stack.replica.process.is_alive():
                return None
            time.sleep(0.001)
        return None

    # -- replays (traced pass) -----------------------------------------------

    def _replay(self, stack: Stack, keys: np.ndarray, parent: int,
                number: int) -> None:
        """Re-run the batch through the layers inside the parent call."""
        tracer, snapshot = self.tracer, self.tap.snapshot
        started = time.perf_counter()
        snapshot.lookup_batch(keys)
        tracer.add("core.batch", started, time.perf_counter(), parent, number)
        started = time.perf_counter()
        snapshot.lookup_batch(keys[:16])
        tracer.add("core.call", started, time.perf_counter(), -1, number)
        router = stack.router
        overlay = router.overlay_arrays()
        self.note("serve.overlay_prefixes", router.overlay_size)
        self.note("serve.overlay_lengths", len(overlay))
        covered = np.empty(0, dtype=np.int64)
        if overlay:
            started = time.perf_counter()
            mask = overlay_mask(keys, overlay, router.width)
            tracer.add("serve.overlay_mask", started, time.perf_counter(),
                       parent, number)
            covered = np.flatnonzero(mask)
        self.note("serve.overlay_keys", len(covered))
        if len(covered):
            lookup = router.fib.engine.lookup
            started = time.perf_counter()
            for position in covered:
                lookup(int(keys[position]))
            tracer.add("serve.reanswer", started, time.perf_counter(),
                       parent, number, items=len(covered))

    def _replay_shard(self, stack: Stack, keys: np.ndarray,
                      answers: np.ndarray, number: int) -> None:
        """The same batch through the shard plane, which must agree.

        The router is read-only here, so a publish never falls due; one is
        forced every ``SHARD_PUBLISH_EVERY`` batches to time compile,
        export and fence.
        """
        tracer = self.tracer
        index = tracer.open("shard.lookup_batch", number)
        try:
            sharded = stack.shard.lookup_batch(keys)
        finally:
            tracer.close(index)
        if not np.array_equal(sharded, answers):
            self.fail("shard answers differ from the in-process router")
        if number % SHARD_PUBLISH_EVERY == 0:
            with span(tracer, "shard.publish", number):
                stack.shard.publish()

    # -- correctness (outside the timed calls) -------------------------------

    def _sample(self, stack: Stack, keys: np.ndarray,
                answers: np.ndarray) -> None:
        """Keep a sample of a batch's answers for the next ``_verify``."""
        picks = self.inputs.sample.integers(0, len(keys), CHECKED_KEYS)
        self._unchecked.append((keys[picks], answers[picks]))
        if len(self._unchecked) >= CHECK_EVERY:
            self._verify(stack)

    def _verify(self, stack: Stack) -> None:
        """Check the samples taken since the last route change.

        Runs before every update, so the trie, the router and its next-hop
        table are in the state the sampled batches were answered in; the
        check work is gathered so the loop's next call follows at once.
        """
        if not self._unchecked:
            return
        keys = np.concatenate([k for k, _answers in self._unchecked])
        answers = np.concatenate([a for _keys, a in self._unchecked])
        self._unchecked = []
        resolve = stack.router.fib.next_hops.resolve
        for key, answer in zip(keys.tolist(), answers.tolist()):
            info = resolve(answer) if answer >= 0 else None
            got = None if info is None else (info.gateway, info.interface)
            want = self.oracle.lookup(key)
            if got != want:
                self.fail(f"key {key:#010x}: served {got}, trie says {want}")
                return

    def _restart(self, stack: Stack) -> None:
        """Forced checkpoint, a fixed tail, then ``cold_start``."""
        router, store = stack.router, stack.store
        store.checkpoint()
        self.checkpoint_bytes = os.path.getsize(
            checkpoint_path(store.directory, store.generation))
        for op in self.next_updates(RESTART_TAIL):
            apply_update(router, op)
            self.oracle.apply(op)
        probe = next(self.inputs.keys)
        before = router.lookup_batch(probe)
        self.attempted += RESTART_TAIL + 2
        self._sample(stack, probe, before)
        self._verify(stack)
        resolve = router.fib.next_hops.resolve
        before_hops = [resolve(int(a)) if a >= 0 else None for a in before]
        directory = store.directory
        store.close()
        stack.router = stack.store = self.tap = None
        del router, store, resolve
        gc.collect()
        started = time.perf_counter()
        boot = cold_start(directory)
        stack.store, stack.mapping = boot.store, boot.checkpoint
        answers = boot.router.lookup_batch(probe)
        self.restart_s = time.perf_counter() - started
        self.replay_s = boot.report.replay_seconds
        resolve = boot.router.fib.next_hops.resolve
        after_hops = [resolve(int(a)) if a >= 0 else None for a in answers]
        if after_hops != before_hops:
            diverged = sum(a != b for a, b in zip(after_hops, before_hops))
            self.fail(f"restart: {diverged} answers differ from before")

    def _check_replica(self, stack: Stack) -> None:
        """Replica probe answers and ledger checksum against the writer."""
        self.attempted += 1
        rng = self.inputs.sample
        keys = [int(k) for k in rng.integers(0, 1 << WIDTH, 512)]
        entries = stack.replication.ledger.sorted_entries()
        for index in rng.integers(0, len(entries), 512):
            entry = entries[int(index)]
            host = WIDTH - entry.length
            keys.append((entry.value << host)
                        | int(rng.integers(0, 1 << host)) if host else
                        entry.value)
        writer = []
        for key in keys:
            info = stack.router.fib.forward(key)
            writer.append(None if info is None
                          else (info.gateway, info.interface))
        wrong = sum(got != self.oracle.lookup(key)
                    for key, got in zip(keys, writer))
        if wrong:
            self.fail(f"writer: {wrong}/{len(keys)} probes differ from trie")
        replica = stack.replica.command(CMD_PROBE, keys, timeout=WAIT_S)[2]
        theirs = [None if a is None else tuple(a) for a in replica]
        diverged = sum(a != b for a, b in zip(writer, theirs))
        if diverged:
            self.fail(f"replica: {diverged}/{len(keys)} probes differ")
        status = stack.replica.status()
        if (status["seq"], status["checksum"]) != (
                stack.replication.seq, stack.replication.ledger.checksum):
            self.fail("replica ledger seq/checksum differ from the writer")

    # -- metrics -------------------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        """Every end-to-end metric; 0.0 where the workload has none."""
        reads = self.workload in READS
        calls = self.batch_s if reads else self.update_s
        rate = (self.keys / self.window if reads else
                self.confirmed / self.burst_wall if self.burst_wall else 0.0)
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "setup_s": statistics.median(self.setup_s),
            "ops_per_s": rate,
            "call_p1_us": percentile(calls, FAST) * 1e6,
            "call_p90_us": percentile(calls, TAIL) * 1e6,
            "peak_rss_mb": usage / 1024.0,
            "storage_bits_per_route": self.storage_bits_per_route,
            "lookup_mkeys_per_s": rate / 1e6 if reads else 0.0,
            "batch_p50_us": percentile(self.batch_s, 50) * 1e6,
            "batch_p90_us": percentile(self.batch_s, TAIL) * 1e6,
            "update_p50_us": percentile(self.update_s, 50) * 1e6,
            "update_p90_us": percentile(self.update_s, TAIL) * 1e6,
            "update_per_s": 0.0 if reads else rate,
            "replica_lag_p50_ms": percentile(self.lag_s, 50) * 1e3,
            "replica_lag_p90_ms": percentile(self.lag_s, TAIL) * 1e3,
            "restart_s": self.restart_s,
            "error_rate": len(self.failures) / max(self.attempted, 1),
        }

    def per_layer(self) -> Dict[str, float]:
        """Per-layer metrics from the traced pass's spans and registry."""
        tracer, reg = self.tracer, self.registry
        samples = self.samples
        batches = max(len(self.batch_s), 1)
        updates = max(len(self.update_s), 1)
        reanswered = sum(tracer.items("serve.reanswer"))
        served = tracer.durations("serve.lookup_batch")
        shard_calls = tracer.durations("shard.lookup_batch")
        worker_s = reg.hist_mean("shard_worker_batch_seconds")
        return {
            "core.batch_us": mean(tracer.durations("core.batch")) * 1e6,
            "core.call_us": mean(tracer.durations("core.call")) * 1e6,
            "core.scalar_us": (sum(tracer.durations("serve.reanswer"))
                               / reanswered * 1e6 if reanswered else 0.0),
            "core.compile_ms": reg.hist_mean(
                "serve_recompile_compile_seconds") * 1e3,
            "serve.self_us": (mean(served) - (
                tracer.child_total("serve.lookup_batch", "core.batch")
                + tracer.child_total("serve.lookup_batch", "serve.overlay_mask")
                + tracer.child_total("serve.lookup_batch", "serve.reanswer"))
                / max(len(served), 1)) * 1e6 if served else 0.0,
            "serve.overlay_mask_us": sum(tracer.durations(
                "serve.overlay_mask")) / batches * 1e6,
            "serve.overlay_prefixes": mean(samples.get(
                "serve.overlay_prefixes", [])),
            "serve.overlay_lengths": mean(samples.get(
                "serve.overlay_lengths", [])),
            "serve.overlay_keys": mean(samples.get("serve.overlay_keys", [])),
            "serve.reanswer_us": sum(tracer.durations(
                "serve.reanswer")) / batches * 1e6,
            "serve.recompile_ms": mean(samples.get(
                "serve.recompile_s", [])) * 1e3,
            "serve.recompiles": len(samples.get("serve.recompile_s", [])),
            "serve.recompile_retries": reg.counter(
                "serve_recompile_retries_total"),
            "serve.lock_hold_p99_us": reg.hist_quantile(
                "serve_lock_hold_seconds", 0.99) * 1e6,
            "serve.update_self_us": mean(tracer.self_times(
                "serve.update")) * 1e6,
            "serve.batch_p99_us": percentile(served, 99) * 1e6,
            "store.append_us": mean(tracer.durations("store.append")) * 1e6,
            "store.checkpoint_ms": mean(samples.get(
                "store.checkpoint_s", [])) * 1e3,
            "store.checkpoints": len(samples.get("store.checkpoint_s", [])),
            "store.checkpoint_mb": self.checkpoint_bytes / 1e6,
            "store.replay_s": self.replay_s,
            "shard.worker_us": worker_s * 1e6,
            "shard.ipc_us": (mean(shard_calls) - worker_s) * 1e6
            if shard_calls else 0.0,
            "shard.overlay_patched": reg.counter(
                "shard_overlay_patched_total") / batches,
            "shard.publish_ms": mean(tracer.durations("shard.publish")) * 1e3,
            "shard.publishes": len(tracer.durations("shard.publish")),
            "shard.publish_discards": reg.counter(
                "shard_publish_discards_total"),
            "shard.respawns": reg.counter("shard_worker_respawns_total"),
            "shard.fence_timeouts": reg.counter("shard_fence_timeouts_total"),
            "replicate.hook_us": mean(tracer.self_times(
                "replicate.hook")) * 1e6,
            "replicate.bytes_per_update": self.traffic_bytes / updates,
            "replicate.recons": reg.counter("repl_recon_sessions_total"),
            "replicate.resyncs": reg.counter("repl_resyncs_total"),
        }


def _traffic(replication: ReplicationCoordinator) -> int:
    traffic = replication.traffic()
    return traffic["bytes_sent"] + traffic["bytes_received"]
