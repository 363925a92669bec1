"""The batching scheduler: coalesces concurrent queries, streams results.

Clients hand queries to :meth:`BatchScheduler.submit` and get a
:class:`ResultStream` back immediately.  A dedicated *collector* thread pops
the first pending query, keeps collecting arrivals for up to
``TasmConfig.service_batch_window_ms`` (or until ``service_max_batch``
queries are pending), then hands the whole group to a pool of *batch runner*
threads (``TasmConfig.service_runners``) that drive ``TASM.execute_batch`` —
so concurrent clients asking about overlapping sequences of tiles share
decodes instead of thrashing the cache with interleaved misses, and the
collector is already forming the next batch while runners execute earlier
ones.  A window of 0 still coalesces whatever is already queued when a batch
forms, which is what a saturated server wants.

Admission control: pending queries are kept per client and drained
round-robin into each batch, so a greedy client that queues a hundred
queries cannot fill every batch — every waiting client gets a slot in the
next batch before any client gets a second one.  Spare batch capacity is
still work-conserving (a lone client may fill a whole batch).

Streaming and backpressure: the executor's observer hook fires per SOT, and
the runner forwards each event into the owning query's stream.  A stream
buffers at most ``TasmConfig.service_stream_buffer_chunks`` undelivered
chunks; a producer pushing into a full buffer *suspends* until the consumer
drains it, so a slow client bounds the server's memory instead of growing an
unbounded queue.  Terminal state (result or error) is stored on the stream
itself rather than as a queue sentinel, so iterating a failed stream twice
raises twice instead of blocking forever.

Fault tolerance (PR 8) threads through every stage:

* **Deadlines** — ``submit(deadline_ms=...)`` stamps the stream; expired
  queries are dropped while still pending, and mid-batch the executor's
  cancelled-probe doubles as a deadline probe so an expired query stops
  costing decodes within ~one SOT and fails with
  :class:`~repro.errors.DeadlineExceeded`.
* **Load shedding** — ``submit`` fast-fails with
  :class:`~repro.errors.ServerBusy` above ``service_max_queue_depth``, and a
  :class:`~repro.service.shedding.QueueWaitBreaker` (fed by the queue-wait
  histogram) sheds the lowest-priority, newest pending queries when the
  recent queue-wait p95 crosses ``service_shed_queue_wait_ms``.
* **Runner supervision** — a supervisor thread replaces crashed batch-runner
  threads and recovers their orphaned batch: unaffected queries are requeued
  at the *front* of their client's bucket (deadlines still honoured) and
  resume skipping SOTs already delivered, so their bytes stay identical; a
  query that has killed ``service_poison_query_kills`` runners is
  quarantined with :class:`~repro.errors.PoisonQueryError` instead of being
  allowed to take the pool down serially.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence

from ..core.query import Query
from ..core.scan import ScanRegion, ScanResult
from ..errors import (
    DeadlineExceeded,
    PoisonQueryError,
    ServerBusy,
    ServiceError,
    StreamCancelledError,
    stream_error,
)
from ..exec.engine import BatchResult, PartialResult, QueryDone
from ..faults.plan import FAULT_RUNNER_DEATH, InjectedRunnerDeath
from ..obs import DISABLED, Observability
from ..obs.trace import NULL_TRACE
from ..video.codec import DecodeStats
from .shedding import QueueWaitBreaker

__all__ = ["BatchScheduler", "ResultStream", "StreamChunk"]


class StreamChunk(NamedTuple):
    """One SOT's worth of a query's results, delivered incrementally.

    Every stream yields these — in process, over the socket, and through the
    cluster router — so ``for sot_index, regions in stream`` and
    ``chunk.regions`` work on each of them.
    """

    sot_index: int
    regions: Sequence[ScanRegion]


class ResultStream:
    """A handle to one submitted query: iterate chunks, or block for the result.

    Iterating yields :class:`StreamChunk` objects as the server serves each
    SOT (ending when the query completes); :meth:`result` blocks until the
    final :class:`~repro.core.scan.ScanResult` is ready.  If the batch the
    query rode in failed, both raise :class:`ServiceError` (preserving the
    failure's subclass — ``DeadlineExceeded``, ``ServerBusy``, ... — so
    callers can branch on the outcome) — and keep raising on every later
    attempt, because the terminal state lives on the stream rather than in
    the chunk buffer.

    ``buffer_chunks`` bounds the undelivered chunks held for a slow consumer;
    a producer pushing into a full buffer suspends until the consumer drains
    it (0 = unbounded, never suspend).  On a bounded stream, ``result()``
    discards buffered chunks while it waits — the final ``ScanResult`` carries
    every region regardless — so a caller that never iterates cannot deadlock
    the producer against its own stream.  Mixing iteration and ``result()``
    from different threads on one bounded stream is therefore racy for the
    iterator; consume a stream from one thread.
    """

    def __init__(
        self,
        query: Query,
        buffer_chunks: int = 0,
        deadline_ms: float | None = None,
        priority: int = 0,
        skip_sots: Iterable[int] | None = None,
    ):
        self.query = query
        self.submitted_at = time.perf_counter()
        #: The query's observability trace (``repro.obs``): the scheduler
        #: installs a live one at submit when observability is enabled; the
        #: shared null trace otherwise, so span recording never branches.
        self.trace = NULL_TRACE
        #: Deadline, as submitted (milliseconds) and as a monotonic instant;
        #: ``None`` (or a non-positive ``deadline_ms``) means no deadline.
        self.deadline_ms = deadline_ms if deadline_ms and deadline_ms > 0 else None
        self.deadline_at = (
            None
            if self.deadline_ms is None
            else time.monotonic() + self.deadline_ms / 1000.0
        )
        #: Shedding rank: the breaker sheds *lower* priorities first, so a
        #: higher number asks to survive overload longer.  Ties shed newest
        #: first (queries near the front keep their sunk queue time).
        self.priority = priority
        #: SOT indices the submitter already holds (a reconnecting remote
        #: client resuming an interrupted scan); the executor never serves
        #: them again, keeping the delivered byte stream identical.
        self.skip_sots: frozenset[int] = frozenset(skip_sots or ())
        #: Guard making the cancelled-query counter exactly-once per stream,
        #: whichever path (pending drop, mid-batch skip, failed-batch sweep)
        #: notices the cancellation first.  Written under the scheduler's
        #: counter lock.
        self._cancel_counted = False
        #: Guard so a query retried as a singleton after a batch failure does
        #: not record a second queue-wait span/observation.  Touched only by
        #: the runner thread executing the stream's batch.
        self._queue_span_recorded = False
        #: Set (producer-side) when the first chunk was pushed; None until then.
        self.first_chunk_at: float | None = None
        self.completed_at: float | None = None
        self._capacity = buffer_chunks
        self._buffer: deque[StreamChunk] = deque()
        self._cond = threading.Condition()
        self._done = threading.Event()
        self._result: ScanResult | None = None
        self._error: BaseException | None = None
        #: True once the consumer abandoned the stream via :meth:`close` (as
        #: opposed to failing by shutdown or a batch error) — the scheduler
        #: reads it to skip the query's remaining work and count the cancel.
        self._closed_by_consumer = False
        #: Liveness probe installed by the scheduler at submit: waiters poll
        #: it so a crashed runner pool fails them loudly instead of hanging.
        self._liveness: Callable[[], bool] | None = None
        #: The submitter's fairness key, kept so a supervisor recovering this
        #: stream from a crashed runner can requeue it in the right bucket.
        self._client: Hashable = None
        #: SOT indices whose chunk this stream actually buffered, and the
        #: regions those chunks carried — the resume bookkeeping.  Appended
        #: by the producing runner; read when the stream re-enters a batch
        #: (never concurrently with a producer — a stream rides one batch at
        #: a time).
        self._delivered_sots: set[int] = set()
        self._served_regions: list[ScanRegion] = []
        #: Regions served by earlier (crashed or failed) runs of this query,
        #: captured at requeue; ``_finish`` prepends them so the final
        #: ``ScanResult`` carries every region despite the interruption.
        self._prior_regions: list[ScanRegion] = []
        #: Batch runners this query's execution has killed (supervision).
        self._runner_kills = 0

    # ------------------------------------------------------------------
    # Producer side (batch runner threads)
    # ------------------------------------------------------------------
    def _push_chunk(self, chunk: StreamChunk) -> None:
        """Buffer one chunk, suspending while a bounded buffer is full.

        A stream that reached terminal state (failed by shutdown or
        abandoned by a disconnected client) silently drops the chunk so the
        producing batch is never wedged on a consumer that will not return.
        """
        with self._cond:
            while (
                self._capacity
                and len(self._buffer) >= self._capacity
                and not self._done.is_set()
            ):
                self._cond.wait()
            if self._done.is_set():
                return
            if self.first_chunk_at is None:
                self.first_chunk_at = time.perf_counter()
            self._buffer.append(chunk)
            self._delivered_sots.add(chunk.sot_index)
            self._served_regions.extend(chunk.regions)
            self._cond.notify_all()

    def _finish(self, result: ScanResult) -> None:
        with self._cond:
            if self._done.is_set():
                return  # already failed (shutdown / disconnect); first wins
            if self._prior_regions:
                # A resumed run only re-served the SOTs the interruption cut
                # off; splice the earlier runs' regions back in front.  SOTs
                # serve in ascending order, so prior ∥ resumed is the same
                # order an uninterrupted run would have produced.
                result.regions[:0] = self._prior_regions
            self._result = result
            self.completed_at = time.perf_counter()
            self._done.set()
            self._cond.notify_all()

    def _fail(self, error: BaseException) -> bool:
        """Move to the failed terminal state; True if this call did it."""
        with self._cond:
            if self._done.is_set():
                return False
            self._error = error
            self.completed_at = time.perf_counter()
            self._done.set()
            # Wakes consumers *and* any producer suspended on a full buffer
            # (it re-checks the terminal flag and drops its chunk).
            self._cond.notify_all()
            return True

    def expired(self) -> bool:
        """True once this stream's deadline (if any) has elapsed."""
        return self.deadline_at is not None and time.monotonic() >= self.deadline_at

    def _sots_to_skip(self) -> frozenset[int] | None:
        """SOT indices a (re)execution of this query must not serve again."""
        if self.skip_sots or self._delivered_sots:
            return self.skip_sots | self._delivered_sots
        return None

    # ------------------------------------------------------------------
    # Consumer side (client thread)
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Abandon the stream: the consumer will not read further.

        Releases a producer suspended on this stream's full buffer (its later
        pushes are dropped) so walking away from a partially consumed bounded
        stream can never wedge the batch runner producing it, and marks the
        query cancelled — the scheduler skips its remaining per-SOT work
        (pending queries are dropped before ever entering a batch) so an
        abandoned scan frees runner time instead of decoding for nobody.  A
        stream whose query already completed is unaffected; an abandoned one
        raises :class:`ServiceError` from ``result()``.  Always call this (or
        drain the stream) when breaking out of iteration early.
        """
        if self._fail(StreamCancelledError("stream closed by its consumer")):
            self._closed_by_consumer = True

    def _starved_stage(self) -> str:
        """Which pipeline stage a timed-out waiter is starved in.

        Built from the stream's own progress markers (and trace spans when
        observability is on), so a ``result(timeout=...)`` failure says
        *where* the query is stuck — still queued, executing but yet to
        serve, or mid-serve — instead of just that it is late.
        """
        if not self._queue_span_recorded and self.first_chunk_at is None:
            return "starved in queue: the query never entered a batch"
        served = len(self._delivered_sots)
        if served:
            return (
                f"starved in execute: its batch has served {served} SOT "
                "chunk(s) but has not finished"
            )
        return "starved in execute: its batch started but has served nothing"

    def __iter__(self) -> Iterator[StreamChunk]:
        while True:
            with self._cond:
                while not self._buffer and not self._done.is_set():
                    self._cond.wait(_LIVENESS_TICK_SECONDS)
                    self._check_liveness()
                if self._buffer:
                    chunk = self._buffer.popleft()
                    self._cond.notify_all()  # free a suspended producer
                else:
                    if self._error is not None:
                        raise stream_error(
                            self._error, "query failed in its batch"
                        ) from self._error
                    return
            yield chunk

    def result(self, timeout: float | None = None) -> ScanResult:
        """Block until the query completes; the full, in-order ScanResult.

        Waiters poll the scheduler's liveness between wakeups: if the threads
        that would complete this query are gone (a crashed runner pool, a
        scheduler torn down without failing its streams), ``result()`` raises
        :class:`ServiceError` promptly — even with ``timeout=None`` — instead
        of blocking on a completion that can never arrive.  A timeout's
        message names the stage the query starved in (queue vs execute).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._done.is_set():
                if self._capacity and self._buffer:
                    # Keep a suspended producer moving: the chunks duplicate
                    # regions the final ScanResult will carry anyway.
                    self._buffer.clear()
                    self._cond.notify_all()
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise ServiceError(
                        f"query did not complete within {timeout} seconds "
                        f"({self._starved_stage()})"
                    )
                tick = (
                    _LIVENESS_TICK_SECONDS
                    if remaining is None
                    else min(remaining, _LIVENESS_TICK_SECONDS)
                )
                self._cond.wait(tick)
                self._check_liveness()
            if self._error is not None:
                raise stream_error(
                    self._error, "query failed in its batch"
                ) from self._error
            assert self._result is not None
            return self._result

    def _check_liveness(self) -> None:
        """Raise (caller holds the condition) if the scheduler can never
        complete this stream.  A stream already terminal needs no liveness."""
        if self._done.is_set() or self._liveness is None or self._liveness():
            return
        raise ServiceError(
            "the scheduler's worker threads are gone; the query can never complete"
        )

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def cancelled(self) -> bool:
        """True once the consumer abandoned the stream via :meth:`close`."""
        return self._closed_by_consumer

    @property
    def buffered_chunks(self) -> int:
        """Chunks currently held for the consumer (bounded by the buffer)."""
        with self._cond:
            return len(self._buffer)

    @property
    def first_result_seconds(self) -> float | None:
        """Latency from submission to the first streamed chunk (producer side)."""
        if self.first_chunk_at is None:
            return None
        return self.first_chunk_at - self.submitted_at

    @property
    def total_seconds(self) -> float | None:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at


#: Queue sentinel asking a batch-runner thread to exit.
_SHUTDOWN = object()

#: How often blocked consumers re-check scheduler liveness.  Purely a bound
#: on how long a waiter can outlive a crashed runner pool; normal completion
#: wakes waiters via the condition, not the tick.
_LIVENESS_TICK_SECONDS = 0.5

#: How often the supervisor sweeps the runner pool for crashed threads: the
#: recovery latency a killed runner adds to its orphaned queries.
_SUPERVISOR_TICK_SECONDS = 0.05


class BatchScheduler:
    """Owns the request queues, the batch-forming loop, and the runner pool."""

    def __init__(
        self,
        tasm,
        window_ms: float,
        max_batch: int,
        runners: int = 1,
        stream_buffer_chunks: int = 0,
        on_query_done: Callable[[Query, ScanResult], None] | None = None,
        on_batch_done: Callable[[BatchResult], None] | None = None,
        obs: Observability | None = None,
        max_queue_depth: int = 0,
        shed_queue_wait_ms: float = 0.0,
        poison_query_kills: int = 3,
        fault_plan=None,
    ):
        self._tasm = tasm
        self._obs = obs if obs is not None else DISABLED
        self._window_seconds = window_ms / 1000.0
        self._max_batch = max_batch
        self._runner_count = max(1, runners)
        self._stream_buffer_chunks = stream_buffer_chunks
        self._on_query_done = on_query_done
        self._on_batch_done = on_batch_done
        self._max_queue_depth = max(0, max_queue_depth)
        self._poison_kills = max(1, poison_query_kills)
        self._fault_runner_death = (
            fault_plan.site(FAULT_RUNNER_DEATH) if fault_plan is not None else None
        )
        # The latency breaker reads the queue-wait histogram's snapshots; it
        # needs observability on (the histogram is otherwise a no-op that
        # never accumulates a window).
        self._breaker: QueueWaitBreaker | None = None
        if shed_queue_wait_ms > 0 and self._obs.enabled:
            self._breaker = QueueWaitBreaker(
                self._obs.queue_wait_seconds.snapshot_value,
                threshold_seconds=shed_queue_wait_ms / 1000.0,
            )
        # Pending queries, kept per client for round-robin admission.  The
        # condition guards the pending structures and the in-flight set.
        self._cond = threading.Condition()
        self._pending: dict[Hashable, deque[ResultStream]] = {}
        self._pending_order: deque[Hashable] = deque()
        self._pending_count = 0
        self._in_flight: set[ResultStream] = set()
        # Formed batches travel collector -> runners through a short bounded
        # queue: deep enough to keep every runner fed, shallow enough that
        # arrivals keep coalescing into *pending* (bigger batches) instead of
        # fragmenting into a long line of tiny ones.
        self._batches: queue.Queue = queue.Queue(maxsize=self._runner_count)
        self._collector: threading.Thread | None = None
        self._runners: list[threading.Thread] = []
        self._supervisor: threading.Thread | None = None
        self._running = False
        self._state_lock = threading.Lock()
        # The batch each runner thread is currently executing, keyed by
        # thread ident — the supervisor's recovery map.  An entry is removed
        # by the runner on every survivable exit from _execute; a crashed
        # runner leaves its entry for the supervisor to claim (and the claim
        # happens *before* its replacement starts, so a recycled ident can
        # never alias a live runner's batch).
        self._active_lock = threading.Lock()
        self._active: dict[int, Sequence[ResultStream]] = {}
        self._restart_seq = 0
        # Counters (read by TasmServer.stats; written under _counter_lock by
        # any runner thread).
        self._counter_lock = threading.Lock()
        self.batches_executed = 0
        self.queries_completed = 0
        #: Queries abandoned by their consumer (``ResultStream.close()`` or a
        #: wire ``CANCEL``) before completing — dropped while pending or
        #: skipped mid-batch.
        self.queries_cancelled = 0
        # Fault-tolerance outcomes, mirrored as plain ints so tests and
        # stats() see them with observability off.
        self.queries_deadline_exceeded = 0
        self.queries_shed = 0
        self.queries_quarantined = 0
        self.runner_restarts = 0
        #: Submissions that carried ``skip_sots`` — resumed scans.
        self.scan_resumes = 0
        self.total_stats = DecodeStats()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        with self._state_lock:
            if self._running:
                return
            stale = [self._collector, self._supervisor, *self._runners]
            if any(thread is not None and thread.is_alive() for thread in stale):
                # A previous stop() timed out mid-batch; a second crew on the
                # same queues would race it and its drain.
                raise ServiceError(
                    "scheduler is still draining a previous stop; retry later"
                )
            self._running = True
            self._batches = queue.Queue(maxsize=self._runner_count)
            self._active = {}
            self._runners = [
                threading.Thread(
                    target=self._run_batches,
                    name=f"tasm-batch-runner-{index}",
                    daemon=True,
                )
                for index in range(self._runner_count)
            ]
            for runner in self._runners:
                runner.start()
            self._collector = threading.Thread(
                target=self._run_collector, name="tasm-batch-collector", daemon=True
            )
            self._collector.start()
            self._supervisor = threading.Thread(
                target=self._run_supervisor,
                name="tasm-runner-supervisor",
                daemon=True,
            )
            self._supervisor.start()

    def stop(self, timeout: float | None = 10.0) -> None:
        with self._state_lock:
            if not self._running:
                return
            # Flipping _running under the state lock orders every submit()
            # against shutdown: a stream accepted at all is either executed
            # by a runner or failed below — no silent hangs.
            self._running = False
            collector = self._collector
            supervisor = self._supervisor
            runners = list(self._runners)
        queued: list[ResultStream] = []
        with self._cond:
            for bucket in self._pending.values():
                queued.extend(bucket)
            self._pending.clear()
            self._pending_order.clear()
            self._pending_count = 0
            self._cond.notify_all()  # wake the collector so it can exit
        for stream in queued:
            self._fail_stream(stream, ServiceError("the server was stopped"))
        deadline = None if timeout is None else time.monotonic() + timeout

        def _join(thread: threading.Thread | None) -> None:
            if thread is None:
                return
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            thread.join(remaining)

        _join(collector)
        _join(supervisor)
        for runner in runners:
            _join(runner)
        # Anything still in flight after the drain deadline belongs to a
        # runner stuck mid-batch — or to a runner that crashed after the
        # supervisor already exited: fail the streams so consumers unblock
        # (the runner's eventual terminal transitions are ignored — first
        # wins), which also releases producers suspended on full buffers.
        with self._cond:
            stragglers = [stream for stream in self._in_flight if not stream.done]
        for stream in stragglers:
            self._fail_stream(stream, ServiceError("the server was stopped"))

    @property
    def running(self) -> bool:
        return self._running

    def _workers_alive(self) -> bool:
        """True while the threads that could still complete a stream exist.

        Liveness for waiters: a collector that died, or a runner pool with no
        surviving thread *and* no supervisor to rebuild it, can never
        complete an accepted query — blocked ``result()`` calls must raise
        rather than wait forever.  A scheduler driven without threads (tests
        poke ``_running`` directly) reports alive; it has no pool to crash.
        """
        collector = self._collector
        runners = self._runners
        if collector is None or not runners:
            return True
        if not collector.is_alive():
            return False
        supervisor = self._supervisor
        if supervisor is not None and supervisor.is_alive():
            return True  # dead runners are about to be replaced
        return any(runner.is_alive() for runner in runners)

    @property
    def queue_depth(self) -> int:
        """Queries accepted but not yet dispatched into a batch."""
        with self._cond:
            return self._pending_count

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        query: Query,
        client: Hashable = None,
        deadline_ms: float | None = None,
        priority: int = 0,
        skip_sots: Iterable[int] | None = None,
    ) -> ResultStream:
        """Enqueue a query; ``client`` identifies the submitter for fairness.

        All queries submitted under one ``client`` key share one round-robin
        slot per batch; anonymous submitters (``client=None``) share a single
        slot between them.

        ``deadline_ms`` bounds the query's total latency (queue + execute);
        ``priority`` ranks it for overload shedding (higher survives longer);
        ``skip_sots`` resumes an interrupted scan — the listed SOT indices
        are never served again.  Raises :class:`~repro.errors.ServerBusy`
        immediately — before allocating a stream or trace — when the pending
        queue is at ``service_max_queue_depth``.
        """
        with self._state_lock:
            if not self._running:
                raise ServiceError("the server is not running")
            with self._cond:
                if (
                    self._max_queue_depth
                    and self._pending_count >= self._max_queue_depth
                ):
                    with self._counter_lock:
                        self.queries_shed += 1
                    self._obs.queries_shed.labels(reason="queue_full").inc()
                    raise ServerBusy(
                        f"SERVER_BUSY: {self._pending_count} queries pending "
                        f"(service_max_queue_depth="
                        f"{self._max_queue_depth}); retry later"
                    )
                stream = ResultStream(
                    query,
                    buffer_chunks=self._stream_buffer_chunks,
                    deadline_ms=deadline_ms,
                    priority=priority,
                    skip_sots=skip_sots,
                )
                stream._liveness = self._workers_alive
                stream._client = client
                stream.trace = self._obs.start_trace(query)
                if stream.skip_sots:
                    with self._counter_lock:
                        self.scan_resumes += 1
                    self._obs.scan_retries.inc()
                bucket = self._pending.get(client)
                if bucket is None:
                    bucket = self._pending[client] = deque()
                if not bucket:
                    self._pending_order.append(client)
                bucket.append(stream)
                self._pending_count += 1
                self._cond.notify_all()
        return stream

    # ------------------------------------------------------------------
    # The batch-forming loop (collector thread)
    # ------------------------------------------------------------------
    def _run_collector(self) -> None:
        while True:
            with self._cond:
                while self._running and self._pending_count == 0:
                    self._cond.wait()
                if not self._running:
                    break
            self._shed_if_overloaded()
            batch = self._collect()
            if batch:
                # May block while every runner is busy and the handoff queue
                # is full — which is the pipelining backpressure we want:
                # meanwhile arrivals pile into _pending and coalesce.
                self._batches.put(batch)
        for _ in self._runners:
            self._batches.put(_SHUTDOWN)

    def _collect(self) -> list[ResultStream]:
        """Form one batch: take fairly, then wait out the window for more."""
        deadline = time.monotonic() + self._window_seconds
        batch: list[ResultStream] = []
        with self._cond:
            while True:
                self._take_round_robin(batch)
                if len(batch) >= self._max_batch or not self._running:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            self._in_flight.update(batch)
        return batch

    def _take_round_robin(self, batch: list[ResultStream]) -> None:
        """Drain pending queries into ``batch`` one client at a time (lock held).

        Each rotation takes one query from each client with pending work, so
        every waiting client lands in the next batch before any client gets a
        second slot; remaining capacity goes around again (a lone client may
        still fill the whole batch).  Queries whose deadline elapsed while
        they waited are failed here — they never cost a batch slot.
        """
        expired: list[ResultStream] = []
        while len(batch) < self._max_batch and self._pending_order:
            client = self._pending_order.popleft()
            bucket = self._pending[client]
            stream = bucket.popleft()
            self._pending_count -= 1
            if stream.done:
                # Terminal while queued (cancelled by its consumer, or failed
                # elsewhere): its consumer already has an answer, so it never
                # costs a batch slot or a decode.
                if stream.cancelled:
                    self._count_cancel(stream)
            elif stream.expired():
                expired.append(stream)
            else:
                batch.append(stream)
            if bucket:
                self._pending_order.append(client)
            else:
                del self._pending[client]
        for stream in expired:
            self._deadline_stream(stream)

    def _shed_if_overloaded(self) -> None:
        """Consult the queue-wait breaker; shed pending queries if it trips.

        Victims are chosen lowest priority first, newest first within a
        priority, until the backlog is halved (or down to half the depth
        bound, when one is configured) — the cheapest promises to break.
        Runs on the collector thread, between batches.
        """
        breaker = self._breaker
        if breaker is None or not breaker.should_shed():
            return
        doomed: list[ResultStream] = []
        with self._cond:
            if self._pending_count == 0:
                return
            target = (
                self._max_queue_depth // 2
                if self._max_queue_depth
                else self._pending_count // 2
            )
            excess = self._pending_count - target
            if excess <= 0:
                return
            flat = [
                stream
                for bucket in self._pending.values()
                for stream in bucket
                if not stream.done
            ]
            flat.sort(key=lambda stream: (stream.priority, -stream.submitted_at))
            doomed = flat[:excess]
            doomed_set = set(doomed)
            for client in list(self._pending):
                kept = deque(
                    stream
                    for stream in self._pending[client]
                    if stream not in doomed_set
                )
                if kept:
                    self._pending[client] = kept
                else:
                    del self._pending[client]
            self._pending_order = deque(
                client for client in self._pending_order if client in self._pending
            )
            self._pending_count -= len(doomed)
        for stream in doomed:
            self._shed_stream(stream, breaker.last_percentile)

    # ------------------------------------------------------------------
    # Batch execution (runner threads)
    # ------------------------------------------------------------------
    def _count_cancel(self, stream: ResultStream) -> None:
        """Count one consumer-cancelled query — exactly once per stream.

        Three paths can notice a cancellation (dropped while pending, skipped
        mid-batch, swept while retrying a failed batch); the per-stream guard
        makes whichever runs first the only one that counts, and finishes the
        query's trace as ``cancelled``.
        """
        with self._counter_lock:
            if stream._cancel_counted:
                return
            stream._cancel_counted = True
            self.queries_cancelled += 1
        self._obs.finish_query(stream.trace, status="cancelled")

    def _fail_stream(
        self, stream: ResultStream, error: BaseException, status: str = "error"
    ) -> bool:
        """Fail one stream and finish its trace; first terminal state wins."""
        if stream._fail(error):
            self._obs.finish_query(stream.trace, status=status)
            return True
        return False

    def _deadline_stream(self, stream: ResultStream) -> None:
        """Fail one stream with DeadlineExceeded (idempotent, counted once)."""
        if self._fail_stream(
            stream,
            DeadlineExceeded(
                f"query exceeded its deadline of {stream.deadline_ms:g} ms"
            ),
            status="deadline",
        ):
            with self._counter_lock:
                self.queries_deadline_exceeded += 1

    def _shed_stream(self, stream: ResultStream, percentile: float | None) -> None:
        """Fail one pending stream shed by the queue-wait breaker."""
        wait = "unknown" if percentile is None else f"{percentile * 1000.0:.0f} ms"
        if self._fail_stream(
            stream,
            ServerBusy(
                "SERVER_BUSY: shed by the queue-wait breaker "
                f"(recent p95 queue wait {wait}); retry later"
            ),
            status="shed",
        ):
            with self._counter_lock:
                self.queries_shed += 1

    def _quarantine_stream(self, stream: ResultStream) -> None:
        """Fail one stream that has crashed too many runners."""
        if self._fail_stream(
            stream,
            PoisonQueryError(
                f"query killed {stream._runner_kills} batch runner(s) and is "
                "quarantined"
            ),
            status="quarantined",
        ):
            with self._counter_lock:
                self.queries_quarantined += 1

    def _make_trace_sink(self, batch: Sequence[ResultStream]):
        """The callback the executor reports stage timings through.

        ``sink(query_index, stage, seconds, **meta)`` records into the
        ``tasm_stage_seconds`` histogram and — when the stage belongs to one
        query (``query_index`` is not None; warm prefetch is shared by the
        batch) — appends a detail span to that query's trace.  The executor
        calls it only from the batch's single serving thread.
        """
        stage_seconds = self._obs.stage_seconds

        def sink(query_index, stage: str, seconds: float, **meta) -> None:
            stage_seconds.labels(stage=stage).observe(seconds)
            if query_index is not None:
                batch[query_index].trace.add_span(stage, seconds, **meta)

        return sink

    def _run_batches(self) -> None:
        ident = threading.get_ident()
        while True:
            item = self._batches.get()
            if item is _SHUTDOWN:
                return
            with self._active_lock:
                self._active[ident] = item
            try:
                self._execute(item)
            except InjectedRunnerDeath:
                # A simulated crash: die like the real thing — leave the
                # batch in _active and _in_flight for the supervisor to
                # recover, and take this thread down.  A plain return (not a
                # re-raise) so the harness's unhandled-thread-exception hook
                # stays quiet; the observable state is identical either way.
                return
            except BaseException as error:  # noqa: BLE001 — keep the runner alive
                # _execute fails offending streams itself; anything escaping
                # it (a terminal-transition bug, a callback raising) must not
                # kill the runner thread silently — fail the batch's streams
                # so their waiters raise, and keep serving later batches.
                for stream in item:
                    if not stream.done:
                        self._fail_stream(stream, error)
            # Survivable exits only (a death above skips this): the batch is
            # fully dispositioned, so drop it from the recovery map and the
            # in-flight set.
            with self._active_lock:
                self._active.pop(ident, None)
            with self._cond:
                self._in_flight.difference_update(item)

    # ------------------------------------------------------------------
    # Runner supervision (supervisor thread)
    # ------------------------------------------------------------------
    def _run_supervisor(self) -> None:
        """Replace crashed batch-runner threads and recover their batches."""
        while True:
            time.sleep(_SUPERVISOR_TICK_SECONDS)
            orphans: list[Sequence[ResultStream] | None] = []
            with self._state_lock:
                if not self._running:
                    return
                for index, runner in enumerate(self._runners):
                    if runner.is_alive() or runner.ident is None:
                        continue
                    # Claim the dead runner's batch *before* its replacement
                    # starts: thread idents recycle, so a replacement that
                    # reused this ident must never see a stale entry.
                    with self._active_lock:
                        orphan = self._active.pop(runner.ident, None)
                    self._restart_seq += 1
                    replacement = threading.Thread(
                        target=self._run_batches,
                        name=f"tasm-batch-runner-{index}~r{self._restart_seq}",
                        daemon=True,
                    )
                    self._runners[index] = replacement
                    replacement.start()
                    orphans.append(orphan)
            for orphan in orphans:
                with self._counter_lock:
                    self.runner_restarts += 1
                self._obs.runner_restarts.inc()
                if orphan is not None:
                    self._recover_batch(orphan)

    def _recover_batch(self, batch: Sequence[ResultStream]) -> None:
        """Disposition a crashed runner's batch.

        Completed and cancelled streams need nothing; a stream that has now
        killed ``service_poison_query_kills`` runners is quarantined; expired
        ones fail with their deadline; everything else is requeued at the
        *front* of its client's bucket (it has waited longest) with its
        served regions captured, so the resumed run skips delivered SOTs and
        the final result is byte-identical to an uninterrupted one.
        """
        resumable: list[ResultStream] = []
        for stream in batch:
            if stream.done:
                if stream.cancelled:
                    self._count_cancel(stream)
                continue
            stream._runner_kills += 1
            if stream._runner_kills >= self._poison_kills:
                self._quarantine_stream(stream)
            elif stream.expired():
                self._deadline_stream(stream)
            else:
                stream._prior_regions = list(stream._served_regions)
                resumable.append(stream)
        doomed: list[ResultStream] = []
        with self._cond:
            self._in_flight.difference_update(batch)
            if not self._running:
                doomed = resumable
            else:
                # appendleft in reverse keeps the batch's relative order.
                for stream in reversed(resumable):
                    bucket = self._pending.get(stream._client)
                    if bucket is None:
                        bucket = self._pending[stream._client] = deque()
                        self._pending_order.append(stream._client)
                    bucket.appendleft(stream)
                    self._pending_count += 1
                self._cond.notify_all()
        for stream in doomed:
            self._fail_stream(stream, ServiceError("the server was stopped"))

    def _execute(self, batch: Sequence[ResultStream]) -> None:
        fault_death = self._fault_runner_death
        if fault_death is not None and fault_death.should_fire():
            raise InjectedRunnerDeath("injected runner death before batch start")
        obs = self._obs
        batch_started = time.perf_counter()
        if obs.enabled:
            obs.batch_size.observe(len(batch))
            for stream in batch:
                if stream._queue_span_recorded:
                    continue
                stream._queue_span_recorded = True
                wait = batch_started - stream.submitted_at
                obs.queue_wait_seconds.observe(wait)
                stream.trace.add_span("queue", wait, top=True)
        trace_sink = self._make_trace_sink(batch) if obs.enabled else None

        def observer(event) -> None:
            if isinstance(event, PartialResult):
                batch[event.query_index]._push_chunk(
                    StreamChunk(sot_index=event.sot_index, regions=event.regions)
                )
                if fault_death is not None and fault_death.should_fire():
                    raise InjectedRunnerDeath(
                        "injected runner death mid-batch (after a served SOT)"
                    )
            elif isinstance(event, QueryDone):
                stream = batch[event.query_index]
                if self._on_query_done is not None:
                    self._on_query_done(stream.query, event.result)
                # The execute span closes the timeline the queue span opened:
                # together the two top-level spans tile the query's wall time.
                stream.trace.add_span(
                    "execute", time.perf_counter() - batch_started, top=True
                )
                stream._finish(event.result)
                if not stream.cancelled:
                    obs.finish_query(stream.trace)

        def cancelled(index: int) -> bool:
            # The executor's per-SOT probe doubles as the deadline enforcer:
            # an expired query fails *here*, mid-batch, and the executor
            # skips its remaining serves (and whole SOTs only it wanted).
            stream = batch[index]
            if stream.done:
                return True
            if stream.expired():
                self._deadline_stream(stream)
                return True
            return False

        skips = [stream._sots_to_skip() for stream in batch]

        try:
            result = self._tasm.execute_batch(
                [stream.query for stream in batch],
                observer=observer,
                # A terminal stream (cancelled by its consumer, failed at
                # shutdown or deadline, abandoned by a dead connection) wants
                # no further work: the executor skips its remaining per-SOT
                # serves and whole SOTs only it needed, freeing the runner
                # within ~one GOP of the cancel.
                cancelled=cancelled,
                trace_sink=trace_sink,
                skip_sots=skips if any(skips) else None,
            )
        except InjectedRunnerDeath:
            raise
        except BaseException as error:  # noqa: BLE001 — must fail the waiters
            # One bad query (unknown video, malformed predicate) must not
            # poison the batch it rode in with: retry untouched queries
            # individually so only the offender fails.  A query that already
            # streamed chunks cannot be replayed without duplicating them,
            # so it fails with the batch's error.
            if len(batch) == 1:
                stream = batch[0]
                if not stream.done:
                    self._fail_stream(stream, error)
                elif stream.cancelled:
                    self._count_cancel(stream)
                return
            for stream in batch:
                if stream.done:
                    # Cancelled (or failed elsewhere) while the batch ran; the
                    # sweep is the only path that sees a cancel the collector
                    # and the success path both missed, so it must count it.
                    if stream.cancelled:
                        self._count_cancel(stream)
                    continue
                if stream.first_chunk_at is not None:
                    self._fail_stream(stream, error)
                else:
                    self._execute([stream])
            return
        cancelled_in_batch = [stream for stream in batch if stream.cancelled]
        completed_in_batch = sum(
            1 for stream in batch if stream._result is not None
        )
        with self._counter_lock:
            self.batches_executed += 1
            self.queries_completed += completed_in_batch
            self.total_stats.merge(result.stats)
        for stream in cancelled_in_batch:
            self._count_cancel(stream)
        obs.batches_executed.inc()
        if self._on_batch_done is not None:
            self._on_batch_done(result)
