"""Scatter-gather routing over a set of TASM shard processes.

:class:`ClusterRouter` is the cluster's one client-facing API — the VSS
shape: many shard servers behind a single handle that looks like a
:class:`~repro.service.transport.RemoteTasmClient`.  A scan is split by the
consistent-hash ring (:mod:`repro.cluster.ring`): every ``(video, SOT)`` key
has a replica set of ``replication`` shards, each chosen shard receives the
*same* query with ``skip_sots`` naming every SOT it does **not** own, and
the per-shard chunk streams merge into one
:class:`ClusterScanStream` — iterable per-SOT exactly like a
:class:`~repro.service.scheduler.ResultStream`, with ``result()`` assembling
regions in ascending SOT order so the merged result is byte-identical no
matter how shard streams interleave (or which replica served what).

Placement is **cache-aware**: the router remembers which shard last served
each ``(video, SOT)`` and routes the key back there while that shard lives
(its tile cache is the one most likely warm), breaking ties among untried
replicas by the queue depth read from per-shard ``metrics`` snapshots (a
lightly loaded replica beats a backed-up one).

Failover reuses PR 8's fault-tolerance layers rather than inventing new
ones.  Each shard connection carries its own
:class:`~repro.service.transport.RetryPolicy`, so a *transient* wire fault
reconnects and resumes with ``skip_sots`` inside the shard client — the
router never notices.  A shard that stays dead fails its sub-streams; the
router then recomputes the undelivered SOTs' replica sets, re-scatters them
to the surviving shards (again via ``skip_sots`` — the resume mechanism and
the scatter mechanism are the same message), and the merged stream carries
on byte-identically.  A shard shedding load answers with
:class:`~repro.errors.ServerBusy`; the router treats it as failed *for that
scan only* (not marked down) and routes around it.  Health checks ride the
bounded hello handshake: :meth:`ClusterRouter.probe` dials, exchanges the
hello, and hangs up — exactly the server's
``service_handshake_timeout_s``-bounded first frame.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Iterable, Iterator

from ..config import TasmConfig
from ..errors import (
    DeadlineExceeded,
    PoisonQueryError,
    ProtocolError,
    ServerBusy,
    ServiceError,
    StreamCancelledError,
    TransportError,
    stream_error,
)
from ..core.scan import ScanResult
from ..service.scheduler import StreamChunk
from ..service.transport import (
    PROTOCOL_VERSION,
    RemoteTasmClient,
    RetryPolicy,
    _disable_nagle,
    recv_message,
    send_message,
)
from ..video.codec import DecodeStats
from .ring import HashRing, sot_key

__all__ = ["ClusterRouter", "ClusterScanStream", "probe_shard"]


def probe_shard(address, timeout: float = 5.0) -> bool:
    """One health probe: dial, exchange the hello handshake, hang up.

    This is deliberately the same first-frame exchange the server bounds
    with ``service_handshake_timeout_s`` — a shard that accepts but cannot
    answer its hello within the bound is as down as one refusing the dial.
    """
    try:
        sock = socket.create_connection(tuple(address), timeout=timeout)
    except OSError:
        return False
    try:
        _disable_nagle(sock)
        sock.settimeout(timeout)
        send_message(sock, {"op": "hello", "id": 0, "version": PROTOCOL_VERSION})
        reply = recv_message(sock)
        return bool(reply) and reply.get("type") == "hello"
    except (TransportError, ProtocolError, OSError):
        return False
    finally:
        sock.close()


@dataclass
class _SubScan:
    """One shard's share of a scattered scan (a live sub-stream)."""

    shard: str
    stream: object
    assigned: frozenset
    delivered: set = dataclass_field(default_factory=set)


class ClusterScanStream:
    """The merged, failover-capable stream of a scattered scan.

    Iterating yields :class:`~repro.service.scheduler.StreamChunk` tuples in
    whatever order replicas produce them; :meth:`result` assembles the final
    :class:`ScanResult` with regions in ascending SOT order (each SOT's
    regions are one shard's chunk, internally in the executor's
    deterministic order), which is the order a single server produces — so
    merged results compare byte-identical to an unsharded run regardless of
    interleaving or mid-scan failover.

    All merge and failover bookkeeping runs on the consuming thread; the
    per-shard drainer threads only move events into the queue.
    """

    def __init__(
        self,
        router: "ClusterRouter",
        video: str,
        labels,
        frame_start,
        frame_stop,
        deadline_ms,
        priority: int,
        universe: frozenset,
        timeout: float | None,
    ):
        self._router = router
        self.video = video
        self._labels = labels
        self._frame_start = frame_start
        self._frame_stop = frame_stop
        self._deadline_ms = deadline_ms
        self._priority = priority
        #: Every SOT of the video: the scatter partitions this set (a
        #: temporally bounded query simply never emits chunks for SOTs
        #: outside its range, whichever shard owns them).
        self._universe = universe
        self._timeout = timeout
        self._started_at = time.monotonic()
        self._events: queue.SimpleQueue = queue.SimpleQueue()
        self._pending: dict[int, _SubScan] = {}
        self._next_token = 0
        #: Shards this scan gave up on (dead or shedding); grows only.
        self._excluded: set = set()
        self._chunks: dict[int, list] = {}
        self._shard_results: list = []
        self._result = None
        self._error: BaseException | None = None
        self._finished = False
        self._closed = False
        #: Sub-scans issued beyond the initial scatter (failover visibility).
        self.failovers = 0

    # ------------------------------------------------------------------
    # Scatter (called by the router, and again on failover)
    # ------------------------------------------------------------------
    def _remaining_deadline_ms(self):
        """The query's unspent deadline budget, or raises when exhausted."""
        if self._deadline_ms is None:
            return None
        elapsed_ms = (time.monotonic() - self._started_at) * 1000.0
        remaining = float(self._deadline_ms) - elapsed_ms
        if remaining <= 0.0:
            raise DeadlineExceeded(
                f"deadline of {float(self._deadline_ms):g} ms exhausted "
                "before the cluster scan could be (re)scattered"
            )
        return remaining

    def _submit(self, sots: set, cause: BaseException | None = None) -> None:
        """Scatter ``sots`` over live, non-excluded replicas.

        A shard that fails at submission joins the excluded set and its
        share is re-chosen, until every SOT has a stream or no replica
        remains (then the most recent failure propagates).
        """
        todo = set(sots)
        while todo:
            groups: dict[str, set] = {}
            for sot in todo:
                shard = self._router._choose_replica(self.video, sot, self._excluded)
                if shard is None:
                    raise cause if cause is not None else ServiceError(
                        f"no live replica for SOT {sot} of {self.video!r}"
                    )
                groups.setdefault(shard, set()).add(sot)
            todo = set()
            deadline_ms = self._remaining_deadline_ms()
            for shard, group in sorted(groups.items()):
                skip = self._universe - group
                try:
                    stream = self._router._scan_on(
                        shard,
                        self.video,
                        self._labels,
                        self._frame_start,
                        self._frame_stop,
                        deadline_ms,
                        self._priority,
                        skip,
                    )
                except (ServiceError, OSError) as submit_error:
                    self._router._note_failure(shard, submit_error)
                    self._excluded.add(shard)
                    todo |= group
                    cause = submit_error
                    continue
                token = self._next_token
                self._next_token += 1
                sub = _SubScan(shard, stream, frozenset(group))
                self._pending[token] = sub
                threading.Thread(
                    target=self._drain,
                    args=(token, sub),
                    name=f"tasm-cluster-drain-{shard}",
                    daemon=True,
                ).start()

    def _drain(self, token: int, sub: _SubScan) -> None:
        try:
            for sot_index, regions in sub.stream:
                self._events.put(("chunk", token, sot_index, regions))
            self._events.put(("done", token, sub.stream.result()))
        except BaseException as error:  # noqa: BLE001 — routed to the consumer
            self._events.put(("error", token, error))

    # ------------------------------------------------------------------
    # Merge (consumer side)
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Abandon the merged scan: cancel every live sub-stream."""
        if self._closed or (self._finished and self._error is None):
            return
        self._closed = True
        for sub in list(self._pending.values()):
            try:
                sub.stream.close()
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass
        self._pending.clear()
        self._error = StreamCancelledError("cluster stream closed by its consumer")
        self._finished = True

    def __iter__(self) -> Iterator[StreamChunk]:
        if self._error is not None:
            raise stream_error(self._error, "cluster scan failed") from self._error
        while self._pending:
            try:
                kind, token, *rest = self._events.get(timeout=self._timeout)
            except queue.Empty:
                self._error = ServiceError(
                    f"no cluster stream data within {self._timeout} seconds "
                    f"({len(self._pending)} sub-stream(s) outstanding)"
                )
                self._finished = True
                raise stream_error(self._error, "cluster scan failed") from None
            sub = self._pending.get(token)
            if sub is None:
                continue  # a sub-stream failed over already; late event
            if kind == "chunk":
                sot_index, regions = rest
                if sot_index in self._chunks:
                    continue  # duplicate after failover re-scatter; first wins
                self._chunks[sot_index] = regions
                sub.delivered.add(sot_index)
                self._router._note_served(self.video, sot_index, sub.shard)
                yield StreamChunk(sot_index, regions)
            elif kind == "done":
                self._pending.pop(token, None)
                self._shard_results.append(rest[0])
            else:  # "error"
                self._pending.pop(token, None)
                self._failover(sub, rest[0])
        self._finished = True

    def _abort(self, error: BaseException) -> None:
        """Terminal failure: cancel every live sub-stream, then raise."""
        for sub in list(self._pending.values()):
            try:
                sub.stream.close()
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass
        self._pending.clear()
        self._error = error
        self._finished = True
        raise stream_error(self._error, "cluster scan failed") from error

    def _failover(self, sub: _SubScan, error: BaseException) -> None:
        """Re-scatter a failed sub-scan's undelivered SOTs, or fail for good.

        Deadline, cancellation, and poison verdicts hold cluster-wide (a
        replica would only repeat them); everything else — cut wires,
        exhausted reconnects, ``ServerBusy`` shedding — excludes the shard
        and moves its remaining share to the next replicas.
        """
        if isinstance(
            error, (DeadlineExceeded, StreamCancelledError, PoisonQueryError)
        ) or self._closed:
            self._abort(error)
        if not isinstance(error, ServerBusy):
            # Busy is overload, not death: shed scans route around the
            # shard this once, but its health is the breaker's business.
            self._router._note_failure(sub.shard, error)
        self._excluded.add(sub.shard)
        remaining = set(sub.assigned) - sub.delivered - set(self._chunks)
        if not remaining:
            return  # everything it owed arrived before the wire died
        self.failovers += 1
        self._router.failovers_total += 1
        try:
            self._submit(remaining, cause=error)
        except BaseException as resubmit_error:
            self._abort(resubmit_error)

    def result(self):
        """Drain the stream and assemble the merged :class:`ScanResult`.

        Regions concatenate in ascending SOT order — the canonical order a
        single server yields — and decode accounting sums across shards
        (the timings take the slowest shard: scatter work ran in parallel).
        """
        for _ in self:
            pass
        if self._error is not None:
            raise stream_error(self._error, "cluster scan failed") from self._error
        if self._result is None:
            regions = [
                region
                for sot_index in sorted(self._chunks)
                for region in self._chunks[sot_index]
            ]
            stats = DecodeStats()
            index_seconds = 0.0
            decode_seconds = 0.0
            for shard_result in self._shard_results:
                stats.merge(shard_result.stats)
                index_seconds = max(index_seconds, shard_result.index_seconds)
                decode_seconds = max(decode_seconds, shard_result.decode_seconds)
            self._result = ScanResult(
                video=self.video,
                regions=regions,
                stats=stats,
                index_seconds=index_seconds,
                decode_seconds=decode_seconds,
            )
        return self._result


class ClusterRouter:
    """One client handle over N shards: scatter, merge, replicate, fail over.

    ``addresses`` are ``(host, port)`` shard endpoints (typically a
    :class:`~repro.cluster.supervisor.ClusterSupervisor`'s).  ``config``
    supplies the cluster knobs (``cluster_replication_factor``,
    ``cluster_ring_vnodes``, ``cluster_health_interval_s``); ``retry`` is
    the per-shard-connection reconnect policy (transient faults heal inside
    the shard client, before router-level failover even starts).

    Thread-safe: concurrent scans share the shard clients (each is itself a
    multiplexing handle), and placement/health state is lock-protected.
    """

    def __init__(
        self,
        addresses: Iterable,
        config: TasmConfig | None = None,
        timeout: float | None = 30.0,
        stream_buffer_chunks: int = 64,
        retry: RetryPolicy | None = None,
        metrics_ttl_s: float = 2.0,
    ):
        config = config or TasmConfig()
        self._addresses = {self._shard_name(a): tuple(a) for a in addresses}
        if not self._addresses:
            raise ValueError("a cluster needs at least one shard address")
        # The configured factor, not clamped to today's membership: the
        # ring clamps per lookup, so a router that grows regains replicas.
        self._replication = config.cluster_replication_factor
        self._ring = HashRing(self._addresses, vnodes=config.cluster_ring_vnodes)
        self._timeout = timeout
        self._buffer_chunks = stream_buffer_chunks
        self._retry = retry
        self._metrics_ttl = metrics_ttl_s
        self._lock = threading.Lock()
        self._clients: dict[str, RemoteTasmClient] = {}
        #: Shards the router currently believes dead, with the evidence.
        self._down: dict[str, BaseException] = {}
        #: Which shard last served each (video, sot) — the warm-cache map.
        self._placement: dict[tuple, str] = {}
        #: Last metrics-derived load figure per shard (queue depth).
        self._load: dict[str, float] = {}
        self._load_read_at: float = 0.0
        self._video_infos: dict[str, dict] = {}
        self._closed = False
        #: Router-level failovers across all scans (tests and stats).
        self.failovers_total = 0
        self._health_interval = config.cluster_health_interval_s
        self._health_thread: threading.Thread | None = None
        self._health_stop = threading.Event()
        if self._health_interval > 0:
            self._health_thread = threading.Thread(
                target=self._health_loop, name="tasm-cluster-health", daemon=True
            )
            self._health_thread.start()

    @staticmethod
    def _shard_name(address) -> str:
        host, port = tuple(address)[:2]
        return f"{host}:{port}"

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def shards(self) -> list:
        return sorted(self._addresses)

    def add_shard(self, address) -> str:
        """Join a shard: ~1/N of keys re-home to it; the rest stay put
        (and their owners' caches stay warm — the point of the ring)."""
        name = self._shard_name(address)
        with self._lock:
            self._addresses[name] = tuple(address)
            self._ring.add_node(name)
            self._down.pop(name, None)
        return name

    def remove_shard(self, name: str) -> None:
        with self._lock:
            self._addresses.pop(name, None)
            self._ring.remove_node(name)
            self._down.pop(name, None)
            client = self._clients.pop(name, None)
        if client is not None:
            client.close()

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def probe(self, name: str, timeout: float = 5.0) -> bool:
        """Hello-handshake health check; resurrects a down-marked shard."""
        up = probe_shard(self._addresses[name], timeout=timeout)
        with self._lock:
            if up:
                self._down.pop(name, None)
            else:
                self._down.setdefault(name, TransportError("health probe failed"))
        return up

    def health(self) -> dict:
        """Probe every shard; ``{name: bool}``."""
        return {name: self.probe(name) for name in sorted(self._addresses)}

    def _health_loop(self) -> None:
        while not self._health_stop.wait(self._health_interval):
            for name in list(self._addresses):
                try:
                    self.probe(name)
                except KeyError:
                    continue

    def _note_failure(self, name: str, error: BaseException) -> None:
        with self._lock:
            self._down[name] = error
            client = self._clients.pop(name, None)
        if client is not None:
            try:
                client.close(join_timeout=0.5)
            except Exception:  # noqa: BLE001 — a dead client's teardown
                pass

    def _is_up(self, name: str) -> bool:
        with self._lock:
            return name in self._addresses and name not in self._down

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _note_served(self, video: str, sot_index: int, shard: str) -> None:
        with self._lock:
            self._placement[(video, sot_index)] = shard

    def _refresh_load(self) -> None:
        """Queue depth per shard from its metrics snapshot, rate-limited."""
        now = time.monotonic()
        with self._lock:
            if now - self._load_read_at < self._metrics_ttl:
                return
            self._load_read_at = now
            names = [n for n in self._addresses if n not in self._down]
        load: dict[str, float] = {}
        for name in names:
            try:
                snapshot = self._client(name).metrics()
                load[name] = self._queue_depth_of(snapshot)
            except (ServiceError, OSError, KeyError):
                continue
        with self._lock:
            self._load.update(load)

    @staticmethod
    def _queue_depth_of(snapshot: dict) -> float:
        family = snapshot.get("tasm_queue_depth") or {}
        values = family.get("values") or []
        return float(values[0].get("value", 0.0)) if values else 0.0

    def _choose_replica(self, video: str, sot_index: int, excluded: set):
        """The shard to serve one SOT: its replica set filtered to live,
        non-excluded members; the last server of this key wins (warm cache),
        then the least-loaded, then ring preference order."""
        candidates = [
            name
            for name in self._ring.nodes_for(
                sot_key(video, sot_index), self._replication
            )
            if name not in excluded and self._is_up(name)
        ]
        if not candidates:
            return None
        with self._lock:
            sticky = self._placement.get((video, sot_index))
            load = dict(self._load)
        if sticky in candidates:
            return sticky
        if len(candidates) > 1 and load:
            ring_rank = {name: rank for rank, name in enumerate(candidates)}
            candidates.sort(
                key=lambda name: (load.get(name, 0.0), ring_rank[name])
            )
        return candidates[0]

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    def _client(self, name: str) -> RemoteTasmClient:
        with self._lock:
            if self._closed:
                raise ServiceError("the cluster router is closed")
            client = self._clients.get(name)
            if client is not None:
                return client
            address = self._addresses[name]
        client = RemoteTasmClient(
            address,
            timeout=self._timeout,
            stream_buffer_chunks=self._buffer_chunks,
            retry=self._retry,
        )
        with self._lock:
            existing = self._clients.setdefault(name, client)
        if existing is not client:
            client.close()
        return existing

    def _scan_on(
        self, shard, video, labels, frame_start, frame_stop, deadline_ms,
        priority, skip_sots,
    ):
        return self._client(shard).scan_streaming(
            video,
            labels,
            frame_start,
            frame_stop,
            deadline_ms=deadline_ms,
            priority=priority,
            skip_sots=skip_sots,
        )

    # ------------------------------------------------------------------
    # The client-facing API
    # ------------------------------------------------------------------
    def video_info(self, video: str) -> dict:
        """Layout facts for a video, cached; any live shard may answer."""
        with self._lock:
            info = self._video_infos.get(video)
        if info is not None:
            return info
        last_error: BaseException | None = None
        for name in sorted(self._addresses):
            if not self._is_up(name):
                continue
            try:
                info = self._client(name).video_info(video)
            except (ServiceError, OSError) as error:
                last_error = error
                if isinstance(error, (TransportError, OSError)):
                    self._note_failure(name, error)
                continue
            with self._lock:
                self._video_infos[video] = info
            return info
        raise ServiceError(f"no shard could answer video_info({video!r}): {last_error}")

    def scan_streaming(
        self,
        video: str,
        labels,
        frame_start: int | None = None,
        frame_stop: int | None = None,
        deadline_ms: float | None = None,
        priority: int = 0,
    ) -> ClusterScanStream:
        info = self.video_info(video)
        universe = frozenset(range(int(info["sot_count"])))
        self._refresh_load()
        stream = ClusterScanStream(
            self,
            video,
            labels,
            frame_start,
            frame_stop,
            deadline_ms,
            priority,
            universe,
            self._timeout,
        )
        try:
            stream._submit(set(universe))
        except BaseException:
            stream.close()
            raise
        return stream

    def scan(
        self,
        video: str,
        labels,
        frame_start: int | None = None,
        frame_stop: int | None = None,
        deadline_ms: float | None = None,
        priority: int = 0,
    ):
        return self.scan_streaming(
            video,
            labels,
            frame_start,
            frame_stop,
            deadline_ms=deadline_ms,
            priority=priority,
        ).result()

    def add_metadata(self, *args, **kwargs) -> None:
        """Broadcast: every shard holds the full dataset, so a metadata
        write must land on all of them to keep replicas interchangeable."""
        errors = []
        for name in sorted(self._addresses):
            if not self._is_up(name):
                continue
            try:
                self._client(name).add_metadata(*args, **kwargs)
            except (ServiceError, OSError) as error:
                errors.append((name, error))
        if errors:
            raise ServiceError(f"add_metadata failed on {errors}")

    def metrics(self) -> dict:
        """Per-shard snapshots plus a cluster rollup of every counter.

        ``{"shards": {name: snapshot}, "cluster": {counter: summed total}}``
        — gauges and histograms stay per-shard (summing a queue-depth gauge
        across shards is meaningful, but summing p95 buckets is not; the
        per-shard snapshots keep full fidelity for anything the rollup
        flattens).
        """
        shards: dict[str, dict] = {}
        for name in sorted(self._addresses):
            if not self._is_up(name):
                continue
            try:
                shards[name] = self._client(name).metrics()
            except (ServiceError, OSError):
                continue
        rollup: dict[str, float] = {}
        for snapshot in shards.values():
            for metric, family in snapshot.items():
                if family.get("type") != "counter":
                    continue
                total = sum(
                    float(entry.get("value", 0.0))
                    for entry in family.get("values", ())
                )
                rollup[metric] = rollup.get(metric, 0.0) + total
        return {"shards": shards, "cluster": rollup}

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            clients = list(self._clients.values())
            self._clients.clear()
        self._health_stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5.0)
        for client in clients:
            try:
                client.close()
            except Exception:  # noqa: BLE001 — teardown must not raise
                pass

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
