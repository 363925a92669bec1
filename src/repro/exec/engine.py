"""Batched, cache-aware query execution.

:class:`QueryExecutor` is the single path every TASM ``Scan`` takes.  For a
lone query it behaves exactly like the paper's scan loop (index lookup, then
decode only the tiles the selected regions touch).  For a batch it adds the
two optimisations the VSS and Scanner systems apply to exactly this redundant
work:

* **Planning** — every query's region requests are resolved up front and
  grouped by ``(video, SOT)``, so the executor knows the union of tiles the
  whole batch needs before decoding anything.
* **Warm + serve, one SOT at a time** — a single loop walks the batch's
  SOTs in ascending order.  For each, every needed (GOP, tile) bitstream is
  decoded *once*, to the deepest frame any query in the batch reaches, into
  the :class:`~repro.exec.cache.TileDecodeCache`, and every query's requests
  against that SOT are answered immediately afterwards, while its tiles are
  the cache's most recently used entries — so a cache that holds one SOT's
  working set serves hits even when the batch's whole working set is far
  larger, and a SOT too big for the cache is simply not prefetched (serving
  it costs no more than sequential execution would).  Per-query results are
  byte-identical to sequential ``scan()`` calls — serving runs the same
  grouping, decode-depth, and assembly logic — but tiles shared between
  queries are decoded once instead of once per query.

Decode-work accounting never double-counts: a cache hit contributes to the
``cache_hits`` / ``pixels_served_from_cache`` counters, not to the P/T decode
counters, so summing the batch's stats reproduces the work actually done.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from ..concurrency import VIDEO_LEVEL
from ..core.query import Query
from ..core.scan import ScanRegion, ScanResult
from ..errors import CodecError
from ..faults.plan import FAULT_DECODE_ERROR
from ..video.codec import DecodeStats
from ..video.decoder import DecodeResult, RegionRequest, VideoDecoder
from .cache import CacheStats, TileDecodeCache

if TYPE_CHECKING:
    from ..core.tasm import TASM

__all__ = ["BatchResult", "PartialResult", "QueryDone", "QueryExecutor", "StreamEvent"]


@dataclass(frozen=True)
class PartialResult:
    """Streaming event: one SOT's contribution to one query is ready.

    Emitted by ``execute_batch`` (through its ``observer``) immediately after
    the SOT is served — while later SOTs of the batch may still be decoding —
    so a serving layer can push results to clients incrementally.  ``regions``
    are exactly the :class:`~repro.core.scan.ScanRegion` objects appended to
    the query's final result for this SOT, in result order.
    """

    query_index: int
    video: str
    sot_index: int
    regions: tuple[ScanRegion, ...]


@dataclass(frozen=True)
class QueryDone:
    """Streaming event: every SOT of one query has been served.

    ``result`` is the query's complete :class:`~repro.core.scan.ScanResult`,
    byte-identical to what ``execute_batch`` returns for it.
    """

    query_index: int
    result: ScanResult


#: What an ``execute_batch`` observer receives.
StreamEvent = PartialResult | QueryDone


@dataclass
class _QueryPlan:
    """One query's resolved work: the region requests it implies, per SOT."""

    query: Query
    video: str
    index_seconds: float
    sot_requests: list[tuple[int, list[RegionRequest]]]

    @property
    def request_count(self) -> int:
        return sum(len(requests) for _, requests in self.sot_requests)


@dataclass
class BatchResult:
    """Everything ``execute_batch`` returns.

    ``results`` holds one :class:`~repro.core.scan.ScanResult` per input
    query, in input order; ``stats`` aggregates the decode work of the whole
    batch (warm phase plus any serve-phase misses) without double-counting
    tiles shared between queries.
    """

    results: list[ScanResult] = field(default_factory=list)
    stats: DecodeStats = field(default_factory=DecodeStats)
    cache: CacheStats = field(default_factory=CacheStats)
    index_seconds: float = 0.0
    #: Decoder time spent prefetching (warm) and answering queries (serve),
    #: summed over the batch's SOTs.  These are timings; compare decode
    #: *work* across runs with ``stats`` instead.
    warm_seconds: float = 0.0
    serve_seconds: float = 0.0

    @property
    def pixels_decoded(self) -> int:
        """Unique decoded-pixel work for the whole batch (the paper's P)."""
        return self.stats.pixels_decoded

    @property
    def tiles_decoded(self) -> int:
        return self.stats.tiles_decoded

    @property
    def pixels_served_from_cache(self) -> int:
        """Pixels handed to queries from the cache rather than re-decoded.

        This counts every serve-phase hit, including hits on tiles this very
        batch warmed — it is cache traffic, not net savings.  The work saved
        versus sequential execution is the sequential path's pixel count
        minus :attr:`pixels_decoded`.
        """
        return self.stats.pixels_served_from_cache

    @property
    def cache_hit_rate(self) -> float:
        return self.cache.hit_rate

    @property
    def total_seconds(self) -> float:
        return self.index_seconds + self.warm_seconds + self.serve_seconds

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[ScanResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> ScanResult:
        return self.results[index]


class QueryExecutor:
    """Executes queries against a TASM instance, sharing decoded tiles."""

    def __init__(self, tasm: "TASM"):
        self._tasm = tasm
        # Fault injection (repro.faults): resolved once so the production
        # path pays one None check per prefetch when no plan is configured.
        plan = getattr(tasm.config, "fault_plan", None)
        self._fault_decode = (
            plan.site(FAULT_DECODE_ERROR) if plan is not None else None
        )

    # ------------------------------------------------------------------
    # Single-query execution (the Scan path)
    # ------------------------------------------------------------------
    def execute(self, query: Query) -> ScanResult:
        """Execute one query; uses TASM's persistent tile cache when enabled.

        Server-safe: the plan runs under a read lock on the video (so it sees
        a consistent semantic index) and the decode under read locks on every
        SOT it touches (so a concurrent ``retile_sot`` can never swap a
        bitstream mid-scan).
        """
        locks = self._tasm.locks
        video_held = locks.acquire_read([(query.video, VIDEO_LEVEL)])
        sot_held: list = []
        try:
            # The video-level key only guards the index read during planning;
            # release it before decoding so a pending metadata write stalls
            # new planners, not this whole scan.
            try:
                plan = self._plan(query)
                sot_held = locks.acquire_read(
                    (plan.video, sot_index) for sot_index, _ in plan.sot_requests
                )
            finally:
                locks.release_read(video_held)
            return self._serve(plan, self._tasm._decoder)
        finally:
            locks.release_read(sot_held)

    # ------------------------------------------------------------------
    # Batched execution
    # ------------------------------------------------------------------
    def execute_batch(
        self,
        queries: Sequence[Query],
        observer: Callable[[StreamEvent], None] | None = None,
        cancelled: Callable[[int], bool] | None = None,
        trace_sink: Callable[..., None] | None = None,
        skip_sots: "Sequence[object | None] | None" = None,
    ) -> BatchResult:
        """Execute a batch of queries, decoding each needed tile at most once.

        When TASM has a persistent :class:`TileDecodeCache` (configured via
        ``TasmConfig.decode_cache_bytes``) the batch shares it — warm entries
        from earlier scans are reused and survivors stay for later ones.
        Otherwise an unbounded cache scoped to this batch provides the
        intra-batch sharing.

        ``observer``, when given, receives streaming events from the serving
        thread: a :class:`PartialResult` the moment each SOT's regions for a
        query are assembled (before later SOTs have been decoded) and a
        :class:`QueryDone` once a query's last SOT is served — the hook the
        service layer streams per-SOT results to clients through.  Events for
        one query arrive in result order; a query touching no SOT completes
        immediately after planning.

        Observer threading contract: every event of one ``execute_batch``
        call is emitted synchronously from the thread driving that call, so
        per-batch event order needs no locking.  ``execute_batch`` itself may
        be called from several threads at once (the service layer's
        batch-runner pool does); each call emits only to its own observer, but
        an observer closing over shared state — counters, a stats sink — must
        synchronise that state itself.  An observer that *blocks* (e.g.
        backpressure on a full stream buffer) suspends its batch, including
        the read locks the batch holds; it must be unblockable (the service
        layer's streams drop pushes once a stream reaches terminal state for
        exactly this reason).

        ``cancelled``, when given, is polled with a query's index before work
        is done on its behalf: a query reported cancelled has its remaining
        per-SOT serves skipped (no further observer events fire for it), and
        a SOT *every* interested query has abandoned is neither prefetched
        nor served — so an abandoned scan stops consuming decode time within
        roughly one SOT (one GOP at the default layout duration) instead of
        running to completion for nobody.  Its entry in ``results`` holds
        whatever had been assembled before cancellation.

        ``skip_sots``, when given, is a sequence aligned with ``queries``: a
        per-query set of SOT indices to leave out of the plan (None or an
        empty set skips nothing).  This is the resume primitive: a query
        re-queued after a runner crash, or re-submitted by a reconnecting
        client, passes the SOT indices whose chunks were already delivered,
        and the remaining SOTs are planned, decoded, and streamed exactly as
        the uninterrupted run would have ordered them (per-video SOT order is
        ascending), so the concatenation of delivered chunks stays
        byte-identical to a fault-free run.

        ``trace_sink``, when given, receives per-stage timings as
        ``trace_sink(query_index, stage, seconds, **meta)``: a ``plan`` call
        per query (index-lookup time), a ``warm`` call per prefetched SOT
        with ``query_index=None`` (the decode is shared by the batch), and a
        ``serve`` call per (query, SOT) pair carrying cache hit/miss and
        pixel counts.  Every call comes from the thread driving the batch,
        so a sink needs no locking against this batch.

        Like ``execute``, the batch holds read locks on each touched video
        while planning (released before decoding, so metadata writes only
        serialize against planners) and on every ``(video, SOT)`` it decodes
        for the decode's duration, so concurrent re-tiles serialize against
        it instead of corrupting it.
        """
        locks = self._tasm.locks
        video_held = locks.acquire_read(
            {(query.video, VIDEO_LEVEL) for query in queries}
        )
        sot_held: list = []
        try:
            return self._execute_batch_locked(
                queries,
                observer,
                cancelled,
                trace_sink,
                skip_sots,
                locks,
                video_held,
                sot_held,
            )
        finally:
            locks.release_read(video_held)
            locks.release_read(sot_held)

    def _execute_batch_locked(
        self,
        queries: Sequence[Query],
        observer: Callable[[StreamEvent], None] | None,
        cancelled: Callable[[int], bool] | None,
        trace_sink: Callable[..., None] | None,
        skip_sots: "Sequence[object | None] | None",
        locks,
        video_held: list,
        sot_held: list,
    ) -> BatchResult:
        plans = [self._plan(query) for query in queries]
        if skip_sots is not None:
            # Resume support: drop the SOTs whose chunks the caller already
            # holds — the remaining SOTs stream in the same ascending order
            # the uninterrupted plan would have served them in.
            for plan, skip in zip(plans, skip_sots):
                if skip:
                    plan.sot_requests = [
                        (sot_index, requests)
                        for sot_index, requests in plan.sot_requests
                        if sot_index not in skip
                    ]
        index_seconds = sum(plan.index_seconds for plan in plans)
        if trace_sink is not None:
            for plan_index, plan in enumerate(plans):
                trace_sink(plan_index, "plan", plan.index_seconds)

        cache = self._tasm.tile_cache
        batch_scoped_cache = cache is None
        if cache is not None:
            decoder = self._tasm._decoder
        else:
            cache = TileDecodeCache(capacity_bytes=None)
            decoder = VideoDecoder(self._tasm.config.codec, cache=cache)

        # Per (video, SOT): the union of region requests across the batch
        # (what the warm phase decodes) and which queries want which requests
        # (what the serve phase assembles).
        union: dict[tuple[str, int], list[RegionRequest]] = {}
        members: dict[tuple[str, int], list[tuple[int, list[RegionRequest]]]] = {}
        for plan_index, plan in enumerate(plans):
            for sot_index, requests in plan.sot_requests:
                key = (plan.video, sot_index)
                union.setdefault(key, []).extend(requests)
                members.setdefault(key, []).append((plan_index, requests))

        # Decodes happen under read locks on every SOT the batch touches, so
        # no retile can swap a bitstream mid-batch; the video-level keys have
        # done their job (planning is over) and are released so metadata
        # writes need not wait out the decode phase.
        sot_held += locks.acquire_read(union)
        locks.release_read(video_held)
        video_held.clear()

        # Materialise encoded SOTs up front (first-touch encoding is
        # serialised by TiledVideo's encode lock, so concurrent batches are
        # safe).
        encoded = {
            (video, sot_index): self._tasm.catalog.get(video).encoded_sot(sot_index)
            for video, sot_index in union
        }

        results = [
            ScanResult(video=plan.video, index_seconds=plan.index_seconds)
            for plan in plans
        ]
        # Streaming bookkeeping: how many SOT groups each query still waits
        # on; a query is done the moment its count reaches zero.
        pending_sots = [len(plan.sot_requests) for plan in plans]

        def _is_cancelled(plan_index: int) -> bool:
            return cancelled is not None and cancelled(plan_index)

        def _fully_cancelled(key: tuple[str, int]) -> bool:
            """True when every query interested in this SOT has been abandoned."""
            return cancelled is not None and all(
                cancelled(plan_index) for plan_index, _ in members[key]
            )

        if observer is not None:
            for plan_index, remaining in enumerate(pending_sots):
                if remaining == 0 and not _is_cancelled(plan_index):
                    observer(QueryDone(plan_index, results[plan_index]))
        warm_stats = DecodeStats()
        warm_seconds = 0.0
        serve_seconds = 0.0

        fault_decode = self._fault_decode

        def _prefetch(key: tuple[str, int]) -> DecodeResult:
            if fault_decode is not None and fault_decode.should_fire():
                raise CodecError(
                    f"injected decoder fault prefetching {key[0]!r} SOT {key[1]}"
                )
            return decoder.prefetch_regions(encoded[key], union[key], scope=key[0])

        def _serve_group(key: tuple[str, int]) -> float:
            """Answer every query's requests for one SOT from the warm cache."""
            elapsed = 0.0
            for plan_index, requests in members[key]:
                if _is_cancelled(plan_index):
                    pending_sots[plan_index] -= 1
                    continue
                result = results[plan_index]
                regions_before = len(result.regions)
                decoded = decoder.decode_regions(encoded[key], requests, scope=key[0])
                self._apply_decoded(result, decoded)
                result.decode_seconds += decoded.elapsed_seconds
                elapsed += decoded.elapsed_seconds
                if trace_sink is not None:
                    trace_sink(
                        plan_index,
                        "serve",
                        decoded.elapsed_seconds,
                        video=key[0],
                        sot=key[1],
                        cache_hits=decoded.stats.cache_hits,
                        cache_misses=decoded.stats.cache_misses,
                        pixels_decoded=decoded.stats.pixels_decoded,
                        pixels_from_cache=decoded.stats.pixels_served_from_cache,
                    )
                pending_sots[plan_index] -= 1
                if observer is not None:
                    observer(
                        PartialResult(
                            query_index=plan_index,
                            video=key[0],
                            sot_index=key[1],
                            regions=tuple(result.regions[regions_before:]),
                        )
                    )
                    if pending_sots[plan_index] == 0:
                        observer(QueryDone(plan_index, result))
            if batch_scoped_cache:
                # Served SOTs are never revisited (each key is visited once,
                # ascending), so a batch-scoped cache can release them —
                # peak memory stays near one SOT's working set, not the
                # batch's whole decoded working set.
                cache.invalidate_sot(key[0], key[1])
            return elapsed

        # Each SOT is served immediately after its prefetch: its tiles are the
        # most recently used entries, so a cache holding one SOT's working
        # set serves hits however large the batch is (prefetch itself skips
        # any SOT too big for the cache).  SOT order is ascending per video,
        # so each query's regions accumulate in the same order a sequential
        # scan would produce them.
        for key in sorted(union):
            if _fully_cancelled(key):
                # Nobody wants this SOT any more: neither prefetch nor serve.
                for plan_index, _ in members[key]:
                    pending_sots[plan_index] -= 1
                if batch_scoped_cache:
                    cache.invalidate_sot(key[0], key[1])
                continue
            warm = _prefetch(key)
            warm_stats.merge(warm.stats)
            warm_seconds += warm.elapsed_seconds
            if trace_sink is not None:
                trace_sink(
                    None, "warm", warm.elapsed_seconds, video=key[0], sot=key[1]
                )
            serve_seconds += _serve_group(key)

        total = DecodeStats()
        total.merge(warm_stats)
        for result in results:
            total.merge(result.stats)
        # Cache accounting comes from this batch's own decode counters, not a
        # delta of the shared cache's global stats: with a pool of batch
        # runners, concurrent batches interleave their lookups on one cache,
        # and a snapshot delta would attribute other batches' traffic to this
        # one.  (Insertions/evictions are cache-global by nature and are
        # reported by the cache itself, not per batch.)
        return BatchResult(
            results=results,
            stats=total,
            cache=CacheStats(
                hits=total.cache_hits,
                misses=total.cache_misses,
                pixels_served=total.pixels_served_from_cache,
            ),
            index_seconds=index_seconds,
            warm_seconds=warm_seconds,
            serve_seconds=serve_seconds,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _plan(self, query: Query) -> _QueryPlan:
        """Resolve a query into per-SOT region requests via the semantic index."""
        tasm = self._tasm
        tiled = tasm.catalog.get(query.video)
        frame_start, frame_stop = query.temporal.resolve(tiled.video.frame_count)

        index_started = time.perf_counter()
        regions_by_frame = tasm._regions_by_frame(
            query.video, query.predicate, frame_start, frame_stop
        )
        index_seconds = time.perf_counter() - index_started

        sot_requests: list[tuple[int, list[RegionRequest]]] = []
        if regions_by_frame:
            label = (
                next(iter(query.predicate.labels))
                if query.predicate.is_single_label
                else None
            )
            for sot_index in tiled.sots_for_frames(frame_start, frame_stop):
                sot_start, sot_stop = tiled.frame_range(sot_index)
                requests = [
                    RegionRequest(frame_index=frame_index, region=region, label=label)
                    for frame_index, regions in regions_by_frame.items()
                    if sot_start <= frame_index < sot_stop
                    for region in regions
                ]
                if requests:
                    sot_requests.append((sot_index, requests))
        return _QueryPlan(
            query=query,
            video=query.video,
            index_seconds=index_seconds,
            sot_requests=sot_requests,
        )

    def _serve(self, plan: _QueryPlan, decoder: VideoDecoder) -> ScanResult:
        """Answer one planned query — the paper's per-SOT decode loop."""
        result = ScanResult(video=plan.video, index_seconds=plan.index_seconds)
        if not plan.sot_requests:
            return result
        tiled = self._tasm.catalog.get(plan.video)
        decode_started = time.perf_counter()
        for sot_index, requests in plan.sot_requests:
            encoded = tiled.encoded_sot(sot_index)
            decoded = decoder.decode_regions(encoded, requests, scope=plan.video)
            self._apply_decoded(result, decoded)
        result.decode_seconds = time.perf_counter() - decode_started
        return result

    @staticmethod
    def _apply_decoded(result: ScanResult, decoded: DecodeResult) -> None:
        """Merge one SOT's decode output into a query's ScanResult.

        Both the single-query path and the batched serve phase build regions
        through this one helper, which is what keeps their outputs
        byte-identical.
        """
        result.stats.merge(decoded.stats)
        result.regions.extend(
            ScanRegion(
                frame_index=region.frame_index,
                region=region.request.region,
                pixels=region.pixels,
                label=region.label,
            )
            for region in decoded.regions
        )
