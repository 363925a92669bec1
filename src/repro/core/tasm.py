"""TASM — the tile-based storage manager (Section 3).

This class ties the pieces together: the video catalog (physical, tiled
storage), the semantic index (labelled bounding boxes), the tile partitioner
(layout generation), the cost model (layout evaluation), and the decoder
(query execution).  It exposes the paper's access-method API:

* ``scan(video, L, T)`` — return the pixels satisfying a label predicate and
  an optional temporal predicate, decoding only the tiles that contain them.
* ``add_metadata(video, frame, label, x1, y1, x2, y2)`` — incorporate a
  bounding box produced during query processing into the semantic index.

plus the layout-management operations the tiling strategies of Section 4 are
built from (``layout_around``, ``retile_sot``, ``optimize_for_workload``).

Query execution routes through the batched, cache-aware engine in
``repro.exec``: ``scan``/``execute`` run one query through it (identical to
the paper's behaviour when the decode cache is disabled, the default), and
``execute_batch`` runs many queries while decoding each needed tile at most
once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..concurrency import SotLockRegistry
from ..config import DEFAULT_CONFIG, TasmConfig
from ..detection.base import Detection
from ..errors import QueryError
from ..geometry import BoundingBox, Rectangle
from ..index.base import IndexEntry, SemanticIndexProtocol
from ..index.semantic_index import BTreeSemanticIndex
from ..index.sqlite_index import SqliteSemanticIndex
from ..storage.catalog import VideoCatalog
from ..storage.tiled_video import RetileRecord, TiledVideo
from ..tiles.layout import TileLayout, untiled_layout
from ..tiles.partitioner import TileGranularity, partition_around_boxes
from ..video.decoder import VideoDecoder
from ..video.video import Video
from .cost import CostEstimate, CostModel, WhatIfAnalyzer
from .predicates import LabelPredicate, TemporalPredicate
from .query import Query, Workload
from .scan import ScanResult

if TYPE_CHECKING:
    from ..exec.cache import TileDecodeCache
    from ..exec.engine import BatchResult, QueryExecutor

__all__ = ["TASM"]


class TASM:
    """The tile-based storage manager."""

    def __init__(
        self,
        config: TasmConfig | None = None,
        semantic_index: SemanticIndexProtocol | None = None,
        index_backend: str = "btree",
    ):
        self.config = config or DEFAULT_CONFIG
        if semantic_index is not None:
            self.semantic_index = semantic_index
        elif index_backend == "btree":
            self.semantic_index = BTreeSemanticIndex()
        elif index_backend == "sqlite":
            self.semantic_index = SqliteSemanticIndex()
        else:
            raise QueryError(f"unknown semantic index backend {index_backend!r}")
        self.catalog = VideoCatalog(self.config)
        self.cost_model = CostModel(self.config)
        self.what_if = WhatIfAnalyzer(self.cost_model)
        #: Readers-writer locks keyed on (video, SOT).  Scans take read locks
        #: and the write paths (add_metadata, retile_sot) take write locks, so
        #: a TASM shared across threads — the service layer's deployment —
        #: serializes writes against in-flight scans.  Uncontended acquisition
        #: is cheap enough to leave always-on for the single-caller case.
        self.locks = SotLockRegistry()
        # Imported lazily: repro.exec imports repro.core for the query and
        # scan-result types, so a module-level import here would be circular.
        from ..exec.cache import TileDecodeCache
        from ..exec.engine import QueryExecutor

        self.tile_cache: "TileDecodeCache | None" = (
            TileDecodeCache(self.config.decode_cache_bytes)
            if self.config.decode_cache_bytes > 0
            else None
        )
        self._decoder = VideoDecoder(self.config.codec, cache=self.tile_cache)
        self._executor: "QueryExecutor" = QueryExecutor(self)

    # ------------------------------------------------------------------
    # Ingest and metadata (Section 3.1 / 3.3)
    # ------------------------------------------------------------------
    def ingest(self, video: Video) -> TiledVideo:
        """Register a raw video; its initial physical layout is untiled."""
        tiled = self.catalog.ingest(video)
        tiled.add_retile_listener(self._on_retile)
        return tiled

    def video(self, name: str) -> TiledVideo:
        return self.catalog.get(name)

    def add_metadata(
        self,
        video_id: str,
        frame: int,
        label: str,
        x1: float,
        y1: float,
        x2: float,
        y2: float,
        confidence: float = 1.0,
    ) -> None:
        """The paper's ``AddMetadata`` call: one labelled box on one frame.

        Server-safe: the index write holds the video's write lock, so it
        serializes against the planning phase of in-flight scans.
        """
        self.catalog.get(video_id)  # validate the video exists
        with self.locks.write_video(video_id):
            self.semantic_index.add(
                IndexEntry(
                    video=video_id,
                    label=label,
                    frame_index=frame,
                    box=BoundingBox(x1, y1, x2, y2),
                    confidence=confidence,
                )
            )

    def add_detections(self, video_id: str, detections: Iterable[Detection]) -> int:
        """Bulk AddMetadata — the path query processors and detectors use."""
        self.catalog.get(video_id)
        with self.locks.write_video(video_id):
            return self.semantic_index.add_detections(video_id, detections)

    # ------------------------------------------------------------------
    # Scan (Section 3.1)
    # ------------------------------------------------------------------
    def scan(
        self,
        video_name: str,
        predicate: LabelPredicate | str | Sequence[str],
        temporal: TemporalPredicate | None = None,
    ) -> ScanResult:
        """Return the pixels satisfying ``predicate`` within ``temporal``.

        The index lookup finds the matching boxes and the tiles containing
        them; the decoder then decodes only those tiles.  Index time and
        decode time are reported separately, as in the paper's evaluation.
        The query runs through the :class:`~repro.exec.engine.QueryExecutor`;
        with ``decode_cache_bytes`` configured, tiles decoded by earlier
        scans are served from the cache instead of re-decoded.
        """
        predicate = self._normalise_predicate(predicate)
        temporal = temporal or TemporalPredicate.everything()
        return self._executor.execute(
            Query(video=video_name, predicate=predicate, temporal=temporal)
        )

    def execute(self, query: Query) -> ScanResult:
        """Execute a :class:`~repro.core.query.Query` object."""
        return self._executor.execute(query)

    def execute_batch(
        self,
        queries: Sequence[Query],
        observer=None,
        cancelled=None,
        trace_sink=None,
        skip_sots=None,
    ) -> "BatchResult":
        """Execute a batch of queries, decoding each needed tile at most once.

        Returns a :class:`~repro.exec.engine.BatchResult` whose ``results``
        list holds one :class:`ScanResult` per query (in input order, each
        byte-identical to a sequential ``scan``) and whose ``stats``/``cache``
        report the shared decode work and cache behaviour of the batch.
        ``observer`` receives per-SOT streaming events as results materialise
        (see :class:`~repro.exec.engine.PartialResult`); the service layer
        uses it to stream results to clients before the batch finishes.
        ``cancelled`` (an optional ``plan index -> bool`` probe) lets the
        caller withdraw queries mid-batch; their remaining per-SOT work is
        skipped (see :meth:`repro.exec.engine.BatchExecutor.execute_batch`).
        ``trace_sink`` receives per-stage timings (plan / warm / serve) for
        the service layer's per-query traces (``repro.obs``).  ``skip_sots``
        (a per-query set of SOT indices to leave unplanned, aligned with
        ``queries``) is the resume primitive for interrupted streams — see
        :meth:`repro.exec.engine.QueryExecutor.execute_batch`.
        """
        return self._executor.execute_batch(
            queries,
            observer=observer,
            cancelled=cancelled,
            trace_sink=trace_sink,
            skip_sots=skip_sots,
        )

    # ------------------------------------------------------------------
    # Layout generation and re-tiling (Section 3.4 / 4.2)
    # ------------------------------------------------------------------
    def boxes_for(
        self,
        video_name: str,
        labels: Iterable[str],
        frame_start: int,
        frame_stop: int,
    ) -> dict[int, list[Rectangle]]:
        """All indexed boxes of the given labels, grouped by frame."""
        grouped: dict[int, list[Rectangle]] = {}
        for label in set(labels):
            for entry in self.semantic_index.lookup(video_name, label, frame_start, frame_stop):
                grouped.setdefault(entry.frame_index, []).append(entry.box)
        return grouped

    def layout_around(
        self,
        video_name: str,
        sot_index: int,
        objects: Iterable[str],
        granularity: TileGranularity | None = None,
    ) -> TileLayout:
        """``partition(s, O)``: a non-uniform layout around the indexed boxes of O."""
        tiled = self.catalog.get(video_name)
        frame_start, frame_stop = tiled.frame_range(sot_index)
        boxes = [
            box
            for frame_boxes in self.boxes_for(video_name, objects, frame_start, frame_stop).values()
            for box in frame_boxes
        ]
        if granularity is None:
            granularity = (
                TileGranularity.FINE if self.config.fine_grained else TileGranularity.COARSE
            )
        return partition_around_boxes(
            boxes,
            frame_width=tiled.video.width,
            frame_height=tiled.video.height,
            granularity=granularity,
            codec=self.config.codec,
        )

    def retile_sot(self, video_name: str, sot_index: int, layout: TileLayout) -> RetileRecord:
        """Re-encode one SOT with a new layout (the physical re-organisation).

        Any tile decodes cached for the superseded encoding are invalidated —
        a scan after a re-tile can never be served stale pixels.  Server-safe:
        the re-encode holds the ``(video, SOT)`` write lock, so it waits for
        in-flight scans reading this SOT to drain and blocks new ones until
        the new encoding (and the cache invalidation) is in place.
        """
        with self.locks.write((video_name, sot_index)):
            record = self.catalog.get(video_name).retile(sot_index, layout)
            # The retile listener registered at ingest already invalidates,
            # but a TiledVideo loaded into the catalog directly (e.g. restored
            # from disk) may carry no listener, so invalidate here as well.
            self._on_retile(video_name, sot_index)
        return record

    def _on_retile(self, video_name: str, sot_index: int) -> None:
        if self.tile_cache is not None:
            self.tile_cache.invalidate_sot(video_name, sot_index)

    # ------------------------------------------------------------------
    # Cost estimation (Section 4.1)
    # ------------------------------------------------------------------
    def estimate_sot_query_cost(
        self,
        video_name: str,
        sot_index: int,
        query: Query,
        layout: TileLayout | None = None,
    ) -> CostEstimate:
        """Estimated C(s, q, L) for one SOT, using the semantic index for boxes."""
        tiled = self.catalog.get(video_name)
        frame_start, frame_stop = tiled.frame_range(sot_index)
        query_start, query_stop = query.temporal.resolve(tiled.video.frame_count)
        start = max(frame_start, query_start)
        stop = min(frame_stop, query_stop)
        if stop <= start:
            return CostEstimate(0, 0, 0.0)
        frame_boxes = self._query_regions_by_frame(video_name, query.predicate, start, stop)
        if layout is None:
            layout = tiled.layout_for(sot_index)
        return self.cost_model.estimate_query_cost(
            layout, frame_boxes, self.config.codec.gop_frames
        )

    def estimate_untiled_sot_query_cost(
        self, video_name: str, sot_index: int, query: Query
    ) -> CostEstimate:
        tiled = self.catalog.get(video_name)
        return self.estimate_sot_query_cost(
            video_name,
            sot_index,
            query,
            untiled_layout(tiled.video.width, tiled.video.height),
        )

    # ------------------------------------------------------------------
    # The known-query / known-object optimisation (Section 4.2)
    # ------------------------------------------------------------------
    def optimize_for_workload(
        self,
        video_name: str,
        workload: Workload,
        granularity: TileGranularity = TileGranularity.FINE,
        apply: bool = True,
    ) -> dict[int, TileLayout]:
        """KQKO: pick (and optionally apply) per-SOT layouts for a known workload.

        For every SOT, TASM considers the fine-grained non-uniform layout
        around the objects the workload targets in that SOT, applies the alpha
        usefulness rule, and keeps the layout only when it reduces decode work
        for the workload.  Returns the chosen layouts per SOT index.
        """
        tiled = self.catalog.get(video_name)
        relevant = workload.for_video(video_name)
        chosen: dict[int, TileLayout] = {}
        for sot_index in range(tiled.sot_count):
            frame_start, frame_stop = tiled.frame_range(sot_index)
            sot_queries = [
                query
                for query in relevant
                if self._query_overlaps(query, tiled.video.frame_count, frame_start, frame_stop)
            ]
            if not sot_queries:
                continue
            objects = set()
            for query in sot_queries:
                objects.update(query.objects)
            layout = self.layout_around(video_name, sot_index, objects, granularity)
            if layout.is_untiled:
                continue
            tiled_cost = CostEstimate(0, 0, 0.0)
            untiled_cost = CostEstimate(0, 0, 0.0)
            for query in sot_queries:
                tiled_cost = tiled_cost + self.estimate_sot_query_cost(
                    video_name, sot_index, query, layout
                )
                untiled_cost = untiled_cost + self.estimate_untiled_sot_query_cost(
                    video_name, sot_index, query
                )
            if not self.cost_model.layout_is_useful(tiled_cost, untiled_cost):
                continue
            chosen[sot_index] = layout
            if apply:
                self.retile_sot(video_name, sot_index, layout)
        return chosen

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _normalise_predicate(
        predicate: LabelPredicate | str | Sequence[str],
    ) -> LabelPredicate:
        if isinstance(predicate, LabelPredicate):
            return predicate
        if isinstance(predicate, str):
            return LabelPredicate.single(predicate)
        return LabelPredicate.any_of(predicate)

    @staticmethod
    def _query_overlaps(
        query: Query, frame_count: int, frame_start: int, frame_stop: int
    ) -> bool:
        query_start, query_stop = query.temporal.resolve(frame_count)
        return max(query_start, frame_start) < min(query_stop, frame_stop)

    def _regions_by_frame(
        self,
        video_name: str,
        predicate: LabelPredicate,
        frame_start: int,
        frame_stop: int,
    ) -> dict[int, list[Rectangle]]:
        """Evaluate the predicate against the index: frame -> selected regions."""
        boxes_by_frame_and_label: dict[int, dict[str, list[Rectangle]]] = {}
        for label in predicate.labels:
            for entry in self.semantic_index.lookup(video_name, label, frame_start, frame_stop):
                boxes_by_frame_and_label.setdefault(entry.frame_index, {}).setdefault(
                    label, []
                ).append(entry.box)
        regions: dict[int, list[Rectangle]] = {}
        for frame_index, by_label in boxes_by_frame_and_label.items():
            selected = predicate.regions_for_frame(by_label)
            if selected:
                regions[frame_index] = selected
        return regions

    def _query_regions_by_frame(
        self,
        video_name: str,
        predicate: LabelPredicate,
        frame_start: int,
        frame_stop: int,
    ) -> Mapping[int, Sequence[Rectangle]]:
        return self._regions_by_frame(video_name, predicate, frame_start, frame_stop)
