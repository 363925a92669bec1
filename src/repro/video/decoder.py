"""Decode spatial regions of tiled videos and account for the work done.

The decoder honours the two structural constraints of tiled video:

* Spatial: a region can only be recovered by decoding every tile it
  intersects, in full — there is no sub-tile access.
* Temporal: reaching frame *k* of a GOP requires decoding that tile on every
  frame from the keyframe up to *k*.

The returned :class:`~repro.video.codec.DecodeStats` is exactly the
``P`` (pixels) and ``T`` (tiles) of the paper's cost model, so benchmark
measurements and the analytic cost model can be cross-checked.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..config import CodecConfig
from ..errors import CodecError
from ..geometry import Rectangle
from .codec import DecodeStats, EncodedGop, TileCodec
from .encoder import EncodedSot

if TYPE_CHECKING:  # avoid a package cycle: repro.exec imports repro.video
    from ..exec.cache import TileDecodeCache

__all__ = ["RegionRequest", "DecodedRegion", "DecodeResult", "VideoDecoder"]


@dataclass(frozen=True)
class RegionRequest:
    """A request for the pixels of one rectangle on one frame."""

    frame_index: int
    region: Rectangle
    label: str | None = None


@dataclass
class DecodedRegion:
    """The pixels recovered for one request."""

    request: RegionRequest
    pixels: np.ndarray

    @property
    def frame_index(self) -> int:
        return self.request.frame_index

    @property
    def label(self) -> str | None:
        return self.request.label


@dataclass
class DecodeResult:
    """All regions decoded for a scan over one or more SOTs."""

    regions: list[DecodedRegion] = field(default_factory=list)
    stats: DecodeStats = field(default_factory=DecodeStats)
    elapsed_seconds: float = 0.0

    def merge(self, other: "DecodeResult") -> None:
        self.regions.extend(other.regions)
        self.stats.merge(other.stats)
        self.elapsed_seconds += other.elapsed_seconds


class VideoDecoder:
    """Decodes regions out of encoded SOTs.

    When constructed with a :class:`~repro.exec.cache.TileDecodeCache`, the
    decoder consults it before opening a tile bitstream and stores every
    reconstruction it produces: repeated scans over the same tiles become
    cache hits that add nothing to the P/T decode-work counters.  Cache keys
    are namespaced by ``scope`` (the video name), which callers must supply
    for caching to engage — decodes without a scope behave exactly like the
    cacheless decoder.
    """

    def __init__(
        self,
        codec_config: CodecConfig | None = None,
        cache: "TileDecodeCache | None" = None,
    ):
        self.codec_config = codec_config or CodecConfig()
        self.cache = cache
        self._codec = TileCodec(self.codec_config)

    # ------------------------------------------------------------------
    # Region decoding (the Scan path)
    # ------------------------------------------------------------------
    def decode_regions(
        self,
        sot: EncodedSot,
        requests: list[RegionRequest],
        scope: str | None = None,
    ) -> DecodeResult:
        """Decode the pixels of every requested region from one SOT.

        Requests are grouped by GOP, then by tile: each (GOP, tile) bitstream
        is decoded at most once, up to the latest frame any request needs, and
        every request is served from those reconstructions.
        """
        started = time.perf_counter()
        result = DecodeResult()
        layout_rectangles = sot.layout.tile_rectangles()
        for gop, gop_requests in self._group_requests_by_gop(sot, requests):
            self._decode_gop_requests(gop, layout_rectangles=layout_rectangles,
                                      requests=gop_requests, result=result,
                                      scope=scope, sot_index=sot.sot_index)
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def prefetch_regions(
        self,
        sot: EncodedSot,
        requests: list[RegionRequest],
        scope: str,
    ) -> DecodeResult:
        """Decode every tile the requests touch into the cache, skipping assembly.

        This is the batch executor's warm phase: given the union of every
        region the batch needs from one SOT, each touched (GOP, tile) is
        decoded once, to the deepest frame any request reaches, and stored in
        the cache so the per-query serve phase hits instead of re-decoding.
        The returned result carries only decode-work stats (no regions).

        Prefetching is useful only when the warmed tiles survive until they
        are served, so a SOT whose union working set exceeds the cache
        capacity is skipped entirely (the cache would evict its own entries
        mid-warm); the serve phase then decodes that SOT per query, which
        costs exactly what sequential execution would — warming it would cost
        strictly more.
        """
        if self.cache is None:
            raise CodecError("prefetch_regions requires a decoder with a tile cache")
        started = time.perf_counter()
        result = DecodeResult()
        layout_rectangles = sot.layout.tile_rectangles()
        grouped = self._group_requests_by_gop(sot, requests)
        plans = [
            (gop, self._plan_gop(gop, layout_rectangles, gop_requests)[0])
            for gop, gop_requests in grouped
        ]
        if self.cache.capacity_bytes is not None:
            working_set_bytes = sum(
                gop.tiles[tile_index].pixels_per_frame * (depth + 1)
                for gop, tile_depth in plans
                for tile_index, depth in tile_depth.items()
            )
            if working_set_bytes > self.cache.capacity_bytes:
                result.elapsed_seconds = time.perf_counter() - started
                return result
        for gop, tile_depth in plans:
            self._reconstruct_tiles(
                gop, tile_depth, result, scope=scope, sot_index=sot.sot_index
            )
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def _group_requests_by_gop(
        self, sot: EncodedSot, requests: list[RegionRequest]
    ) -> list[tuple[EncodedGop, list[RegionRequest]]]:
        """In-range requests bucketed by the GOP containing them, GOP order."""
        by_gop: dict[int, list[RegionRequest]] = {}
        for request in requests:
            if not sot.frame_start <= request.frame_index < sot.frame_stop:
                continue
            gop = sot.gop_containing(request.frame_index)
            by_gop.setdefault(gop.frame_start, []).append(request)
        return [
            (next(g for g in sot.gops if g.frame_start == gop_start), gop_requests)
            for gop_start, gop_requests in sorted(by_gop.items())
        ]

    def decode_full_frames(self, sot: EncodedSot, frame_indices: list[int]) -> DecodeResult:
        """Decode whole frames (every tile) — the untiled / stitching path."""
        frame_bounds = Rectangle(0, 0, sot.layout.frame_width, sot.layout.frame_height)
        requests = [RegionRequest(index, frame_bounds) for index in frame_indices]
        return self.decode_regions(sot, requests)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _decode_gop_requests(
        self,
        gop: EncodedGop,
        layout_rectangles: list[Rectangle],
        requests: list[RegionRequest],
        result: DecodeResult,
        scope: str | None = None,
        sot_index: int = 0,
    ) -> None:
        tile_depth, request_tiles = self._plan_gop(gop, layout_rectangles, requests)

        # Decode each touched tile once, up to the deepest frame needed.
        reconstructions = self._reconstruct_tiles(
            gop, tile_depth, result, scope=scope, sot_index=sot_index
        )

        # Assemble the requested pixels from the decoded tiles.
        for request, touched in request_tiles:
            offset = request.frame_index - gop.frame_start
            pixels = self._assemble_region(
                request.region, touched, layout_rectangles, reconstructions, offset
            )
            result.regions.append(DecodedRegion(request=request, pixels=pixels))

    def _plan_gop(
        self,
        gop: EncodedGop,
        layout_rectangles: list[Rectangle],
        requests: list[RegionRequest],
    ) -> tuple[dict[int, int], list[tuple[RegionRequest, list[int]]]]:
        """Which tiles does each request touch, and how deep into the GOP must
        each touched tile be decoded?"""
        tile_depth: dict[int, int] = {}
        request_tiles: list[tuple[RegionRequest, list[int]]] = []
        for request in requests:
            offset = request.frame_index - gop.frame_start
            if not 0 <= offset < gop.frame_count:
                raise CodecError(
                    f"request for frame {request.frame_index} does not belong to GOP "
                    f"starting at {gop.frame_start}"
                )
            touched = [
                index
                for index, rectangle in enumerate(layout_rectangles)
                if rectangle.intersects(request.region)
            ]
            request_tiles.append((request, touched))
            for index in touched:
                tile_depth[index] = max(tile_depth.get(index, -1), offset)
        return tile_depth, request_tiles

    def _reconstruct_tiles(
        self,
        gop: EncodedGop,
        tile_depth: dict[int, int],
        result: DecodeResult,
        scope: str | None,
        sot_index: int,
    ) -> dict[int, list[np.ndarray]]:
        """Reconstruct each needed tile, via the cache when one is attached.

        Misses are single-flight across threads: when several concurrent
        decodes (batches running on separate service runners) miss on the
        same tile key at once, one leader
        decodes while the rest wait and then hit the fresh entry — the same
        tile is never decoded twice in parallel for the same depth.
        """
        reconstructions: dict[int, list[np.ndarray]] = {}
        for tile_index, depth in tile_depth.items():
            tile = gop.tiles[tile_index]
            if self.cache is None or scope is None:
                reconstructions[tile_index] = self._codec.decode_tile(
                    tile, up_to_offset=depth, stats=result.stats
                )
                continue
            key = (scope, sot_index, gop.frame_start, tile_index)
            while True:
                cached = self.cache.get(key, min_depth=depth, token=tile.checksums)
                if cached is not None:
                    result.stats.cache_hits += 1
                    result.stats.pixels_served_from_cache += (
                        tile.pixels_per_frame * (depth + 1)
                    )
                    reconstructions[tile_index] = cached
                    break
                if not self.cache.begin_decode(key):
                    continue  # another thread just decoded it; re-check
                try:
                    result.stats.cache_misses += 1
                    frames = self._codec.decode_tile(
                        tile, up_to_offset=depth, stats=result.stats
                    )
                    self.cache.put(key, frames, token=tile.checksums)
                finally:
                    self.cache.end_decode(key)
                reconstructions[tile_index] = frames
                break
        return reconstructions

    def _assemble_region(
        self,
        region: Rectangle,
        tile_indices: list[int],
        layout_rectangles: list[Rectangle],
        reconstructions: dict[int, list[np.ndarray]],
        frame_offset: int,
    ) -> np.ndarray:
        frame_bounds = Rectangle(
            0,
            0,
            max(rectangle.x2 for rectangle in layout_rectangles),
            max(rectangle.y2 for rectangle in layout_rectangles),
        )
        clipped = region.clamp(frame_bounds)
        if clipped is None:
            return np.zeros((0, 0), dtype=np.uint8)
        x1, y1, x2, y2 = clipped.as_int_tuple()
        canvas = np.zeros((y2 - y1, x2 - x1), dtype=np.uint8)
        for tile_index in tile_indices:
            tile_rect = layout_rectangles[tile_index]
            overlap = tile_rect.intersection(clipped)
            if overlap is None:
                continue
            ox1, oy1, ox2, oy2 = overlap.as_int_tuple()
            tile_pixels = reconstructions[tile_index][frame_offset]
            tx1 = ox1 - int(tile_rect.x1)
            ty1 = oy1 - int(tile_rect.y1)
            canvas[oy1 - y1 : oy2 - y1, ox1 - x1 : ox2 - x1] = tile_pixels[
                ty1 : ty1 + (oy2 - oy1), tx1 : tx1 + (ox2 - ox1)
            ]
        return canvas
