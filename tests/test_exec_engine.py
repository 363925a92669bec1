"""Tests for the batched, cache-aware execution engine (``repro.exec``).

The engine's contract is behavioural equivalence: for any workload,
``execute_batch`` must hand back byte-identical ``ScanRegion``s to sequential
``scan()`` calls — under a cold cache, a warm cache, and a cache small enough
to thrash — while decoding strictly less (or equal) work than the sequential
path.  Re-tiling must invalidate the re-encoded SOT's cached tiles, and batch
accounting must never double-count a tile that serves several queries.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.config import TasmConfig
from repro.core.predicates import TemporalPredicate
from repro.core.query import Query
from repro.core.tasm import TASM
from repro.exec import TileDecodeCache
from repro.storage.tiled_video import TiledVideo
from tests.conftest import build_tiny_video

LABELS = ("car", "person", "sign")


def make_tasm(config: TasmConfig, cache_bytes: int = 0) -> tuple[TASM, object]:
    """A TASM over the tiny scene with ground-truth boxes indexed."""
    if cache_bytes:
        config = config.with_updates(decode_cache_bytes=cache_bytes)
    video = build_tiny_video()
    tasm = TASM(config=config)
    tasm.ingest(video)
    detections = [
        detection
        for frame in range(video.frame_count)
        for detection in video.ground_truth(frame)
    ]
    tasm.add_detections(video.name, detections)
    return tasm, video


def random_queries(video_name: str, frame_count: int, seed: int, count: int = 8) -> list[Query]:
    """A randomized workload mixing labels, label sets, and temporal ranges."""
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        if rng.random() < 0.3:
            predicate_labels = rng.sample(LABELS, k=rng.randint(2, 3))
            query = Query.select_any(predicate_labels, video_name)
        else:
            query = Query.select(rng.choice(LABELS), video_name)
        if rng.random() < 0.5:
            start = rng.randrange(0, frame_count - 1)
            stop = rng.randrange(start + 1, frame_count + 1)
            query = Query(
                video=query.video,
                predicate=query.predicate,
                temporal=TemporalPredicate.between(start, stop),
            )
        queries.append(query)
    return queries


def assert_scan_results_identical(actual, expected) -> None:
    """Region-by-region equality: frame, rectangle, label, and exact pixels."""
    assert actual.video == expected.video
    assert len(actual.regions) == len(expected.regions)
    for got, want in zip(actual.regions, expected.regions):
        assert got.frame_index == want.frame_index
        assert got.region == want.region
        assert got.label == want.label
        np.testing.assert_array_equal(got.pixels, want.pixels)


class TestBatchEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cold_cache_matches_sequential(self, config, seed):
        tasm, video = make_tasm(config)
        queries = random_queries(video.name, video.frame_count, seed)
        batch = tasm.execute_batch(queries)
        for result, query in zip(batch, queries):
            assert_scan_results_identical(result, tasm.execute(query))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_warm_cache_matches_sequential(self, config, seed):
        cached, video = make_tasm(config, cache_bytes=64 * 1024 * 1024)
        reference, _ = make_tasm(config)
        queries = random_queries(video.name, video.frame_count, seed)
        cached.execute_batch(queries)  # warm every tile the workload touches
        warm = cached.execute_batch(queries)
        assert warm.stats.pixels_decoded == 0, "a warm batch must be all hits"
        assert warm.cache.hit_rate == 1.0
        for result, query in zip(warm, queries):
            assert_scan_results_identical(result, reference.execute(query))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_evicting_cache_matches_sequential(self, config, seed):
        # Room for roughly one decoded full-frame tile GOP (128*96*5 bytes),
        # so the working set never fits and entries are evicted constantly.
        cached, video = make_tasm(config, cache_bytes=70_000)
        reference, _ = make_tasm(config)
        queries = random_queries(video.name, video.frame_count, seed)
        batch = cached.execute_batch(queries)
        batch = cached.execute_batch(queries)  # re-run over the thrashed cache
        assert cached.tile_cache.stats.evictions > 0, "capacity must force evictions"
        for result, query in zip(batch, queries):
            assert_scan_results_identical(result, reference.execute(query))

    def test_repeated_scans_hit_persistent_cache(self, config):
        tasm, video = make_tasm(config, cache_bytes=64 * 1024 * 1024)
        cold = tasm.scan(video.name, "car")
        warm = tasm.scan(video.name, "car")
        assert cold.pixels_decoded > 0 and cold.cache_hits == 0
        assert warm.pixels_decoded == 0 and warm.cache_hits > 0
        assert warm.cache_hit_rate == 1.0
        assert warm.pixels_served_from_cache == cold.pixels_decoded
        assert_scan_results_identical(warm, cold)


class TestBatchAccounting:
    def test_shared_tiles_are_not_double_counted(self, config):
        """Regression pin: a tile serving many regions/queries counts once.

        Two identical queries in one batch touch exactly the same tiles; the
        batch's ``pixels_decoded`` must equal one sequential scan's, not two,
        and the per-query stats plus warm-phase work must reconcile exactly.
        """
        tasm, video = make_tasm(config)
        sequential = tasm.scan(video.name, "car")
        batch = tasm.execute_batch(
            [Query.select("car", video.name), Query.select("car", video.name)]
        )
        assert batch.stats.pixels_decoded == sequential.pixels_decoded
        assert batch.stats.tiles_decoded == sequential.tiles_decoded
        # Both queries still return full results; the second is served from cache.
        assert batch.pixels_served_from_cache > 0
        assert batch.cache_hit_rate > 0.0
        per_query_decoded = sum(result.stats.pixels_decoded for result in batch)
        assert per_query_decoded == 0, "serve phase must hit the warmed cache"

    def test_batch_decodes_no_more_than_sequential(self, config):
        tasm, video = make_tasm(config)
        reference, _ = make_tasm(config)
        queries = random_queries(video.name, video.frame_count, seed=7)
        batch = tasm.execute_batch(queries)
        sequential_pixels = sum(
            reference.execute(query).pixels_decoded for query in queries
        )
        assert batch.stats.pixels_decoded <= sequential_pixels
        assert (
            batch.stats.pixels_decoded + batch.stats.pixels_served_from_cache
            >= sequential_pixels
        ), "hits plus decode work must cover everything the workload touched"

    def test_small_cache_batch_never_exceeds_sequential_work(self, config):
        """A cache smaller than the batch working set must not thrash.

        Each SOT is served immediately after its prefetch, so its tiles are
        still resident when consumed; a warm-everything-then-serve design
        would evict them first and decode *more* than the sequential path.
        """
        cached, video = make_tasm(config, cache_bytes=70_000)
        reference, _ = make_tasm(config)
        queries = [Query.select("car", video.name)] * 3
        batch = cached.execute_batch(queries)
        sequential = sum(
            reference.execute(query).pixels_decoded for query in queries
        )
        assert batch.stats.pixels_decoded < sequential
        assert batch.cache_hit_rate > 0.0

    def test_cache_smaller_than_one_sot_falls_back_to_sequential_work(self, config):
        """A cache that cannot hold even one SOT's working set is bypassed.

        Prefetching such a SOT would evict its own entries mid-warm and every
        serve would miss — paying warm work on top of sequential work.  The
        executor must instead skip the prefetch, decoding exactly what the
        sequential path would, never more.
        """
        # One untiled SOT's union working set is 128*96*5 = 61,440 bytes.
        cached, video = make_tasm(config, cache_bytes=30_000)
        reference, _ = make_tasm(config)
        queries = [Query.select("car", video.name)] * 3
        batch = cached.execute_batch(queries)
        sequential = sum(
            reference.execute(query).pixels_decoded for query in queries
        )
        assert batch.stats.pixels_decoded <= sequential
        for result, query in zip(batch, queries):
            assert_scan_results_identical(result, reference.execute(query))

    def test_empty_batch_and_empty_queries(self, config):
        tasm, video = make_tasm(config)
        empty = tasm.execute_batch([])
        assert len(empty) == 0 and empty.stats.pixels_decoded == 0
        no_match = tasm.execute_batch([Query.select("unicorn", video.name)])
        assert no_match[0].is_empty()
        assert no_match.stats.pixels_decoded == 0


class TestRetileInvalidation:
    def test_retile_evicts_the_sots_cached_tiles(self, config):
        tasm, video = make_tasm(config, cache_bytes=64 * 1024 * 1024)
        tasm.scan(video.name, "car")
        assert tasm.tile_cache.keys_for_sot(video.name, 0), "scan must populate the cache"

        layout = tasm.layout_around(video.name, 0, ["car"])
        tasm.retile_sot(video.name, 0, layout)
        assert tasm.tile_cache.keys_for_sot(video.name, 0) == []
        assert tasm.tile_cache.stats.invalidations > 0

    def test_scan_after_retile_returns_fresh_pixels(self, config):
        """The stale-read path: a re-tiled SOT must never serve old decodes."""
        cached, video = make_tasm(config, cache_bytes=64 * 1024 * 1024)
        reference, _ = make_tasm(config)

        cached.scan(video.name, "car")  # warm the untiled encoding's tiles
        layout = cached.layout_around(video.name, 0, ["car", "person"])
        assert not layout.is_untiled
        cached.retile_sot(video.name, 0, layout)
        reference.retile_sot(video.name, 0, layout)

        after = cached.scan(video.name, "car")
        expected = reference.scan(video.name, "car")
        assert_scan_results_identical(after, expected)
        # The re-tiled SOT's tiles were genuinely decoded (the invalidation
        # forced a miss); the untouched SOTs may still legitimately hit, so
        # decode work plus cache-served work must cover the reference exactly.
        assert after.pixels_decoded > 0
        assert (
            after.pixels_decoded + after.pixels_served_from_cache
            == expected.pixels_decoded
        )

    def test_checksum_token_blocks_stale_reads_without_invalidation(self, config):
        """Even a retile that bypasses TASM's listener cannot serve stale tiles.

        A TiledVideo injected straight into the catalog (the restore-from-disk
        path) carries no retile listener; re-tiling it behind TASM's back
        leaves entries in the cache, and only the bitstream-checksum token
        check stands between a scan and stale pixels.
        """
        config = config.with_updates(decode_cache_bytes=64 * 1024 * 1024)
        video = build_tiny_video()
        tasm = TASM(config=config)
        tiled = TiledVideo(video=video, config=config)
        tasm.catalog._videos[video.name] = tiled  # bypass ingest → no listener
        detections = [
            detection
            for frame in range(video.frame_count)
            for detection in video.ground_truth(frame)
        ]
        tasm.add_detections(video.name, detections)

        tasm.scan(video.name, "car")
        layout = tasm.layout_around(video.name, 0, ["car"])
        assert not layout.is_untiled
        tiled.retile(0, layout)  # direct retile: no invalidation fires
        assert tasm.tile_cache.keys_for_sot(video.name, 0), (
            "precondition: stale entries are still cached"
        )

        reference, _ = make_tasm(config.with_updates(decode_cache_bytes=0))
        reference.retile_sot(video.name, 0, layout)
        after = tasm.scan(video.name, "car")
        assert_scan_results_identical(after, reference.scan(video.name, "car"))


class TestTileDecodeCache:
    def test_lru_eviction_order_and_byte_accounting(self):
        cache = TileDecodeCache(capacity_bytes=3000)
        frame = np.zeros((10, 100), dtype=np.uint8)  # 1000 bytes
        cache.put(("v", 0, 0, 0), [frame], token=(1,))
        cache.put(("v", 0, 0, 1), [frame], token=(2,))
        cache.put(("v", 0, 0, 2), [frame], token=(3,))
        assert cache.current_bytes == 3000
        # Touch the oldest so the middle entry becomes LRU.
        assert cache.get(("v", 0, 0, 0), min_depth=0, token=(1,)) is not None
        cache.put(("v", 0, 0, 3), [frame], token=(4,))
        assert ("v", 0, 0, 1) not in cache
        assert ("v", 0, 0, 0) in cache
        assert cache.stats.evictions == 1
        assert cache.stats.bytes_evicted == 1000
        assert cache.current_bytes == 3000

    def test_depth_and_token_mismatches_are_misses(self):
        cache = TileDecodeCache()
        frames = [np.zeros((4, 4), dtype=np.uint8) for _ in range(2)]
        cache.put(("v", 0, 0, 0), frames, token=(9, 9))
        assert cache.get(("v", 0, 0, 0), min_depth=1, token=(9, 9)) is not None
        assert cache.get(("v", 0, 0, 0), min_depth=2, token=(9, 9)) is None
        assert cache.get(("v", 0, 0, 0), min_depth=0, token=(7, 7)) is None, (
            "a re-encoded bitstream's token must not hit"
        )
        # The token mismatch dropped the entry entirely.
        assert ("v", 0, 0, 0) not in cache

    def test_oversized_entries_are_rejected(self):
        cache = TileDecodeCache(capacity_bytes=100)
        big = np.zeros((100, 100), dtype=np.uint8)
        assert not cache.put(("v", 0, 0, 0), [big], token=(1,))
        assert len(cache) == 0 and cache.current_bytes == 0

    def test_invalidation_scopes(self):
        cache = TileDecodeCache()
        frame = np.zeros((4, 4), dtype=np.uint8)
        for sot in (0, 1):
            for tile in (0, 1):
                cache.put(("a", sot, 0, tile), [frame], token=(1,))
        cache.put(("b", 0, 0, 0), [frame], token=(1,))
        assert cache.invalidate_sot("a", 0) == 2
        assert cache.keys_for_sot("a", 0) == []
        assert cache.keys_for_sot("a", 1) != []
        assert cache.invalidate_scope("a") == 2
        assert len(cache) == 1 and ("b", 0, 0, 0) in cache

    def test_stats_snapshot_delta(self):
        cache = TileDecodeCache()
        frame = np.zeros((4, 4), dtype=np.uint8)
        cache.put(("v", 0, 0, 0), [frame], token=(1,))
        cache.get(("v", 0, 0, 0), min_depth=0, token=(1,))
        before = cache.stats.snapshot()
        cache.get(("v", 0, 0, 0), min_depth=0, token=(1,))
        cache.get(("v", 0, 0, 1), min_depth=0, token=(1,))
        delta = cache.stats.since(before)
        assert delta.hits == 1 and delta.misses == 1
        assert delta.hit_rate == 0.5
        assert cache.stats.hits == 2
