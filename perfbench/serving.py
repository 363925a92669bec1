"""The closed loop both serving workloads drive, and what they share.

Each client thread sends its next scan only when the previous one has
completed (analytics callers block on their results), cycling through its
own seeded sequence until the window ends.  Every scan is timed from the
call to the complete result, its chunks are consumed as they arrive, and its
digest is checked against the reference computed in set-up.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field

from repro.core import TASM
from repro.errors import TasmError
from repro.video.codec import TileCodec

from checks import result_digest
from inputs import (
    QuerySpec,
    base_config,
    build_scene,
    index_scene,
    tile_for_queries,
    to_query,
)
from ledger import Tracer, optional_span
from probes import (
    combine_histograms,
    histogram_delta,
    histogram_mean,
    histogram_quantile,
    span_seconds,
)


#: Most recent per-query traces read from each server after a window.
TRACES_KEPT = 64
#: Set-ups (rounds) per run; a traced run splits them between an untraced
#: and a traced half.
ROUNDS = 3


def round_plan(seconds: float, trace: bool) -> list[tuple[float, bool]]:
    """``(window seconds, traced)`` for each round of a run."""
    if not trace:
        return [(seconds / ROUNDS, False)] * ROUNDS
    return [(seconds / 4, False)] * 2 + [(seconds / 4, True)] * 2


@dataclass
class LoopResult:
    """Everything one closed-loop window measured."""

    seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    first_chunk: list[float] = field(default_factory=list)
    submit: list[float] = field(default_factory=list)
    gather: list[float] = field(default_factory=list)
    pass_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    regions: int = 0
    pixels_decoded: int = 0
    pixels_from_cache: int = 0
    returned_pixels: int = 0
    index_seconds: float = 0.0


def reference_digests(videos, resolution, seconds, queries: list[QuerySpec]):
    """Digest of every distinct query on a fresh, cacheless in-process TASM
    holding the same videos, tiled the same way as the system under test.

    Also returns the tile reconstructions the queries need, keyed by
    ``(video, first frame of the GOP, tile rectangle)``: for each, the set of
    sizes in bytes the queries ask for, one per depth into the GOP.  The
    largest size per key is what a decode cache must hold for every query
    to hit.
    """
    reference = TASM(base_config())
    for name, seed in videos:
        index_scene(reference, build_scene(name, seed, resolution, seconds))
    tile_for_queries(reference, queries)
    requested: dict = {}
    current = [None]

    def note_tile(frames, args, kwargs):
        tile = args[1]
        key = (current[0], tile.frame_start, tile.region.as_int_tuple())
        requested.setdefault(key, set()).add(sum(int(frame.nbytes) for frame in frames))

    digests = {}
    with Tracer() as tracer:
        tracer.wrap(TileCodec, "decode_tile", "video.codec.decode_tile", note_tile)
        for spec in queries:
            current[0] = spec.video
            digests[spec] = result_digest(reference.execute(to_query(spec)).regions)
    return digests, requested


def closed_loop(
    scan_streaming,
    sequences: list[list[QuerySpec]],
    expected: dict,
    seconds: float,
    tracer: Tracer | None,
    scatter_span: str,
    gather_span: str,
) -> LoopResult:
    """Run one closed-loop client thread per sequence for ``seconds``.

    ``scan_streaming(client, spec)`` submits one scan for client ``client``
    and returns its stream: iterating yields ``(sot_index, regions)`` chunks
    and ``result()`` then assembles the :class:`ScanResult`.
    """
    outcome = LoopResult()
    lock = threading.Lock()
    stop = threading.Event()
    barrier = threading.Barrier(len(sequences) + 1)
    scan_ids = itertools.count(1)

    def client(number: int, sequence: list[QuerySpec]) -> None:
        barrier.wait()
        try:
            loop(number, sequence)
        except Exception as error:  # noqa: BLE001 — a dead client fails the run
            with lock:
                outcome.failed += 1
                outcome.errors.append(f"client {number} died: {error!r}")

    def loop(number: int, sequence: list[QuerySpec]) -> None:
        while not stop.is_set():
            pass_started = time.perf_counter()
            for spec in sequence:
                if stop.is_set():
                    return
                scan_id = next(scan_ids)
                first = None
                started = time.perf_counter()
                try:
                    with optional_span(tracer, "client.scan", scan_id):
                        with optional_span(tracer, scatter_span):
                            stream = scan_streaming(number, spec)
                        submitted = time.perf_counter()
                        for _ in stream:
                            if first is None:
                                first = time.perf_counter()
                        drained = time.perf_counter()
                        with optional_span(tracer, gather_span):
                            result = stream.result()
                    finished = time.perf_counter()
                except (TasmError, OSError) as error:
                    with lock:
                        outcome.attempted += 1
                        outcome.failed += 1
                        outcome.errors.append(f"{spec}: {error!r}")
                    continue
                matches = result_digest(result.regions) == expected[spec]
                with lock:
                    outcome.attempted += 1
                    if not matches:
                        outcome.failed += 1
                        outcome.errors.append(f"{spec}: digest mismatch")
                    outcome.latencies.append(finished - started)
                    outcome.submit.append(submitted - started)
                    outcome.first_chunk.append((first or drained) - started)
                    outcome.gather.append(finished - drained)
                    outcome.regions += len(result.regions)
                    outcome.pixels_decoded += result.pixels_decoded
                    outcome.pixels_from_cache += result.pixels_served_from_cache
                    outcome.returned_pixels += result.returned_pixels
                    outcome.index_seconds += result.index_seconds
            with lock:
                outcome.pass_seconds.append(time.perf_counter() - pass_started)

    threads = [
        threading.Thread(target=client, args=(number, sequence), name=f"perfbench-client-{number}")
        for number, sequence in enumerate(sequences)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    stop.wait(seconds)
    stop.set()
    for thread in threads:
        thread.join()
    outcome.seconds = time.perf_counter() - started
    return outcome


def merge(results: list[LoopResult]) -> LoopResult:
    merged = LoopResult()
    for result in results:
        for name, value in vars(result).items():
            setattr(merged, name, getattr(merged, name) + value)
    return merged


def e2e_metrics(loops: list[LoopResult], setups: list[float]) -> dict:
    merged = merge(loops)
    return {
        "setup_s": statistics.median(setups),
        "latencies": merged.latencies,
        "scan_qps": len(merged.latencies) / merged.seconds,
        "workload_s": statistics.median(merged.pass_seconds),
    }


def counter_total(stats: dict, name: str) -> float:
    """A counter from a server's stats, summed over its label sets."""
    family = stats["metrics"].get(name, {})
    return sum(float(entry["value"]) for entry in family.get("values", ()))


def server_side(windows: list[dict]) -> dict:
    """Server-side work over the timed windows, from the servers' own stats.

    Each window holds ``before`` and ``after``: ``{server: stats}`` where
    ``stats`` is a ``TasmServer.stats()`` dictionary (the wire's ``stats``
    op), whose ``metrics`` key is the full metrics snapshot.
    """

    def total(key: str) -> float:
        return sum(
            after[key] - w["before"][server][key]
            for w in windows
            for server, after in w["after"].items()
        )

    def histogram(name: str, labels: dict | None = None) -> dict:
        return combine_histograms(
            [
                histogram_delta(w["before"][server]["metrics"], after["metrics"], name, labels)
                for w in windows
                for server, after in w["after"].items()
            ]
        )

    chunks: dict = {}
    for w in windows:
        for server, after in w["after"].items():
            sent = counter_total(after, "tasm_chunks_sent_total") - counter_total(
                w["before"][server], "tasm_chunks_sent_total"
            )
            chunks[server] = chunks.get(server, 0.0) + sent
    return {
        "pixels_decoded": total("pixels_decoded"),
        "cache_hits": total("cache_hits"),
        "cache_misses": total("cache_misses"),
        "queries": total("queries_completed"),
        "queue_wait": histogram("tasm_queue_wait_seconds"),
        "batch_size": histogram("tasm_batch_size"),
        "query_seconds": histogram("tasm_query_seconds"),
        "singleflight": histogram("tasm_cache_singleflight_wait_seconds"),
        "stages": {
            stage: histogram("tasm_stage_seconds", {"stage": stage})
            for stage in ("plan", "warm", "serve")
        },
        "chunks_by_server": chunks,
    }


def server_send_ms(windows: list[dict]) -> float:
    """Mean time a server spent delivering one scan's chunks (its traces'
    ``wire`` spans, read after each window)."""
    sends = [
        span["seconds"]
        for w in windows
        for trace in w["traces"]
        for span in trace["spans"]
        if span["name"] == "wire"
    ]
    return 1000.0 * statistics.fmean(sends) if sends else 0.0


def server_layers(side: dict, loop: LoopResult) -> dict:
    """Per-layer metrics read from the servers' stats and metrics."""
    scans = max(len(loop.latencies), 1)
    lookups = side["cache_hits"] + side["cache_misses"]
    queue_wait = side["queue_wait"]
    return {
        "codec.pixels_decoded": side["pixels_decoded"] / scans,
        # Every tile decode behind a cache is one lookup miss.
        "codec.tiles_decoded": side["cache_misses"] / scans,
        "cache.hit_ratio": side["cache_hits"] / lookups if lookups else 0.0,
        "cache.singleflight_wait_ms": 1000.0 * side["singleflight"]["sum"] / scans,
        "scheduler.queue_wait_p50_ms": 1000.0 * histogram_quantile(queue_wait, 0.50),
        "scheduler.queue_wait_p95_ms": 1000.0 * histogram_quantile(queue_wait, 0.95),
        "scheduler.batch_size": histogram_mean(side["batch_size"]),
        "transport.wire_ms": 1000.0
        * (statistics.fmean(loop.latencies) - histogram_mean(side["query_seconds"])),
    }


def client_layers(loop: LoopResult, tracer: Tracer, untraced: LoopResult) -> dict:
    """Per-layer metrics the client side measures for itself."""
    scans = max(len(loop.latencies), 1)
    drawn = loop.pixels_decoded + loop.pixels_from_cache
    counters = tracer.counters
    return {
        "index.lookup_ms": 1000.0 * loop.index_seconds / scans,
        "codec.useful_pixel_ratio": loop.returned_pixels / drawn if drawn else 0.0,
        "transport.frame_decode_ms": 1000.0
        * span_seconds(tracer.spans, "service.transport.decode_chunk_payload")
        / scans,
        "transport.bytes_per_region": counters.get("transport.chunk_bytes", 0.0)
        / max(counters.get("transport.regions", 0.0), 1.0),
        "client.first_chunk_ms": 1000.0 * statistics.median(loop.first_chunk),
        "trace.overhead_ms": 1000.0
        * (statistics.median(loop.latencies) - statistics.median(untraced.latencies)),
    }
