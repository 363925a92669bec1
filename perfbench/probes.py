"""Where the traced run puts its spans, and how spans become the ledger.

Spans wrap public functions of the program's modules, named
``<layer>.<function>``; the ledger sums self time per layer.  The layer of
a span is the longest prefix of its name found in :data:`LAYERS`.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core import tasm as tasm_module
from repro.exec.cache import TileDecodeCache
from repro.service import transport as transport_module
from repro.storage.tiled_video import TiledVideo
from repro.video.codec import TileCodec
from repro.video.decoder import VideoDecoder
from repro.video.encoder import VideoEncoder

from ledger import Span, Tracer, self_times

__all__ = [
    "LAYERS",
    "OUTSIDE_SCANS",
    "combine_histograms",
    "histogram_delta",
    "histogram_mean",
    "histogram_quantile",
    "ledger_metrics",
    "span_seconds",
    "trace_decode_path",
    "trace_index",
    "trace_storage_path",
    "trace_transport",
]

#: Ledger layer for each span-name prefix (module names of the program).
LAYERS = {
    "index": "index",
    "video.codec": "codec",
    "video.decoder": "decoder",
    "exec": "exec",
    "core.policies": "policy",
    "tiles": "tiles",
    "storage": "storage",
    "service.scheduler": "scheduler",
    "service.transport": "transport",
    "client": "client",
    "cluster": "router",
}
#: Spans that only wait for other layers: their self time is left to
#: ``unattributed_ms`` instead of being charged to a layer.
WAITING_SPANS = {"client.scan"}
#: Scan id given to root spans of work done between scans (the policy step).
OUTSIDE_SCANS = 0


def _layer(name: str) -> str | None:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        layer = LAYERS.get(".".join(parts[:cut]))
        if layer is not None:
            return layer
    return None


def trace_decode_path(tracer: Tracer) -> None:
    """Tile decodes, region assembly and decode-cache calls."""
    tracer.wrap(TileCodec, "decode_tile", "video.codec.decode_tile")
    tracer.wrap(VideoDecoder, "decode_regions", "video.decoder.decode_regions")
    tracer.wrap(VideoDecoder, "prefetch_regions", "video.decoder.prefetch_regions")
    for method in ("get", "put", "begin_decode", "end_decode"):
        tracer.wrap(TileDecodeCache, method, f"exec.cache.{method}")


def trace_index(tracer: Tracer, tasm) -> None:
    """Semantic-index lookups, counting the entries each returns to a scan."""

    def count_entries(entries, args, kwargs):
        if tracer.current_scan() != OUTSIDE_SCANS:
            tracer.count("index.entries", len(entries))

    tracer.wrap(tasm.semantic_index, "lookup", "index.lookup", count_entries)


def trace_storage_path(tracer: Tracer) -> None:
    """Layout partitioning, re-tiling and SOT encoding."""
    tracer.wrap(tasm_module, "partition_around_boxes", "tiles.partition_around_boxes")
    tracer.wrap(TiledVideo, "retile", "storage.retile")
    tracer.wrap(VideoEncoder, "encode_sot", "storage.encode_sot")


def trace_transport(tracer: Tracer) -> None:
    """Chunk framing on the sending side and parsing on the receiving side."""

    def count_frame(decoded, args, kwargs):
        header, regions = decoded
        tracer.count("transport.chunk_bytes", len(args[0]))
        tracer.count("transport.regions", len(regions))

    tracer.wrap(transport_module, "chunk_parts", "service.transport.chunk_parts")
    tracer.wrap(
        transport_module,
        "decode_chunk_payload",
        "service.transport.decode_chunk_payload",
        count_frame,
    )


def span_seconds(spans: list[Span], name: str, in_scans_only: bool = False) -> float:
    """Total duration of spans called ``name``."""
    return sum(
        span.seconds
        for span in spans
        if span.name == name and not (in_scans_only and span.scan_id == OUTSIDE_SCANS)
    )


def ledger_metrics(
    spans: list[Span], wall_seconds: float, units: int, external: dict[str, float] | None = None
) -> dict[str, float]:
    """Per-layer self time per unit of work, and the unattributed remainder.

    ``wall_seconds`` is the wall time the layers should account for and
    ``units`` the scans (or queries) it covers.  ``external`` adds layer
    seconds measured outside the benchmark process (server metrics).
    """
    per_layer: dict[str, float] = defaultdict(float)
    for name, seconds in self_times(spans).items():
        layer = _layer(name)
        if layer is not None and name not in WAITING_SPANS:
            per_layer[layer] += seconds
    for layer, seconds in (external or {}).items():
        per_layer[layer] += seconds
    metrics = {
        f"ledger.{layer}_ms": 1000.0 * per_layer.get(layer, 0.0) / units
        for layer in sorted(set(LAYERS.values()))
    }
    metrics["ledger.wall_ms"] = 1000.0 * wall_seconds / units
    metrics["unattributed_ms"] = metrics["ledger.wall_ms"] - sum(
        value for key, value in metrics.items() if key != "ledger.wall_ms"
    )
    return metrics


def histogram_delta(before: dict, after: dict, name: str, labels: dict | None = None) -> dict:
    """One histogram series from two metrics snapshots, as the difference."""

    def series(snapshot):
        for entry in snapshot.get(name, {}).get("values", ()):
            if entry.get("labels", {}) == (labels or {}):
                return entry
        return {"count": 0, "sum": 0.0, "buckets": []}

    old, new = series(before), series(after)
    old_buckets = dict((str(bound), count) for bound, count in old["buckets"])
    return {
        "count": new["count"] - old["count"],
        "sum": new["sum"] - old["sum"],
        "buckets": [
            (bound, count - old_buckets.get(str(bound), 0)) for bound, count in new["buckets"]
        ],
    }


def histogram_quantile(histogram: dict, q: float) -> float:
    """The ``q`` quantile of cumulative buckets, interpolated in its bucket."""
    count = histogram["count"]
    if count <= 0:
        return 0.0
    rank = q * count
    lower_bound, lower_count = 0.0, 0
    for bound, cumulative in histogram["buckets"]:
        if cumulative >= rank:
            if bound == "+Inf":
                return float(lower_bound)
            width = cumulative - lower_count
            share = (rank - lower_count) / width if width else 1.0
            return lower_bound + (float(bound) - lower_bound) * share
        lower_bound, lower_count = float(bound), cumulative
    return float(lower_bound)


def combine_histograms(histograms: list[dict]) -> dict:
    """The sum of histogram series with the same bucket bounds."""
    by_bound: dict = {}
    for histogram in histograms:
        for bound, count in histogram["buckets"]:
            by_bound[bound] = by_bound.get(bound, 0) + count
    return {
        "count": sum(histogram["count"] for histogram in histograms),
        "sum": sum(histogram["sum"] for histogram in histograms),
        "buckets": list(by_bound.items()),
    }


def histogram_mean(histogram: dict) -> float:
    return histogram["sum"] / histogram["count"] if histogram["count"] else 0.0
