"""Tests for the benchmark's own helpers.

Run with ``python -m pytest perfbench`` from the root of the repository.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from checks import percentile, result_digest, samples_beyond, tail_percentile  # noqa: E402
from ledger import Span, Tracer, self_times  # noqa: E402


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10009, 99.9)],
)
def test_tail_percentile_is_highest_with_ten_samples_beyond(count, expected):
    values = [float(value) for value in range(count)]
    tail = tail_percentile(values)
    if expected is None:
        assert tail is None
        return
    q, value = tail
    assert q == expected
    assert samples_beyond(count, q) >= 10
    assert sum(1 for sample in values if sample > value) >= 10


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50.0) == 3.0
    assert percentile(values, 80.0) == 4.0
    assert percentile(values, 81.0) == 5.0
    assert percentile(values, 100.0) == 5.0
    assert percentile([7.0], 95.0) == 7.0


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def _span(span_id, parent, name, start, end):
    return Span(span_id, parent, name, float(start), float(end), None)


def test_self_time_subtracts_nested_children_once():
    spans = [
        _span(1, None, "root", 0, 10),
        _span(2, 1, "child", 2, 5),
        _span(3, 2, "grandchild", 3, 4),
    ]
    assert self_times(spans) == {"root": 7.0, "child": 2.0, "grandchild": 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, None, "root", 0, 10),
        _span(2, 1, "a", 1, 4),
        _span(3, 1, "b", 3, 6),
        _span(4, 1, "c", 6, 7),
    ]
    assert self_times(spans)["root"] == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    spans = [_span(1, None, "root", 0, 10), _span(2, 1, "late", 8, 12)]
    totals = self_times(spans)
    assert totals["root"] == pytest.approx(8.0)
    assert totals["late"] == pytest.approx(4.0)


def test_tracer_links_parents_and_scan_ids_and_restores():
    class Layer:
        def outer(self):
            return self.inner()

        def inner(self):
            return 1

    tracer = Tracer()
    with tracer:
        tracer.wrap(Layer, "outer", "layer.outer")
        tracer.wrap(Layer, "inner", "layer.inner")
        with tracer.span("client.scan", scan_id=7):
            assert Layer().outer() == 1
    assert "outer" in Layer.__dict__ and Layer.outer.__name__ == "outer"
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["layer.inner"].parent_id == by_name["layer.outer"].span_id
    assert by_name["layer.outer"].parent_id == by_name["client.scan"].span_id
    assert {span.scan_id for span in tracer.spans} == {7}
    totals = self_times(tracer.spans)
    wall = by_name["client.scan"].seconds
    assert sum(totals.values()) == pytest.approx(wall, rel=1e-9, abs=1e-12)


# ----------------------------------------------------------------------
# The result digest across paths
# ----------------------------------------------------------------------
def test_digest_changes_with_pixels_labels_and_geometry():
    from repro.core.scan import ScanRegion
    from repro.geometry import Rectangle

    pixels = np.arange(12, dtype=np.uint8).reshape(3, 4)
    base = ScanRegion(2, Rectangle(0, 0, 4, 3), pixels, "car")
    digest = result_digest([base])
    assert digest == result_digest([ScanRegion(2, Rectangle(0, 0, 4, 3), pixels.copy(), "car")])
    changed = pixels.copy()
    changed[0, 0] += 1
    assert digest != result_digest([ScanRegion(2, Rectangle(0, 0, 4, 3), changed, "car")])
    assert digest != result_digest([ScanRegion(2, Rectangle(0, 0, 4, 3), pixels, "person")])
    assert digest != result_digest([ScanRegion(3, Rectangle(0, 0, 4, 3), pixels, "car")])
    assert digest != result_digest([ScanRegion(2, Rectangle(1, 0, 5, 3), pixels, "car")])


def test_digest_is_the_same_in_process_over_the_socket_and_through_the_cluster():
    from repro.cluster import ClusterRouter, ClusterSupervisor, SceneDataset
    from repro.config import CodecConfig, TasmConfig
    from repro.core import TASM, Query
    from repro.service import RemoteTasmClient, SocketTransport, TasmServer

    config = TasmConfig(
        codec=CodecConfig(gop_frames=5, frame_rate=5), cluster_replication_factor=1
    )
    dataset = SceneDataset(names=("digest-scene",))
    labels = ["car", "person"]

    reference = TASM(config)
    dataset(reference)
    in_process = result_digest(
        reference.execute(Query.select_any(labels, "digest-scene")).regions
    )

    served = TASM(config)
    dataset(served)
    with TasmServer(served) as server, SocketTransport(server) as transport:
        with RemoteTasmClient(transport.address, use_shm=False) as client:
            socket_digest = result_digest(client.scan("digest-scene", labels).regions)

    with ClusterSupervisor(config, shards=2, dataset=dataset) as supervisor:
        with ClusterRouter(supervisor.addresses, config=config) as router:
            cluster_digest = result_digest(router.scan("digest-scene", labels).regions)

    assert in_process == socket_digest == cluster_digest


# ----------------------------------------------------------------------
# BENCHMARK.json names what run.py reports
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_runner():
    import run

    description = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in description["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in description["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in description["workloads"]) == run.WORKLOADS
