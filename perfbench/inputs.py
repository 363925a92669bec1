"""Seeded inputs: synthetic videos, their detections, and query sequences.

Everything the program receives is generated here from the workload seed,
so one seed always gives the same videos, the same index contents and the
same queries.  Videos are the Visual Road stand-in
(:func:`repro.datasets.visual_road_scene`) with one-second GOPs and SOTs.
"""

from __future__ import annotations

import json
import os
import resource
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.config import CodecConfig, TasmConfig
from repro.core import Query, TASM, Workload
from repro.core.predicates import LabelPredicate, TemporalPredicate
from repro.datasets import visual_road_scene

__all__ = [
    "FRAME_RATE",
    "QuerySpec",
    "ShardDataset",
    "base_config",
    "build_scene",
    "index_scene",
    "mixed_sequence",
    "peak_rss_mb",
    "tile_for_queries",
    "to_query",
]

#: Frames per second of every generated video; GOPs and SOTs are one second.
FRAME_RATE = 10


class QuerySpec(NamedTuple):
    """One scan as a client states it: video, labels, optional frame range."""

    video: str
    labels: tuple[str, ...]
    frame_start: int | None = None
    frame_stop: int | None = None


def base_config(**overrides) -> TasmConfig:
    codec = CodecConfig(gop_frames=FRAME_RATE, frame_rate=FRAME_RATE)
    return TasmConfig(codec=codec, **overrides)


def to_query(spec: QuerySpec) -> Query:
    """The in-process query the server builds for the same wire request."""
    labels = spec.labels
    predicate = (
        LabelPredicate.single(labels[0]) if len(labels) == 1 else LabelPredicate.any_of(labels)
    )
    return Query(
        video=spec.video,
        predicate=predicate,
        temporal=TemporalPredicate(spec.frame_start, spec.frame_stop),
    )


def build_scene(name: str, seed: int, resolution: str = "2K", seconds: float = 24.0):
    return visual_road_scene(
        name, resolution=resolution, duration_seconds=seconds, frame_rate=FRAME_RATE, seed=seed
    )


def index_scene(tasm: TASM, video) -> None:
    """Ingest a video and index its ground-truth detections."""
    tasm.ingest(video)
    tasm.add_detections(
        video.name,
        [detection for frame in range(video.frame_count) for detection in video.ground_truth(frame)],
    )


def mixed_sequence(rng: np.random.Generator, videos: list[str], frame_count: int) -> list[QuerySpec]:
    """A serving client's query sequence over ``videos``.

    Every video gets the same six scans, single-label, multi-label and
    temporal-window, each over enough frames that a chunk carries many
    regions; the seed shuffles their order.  Fixing the mix keeps the work
    per sequence alike across seeds.
    """
    half = frame_count // 2
    templates = [
        (("car",), None, None),
        (("person",), None, None),
        (("car", "person"), None, None),
        (("car",), 0, half),
        (("person",), half, frame_count),
        (("car", "person"), frame_count // 4, frame_count // 4 + half),
    ]
    sequence = [QuerySpec(video, *template) for video in videos for template in templates]
    return [sequence[int(index)] for index in rng.permutation(len(sequence))]


def tile_for_queries(tasm: TASM, queries: list[QuerySpec]) -> tuple[list[float], int]:
    """Tile each video for its known queries (the paper's KQKO, Section 4.2).

    Every SOT is first encoded untiled (first touch), then each SOT whose
    fine-grained layout around the queried objects passes the alpha rule is
    re-tiled.  Returns the latency of each ``retile_sot`` in seconds and the
    untiled encoded bytes of the videos.
    """
    workload = Workload.from_queries("known", [to_query(spec) for spec in queries])
    latencies = []
    untiled_bytes = 0
    for video in sorted({spec.video for spec in queries}):
        untiled_bytes += tasm.video(video).total_size_bytes(materialise=True)
        chosen = tasm.optimize_for_workload(video, workload, apply=False)
        for sot_index, layout in sorted(chosen.items()):
            started = time.perf_counter()
            tasm.retile_sot(video, sot_index, layout)
            latencies.append(time.perf_counter() - started)
    return latencies, untiled_bytes


class ShardDataset:
    """What each cluster shard loads at start-up: the seeded videos, indexed
    and tiled for the known queries.

    Runs inside the shard process.  The retile latencies and the encoded
    bytes it measures there are written to ``report_dir`` as one JSON file
    per shard, since a shard has no other channel for them.
    """

    def __init__(self, videos, resolution, seconds, queries, report_dir):
        self.videos = tuple(videos)
        self.resolution = resolution
        self.seconds = seconds
        self.queries = list(queries)
        self.report_dir = str(report_dir)

    def __call__(self, tasm: TASM) -> None:
        for name, seed in self.videos:
            index_scene(tasm, build_scene(name, seed, self.resolution, self.seconds))
        retiles, untiled_bytes = tile_for_queries(tasm, self.queries)
        report = {
            "retile_seconds": retiles,
            "untiled_bytes": untiled_bytes,
            "stored_bytes": sum(tasm.video(name).total_size_bytes() for name, _ in self.videos),
        }
        path = Path(self.report_dir) / f"shard-{os.getpid()}.json"
        path.write_text(json.dumps(report))


def peak_rss_mb(children_pids=()) -> float:
    """Peak resident memory of this process plus the given live children."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in children_pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0
