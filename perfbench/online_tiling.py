"""online_tiling: the paper's own path, in-process TASM re-tiling as it goes.

One thread, no decode cache.  Seeded Workload-4 sequences (200 queries:
car, then person, then car, Zipfian starts) run over one 2K Visual Road
stand-in (24 s at 10 fps, the same scene on every seed), and
``IncrementalRegretPolicy.on_query`` runs after every scan and re-tiles
SOTs as its regret rule decides.  It is the only
workload that writes (re-encodes) beside reading, so a layout change that
speeds reads at the price of re-encode time or space shows here.  It
bypasses the cache, the scheduler, the transport and the router.

Each round builds a fresh TASM (the set-up it times), then runs one whole
sequence; every round of a run draws its own sequence from the seed.  The output check runs after the rounds: every query is
replayed on a fresh, cacheless TASM re-tiled to the layouts that query ran
on, and its digest must match the timed scan's.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
from typing import NamedTuple

from repro.core import TASM, IncrementalRegretPolicy, fit_cost_model
from repro.workloads import workload_4

from checks import GuardError, result_digest
from inputs import base_config, build_scene, index_scene, peak_rss_mb
from ledger import Tracer, optional_span, self_times
from probes import (
    OUTSIDE_SCANS,
    ledger_metrics,
    span_seconds,
    trace_decode_path,
    trace_index,
    trace_storage_path,
)

QUERY_COUNT = 200
#: The one Visual Road scene every run uses; the workload seed draws the
#: query sequence.  Scenes drawn per seed moved the median scan latency by
#: about 20% between seeds, because the Zipfian starts put most queries on
#: the first seconds of one video.
SCENE_SEED = 401
#: At least this many rounds (fresh TASM + whole sequence) in a run, so
#: set-up time and the sequence's wall time are medians; a traced run splits
#: them between its untraced and traced halves.
MIN_ROUNDS = 3


class _ScanWork(NamedTuple):
    """What one scan decoded and returned."""

    pixels_decoded: int
    tiles_decoded: int
    returned_pixels: int
    regions: int
    decode_seconds: float


class _TimedRetiler:
    """The policy's re-tile executor: physical re-encodes, each timed."""

    def __init__(self, tasm: TASM):
        self.tasm = tasm
        self.latencies: list[float] = []
        self.records = []

    def retile(self, video_name, sot_index, layout) -> float:
        started = time.perf_counter()
        record = self.tasm.retile_sot(video_name, sot_index, layout)
        self.latencies.append(time.perf_counter() - started)
        self.records.append(record)
        return record.encode_seconds


def _scene():
    return build_scene("visual-road-2k", seed=SCENE_SEED)


def _queries(seed: int, round_number: int):
    """Round ``round_number``'s sequence; each round of a run draws its own."""
    sequence_seed = seed * 1000 + round_number
    return list(workload_4(_scene(), query_count=QUERY_COUNT, seed=sequence_seed).workload)


def _round(queries, tracer: Tracer | None) -> dict:
    started = time.perf_counter()
    tasm = TASM(base_config())
    video = _scene()
    index_scene(tasm, video)
    tiled = tasm.video(video.name)
    untiled_bytes = tiled.total_size_bytes(materialise=True)
    setup = time.perf_counter() - started
    if tasm.tile_cache is not None:
        raise GuardError("guard online_tiling.no_cache: the TASM has a decode cache")

    policy = IncrementalRegretPolicy()
    retiler = _TimedRetiler(tasm)
    policy.prepare(tasm, retiler, video.name, None)
    latencies, runs, work = [], [], []
    policy_seconds = retile_in_policy = 0.0
    checked_seconds = 0.0
    with tracer if tracer is not None else contextlib.nullcontext():
        if tracer is not None:
            trace_decode_path(tracer)
            trace_index(tracer, tasm)
            trace_storage_path(tracer)
        pass_started = time.perf_counter()
        for number, query in enumerate(queries, start=1):
            frame_start, frame_stop = query.temporal.resolve(video.frame_count)
            sots = tuple(tiled.sots_for_frames(frame_start, frame_stop))
            layouts = tuple(tiled.layout_for(sot) for sot in sots)
            scan_started = time.perf_counter()
            with optional_span(tracer, "exec.execute", number):
                result = tasm.execute(query)
            latencies.append(time.perf_counter() - scan_started)

            check_started = time.perf_counter()
            runs.append((number - 1, sots, layouts, result_digest(result.regions)))
            work.append(
                _ScanWork(
                    result.pixels_decoded,
                    result.tiles_decoded,
                    result.returned_pixels,
                    len(result.regions),
                    result.decode_seconds,
                )
            )
            checked_seconds += time.perf_counter() - check_started

            retiles_before = len(retiler.latencies)
            policy_started = time.perf_counter()
            with optional_span(tracer, "core.policies.on_query", OUTSIDE_SCANS):
                policy.on_query(tasm, retiler, video.name, query)
            policy_seconds += time.perf_counter() - policy_started
            retile_in_policy += sum(retiler.latencies[retiles_before:])
        sequence_seconds = time.perf_counter() - pass_started - checked_seconds
    if not retiler.latencies:
        raise GuardError("guard online_tiling.retiles: the sequence re-tiled nothing")
    return {
        "queries": queries,
        "setup": setup,
        "sequence_seconds": sequence_seconds,
        "latencies": latencies,
        "runs": runs,
        "work": work,
        "retile_latencies": retiler.latencies,
        "records": retiler.records,
        "storage_ratio": tiled.total_size_bytes() / untiled_bytes,
        "untiled_bytes": untiled_bytes,
        "whatif_seconds": policy_seconds - retile_in_policy,
    }


def _check_outputs(rounds: list[dict]) -> int:
    """Replay every query on a fresh cacheless TASM under the layouts it ran
    on; the number of timed scans whose digest differs."""
    reference = TASM(base_config())
    video = _scene()
    index_scene(reference, video)
    tiled = reference.video(video.name)
    expected: dict = {}
    mismatches = 0
    for round_ in rounds:
        for index, sots, layouts, digest in round_["runs"]:
            query = round_["queries"][index]
            key = (query, layouts)
            if key not in expected:
                for sot, layout in zip(sots, layouts):
                    if tiled.layout_for(sot) != layout:
                        reference.retile_sot(video.name, sot, layout)
                expected[key] = result_digest(reference.execute(query).regions)
            mismatches += expected[key] != digest
    return mismatches


def _phase(seed: int, seconds: float, min_rounds: int, tracer_factory) -> list[dict]:
    rounds = []
    started = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - started < seconds:
        rounds.append(_round(_queries(seed, len(rounds)), tracer_factory()))
        # A TASM and its videos form reference cycles; free the round's one
        # now, so the peak never holds two.
        gc.collect()
    return rounds


def run(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    if not trace:
        rounds = _phase(seed, seconds, MIN_ROUNDS, lambda: None)
        traced_rounds = []
    else:
        rounds = _phase(seed, seconds / 2, MIN_ROUNDS - 1, lambda: None)
        tracers: list[Tracer] = []

        def make_tracer():
            tracers.append(Tracer())
            return tracers[-1]

        traced_rounds = _phase(seed, seconds / 2, MIN_ROUNDS - 1, make_tracer)
    all_rounds = rounds + traced_rounds
    mismatches = _check_outputs(all_rounds)
    attempted = sum(len(r["latencies"]) for r in all_rounds)

    latencies = [value for r in rounds for value in r["latencies"]]
    retiles = [value for r in rounds for value in r["retile_latencies"]]
    e2e = {
        "setup_s": statistics.median(r["setup"] for r in rounds),
        "latencies": latencies,
        "workload_s": statistics.median(r["sequence_seconds"] for r in rounds),
        "scan_qps": len(latencies) / sum(r["sequence_seconds"] for r in rounds),
        "retile_p50_ms": 1000.0 * statistics.median(retiles),
        "storage_ratio": statistics.median(r["storage_ratio"] for r in rounds),
        "peak_rss_mb": peak_rss_mb(),
    }
    report = {
        "attempted": attempted,
        "failed": mismatches,
        "e2e": e2e,
        "info": {
            "queries per sequence": QUERY_COUNT,
            "rounds": len(all_rounds),
            "re-tiles per sequence": [len(r["retile_latencies"]) for r in all_rounds],
            "untiled encoded bytes": rounds[0]["untiled_bytes"],
            "decode cache bytes": 0,
            "decoded working set bytes": "n/a (no cache)",
        },
    }
    if trace:
        report["layers"] = _layers(traced_rounds, tracers, rounds)
        for number, tracer in enumerate(tracers):
            tracer.write(out_dir / f"spans-online_tiling-{seed}-{number}.json")
    return report


def _layers(rounds: list[dict], tracers: list[Tracer], untraced_rounds: list[dict]) -> dict:
    spans = [span for tracer in tracers for span in tracer.spans]
    counters: dict[str, float] = {}
    for tracer in tracers:
        for name, value in tracer.counters.items():
            counters[name] = counters.get(name, 0.0) + value
    work = [item for r in rounds for item in r["work"]]
    scans = len(work)
    decoded = sum(item.pixels_decoded for item in work)
    returned = sum(item.returned_pixels for item in work)
    regions = sum(item.regions for item in work)
    # The paper's validation of C = beta*P + gamma*T: fit on the untraced
    # scans' measured decode times, predict the traced scans' decodes.
    model = fit_cost_model(
        [
            (item.pixels_decoded, item.tiles_decoded, item.decode_seconds)
            for r in untraced_rounds
            for item in r["work"]
        ]
    )
    untraced = [value for r in untraced_rounds for value in r["latencies"]]
    records = [record for r in rounds for record in r["records"]]
    traced = [value for r in rounds for value in r["latencies"]]
    wall = sum(r["sequence_seconds"] for r in rounds)
    layers = {
        "index.lookup_ms": 1000.0 * span_seconds(spans, "index.lookup", True) / scans,
        "index.entries_per_region": counters.get("index.entries", 0.0) / max(regions, 1),
        "codec.decode_ms": 1000.0 * span_seconds(spans, "video.codec.decode_tile") / scans,
        "codec.tiles_decoded": sum(item.tiles_decoded for item in work) / scans,
        "codec.pixels_decoded": decoded / scans,
        "codec.useful_pixel_ratio": returned / decoded if decoded else 0.0,
        "codec.model_ms": 1000.0
        * sum(model.predict(item.pixels_decoded, item.tiles_decoded) for item in work)
        / scans,
        "policy.whatif_ms": 1000.0 * sum(r["whatif_seconds"] for r in rounds) / scans,
        "tiles.partition_ms": 1000.0
        * span_seconds(spans, "tiles.partition_around_boxes")
        / scans,
        "storage.encode_ms": 1000.0
        * span_seconds(spans, "storage.encode_sot")
        / max(len(records), 1),
        "storage.bytes_per_pixel_encoded": sum(r.bytes_written for r in records)
        / max(sum(r.pixels_encoded for r in records), 1),
        "decoder.assemble_ms": 1000.0
        * self_times(spans).get("video.decoder.decode_regions", 0.0)
        / scans,
        "trace.overhead_ms": 1000.0
        * (statistics.median(traced) - statistics.median(untraced)),
    }
    layers.update(ledger_metrics(spans, wall, scans))
    return layers
