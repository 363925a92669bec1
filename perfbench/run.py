"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload online_tiling --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans installed.
``--trace 1`` runs an untraced half and a traced half of the same length and
reports the per-layer metrics, the per-layer ledger and the tracing overhead
(the traced half's median scan latency minus the untraced half's); spans are
written under ``perfbench/out/`` when the run ends.

Every metric is printed by name with its unit, then the last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Any output-digest
mismatch, failed scan or broken workload guard makes the exit code 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

from checks import (
    MIN_SAMPLES_BEYOND,
    GuardError,
    percentile,
    samples_beyond,
    tail_percentile,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

WORKLOADS = ("online_tiling", "serve_hot", "cluster_spill")

#: End-to-end metrics: name -> unit.  Every run reports all of them.
END_TO_END = {
    "setup_s": "s",
    "scan_p50_ms": "ms",
    "scan_p95_ms": "ms",
    "scan_qps": "1/s",
    "workload_s": "s",
    "retile_p50_ms": "ms",
    "storage_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> unit.  A traced run reports all of them; one a
#: workload does not load (or cannot observe) reads 0 and is listed as n/a.
PER_LAYER = {
    "index.lookup_ms": "ms",
    "index.entries_per_region": "count",
    "codec.decode_ms": "ms",
    "codec.tiles_decoded": "count",
    "codec.pixels_decoded": "count",
    "codec.useful_pixel_ratio": "ratio",
    "codec.model_ms": "ms",
    "decoder.assemble_ms": "ms",
    "exec.warm_ms": "ms",
    "exec.serve_ms": "ms",
    "exec.batch_queries": "count",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "cache.singleflight_wait_ms": "ms",
    "policy.whatif_ms": "ms",
    "tiles.partition_ms": "ms",
    "storage.encode_ms": "ms",
    "storage.bytes_per_pixel_encoded": "B/px",
    "scheduler.queue_wait_p50_ms": "ms",
    "scheduler.queue_wait_p95_ms": "ms",
    "scheduler.batch_size": "count",
    "transport.frame_encode_ms": "ms",
    "transport.frame_decode_ms": "ms",
    "transport.bytes_per_region": "B",
    "transport.wire_ms": "ms",
    "transport.server_send_ms": "ms",
    "client.first_chunk_ms": "ms",
    "router.scatter_ms": "ms",
    "router.gather_ms": "ms",
    "router.shard_skew": "ratio",
    "router.failovers": "count",
    "ledger.wall_ms": "ms",
    "ledger.index_ms": "ms",
    "ledger.codec_ms": "ms",
    "ledger.decoder_ms": "ms",
    "ledger.exec_ms": "ms",
    "ledger.policy_ms": "ms",
    "ledger.tiles_ms": "ms",
    "ledger.storage_ms": "ms",
    "ledger.scheduler_ms": "ms",
    "ledger.transport_ms": "ms",
    "ledger.client_ms": "ms",
    "ledger.router_ms": "ms",
    "unattributed_ms": "ms",
    "trace.overhead_ms": "ms",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Put the checkout's ``src`` on the path; fail when it holds no program."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {source}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(source))


def _latency_metrics(latencies: list[float]) -> dict:
    """Median and p95 scan latency; p95 needs ten samples beyond it."""
    if samples_beyond(len(latencies), 95.0) < MIN_SAMPLES_BEYOND:
        raise GuardError(
            f"guard samples: {len(latencies)} scans leave fewer than "
            f"{MIN_SAMPLES_BEYOND} samples beyond p95"
        )
    return {
        "scan_p50_ms": 1000.0 * percentile(latencies, 50.0),
        "scan_p95_ms": 1000.0 * percentile(latencies, 95.0),
    }


def _tail_note(latencies: list[float]) -> str:
    tail = tail_percentile(latencies)
    if tail is None:
        return f"{len(latencies)} untraced scans"
    return (
        f"{len(latencies)} untraced scans; highest percentile with >= "
        f"{MIN_SAMPLES_BEYOND} samples beyond it: p{tail[0]:g} = {1000 * tail[1]:.3f} ms"
    )


def _print_metrics(title: str, values: dict, units: dict, missing=()) -> None:
    print(f"{title}:")
    for name, unit in units.items():
        shown = "n/a" if name in missing else f"{values[name]:.6g}"
        print(f"  {name:34s} {shown:>14s} {unit}")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    module = importlib.import_module(args.workload)
    started = time.perf_counter()
    try:
        report = module.run(args.seed, args.seconds, bool(args.trace), OUT_DIR)
        e2e = dict(report["e2e"])
        latencies = e2e.pop("latencies")
        note = _tail_note(latencies)
        if not args.trace:
            e2e.update(_latency_metrics(latencies))
    except GuardError as error:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
        return 1
    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {args.workload}, seed {args.seed}, {time.perf_counter() - started:.1f} s")
    for key, value in report["info"].items():
        print(f"  {key}: {value}")
    print(f"  {note}")
    print(f"  error_rate: {failed / attempted:.6g} ({failed} of {attempted} scans failed or mismatched)")
    if args.trace:
        layers = report["layers"]
        missing = [name for name in PER_LAYER if name not in layers]
        metrics = {name: layers.get(name, 0.0) for name in PER_LAYER}
        _print_metrics("per-layer metrics (traced run)", metrics, PER_LAYER, missing)
        units = PER_LAYER
    else:
        metrics = {name: e2e[name] for name in END_TO_END}
        _print_metrics("end-to-end metrics", metrics, END_TO_END)
        units = END_TO_END
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
