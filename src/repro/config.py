"""Configuration for the TASM storage manager.

The paper's tuning knobs are collected in :class:`TasmConfig`:

* ``alpha`` — the not-tiling threshold from Section 3.4.4 / 5.2.3: a layout is
  only considered useful when the pixels it decodes for the workload are below
  ``alpha`` times the pixels decoded by the untiled layout (the paper uses 0.8).
* ``eta`` — the regret multiplier from Section 4.4: a SOT is re-tiled with an
  alternative layout once its accumulated regret exceeds ``eta`` times the
  estimated re-encoding cost (the paper uses 1.0, mirroring online indexing).
* ``beta`` / ``gamma`` — coefficients of the decode cost model
  ``C(s, q, L) = beta * P + gamma * T`` from Section 4.1.  Defaults come from
  fitting the simulated codec (see ``repro.core.cost.fit_cost_model``); they
  can be re-estimated for any deployment.
* codec parameters — GOP length, quantisation step, block size, minimum tile
  dimensions (HEVC imposes a minimum tile width/height; we default to 64 px
  wide by 64 px tall after block snapping).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

from .errors import ConfigurationError

__all__ = ["CodecConfig", "CostCoefficients", "TasmConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class CodecConfig:
    """Parameters of the simulated tile-capable codec.

    Attributes:
        gop_frames: number of frames in a group of pictures.  The paper treats
            one-second GOPs (30 frames at 30 fps) as the default.
        frame_rate: frames per second, used to convert durations to frames.
        block_size: encoding block granularity; tile boundaries are snapped to
            multiples of this value, mirroring HEVC coding-tree-unit alignment.
        min_tile_width / min_tile_height: smallest tile the codec accepts.
        keyframe_quant: quantisation step for intra (key) frames.
        predicted_quant: quantisation step for predicted (P) frames.
        boundary_quant_penalty: additional quantisation applied to blocks that
            touch a tile boundary.  This reproduces the paper's observation
            that tiling introduces boundary artifacts that reduce PSNR.
        tile_overhead_bytes: per-tile container/header overhead added to the
            stored size of every encoded tile.
    """

    gop_frames: int = 30
    frame_rate: int = 30
    block_size: int = 16
    min_tile_width: int = 64
    min_tile_height: int = 64
    keyframe_quant: int = 4
    predicted_quant: int = 6
    boundary_quant_penalty: int = 6
    tile_overhead_bytes: int = 96

    def __post_init__(self) -> None:
        if self.gop_frames <= 0:
            raise ConfigurationError("gop_frames must be positive")
        if self.frame_rate <= 0:
            raise ConfigurationError("frame_rate must be positive")
        if self.block_size <= 0:
            raise ConfigurationError("block_size must be positive")
        if self.min_tile_width < self.block_size or self.min_tile_height < self.block_size:
            raise ConfigurationError(
                "minimum tile dimensions must be at least one block"
            )
        if self.keyframe_quant < 1 or self.predicted_quant < 1:
            raise ConfigurationError("quantisation steps must be >= 1")
        if self.boundary_quant_penalty < 0:
            raise ConfigurationError("boundary_quant_penalty must be non-negative")
        if self.tile_overhead_bytes < 0:
            raise ConfigurationError("tile_overhead_bytes must be non-negative")

    @property
    def gop_seconds(self) -> float:
        return self.gop_frames / self.frame_rate


@dataclass(frozen=True)
class CostCoefficients:
    """Coefficients of the paper's linear decode-cost model ``beta*P + gamma*T``.

    ``beta`` is the cost per decoded pixel and ``gamma`` the fixed cost per
    decoded tile.  The units are arbitrary (the evaluation normalises to the
    untiled baseline); what matters is their ratio, which determines where the
    "more tiles versus fewer pixels" trade-off crosses over.  The defaults are
    calibrated against the simulated codec the same way the paper calibrates
    against its prototype: fitting decode time to pixels and tiles decoded
    (see ``benchmarks/bench_cost_model_fit.py``) gives a per-tile overhead
    worth roughly forty thousand pixels, so gamma / beta = 4e4.
    """

    beta: float = 1.0e-6
    gamma: float = 4.0e-2

    def __post_init__(self) -> None:
        if self.beta <= 0 or self.gamma < 0:
            raise ConfigurationError("beta must be > 0 and gamma >= 0")


@dataclass(frozen=True)
class TasmConfig:
    """Top-level configuration of the TASM storage manager."""

    codec: CodecConfig = field(default_factory=CodecConfig)
    cost: CostCoefficients = field(default_factory=CostCoefficients)
    #: Not-tiling threshold alpha from Section 3.4.4 (paper value 0.8).
    alpha: float = 0.8
    #: Regret threshold multiplier eta from Section 4.4 (paper value 1.0).
    eta: float = 1.0
    #: Default tile granularity for layouts TASM generates on its own.
    fine_grained: bool = True
    #: Number of frames covered by one sequence-of-tiles (layout duration).
    #: Must be a multiple of the GOP length; defaults to one GOP.
    sot_frames: int | None = None
    #: Re-encoding cost per pixel, used by R(s, L) estimates.
    encode_cost_per_pixel: float = 2.0e-6
    #: Fixed re-encoding cost per tile.
    encode_cost_per_tile: float = 2.0e-3
    #: Capacity of the persistent tile-decode cache in decoded bytes; past it
    #: the least recently used tiles are evicted.  0 disables the persistent
    #: cache, preserving the paper's one-shot scan behaviour; batched
    #: execution then uses a cache scoped to each batch.
    decode_cache_bytes: int = 0
    #: Batching window of the service layer (``repro.service``): queries
    #: arriving within this many milliseconds of the first pending query are
    #: coalesced into one ``execute_batch`` call so concurrent clients share
    #: decodes.  0 batches only what is already queued when a batch forms.
    service_batch_window_ms: float = 5.0
    #: Upper bound on the number of queries coalesced into one service batch.
    service_max_batch: int = 16
    #: Number of batch-runner threads in the service scheduler.  1 reproduces
    #: the serial scheduler (one batch at a time); more runners let batch
    #: execution overlap batch collection, so decode-bound mixes keep the
    #: pipeline full.  Concurrent batches are safe: per-``(video, SOT)``
    #: readers-writer locks order them against writes, and the tile cache and
    #: lazy SOT encoding are lock-protected.
    service_runners: int = 2
    #: Per-stream chunk-buffer bound of the service layer.  A query's
    #: :class:`~repro.service.scheduler.ResultStream` holds at most this many
    #: undelivered per-SOT chunks; when a consumer falls behind, the producing
    #: batch runner suspends instead of buffering without limit
    #: (backpressure).  0 means unbounded (no suspension), which restores the
    #: pre-backpressure behaviour.
    service_stream_buffer_chunks: int = 64
    #: Master switch for the observability surface (``repro.obs``): the
    #: metrics registry, per-query traces, and the slow-query log.  Off, the
    #: server hands out no-op instruments and the shared null trace, so the
    #: instrumented hot paths cost one no-op call per update.
    observability: bool = True
    #: Queries slower than this many milliseconds (submit to completion) are
    #: logged through ``logging`` (logger ``repro.obs.slowlog``) with their
    #: full span breakdown attached.  0 disables the slow-query log.
    slow_query_ms: float = 1000.0
    #: Completed traces kept in the bounded in-memory ring the ``trace``
    #: wire op reads from (newest first).
    trace_history: int = 256
    #: Admission bound of the service scheduler: a query arriving while this
    #: many are already pending is refused immediately with
    #: :class:`~repro.errors.ServerBusy` instead of joining a backlog the
    #: server cannot drain.  0 disables the bound (accept everything).
    service_max_queue_depth: int = 0
    #: Queue-wait breaker threshold in milliseconds: when the p95 of
    #: ``tasm_queue_wait_seconds`` (over a recent window of batches, read
    #: from the observability surface) exceeds this, the scheduler sheds the
    #: lowest-priority pending queries with :class:`~repro.errors.ServerBusy`
    #: until the backlog halves.  0 disables the breaker.  Requires
    #: ``observability=True`` — the breaker reads the metrics registry.
    service_shed_queue_wait_ms: float = 0.0
    #: A query whose execution kills this many batch-runner threads is
    #: quarantined with :class:`~repro.errors.PoisonQueryError` instead of
    #: being re-queued a further time (the supervisor restarts crashed
    #: runners and re-queues their batches' other queries regardless).
    service_poison_query_kills: int = 3
    #: Seconds an accepted socket may sit without completing its first frame
    #: (normally the hello) before the server closes it and counts
    #: ``tasm_handshakes_timed_out_total`` — a peer that connects and never
    #: speaks must not pin a server thread forever.  0 disables the bound.
    service_handshake_timeout_s: float = 5.0
    #: Replication factor of the cluster layer (``repro.cluster``): every
    #: ``(video, SOT)`` key is owned by this many distinct shards on the
    #: consistent-hash ring, so a mid-scan shard failure fails over to a
    #: replica instead of failing the query.  1 means no replication (each
    #: key has exactly one owner); values above the shard count clamp to it.
    cluster_replication_factor: int = 1
    #: Virtual nodes per shard on the cluster's consistent-hash ring.  More
    #: vnodes smooth the key distribution (each shard owns ~1/N of the
    #: keyspace with lower variance) at the cost of a larger ring to bisect.
    cluster_ring_vnodes: int = 64
    #: Seconds between the cluster router's background health probes of its
    #: shards (each probe is one bounded hello handshake on a fresh
    #: connection).  0 disables background probing — health is then only
    #: observed through scan traffic.
    cluster_health_interval_s: float = 0.0
    #: A :class:`~repro.faults.FaultPlan` activating deterministic fault
    #: injection at the server-side points (transport drop/cut/delay,
    #: decoder errors, runner death).  None — the default — leaves every
    #: injection hook a no-op ``None`` check.
    fault_plan: "Any | None" = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError("alpha must be in (0, 1]")
        if self.eta < 0.0:
            raise ConfigurationError("eta must be non-negative")
        if self.sot_frames is not None:
            if self.sot_frames <= 0:
                raise ConfigurationError("sot_frames must be positive")
            if self.sot_frames % self.codec.gop_frames != 0:
                raise ConfigurationError(
                    "sot_frames must be a multiple of the GOP length: layout "
                    "changes can only happen at GOP boundaries"
                )
        if self.encode_cost_per_pixel <= 0 or self.encode_cost_per_tile < 0:
            raise ConfigurationError("encode cost coefficients must be positive")
        if self.decode_cache_bytes < 0:
            raise ConfigurationError("decode_cache_bytes must be non-negative")
        if self.service_batch_window_ms < 0:
            raise ConfigurationError("service_batch_window_ms must be non-negative")
        if self.service_max_batch < 1:
            raise ConfigurationError("service_max_batch must be at least 1")
        if self.service_runners < 1:
            raise ConfigurationError("service_runners must be at least 1")
        if self.service_stream_buffer_chunks < 0:
            raise ConfigurationError(
                "service_stream_buffer_chunks must be non-negative (0 = unbounded)"
            )
        if self.slow_query_ms < 0:
            raise ConfigurationError(
                "slow_query_ms must be non-negative (0 = slow-query log off)"
            )
        if self.trace_history < 1:
            raise ConfigurationError("trace_history must be at least 1")
        if self.service_max_queue_depth < 0:
            raise ConfigurationError(
                "service_max_queue_depth must be non-negative (0 = unbounded)"
            )
        if self.service_shed_queue_wait_ms < 0:
            raise ConfigurationError(
                "service_shed_queue_wait_ms must be non-negative (0 = breaker off)"
            )
        if self.service_poison_query_kills < 1:
            raise ConfigurationError("service_poison_query_kills must be at least 1")
        if self.service_handshake_timeout_s < 0:
            raise ConfigurationError(
                "service_handshake_timeout_s must be non-negative (0 = no bound)"
            )
        if self.cluster_replication_factor < 1:
            raise ConfigurationError("cluster_replication_factor must be at least 1")
        if self.cluster_ring_vnodes < 1:
            raise ConfigurationError("cluster_ring_vnodes must be at least 1")
        if self.cluster_health_interval_s < 0:
            raise ConfigurationError(
                "cluster_health_interval_s must be non-negative (0 = no probing)"
            )
        if self.fault_plan is not None and not hasattr(self.fault_plan, "site"):
            raise ConfigurationError(
                "fault_plan must be a repro.faults.FaultPlan (or expose .site())"
            )

    @property
    def layout_duration_frames(self) -> int:
        """Frames per SOT; defaults to one GOP when not set explicitly."""
        return self.sot_frames if self.sot_frames is not None else self.codec.gop_frames

    def with_updates(self, **changes: Any) -> "TasmConfig":
        """Return a copy with the given fields replaced (dataclasses.replace)."""
        return replace(self, **changes)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "TasmConfig":
        """Build a config from a plain dict, e.g. parsed from JSON/TOML.

        A key naming no field — at the top level or inside ``codec`` /
        ``cost`` — raises :class:`ConfigurationError` naming it, so a stored
        config that still sets a removed option fails with a clear message.
        """
        codec_kwargs = _field_kwargs(CodecConfig, mapping.get("codec", {}), "codec.")
        cost_kwargs = _field_kwargs(CostCoefficients, mapping.get("cost", {}), "cost.")
        top = _field_kwargs(
            cls,
            {
                key: value
                for key, value in mapping.items()
                if key not in ("codec", "cost")
            },
        )
        return cls(
            codec=CodecConfig(**codec_kwargs),
            cost=CostCoefficients(**cost_kwargs),
            **top,
        )


def _field_kwargs(
    config_type: type, mapping: Mapping[str, Any], prefix: str = ""
) -> dict[str, Any]:
    """``mapping`` as keyword arguments for ``config_type``; unknown keys raise."""
    kwargs = dict(mapping)
    unknown = set(kwargs) - {spec.name for spec in fields(config_type)}
    if unknown:
        names = ", ".join(prefix + str(key) for key in sorted(unknown, key=str))
        raise ConfigurationError(f"unknown {config_type.__name__} key(s): {names}")
    return kwargs


#: A shared default configuration used when callers do not supply one.
DEFAULT_CONFIG = TasmConfig()
