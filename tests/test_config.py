"""Tests for repro.config."""

from __future__ import annotations

import pytest

from repro.config import CodecConfig, CostCoefficients, TasmConfig, DEFAULT_CONFIG
from repro.errors import ConfigurationError


class TestCodecConfig:
    def test_defaults_are_valid(self):
        codec = CodecConfig()
        assert codec.gop_frames == 30
        assert codec.gop_seconds == 1.0

    def test_rejects_non_positive_gop(self):
        with pytest.raises(ConfigurationError):
            CodecConfig(gop_frames=0)

    def test_rejects_tiny_minimum_tile(self):
        with pytest.raises(ConfigurationError):
            CodecConfig(block_size=16, min_tile_width=8)

    def test_rejects_bad_quantisation(self):
        with pytest.raises(ConfigurationError):
            CodecConfig(keyframe_quant=0)
        with pytest.raises(ConfigurationError):
            CodecConfig(boundary_quant_penalty=-1)

    def test_gop_seconds_uses_frame_rate(self):
        codec = CodecConfig(gop_frames=10, frame_rate=5)
        assert codec.gop_seconds == 2.0


class TestCostCoefficients:
    def test_defaults(self):
        cost = CostCoefficients()
        assert cost.beta > 0
        assert cost.gamma >= 0

    def test_rejects_non_positive_beta(self):
        with pytest.raises(ConfigurationError):
            CostCoefficients(beta=0.0)


class TestTasmConfig:
    def test_default_config_exists(self):
        assert DEFAULT_CONFIG.alpha == pytest.approx(0.8)
        assert DEFAULT_CONFIG.eta == pytest.approx(1.0)

    def test_alpha_bounds(self):
        with pytest.raises(ConfigurationError):
            TasmConfig(alpha=0.0)
        with pytest.raises(ConfigurationError):
            TasmConfig(alpha=1.5)
        assert TasmConfig(alpha=1.0).alpha == 1.0

    def test_negative_eta_rejected(self):
        with pytest.raises(ConfigurationError):
            TasmConfig(eta=-0.1)

    def test_sot_frames_must_align_with_gops(self):
        codec = CodecConfig(gop_frames=10)
        with pytest.raises(ConfigurationError):
            TasmConfig(codec=codec, sot_frames=15)
        config = TasmConfig(codec=codec, sot_frames=30)
        assert config.layout_duration_frames == 30

    def test_layout_duration_defaults_to_gop(self):
        config = TasmConfig(codec=CodecConfig(gop_frames=12))
        assert config.layout_duration_frames == 12

    def test_with_updates_returns_new_instance(self):
        config = TasmConfig()
        updated = config.with_updates(alpha=0.5)
        assert updated.alpha == 0.5
        assert config.alpha == pytest.approx(0.8)

    def test_from_mapping_round_trip(self):
        config = TasmConfig.from_mapping(
            {
                "alpha": 0.7,
                "eta": 2.0,
                "codec": {"gop_frames": 10, "frame_rate": 10},
                "cost": {"beta": 2e-6, "gamma": 1e-3},
            }
        )
        assert config.alpha == 0.7
        assert config.eta == 2.0
        assert config.codec.gop_frames == 10
        assert config.cost.beta == pytest.approx(2e-6)

    @pytest.mark.parametrize(
        "mapping, named",
        [
            ({"executor_threads": 2}, "executor_threads"),
            ({"codec": {"bogus": 1}}, "codec.bogus"),
            ({"cost": {"beta": 2e-6, "delta": 1.0}}, "cost.delta"),
        ],
    )
    def test_from_mapping_rejects_unknown_keys(self, mapping, named):
        with pytest.raises(ConfigurationError, match=named):
            TasmConfig.from_mapping(mapping)

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.alpha = 0.5  # type: ignore[misc]
