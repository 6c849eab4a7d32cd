"""Tests for configuration validation and memory reporting."""

import pytest

from repro.core import MemoryReport, SketchTreeConfig
from repro.errors import ConfigError


class TestConfigValidation:
    def test_defaults_valid(self):
        config = SketchTreeConfig()
        assert config.n_instances == config.s1 * config.s2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"s1": 0},
            {"s2": 0},
            {"max_pattern_edges": 0},
            {"n_virtual_streams": 0},
            {"n_virtual_streams": 30},       # not prime
            {"topk_size": -1},
            {"topk_probability": 1.5},
            {"independence": 2},             # AMS needs four-wise
            {"mapping": "sha"},
            {"fingerprint_degree": 4},
            {"fingerprint_degree": 64},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SketchTreeConfig(**kwargs)

    def test_prime_virtual_streams_accepted(self):
        SketchTreeConfig(n_virtual_streams=229)
        SketchTreeConfig(n_virtual_streams=1)  # 1 = partitioning disabled

    def test_frozen(self):
        config = SketchTreeConfig()
        with pytest.raises(AttributeError):
            config.s1 = 99


class TestMemoryReport:
    def test_paper_figure10a_sketch_memory(self):
        """s1=25, s2=7, p=229 must give ~316 KB of sketch+seed memory, the
        low end of Figure 10(a)'s reported range."""
        report = MemoryReport(
            provisioned_sketch_bytes=25 * 7 * 229 * 8,
            provisioned_topk_bytes=0,
            seed_bytes=25 * 7 * 4 * 8,
        )
        assert 300 * 1024 <= report.provisioned_total <= 330 * 1024

    def test_totals(self):
        report = MemoryReport(100, 50, 10)
        assert report.provisioned_total == 160
        config = SketchTreeConfig(
            s1=25, s2=7, n_virtual_streams=229, topk_size=3, independence=4
        )
        assert MemoryReport.of(config) == MemoryReport(
            25 * 7 * 229 * 8, 229 * 3 * 16, 25 * 7 * 4 * 8
        )

    def test_format_units(self):
        report = MemoryReport(2 << 20, 512, 100)
        text = report.format()
        assert "MB" in text and "B" in text
