"""Unit tests for the LogGP-style cost models."""

from __future__ import annotations

import pytest

from repro.simmpi import DEFAULT_COST, ZERO_COST, CostModel


class TestCostModel:
    def test_defaults_positive(self):
        assert DEFAULT_COST.latency > 0
        assert DEFAULT_COST.byte_cost > 0
        assert DEFAULT_COST.overhead > 0

    def test_zero_cost_is_free(self):
        assert ZERO_COST.transit_time(0, 1, 10_000) == 0.0
        assert ZERO_COST.send_overhead(0, 1, 10_000) == 0.0
        assert ZERO_COST.recv_overhead(0, 1, 10_000) == 0.0

    def test_transit_scales_with_bytes(self):
        m = CostModel(latency=1e-6, byte_cost=1e-9)
        small = m.transit_time(0, 1, 8)
        big = m.transit_time(0, 1, 8_000_000)
        assert big > small
        assert big == pytest.approx(1e-6 + 8_000_000 * 1e-9)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            CostModel(latency=-1.0)
        with pytest.raises(ValueError):
            CostModel(byte_cost=-1.0)
        with pytest.raises(ValueError):
            CostModel(overhead=-1.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_COST.latency = 5.0  # type: ignore[misc]
