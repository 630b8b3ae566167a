"""Tests for the ISP registry (repro.network.isp)."""

from __future__ import annotations

import pytest

from repro.network.isp import ISP, ISPRegistry


class TestISP:
    def test_validation(self):
        with pytest.raises(ValueError):
            ISP("bad", outage_probability=1.5)
        isp = ISP("ok", outage_probability=0.1)
        assert isp.name == "ok"


class TestRegistry:
    def test_add_and_query(self):
        registry = ISPRegistry()
        for isp in (ISP("a", 0.1), ISP("b", 0.2)):
            registry.add(isp)
        assert len(registry) == 2
        assert "a" in registry and "c" not in registry
        assert registry.get("b").outage_probability == 0.2
        assert registry.names() == ["a", "b"]
        assert {isp.name for isp in registry} == {"a", "b"}

    def test_duplicate_rejected(self):
        registry = ISPRegistry()
        registry.add(ISP("a"))
        with pytest.raises(ValueError):
            registry.add(ISP("a"))

    def test_unknown_lookup(self):
        with pytest.raises(KeyError):
            ISPRegistry().get("missing")

    def test_scenario_probabilities_sum_to_one_over_all_subsets(self):
        registry = ISPRegistry()
        for isp in (ISP("a", 0.3), ISP("b", 0.5)):
            registry.add(isp)
        subsets = [set(), {"a"}, {"b"}, {"a", "b"}]
        total = sum(registry.outage_probability_of_scenario(s) for s in subsets)
        assert total == pytest.approx(1.0)
        assert registry.outage_probability_of_scenario({"a"}) == pytest.approx(0.3 * 0.5)
