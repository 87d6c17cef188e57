"""Tests for services and the default service set (eq. 4-5 constants)."""

import pytest

from repro import units
from repro.errors import ConfigError
from repro.net.service import Service, ServiceSet, default_services


class TestService:
    def test_fixed_cost(self):
        svc = Service(0, "ip", units.us(0.5))
        assert svc.processing_ns(64) == 500
        assert svc.processing_ns(1500) == 500

    def test_affine_cost_eq4(self):
        """Path 1: 3.7us + 0.23us per 64 B (paper eq. 4)."""
        svc = Service(0, "vpn-out", units.us(3.7), units.us(0.23))
        assert svc.processing_ns(64) == units.us(3.7) + units.us(0.23)
        assert svc.processing_ns(128) == units.us(3.7) + 2 * units.us(0.23)

    def test_fractional_size_scaling(self):
        svc = Service(0, "x", 1000, 640)
        assert svc.processing_ns(32) == 1000 + 320

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigError):
            default_services()[0].processing_ns(0)

    def test_capacity(self):
        svc = Service(0, "ip", units.us(0.5))
        assert svc.capacity_pps(64) == pytest.approx(2e6)

    def test_negative_id_rejected(self):
        with pytest.raises(ConfigError):
            Service(-1, "x", 100)

    def test_zero_base_rejected(self):
        with pytest.raises(ConfigError):
            Service(0, "x", 0)


class TestServiceSet:
    def test_dense_ids_required(self):
        with pytest.raises(ConfigError):
            ServiceSet([Service(1, "x", 100)])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            ServiceSet([])

    def test_indexing_and_iteration(self):
        services = default_services()
        assert len(services) == 4
        assert services[1].name == "ip-forward"
        assert [s.service_id for s in services] == [0, 1, 2, 3]

    def test_names(self):
        assert default_services().names == (
            "vpn-out", "ip-forward", "malware-scan", "vpn-in-scan",
        )

    def test_capacity_aggregate(self):
        services = default_services()
        cap = services.capacity_pps([0, 1, 0, 0], mean_size_bytes=64)
        assert cap == pytest.approx(2e6)  # one ip-forward core

    def test_capacity_needs_count_per_service(self):
        with pytest.raises(ConfigError):
            default_services().capacity_pps([1, 2])


class TestPaperConstants:
    """Sec. IV-C3's published values."""

    def test_ip_forward_half_us(self):
        assert default_services()[1].processing_ns(64) == 500

    def test_malware_scan(self):
        assert default_services()[2].processing_ns(1000) == 3530

    def test_vpn_out_eq4(self):
        svc = default_services()[0]
        assert svc.base_ns == 3700 and svc.per_64b_ns == 230

    def test_vpn_in_eq5(self):
        svc = default_services()[3]
        assert svc.base_ns == 5800 and svc.per_64b_ns == 210
