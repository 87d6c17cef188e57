"""Services: the processing paths of a multi-service edge router.

The paper's workload model (Sec. IV-B, Fig. 5) treats each end-to-end
path through the router's task graph as one *service*; a packet is tied
to one service (and one core) for its whole lifetime.  The four standard
services and their measured latency models (Sec. IV-C) are:

=======  ==========================  ==============================
service  path                        processing time ``T_proc``
=======  ==========================  ==============================
S1       outgoing VPN (IPSec enc)    3.7 us + 0.23 us per 64 B
S2       default IP forwarding       0.5 us
S3       incoming + malware scan     3.53 us
S4       incoming VPN + scan         5.8 us + 0.21 us per 64 B
=======  ==========================  ==============================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.errors import ConfigError

__all__ = ["Service", "ServiceSet", "default_services"]


@dataclass(frozen=True, slots=True)
class Service:
    """One processing path ("service") of the router.

    ``base_ns`` and ``per_64b_ns`` define the processing-time model
    ``T_proc = base + ceil-free (size/64) * per_64b`` from eq. (4)/(5);
    services with size-independent cost simply have ``per_64b_ns == 0``.
    """

    service_id: int
    name: str
    base_ns: int
    per_64b_ns: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if self.service_id < 0:
            raise ConfigError(f"service id must be >= 0, got {self.service_id}")
        if self.base_ns <= 0:
            raise ConfigError(f"base processing time must be positive, got {self.base_ns}")
        if self.per_64b_ns < 0:
            raise ConfigError(f"per-64B cost must be >= 0, got {self.per_64b_ns}")

    def processing_ns(self, size_bytes: int) -> int:
        """``T_proc`` in nanoseconds for a packet of *size_bytes*.

        The paper's eq. (4)-(5) scale linearly with ``PacketSize/64B``;
        we keep the fractional scaling (no rounding to whole blocks) and
        round once to integer nanoseconds.
        """
        if size_bytes <= 0:
            raise ConfigError(f"packet size must be positive, got {size_bytes}")
        return self.base_ns + round(self.per_64b_ns * size_bytes / 64)

    def capacity_pps(self, mean_size_bytes: float = 64.0) -> float:
        """Saturation throughput of one core running only this service,
        in packets/second, at the given mean packet size."""
        t = self.base_ns + self.per_64b_ns * mean_size_bytes / 64
        return units.SEC / t


class ServiceSet:
    """An ordered, validated collection of services (ids must be dense)."""

    def __init__(self, services: list[Service]) -> None:
        if not services:
            raise ConfigError("a router needs at least one service")
        ids = [s.service_id for s in services]
        if ids != list(range(len(services))):
            raise ConfigError(f"service ids must be dense 0..n-1, got {ids}")
        self._services = tuple(services)

    def __len__(self) -> int:
        return len(self._services)

    def __getitem__(self, service_id: int) -> Service:
        return self._services[service_id]

    def __iter__(self):
        return iter(self._services)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self._services)

    def capacity_pps(
        self, cores_per_service: list[int], mean_size_bytes: float = 64.0
    ) -> float:
        """Aggregate ideal capacity of a core allocation, packets/second.

        Used to calibrate offered load to a target utilisation (DESIGN
        Sec. 5): Σ_i cores_i / T_proc,i.
        """
        if len(cores_per_service) != len(self._services):
            raise ConfigError(
                f"need a core count per service: got {len(cores_per_service)} "
                f"for {len(self._services)} services"
            )
        return sum(
            n * s.capacity_pps(mean_size_bytes)
            for n, s in zip(cores_per_service, self._services)
        )


def default_services() -> ServiceSet:
    """The paper's four services with the published latency constants."""
    return ServiceSet(
        [
            Service(0, "vpn-out", units.us(3.7), units.us(0.23),
                    "Path 1: outgoing packets tunneled via VPN (IPSec encrypt)"),
            Service(1, "ip-forward", units.us(0.5), 0,
                    "Path 2: default IP forwarding"),
            Service(2, "malware-scan", units.us(3.53), 0,
                    "Path 3: incoming packets scanned for malware"),
            Service(3, "vpn-in-scan", units.us(5.8), units.us(0.21),
                    "Path 4: incoming VPN packets, decrypted then scanned"),
        ]
    )
