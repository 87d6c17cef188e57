"""Run manifests: the provenance record attached to every dumped run.

A manifest answers "what produced this series?" months later: the
package version, the seed, a JSON snapshot of the :class:`SimConfig`,
when and where the run happened.  It is deliberately a plain dict of
JSON scalars/lists once serialised — no pickle, no repro imports needed
to read one back.
"""

from __future__ import annotations

import json
import platform
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["RunManifest", "config_snapshot"]


def config_snapshot(config) -> dict[str, Any]:
    """Flatten a :class:`~repro.sim.config.SimConfig` to JSON types."""
    return {
        "num_cores": config.num_cores,
        "queue_capacity": config.queue_capacity,
        "fm_penalty_ns": config.fm_penalty_ns,
        "cc_penalty_ns": config.cc_penalty_ns,
        "drain_ns": config.drain_ns,
        "collect_latencies": config.collect_latencies,
        "record_departures": config.record_departures,
        "services": [
            {
                "service_id": s.service_id,
                "name": s.name,
                "base_ns": s.base_ns,
                "per_64b_ns": s.per_64b_ns,
            }
            for s in config.services
        ],
    }


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one simulation run or experiment."""

    created_utc: str
    host: str
    platform: str
    python_version: str
    package_version: str
    seed: int | None = None
    scheduler: str | None = None
    #: shard topology + protocol trace of a sharded run (the
    #: ``manifest_dict()`` of a :class:`~repro.sim.sharding.ShardedRun`);
    #: None for single-process runs and manifests predating the field
    sharding: dict | None = None
    config: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @classmethod
    def capture(
        cls,
        *,
        config=None,
        seed: int | None = None,
        scheduler: str | None = None,
        sharding: dict | None = None,
        **extra,
    ) -> "RunManifest":
        """Snapshot the current environment plus the run's knobs.

        *config* may be a :class:`SimConfig` (snapshotted via
        :func:`config_snapshot`) or an already-flat dict; remaining
        keyword arguments land in ``extra`` verbatim (trace name,
        utilisation, CLI flags, ...).
        """
        from repro import __version__

        if config is not None and not isinstance(config, dict):
            config = config_snapshot(config)
        return cls(
            created_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            host=socket.gethostname(),
            platform=platform.platform(),
            python_version=platform.python_version(),
            package_version=__version__,
            seed=seed,
            scheduler=scheduler,
            sharding=sharding,
            config=config or {},
            extra=extra,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "created_utc": self.created_utc,
            "host": self.host,
            "platform": self.platform,
            "python_version": self.python_version,
            "package_version": self.package_version,
            "seed": self.seed,
            "scheduler": self.scheduler,
            "sharding": dict(self.sharding) if self.sharding else None,
            "config": dict(self.config),
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunManifest":
        known = {f: d.get(f) for f in (
            "created_utc", "host", "platform", "python_version",
            "package_version", "seed", "scheduler", "sharding",
        )}
        return cls(**known, config=d.get("config") or {}, extra=d.get("extra") or {})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, default=str)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        return cls.from_dict(json.loads(Path(path).read_text()))
