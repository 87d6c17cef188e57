"""The processing-delay model — paper Sec. IV-C3, eq. (3)-(5), Table III.

``PD_i = T_proc,i + FM_penalty + CC_penalty`` where

* ``T_proc,i`` comes from the service's affine size model (measured on
  GEMS by the authors; we use their published constants via
  :class:`~repro.net.service.Service`),
* ``FM_penalty`` (0.8 us = four cache misses: two for routing data, two
  for per-flow data) applies when the flow just migrated to this core,
* ``CC_penalty`` (10 us, the IP-forwarding image reload) applies when
  the core's last packet belonged to a *different service* — the 16 KB
  I-cache holds exactly one application image.

The kernel computes eq. (3) inline (``start_packet`` in
:meth:`repro.sim.kernel.SimKernel._activate`, and
:func:`repro.sim.events.backend.simulate_core` on the span drain) from
the :class:`~repro.sim.config.SimConfig` penalties.  This module keeps
the Table III core those constants were measured on.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CoreConfig", "TABLE_III_CORE"]


@dataclass(frozen=True, slots=True)
class CoreConfig:
    """The data-plane core of Table III (documentation/timing metadata;
    behaviourally the simulator only needs the derived penalties)."""

    frequency_ghz: float = 1.0
    pipeline_stages: int = 7
    issue_width: int = 2
    branch_predictor: str = "gshare/BTB, 128 entries each"
    icache_kb: int = 16
    icache_ways: int = 2
    dcache_kb: int = 32
    dcache_ways: int = 4


#: The exact Table III configuration.
TABLE_III_CORE = CoreConfig()
