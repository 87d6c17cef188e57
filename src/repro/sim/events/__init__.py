"""The event core: one heap queue, two paths over it.

* :mod:`repro.sim.events.base` — the binary-heap :class:`EventQueue`
  (checkpoints pickle it as it is);
* :mod:`repro.sim.events.backend` — :func:`simulate_core`, the span
  drain's per-core phase-1 recurrence;
* :mod:`repro.sim.events.span` — the batched arrival/departure drain
  that consumes a planned scheduler column without per-packet event
  pushes, falling back to scalar dispatch whenever a probe, fault
  injector or ordering ambiguity makes batching inexact.

The kernel runs the span drain on the vectorized path (the default) and
the per-packet heap closures alone on the scalar oracle
(``vectorized=False``); both paths produce bit-identical reports.
"""

from repro.sim.events.base import EventQueue

__all__ = ["EventQueue"]
