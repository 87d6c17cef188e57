"""The event core: one heap, two paths over it.

The future-event set is a plain binary heap of ``(time_ns, seq,
payload)`` tuples owned by :class:`~repro.sim.kernel.SimState`
(``heap``, with the ``seq`` tie-break counter, the ``last_pop_ns``
causality floor and the ``popped`` count beside it).  This package
holds the two drains over it:

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
