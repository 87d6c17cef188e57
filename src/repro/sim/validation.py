"""Analytic cross-validation of the discrete-event simulator.

A simulator substituting for the paper's SpecC model should be checked
against something exact.  For a single core fed Poisson arrivals with
deterministic service (one service, fixed packet size, no penalties)
the system is an **M/D/1/K queue**, whose loss probability and mean
occupancy follow from the embedded Markov chain at departure epochs.
:func:`md1k_loss_probability` computes those reference numbers and the
test suite asserts the simulator matches them within sampling error.

The embedded-chain construction (see e.g. Gross & Harris, ch. 5): with
``a_j = e^{-rho} rho^j / j!`` the probability of *j* Poisson arrivals
during one deterministic service, the queue-length chain at departures
has transition matrix built from ``a_j`` with truncation at the buffer
limit; its stationary vector yields the blocking probability via the
standard finite-queue correction.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigError

__all__ = ["md1k_loss_probability", "md1k_metrics"]


def _embedded_chain(rho: float, k_system: int) -> np.ndarray:
    """Stationary distribution of queue length at departure epochs for
    M/D/1 with at most *k_system* packets in the system."""
    n = k_system  # states 0..k_system-1 seen at departures
    a = [math.exp(-rho) * rho**j / math.factorial(j) for j in range(k_system + 1)]
    tail = lambda j: max(0.0, 1.0 - sum(a[:j]))  # noqa: E731
    p = np.zeros((n, n))
    for i in range(n):
        # after a departure with i in system, the next service admits
        # arrivals; from state i, next departure leaves i-1+j (j arrivals
        # during the service), capped by the buffer
        base = max(i - 1, 0)
        for j in range(0, n - base):
            p[i, base + j] = a[j]
        p[i, n - 1] = tail(n - 1 - base)
    # stationary vector: solve pi P = pi
    eigvals, eigvecs = np.linalg.eig(p.T)
    idx = int(np.argmin(np.abs(eigvals - 1.0)))
    pi = np.real(eigvecs[:, idx])
    pi = np.abs(pi)
    return pi / pi.sum()


def md1k_loss_probability(rho: float, k_system: int) -> float:
    """Blocking probability of an M/D/1 queue holding at most
    *k_system* packets (including the one in service).

    ``rho`` is offered load (arrival rate x service time).  Uses the
    standard departure-epoch correction
    ``P_loss = 1 - 1 / (pi_0 + rho')`` ... expressed via the identity
    ``throughput = lambda (1 - P_loss) = mu (1 - P_idle_server)``.
    """
    if rho <= 0:
        raise ConfigError(f"rho must be positive, got {rho}")
    if k_system < 1:
        raise ConfigError(f"k_system must be >= 1, got {k_system}")
    if k_system == 1:
        # pure loss system with deterministic service: Erlang-B-like
        # special case M/D/1/1 -> P_loss = rho/(1+rho) holds for M/G/1/1
        return rho / (1.0 + rho)
    pi = _embedded_chain(rho, k_system)
    # Keilson's relation for M/G/1/K: with pi the departure-epoch
    # distribution, P_loss = 1 - 1/(pi_0 + rho) ... normalised form:
    return 1.0 - 1.0 / (float(pi[0]) + rho)


def md1k_metrics(
    rate_pps: float, service_ns: int, queue_capacity: int
) -> dict[str, float]:
    """Reference numbers for the simulator's single-core geometry.

    The simulator's core holds one packet in service plus
    ``queue_capacity`` waiting, so ``k_system = queue_capacity + 1``.
    """
    rho = rate_pps * service_ns / 1e9
    loss = md1k_loss_probability(rho, queue_capacity + 1)
    return {
        "rho": rho,
        "loss_probability": loss,
        "throughput_pps": rate_pps * (1.0 - loss),
        "utilisation": min(rho * (1.0 - loss), 1.0),
    }
