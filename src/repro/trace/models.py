"""Statistical models behind synthetic traces.

Two ingredients define the traffic mix the paper's motivation rests on:

* **Flow-size skew** (Fig. 2): a handful of "elephant" flows carry most
  of the bytes while a very large number of "mice" carry almost nothing.
  :func:`zipf_weights` produces the classic rank-size power law
  ``w_r ∝ r^{-alpha}`` observed in backbone traces.
* **Packet sizes**: Internet mixes are famously trimodal (ACK-sized ~40 B,
  mid ~576 B, MTU ~1500 B); :data:`TRIMODAL_INTERNET_SIZES` captures that.

:class:`FlowPopulation` samples a concrete flow table (5-tuples + rate
weights); :class:`PacketSizeModel` samples wire sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.hashing.five_tuple import PROTO_TCP, PROTO_UDP
from repro.util.rng import make_rng

__all__ = [
    "zipf_weights",
    "capped_zipf_weights",
    "elephant_mice_weights",
    "PacketSizeModel",
    "TRIMODAL_INTERNET_SIZES",
    "FlowPopulation",
]


def zipf_weights(n: int, alpha: float) -> np.ndarray:
    """Normalised Zipf(alpha) rank weights for *n* flows.

    ``alpha`` around 1.0-1.3 matches measured backbone flow-size skew;
    alpha=0 degenerates to uniform.  Returned weights sum to 1 and are
    sorted descending (rank 1 first), matching Fig. 2's axes.
    """
    if n <= 0:
        raise ConfigError(f"need at least one flow, got {n}")
    if alpha < 0:
        raise ConfigError(f"alpha must be >= 0, got {alpha}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks**-alpha
    return w / w.sum()


def capped_zipf_weights(n: int, alpha: float, cap: float) -> np.ndarray:
    """Zipf(alpha) weights water-filled under a per-flow cap.

    A raw Zipf head can put >10% of all traffic on rank 1, which no
    real backbone link exhibits (a top flow on an OC-192 is a percent
    or two) and which would make load balancing trivially impossible —
    a flow bigger than a core's capacity saturates any core it lands
    on.  This clips weights at *cap* and redistributes the excess over
    the unclipped tail (iterated to a fixed point), preserving the
    heavy-tail shape below the cap.  ``cap >= 1/n`` is required for
    feasibility.
    """
    if not 0.0 < cap <= 1.0:
        raise ConfigError(f"cap must be in (0, 1], got {cap}")
    if cap * n < 1.0:
        raise ConfigError(
            f"cap {cap} infeasible for {n} flows (cap * n must be >= 1)"
        )
    w = zipf_weights(n, alpha)
    clipped = np.zeros(n, dtype=bool)
    for _ in range(64):  # converges in O(log n) rounds in practice
        over = (w > cap) & ~clipped
        if not over.any():
            break
        clipped |= over
        free = ~clipped
        free_mass = 1.0 - cap * clipped.sum()
        w = np.where(clipped, cap, 0.0)
        raw = zipf_weights(n, alpha)
        if free.any() and raw[free].sum() > 0:
            w[free] = raw[free] * (free_mass / raw[free].sum())
    return w


def elephant_mice_weights(
    n: int,
    num_elephants: int,
    elephant_share: float,
    alpha_elephants: float = 0.5,
    alpha_mice: float = 0.4,
) -> np.ndarray:
    """Bimodal elephants-and-mice rate weights.

    The measured reality behind the paper's motivation ([17], [37]) is
    bimodal, not a smooth power law: a handful of elephant flows carry
    a large share of the traffic while a huge population of mice each
    carry almost nothing.  This model makes that structure explicit —
    *num_elephants* flows split *elephant_share* of the traffic by a
    mild Zipf, the remaining ``n - num_elephants`` mice split the rest
    by an even milder one — which reproduces the paper's premise by
    construction: hash imbalance is caused by where the elephants land,
    and migrating the top few flows is sufficient to rebalance.

    Returns weights sorted descending (rank 1 = biggest elephant).
    """
    if not 0 < num_elephants < n:
        raise ConfigError(
            f"num_elephants must be in (0, {n}), got {num_elephants}"
        )
    if not 0.0 < elephant_share < 1.0:
        raise ConfigError(
            f"elephant_share must be in (0, 1), got {elephant_share}"
        )
    w_e = zipf_weights(num_elephants, alpha_elephants) * elephant_share
    w_m = zipf_weights(n - num_elephants, alpha_mice) * (1.0 - elephant_share)
    if w_e[-1] <= w_m[0]:
        raise ConfigError(
            "elephant and mice classes overlap: the smallest elephant "
            f"({w_e[-1]:.2e}) is not larger than the biggest mouse "
            f"({w_m[0]:.2e}); raise elephant_share or lower alpha_mice"
        )
    return np.concatenate([w_e, w_m])


@dataclass(frozen=True)
class PacketSizeModel:
    """A discrete mixture over wire sizes.

    ``sizes`` and ``probs`` define the support and mixture weights; a
    draw returns int32 sizes.  Deterministic single-size models are just
    ``PacketSizeModel((64,), (1.0,))``.
    """

    sizes: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.probs) or not self.sizes:
            raise ConfigError("sizes and probs must be equal-length and non-empty")
        if any(s <= 0 for s in self.sizes):
            raise ConfigError(f"packet sizes must be positive: {self.sizes}")
        if any(p < 0 for p in self.probs):
            raise ConfigError(f"probabilities must be >= 0: {self.probs}")
        total = sum(self.probs)
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ConfigError(f"probabilities must sum to 1, got {total}")

    @property
    def mean(self) -> float:
        """Expected packet size in bytes."""
        return float(np.dot(self.sizes, self.probs))

    def sample(self, n: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
        """Draw *n* sizes (int32)."""
        if n < 0:
            raise ConfigError(f"n must be >= 0, got {n}")
        rng = make_rng(rng)
        idx = rng.choice(len(self.sizes), size=n, p=np.asarray(self.probs))
        return np.asarray(self.sizes, dtype=np.int32)[idx]


#: The canonical trimodal Internet packet-size mix (IMIX-like):
#: small control/ACK packets dominate counts, MTU packets dominate bytes.
TRIMODAL_INTERNET_SIZES = PacketSizeModel(
    sizes=(40, 576, 1500),
    probs=(0.58, 0.33, 0.09),
)


def _tuple_keys(
    src: np.ndarray,
    dst: np.ndarray,
    sport: np.ndarray,
    dport: np.ndarray,
    proto: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Pack 5-tuple columns into two ``uint64`` keys that are equal
    exactly when the tuples are: ``src << 32 | dst`` and
    ``sport << 24 | dport << 8 | proto``."""
    hi = src.astype(np.uint64)
    hi <<= 32
    hi |= dst
    lo = sport.astype(np.uint64)
    lo <<= 16
    lo |= dport
    lo <<= 8
    lo |= proto
    return hi, lo


def _first_new(
    seen: tuple[np.ndarray, np.ndarray], keys: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Ascending positions of the *keys* that are not in *seen* and do
    not repeat an earlier key: the rows a loop adding each new key to a
    ``set`` of *seen* would keep, in its order.

    One stable ``lexsort`` over seen + new keys puts equal keys next to
    each other in input order, so the head of each run is the key's
    first occurrence — in *seen* whenever it is there."""
    m = seen[0].shape[0]
    hi, lo = keys
    if m:
        hi = np.concatenate((seen[0], hi))
        lo = np.concatenate((seen[1], lo))
    order = np.lexsort((lo, hi))
    head = np.ones(order.shape[0], dtype=bool)
    hs, ls = hi[order], lo[order]
    np.not_equal(hs[1:], hs[:-1], out=head[1:])
    head[1:] |= ls[1:] != ls[:-1]
    first = order[head]
    first = first[first >= m]
    first -= m
    first.sort()
    return first


@dataclass
class FlowPopulation:
    """A sampled population of flows: 5-tuples plus Zipf rate weights.

    Attributes are parallel arrays indexed by dense flow id; ``weights``
    is sorted descending so flow id 0 is the biggest elephant, which
    makes ground-truth top-k checks trivial (`top-k == ids 0..k-1`).
    """

    src_ip: np.ndarray
    dst_ip: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    proto: np.ndarray
    weights: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        n = self.src_ip.shape[0]
        for arr in (self.dst_ip, self.src_port, self.dst_port, self.proto, self.weights):
            if arr.shape[0] != n:
                raise ConfigError("flow population columns have mismatched lengths")
        if n == 0:
            raise ConfigError("flow population cannot be empty")
        if np.any(self.weights < 0):
            raise ConfigError("flow weights must be non-negative")

    @property
    def num_flows(self) -> int:
        return int(self.src_ip.shape[0])

    @classmethod
    def sample(
        cls,
        num_flows: int,
        alpha: float,
        rng: np.random.Generator | int | None = None,
        tcp_fraction: float = 0.85,
        weight_cap: float | None = None,
        weights: np.ndarray | None = None,
    ) -> "FlowPopulation":
        """Sample *num_flows* distinct 5-tuples with Zipf(alpha) weights
        (water-filled under *weight_cap* when given), or with an
        explicit *weights* vector (e.g. from
        :func:`elephant_mice_weights`), which overrides both.

        Addresses are drawn uniformly from private 10/8 and public-ish
        ranges; collisions are re-drawn so every flow id has a distinct
        5-tuple (a requirement for the AFD ground truth to be exact).
        """
        if num_flows <= 0:
            raise ConfigError(f"need at least one flow, got {num_flows}")
        if not 0.0 <= tcp_fraction <= 1.0:
            raise ConfigError(f"tcp_fraction must be in [0, 1], got {tcp_fraction}")
        rng = make_rng(rng)
        seen = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64))
        parts: list[tuple[np.ndarray, ...]] = []
        filled = 0
        while filled < num_flows:
            need = num_flows - filled
            # over-draw slightly; collisions are rare in a 2^96 space
            batch = max(need, 16)
            src = rng.integers(0x0A000000, 0x0AFFFFFF, size=batch, dtype=np.uint32)
            dst = rng.integers(0xC0A80000, 0xDFFFFFFF, size=batch, dtype=np.uint32)
            sport = rng.integers(1024, 65535, size=batch, dtype=np.uint16)
            dport = rng.choice(
                np.array([80, 443, 53, 22, 25, 8080, 5060, 1194], dtype=np.uint16),
                size=batch,
            )
            proto = np.where(
                rng.random(batch) < tcp_fraction, PROTO_TCP, PROTO_UDP
            ).astype(np.uint8)
            drawn = (src, dst, sport, dport, proto)
            keys = _tuple_keys(*drawn)
            take = _first_new(seen, keys)[:need]
            if take.shape[0] == need and take[-1] == need - 1:
                # the first `need` draws are all new: keep them as drawn
                parts.append(tuple(col[:need] for col in drawn))
            else:
                parts.append(tuple(col[take] for col in drawn))
            filled += take.shape[0]
            if filled < num_flows:
                seen = tuple(
                    np.concatenate((s, k[take])) for s, k in zip(seen, keys)
                )
        cols = parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape[0] != num_flows:
                raise ConfigError(
                    f"weights length {weights.shape[0]} != num_flows {num_flows}"
                )
        elif weight_cap is None:
            weights = zipf_weights(num_flows, alpha)
        else:
            weights = capped_zipf_weights(num_flows, alpha, weight_cap)
        return cls(*cols, weights=weights)
