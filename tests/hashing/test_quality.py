"""Tests for the hash-quality analysis (the Cao et al. [8] claim)."""

import numpy as np
import pytest

from repro.hashing.crc import CRC16_CCITT
from repro.hashing.five_tuple import flow_hash_batch
from repro.hashing.quality import (
    bucket_loads,
    chi_square_pvalue,
    chi_square_statistic,
    hash_quality_report,
    load_imbalance,
)
from repro.trace.models import FlowPopulation


def population_hashes(n=5000, seed=0):
    pop = FlowPopulation.sample(n, 1.0, seed)
    hashes = flow_hash_batch(
        pop.src_ip, pop.dst_ip, pop.src_port, pop.dst_port, pop.proto,
        spec=CRC16_CCITT,
    ).astype(np.int64)
    return hashes, pop.weights


class TestBucketLoads:
    def test_counts(self):
        loads = bucket_loads(np.array([0, 1, 2, 16]), 16)
        assert loads[0] == 2 and loads[1] == 1

    def test_weighted(self):
        loads = bucket_loads(np.array([0, 0, 1]), 2, np.array([1.0, 2.0, 5.0]))
        assert loads[0] == 3.0 and loads[1] == 5.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            bucket_loads(np.array([0]), 0)
        with pytest.raises(ValueError):
            bucket_loads(np.array([0, 1]), 4, np.array([1.0]))


class TestChiSquare:
    def test_crc16_is_uniform_on_real_keys(self):
        """Cao et al.'s finding: CRC16 of 5-tuples is ~uniform."""
        hashes, _ = population_hashes()
        assert chi_square_pvalue(hashes, 16) > 0.01

    def test_bad_hash_rejected(self):
        """A constant-bucket 'hash' must fail the uniformity test."""
        hashes = np.zeros(5000, dtype=np.int64)
        assert chi_square_pvalue(hashes, 16) < 1e-10

    def test_statistic_zero_when_exactly_uniform(self):
        hashes = np.arange(160)
        assert chi_square_statistic(hashes, 16) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chi_square_statistic(np.array([], dtype=np.int64), 4)

    @pytest.mark.parametrize("num_buckets", [1, 0])
    def test_fewer_than_two_buckets_rejected(self, num_buckets):
        """One bucket leaves zero degrees of freedom: no p-value (it
        used to come back as nan)."""
        with pytest.raises(ValueError, match="at least 2 buckets"):
            chi_square_pvalue(np.arange(10), num_buckets)

    def test_pvalue_works_as_first_call_in_fresh_process(self, fresh_python):
        """scipy is imported lazily inside the function; the first call
        in a process that never loaded it must still work."""
        out = fresh_python("-c", (
            "import numpy as np\n"
            "from repro.hashing.quality import chi_square_pvalue\n"
            "print(chi_square_pvalue(np.arange(160), 16),"
            " chi_square_pvalue(np.zeros(5000, dtype=np.int64), 16))"
        )).stdout.split()
        assert float(out[0]) == pytest.approx(1.0)
        assert float(out[1]) < 1e-10


class TestLoadImbalance:
    def test_uniform_is_one(self):
        assert load_imbalance(np.arange(160), 16) == pytest.approx(1.0)

    def test_skewed_weights_break_even_a_perfect_hash(self):
        """The paper's motivation: uniform hashing of skewed flows still
        overloads the elephant's bucket."""
        hashes, weights = population_hashes()
        unweighted = load_imbalance(hashes, 16)
        weighted = load_imbalance(hashes, 16, weights)
        assert weighted > unweighted

    def test_no_load_rejected(self):
        with pytest.raises(ValueError):
            load_imbalance(np.array([0]), 4, np.array([0.0]))


class TestReport:
    def test_keys(self):
        hashes, weights = population_hashes(1000)
        report = hash_quality_report(hashes, 16, weights)
        assert set(report) == {"chi2_pvalue", "weighted_imbalance", "jain_fairness"}
        assert 0 <= report["jain_fairness"] <= 1

    def test_crc16_vs_toeplitz_both_uniform(self):
        from repro.hashing.five_tuple import pack_five_tuples_batch
        from repro.hashing.toeplitz import ToeplitzHasher

        pop = FlowPopulation.sample(4000, 1.0, 1)
        crc = flow_hash_batch(
            pop.src_ip, pop.dst_ip, pop.src_port, pop.dst_port, pop.proto
        ).astype(np.int64)
        packed = pack_five_tuples_batch(
            pop.src_ip, pop.dst_ip, pop.src_port, pop.dst_port, pop.proto
        )[:, :12]  # Toeplitz over the RSS 12-byte input
        toep = ToeplitzHasher().hash_batch(packed).astype(np.int64)
        assert chi_square_pvalue(crc, 16) > 0.001
        assert chi_square_pvalue(toep, 16) > 0.001
