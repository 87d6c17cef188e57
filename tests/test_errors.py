"""Tests for the exception hierarchy."""

import numpy as np
import pytest

from repro import errors
from repro.core.afd import AFDConfig
from repro.core.incremental_hash import IncrementalHash
from repro.core.laps import LAPSConfig, LAPSScheduler
from repro.core.lfu import LFUCache
from repro.core.migration import MigrationTable
from repro.core.timing import LAPSTimingModel, SRAMModel
from repro.sim.power import PowerModel
from repro.sim.queues import QueueBank
from repro.sim.restoration import RestorationBuffer
from repro.sim.validation import md1k_loss_probability
from repro.trace.models import FlowPopulation, PacketSizeModel
from tests.sim.test_power import report


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.ConfigError,
            errors.TraceError,
            errors.TraceFormatError,
            errors.SimulationError,
            errors.SchedulerError,
            errors.CapacityError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_config_error_is_value_error(self):
        assert issubclass(errors.ConfigError, ValueError)

    def test_trace_format_error_is_trace_error(self):
        assert issubclass(errors.TraceFormatError, errors.TraceError)

    def test_simulation_error_is_runtime_error(self):
        assert issubclass(errors.SimulationError, RuntimeError)

    def test_catchable_as_repro_error(self):
        with pytest.raises(errors.ReproError):
            raise errors.SchedulerError("boom")


@pytest.mark.parametrize(
    "build",
    [
        lambda: LAPSConfig(afd=AFDConfig(annex_entries=0)),
        lambda: AFDConfig(afc_entries=0),
        lambda: AFDConfig(promote_threshold=0),
        lambda: AFDConfig(sample_prob=0.0),
        lambda: LFUCache(0),
        lambda: MigrationTable(0),
        lambda: IncrementalHash(0),
    ],
    ids=["laps-annex", "afc", "threshold", "sample-prob", "lfu", "migration", "hash"],
)
def test_detector_sizes_raise_config_error(build):
    """Bad detector and table sizes fail as a ``ConfigError``, like
    every other bad configuration value."""
    with pytest.raises(errors.ConfigError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: SRAMModel().access_ns(0, 8),
        lambda: LAPSTimingModel(hash_ns=0.0),
        lambda: LAPSTimingModel(map_table_entries=0),
        lambda: PowerModel(sleep_w=1.0),
        lambda: PowerModel().evaluate(report([0.5]), gating_fraction=1.5),
        lambda: RestorationBuffer(0),
        lambda: md1k_loss_probability(0.0, 4),
        lambda: md1k_loss_probability(0.5, 0),
    ],
    ids=["sram-size", "timing-delay", "timing-entries", "power-states",
         "power-gating", "restoration", "md1k-rho", "md1k-k"],
)
def test_model_parameters_raise_config_error(build):
    """Bad timing, power, restoration and queueing-model parameters
    fail as a ``ConfigError`` too."""
    with pytest.raises(errors.ConfigError):
        build()


def _population(n: int = 2, *, columns: int | None = None, weight: float = 1.0):
    """A hand-built flow population; *columns* shortens one column."""
    return FlowPopulation(
        src_ip=np.zeros(n, dtype=np.uint32),
        dst_ip=np.zeros(n if columns is None else columns, dtype=np.uint32),
        src_port=np.zeros(n, dtype=np.uint16),
        dst_port=np.zeros(n, dtype=np.uint16),
        proto=np.zeros(n, dtype=np.uint8),
        weights=np.full(n, weight),
    )


def _laps_select_negative_hash():
    sched = LAPSScheduler(LAPSConfig(num_services=1))
    sched.bind(QueueBank(4, 32))
    sched.select_core(0, 0, -1, 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: PacketSizeModel((64, 128), (1.5, -0.5)),
        lambda: _population(columns=1),
        lambda: _population(0),
        lambda: _population(weight=-1.0),
        _laps_select_negative_hash,
    ],
    ids=["size-probs", "population-columns", "population-empty",
         "population-weights", "laps-negative-hash"],
)
def test_trace_model_and_hash_inputs_raise_config_error(build):
    """Bad trace-model parameters and negative flow hashes fail as a
    ``ConfigError`` (the paths no model or hash test reaches)."""
    with pytest.raises(errors.ConfigError):
        build()
