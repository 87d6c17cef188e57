"""Tests for the exception hierarchy."""

import pytest

from repro import errors
from repro.core.afd import AFDConfig
from repro.core.incremental_hash import IncrementalHash
from repro.core.laps import LAPSConfig
from repro.core.lfu import LFUCache
from repro.core.migration import MigrationTable
from repro.core.timing import LAPSTimingModel, SRAMModel
from repro.sim.power import PowerModel
from repro.sim.restoration import RestorationBuffer
from repro.sim.validation import md1k_loss_probability
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
