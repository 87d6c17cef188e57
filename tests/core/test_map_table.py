"""Tests for per-service map tables."""

import pytest

from repro.core.map_table import ServiceMapTable
from repro.errors import SchedulerError


class TestConstruction:
    def test_initial_lookup_round_robins(self):
        table = ServiceMapTable(0, [10, 11, 12, 13])
        assert [table.lookup(k) for k in range(4)] == [10, 11, 12, 13]

    def test_empty_rejected(self):
        with pytest.raises(SchedulerError):
            ServiceMapTable(0, [])

    def test_duplicates_rejected(self):
        with pytest.raises(SchedulerError):
            ServiceMapTable(0, [1, 1])

    def test_contains(self):
        table = ServiceMapTable(0, [5, 6])
        assert 5 in table and 7 not in table


class TestAddCore:
    def test_add_appends_bucket(self):
        table = ServiceMapTable(0, [1, 2])
        split = table.add_core(3)
        assert split == 0
        assert table.cores == (1, 2, 3)

    def test_add_duplicate_rejected(self):
        table = ServiceMapTable(0, [1, 2])
        with pytest.raises(SchedulerError):
            table.add_core(1)

    def test_lookup_after_add_splits_one_bucket(self):
        table = ServiceMapTable(0, [1, 2])
        keys = list(range(1000))
        before = [table.lookup(k) for k in keys]
        table.add_core(3)
        after = [table.lookup(k) for k in keys]
        for b, a in zip(before, after):
            if b != a:
                assert b == 1 and a == 3  # only bucket 0 (core 1) splits


class TestRemoveCore:
    def test_remove_last_bucket(self):
        table = ServiceMapTable(0, [1, 2, 3])
        table.remove_core(3)
        assert table.cores == (1, 2)

    def test_remove_middle_swaps_with_last(self):
        table = ServiceMapTable(0, [1, 2, 3])
        table.remove_core(1)
        assert set(table.cores) == {2, 3}
        assert len(table.cores) == 2

    def test_remove_unknown_rejected(self):
        table = ServiceMapTable(0, [1, 2])
        with pytest.raises(SchedulerError):
            table.remove_core(9)

    def test_remove_only_core_rejected(self):
        table = ServiceMapTable(0, [1])
        with pytest.raises(SchedulerError):
            table.remove_core(1)

    def test_lookups_stay_in_table_after_removal(self):
        table = ServiceMapTable(0, [1, 2, 3, 4, 5])
        table.remove_core(2)
        for k in range(500):
            assert table.lookup(k) in table.cores

    def test_add_remove_roundtrip(self):
        table = ServiceMapTable(0, [1, 2])
        before = [table.lookup(k) for k in range(200)]
        table.add_core(7)
        table.remove_core(7)
        assert [table.lookup(k) for k in range(200)] == before


class TestDiagnostics:
    def test_remap_fraction_on_grow(self):
        table = ServiceMapTable(0, [1, 2, 3, 4])
        frac = table.remapped_fraction_on_grow(list(range(2000)))
        assert 0 < frac < 0.25
