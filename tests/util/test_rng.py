"""Tests for deterministic RNG plumbing."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.util.rng import make_rng, spawn_rngs


class TestMakeRng:
    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_seed_deterministic(self):
        a = make_rng(7).random(5)
        b = make_rng(7).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).random(5), make_rng(2).random(5))

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(3)
        a = make_rng(seq).random(3)
        b = make_rng(np.random.SeedSequence(3)).random(3)
        np.testing.assert_array_equal(a, b)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 4)) == 4

    def test_zero(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_children_independent(self):
        a, b = spawn_rngs(5, 2)
        assert not np.array_equal(a.random(10), b.random(10))

    def test_deterministic_from_seed(self):
        first = [g.random(3) for g in spawn_rngs(9, 3)]
        second = [g.random(3) for g in spawn_rngs(9, 3)]
        for x, y in zip(first, second):
            np.testing.assert_array_equal(x, y)

    def test_from_generator_advances_parent(self):
        parent = np.random.default_rng(1)
        spawn_rngs(parent, 2)
        # spawning twice from the same parent yields fresh children
        more = spawn_rngs(parent, 2)
        assert len(more) == 2


@pytest.mark.parametrize("seed", [-1, np.int64(-1)], ids=["int", "np.int64"])
@pytest.mark.parametrize(
    "make", [make_rng, lambda s: spawn_rngs(s, 2)], ids=["make_rng", "spawn_rngs"]
)
def test_negative_seed_is_a_config_error(make, seed):
    """numpy's own message names neither the seed nor its value."""
    with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -1"):
        make(seed)
