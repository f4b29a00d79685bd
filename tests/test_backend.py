import math

import numpy as np
import pytest

from ris_sic.backend import EvaluationBackend, SimulatedBackend
from ris_sic.channel import si_per_point_db
from ris_sic.model import RisConfig, SiReading

from conftest import synthetic_scene
from fuzz_tools import HashBackend


def test_simulated_backend_matches_channel_evaluation():
    scene = synthetic_scene(3, 3, points=7, seed=2)
    backend = SimulatedBackend(scene)
    rng = np.random.default_rng(0)
    for _ in range(20):
        config = RisConfig(rng.random((3, 3)) < 0.5)
        assert backend.evaluate(config) == SiReading.from_per_point(si_per_point_db(scene, config))


def test_dims_and_grid(small_scene):
    backend = SimulatedBackend(small_scene)
    assert backend.dims() == (4, 4)
    assert backend.scene is small_scene
    assert backend.noise_floor_db is None


def test_noise_floor_clamps_per_point():
    scene = synthetic_scene(2, 2, points=5, seed=4)
    config = RisConfig.all_off(2, 2)
    raw = si_per_point_db(scene, config)
    floor = float(np.median(raw))
    backend = SimulatedBackend(scene, noise_floor_db=floor)
    clamped = backend.evaluate(config)
    np.testing.assert_array_equal(clamped.per_point_db, np.maximum(raw, floor))
    assert np.all(clamped.per_point_db >= floor)
    # the max over points can only move up or stay
    assert clamped.magnitude_db >= np.max(raw)


def test_noise_floor_leaves_loud_readings_alone():
    scene = synthetic_scene(2, 2, points=5, seed=4)
    config = RisConfig.all_off(2, 2)
    raw = si_per_point_db(scene, config)
    backend = SimulatedBackend(scene, noise_floor_db=float(np.min(raw)) - 30.0)
    assert backend.evaluate(config) == SiReading.from_per_point(raw)


def test_nan_noise_floor_rejected_at_construction():
    with pytest.raises(ValueError, match="noise_floor_db must be finite, got nan"):
        SimulatedBackend(synthetic_scene(2, 2), noise_floor_db=float("nan"))


def test_infinite_noise_floor_rejected_at_construction():
    with pytest.raises(ValueError, match="^noise_floor_db must be finite, got inf$"):
        SimulatedBackend(synthetic_scene(2, 2), noise_floor_db=math.inf)


def test_minus_infinite_noise_floor_clamps_nothing():
    scene = synthetic_scene(3, 2, points=4, seed=2)
    floor, raw = SimulatedBackend(scene, noise_floor_db=-math.inf), SimulatedBackend(scene)
    for config in (RisConfig.all_on(3, 2), RisConfig.all_off(3, 2)):
        assert np.array_equal(floor.evaluate(config).per_point_db,
                              raw.evaluate(config).per_point_db)


def test_protocol_conformance():
    scene = synthetic_scene(2, 2)
    assert isinstance(SimulatedBackend(scene), EvaluationBackend)
    assert isinstance(HashBackend(3, 3), EvaluationBackend)


def test_simulated_backend_is_pure():
    scene = synthetic_scene(3, 3, points=3, seed=8)
    backend = SimulatedBackend(scene)
    config = RisConfig.all_on(3, 3)
    first = backend.evaluate(config)
    for _ in range(5):
        assert backend.evaluate(config) == first


def test_dimension_mismatch_propagates():
    scene = synthetic_scene(2, 2)
    backend = SimulatedBackend(scene)
    with pytest.raises(ValueError):
        backend.evaluate(RisConfig.all_on(4, 4))
