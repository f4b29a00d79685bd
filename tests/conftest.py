"""Shared fixtures: small scenes that keep the suite fast."""

import re
from dataclasses import replace

import numpy as np
import pytest

from ris_sic.channel import GridSpec, Scene, build_scene, default_scene_params


@pytest.fixture(scope="session")
def small_params():
    """4x4 surface, narrowband, otherwise default physics."""
    p = default_scene_params()
    return replace(p, geometry=replace(p.geometry, nx=4, ny=4))


@pytest.fixture(scope="session")
def small_scene(small_params):
    return build_scene(small_params)


@pytest.fixture(scope="session")
def wideband_params(small_params):
    return replace(small_params, grid=GridSpec(5.385e9, 10e6, 11))


@pytest.fixture(scope="session")
def wideband_scene(wideband_params):
    return build_scene(wideband_params)


@pytest.fixture(scope="session")
def default_scene():
    """The full 16x16 narrowband scene the package ships as its default."""
    return build_scene(default_scene_params())


# (key, value) edits of the default scene that must be rejected: every scene
# value is finite, bar relative_power_db = -inf (clutter off)
NON_FINITE_SCENE_EDITS = [
    ("alpha_iso_db", "inf"), ("antenna_distance_m", "inf"), ("pitch_m", "inf"),
    ("tx_gain_dbi", "inf"), ("relative_power_db", "inf"), ("delay_spread_s", "inf"),
    ("p_tx_dbm", "inf"), ("element_gain_dbi", "-inf"), ("quality_factor", "inf"),
    ("amplitude_on", "nan"),
]


def edited_scene_text(key, value):
    """The shipped default scene document with one key's value replaced."""
    from ris_sic.sceneio import format_scene

    text = format_scene(default_scene_params())
    edited = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    assert edited != text
    return edited


def synthetic_scene(nx, ny, points=5, seed=0):
    """Random complex channel vectors on a symmetric grid, no geometry."""
    from ris_sic.cell import UnitCellModel
    from ris_sic.model import FrequencyGrid

    rng = np.random.default_rng(seed)
    n = nx * ny
    center = 5.385e9
    if points == 1:
        grid = FrequencyGrid.narrowband(center)
    else:
        grid = FrequencyGrid.wideband(center, 10e6, points)

    def draw(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 1e-3

    cell = UnitCellModel.with_phase_target(center)
    return Scene.from_arrays(
        grid=grid,
        direct=draw(points),
        h=draw((n, points)),
        g=draw((n, points)),
        cell=cell,
        nx=nx,
        ny=ny,
    )
