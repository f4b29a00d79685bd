import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ris_sic.model import Checked, FrequencyGrid, RisConfig, SiReading


class TestRisConfig:
    def test_shape_and_counts(self):
        c = RisConfig(np.eye(3, dtype=bool))
        assert (c.nx, c.ny) == (3, 3)
        assert c.n_elements == 9
        assert int(c.states.sum()) == 3

    def test_flat_is_row_major(self):
        states = np.array([[True, False, True], [False, True, False]])
        c = RisConfig(states)
        np.testing.assert_array_equal(c.flat(), [True, False, True, False, True, False])
        # element (x, y) lives at x*ny + y
        assert c.flat()[1 * 3 + 1] == states[1, 1]

    def test_factories(self):
        assert int(RisConfig.all_off(4, 4).states.sum()) == 0
        assert int(RisConfig.all_on(4, 4).states.sum()) == 16

    def test_equality_and_hash_by_contents(self):
        a = RisConfig(np.array([[True, False]]))
        b = RisConfig(np.array([[True, False]]))
        c = RisConfig(np.array([[False, True]]))
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != RisConfig(np.array([[True], [False]]))  # transposed shape
        assert a != (True, False)  # not a RisConfig

    def test_immutable(self):
        c = RisConfig.all_off(2, 2)
        with pytest.raises(ValueError):
            c.states[0, 0] = True

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            RisConfig(np.zeros(4, dtype=bool))
        with pytest.raises(ValueError):
            RisConfig(np.zeros((0, 3), dtype=bool))

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**20))
    def test_hash_consistency_fuzz(self, nx, ny, seed):
        rng = np.random.default_rng(seed)
        states = rng.random((nx, ny)) < 0.5
        a, b = RisConfig(states), RisConfig(states.copy())
        assert a == b and hash(a) == hash(b)


class TestFrequencyGrid:
    def test_narrowband(self):
        g = FrequencyGrid.narrowband(5.385e9)
        assert g.k == 1
        assert g.points.shape == (1,)
        assert g.points[0] == 5.385e9

    def test_wideband_layout(self):
        g = FrequencyGrid.wideband(5.385e9, 10e6, 11)
        assert g.k == 11
        assert g.points[-1] - g.points[0] == pytest.approx(10e6, rel=1e-12)
        assert g.points[0] == pytest.approx(5.385e9 - 5e6)
        assert g.points[-1] == pytest.approx(5.385e9 + 5e6)
        # center sits exactly on the middle point for odd K
        assert g.points[5] == pytest.approx(5.385e9, rel=1e-15)

    def test_wideband_matches_linspace(self):
        g = FrequencyGrid.wideband(5.385e9, 10e6, 11)
        np.testing.assert_array_equal(
            g.points, np.linspace(5.385e9 - 5e6, 5.385e9 + 5e6, 11)
        )

    def test_wideband_guards(self):
        with pytest.raises(ValueError):
            FrequencyGrid.wideband(5.385e9, 10e6, 1)
        with pytest.raises(ValueError):
            FrequencyGrid.wideband(5.385e9, 0.0, 11)

    def test_equality(self):
        a = FrequencyGrid.wideband(5.385e9, 10e6, 11)
        b = FrequencyGrid.wideband(5.385e9, 10e6, 11)
        assert a == b and hash(a) == hash(b)
        assert a != FrequencyGrid.wideband(5.385e9, 5e6, 11)

    @given(st.integers(2, 41), st.floats(min_value=1e5, max_value=4e8))
    def test_symmetry_fuzz(self, k, bw):
        g = FrequencyGrid.wideband(5.385e9, bw, k)
        # point j and point K-1-j average to the center
        np.testing.assert_allclose(g.points + g.points[::-1], 2 * 5.385e9, rtol=1e-12)


class TestSiReading:
    def test_magnitude_is_max(self):
        r = SiReading.from_per_point([-50.0, -44.0, -60.0])
        assert r.magnitude_db == -44.0
        assert not r.is_null

    def test_rejects_mismatched_magnitude(self):
        # the magnitude is derived, so a mismatched one cannot be passed in
        with pytest.raises(TypeError):
            SiReading(-45.0, np.array([-50.0, -44.0]))
        with pytest.raises(TypeError):
            SiReading(magnitude_db=-45.0, per_point_db=np.array([-50.0, -44.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SiReading.from_per_point([np.nan, -44.0])

    def test_null_reading(self):
        r = SiReading.from_per_point([float("-inf")])
        assert r.is_null
        assert r.magnitude_db == float("-inf")

    def test_mixed_inf_not_null(self):
        r = SiReading.from_per_point([float("-inf"), -80.0])
        assert r.magnitude_db == -80.0
        assert not r.is_null

    def test_equality(self):
        a = SiReading.from_per_point([-50.0, -44.0])
        b = SiReading.from_per_point([-50.0, -44.0])
        assert a == b
        assert a != SiReading.from_per_point([-50.0, -45.0])
        assert a != -44.0  # not a SiReading

    def test_per_point_frozen(self):
        r = SiReading.from_per_point([-50.0, -44.0])
        with pytest.raises(ValueError):
            r.per_point_db[0] = 0.0

    @pytest.mark.parametrize("build, message", [
        (lambda: SiReading(np.array([np.nan, -44.0])),
         "per_point_db must not contain NaN"),
        (lambda: SiReading.from_per_point([-50.0, np.nan]),
         "per_point_db must not contain NaN"),
        (lambda: SiReading(np.array([[-44.0]])),
         "per_point_db must be a non-empty 1-D array"),
        (lambda: SiReading(np.array([])),
         "per_point_db must be a non-empty 1-D array"),
        (lambda: SiReading.from_per_point([[-50.0], [-44.0]]),
         "per_point_db must be a non-empty 1-D array"),
        (lambda: SiReading.from_per_point([]),
         "per_point_db must be a non-empty 1-D array"),
    ])
    def test_error_messages(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_from_per_point_equals_constructor_and_copies(self):
        per = np.array([-50.0, -44.0, float("-inf")])
        r = SiReading.from_per_point(per)
        assert r == SiReading(per)
        assert type(r.magnitude_db) is float and type(SiReading(per).magnitude_db) is float
        assert per.flags.writeable and not r.per_point_db.flags.writeable
        per[1] = 0.0
        assert r.per_point_db[1] == -44.0

    @given(st.lists(st.floats(min_value=-200, max_value=0), min_size=1, max_size=16))
    def test_from_per_point_fuzz(self, vals):
        r = SiReading.from_per_point(vals)
        assert r.magnitude_db == max(vals)
        assert r.per_point_db.size == len(vals)


def _checked_samples():
    """One valid instance of every ``Checked`` dataclass in the package."""
    from ris_sic.backend import SimulatedBackend
    from ris_sic.cell import CellParams, UnitCellModel
    from ris_sic.channel import (
        Calibration, ClutterParams, Geometry, build_scene, default_scene_params,
    )
    from ris_sic.experiment import CampaignSpec
    from ris_sic.model import GridSpec

    params = default_scene_params()
    scene = build_scene(replace(params, geometry=replace(params.geometry, nx=2, ny=2)))
    return [GridSpec(), Geometry(), Calibration(), ClutterParams(), CellParams(),
            UnitCellModel.with_phase_target(5.385e9), scene, SimulatedBackend(scene),
            CampaignSpec(params)]


# (instance, name) for every field annotated int of every Checked dataclass
INT_FIELDS = [(obj, f.name) for obj in _checked_samples()
              for f in fields(obj) if f.type in ("int", int)]


class TestChecked:
    def test_samples_cover_every_checked_dataclass(self):
        assert {type(obj) for obj in _checked_samples()} == set(Checked.__subclasses__())
        assert {"points", "nx", "taps", "seed", "horizon"} <= {name for _, name in INT_FIELDS}

    @pytest.mark.parametrize("obj, name", INT_FIELDS,
                             ids=[f"{type(obj).__name__}.{name}" for obj, name in INT_FIELDS])
    def test_int_field_refuses_a_float(self, obj, name):
        value = getattr(obj, name)
        for bad in (value + 0.5, float(value), np.float64(value)):
            with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {bad}$"):
                replace(obj, **{name: bad})
        assert getattr(replace(obj, **{name: np.int64(value)}), name) == value
