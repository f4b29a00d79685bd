"""Channel construction: geometry, calibration, clutter, and the transfer kernel."""

from dataclasses import replace

import numpy as np
import pytest

from ris_sic.budget import fspl_db
from ris_sic.channel import (
    Calibration,
    CellParams,
    ClutterParams,
    Geometry,
    GridSpec,
    SceneParams,
    build_scene,
    composite_transfer,
    default_scene_params,
    si_magnitude_db,
    si_per_point_db,
    transfer_vector,
)
from ris_sic.model import RisConfig
from ris_sic.units import db_to_linear

from conftest import synthetic_scene

FC = 5.385e9
NO_CLUTTER = ClutterParams(relative_power_db=float("-inf"))

# one-hop linear amplitude at exactly 1 m / 5.385 GHz / 0 dBi ends,
# frozen from a 50-digit computation: 10**(-fspl/20)
ONE_HOP_AMP_REF = 0.0044302183465524069256


def clean_params(nx=1, ny=1, distance=1.0, separation=0.0, **geo_kw):
    """Clutter-free scene with all antenna/element gains zeroed."""
    return SceneParams(
        geometry=Geometry(
            nx=nx,
            ny=ny,
            antenna_distance_m=distance,
            antenna_separation_m=separation,
            tx_gain_dbi=0.0,
            rx_gain_dbi=0.0,
            element_gain_dbi=0.0,
            **geo_kw,
        ),
        clutter=NO_CLUTTER,
    )


class TestGeometryHops:
    def test_single_element_boresight_amplitude(self):
        # 1x1 surface centered at origin, antennas co-located on boresight at 1 m:
        # each hop is exactly the 1 m free-space amplitude
        scene = build_scene(clean_params())
        assert abs(scene.h[0, 0]) == pytest.approx(ONE_HOP_AMP_REF, rel=1e-12)
        assert abs(scene.g[0, 0]) == pytest.approx(ONE_HOP_AMP_REF, rel=1e-12)

    def test_hop_amplitudes_match_scalar_fspl(self):
        p = default_scene_params()
        p = replace(p, geometry=replace(p.geometry, nx=3, ny=5), clutter=NO_CLUTTER)
        scene = build_scene(p)
        geo = p.geometry
        n = geo.nx * geo.ny
        for i in range(n):
            ix, iy = divmod(i, geo.ny)
            ex = (ix - (geo.nx - 1) / 2.0) * geo.pitch_m
            ez = (iy - (geo.ny - 1) / 2.0) * geo.pitch_m
            d_tx = np.hypot(
                np.hypot(ex + geo.antenna_separation_m / 2.0, geo.antenna_distance_m), ez
            )
            expected = db_to_linear(
                -fspl_db(d_tx, FC, geo.tx_gain_dbi, geo.element_gain_dbi)
            )
            assert abs(scene.h[i, 0]) == pytest.approx(expected, rel=1e-9)

    def test_hop_phase_is_propagation_delay(self):
        scene = build_scene(clean_params())
        # d = 1 m exactly; phase should be -2*pi*f*d/c0 modulo 2*pi
        expected = np.exp(-2j * np.pi * FC * 1.0 / 299_792_458.0)
        got = scene.h[0, 0] / abs(scene.h[0, 0])
        assert got == pytest.approx(expected, rel=1e-9)

    def test_corner_element_farther_than_center(self):
        p = default_scene_params()
        p = replace(p, clutter=NO_CLUTTER)
        scene = build_scene(p)
        amps = np.abs(scene.h[:, 0])
        # row-major: element (0,0) is a corner; the middle of the 16x16 grid
        # is nearer to boresight and must see the stronger hop
        center_idx = 7 * 16 + 7
        assert amps[center_idx] > amps[0]

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            build_scene(clean_params(distance=1e-12))


class TestCalibration:
    def test_direct_magnitude_at_center_hits_isolation_target(self):
        for params in (default_scene_params(), clean_params(nx=4, ny=4)):
            scene = build_scene(params)
            target = db_to_linear(-params.calibration.alpha_iso_db)
            k_center = scene.grid.k // 2
            assert abs(scene.direct[k_center]) == pytest.approx(target, rel=1e-12)

    def test_direct_db_level(self):
        scene = build_scene(default_scene_params())
        db = 20 * np.log10(abs(scene.direct[0]))
        assert db == pytest.approx(-44.0, abs=1e-9)

    def test_calibration_with_custom_isolation(self):
        p = replace(default_scene_params(), calibration=Calibration(alpha_iso_db=60.0))
        scene = build_scene(p)
        assert 20 * np.log10(abs(scene.direct[0])) == pytest.approx(-60.0, abs=1e-9)


class TestClutter:
    def test_disabled_flag(self):
        assert not NO_CLUTTER.enabled
        assert ClutterParams().enabled

    def test_determinism_same_seed(self):
        p = default_scene_params()
        a, b = build_scene(p), build_scene(p)
        np.testing.assert_array_equal(a.direct, b.direct)
        np.testing.assert_array_equal(a.h, b.h)
        np.testing.assert_array_equal(a.g, b.g)

    def test_seed_override_changes_channels(self):
        p = default_scene_params()
        a, b = build_scene(p), build_scene(p, seed=999)
        assert not np.array_equal(a.h, b.h)

    def test_seed_override_equals_inline_seed(self):
        p = default_scene_params()
        q = replace(p, clutter=replace(p.clutter, seed=999))
        np.testing.assert_array_equal(build_scene(p, seed=999).h, build_scene(q).h)

    def test_clutter_perturbs_but_respects_power_ratio(self):
        p = default_scene_params()
        clean = build_scene(replace(p, clutter=NO_CLUTTER))
        dirty = build_scene(p)
        rel = np.abs(dirty.h[:, 0] - clean.h[:, 0]) / np.abs(clean.h[:, 0])
        assert np.all(rel > 0.0)
        # tap sum has unit average power, scaled by 10^(-14/20) ~ 0.2;
        # individual draws vary but the ensemble mean should sit near it
        assert 0.05 < rel.mean() < 0.6

    def test_validation(self):
        with pytest.raises(ValueError):
            ClutterParams(taps=0)
        with pytest.raises(ValueError):
            ClutterParams(delay_spread_s=-1e-9)
        with pytest.raises(ValueError):
            ClutterParams(seed=-1)


class TestGridSpec:
    def test_narrowband_roundtrip(self):
        grid = GridSpec(FC, 0.0, 1).to_grid()
        assert grid.is_narrowband and grid.points[0] == FC

    def test_wideband_roundtrip(self):
        grid = GridSpec(FC, 10e6, 11).to_grid()
        assert grid.k == 11 and grid.span_hz == pytest.approx(10e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(FC, 0.0, 5)  # narrowband must be a single point
        with pytest.raises(ValueError):
            GridSpec(FC, 10e6, 1)  # wideband needs >= 2
        with pytest.raises(ValueError):
            GridSpec(-1.0, 0.0, 1)
        with pytest.raises(ValueError):
            GridSpec(FC, -5e6, 3)
        with pytest.raises(ValueError):
            GridSpec(FC, 3 * FC, 5)


class TestTransferKernel:
    def test_matches_naive_loop(self):
        scene = synthetic_scene(3, 4, points=7, seed=5)
        rng = np.random.default_rng(1)
        config = RisConfig(rng.random((3, 4)) < 0.5)
        flat = config.flat()
        expected = np.array(scene.direct, dtype=complex)
        for i in range(scene.n_elements):
            gamma = scene.cell.reflection(bool(flat[i]), scene.grid.points)
            expected = expected + scene.h[i] * gamma * scene.g[i]
        got = transfer_vector(
            scene.direct, scene.h, scene.g, scene.cell, scene.grid.points, flat
        )
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_composite_transfer_slices_kernel(self):
        scene = synthetic_scene(2, 2, points=5, seed=9)
        config = RisConfig.all_on(2, 2)
        full = transfer_vector(
            scene.direct, scene.h, scene.g, scene.cell, scene.grid.points, config.flat()
        )
        for k in range(5):
            assert composite_transfer(scene, config, k) == full[k]

    def test_point_index_bounds(self):
        scene = synthetic_scene(2, 2, points=5)
        with pytest.raises(IndexError):
            composite_transfer(scene, RisConfig.all_on(2, 2), 5)
        with pytest.raises(IndexError):
            composite_transfer(scene, RisConfig.all_on(2, 2), -1)

    def test_dimension_mismatch_rejected(self):
        scene = synthetic_scene(2, 2)
        with pytest.raises(ValueError, match="2x2"):
            si_per_point_db(scene, RisConfig.all_on(3, 3))

    @pytest.mark.filterwarnings("error")  # -inf must come without a divide warning
    def test_exact_cancellation_yields_null_reading(self):
        # single element; choose the direct path as minus the element path so
        # the composite sum cancels identically at every grid point
        scene0 = synthetic_scene(1, 1, points=5, seed=3)
        gamma_on = scene0.cell.reflection(True, scene0.grid.points)
        cancel = -(scene0.h * gamma_on[None, :] * scene0.g)[0]
        from ris_sic.channel import Scene

        scene = Scene.from_arrays(
            grid=scene0.grid, direct=cancel, h=scene0.h, g=scene0.g,
            cell=scene0.cell, nx=1, ny=1,
        )
        reading = si_magnitude_db(scene, RisConfig.all_on(1, 1))
        assert reading.is_null
        assert np.all(np.isneginf(reading.per_point_db))

        # doubling the direct path at odd points leaves H = -direct there,
        # so one reading mixes -inf with finite values
        partial = cancel.copy()
        partial[1::2] *= 2.0
        scene = Scene.from_arrays(
            grid=scene0.grid, direct=partial, h=scene0.h, g=scene0.g,
            cell=scene0.cell, nx=1, ny=1,
        )
        reading = si_magnitude_db(scene, RisConfig.all_on(1, 1))
        assert np.array_equal(np.isneginf(reading.per_point_db),
                              [True, False, True, False, True])
        assert np.array_equal(reading.per_point_db[1::2],
                              20.0 * np.log10(np.abs(cancel[1::2])))
        assert reading.magnitude_db == reading.per_point_db[1::2].max()
        assert not reading.is_null

    def test_reading_is_max_over_grid(self):
        scene = synthetic_scene(2, 3, points=9, seed=11)
        config = RisConfig.all_off(2, 3)
        per = si_per_point_db(scene, config)
        reading = si_magnitude_db(scene, config)
        assert reading.magnitude_db == np.max(per)
        np.testing.assert_array_equal(reading.per_point_db, per)

    def test_off_state_differs_from_on_state(self):
        scene = build_scene(clean_params(nx=2, ny=2))
        on = si_magnitude_db(scene, RisConfig.all_on(2, 2)).magnitude_db
        off = si_magnitude_db(scene, RisConfig.all_off(2, 2)).magnitude_db
        assert on != off


class TestSceneObject:
    def test_arrays_frozen(self, small_scene):
        with pytest.raises(ValueError):
            small_scene.direct[0] = 0.0
        with pytest.raises(ValueError):
            small_scene.h[0, 0] = 0.0

    def test_shapes(self, small_scene):
        assert small_scene.direct.shape == (1,)
        assert small_scene.h.shape == (16, 1)
        assert small_scene.g.shape == (16, 1)
        assert small_scene.n_elements == 16

    def test_shape_validation(self):
        s = synthetic_scene(2, 2, points=3)
        from ris_sic.channel import Scene

        with pytest.raises(ValueError):
            Scene.from_arrays(
                grid=s.grid, direct=s.direct[:2], h=s.h, g=s.g,
                cell=s.cell, nx=2, ny=2,
            )
        with pytest.raises(ValueError):
            Scene.from_arrays(
                grid=s.grid, direct=s.direct, h=s.h[:3], g=s.g,
                cell=s.cell, nx=2, ny=2,
            )

    def test_synthetic_scene_has_no_generative_model(self):
        s = synthetic_scene(2, 2)
        with pytest.raises(ValueError, match="generative"):
            s.channels_at(np.array([FC]))

    def test_built_scene_channels_at_grid_matches_arrays(self, wideband_scene):
        direct, h, g = wideband_scene.channels_at(wideband_scene.grid.points)
        np.testing.assert_array_equal(direct, wideband_scene.direct)
        np.testing.assert_array_equal(h, wideband_scene.h)
        np.testing.assert_array_equal(g, wideband_scene.g)

    def test_default_params_shape(self):
        p = default_scene_params()
        assert (p.geometry.nx, p.geometry.ny) == (16, 16)
        assert p.grid.center_hz == FC
        assert p.calibration.alpha_iso_db == 44.0
        # half-wavelength element pitch at the carrier
        assert p.geometry.pitch_m == pytest.approx(0.027835882822655524605, rel=1e-15)


class TestCellParamsWiring:
    def test_cell_params_reach_the_cell(self):
        p = replace(
            default_scene_params(),
            cell=CellParams(amplitude_on=0.7, amplitude_off=0.95, phase_target_deg=150.0),
        )
        scene = build_scene(p)
        assert scene.cell.amplitude_on == 0.7
        assert scene.cell.amplitude_off == 0.95
        assert scene.cell.phase_difference_deg(FC) == pytest.approx(150.0, abs=1.0)
