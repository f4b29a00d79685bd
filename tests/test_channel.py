"""Channel construction: geometry, calibration, clutter, and the transfer kernel."""

import gc
import hashlib
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from ris_sic import channel
from ris_sic.backend import SimulatedBackend
from ris_sic.budget import fspl_db
from ris_sic.channel import (
    Calibration,
    CellParams,
    ClutterParams,
    Geometry,
    GridSpec,
    Scene,
    SceneParams,
    build_scene,
    default_scene_params,
    si_per_point_db,
    transfer_vector,
)
from ris_sic.cell import UnitCellModel
from ris_sic.model import FrequencyGrid, RisConfig
from ris_sic.sceneio import SceneFormatError, parse_scene_text
from ris_sic.units import db_to_linear

from conftest import edited_scene_text, synthetic_scene

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
        grid = FrequencyGrid(GridSpec(FC, 0.0, 1))
        assert grid.k == 1 and grid.points.tolist() == [FC]

    def test_wideband_roundtrip(self, small_params):
        grid = FrequencyGrid(GridSpec(FC, 10e6, 11))
        assert grid.k == 11 and grid.points[-1] - grid.points[0] == pytest.approx(10e6)
        # narrow spans whose linspace steps differ by more than 1e-9 relative
        for bandwidth, points in ((1000.0, 10001), (1.0, 11)):
            scene = build_scene(replace(small_params, grid=GridSpec(FC, bandwidth, points)))
            np.testing.assert_array_equal(scene.grid.points, np.linspace(
                FC - bandwidth / 2.0, FC + bandwidth / 2.0, points))

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
        with pytest.raises(ValueError, match="distinct float64"):
            GridSpec(FC, 0.001, 10001)  # 0.1 uHz steps repeat float64 frequencies
        # a scene file reports it at its points line
        text = edited_scene_text("bandwidth_hz", "0.001").replace("points = 1", "points = 10001")
        lineno = text.splitlines().index("points = 10001") + 1
        with pytest.raises(SceneFormatError, match=rf"^doc\.ini:{lineno}: .*distinct float64"):
            parse_scene_text(text, source="doc.ini")
        # a top edge past the float range is refused before the axis is built, at the
        # scene file's bandwidth_hz line
        with pytest.raises(ValueError, match="^bandwidth_hz puts the grid's top edge past"):
            GridSpec(1.5e308, 1.5e308, 3)
        text = edited_scene_text("center_hz", "1.5e308").replace(
            "bandwidth_hz = 0.0", "bandwidth_hz = 1.5e308").replace("points = 1", "points = 3")
        lineno = text.splitlines().index("bandwidth_hz = 1.5e308") + 1
        with pytest.raises(SceneFormatError, match=rf"^doc\.ini:{lineno}: bandwidth_hz puts"):
            parse_scene_text(text, source="doc.ini")

    @pytest.mark.parametrize("center, bandwidth, points", [
        (float("inf"), 0.0, 1), (float("nan"), 0.0, 1),
        (FC, float("nan"), 11), (FC, float("inf"), 11),
    ])
    def test_non_finite_frequencies_rejected(self, center, bandwidth, points):
        with pytest.raises(ValueError, match="^(center|bandwidth)_hz must be finite, got"):
            GridSpec(center, bandwidth, points)


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
        reading = SimulatedBackend(scene).evaluate(RisConfig.all_on(1, 1))
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
        reading = SimulatedBackend(scene).evaluate(RisConfig.all_on(1, 1))
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
        reading = SimulatedBackend(scene).evaluate(config)
        assert reading.magnitude_db == np.max(per)
        np.testing.assert_array_equal(reading.per_point_db, per)

    def test_off_state_differs_from_on_state(self):
        scene = build_scene(clean_params(nx=2, ny=2))
        backend = SimulatedBackend(scene)
        on = backend.evaluate(RisConfig.all_on(2, 2)).magnitude_db
        off = backend.evaluate(RisConfig.all_off(2, 2)).magnitude_db
        assert on != off


def direct_formula(direct, h, g, cell, freqs, flat):
    """The kernel without term tables: every product formed on each call."""
    gamma = np.where(flat[:, None], cell.reflection(True, freqs), cell.reflection(False, freqs))
    return direct + (h * gamma * g).sum(axis=0)


def kernel_args(scene):
    return scene.direct, scene.h, scene.g, scene.cell, scene.grid.points


def built_scene(side, points):
    p = default_scene_params()
    grid = GridSpec(FC, 10e6, points) if points > 1 else GridSpec(FC)
    return build_scene(replace(p, geometry=replace(p.geometry, nx=side, ny=side), grid=grid))


@pytest.mark.bitexact
class TestTermTables:
    """The table kernel against the direct formula, bit for bit, and its memo."""

    @pytest.mark.parametrize("side, points", [(4, 1), (4, 11), (16, 1), (16, 11)])
    def test_built_scene_equals_direct_formula(self, side, points):
        scene = built_scene(side, points)
        args = kernel_args(scene)
        states = np.random.default_rng(side * 100 + points).random((512, side * side)) < 0.5
        for flat in states:
            assert np.array_equal(transfer_vector(*args, flat), direct_formula(*args, flat))

    def test_synthetic_scene_equals_direct_formula(self):
        scene = synthetic_scene(3, 4, points=7, seed=5)
        args = kernel_args(scene)
        for flat in np.random.default_rng(8).random((512, 12)) < 0.5:
            assert np.array_equal(transfer_vector(*args, flat), direct_formula(*args, flat))

    def test_tables_are_read_only_and_reused(self, wideband_scene):
        freqs = wideband_scene.grid.points
        h, g = wideband_scene.h, wideband_scene.g
        gamma_on = wideband_scene.cell.reflection(True, freqs)
        gamma_off = wideband_scene.cell.reflection(False, freqs)
        table, rows = channel._path_terms(h, g, gamma_on, gamma_off, freqs)
        again = channel._path_terms(h, g, gamma_on, gamma_off, freqs)
        assert again[0] is table and again[1] is rows
        assert not table.flags.writeable
        assert table.shape == (2 * h.shape[0], h.shape[1])
        assert np.array_equal(rows, 2 * np.arange(h.shape[0]))
        assert np.array_equal(table[rows], h * gamma_off * g)
        assert np.array_equal(table[rows + 1], h * gamma_on * g)

    def test_snapshot_keeps_the_grid_caches(self):
        # a snapshot's blocks are views of a writable axis: read afresh, never stored
        from ris_sic.experiment import transfer_snapshot

        scene = built_scene(16, 11)
        config = RisConfig(np.random.default_rng(4).random((16, 16)) < 0.5)
        si_per_point_db(scene, config)
        kept = dict(scene.cell._reflection_memo)
        table = channel._PATH_TERMS_LAST[4]
        transfer_snapshot(scene, config, 20e6, 4097)
        assert sorted(kept) == [False, True]
        assert all(scene.cell._reflection_memo[state][1] is gamma
                   for state, (_, gamma) in kept.items())
        assert channel._PATH_TERMS_LAST[4] is table

    def test_copied_axis_keeps_the_grid_table(self):
        # a writable copy of the grid's axis is not immutable,
        # so the kernel neither stores a table for it nor drops the grid's
        scene = built_scene(16, 11)
        flat = np.random.default_rng(6).random(256) < 0.5
        args = kernel_args(scene)
        want = transfer_vector(*args, flat)
        table = channel._PATH_TERMS_LAST[4]
        for _ in range(2):
            copied = scene.grid.points.copy()
            got = transfer_vector(scene.direct, scene.h, scene.g, scene.cell, copied, flat)
            assert got.tobytes() == want.tobytes()
            assert channel._PATH_TERMS_LAST[4] is table

    @pytest.mark.parametrize("read_only_view", [False, True])
    def test_writable_channel_is_read_afresh_and_never_stored(self, read_only_view):
        scene = synthetic_scene(2, 3, points=5, seed=2)
        base = np.array(scene.h)
        h = base
        if read_only_view:  # read-only, but its memory can still change
            h = base.view()
            h.setflags(write=False)
        direct, _, g, cell, freqs = kernel_args(scene)
        flat = np.array([True, False, True, True, False, False])
        before = transfer_vector(direct, h, g, cell, freqs, flat)
        base[0] *= 2.0
        after = transfer_vector(direct, h, g, cell, freqs, flat)
        assert np.array_equal(before, transfer_vector(*kernel_args(scene), flat))
        assert np.array_equal(after, direct_formula(direct, h, g, cell, freqs, flat))
        assert not np.array_equal(before, after)
        assert all(kept is not h for kept in channel._PATH_TERMS_LAST)

    def test_memo_releases_the_previous_scene(self):
        flat = np.array([True, False, False, True])
        first = synthetic_scene(2, 2, points=3, seed=0)
        assert np.array_equal(transfer_vector(*kernel_args(first), flat),
                              direct_formula(*kernel_args(first), flat))
        first_h = weakref.ref(first.h)
        del first
        second = synthetic_scene(2, 2, points=3, seed=1)
        assert np.array_equal(transfer_vector(*kernel_args(second), flat),
                              direct_formula(*kernel_args(second), flat))
        gc.collect()
        assert first_h() is None
        assert channel._PATH_TERMS_LAST[0] is second.h


def full_tensor_tap_response(gains, delays, freqs):
    """Clutter taps from the whole (..., M, K) phase tensor at once."""
    m = gains.shape[-1]
    phase = np.exp(-2j * np.pi * delays[..., :, None] * freqs[None, :])
    return np.einsum("...m,...mk->...k", gains, phase) / math.sqrt(m)


@pytest.mark.bitexact
class TestTapResponse:
    """Clutter taps cut along the frequency axis, as the callers cut it, against
    the full-tensor formula, byte for byte; ``block`` is points per call, so
    its two largest values both give one call."""

    @pytest.mark.parametrize("block", [1, 7, 1 << 16, 1 << 30])
    @pytest.mark.parametrize("k", [1, 2, 11, 201])
    @pytest.mark.parametrize("lead", [(), (37,)])
    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_blocks_equal_full_tensor(self, block, k, lead, m):
        rng = np.random.default_rng(1000 * m + k)
        gains = rng.standard_normal(lead + (m,)) + 1j * rng.standard_normal(lead + (m,))
        delays = rng.uniform(0.0, 30e-9, size=lead + (m,))
        freqs = np.linspace(FC - 10e6, FC + 10e6, k) if k > 1 else np.array([FC])
        got = np.concatenate([channel._tap_response(gains, delays, freqs[a:a + block])
                              for a in range(0, k, block)], axis=-1)
        want = full_tensor_tap_response(gains, delays, freqs)
        assert got.shape == want.shape == lead + (k,)
        assert got.tobytes() == want.tobytes()

    def test_shipped_snapshot_spans_blocks(self):
        # the default 16x16, 8-tap scene on a 201-point axis: six 32-point
        # frequency blocks and a short last one of 9
        model = build_scene(default_scene_params()).channel_model
        freqs = np.linspace(FC - 10e6, FC + 10e6, 201)
        blocks = channel.freq_blocks(model.d_tx_m.size, freqs.size)
        assert len(blocks) == 7
        for gains, delays in (model.h_taps, model.g_taps, model.direct_taps):
            got = np.concatenate([channel._tap_response(gains, delays, freqs[b])
                                  for b in blocks], axis=-1)
            assert got.tobytes() == full_tensor_tap_response(gains, delays, freqs).tobytes()

    def test_snapshot_channels_peak_memory_is_bounded(self):
        # one frequency block's (N, M, K) phase tensor at a time, never the
        # whole axis's: the extra peak grows with the taps, not the points
        p = default_scene_params()
        freqs = np.linspace(FC - 10e6, FC + 10e6, 2001)
        for taps in (8, 64):
            scene = build_scene(replace(p, clutter=replace(p.clutter, taps=taps)))
            tracemalloc.start()
            try:
                out = scene.channels_at(freqs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            extra = taps * channel.FREQ_BLOCK * 16 + 2 * 2**20
            assert peak < sum(a.nbytes for a in out) + extra, taps


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


# sha256 of (direct, h, g) per case, captured before the taps were blocked;
# h and g go through float64 log10 and power, whose bits depend on the loop
# numpy dispatches: SVML on X86_V4, the C library's on the baseline (glibc 2.36)
CHANNEL_PINS = {
    "X86_V4": {
        "default": ("3080312ae74416ecdcc08890f78e4afc38f21630a1cfe7cb9560ae02896ed6eb",
                    "495a4ffcade7909efb113cf7fd23521b4f5d7b46b961d57dd5b13e7cc6d49ec2",
                    "094cb3ea00d61ab6ccbcd29635246ba6c086e369ffd3f9e73dde20320d6169c6"),
        "wb10": ("e0a2c0b1cffe0603e57dfd30222509273fc49e1879d7207b26bafa9bfb252fae",
                 "50799376011956b6f9875f58e6b5edc5249731e290bd8aceea7a8e13987b8260",
                 "5954176ed288b2e22f7ced350a033d0aa68702c12c0d2109a535144d9d9504bf"),
        "snapshot201": ("baa70f855a17d7d6e34bf27d1d2cba21b75f9c29dd5fed784fa0b352d7c7545c",
                        "cb4af2a45ab5c9d76e7bb989204258299494388a97d800d66e90903cc265fde2",
                        "a07eb769ac540a03afe3f9db7b0c300dcde1e07be3d1a940014a4da16f41f84c"),
    },
    "baseline(X86_V2)": {
        "default": ("3080312ae74416ecdcc08890f78e4afc38f21630a1cfe7cb9560ae02896ed6eb",
                    "f5b1a1ce2ae06cb6f294281462d4a7140830a8f650b232daec92f19e86639a17",
                    "70c2d0b5b909fd16c302d48713a58c93bfa5e13320f423b5497ee3452bda1f13"),
        "wb10": ("e0a2c0b1cffe0603e57dfd30222509273fc49e1879d7207b26bafa9bfb252fae",
                 "a5d0ddf8605131071cb7b19b8dd68cc83769637e781f0e4c38b2f84121966876",
                 "75ebb6c08671aff1a074993c18ed6e1f5a0e3faa96f09ee68ad68bec3fe8ed89"),
        "snapshot201": ("baa70f855a17d7d6e34bf27d1d2cba21b75f9c29dd5fed784fa0b352d7c7545c",
                        "2b3acab241084e8b6fc9ffb452c6a0536fe18db224d17296195d7a1135dbcf91",
                        "2016a90e1f65850303750b1ad380b0c71c64f1115a55bee3ad6fedb4d7c45f33"),
    },
}


def _float64_dispatch():
    try:
        from numpy.lib.introspect import opt_func_info  # numpy >= 2.0
    except ImportError:
        return None
    info = opt_func_info(func_name="log10|power", signature="float64")
    targets = {loop["current"] for loops in info.values() for loop in loops.values()}
    return targets.pop() if len(targets) == 1 else None


@pytest.mark.bitexact
class TestChannelPins:
    """Channel synthesis bits, pinned per float64 dispatch target."""

    @pytest.mark.parametrize("case", ["default", "wb10", "snapshot201"])
    def test_channels_match_pins(self, case):
        target = _float64_dispatch()
        if target not in CHANNEL_PINS:
            pytest.skip(f"no pins for the float64 log10/power dispatch target {target}")
        pins = CHANNEL_PINS[target]
        p = default_scene_params()
        if case == "snapshot201":
            arrays = build_scene(p).channels_at(np.linspace(FC - 10e6, FC + 10e6, 201))
        else:
            scene = build_scene(p if case == "default" else replace(p, grid=GridSpec(FC, 10e6, 11)))
            arrays = scene.direct, scene.h, scene.g
        assert tuple(_sha256(a) for a in arrays) == pins[case]


BLOCK_SCENES = {
    "16x16": {},
    "3x5": {"nx": 3, "ny": 5, "grid": GridSpec(FC, 10e6, 11)},
    "7x9": {"nx": 7, "ny": 9},
}


def block_scene(name):
    p = default_scene_params()
    kw = dict(BLOCK_SCENES[name])
    grid = kw.pop("grid", p.grid)
    return build_scene(replace(p, geometry=replace(p.geometry, **kw), grid=grid))


class TestFrequencyBlocks:
    """Channels and snapshots built block by block against one unblocked pass."""

    @pytest.mark.parametrize("n, k, sizes", [
        (256, 1, [1]), (256, 2, [2]), (256, 32, [32]), (256, 33, [33]), (256, 34, [32, 2]),
        (256, 97, [32, 32, 33]), (256, 201, [32] * 6 + [9]), (15, 11, [11]),
        (1 << 20, 5, [2, 3]),
    ])
    def test_block_sizes(self, n, k, sizes):
        blocks = channel.freq_blocks(n, k)
        assert [b.stop - b.start for b in blocks] == sizes
        assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]

    # 16x16 stops at 257 points: 201 gives seven blocks with a partial last one, 257
    # the lone-point join, and a 2,001-point one-block reference peaks near 100 MiB
    @pytest.mark.parametrize("name, points", [
        (name, points) for name in sorted(BLOCK_SCENES) for points in (2, 33, 201, 257, 2001)
        if (name, points) != ("16x16", 2001)])
    @pytest.mark.bitexact
    def test_blocks_equal_unblocked(self, monkeypatch, name, points):
        from ris_sic.experiment import transfer_snapshot

        scene = block_scene(name)
        config = RisConfig(np.random.default_rng(points).random((scene.nx, scene.ny)) < 0.5)
        freqs = np.linspace(FC - 10e6, FC + 10e6, points)

        def outputs():
            # the snapshot's H, before dB rounding hides a changed summation order
            h_per_block = [transfer_vector(*scene.channels_at(freqs[b]), scene.cell, freqs[b],
                                           config.flat())
                           for b in channel.freq_blocks(scene.n_elements, points)]
            return (*scene.channels_at(freqs), np.concatenate(h_per_block),
                    *transfer_snapshot(scene, config, 20e6, points))

        blocked = outputs()
        monkeypatch.setattr(channel, "FREQ_BLOCK", 1 << 62)  # one block: the unblocked formula
        assert len(channel.freq_blocks(scene.n_elements, points)) == 1
        whole = outputs()
        for got, want in zip(blocked, whole, strict=True):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("points", [2001, 20001])
    def test_snapshot_peak_memory_is_one_block(self, points):
        # the output plus one 32-point block, not (N, K) temporaries
        from ris_sic.experiment import transfer_snapshot

        scene = build_scene(default_scene_params())
        config = RisConfig(np.random.default_rng(3).random((16, 16)) < 0.5)
        tracemalloc.start()
        try:
            transfer_snapshot(scene, config, 20e6, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_channels_peak_memory_is_near_the_output(self):
        scene = build_scene(default_scene_params())
        freqs = np.linspace(FC - 10e6, FC + 10e6, 2001)
        tracemalloc.start()
        try:
            out = scene.channels_at(freqs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * sum(a.nbytes for a in out)


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

    @pytest.mark.parametrize("name, bad", [("direct", np.nan), ("h", np.inf), ("g", -np.inf)])
    def test_non_finite_channels_rejected(self, name, bad):
        s = synthetic_scene(2, 2, points=3)
        arrays = {"direct": s.direct.copy(), "h": s.h.copy(), "g": s.g.copy()}
        arrays[name].flat[1] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            Scene.from_arrays(grid=s.grid, cell=s.cell, nx=2, ny=2, **arrays)

    @pytest.mark.parametrize("scale, amplitude, ok", [
        (1e160, 0.92, False),  # |h||g| = 2e320 overflows
        (1e153, 0.92, True),   # M = 7.4e306 and 2M finite: every reading is finite
        (1e154, 0.92, False),  # M = 7.4e308 overflows
        (1e154, 0.0, True),    # a dark surface adds nothing
    ])
    def test_paths_that_overflow_when_scored_rejected(self, scale, amplitude, ok):
        cell = UnitCellModel.with_phase_target(5.385e9, amplitude_on=amplitude,
                                               amplitude_off=amplitude)
        arrays = dict(grid=FrequencyGrid.narrowband(5.385e9), cell=cell, nx=2, ny=2,
                      direct=np.ones(1), h=np.full((4, 1), scale * (1 + 1j)),
                      g=np.full((4, 1), scale * (1 - 1j)))
        if not ok:
            with pytest.raises(ValueError, match="overflows"):
                Scene.from_arrays(**arrays)
            return
        scene = Scene.from_arrays(**arrays)
        for config in (RisConfig.all_on(2, 2), RisConfig.all_off(2, 2)):
            assert np.isfinite(si_per_point_db(scene, config)).all()

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

    # h and g get |nx * ny| rows, so the shape checks pass and only the bound can refuse
    @pytest.mark.parametrize("nx, ny, field", [(0, 5, "nx"), (-1, -1, "nx"), (2, -1, "ny")])
    def test_dimensions_below_one_rejected(self, nx, ny, field):
        s, rows = synthetic_scene(1, 1, points=1), abs(nx * ny)
        with pytest.raises(ValueError, match=rf"^{field} must be >= 1, got {min(nx, ny)}$"):
            Scene.from_arrays(s.grid, s.direct, np.ones((rows, 1)), np.ones((rows, 1)),
                              s.cell, nx, ny)

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
