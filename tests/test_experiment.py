"""Campaign orchestration, bandwidth sweeps, and spectrum snapshots."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ris_sic.backend import SimulatedBackend
from ris_sic.channel import GridSpec, build_scene, si_per_point_db
from ris_sic.experiment import (
    CampaignResult,
    CampaignSpec,
    bandwidth_sweep,
    campaign_spec_hash,
    extend_curve,
    run_campaign,
    transfer_snapshot,
)
from ris_sic.model import RisConfig, SiReading
from ris_sic.search import ConvergenceTrace, greedy_optimize


def small_spec(small_params, **kw):
    defaults = dict(
        scene=small_params, algorithm="greedy", runs=3, master_seed=7,
        horizon=200, buffer_size=10, stall_limit=40,
    )
    defaults.update(kw)
    return CampaignSpec(**defaults)


class TestExtendCurve:
    def test_pads_with_last_value(self):
        out = extend_curve(np.array([-40.0, -42.0]), 5)
        np.testing.assert_array_equal(out, [-40.0, -42.0, -42.0, -42.0, -42.0])

    def test_truncates(self):
        out = extend_curve(np.array([-40.0, -41.0, -42.0]), 2)
        np.testing.assert_array_equal(out, [-40.0, -41.0])

    def test_exact_length_is_copy(self):
        src = np.array([-40.0, -41.0])
        out = extend_curve(src, 2)
        np.testing.assert_array_equal(out, src)
        out[0] = 0.0
        assert src[0] == -40.0

    def test_validation(self):
        with pytest.raises(ValueError):
            extend_curve(np.array([-40.0]), 0)
        with pytest.raises(ValueError):
            extend_curve(np.array([]), 5)


class TestCampaignSpec:
    def test_validation(self, small_params):
        with pytest.raises(ValueError):
            small_spec(small_params, algorithm="annealing")
        with pytest.raises(ValueError):
            small_spec(small_params, runs=0)
        with pytest.raises(ValueError):
            small_spec(small_params, master_seed=-1)
        with pytest.raises(ValueError):
            small_spec(small_params, horizon=0)
        with pytest.raises(ValueError):
            small_spec(small_params, buffer_size=1)
        with pytest.raises(ValueError):
            small_spec(small_params, stall_limit=0)

    def test_greedy_horizon_must_cover_the_warm_up(self, small_params):
        with pytest.raises(ValueError, match="warm-up"):
            small_spec(small_params, horizon=9, buffer_size=10)
        assert small_spec(small_params, horizon=10, buffer_size=10).horizon == 10
        # the random baseline keeps no buffer
        assert small_spec(small_params, algorithm="random", horizon=9).horizon == 9

    def test_hash_stability(self, small_params):
        a = small_spec(small_params)
        b = small_spec(small_params)
        assert campaign_spec_hash(a) == campaign_spec_hash(b)
        assert len(campaign_spec_hash(a)) == 16

    def test_hash_sensitivity(self, small_params):
        base = small_spec(small_params)
        assert campaign_spec_hash(base) != campaign_spec_hash(
            small_spec(small_params, master_seed=8)
        )
        other_scene = replace(
            small_params, clutter=replace(small_params.clutter, seed=555)
        )
        assert campaign_spec_hash(base) != campaign_spec_hash(
            small_spec(other_scene)
        )


class TestRunCampaign:
    def test_shapes_and_aggregates(self, small_params):
        spec = small_spec(small_params)
        res = run_campaign(spec)
        assert res.curves.shape == (3, 200)
        assert res.mean_curve.shape == (200,)
        assert res.final_values.shape == (3,)
        np.testing.assert_array_equal(res.mean_curve, res.curves.mean(axis=0))
        np.testing.assert_array_equal(res.final_values, res.curves[:, -1])
        assert len(res.traces) == 3
        assert res.spec_hash == campaign_spec_hash(spec)

    def test_deterministic_given_spec(self, small_params):
        spec = small_spec(small_params)
        a, b = run_campaign(spec), run_campaign(spec)
        np.testing.assert_array_equal(a.curves, b.curves)
        for ta, tb in zip(a.traces, b.traces):
            np.testing.assert_array_equal(ta.evaluated, tb.evaluated)
            assert ta.best_config == tb.best_config

    def test_master_seed_changes_everything(self, small_params):
        a = run_campaign(small_spec(small_params, master_seed=1))
        b = run_campaign(small_spec(small_params, master_seed=2))
        assert not np.array_equal(a.curves, b.curves)

    def test_runs_use_independent_streams(self, small_params):
        res = run_campaign(small_spec(small_params))
        assert not np.array_equal(res.traces[0].evaluated[:10], res.traces[1].evaluated[:10])

    def test_curve_padding_matches_trace_tail(self, small_params):
        res = run_campaign(small_spec(small_params))
        for r, tr in enumerate(res.traces):
            n = min(tr.cumulative.size, 200)
            np.testing.assert_array_equal(res.curves[r, :n], tr.cumulative[:n])
            if n < 200:
                assert np.all(res.curves[r, n:] == tr.cumulative[-1])

    def test_runs_stop_at_the_horizon(self, small_params):
        # buffer + stall = 50 > 40: without the cap every run passes the horizon
        spec = small_spec(small_params, horizon=40, buffer_size=10, stall_limit=40)
        res = run_campaign(spec)
        backend = SimulatedBackend(build_scene(small_params))
        for r, tr in enumerate(res.traces):
            assert tr.iterations_total == 40
            assert backend.evaluate(tr.best_config).magnitude_db == res.final_values[r]
        assert backend.evaluate(res.best_config).magnitude_db == res.final_best_db

    def test_random_algorithm_runs_to_horizon(self, small_params):
        spec = small_spec(small_params, algorithm="random", horizon=60)
        res = run_campaign(spec)
        for tr in res.traces:
            assert tr.algorithm == "random"
            assert tr.iterations_total == 60

    def test_best_run_and_config(self, small_params):
        res = run_campaign(small_spec(small_params))
        idx = res.best_run_index
        assert res.final_values[idx] == res.final_best_db
        assert res.best_config == res.traces[idx].best_config

    def test_summary_stats(self, small_params):
        res = run_campaign(small_spec(small_params))
        assert res.final_best_db <= res.final_median_db <= res.final_worst_db
        assert res.final_best_db <= res.final_mean_db <= res.final_worst_db

    def test_progress_callback(self, small_params):
        seen = []
        run_campaign(small_spec(small_params), progress=lambda r, t: seen.append(r))
        assert seen == [0, 1, 2]

    def test_result_validation(self, small_params):
        # the hash and the curves derive from spec and traces, so one trace
        # per run is all a result has to validate
        res = run_campaign(small_spec(small_params))
        for traces in (res.traces[:-1], res.traces + res.traces[:1]):
            with pytest.raises(ValueError, match=f"^{len(traces)} traces for 3 runs$"):
                CampaignResult(spec=res.spec, traces=traces, created_utc=res.created_utc)
        again = CampaignResult(spec=res.spec, traces=res.traces, created_utc=res.created_utc)
        np.testing.assert_array_equal(again.curves, res.curves)
        assert again.spec_hash == res.spec_hash
        assert not res.curves.flags.writeable and not res.final_values.flags.writeable

    def test_result_keeps_no_curves(self, small_params):
        # the (runs, horizon) curves are rebuilt on access: 20 x 5,000 would hold 781 KiB
        spec = small_spec(small_params, runs=20, horizon=5000)
        rng = np.random.default_rng(1)
        traces = []
        for size in rng.integers(100, 6000, spec.runs):
            ev = -40.0 - 30.0 * rng.random(size)
            best = SiReading.from_per_point([ev.min()])
            traces.append(ConvergenceTrace("random", ev, RisConfig.all_off(4, 4), best))
        tracemalloc.start()
        try:
            res = CampaignResult(spec=spec, traces=tuple(traces), created_utc="")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 64 << 10
        np.testing.assert_array_equal(res.mean_curve, res.curves.mean(axis=0))
        np.testing.assert_array_equal(res.final_values, res.curves[:, -1])

    def test_derived_fields_are_not_arguments(self, small_params):
        res = run_campaign(small_spec(small_params))
        for extra in ({"spec_hash": res.spec_hash}, {"curves": res.curves},
                      {"mean_curve": res.mean_curve}, {"final_values": res.final_values}):
            with pytest.raises(TypeError):
                CampaignResult(spec=res.spec, traces=res.traces, created_utc="", **extra)


class TestBandwidthSweep:
    def test_rows_follow_request_order(self, small_params):
        results = bandwidth_sweep(
            small_params, [0.0, 5e6], points=5, runs=2,
            master_seed=3, horizon=120, buffer_size=8, stall_limit=25,
        )
        assert [r.spec.scene.grid.bandwidth_hz for r in results] == [0.0, 5e6]
        assert results[0].spec.scene.grid.points == 1
        assert results[1].spec.scene.grid.points == 5

    def test_zero_bandwidth_is_narrowband(self, small_params):
        results = bandwidth_sweep(
            small_params, [0.0], runs=2, master_seed=3,
            horizon=100, buffer_size=8, stall_limit=20,
        )
        assert results[0].spec.scene.grid.points == 1
        assert results[0].spec.scene.grid.bandwidth_hz == 0.0

    def test_stats_come_from_attached_result(self, small_params):
        # each point is the campaign of its own spec, so its statistics are too
        results = bandwidth_sweep(
            small_params, [0.0, 5e6], points=5, runs=2,
            master_seed=3, horizon=120, buffer_size=8, stall_limit=25,
        )
        for result in results:
            alone = run_campaign(result.spec)
            np.testing.assert_array_equal(result.curves, alone.curves)
            assert result.final_median_db == alone.final_median_db
            assert result.spec.runs == 2

    def test_shared_master_seed(self, small_params):
        results = bandwidth_sweep(
            small_params, [0.0, 5e6], points=5, runs=2,
            master_seed=9, horizon=100, buffer_size=8, stall_limit=20,
        )
        assert all(r.spec.master_seed == 9 for r in results)

    def test_validation(self, small_params):
        with pytest.raises(ValueError):
            bandwidth_sweep(small_params, [])
        with pytest.raises(ValueError):
            bandwidth_sweep(small_params, [5e6, 5e6], runs=1)
        with pytest.raises(ValueError):
            bandwidth_sweep(small_params, [-1.0], runs=1)

    @pytest.mark.parametrize("bandwidths", [
        [0.0, -5e6], [0.0, float("nan")], [0.0, float("inf")], [0.0, 20e9],
    ])
    def test_bandwidths_validated_before_any_campaign(self, small_params, monkeypatch,
                                                      bandwidths):
        def fail(spec):
            raise AssertionError("a campaign ran before the bandwidths were validated")

        monkeypatch.setattr("ris_sic.experiment.run_campaign", fail)
        with pytest.raises(ValueError):
            bandwidth_sweep(small_params, bandwidths, points=5, runs=1, horizon=10,
                            buffer_size=2, stall_limit=5)


class TestTransferSnapshot:
    def test_grid_coincidence_is_exact(self, wideband_scene, wideband_params):
        # span/points equal to the evaluation grid -> identical frequencies
        # and bit-identical dB values
        from ris_sic.model import RisConfig

        # the snapshot computes its term tables per call from fresh channel
        # arrays; the readings use the memoised tables of the scene
        rng = np.random.default_rng(12)
        configs = [RisConfig.all_on(4, 4)] + [RisConfig(rng.random((4, 4)) < 0.5) for _ in range(8)]
        # odd K, even K, and a span narrow enough that the steps are not equidistant
        scenes = [wideband_scene] + [
            build_scene(replace(wideband_params, grid=GridSpec(5.385e9, span, k)))
            for span, k in ((10e6, 10), (1.0, 11))]
        for scene in scenes:
            for config in configs:
                freqs, si = transfer_snapshot(scene, config, scene.grid.spec.bandwidth_hz,
                                              scene.grid.k)
                np.testing.assert_array_equal(freqs, scene.grid.points)
                np.testing.assert_array_equal(si, si_per_point_db(scene, config))

    def test_narrowband_optimum_sits_near_center(self, default_scene):
        # a deep converged narrowband null is carved at the carrier; the
        # snapshot minimum should land within one frequency step of it
        backend = SimulatedBackend(default_scene)
        tr = greedy_optimize(backend, 40, 200, np.random.default_rng(0))
        assert tr.best_reading.magnitude_db < -80.0
        freqs, si = transfer_snapshot(default_scene, tr.best_config, 20e6, 201)
        step = freqs[1] - freqs[0]
        f_min = freqs[np.argmin(si)]
        assert abs(f_min - default_scene.grid.center_hz) <= step + 1e-6

    def test_span_and_points_validation(self, wideband_scene):
        from ris_sic.model import RisConfig

        config = RisConfig.all_on(4, 4)
        with pytest.raises(ValueError):
            transfer_snapshot(wideband_scene, config, 0.0, 11)
        center = wideband_scene.grid.center_hz
        for span in (12e9, 2.0 * center, float("nan")):  # reach 0 Hz or undefined
            with pytest.raises(ValueError, match="positive-frequency span"):
                transfer_snapshot(wideband_scene, config, span, 5)
        with pytest.raises(ValueError):
            transfer_snapshot(wideband_scene, config, 10e6, 1)
        with pytest.raises(ValueError):
            transfer_snapshot(wideband_scene, RisConfig.all_on(3, 3), 10e6, 11)

    def test_synthetic_scene_unsupported(self):
        from conftest import synthetic_scene
        from ris_sic.model import RisConfig

        scene = synthetic_scene(2, 2, points=5)
        with pytest.raises(ValueError, match="generative"):
            transfer_snapshot(scene, RisConfig.all_on(2, 2), 10e6, 11)
