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
from ris_sic.search import ConvergenceTrace, EvaluationError, greedy_optimize


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

    @pytest.mark.bitexact
    @pytest.mark.parametrize("runs", [1, 7, 8, 9, 20])
    @pytest.mark.parametrize("algorithm, horizon", [
        ("random", 1), ("random", 2), ("random", 3), ("random", 200),
        ("greedy", 2), ("greedy", 3), ("greedy", 200),  # greedy needs horizon >= buffer >= 2
    ])
    def test_streamed_aggregates_equal_the_stack(self, small_params, algorithm, horizon, runs):
        # numpy adds a stack's rows in sequence at horizon >= 2 but sums a one-column
        # stack pairwise, which differs from a sequential sum from 8 runs on
        spec = small_spec(small_params, algorithm=algorithm, runs=runs, horizon=horizon,
                          buffer_size=2, stall_limit=40)
        res = run_campaign(spec)
        curves = res.curves
        np.testing.assert_array_equal(res.mean_curve, curves.mean(axis=0))
        np.testing.assert_array_equal(res.final_values, curves[:, -1])
        assert res.mean_curve.shape == (horizon,) and res.final_values.shape == (runs,)

    def test_failing_run_reports_its_context(self, small_params, monkeypatch):
        # run 0 takes its 10 evaluations; run 1 fails at its evaluation 3, the 14th call
        evaluate, calls = SimulatedBackend.evaluate, []

        def failing(self, config):
            calls.append(config)
            if len(calls) == 14:
                raise OSError("receiver offline")
            return evaluate(self, config)

        monkeypatch.setattr(SimulatedBackend, "evaluate", failing)
        spec = small_spec(small_params, algorithm="random", runs=2, horizon=10, master_seed=7)
        with pytest.raises(RuntimeError) as exc_info:
            run_campaign(spec)
        assert str(exc_info.value) == (
            "campaign aborted: run 1 (master_seed=7, spawn key 1) failed: "
            "evaluation 3 failed: OSError: receiver offline")
        cause = exc_info.value.__cause__
        assert type(cause) is EvaluationError and cause.iteration == 3
        assert len(calls) == 14

    @pytest.mark.bitexact
    def test_streamed_mean_keeps_the_stack_signed_zeros(self, small_params):
        # the stack's sum starts from +0.0, so rows of -0.0 average to +0.0
        spec = small_spec(small_params, algorithm="random", runs=2, horizon=2)
        best = SiReading.from_per_point([-0.0])
        traces = tuple(ConvergenceTrace("random", [-0.0, -0.0], RisConfig.all_off(4, 4), best)
                       for _ in range(2))
        res = CampaignResult(spec=spec, traces=traces, created_utc="")
        expected = res.curves.mean(axis=0)
        np.testing.assert_array_equal(res.mean_curve, expected)
        assert np.signbit(res.mean_curve).tolist() == np.signbit(expected).tolist()

    def test_building_the_result_holds_one_curve_at_a_time(self, small_params):
        # a stacked (runs, horizon) array would peak at 200 x 5,000 x 8 B = 7.6 MiB
        spec = small_spec(small_params, algorithm="random", runs=200, horizon=5000)
        rng = np.random.default_rng(2)
        traces = []
        for _ in range(spec.runs):
            ev = -40.0 - 30.0 * rng.random(spec.horizon)
            best = SiReading.from_per_point([ev.min()])
            traces.append(ConvergenceTrace("random", ev, RisConfig.all_off(4, 4), best))
        traces = tuple(traces)
        tracemalloc.start()
        try:
            res = CampaignResult(spec=spec, traces=traces, created_utc="")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * spec.horizon * 8
        np.testing.assert_array_equal(res.mean_curve, res.curves.mean(axis=0))

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
    @pytest.mark.bitexact
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
        for span in (12e9, 2.0 * center):  # reach 0 Hz
            with pytest.raises(ValueError, match="positive-frequency span"):
                transfer_snapshot(wideband_scene, config, span, 5)
        with pytest.raises(ValueError, match="bandwidth_hz must be finite"):
            transfer_snapshot(wideband_scene, config, float("nan"), 5)
        with pytest.raises(ValueError):
            transfer_snapshot(wideband_scene, config, 10e6, 1)
        with pytest.raises(ValueError):
            transfer_snapshot(wideband_scene, RisConfig.all_on(3, 3), 10e6, 11)

    def test_zero_span_single_point_is_the_narrowband_reading(self, small_scene):
        rng = np.random.default_rng(3)
        for config in [RisConfig.all_on(4, 4)] + [RisConfig(rng.random((4, 4)) < 0.5)
                                                   for _ in range(8)]:
            freqs, si = transfer_snapshot(small_scene, config, 0.0, 1)
            np.testing.assert_array_equal(freqs, small_scene.grid.points)
            np.testing.assert_array_equal(si, si_per_point_db(small_scene, config))

    def test_synthetic_scene_unsupported(self):
        from conftest import synthetic_scene
        from ris_sic.model import RisConfig

        scene = synthetic_scene(2, 2, points=5)
        with pytest.raises(ValueError, match="generative"):
            transfer_snapshot(scene, RisConfig.all_on(2, 2), 10e6, 11)
