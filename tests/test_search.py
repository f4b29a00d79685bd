"""Optimizer mechanics: buffer maintenance, weighting, termination, baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_sic.backend import SimulatedBackend
from ris_sic.channel import si_per_point_db
from ris_sic.model import RisConfig, SiReading
from ris_sic.search import (
    EXHAUSTIVE_BLOCK,
    EXHAUSTIVE_LIMIT,
    ConvergenceTrace,
    EvaluationError,
    GreedyOptimizer,
    exhaustive_search,
    greedy_optimize,
    random_search,
    sample_config,
    weighted_activation_ratio,
)

from conftest import synthetic_scene
from fuzz_tools import FailingBackend, FlatBackend, HashBackend, fuzz_optimizer_run


class TestWeightedActivationRatio:
    def test_two_member_example(self):
        # best = all ON (weight 2), worst = all OFF (weight 1), norm = 3
        buf = [RisConfig.all_on(2, 2), RisConfig.all_off(2, 2)]
        np.testing.assert_allclose(weighted_activation_ratio(buf), 2.0 / 3.0)

    def test_three_member_hand_computation(self):
        a = RisConfig(np.array([[True, False]]))
        b = RisConfig(np.array([[True, True]]))
        c = RisConfig(np.array([[False, True]]))
        # weights 3, 2, 1; norm = 6
        ratio = weighted_activation_ratio([a, b, c])
        np.testing.assert_allclose(ratio, [[(3 + 2) / 6, (2 + 1) / 6]])

    def test_unanimous_columns_hit_extremes_exactly(self):
        buf = [RisConfig(np.array([[True, False]])) for _ in range(5)]
        ratio = weighted_activation_ratio(buf)
        assert ratio[0, 0] == 1.0
        assert ratio[0, 1] == 0.0

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            weighted_activation_ratio([])
        with pytest.raises(ValueError):
            weighted_activation_ratio([RisConfig.all_on(2, 2), RisConfig.all_on(3, 3)])

    @given(st.integers(1, 12), st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
    @settings(max_examples=80)
    def test_matches_direct_sum_fuzz(self, b, nx, ny, seed):
        rng = np.random.default_rng(seed)
        buf = [RisConfig(rng.random((nx, ny)) < 0.5) for _ in range(b)]
        expected = np.zeros(nx * ny)
        for k, c in enumerate(buf):
            expected += (b - k) * c.flat()
        expected /= (b * b + b) / 2.0
        ratio = weighted_activation_ratio(buf)
        np.testing.assert_allclose(ratio.reshape(-1), expected, rtol=0, atol=1e-12)
        assert np.all(ratio >= 0.0) and np.all(ratio <= 1.0)


class TestSampleConfig:
    def test_extremes_are_deterministic(self):
        rng = np.random.default_rng(0)
        ones = sample_config(np.ones((3, 3)), rng)
        zeros = sample_config(np.zeros((3, 3)), rng)
        assert int(ones.states.sum()) == 9
        assert int(zeros.states.sum()) == 0

    def test_rejects_out_of_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_config(np.full((2, 2), 1.5), rng)
        with pytest.raises(ValueError):
            sample_config(np.full((2, 2), -0.1), rng)
        with pytest.raises(ValueError):
            sample_config(np.full(4, 0.5), rng)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            sample_config(np.array([[0.5, np.nan]]), rng)

    def test_seeded_reproducibility(self):
        ratio = np.full((4, 4), 0.5)
        a = sample_config(ratio, np.random.default_rng(42))
        b = sample_config(ratio, np.random.default_rng(42))
        assert a == b


class TestGreedyOptimizer:
    def test_warm_up_fills_buffer(self):
        opt = GreedyOptimizer(HashBackend(3, 3), buffer_size=8, stall_limit=10,
                              rng=np.random.default_rng(1))
        assert opt.iteration == 8
        assert opt.buffer_readings.size == 8
        assert np.all(np.diff(opt.buffer_readings) >= 0.0)

    def test_flat_objective_terminates_after_exactly_buffer_plus_stall(self):
        backend = FlatBackend()
        tr = greedy_optimize(backend, 12, 37, np.random.default_rng(3))
        assert tr.iterations_total == 12 + 37
        assert backend.calls == 12 + 37
        assert np.all(tr.evaluated == -44.0)
        assert np.all(tr.cumulative == -44.0)

    def test_stall_counter_resets_only_on_strict_improvement(self):
        opt = GreedyOptimizer(HashBackend(3, 3, salt=7), buffer_size=5, stall_limit=50,
                              rng=np.random.default_rng(7))
        while not opt.finished and opt.iteration < 200:
            best_before = opt.best_reading.magnitude_db
            count_before = opt.termination_count
            value = opt.step()
            if value < best_before:
                assert opt.termination_count == 0
            else:
                assert opt.termination_count == count_before + 1

    def test_replacement_is_strict(self):
        # quantized objective forces ties; equal-to-worst must never displace
        opt = GreedyOptimizer(HashBackend(2, 2, levels=2), buffer_size=4, stall_limit=30,
                              rng=np.random.default_rng(5))
        for _ in range(60):
            if opt.finished:
                break
            worst_before = opt.buffer_readings[-1]
            value = opt.step()
            if value >= worst_before:
                assert opt.buffer_readings[-1] == worst_before

    def test_run_honors_max_evaluations(self):
        opt = GreedyOptimizer(HashBackend(4, 4), buffer_size=10, stall_limit=10_000,
                              rng=np.random.default_rng(0))
        tr = opt.run(max_evaluations=25)
        assert tr.iterations_total == 25

    def test_seeded_runs_are_identical(self):
        scene = synthetic_scene(3, 3, points=3, seed=1)
        t1 = greedy_optimize(SimulatedBackend(scene), 10, 40, np.random.default_rng(11))
        t2 = greedy_optimize(SimulatedBackend(scene), 10, 40, np.random.default_rng(11))
        np.testing.assert_array_equal(t1.evaluated, t2.evaluated)
        np.testing.assert_array_equal(t1.cumulative, t2.cumulative)
        assert t1.best_config == t2.best_config
        assert t1.iterations_total == t2.iterations_total

    def test_different_seeds_diverge(self):
        scene = synthetic_scene(3, 3, points=3, seed=1)
        t1 = greedy_optimize(SimulatedBackend(scene), 10, 40, np.random.default_rng(1))
        t2 = greedy_optimize(SimulatedBackend(scene), 10, 40, np.random.default_rng(2))
        assert not np.array_equal(t1.evaluated, t2.evaluated)

    def test_best_config_reproduces_best_reading(self):
        scene = synthetic_scene(3, 3, points=5, seed=6)
        backend = SimulatedBackend(scene)
        tr = greedy_optimize(backend, 10, 60, np.random.default_rng(2))
        assert SiReading.from_per_point(si_per_point_db(scene, tr.best_config)) == tr.best_reading
        assert tr.best_reading.magnitude_db == tr.cumulative[-1]

    def test_constructor_validation(self):
        backend = HashBackend(2, 2)
        with pytest.raises(ValueError):
            GreedyOptimizer(backend, buffer_size=1, stall_limit=10)
        with pytest.raises(ValueError):
            GreedyOptimizer(backend, buffer_size=4, stall_limit=0)

    def test_trace_metadata(self):
        tr = greedy_optimize(FlatBackend(), 6, 9, np.random.default_rng(0))
        assert tr.algorithm == "greedy"
        assert tr.buffer_size == 6
        assert tr.stall_limit == 9
        assert tr.wall_time_s >= 0.0

    def test_evaluation_error_during_warmup(self):
        with pytest.raises(EvaluationError) as exc_info:
            GreedyOptimizer(FailingBackend(3, 3, fail_at=4), 8, 10,
                            np.random.default_rng(0))
        assert exc_info.value.iteration == 3  # evaluations completed before the fault
        assert "injected hardware fault" in str(exc_info.value)

    def test_evaluation_error_during_steps(self):
        opt = GreedyOptimizer(FailingBackend(3, 3, fail_at=12), 8, 100,
                              np.random.default_rng(0))
        with pytest.raises(EvaluationError):
            opt.run()
        assert opt.iteration == 11


class TiedBackend:
    """Few reading levels plus -inf, so buffer ties are frequent; records the
    configuration it scored last."""

    def __init__(self, nx, ny, salt):
        self._inner = HashBackend(nx, ny, salt=salt)
        self._nx, self._ny = nx, ny
        self.last = None

    def evaluate(self, config):
        self.last = config
        level = int(-self._inner.evaluate(config).magnitude_db * 1e6) % 13
        value = float("-inf") if level == 0 else -40.0 - 5.0 * (level % 4)
        return SiReading.from_per_point([value])

    def dims(self):
        return (self._nx, self._ny)


class TestBufferInsertion:
    """The in-place insertion against the stable re-sort it replaces."""

    @pytest.mark.parametrize("salt", range(4))
    def test_matches_stable_argsort_buffer_step_by_step(self, salt):
        backend = TiedBackend(3, 3, salt)
        opt = GreedyOptimizer(backend, 8, 400, np.random.default_rng(salt))
        readings = opt.buffer_readings
        configs = list(opt.buffer_configs)
        tied_finite = tied_inf = 0  # replacements equal to a kept reading
        while not opt.finished:
            value = opt.step()
            if value < readings[-1]:
                if value in readings[:-1]:
                    tied_finite += np.isfinite(value)
                    tied_inf += np.isneginf(value)
                readings[-1] = value
                configs[-1] = backend.last
                order = np.argsort(readings, kind="stable")
                readings = readings[order]
                configs = [configs[i] for i in order]
            assert np.array_equal(opt.buffer_readings, readings)
            assert all(a is b for a, b in zip(opt.buffer_configs, configs, strict=True))
            assert np.array_equal(opt.activation_ratio(), weighted_activation_ratio(configs))
        assert tied_finite > 0 and tied_inf > 0


def reference_greedy(backend, buffer_size, stall_limit, rng):
    """The loop the optimizer streamlines: public sampling, a stable re-sort
    and a fresh weighted ratio on every step.  Returns the evaluated and
    cumulative readings, the best configuration and the final buffer."""
    evaluated, cumulative = [], []
    best = None

    def score(config):
        nonlocal best
        value = backend.evaluate(config).magnitude_db
        improved = not cumulative or value < cumulative[-1]
        if improved:
            best = config
        evaluated.append(value)
        cumulative.append(value if improved else cumulative[-1])
        return value, improved

    half = np.full(backend.dims(), 0.5)
    configs = [sample_config(half, rng) for _ in range(buffer_size)]
    readings = [score(c)[0] for c in configs]
    stall = 0
    while True:
        order = np.argsort(readings, kind="stable")
        readings = [readings[i] for i in order]
        configs = [configs[i] for i in order]
        if stall >= stall_limit:
            return evaluated, cumulative, best, readings, configs
        cand = sample_config(weighted_activation_ratio(configs), rng)
        value, improved = score(cand)
        stall = 0 if improved else stall + 1
        if value < readings[-1]:
            readings[-1], configs[-1] = value, cand


class ReadOnlyCheckingBackend(SimulatedBackend):
    """Checks that every candidate it is handed refuses writes; counts them."""

    def __init__(self, scene):
        super().__init__(scene)
        self.calls = 0

    def evaluate(self, config):
        with pytest.raises(ValueError, match="read-only"):
            config.states[0, 0] = not config.states[0, 0]
        self.calls += 1
        return super().evaluate(config)


class TestReferenceEquivalence:
    """The cached ratio, slot rows and unchecked draws against the plain loop."""

    @pytest.mark.parametrize("buffer_size", [2, 10])
    def test_greedy_matches_reference_on_synthetic_scene(self, buffer_size):
        self._check_greedy(synthetic_scene(3, 3, points=3, seed=4), buffer_size, 80, seed=3)

    def test_greedy_matches_reference_on_built_scene(self, small_scene):
        self._check_greedy(small_scene, 16, 300, seed=5000)

    def _check_greedy(self, scene, buffer_size, stall_limit, seed):
        backend = SimulatedBackend(scene)
        opt = GreedyOptimizer(backend, buffer_size, stall_limit, np.random.default_rng(seed))
        tr = opt.run()
        evaluated, cumulative, best, readings, configs = reference_greedy(
            backend, buffer_size, stall_limit, np.random.default_rng(seed))
        assert tr.iterations_total > buffer_size + stall_limit  # some replacements happened
        assert np.array_equal(tr.evaluated, evaluated)
        assert np.array_equal(tr.cumulative, cumulative)
        assert tr.best_config == best
        assert np.array_equal(opt.buffer_readings, readings)
        assert opt.buffer_configs == tuple(configs)
        assert np.array_equal(opt.activation_ratio(), weighted_activation_ratio(configs))

    def test_random_search_matches_sample_config_loop(self):
        backend = SimulatedBackend(synthetic_scene(3, 3, points=3, seed=4))
        tr = random_search(backend, 300, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        configs = [sample_config(np.full((3, 3), 0.5), rng) for _ in range(300)]
        values = [backend.evaluate(c).magnitude_db for c in configs]
        assert np.array_equal(tr.evaluated, values)
        assert np.array_equal(tr.cumulative, np.minimum.accumulate(values))
        assert tr.best_config == configs[int(np.argmin(values))]

    def test_mutating_the_returned_ratio_leaves_the_search_alone(self):
        touched, plain = (GreedyOptimizer(TiedBackend(3, 3, 0), 6, 50,
                                          np.random.default_rng(1)) for _ in range(2))
        for _ in range(40):
            touched.activation_ratio()[...] = 1.0
            assert touched.step() == plain.step()
            assert touched.backend.last == plain.backend.last
        assert np.array_equal(touched.activation_ratio(), plain.activation_ratio())

    @pytest.mark.parametrize("search", [
        exhaustive_search,
        lambda b: greedy_optimize(b, 4, 30, np.random.default_rng(0)),
        lambda b: random_search(b, 30, np.random.default_rng(0)),
    ], ids=["exhaustive", "greedy", "random"])
    def test_every_candidate_is_read_only(self, search):
        backend = ReadOnlyCheckingBackend(synthetic_scene(3, 3, points=3, seed=4))
        search(backend)
        assert backend.calls >= 30


class TestInvariantFuzz:
    """Randomized structural checking; the acceptance gate reruns this harness
    at larger scale."""

    @pytest.mark.parametrize("seed", range(8))
    def test_fuzzed_runs_hold_invariants(self, seed):
        outcome = fuzz_optimizer_run(seed)
        assert outcome.assertions > 0
        assert outcome.evaluations >= 6

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzzed_runs_with_ties(self, seed):
        assert fuzz_optimizer_run(seed, levels=3, steps=50).assertions > 0


class TestRandomSearch:
    def test_budget_and_running_min(self):
        tr = random_search(HashBackend(3, 3), 50, np.random.default_rng(9))
        assert tr.algorithm == "random"
        assert tr.iterations_total == 50
        assert tr.evaluated.size == 50
        np.testing.assert_array_equal(tr.cumulative, np.minimum.accumulate(tr.evaluated))
        assert tr.buffer_size is None and tr.stall_limit is None

    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            random_search(HashBackend(2, 2), 0)

    def test_seeded_reproducibility(self):
        t1 = random_search(HashBackend(3, 3), 30, np.random.default_rng(4))
        t2 = random_search(HashBackend(3, 3), 30, np.random.default_rng(4))
        np.testing.assert_array_equal(t1.evaluated, t2.evaluated)
        assert t1.best_config == t2.best_config

    def test_error_carries_index(self):
        with pytest.raises(EvaluationError):
            random_search(FailingBackend(3, 3, fail_at=5), 20, np.random.default_rng(0))


class TestExhaustiveSearch:
    def test_matches_independent_enumeration(self):
        scene = synthetic_scene(2, 2, points=3, seed=13)
        backend = SimulatedBackend(scene)
        best_config, best_si = exhaustive_search(backend)

        values = []
        configs = []
        for code in range(16):
            bits = [(code >> (3 - j)) & 1 for j in range(4)]
            c = RisConfig(np.array(bits, dtype=bool).reshape(2, 2))
            configs.append(c)
            values.append(backend.evaluate(c).magnitude_db)
        idx = int(np.argmin(values))  # argmin returns the first minimum
        assert best_si.magnitude_db == values[idx]
        assert best_config == configs[idx]

    def test_greedy_never_beats_exhaustive(self):
        scene = synthetic_scene(2, 2, points=3, seed=21)
        backend = SimulatedBackend(scene)
        _, best_si = exhaustive_search(backend)
        for seed in range(5):
            tr = greedy_optimize(backend, 6, 40, np.random.default_rng(seed))
            assert tr.best_reading.magnitude_db >= best_si.magnitude_db

    def test_tie_break_keeps_lexicographically_smallest(self):
        class ParityBackend:
            """Reading depends only on the ON-element parity: huge tie classes."""

            def evaluate(self, config):
                value = -50.0 if int(config.states.sum()) % 2 == 0 else -40.0
                return SiReading.from_per_point([value])

            def dims(self):
                return (2, 2)

        best_config, best_si = exhaustive_search(ParityBackend())
        assert best_si.magnitude_db == -50.0
        # code 0 (all OFF) is the first even-parity state enumerated
        assert best_config == RisConfig.all_off(2, 2)

    def test_block_boundary_keeps_order_and_earliest_tie(self):
        n = 13  # two blocks of bit rows
        assert 2**n == 2 * EXHAUSTIVE_BLOCK
        tied = {EXHAUSTIVE_BLOCK + 1, EXHAUSTIVE_BLOCK + 7, 2 * EXHAUSTIVE_BLOCK - 1}

        class RecordingBackend:
            def __init__(self):
                self.codes = []

            def evaluate(self, config):
                code = int("".join("1" if b else "0" for b in config.flat()), 2)
                self.codes.append(code)
                return SiReading.from_per_point([-50.0 if code in tied else -40.0])

            def dims(self):
                return (1, n)

        backend = RecordingBackend()
        best_config, best_si = exhaustive_search(backend)
        assert backend.codes == list(range(2**n))
        assert best_si.magnitude_db == -50.0
        expected = [(EXHAUSTIVE_BLOCK + 1) >> (n - 1 - j) & 1 for j in range(n)]
        assert np.array_equal(best_config.flat(), np.array(expected, dtype=bool))

    def test_size_guard(self):
        with pytest.raises(ValueError, match=str(EXHAUSTIVE_LIMIT)):
            exhaustive_search(HashBackend(3, 7))

    def test_limit_is_twenty(self):
        assert EXHAUSTIVE_LIMIT == 20
        exhaustive_search(SimulatedBackend(synthetic_scene(1, 2, points=1)))  # well under


class RaisingBackend(SimulatedBackend):
    """Simulated 2x2 scene whose third evaluation raises."""

    def __init__(self):
        super().__init__(synthetic_scene(2, 2, points=3, seed=5))
        self.calls = 0

    def evaluate(self, config):
        self.calls += 1
        if self.calls == 3:
            raise FloatingPointError("overflow in the receiver")
        return super().evaluate(config)


@pytest.mark.parametrize("search", [
    exhaustive_search,
    lambda b: greedy_optimize(b, 4, 10, np.random.default_rng(0)),
    lambda b: random_search(b, 10, np.random.default_rng(0)),
], ids=["exhaustive", "greedy", "random"])
def test_every_search_reports_the_failing_evaluation(search):
    with pytest.raises(EvaluationError) as exc_info:
        search(RaisingBackend())
    err = exc_info.value
    assert err.iteration == 2
    assert str(err) == "evaluation 2 failed: FloatingPointError: overflow in the receiver"
    assert isinstance(err.__cause__, FloatingPointError)


class TestConvergenceTrace:
    def _ok_kwargs(self):
        return dict(
            algorithm="greedy",
            evaluated=np.array([-40.0, -42.0, -41.0, -45.0]),
            best_config=RisConfig.all_off(2, 2),
            best_reading=SiReading.from_per_point([-45.0]),
        )

    def test_valid_roundtrip(self):
        tr = ConvergenceTrace(**self._ok_kwargs())
        np.testing.assert_array_equal(tr.cumulative, [-40.0, -42.0, -42.0, -45.0])
        assert tr.iterations_total == 4

    def test_rejects_tampered_cumulative(self):
        # the running minimum is derived, so a tampered one cannot be passed in
        kw = self._ok_kwargs()
        kw["cumulative"] = np.array([-40.0, -42.0, -42.0, -44.0])
        with pytest.raises(TypeError):
            ConvergenceTrace(**kw)

    def test_rejects_nan(self):
        kw = self._ok_kwargs()
        kw["evaluated"] = np.array([-40.0, np.nan, -41.0, -45.0])
        with pytest.raises(ValueError, match="must not contain NaN"):
            ConvergenceTrace(**kw)

    def test_rejects_length_mismatch(self):
        # the count is derived, so a mismatched one cannot be passed in
        kw = self._ok_kwargs()
        kw["iterations_total"] = 7
        with pytest.raises(TypeError):
            ConvergenceTrace(**kw)

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=64))
    def test_derived_fields(self, values):
        ev = np.array(values, dtype=np.float64)
        best = SiReading.from_per_point([np.minimum.accumulate(ev)[-1]])
        tr = ConvergenceTrace("random", ev, RisConfig.all_off(1, 1), best)
        np.testing.assert_array_equal(tr.cumulative, np.minimum.accumulate(ev))
        assert tr.iterations_total == len(values)
        assert not tr.cumulative.flags.writeable

    def test_rejects_best_mismatch(self):
        kw = self._ok_kwargs()
        kw["best_reading"] = SiReading.from_per_point([-44.0])
        with pytest.raises(ValueError):
            ConvergenceTrace(**kw)

    def test_arrays_frozen(self):
        tr = ConvergenceTrace(**self._ok_kwargs())
        with pytest.raises(ValueError):
            tr.evaluated[0] = 0.0
