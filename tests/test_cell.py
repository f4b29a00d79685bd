import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_sic.cell import (
    REFLECTION_MEMO_SIZE,
    UnitCellModel,
    _brentq,
    _pole_phase,
    _split_phase_gap_rad,
)

FC = 5.385e9


class TestPhaseTargetSolve:
    @pytest.mark.parametrize("target", [30.0, 90.0, 120.0, 150.0, 180.0])
    @pytest.mark.parametrize("q", [5.0, 8.0, 25.0, 100.0])
    def test_achieves_target_within_one_degree(self, target, q):
        cell = UnitCellModel.with_phase_target(FC, target, quality_factor=q)
        assert cell.phase_difference_deg(FC) == pytest.approx(target, abs=1.0)

    def test_default_target_is_opposition(self):
        cell = UnitCellModel.with_phase_target(FC)
        assert cell.phase_difference_deg(FC) == pytest.approx(180.0, abs=1e-6)

    def test_resonances_straddle_center_symmetrically(self):
        cell = UnitCellModel.with_phase_target(FC)
        assert cell.resonance_on_hz < FC < cell.resonance_off_hz
        split_on = 1.0 - cell.resonance_on_hz / FC
        split_off = cell.resonance_off_hz / FC - 1.0
        assert split_on == pytest.approx(split_off, rel=1e-9)

    def test_split_gap_monotone_in_split(self):
        # the solver's bracket relies on the gap growing with the split
        splits = np.linspace(1e-6, 0.999, 400)
        gaps = [_split_phase_gap_rad(s, 8.0) for s in splits]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            UnitCellModel.with_phase_target(FC, 0.0)
        with pytest.raises(ValueError):
            UnitCellModel.with_phase_target(FC, 181.0)
        with pytest.raises(ValueError):
            UnitCellModel.with_phase_target(FC, -90.0)
        with pytest.raises(ValueError):
            UnitCellModel.with_phase_target(0.0)

    @given(
        st.floats(min_value=5.0, max_value=175.0),
        st.floats(min_value=2.0, max_value=60.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_solve_fuzz(self, target, q):
        cell = UnitCellModel.with_phase_target(FC, target, quality_factor=q)
        assert cell.phase_difference_deg(FC) == pytest.approx(target, abs=1.0)


class TestResonanceBits:
    """The solved resonances, pinned bit for bit; no scipy needed."""

    @pytest.mark.parametrize(
        "args, on_hex, off_hex",
        [
            ((FC,), "0x1.2cf08e753f408p+32", "0x1.55009a0ac0bf8p+32"),
            ((FC, 160.0, 6.0), "0x1.2a9211f76c7ebp+32", "0x1.575f168893814p+32"),
        ],
    )
    def test_resonances_are_pinned(self, args, on_hex, off_hex):
        cell = UnitCellModel.with_phase_target(*args)
        assert cell.resonance_on_hz.hex() == on_hex
        assert cell.resonance_off_hz.hex() == off_hex


def _solve(brentq, f, a, b, **kw):
    """Root as float.hex, or the exception's type and message."""
    try:
        return brentq(f, a, b, **kw).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _phase_brackets(n, seed=0):
    """(target deg, Q) pairs: the shipped cell, the synthetic one, then random."""
    rng = np.random.default_rng(seed)
    cases = [(180.0, 8.0), (160.0, 6.0)]
    while len(cases) < n:
        target, q = float(rng.uniform(1.0, 180.0)), float(rng.uniform(0.5, 50.0))
        if _split_phase_gap_rad(1.0 - 1e-9, q) >= math.radians(target):
            cases.append((target, q))
    return cases


class TestBrentqMatchesScipy:
    @pytest.fixture(scope="class")
    def scipy_brentq(self):
        return pytest.importorskip("scipy.optimize").brentq

    def test_phase_target_brackets(self, scipy_brentq):
        for target, q in _phase_brackets(3000):
            target_rad = math.radians(target)

            def gap(s, q=q, target_rad=target_rad):
                return _split_phase_gap_rad(s, q) - target_rad

            kw = dict(xtol=1e-15, rtol=1e-14)
            ours = _solve(_brentq, gap, 1e-12, 1.0 - 1e-9, **kw)
            assert ours == _solve(scipy_brentq, gap, 1e-12, 1.0 - 1e-9, **kw), (target, q)

    @pytest.mark.parametrize("scale", [1.0, 1e-170])  # 1e-170: products underflow
    def test_generic_polynomials(self, scipy_brentq, scale):
        rng = np.random.default_rng(1)
        for _ in range(500):
            coeffs = scale * rng.normal(size=int(rng.choice([4, 6])))
            a, b = float(rng.uniform(-5.0, 0.0)), float(rng.uniform(0.0, 5.0))

            def poly(x, coeffs=coeffs):
                return float(np.polyval(coeffs, x))

            for maxiter in (100, 5):
                kw = dict(xtol=2e-12, rtol=4 * np.finfo(float).eps, maxiter=maxiter)
                assert _solve(_brentq, poly, a, b, **kw) == _solve(scipy_brentq, poly, a, b, **kw)

    @pytest.mark.parametrize(
        "f, a, b, maxiter, error",
        [
            (lambda x: x * x + 1.0, -1.0, 2.0, 100, ValueError),  # no sign change
            (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, 100, ValueError),
            (lambda x: x**3 - 2.0, 0.0, 2.0, 3, RuntimeError),  # hits maxiter
        ],
        ids=["no-sign-change", "nan-value", "maxiter"],
    )
    def test_error_parity(self, scipy_brentq, f, a, b, maxiter, error):
        kw = dict(xtol=2e-12, rtol=4 * np.finfo(float).eps, maxiter=maxiter)
        ours = _solve(_brentq, f, a, b, **kw)
        assert ours[0] is error
        assert ours == _solve(scipy_brentq, f, a, b, **kw)


class TestReflection:
    def test_magnitude_is_state_amplitude_everywhere(self):
        cell = UnitCellModel.with_phase_target(FC, amplitude_on=0.85, amplitude_off=0.92)
        freqs = np.linspace(FC - 200e6, FC + 200e6, 801)
        on = cell.reflection(True, freqs)
        off = cell.reflection(False, freqs)
        # all-pass: the pole shapes phase only
        np.testing.assert_allclose(np.abs(on), 0.85, rtol=1e-12)
        np.testing.assert_allclose(np.abs(off), 0.92, rtol=1e-12)

    def test_passive_across_band(self):
        cell = UnitCellModel.with_phase_target(FC)
        freqs = np.linspace(FC - 200e6, FC + 200e6, 1601)
        for state in (True, False):
            assert np.all(np.abs(cell.reflection(state, freqs)) <= 1.0)

    def test_scalar_and_array_agree(self):
        cell = UnitCellModel.with_phase_target(FC)
        f = FC + 3.7e6
        scalar = cell.reflection(True, f)
        array = cell.reflection(True, np.array([f]))
        assert scalar == array[0]

    def test_phase_monotone_decreasing_through_resonance(self):
        cell = UnitCellModel.with_phase_target(FC)
        freqs = np.linspace(0.5 * FC, 1.5 * FC, 2001)
        phase = np.unwrap(np.angle(cell.reflection(True, freqs)))
        assert np.all(np.diff(phase) < 0.0)

    def test_phase_wraps_a_full_turn(self):
        cell = UnitCellModel.with_phase_target(FC)
        lo = cell.reflection(True, 1e3)
        hi = cell.reflection(True, 1e15)
        # far below resonance the pole contributes ~0 phase, far above ~-2*pi
        assert np.angle(lo) == pytest.approx(0.0, abs=1e-3)
        assert abs(np.angle(hi)) == pytest.approx(0.0, abs=1e-3)


def _fresh_reflection(cell, state, f_hz):
    """The reflection formula evaluated without the memo."""
    amp = cell.amplitude_on if state else cell.amplitude_off
    res = cell.resonance_on_hz if state else cell.resonance_off_hz
    return amp * np.exp(1j * np.asarray(_pole_phase(f_hz, res, cell.quality_factor)))


class TestReflectionMemo:
    def test_hits_and_misses_equal_a_fresh_computation(self):
        cell = UnitCellModel.with_phase_target(FC)
        grids = [np.array([FC]), np.linspace(FC - 5e6, FC + 5e6, 11),
                 np.linspace(FC - 10e6, FC + 10e6, 201)]
        for _ in range(2):  # first pass fills the memo, second reads it
            for freqs in grids:
                for state in (True, False):
                    got = cell.reflection(state, freqs)
                    assert np.array_equal(got, _fresh_reflection(cell, state, freqs))
        assert len(cell._reflection_memo) == 2 * len(grids)

    def test_results_are_read_only_and_shared(self):
        cell = UnitCellModel.with_phase_target(FC)
        freqs = np.linspace(FC - 5e6, FC + 5e6, 11)
        first = cell.reflection(True, freqs)
        with pytest.raises(ValueError):
            first[0] = 0.0
        assert cell.reflection(True, freqs.copy()) is first

    def test_scalar_is_not_memoised(self):
        cell = UnitCellModel.with_phase_target(FC)
        assert cell.reflection(True, FC) == _fresh_reflection(cell, True, FC)
        assert cell._reflection_memo == {}

    def test_same_bytes_different_dtype_or_shape_do_not_collide(self):
        cell = UnitCellModel.with_phase_target(FC)
        as_float = np.array([FC, FC + 1e6])
        as_int = as_float.view(np.int64)  # identical bytes, other values
        as_matrix = as_float.reshape(1, 2)  # identical bytes, other shape
        for freqs in (as_float, as_int, as_matrix, as_float):
            got = cell.reflection(False, freqs)
            assert got.shape == freqs.shape
            assert np.array_equal(got, _fresh_reflection(cell, False, freqs))

    def test_memo_stays_bounded(self):
        cell = UnitCellModel.with_phase_target(FC)
        for i in range(3 * REFLECTION_MEMO_SIZE):
            freqs = np.array([FC + i])
            assert np.array_equal(cell.reflection(i % 2 == 0, freqs),
                                  _fresh_reflection(cell, i % 2 == 0, freqs))
            assert len(cell._reflection_memo) <= REFLECTION_MEMO_SIZE

    def test_memo_leaves_equality_and_hash_alone(self):
        a = UnitCellModel.with_phase_target(FC)
        b = UnitCellModel.with_phase_target(FC)
        a.reflection(True, np.array([FC]))
        assert a == b and hash(a) == hash(b)
        assert "memo" not in repr(a)


class TestValidation:
    def test_rejects_active_amplitudes(self):
        with pytest.raises(ValueError):
            UnitCellModel(1.2, 0.9, FC, FC * 1.01, 8.0)
        with pytest.raises(ValueError):
            UnitCellModel(0.9, -0.1, FC, FC * 1.01, 8.0)

    def test_rejects_bad_resonances_and_q(self):
        with pytest.raises(ValueError):
            UnitCellModel(0.9, 0.9, -FC, FC, 8.0)
        with pytest.raises(ValueError):
            UnitCellModel(0.9, 0.9, FC, 0.0, 8.0)
        with pytest.raises(ValueError):
            UnitCellModel(0.9, 0.9, FC, FC * 1.01, 0.0)

    def test_zero_amplitude_phase_difference_degenerates(self):
        cell = UnitCellModel(0.0, 0.9, FC * 0.99, FC * 1.01, 8.0)
        assert cell.phase_difference_deg(FC) == 0.0


def test_phase_difference_symmetric_in_states():
    cell = UnitCellModel.with_phase_target(FC, 140.0)
    swapped = UnitCellModel(
        cell.amplitude_off,
        cell.amplitude_on,
        cell.resonance_off_hz,
        cell.resonance_on_hz,
        cell.quality_factor,
    )
    assert cell.phase_difference_deg(FC) == pytest.approx(
        swapped.phase_difference_deg(FC), abs=1e-9
    )


def test_difference_shrinks_away_from_center():
    # the split is solved at the center; far off-center the two states converge
    cell = UnitCellModel.with_phase_target(FC, 180.0)
    at_center = cell.phase_difference_deg(FC)
    far = cell.phase_difference_deg(FC + 2e9)
    assert far < at_center
