"""Two-state unit-cell reflection model.

Each element of the surface behaves as a single-pole resonator whose resonance
frequency switches between an ON and an OFF value.  The reflection coefficient
is a constant per-state magnitude times the all-pass phase factor of the pole:

    gamma(f) = a_state * exp(j * phi(f; f_res, Q))
    phi(f; f0, Q) = -2 * atan2(f * f0 / Q, f0**2 - f**2)

The phase sweeps a full turn through the resonance, so the ON/OFF phase
difference at any probe frequency is set by how far the two resonances are
pulled apart.  :meth:`UnitCellModel.with_phase_target` solves for a symmetric
resonance split that realizes a requested phase difference at a given center
frequency.

Every SI evaluation asks for the same two reflections on the same grid, so
:meth:`UnitCellModel.reflection` memoises array results per model instance.
The key is the state plus the shape and bytes of the frequencies converted to
float64, the values the pole is evaluated at, so arrays that share raw bytes
but differ in dtype or shape get separate entries.  The memo holds at most
``REFLECTION_MEMO_SIZE`` entries and hands out read-only arrays, so no caller
can alter what the next one receives; scalar frequencies are computed afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

REFLECTION_MEMO_SIZE = 64


def _pole_phase(f_hz, resonance_hz: float, quality_factor: float):
    """Phase (rad) of the single-pole all-pass factor; accepts scalars or arrays."""
    f = np.asarray(f_hz, dtype=np.float64)
    phase = -2.0 * np.arctan2(f * resonance_hz / quality_factor, resonance_hz**2 - f**2)
    return phase if phase.ndim else float(phase)


def _split_phase_gap_rad(split: float, quality_factor: float) -> float:
    # Unwrapped ON-OFF phase gap at the center for resonances fc*(1 -/+ split).
    # Frequency-normalized: independent of the center value itself.
    on = -2.0 * math.atan2((1.0 - split) / quality_factor, -split * (2.0 - split))
    off = -2.0 * math.atan2((1.0 + split) / quality_factor, split * (2.0 + split))
    return abs(on - off)


@dataclass(frozen=True)
class UnitCellModel:
    """Parametric two-state reflection coefficient of one surface element.

    Construct via :meth:`with_phase_target` to have the two resonance
    frequencies solved so the ON/OFF phase difference at ``center_hz`` hits
    the requested target; direct construction with explicit resonances is
    allowed for experimentation.
    """

    amplitude_on: float
    amplitude_off: float
    resonance_on_hz: float
    resonance_off_hz: float
    quality_factor: float

    def __post_init__(self):
        for name in ("amplitude_on", "amplitude_off"):
            a = getattr(self, name)
            if not 0.0 <= a <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1] for a passive surface, got {a}")
        if self.resonance_on_hz <= 0.0 or self.resonance_off_hz <= 0.0:
            raise ValueError("resonance frequencies must be positive")
        if self.quality_factor <= 0.0:
            raise ValueError(f"quality_factor must be positive, got {self.quality_factor}")
        # Not a dataclass field: equality, hashing and repr ignore it.
        object.__setattr__(self, "_reflection_memo", {})

    @classmethod
    def with_phase_target(
        cls,
        center_hz: float,
        phase_target_deg: float = 180.0,
        quality_factor: float = 8.0,
        amplitude_on: float = 0.85,
        amplitude_off: float = 0.92,
    ) -> "UnitCellModel":
        """Solve the two resonances for a phase difference at the center frequency.

        The resonances are placed symmetrically at ``center * (1 -/+ split)``
        and the split is solved numerically; the achieved difference is checked
        to within 1 degree.
        """
        if center_hz <= 0.0:
            raise ValueError(f"center frequency must be positive, got {center_hz}")
        if not 0.0 < phase_target_deg <= 180.0:
            raise ValueError(
                f"phase_target_deg must lie in (0, 180], got {phase_target_deg}"
            )
        target_rad = math.radians(phase_target_deg)
        lo, hi = 1e-12, 1.0 - 1e-9
        if _split_phase_gap_rad(hi, quality_factor) < target_rad:
            raise ValueError(
                f"phase target {phase_target_deg} deg unreachable with "
                f"quality factor {quality_factor}"
            )
        split = brentq(
            lambda s: _split_phase_gap_rad(s, quality_factor) - target_rad,
            lo,
            hi,
            xtol=1e-15,
            rtol=1e-14,
        )
        cell = cls(
            amplitude_on=amplitude_on,
            amplitude_off=amplitude_off,
            resonance_on_hz=center_hz * (1.0 - split),
            resonance_off_hz=center_hz * (1.0 + split),
            quality_factor=quality_factor,
        )
        achieved = cell.phase_difference_deg(center_hz)
        if abs(achieved - phase_target_deg) > 1.0:
            raise RuntimeError(
                f"resonance solve missed the phase target: {achieved:.3f} deg "
                f"vs {phase_target_deg} deg"
            )
        return cell

    def reflection(self, state, f_hz):
        """Complex reflection coefficient; broadcasts over frequency arrays.

        Array results are memoised and read-only; a scalar frequency gives a
        fresh scalar.
        """
        f = np.asarray(f_hz, dtype=np.float64)
        if f.ndim == 0:
            return self._reflection(state, f_hz)
        memo = self._reflection_memo
        key = (bool(state), f.shape, f.tobytes())
        gamma = memo.get(key)
        if gamma is None:
            gamma = self._reflection(state, f)
            gamma.setflags(write=False)
            if len(memo) >= REFLECTION_MEMO_SIZE:
                memo.clear()
            memo[key] = gamma
        return gamma

    def _reflection(self, state, f_hz):
        if state:
            amp, res = self.amplitude_on, self.resonance_on_hz
        else:
            amp, res = self.amplitude_off, self.resonance_off_hz
        phase = _pole_phase(f_hz, res, self.quality_factor)
        return amp * np.exp(1j * np.asarray(phase))

    def phase_difference_deg(self, f_hz: float) -> float:
        """Circular ON-OFF phase distance at ``f_hz``, in [0, 180] degrees."""
        if self.amplitude_on == 0.0 or self.amplitude_off == 0.0:
            return 0.0
        gamma_on = complex(self.reflection(True, f_hz))
        gamma_off = complex(self.reflection(False, f_hz))
        return abs(math.degrees(np.angle(gamma_on * np.conj(gamma_off))))


def element_reflection(state: bool, f_hz, cell: UnitCellModel):
    """Reflection coefficient of one element in the given switch state."""
    return cell.reflection(state, f_hz)
