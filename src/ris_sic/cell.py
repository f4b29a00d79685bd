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
:meth:`UnitCellModel.reflection` keeps one ``(freqs, gamma)`` slot per state.
A slot is reused only for the very same frequency array and filled only when
that array cannot change (:func:`_immutable`); any other axis, such as a
snapshot block cut from a writable ``linspace``, is computed afresh and never
stored.  Array results are read-only, and scalar frequencies are computed afresh.

The resonance split is found by :func:`_brentq`, a port of Brent's method
(Brent 1973, *Algorithms for Minimization Without Derivatives*, ch. 4) that
follows scipy's BSD-3 ``scipy/optimize/Zeros/brentq.c`` step for step, so the
solved resonances are the bits ``scipy.optimize.brentq`` returns without the
package importing scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Checked, bounded

_SPLIT_BRACKET = (1e-12, 1.0 - 1e-9)  # resonance splits the solve searches


def _immutable(*arrays) -> bool:
    """Read-only ndarrays owning their data: the one condition for a kernel cache to store."""
    return all(isinstance(a, np.ndarray) and a.flags.owndata and not a.flags.writeable
               for a in arrays)


def _pole_phase(f_hz, resonance_hz: float, quality_factor: float):
    """Phase (rad) of the single-pole all-pass factor; accepts scalars or arrays.  A
    quotient past the float range is inf, whose arctan2 is the phase's limit."""
    f = np.asarray(f_hz, dtype=np.float64)
    with np.errstate(over="ignore"):
        phase = -2.0 * np.arctan2(f * resonance_hz / quality_factor, resonance_hz**2 - f**2)
    return phase if phase.ndim else float(phase)


def _brentq(f, a: float, b: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of ``f`` in ``[a, b]`` by Brent's method, as scipy's C ``brentq``.

    The bracket swap, the tolerance ``(xtol + rtol*|x|)/2``, the trial step
    and its acceptance test keep scipy's operation order, so results agree
    bit for bit.  Raises ``ValueError`` for a bracket without a sign change
    or a NaN function value and ``RuntimeError`` after ``maxiter`` steps.
    """

    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate (secant)
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate (inverse quadratic)
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # Tiny f values can underflow denom to 0; C's division then
                # gives inf or NaN, which the test below rejects.
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _split_phase_gap_rad(split: float, quality_factor: float) -> float:
    # Unwrapped ON-OFF phase gap at the center for resonances fc*(1 -/+ split).
    # Frequency-normalized: independent of the center value itself.
    on = -2.0 * math.atan2((1.0 - split) / quality_factor, -split * (2.0 - split))
    off = -2.0 * math.atan2((1.0 + split) / quality_factor, split * (2.0 + split))
    return abs(on - off)


@dataclass(frozen=True)
class CellParams(Checked):
    """The scene's ``[cell]`` section: each state's reflection magnitude (a passive
    surface reflects at most what it receives) and the ON/OFF phase difference
    :meth:`UnitCellModel.with_phase_target` solves for at ``quality_factor``."""

    amplitude_on: float = bounded(0.85, ge=0.0, le=1.0)
    amplitude_off: float = bounded(0.92, ge=0.0, le=1.0)
    phase_target_deg: float = bounded(180.0, gt=0.0, le=180.0)
    quality_factor: float = bounded(8.0, gt=0.0)

    def __post_init__(self):
        super().__post_init__()
        low, high = (_split_phase_gap_rad(s, self.quality_factor) for s in _SPLIT_BRACKET)
        if not low <= math.radians(self.phase_target_deg) <= high:  # outside the solve's reach
            raise ValueError(f"phase target {self.phase_target_deg} deg unreachable with "
                             f"quality factor {self.quality_factor}")


@dataclass(frozen=True)
class UnitCellModel(Checked):
    """Parametric two-state reflection coefficient of one surface element.

    Construct via :meth:`with_phase_target` to have the two resonance
    frequencies solved so the ON/OFF phase difference at ``center_hz`` hits
    the requested target; direct construction with explicit resonances is
    allowed for experimentation.
    """

    amplitude_on: float = bounded(ge=0.0, le=1.0)
    amplitude_off: float = bounded(ge=0.0, le=1.0)
    resonance_on_hz: float = bounded(gt=0.0)
    resonance_off_hz: float = bounded(gt=0.0)
    quality_factor: float = bounded(gt=0.0)

    def __post_init__(self):
        super().__post_init__()
        # Not a dataclass field: equality, hashing and repr ignore it.
        object.__setattr__(self, "_reflection_memo", {})

    @classmethod
    def with_phase_target(
        cls,
        center_hz: float,
        phase_target_deg: float = CellParams.phase_target_deg,
        quality_factor: float = CellParams.quality_factor,
        amplitude_on: float = CellParams.amplitude_on,
        amplitude_off: float = CellParams.amplitude_off,
    ) -> "UnitCellModel":
        """Solve the two resonances for a phase difference at the center frequency.

        The four cell values are checked as the :class:`CellParams` they form.
        The resonances are placed symmetrically at ``center * (1 -/+ split)``
        and the split is solved numerically; the achieved difference is checked
        to within 1 degree.
        """
        CellParams(amplitude_on, amplitude_off, phase_target_deg, quality_factor)
        target_rad = math.radians(phase_target_deg)
        split = _brentq(lambda s: _split_phase_gap_rad(s, quality_factor) - target_rad,
                        *_SPLIT_BRACKET, xtol=1e-15, rtol=1e-14)
        cell = cls(
            amplitude_on=amplitude_on,
            amplitude_off=amplitude_off,
            resonance_on_hz=center_hz * (1.0 - split),
            resonance_off_hz=center_hz * (1.0 + split),
            quality_factor=quality_factor,
        )
        gap = (_pole_phase(center_hz, cell.resonance_on_hz, quality_factor)
               - _pole_phase(center_hz, cell.resonance_off_hz, quality_factor))
        achieved = abs(math.degrees(math.remainder(gap, 2.0 * math.pi)))
        if abs(achieved - phase_target_deg) > 1.0:
            raise RuntimeError(
                f"resonance solve missed the phase target: {achieved:.3f} deg "
                f"vs {phase_target_deg} deg"
            )
        return cell

    def reflection(self, state, f_hz):
        """Complex reflection coefficient; broadcasts over frequency arrays.

        Array results are read-only, and the last one per state is returned
        again for the same immutable array.  A scalar gives a scalar.
        """
        f = np.asarray(f_hz, dtype=np.float64)
        kept = self._reflection_memo.get(bool(state))
        if kept is not None and kept[0] is f:
            return kept[1]
        amp, res = ((self.amplitude_on, self.resonance_on_hz) if state
                    else (self.amplitude_off, self.resonance_off_hz))
        gamma = amp * np.exp(1j * np.asarray(_pole_phase(f, res, self.quality_factor)))
        if f.ndim:
            gamma.setflags(write=False)
            if _immutable(f):
                self._reflection_memo[bool(state)] = (f, gamma)
        return gamma

    def phase_difference_deg(self, f_hz: float) -> float:
        """Circular ON-OFF phase distance at ``f_hz``, in [0, 180] degrees."""
        if self.amplitude_on == 0.0 or self.amplitude_off == 0.0:
            return 0.0
        gamma_on = complex(self.reflection(True, f_hz))
        gamma_off = complex(self.reflection(False, f_hz))
        return abs(math.degrees(np.angle(gamma_on * np.conj(gamma_off))))
