"""Reference scorer that shares no evaluation code with ``ris_sic``.

It reads only a scene's frozen channel arrays (``direct``, ``h``, ``g``), its
grid frequencies and the five numbers of its unit-cell model, and evaluates the
documented formulas itself:

    gamma(f) = a * exp(j * (-2 * atan2(f * f0 / Q, f0**2 - f**2)))
    H(f)     = direct(f) + sum_i h_i(f) * gamma(state_i, f) * g_i(f)
    reading  = 20 * log10 |H|   per grid point

The sum is formed as two matrix products (ON and OFF elements) rather than the
program's element-wise product and reduction, so a fault in either shows as a
disagreement.  ``transfer_vector``, ``si_per_point_db`` and
``UnitCellModel.reflection`` are never called here.
"""

from __future__ import annotations

import numpy as np

# Largest disagreement, in dB, accepted between the program and the reference.
TOLERANCE_DB = 1e-9

# States per block of the exhaustive enumeration: keeps the reference's own
# memory small next to the program's, so peak RSS measures the program.
_ENUM_BLOCK = 4096


def _gamma(amplitude: float, resonance_hz: float, quality_factor: float, freqs):
    phase = -2.0 * np.arctan2(
        freqs * resonance_hz / quality_factor, resonance_hz**2 - freqs**2
    )
    return amplitude * np.exp(1j * phase)


def path_terms(direct, h, g, cell, freqs):
    """(direct, ON terms, OFF terms): ``h*gamma*g`` per element, shape (N, K)."""
    freqs = np.asarray(freqs, dtype=np.float64)
    q = cell.quality_factor
    gamma_on = _gamma(cell.amplitude_on, cell.resonance_on_hz, q, freqs)
    gamma_off = _gamma(cell.amplitude_off, cell.resonance_off_hz, q, freqs)
    hg = np.asarray(h) * np.asarray(g)
    return np.asarray(direct), hg * gamma_on, hg * gamma_off


def per_point_db(terms, states) -> np.ndarray:
    """Reference 20*log10|H| for row-major state rows, shape (..., N) -> (..., K)."""
    direct, on, off = terms
    s = np.asarray(states, dtype=np.float64)
    full = direct + s @ on + (1.0 - s) @ off
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(np.abs(full))


def scene_terms(scene):
    return path_terms(scene.direct, scene.h, scene.g, scene.cell, scene.grid.points)


def score(scene, config) -> np.ndarray:
    """Reference per-point reading of one configuration on a scene's grid."""
    return per_point_db(scene_terms(scene), np.asarray(config.states).reshape(-1))


def enumerate_optimum(scene) -> tuple[int, float]:
    """(state code, reading) of the exhaustive optimum.

    States are coded as row-major bit strings with element (0, 0) most
    significant; ties keep the smallest code.
    """
    n = scene.nx * scene.ny
    terms = scene_terms(scene)
    shifts = np.arange(n - 1, -1, -1)
    best_code, best_db = -1, np.inf
    for lo in range(0, 2**n, _ENUM_BLOCK):
        codes = np.arange(lo, min(lo + _ENUM_BLOCK, 2**n))
        bits = (codes[:, None] >> shifts) & 1
        worst = per_point_db(terms, bits).max(axis=1)
        i = int(np.argmin(worst))
        if worst[i] < best_db:
            best_code, best_db = int(codes[i]), float(worst[i])
    return best_code, best_db


def agrees(reference_db, program_db) -> bool:
    """True when two readings (scalars or arrays) differ by at most the tolerance."""
    ref = np.asarray(reference_db, dtype=np.float64)
    got = np.asarray(program_db, dtype=np.float64)
    if ref.shape != got.shape:
        return False
    same_inf = np.isinf(ref) & (ref == got)
    return bool(np.all(same_inf | (np.abs(ref - got) <= TOLERANCE_DB)))
