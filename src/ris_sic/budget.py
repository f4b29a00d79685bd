"""Scalar link-budget arithmetic: free-space path loss and leakage budgets.

These are reporting identities on dB/dBm quantities.  The simulator's ground
truth for residual self-interference is always the complex channel sum (see
:mod:`ris_sic.channel`); the budget identity here cannot represent destructive
superposition and is provided for bookkeeping against a known baseline.  The
channel's hops take their path loss, bit for bit, from :func:`fspl_db`'s formula.
"""

from __future__ import annotations

import math

import numpy as np

from .units import C0_M_PER_S


def _fspl_db(d_m, f_hz, g_a_dbi, g_b_dbi):
    """Free-space path loss in dB, elementwise; broadcasts over arrays."""
    return (20.0 * np.log10(d_m) + 20.0 * np.log10(f_hz)
            + 20.0 * np.log10(4.0 * math.pi / C0_M_PER_S) - g_a_dbi - g_b_dbi)


def fspl_db(d_m: float, f_hz: float, g_t_dbi: float = 0.0, g_r_dbi: float = 0.0) -> float:
    """Free-space path loss in dB (positive = loss), net of antenna gains.

    ``20*log10(d) + 20*log10(f) + 20*log10(4*pi/c0) - G_t - G_r``
    """
    if d_m <= 0.0:
        raise ValueError(f"distance must be positive, got {d_m}")
    if f_hz <= 0.0:
        raise ValueError(f"frequency must be positive, got {f_hz}")
    return float(_fspl_db(d_m, f_hz, g_t_dbi, g_r_dbi))


def leaked_power_dbm(p_tx_dbm: float, alpha_iso_db: float) -> float:
    """Power leaked into the receive chain given the initial analog isolation."""
    return p_tx_dbm - alpha_iso_db


def received_power_dbm(
    p_tx_dbm: float, d_m: float, f_hz: float, g_t_dbi: float = 0.0, g_r_dbi: float = 0.0
) -> float:
    """Free-space receive power from a distant node at distance ``d_m``."""
    return p_tx_dbm - fspl_db(d_m, f_hz, g_t_dbi, g_r_dbi)


def residual_si_dbm(p_tx_dbm: float, alpha_iso_db: float, p_ris_db: float) -> float:
    """Idealized residual self-interference after reflective cancellation.

    ``p_ris_db`` is the additional cancellation attributed to the surface; with
    zero it reduces to the plain leakage budget.
    """
    return p_tx_dbm - alpha_iso_db - p_ris_db
