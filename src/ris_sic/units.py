"""Decibel/linear conversions and shared physical constants.

All channel math inside the simulator runs on complex linear amplitudes;
dB and dBm appear only at API boundaries.  SI magnitudes use the amplitude
convention throughout: ``dB = 20 * log10(|H|)``.
"""

from __future__ import annotations

import math

import numpy as np

C0_M_PER_S = 299_792_458.0

NEG_INF_DB = float("-inf")


def db_to_linear(value_db: float) -> float:
    """Amplitude ratio for a dB value (20*log10 convention), scalar or array.  A ratio
    past the float range raises ``ValueError``, whatever the warning filters."""
    try:
        with np.errstate(over="raise"):
            return 10.0 ** (value_db / 20.0)
    except (OverflowError, FloatingPointError):
        raise ValueError(f"{np.max(value_db)} dB overflows the linear amplitude scale") from None


def linear_to_db(ratio: float) -> float:
    """dB value for a linear amplitude ratio.

    A ratio of exactly zero maps to the negative-infinity sentinel.
    Negative ratios are rejected: amplitudes are magnitudes.
    """
    if ratio < 0.0:
        raise ValueError(f"linear_to_db requires a non-negative ratio, got {ratio}")
    if ratio == 0.0:
        return NEG_INF_DB
    return 20.0 * math.log10(ratio)

