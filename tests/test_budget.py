"""Free-space path loss and link-budget identities.

The numeric references below were computed independently with 50-digit
decimal arithmetic (mpmath) and frozen here as literals.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ris_sic.budget import (
    _fspl_db,
    fspl_db,
    leaked_power_dbm,
    received_power_dbm,
    residual_si_dbm,
)

pytestmark = pytest.mark.bitexact

# 20*log10(4*pi*d*f/c0) at d = 1 m, f = 5.385 GHz
FSPL_1M_REF = 47.071497374563381606
# same with 3 dBi on both ends
FSPL_1M_GAINS_REF = 41.071497374563381606
# 20*log10(2): doubling the distance
DOUBLING_REF = 6.0205999132796239043


def test_fspl_reference_point():
    assert fspl_db(1.0, 5.385e9) == pytest.approx(FSPL_1M_REF, abs=1e-9)


def test_fspl_gains_subtract():
    assert fspl_db(1.0, 5.385e9, 3.0, 3.0) == pytest.approx(FSPL_1M_GAINS_REF, abs=1e-9)
    # gain handling is exact subtraction, no hidden conversion
    assert fspl_db(1.0, 5.385e9, 3.0, 3.0) == fspl_db(1.0, 5.385e9) - 6.0


def test_fspl_distance_doubling():
    delta = fspl_db(2.0, 5.385e9) - fspl_db(1.0, 5.385e9)
    assert delta == pytest.approx(DOUBLING_REF, abs=1e-9)


def test_fspl_frequency_doubling():
    delta = fspl_db(1.0, 2 * 5.385e9) - fspl_db(1.0, 5.385e9)
    assert delta == pytest.approx(DOUBLING_REF, abs=1e-9)


def test_fspl_rejects_nonpositive():
    with pytest.raises(ValueError):
        fspl_db(0.0, 5.385e9)
    with pytest.raises(ValueError):
        fspl_db(1.0, 0.0)
    with pytest.raises(ValueError):
        fspl_db(-1.0, 5.385e9)


@given(
    st.floats(min_value=0.01, max_value=1e4),
    st.floats(min_value=1e6, max_value=1e11),
)
def test_fspl_matches_closed_form(d, f):
    expected = 20 * np.log10(4 * np.pi * d * f / 299_792_458.0)
    assert fspl_db(d, f) == pytest.approx(expected, rel=1e-12)


def test_fspl_is_the_channel_formula_bit_for_bit():
    # the channel's hops evaluate the elementwise formula over arrays; the scalar
    # budget must give the same bits.  Draws span the desk-scale scenes' hops;
    # a math.log10 version differed on 188 of them.
    rng = np.random.default_rng(20_000)
    d = rng.uniform(0.5, 2.0, 20_000)
    f = rng.uniform(5e9, 6e9, 20_000)
    g_a, g_b = rng.uniform(0.0, 5.0, (2, 20_000))
    want = _fspl_db(d, f, g_a, g_b)
    got = np.array([fspl_db(*args) for args in zip(*(x.tolist() for x in (d, f, g_a, g_b)))])
    assert np.count_nonzero(got != want) == 0


def test_leaked_power_identity():
    # P_tx - alpha_iso, exact float subtraction
    assert leaked_power_dbm(10.0, 44.0) == -34.0
    assert leaked_power_dbm(23.0, 110.0) == -87.0


def test_received_power_is_tx_minus_fspl():
    got = received_power_dbm(10.0, 2.0, 5.385e9, 3.0, 3.0)
    assert got == 10.0 - fspl_db(2.0, 5.385e9, 3.0, 3.0)


def test_residual_chain():
    # 30 dB of surface-side cancellation below a -34 dBm leak leaves -64 dBm
    assert residual_si_dbm(10.0, 44.0, 30.0) == -64.0
    # with none it reduces to the plain leakage budget
    assert residual_si_dbm(10.0, 44.0, 0.0) == leaked_power_dbm(10.0, 44.0)


@given(
    st.floats(min_value=-30.0, max_value=30.0),
    st.floats(min_value=20.0, max_value=140.0),
    st.floats(min_value=0.0, max_value=80.0),
)
def test_power_identities_fuzz(p_tx, alpha, p_ris):
    assert leaked_power_dbm(p_tx, alpha) == p_tx - alpha
    assert residual_si_dbm(p_tx, alpha, p_ris) == p_tx - alpha - p_ris

