import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ris_sic.units import C0_M_PER_S, NEG_INF_DB, db_to_linear, linear_to_db


def test_speed_of_light_exact():
    assert C0_M_PER_S == 299_792_458.0


def test_db_to_linear_known_values():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(20.0) == 10.0
    assert db_to_linear(-20.0) == pytest.approx(0.1, rel=1e-15)
    assert db_to_linear(NEG_INF_DB) == 0.0


def test_linear_to_db_known_values():
    assert linear_to_db(1.0) == 0.0
    assert linear_to_db(10.0) == pytest.approx(20.0, rel=1e-15)
    assert linear_to_db(0.0) == NEG_INF_DB
    assert math.isinf(linear_to_db(0.0))


def test_linear_to_db_rejects_negative():
    with pytest.raises(ValueError):
        linear_to_db(-1e-9)


def test_db_round_trip_values():
    for v in (0.0, -44.0, -120.0, 13.5):
        assert linear_to_db(db_to_linear(v)) == pytest.approx(v, abs=1e-12)


@given(st.floats(min_value=-300.0, max_value=300.0, allow_nan=False))
def test_db_round_trip_scalar(db):
    assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-10)


@given(st.floats(min_value=1e-12, max_value=1e12))
def test_linear_round_trip(amp):
    assert db_to_linear(linear_to_db(amp)) == pytest.approx(amp, rel=1e-12)

