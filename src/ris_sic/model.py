"""Core value types shared by the channel simulator and the optimizers.

Everything here is an immutable value object: safe to share between threads,
hashable where it makes sense, and validated on construction: parameter
dataclasses declare each field's range with :func:`bounded` for :class:`Checked`.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Iterable

import numpy as np


def bounded(default=MISSING, *, ge=None, gt=None, le=None):
    """A dataclass field whose value :class:`Checked` keeps ``>= ge`` or ``> gt``, and
    ``<= le`` when given; the bounds are written in the field's type."""
    strict = gt is not None
    lo = gt if strict else ge
    rule = (f"in {'(' if strict else '['}{lo}, {le}]" if le is not None
            else f"{'>' if strict else '>='} {lo}")
    return field(default=default, metadata={"bound": (lo, strict, le, rule)})


class Checked:
    """Dataclass mixin that checks every field once the object is built: a float
    must be finite, bar ``-inf`` in a field named in ``NEG_INF_OK``, and a
    :func:`bounded` field must lie in its range.  Each message starts with the
    field's name, so a scene file's bad value is refused at that key's line."""

    NEG_INF_OK = ()  # names of fields that may be -inf

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value) and not (
                    value == -math.inf and f.name in self.NEG_INF_OK):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if "bound" in f.metadata:
                lo, strict, hi, rule = f.metadata["bound"]
                if (value <= lo if strict else value < lo) or (hi is not None and value > hi):
                    raise ValueError(f"{f.name} must be {rule}, got {value}")


@dataclass(frozen=True, eq=False)
class RisConfig:
    """Binary on/off state matrix of the surface, shape (nx, ny).

    The optimization variable: element (x, y) is ON when ``states[x, y]`` is
    true.  Immutable; equality and hashing are element-wise over the matrix.
    """

    states: np.ndarray

    def __post_init__(self):
        arr = np.array(self.states, dtype=bool)
        if arr.ndim != 2:
            raise ValueError(f"states must be a 2-D matrix, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"surface dimensions must be >= 1, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "states", arr)

    @classmethod
    def _adopt(cls, states: np.ndarray) -> "RisConfig":
        """Wrap a 2-D bool array no one else writes to, without a copy or checks.

        For arrays the package has just built; the array is made read-only.
        """
        states.setflags(write=False)
        config = object.__new__(cls)
        object.__setattr__(config, "states", states)
        return config

    @property
    def nx(self) -> int:
        return self.states.shape[0]

    @property
    def ny(self) -> int:
        return self.states.shape[1]

    @property
    def n_elements(self) -> int:
        return self.states.size

    def flat(self) -> np.ndarray:
        """Row-major flattened view (element (x, y) at index x*ny + y)."""
        return self.states.reshape(-1)

    @classmethod
    def all_off(cls, nx: int, ny: int) -> "RisConfig":
        return cls(np.zeros((nx, ny), dtype=bool))

    @classmethod
    def all_on(cls, nx: int, ny: int) -> "RisConfig":
        return cls(np.ones((nx, ny), dtype=bool))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RisConfig):
            return NotImplemented
        return self.states.shape == other.states.shape and bool(
            np.array_equal(self.states, other.states)
        )

    def __hash__(self) -> int:
        return hash((self.states.shape, self.states.tobytes()))

    def __repr__(self) -> str:
        return f"RisConfig({self.nx}x{self.ny}, {int(self.states.sum())} on)"


DEFAULT_CENTER_HZ = 5.385e9
WIDEBAND_POINTS = 11  # a wideband grid's point count when none is given


@dataclass(frozen=True)
class GridSpec(Checked):
    """The objective's frequency grid, and the one place its values are checked: the
    single point ``center_hz`` at bandwidth 0, else ``points`` distinct float64
    frequencies, equidistant over ``bandwidth_hz`` and symmetric about the center."""

    center_hz: float = bounded(DEFAULT_CENTER_HZ, gt=0.0)
    bandwidth_hz: float = bounded(0.0, ge=0.0)
    points: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.bandwidth_hz == 0.0 and self.points != 1:
            raise ValueError("narrowband grid (bandwidth 0) must have exactly 1 point")
        if self.bandwidth_hz > 0.0 and self.points < 2:
            raise ValueError("wideband grid needs points >= 2")
        if self.bandwidth_hz >= 2.0 * self.center_hz:
            raise ValueError("bandwidth exceeds the positive-frequency span")
        if not math.isfinite(self.center_hz + self.bandwidth_hz / 2.0):
            raise ValueError("bandwidth_hz puts the grid's top edge past the float range")
        if self.points > 1 and not np.all(np.diff(self.axis()) > 0.0):
            raise ValueError(f"the {self.points} points must be distinct float64 frequencies")

    def axis(self) -> np.ndarray:
        """The grid's frequencies, computed afresh: ``[center]`` or an equidistant ``linspace``."""
        if self.points == 1:
            return np.array([self.center_hz])
        return np.linspace(self.center_hz - self.bandwidth_hz / 2.0,
                           self.center_hz + self.bandwidth_hz / 2.0, self.points)


@dataclass(frozen=True)
class FrequencyGrid:
    """A :class:`GridSpec`'s frequency axis, computed once: ``points`` is read-only and
    owns its data (a ``linspace`` does not), so the kernel caches may store what
    they compute on it.  Equality and hashing are the spec's."""

    spec: GridSpec
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.array(self.spec.axis())
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def narrowband(cls, center_hz: float) -> "FrequencyGrid":
        return cls(GridSpec(center_hz))

    @classmethod
    def wideband(cls, center_hz: float, bandwidth_hz: float, points: int) -> "FrequencyGrid":
        return cls(GridSpec(center_hz, bandwidth_hz, points))

    k = property(lambda self: self.spec.points)
    center_hz = property(lambda self: self.spec.center_hz)


@dataclass(frozen=True, eq=False)
class SiReading:
    """One measured/simulated SI magnitude: max over the grid plus per-point detail.

    Built from ``per_point_db`` alone: ``magnitude_db`` is computed as
    ``max(per_point_db)``; a channel that is identically zero yields the
    negative-infinity sentinel.  The max propagates NaN, so that one reduction
    both gives the magnitude and rejects NaN.
    """

    per_point_db: np.ndarray
    magnitude_db: float = field(init=False)

    def __post_init__(self):
        per = np.array(self.per_point_db, dtype=np.float64)
        if per.ndim != 1 or per.size < 1:
            raise ValueError("per_point_db must be a non-empty 1-D array")
        top = float(per.max())
        if math.isnan(top):
            raise ValueError("per_point_db must not contain NaN")
        per.setflags(write=False)
        object.__setattr__(self, "per_point_db", per)
        object.__setattr__(self, "magnitude_db", top)

    @classmethod
    def from_per_point(cls, per_point_db: Iterable[float]) -> "SiReading":
        return cls(per_point_db)

    @property
    def is_null(self) -> bool:
        """True when the transfer function vanished at every grid point."""
        return self.magnitude_db == float("-inf")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SiReading):
            return NotImplemented
        return self.magnitude_db == other.magnitude_db and bool(
            np.array_equal(self.per_point_db, other.per_point_db)
        )
