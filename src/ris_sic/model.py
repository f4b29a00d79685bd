"""Core value types shared by the channel simulator and the optimizers.

Everything here is an immutable value object: safe to share between threads,
hashable where it makes sense, and validated on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np


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


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Ordered evaluation frequencies with a designated center.

    A narrowband grid has exactly one point, equal to the center.  A wideband
    grid has K >= 2 equidistant points symmetric about the center.
    """

    points: np.ndarray
    center_hz: float

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("grid needs at least one frequency point")
        if np.any(pts <= 0.0):
            raise ValueError("grid frequencies must be positive")
        if pts.size > 1:
            if np.any(np.diff(pts) <= 0.0):
                raise ValueError("grid frequencies must be strictly increasing")
            steps = np.diff(pts)
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
                raise ValueError("wideband grid points must be equidistant")
            mid = 0.5 * (pts[0] + pts[-1])
            if abs(mid - self.center_hz) > 1e-6 * self.center_hz:
                raise ValueError("wideband grid must be symmetric about the center")
        elif pts[0] != self.center_hz:
            raise ValueError("narrowband grid's single point must equal the center")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def narrowband(cls, center_hz: float) -> "FrequencyGrid":
        return cls(np.array([center_hz]), center_hz)

    @classmethod
    def wideband(cls, center_hz: float, bandwidth_hz: float, points: int) -> "FrequencyGrid":
        if points < 2:
            raise ValueError(f"wideband grid needs >= 2 points, got {points}")
        if bandwidth_hz <= 0.0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
        pts = np.linspace(center_hz - bandwidth_hz / 2.0, center_hz + bandwidth_hz / 2.0, points)
        return cls(pts, center_hz)

    @property
    def k(self) -> int:
        return int(self.points.size)

    @property
    def is_narrowband(self) -> bool:
        return self.points.size == 1

    @property
    def span_hz(self) -> float:
        return float(self.points[-1] - self.points[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FrequencyGrid):
            return NotImplemented
        return self.center_hz == other.center_hz and bool(np.array_equal(self.points, other.points))

    def __hash__(self) -> int:
        return hash((self.center_hz, self.points.tobytes()))


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
