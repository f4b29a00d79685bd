"""Evaluation backends: the oracle the optimizers query.

The optimizers only ever see the :class:`EvaluationBackend` protocol —
configuration in, SI reading out — so the simulated channel can be swapped
for a hardware bridge or an instrumented test double without touching the
search code.
"""

from __future__ import annotations

import math
from typing import Optional, Protocol, runtime_checkable

import numpy as np

from . import channel
from .model import RisConfig, SiReading


@runtime_checkable
class EvaluationBackend(Protocol):
    """Anything that can score a surface configuration."""

    def evaluate(self, config: RisConfig) -> SiReading:
        """SI reading for one configuration.  Must be pure and deterministic."""
        ...

    def dims(self) -> tuple[int, int]:
        """Surface dimensions (nx, ny) the backend expects."""
        ...


class SimulatedBackend:
    """Backend over a frozen :class:`~ris_sic.channel.Scene`.

    ``noise_floor_db``, when set, clamps every per-point reading from below —
    a deterministic stand-in for a receiver that cannot resolve arbitrarily
    deep nulls.  Off by default so algorithmic tests see the raw channel.
    """

    def __init__(self, scene: channel.Scene, noise_floor_db: Optional[float] = None):
        if noise_floor_db is not None and math.isnan(noise_floor_db):
            raise ValueError("noise_floor_db must not be NaN")
        self._scene = scene
        self._noise_floor_db = noise_floor_db

    @property
    def scene(self) -> channel.Scene:
        return self._scene

    @property
    def noise_floor_db(self) -> Optional[float]:
        return self._noise_floor_db

    def evaluate(self, config: RisConfig) -> SiReading:
        per = channel.si_per_point_db(self._scene, config)
        if self._noise_floor_db is not None:
            per = np.maximum(per, self._noise_floor_db)
        return SiReading.from_per_point(per)

    def dims(self) -> tuple[int, int]:
        return (self._scene.nx, self._scene.ny)
