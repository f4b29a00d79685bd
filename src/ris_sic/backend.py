"""Evaluation backends: the oracle the optimizers query.

The optimizers only ever see the :class:`EvaluationBackend` protocol —
configuration in, SI reading out — so the simulated channel can be swapped
for a hardware bridge or an instrumented test double without touching the
search code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

import numpy as np

from . import channel
from .model import Checked, RisConfig, SiReading


@runtime_checkable
class EvaluationBackend(Protocol):
    """Anything that can score a surface configuration."""

    def evaluate(self, config: RisConfig) -> SiReading:
        """SI reading for one configuration.  Must be pure and deterministic."""
        ...

    def dims(self) -> tuple[int, int]:
        """Surface dimensions (nx, ny) the backend expects."""
        ...


@dataclass(frozen=True)
class SimulatedBackend(Checked):
    """Backend over a frozen :class:`~ris_sic.channel.Scene`.

    ``noise_floor_db``, when set, clamps every per-point reading from below —
    a deterministic stand-in for a receiver that cannot resolve arbitrarily
    deep nulls.  It must be finite or ``-inf`` (which clamps nothing).  Off by
    default so algorithmic tests see the raw channel.
    """

    NEG_INF_OK = ("noise_floor_db",)

    scene: channel.Scene
    noise_floor_db: Optional[float] = None

    def evaluate(self, config: RisConfig) -> SiReading:
        per = channel.si_per_point_db(self.scene, config)
        if self.noise_floor_db is not None:
            per = np.maximum(per, self.noise_floor_db)
        return SiReading.from_per_point(per)

    def dims(self) -> tuple[int, int]:
        return (self.scene.nx, self.scene.ny)
