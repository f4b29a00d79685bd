"""Multi-run experiments: seeded campaigns, bandwidth sweeps, spectrum snapshots.

A campaign runs R independent searches on one frozen scene, each with its own
child RNG stream spawned from a single master seed, and aggregates the
per-evaluation convergence curves onto a common horizon.  Results carry a
hash of the campaign parameters so a results file is always traceable to the
exact inputs that produced it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Callable, Optional, Sequence

import numpy as np

from .backend import SimulatedBackend
from .channel import (
    GridSpec, Scene, SceneParams, _amplitude_db, _check_dims, build_scene,
    transfer_vector,
)
from .model import RisConfig
from .search import ConvergenceTrace, greedy_optimize, random_search
from .sceneio import flatten_scene_params

ALGORITHMS = ("greedy", "random")


@dataclass(frozen=True)
class CampaignSpec:
    """Everything needed to reproduce a multi-run experiment bit-for-bit."""

    scene: SceneParams
    algorithm: str = "greedy"
    runs: int = 100
    master_seed: int = 0
    horizon: int = 5000
    buffer_size: int = 100
    stall_limit: int = 500

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ALGORITHMS}, got '{self.algorithm}'"
            )
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.buffer_size < 2:
            raise ValueError(f"buffer_size must be >= 2, got {self.buffer_size}")
        if self.stall_limit < 1:
            raise ValueError(f"stall_limit must be >= 1, got {self.stall_limit}")
        if self.algorithm == "greedy" and self.horizon < self.buffer_size:
            raise ValueError(f"greedy horizon ({self.horizon}) must cover the "
                             f"{self.buffer_size} warm-up evaluations")


def campaign_spec_hash(spec: CampaignSpec) -> str:
    """Stable hex digest of the full campaign parameter set."""
    items = {
        "campaign.algorithm": spec.algorithm,
        "campaign.runs": str(spec.runs),
        "campaign.master_seed": str(spec.master_seed),
        "campaign.horizon": str(spec.horizon),
        "campaign.buffer_size": str(spec.buffer_size),
        "campaign.stall_limit": str(spec.stall_limit),
    }
    items.update({f"scene.{k}": v for k, v in flatten_scene_params(spec.scene).items()})
    canonical = "\n".join(f"{k}={items[k]}" for k in sorted(items))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def extend_curve(cumulative: np.ndarray, horizon: int) -> np.ndarray:
    """Pad a converged cumulative curve (with its last value) or cut it to a horizon."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    cumulative = np.asarray(cumulative, dtype=np.float64)
    if cumulative.ndim != 1 or cumulative.size < 1:
        raise ValueError("cumulative must be a non-empty 1-D array")
    if cumulative.size >= horizon:
        return cumulative[:horizon].copy()
    out = np.empty(horizon, dtype=np.float64)
    out[: cumulative.size] = cumulative
    out[cumulative.size:] = cumulative[-1]
    return out


@dataclass(frozen=True, eq=False)
class CampaignResult:
    spec: CampaignSpec
    spec_hash: str
    traces: tuple[ConvergenceTrace, ...]
    curves: np.ndarray  # (runs, horizon)
    mean_curve: np.ndarray  # (horizon,)
    final_values: np.ndarray  # (runs,)
    created_utc: str

    def __post_init__(self):
        r, h = self.spec.runs, self.spec.horizon
        if self.curves.shape != (r, h):
            raise ValueError(f"curves must have shape ({r}, {h}), got {self.curves.shape}")
        if not np.array_equal(self.mean_curve, self.curves.mean(axis=0)):
            raise ValueError("mean_curve is not the mean of curves")
        if not np.array_equal(self.final_values, self.curves[:, -1]):
            raise ValueError("final_values is not the last curve column")
        for name in ("curves", "mean_curve", "final_values"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @property
    def final_median_db(self) -> float:
        return float(np.median(self.final_values))

    @property
    def final_mean_db(self) -> float:
        return float(np.mean(self.final_values))

    @property
    def final_best_db(self) -> float:
        return float(np.min(self.final_values))

    @property
    def final_worst_db(self) -> float:
        return float(np.max(self.final_values))

    @property
    def best_run_index(self) -> int:
        """Index of the run with the lowest horizon-limited final (earliest tie)."""
        return int(np.argmin(self.final_values))

    @property
    def best_config(self) -> RisConfig:
        return self.traces[self.best_run_index].best_config


def run_campaign(
    spec: CampaignSpec,
    progress: Optional[Callable[[int, ConvergenceTrace], None]] = None,
) -> CampaignResult:
    """Execute all runs sequentially on one shared scene.

    Every run stops at ``spec.horizon`` evaluations, where the campaign's
    curves end, so a run's best is the reading the campaign reports for it.
    Run r draws its generator from child r of ``SeedSequence(master_seed)``,
    so results do not depend on how many other runs exist or on any other
    consumer of randomness.  A failing run aborts the whole campaign.
    """
    scene = build_scene(spec.scene)
    backend = SimulatedBackend(scene)
    children = np.random.SeedSequence(spec.master_seed).spawn(spec.runs)
    traces: list[ConvergenceTrace] = []
    for r, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        try:
            if spec.algorithm == "greedy":
                trace = greedy_optimize(
                    backend, spec.buffer_size, spec.stall_limit, rng, spec.horizon
                )
            else:
                trace = random_search(backend, spec.horizon, rng)
        except Exception as exc:
            raise RuntimeError(
                f"campaign aborted: run {r} (master_seed={spec.master_seed}, "
                f"spawn key {r}) failed: {exc}"
            ) from exc
        traces.append(trace)
        if progress is not None:
            progress(r, trace)
    curves = np.stack([extend_curve(t.cumulative, spec.horizon) for t in traces])
    return CampaignResult(
        spec=spec,
        spec_hash=campaign_spec_hash(spec),
        traces=tuple(traces),
        curves=curves,
        mean_curve=curves.mean(axis=0),
        final_values=curves[:, -1].copy(),
        created_utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )


# --------------------------------------------------------------------------
# bandwidth sweep
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """Aggregate outcome of one bandwidth setting (one campaign)."""

    bandwidth_hz: float
    points: int
    runs: int
    final_median_db: float
    final_mean_db: float
    final_best_db: float
    final_worst_db: float
    result: CampaignResult = field(repr=False, compare=False)


def bandwidth_sweep(
    scene: SceneParams,
    bandwidths_hz: Sequence[float],
    points: int = 11,
    runs: int = 100,
    master_seed: int = 0,
    horizon: int = 5000,
    buffer_size: int = 100,
    stall_limit: int = 500,
) -> list[SweepPoint]:
    """Greedy campaigns across objective bandwidths on otherwise equal scenes.

    Bandwidth 0 means the narrowband single-point objective; every other value
    uses ``points`` equidistant frequencies.  All campaigns share the master
    seed so bandwidth is the only thing that varies.
    """
    if len(bandwidths_hz) < 1:
        raise ValueError("need at least one bandwidth")
    if len(set(float(b) for b in bandwidths_hz)) != len(bandwidths_hz):
        raise ValueError("bandwidths must be distinct")
    rows: list[SweepPoint] = []
    for bw in bandwidths_hz:
        bw = float(bw)
        if bw < 0.0:
            raise ValueError(f"bandwidth must be non-negative, got {bw}")
        grid = GridSpec(
            center_hz=scene.grid.center_hz,
            bandwidth_hz=bw,
            points=1 if bw == 0.0 else points,
        )
        spec = CampaignSpec(
            scene=replace(scene, grid=grid),
            algorithm="greedy",
            runs=runs,
            master_seed=master_seed,
            horizon=horizon,
            buffer_size=buffer_size,
            stall_limit=stall_limit,
        )
        result = run_campaign(spec)
        rows.append(
            SweepPoint(
                bandwidth_hz=bw,
                points=grid.points,
                runs=runs,
                final_median_db=result.final_median_db,
                final_mean_db=result.final_mean_db,
                final_best_db=result.final_best_db,
                final_worst_db=result.final_worst_db,
                result=result,
            )
        )
    return rows


# --------------------------------------------------------------------------
# transfer-function snapshot
# --------------------------------------------------------------------------

def transfer_snapshot(
    scene: Scene, config: RisConfig, span_hz: float, points: int = 201
) -> tuple[np.ndarray, np.ndarray]:
    """|H| in dB on a dense frequency axis about the scene center.

    The axis is built exactly like a wideband evaluation grid, so when
    ``span_hz``/``points`` equal the scene grid's span and size the sampled
    frequencies — and therefore the dB values — coincide bit-exactly with the
    per-point readings of :func:`ris_sic.channel.si_per_point_db`.
    """
    if points < 2:
        raise ValueError(f"snapshot needs >= 2 points, got {points}")
    if span_hz <= 0.0:
        raise ValueError(f"span must be positive, got {span_hz}")
    _check_dims(scene, config)
    freqs = np.linspace(
        scene.grid.center_hz - span_hz / 2.0,
        scene.grid.center_hz + span_hz / 2.0,
        points,
    )
    direct, h, g = scene.channels_at(freqs)
    full = transfer_vector(direct, h, g, scene.cell, freqs, config.flat())
    return freqs, _amplitude_db(full)
