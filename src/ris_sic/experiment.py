"""Multi-run experiments: seeded campaigns, bandwidth sweeps, spectrum snapshots.

A campaign runs R independent searches on one frozen scene, each with its own
child RNG stream spawned from a single master seed, and aggregates the
per-evaluation convergence curves onto a common horizon.  Results carry a
hash of the campaign parameters so a results file is always traceable to the
exact inputs that produced it.  A bandwidth sweep returns one campaign result
per bandwidth, each spec's grid naming its bandwidth and point count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .backend import SimulatedBackend
from .channel import (
    Scene, SceneParams, _amplitude_db, _check_dims, build_scene, freq_blocks, transfer_vector,
)
from .model import WIDEBAND_POINTS, Checked, GridSpec, RisConfig, bounded
from .search import ConvergenceTrace, greedy_optimize, random_search
from .sceneio import FINAL_STATS, flatten_campaign_spec, now_utc

ALGORITHMS = ("greedy", "random")


@dataclass(frozen=True)
class CampaignSpec(Checked):
    """Everything needed to reproduce a multi-run experiment bit-for-bit."""

    scene: SceneParams
    algorithm: str = "greedy"
    runs: int = bounded(100, ge=1)
    master_seed: int = bounded(0, ge=0)
    horizon: int = bounded(5000, ge=1)
    buffer_size: int = bounded(100, ge=2)
    stall_limit: int = bounded(500, ge=1)

    def __post_init__(self):
        super().__post_init__()
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ALGORITHMS}, got '{self.algorithm}'"
            )
        if self.algorithm == "greedy" and self.horizon < self.buffer_size:
            raise ValueError(f"greedy horizon ({self.horizon}) must cover the "
                             f"{self.buffer_size} warm-up evaluations")


def campaign_spec_hash(spec: CampaignSpec) -> str:
    """Stable hex digest of the full campaign parameter set."""
    items = {k if k.startswith("scene.") else f"campaign.{k}": v
             for k, v in flatten_campaign_spec(spec).items()}
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


def _final_stat(key: str) -> property:  # a final-value statistic, as the files report it
    return property(lambda self: float(FINAL_STATS[key](self.final_values)))


@dataclass(frozen=True, eq=False)
class CampaignResult:
    """A campaign's traces and, kept read-only, their ``mean_curve`` and ``final_values``."""

    spec: CampaignSpec
    traces: tuple[ConvergenceTrace, ...]
    created_utc: str
    mean_curve: np.ndarray = field(init=False)  # (horizon,)
    final_values: np.ndarray = field(init=False)  # (runs,)

    def __post_init__(self):
        if len(self.traces) != self.spec.runs:
            raise ValueError(f"{len(self.traces)} traces for {self.spec.runs} runs")
        # one padded curve at a time, added in run order from 0.0, as curves.mean(axis=0)
        # adds its rows; a one-column stack it sums pairwise, as np.mean does the finals
        total, finals = np.zeros(self.spec.horizon), np.empty(self.spec.runs)
        for r, trace in enumerate(self.traces):
            curve = extend_curve(trace.cumulative, self.spec.horizon)
            total += curve
            finals[r] = curve[-1]
        mean = np.mean(finals, keepdims=True) if total.size == 1 else total / finals.size
        for name, value in (("mean_curve", mean), ("final_values", finals)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    spec_hash = property(lambda self: campaign_spec_hash(self.spec))

    @property
    def curves(self) -> np.ndarray:
        """Each run's cumulative curve cut or padded to the horizon, rebuilt on access."""
        curves = np.stack([extend_curve(t.cumulative, self.spec.horizon) for t in self.traces])
        curves.setflags(write=False)
        return curves

    final_median_db = _final_stat("final_median_db")
    final_mean_db = _final_stat("final_mean_db")
    final_best_db = _final_stat("final_best_db")
    final_worst_db = _final_stat("final_worst_db")

    @property
    def best_run_index(self) -> int:
        """Index of the run with the lowest horizon-limited final (earliest tie)."""
        return int(np.argmin(self.final_values))

    @property
    def best_config(self) -> RisConfig:
        return self.traces[self.best_run_index].best_config


def run_campaign(spec: CampaignSpec) -> CampaignResult:
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
    return CampaignResult(spec=spec, traces=tuple(traces), created_utc=now_utc())


# --------------------------------------------------------------------------
# bandwidth sweep
# --------------------------------------------------------------------------

def bandwidth_sweep(scene: SceneParams, bandwidths_hz: Sequence[float],
                    points: int = WIDEBAND_POINTS, **campaign) -> list[CampaignResult]:
    """One greedy campaign per bandwidth, in request order, on otherwise equal scenes.

    Bandwidth 0 means the narrowband single-point objective; every other value
    uses ``points`` equidistant frequencies.  ``campaign`` sets the remaining
    :class:`CampaignSpec` fields (``runs``, ``master_seed``, ``horizon``, ...)
    for every campaign, so bandwidth is the only thing that varies.  Every spec
    is built, and so validated, before the first campaign runs.
    """
    bandwidths = [float(b) for b in bandwidths_hz]
    if not bandwidths:
        raise ValueError("need at least one bandwidth")
    if len(set(bandwidths)) != len(bandwidths):
        raise ValueError("bandwidths must be distinct")
    grids = [GridSpec(scene.grid.center_hz, bw, 1 if bw == 0.0 else points) for bw in bandwidths]
    specs = [CampaignSpec(replace(scene, grid=grid), algorithm="greedy", **campaign)
             for grid in grids]
    return [run_campaign(spec) for spec in specs]


# --------------------------------------------------------------------------
# transfer-function snapshot
# --------------------------------------------------------------------------

def transfer_snapshot(
    scene: Scene, config: RisConfig, span_hz: float, points: int
) -> tuple[np.ndarray, np.ndarray]:
    """|H| in dB on a dense frequency axis about the scene center.

    The axis is the :class:`~ris_sic.model.GridSpec`'s, which checks ``span_hz``
    and ``points``, so when they equal the scene grid's span and size the sampled
    frequencies — and therefore the dB values — coincide bit-exactly with the
    per-point readings of :func:`ris_sic.channel.si_per_point_db`; a 0 Hz span
    is the single center point.  The axis is scored in the frequency blocks of
    :func:`ris_sic.channel.freq_blocks`.
    """
    freqs = GridSpec(scene.grid.center_hz, span_hz, points).axis()
    _check_dims(scene, config)
    flat, si_db = config.flat(), np.empty(points)
    for b in freq_blocks(scene.n_elements, points):  # memory: one block plus the output
        direct, h, g = scene.channels_at(freqs[b])
        si_db[b] = _amplitude_db(transfer_vector(direct, h, g, scene.cell, freqs[b], flat))
    return freqs, si_db
