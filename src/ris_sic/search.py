"""Configuration search: buffer-weighted stochastic descent plus baselines.

The main optimizer keeps a small buffer of the best configurations seen so
far, ranked by reading.  Each iteration it turns the buffer into a per-element
activation ratio (better-ranked members weigh more), samples a fresh candidate
from that ratio, and lets the candidate displace the buffer's worst member on
strict improvement.  A stall counter terminates the run once the best reading
has not strictly improved for ``stall_limit`` consecutive evaluations.  This
is an elite-sampling estimation of distribution (cf. PBIL, Baluja 1994).

The ratio changes only when the buffer does, so the optimizer caches it and
rebuilds it only on a replacement.  Buffer rows never move: each sits in a
fixed slot carrying its integer rank weight, and a replacement rewrites one
slot and shifts weights, not rows.  The rebuilt ratio is bit-identical to
:func:`weighted_activation_ratio` of the rank-ordered buffer, because every
weighted column sum is an integer no larger than B(B+1)/2 < 2**53, which
float64 holds exactly in any summation order.

Candidates are drawn from ratios the searches build themselves, so they skip
the validation :func:`sample_config` gives outside callers.  Every candidate
handed to a backend is read-only.

Every search scores through one private recorder: one backend call per
configuration, a failure wrapped as :class:`EvaluationError` with the
evaluation index, and the earliest strict best kept.  Greedy and random also
record each reading for their :class:`ConvergenceTrace`; the exhaustive oracle
keeps none, as 2**20 readings would be tens of megabytes nobody reads.

Baselines: uniform random sampling over the same evaluation budget, and exact
exhaustive enumeration for small surfaces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .backend import EvaluationBackend
from .model import RisConfig, SiReading


class EvaluationError(RuntimeError):
    """A backend evaluation failed mid-search; carries the evaluation index."""

    def __init__(self, iteration: int, message: str):
        super().__init__(f"evaluation {iteration} failed: {message}")
        self.iteration = iteration


@dataclass(frozen=True, eq=False)
class ConvergenceTrace:
    """Per-evaluation history of one search run.

    ``evaluated[i]`` is the reading of the i-th evaluated configuration, the one
    array stored.  The trace derives ``iterations_total``, its length, and on each
    access ``cumulative``, its running minimum (the best after i+1 evaluations).
    """

    algorithm: str
    evaluated: np.ndarray
    best_config: RisConfig
    best_reading: SiReading
    buffer_size: Optional[int] = None
    stall_limit: Optional[int] = None
    wall_time_s: float = 0.0
    iterations_total: int = field(init=False)

    def __post_init__(self):
        ev = np.array(self.evaluated, dtype=np.float64)
        if ev.ndim != 1 or ev.size < 1:
            raise ValueError("evaluated must be a non-empty 1-D array")
        cu = np.minimum.accumulate(ev)
        if np.isnan(cu[-1]):  # np.minimum propagates NaN to every later entry
            raise ValueError("trace readings must not contain NaN")
        if self.best_reading.magnitude_db != cu[-1]:
            raise ValueError("best_reading does not match the final cumulative value")
        ev.setflags(write=False)
        object.__setattr__(self, "evaluated", ev)
        object.__setattr__(self, "iterations_total", ev.size)

    @property
    def cumulative(self) -> np.ndarray:
        """The running minimum of ``evaluated``; read-only."""
        cu = np.minimum.accumulate(self.evaluated)
        cu.setflags(write=False)
        return cu


class _Recorder:
    """Scores configurations on one backend for one search run.

    :meth:`score` keeps only the count and the earliest strict best;
    :meth:`record` also keeps the reading for the trace, 8 bytes each.
    """

    def __init__(self, backend: EvaluationBackend):
        from array import array  # deferred: importing the package loads no more modules

        self.backend = backend
        self.count = 0
        self.best_config: Optional[RisConfig] = None
        self.best_reading: Optional[SiReading] = None
        self._evaluated = array("d")
        self._t0 = time.perf_counter()

    def score(self, config: RisConfig) -> tuple[float, bool]:
        """Evaluate once; returns the reading and whether it strictly beat the best."""
        try:
            reading = self.backend.evaluate(config)
        except Exception as exc:  # noqa: BLE001 - re-raise with run context
            raise EvaluationError(self.count, f"{type(exc).__name__}: {exc}") from exc
        self.count += 1
        value = reading.magnitude_db
        improved = self.best_reading is None or value < self.best_reading.magnitude_db
        if improved:
            self.best_reading = reading
            self.best_config = config
        return value, improved

    def record(self, config: RisConfig) -> tuple[float, bool]:
        """:meth:`score`, keeping the reading for the trace."""
        value, improved = self.score(config)
        self._evaluated.append(value)
        return value, improved

    def trace(self, algorithm: str, **fields) -> ConvergenceTrace:
        return ConvergenceTrace(
            algorithm=algorithm,
            evaluated=self._evaluated,
            best_config=self.best_config,
            best_reading=self.best_reading,
            wall_time_s=time.perf_counter() - self._t0,
            **fields,
        )


def weighted_activation_ratio(configs: Sequence[RisConfig]) -> np.ndarray:
    """Rank-weighted per-element ON ratio of a best-first buffer.

    Rank k (0 = best) carries weight B - k; the weighted sum of the 0/1 state
    matrices is normalized by (B**2 + B)/2 so every entry lies in [0, 1], with
    the extremes attained exactly when a column is unanimous.
    """
    if len(configs) < 1:
        raise ValueError("need at least one buffered configuration")
    nx, ny = configs[0].nx, configs[0].ny
    for c in configs:
        if (c.nx, c.ny) != (nx, ny):
            raise ValueError("buffered configurations disagree on surface dimensions")
    matrix = np.stack([c.flat() for c in configs]).astype(np.float64)
    b = len(configs)
    weights = np.arange(b, 0, -1, dtype=np.float64)
    return ((weights @ matrix) / ((b * b + b) / 2.0)).reshape(nx, ny)


def sample_config(ratio: np.ndarray, rng: np.random.Generator) -> RisConfig:
    """Draw a configuration with independent per-element Bernoulli(ratio)."""
    ratio = np.asarray(ratio, dtype=np.float64)
    if ratio.ndim != 2:
        raise ValueError(f"ratio must be a 2-D matrix, got ndim={ratio.ndim}")
    if not (ratio.min() >= 0.0 and ratio.max() <= 1.0):  # min and max propagate NaN
        raise ValueError("activation ratios must lie in [0, 1]")
    return _draw(ratio, rng)


def _draw(ratio: np.ndarray, rng: np.random.Generator) -> RisConfig:
    """:func:`sample_config` without its checks, for a 2-D float64 ratio in [0, 1]."""
    return RisConfig._adopt(rng.random(ratio.shape) < ratio)


class GreedyOptimizer:
    """Stepwise buffer-weighted stochastic search over one backend.

    The constructor performs the ``buffer_size`` uniform warm-up evaluations,
    so the buffer invariants (full, sorted ascending by reading) hold from the
    start.  Call :meth:`step` to advance one evaluation or :meth:`run` to
    iterate to termination.

    State, one entry per buffer slot: ``_values`` (readings), ``_configs``,
    ``_rows`` (0/1 states as float64 rows) and ``_weights``, the integer rank
    weight B - rank of the member in the slot.  ``_worst`` is the slot of
    weight 1, and ``_ratio`` the cached ``_weights @ _rows`` over the normaliser.
    """

    def __init__(
        self,
        backend: EvaluationBackend,
        buffer_size: int,
        stall_limit: int,
        rng: np.random.Generator,
    ):
        if buffer_size < 2:
            raise ValueError(f"buffer_size must be >= 2, got {buffer_size}")
        if stall_limit < 1:
            raise ValueError(f"stall_limit must be >= 1, got {stall_limit}")
        self.backend = backend
        self.buffer_size = buffer_size
        self.stall_limit = stall_limit
        self.rng = rng
        self._rec = _Recorder(backend)
        self._nx, self._ny = backend.dims()
        self.termination_count = 0

        half = np.full((self._nx, self._ny), 0.5)
        self._configs, values = [], []
        for _ in range(buffer_size):
            self._configs.append(_draw(half, self.rng))
            values.append(self._rec.record(self._configs[-1])[0])
        self._values = np.array(values, dtype=np.float64)
        self._rows = np.stack([c.flat() for c in self._configs]).astype(np.float64)
        # Weights B..1 in stable reading order; from here on rows stay where they are.
        self._weights = np.empty(buffer_size)
        self._weights[np.argsort(self._values, kind="stable")] = np.arange(buffer_size, 0, -1)
        self._worst = int(self._weights.argmin())
        self._norm = float(self._weights.sum())  # (B**2 + B)/2, exact
        self._ratio = self._weighted_ratio()

    def _weighted_ratio(self) -> np.ndarray:
        return ((self._weights @ self._rows) / self._norm).reshape(self._nx, self._ny)

    # -- inspection ---------------------------------------------------------

    @property
    def buffer_readings(self) -> np.ndarray:
        """The members' readings, best rank first."""
        return self._values[np.argsort(-self._weights)]

    @property
    def buffer_configs(self) -> tuple[RisConfig, ...]:
        """The members' configurations, best rank first."""
        return tuple(self._configs[i] for i in np.argsort(-self._weights))

    @property
    def iteration(self) -> int:
        """Evaluations so far, the warm-up included."""
        return self._rec.count

    @property
    def best_reading(self) -> SiReading:
        return self._rec.best_reading

    @property
    def best_config(self) -> RisConfig:
        return self._rec.best_config

    @property
    def finished(self) -> bool:
        return self.termination_count >= self.stall_limit

    def activation_ratio(self) -> np.ndarray:
        """Current rank-weighted ON ratio the next candidate is drawn from (a copy)."""
        return self._ratio.copy()

    # -- advancement --------------------------------------------------------

    def step(self) -> float:
        """One evaluation: sample from the buffer, score, update. Returns the reading."""
        cand = _draw(self._ratio, self.rng)
        value, improved = self._rec.record(cand)
        if improved:
            # strict improvement on the incumbent: reset the stall counter
            self.termination_count = 0
        else:
            self.termination_count += 1
        if value < self._values[self._worst]:
            # The candidate displaces the worst member and ranks after every
            # reading it does not beat, where a stable sort would put it: the
            # members it beats each move down one rank, and the worst
            # member's slot takes their count as the candidate's weight.
            beaten = self._values > value
            slot = self._worst
            self._weights -= beaten
            self._weights[slot] = np.count_nonzero(beaten)
            self._values[slot] = value
            self._configs[slot] = cand
            self._rows[slot] = cand.flat()
            self._worst = int(self._weights.argmin())
            self._ratio = self._weighted_ratio()
        return value

    def run(self, max_evaluations: Optional[int] = None) -> ConvergenceTrace:
        """Step until the stall counter hits the limit (or an optional cap)."""
        while not self.finished:
            if max_evaluations is not None and self.iteration >= max_evaluations:
                break
            self.step()
        return self.trace()

    def trace(self) -> ConvergenceTrace:
        return self._rec.trace(
            "greedy", buffer_size=self.buffer_size, stall_limit=self.stall_limit
        )


def greedy_optimize(
    backend: EvaluationBackend,
    buffer_size: int,
    stall_limit: int,
    rng: np.random.Generator,
    max_evaluations: Optional[int] = None,
) -> ConvergenceTrace:
    """Run the buffer-weighted search to stall-based termination.

    ``max_evaluations`` optionally caps the run as :meth:`GreedyOptimizer.run`
    does; the ``buffer_size`` warm-up evaluations always run in full.
    """
    return GreedyOptimizer(backend, buffer_size, stall_limit, rng).run(max_evaluations)


def random_search(
    backend: EvaluationBackend, iterations: int, rng: np.random.Generator
) -> ConvergenceTrace:
    """Uniform Bernoulli(0.5) sampling baseline over a fixed budget."""
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    rec = _Recorder(backend)
    half = np.full(backend.dims(), 0.5)
    for _ in range(iterations):
        rec.record(_draw(half, rng))
    return rec.trace("random")


EXHAUSTIVE_LIMIT = 20
EXHAUSTIVE_BLOCK = 4096  # states whose bit rows are built at once


def exhaustive_search(backend: EvaluationBackend) -> tuple[RisConfig, SiReading]:
    """Exact optimum by full enumeration; surfaces capped at 2**20 states.

    States are visited in lexicographic order of the row-major bit string
    (element (0, 0) most significant); ties keep the earliest, i.e. the
    lexicographically smallest optimum.  A failing evaluation raises
    :class:`EvaluationError` carrying the state's index in that order.
    """
    nx, ny = backend.dims()
    n = nx * ny
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"exhaustive search limited to {EXHAUSTIVE_LIMIT} elements, got {n}"
        )
    shifts = np.arange(n - 1, -1, -1)
    rec = _Recorder(backend)
    for start in range(0, 2**n, EXHAUSTIVE_BLOCK):
        codes = np.arange(start, min(start + EXHAUSTIVE_BLOCK, 2**n))
        block = ((codes[:, None] >> shifts) & 1).astype(bool).reshape(-1, nx, ny)
        block.setflags(write=False)
        for bits in block:
            rec.score(RisConfig._adopt(bits))
    return rec.best_config, rec.best_reading
