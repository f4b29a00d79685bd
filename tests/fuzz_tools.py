"""Instrumented test doubles and an invariant-checking fuzz harness for the
buffer-weighted optimizer.  Shared between the unit suite and the acceptance
gate so both exercise identical checks.
"""

import hashlib
from typing import NamedTuple

import numpy as np

from ris_sic.model import RisConfig, SiReading


class FuzzOutcome(NamedTuple):
    assertions: int
    evaluations: int


class HashBackend:
    """Deterministic pseudo-random objective: reading derived from a digest of
    the configuration bits.  Optionally quantized to a few levels to force
    frequent ties."""

    def __init__(self, nx, ny, salt=0, levels=None):
        self._nx, self._ny = nx, ny
        self._salt = salt
        self._levels = levels
        self.calls = 0

    def evaluate(self, config: RisConfig) -> SiReading:
        self.calls += 1
        digest = hashlib.blake2b(
            config.states.tobytes() + self._salt.to_bytes(8, "little"),
            digest_size=8,
        ).digest()
        u = int.from_bytes(digest, "little") / 2**64
        value = -90.0 + 60.0 * u  # readings in [-90, -30] dB
        if self._levels is not None:
            value = round(value * self._levels) / self._levels
        return SiReading.from_per_point([value])

    def dims(self):
        return (self._nx, self._ny)


class FlatBackend:
    """Constant objective: nothing ever improves after the first evaluation."""

    def __init__(self, nx=3, ny=3, value=-44.0):
        self._nx, self._ny = nx, ny
        self._value = value
        self.calls = 0

    def evaluate(self, config):
        self.calls += 1
        return SiReading.from_per_point([self._value])

    def dims(self):
        return (self._nx, self._ny)


class FailingBackend:
    """Raises on the n-th call (1-based); delegates to HashBackend before."""

    def __init__(self, nx, ny, fail_at):
        self._inner = HashBackend(nx, ny)
        self._fail_at = fail_at
        self.calls = 0

    def evaluate(self, config):
        self.calls += 1
        if self.calls == self._fail_at:
            raise RuntimeError("injected hardware fault")
        return self._inner.evaluate(config)

    def dims(self):
        return self._inner.dims()


def check_optimizer_invariants(opt) -> int:
    """Assert every structural invariant of one optimizer state.

    Returns the number of individual assertions performed so callers can
    account for total fuzz coverage.
    """
    checks = 0
    readings = opt.buffer_readings
    configs = opt.buffer_configs

    assert readings.size == opt.buffer_size, "buffer must stay full"
    checks += 1
    assert len(configs) == opt.buffer_size
    checks += 1
    assert np.all(np.diff(readings) >= 0.0), "buffer must be sorted ascending"
    checks += 1

    # rank/config alignment: re-scoring each member reproduces its stored reading
    for r, c in zip(readings, configs):
        assert opt.backend.evaluate(c).magnitude_db == r
        checks += 1

    ratio = opt.activation_ratio()
    assert ratio.shape == (opt._nx, opt._ny)
    checks += 1
    assert np.all(ratio >= 0.0) and np.all(ratio <= 1.0)
    checks += 1

    # manual recomputation of the rank weighting
    b = opt.buffer_size
    expected = np.zeros(opt._nx * opt._ny)
    for k, c in enumerate(configs):
        expected += (b - k) * c.flat()
    expected /= (b * b + b) / 2.0
    np.testing.assert_allclose(ratio.reshape(-1), expected, rtol=0, atol=1e-12)
    checks += 1

    # the best configuration ever seen heads the buffer
    assert readings[0] == opt.best_reading.magnitude_db
    checks += 1
    assert opt.termination_count <= opt.stall_limit
    checks += 1

    tr = opt.trace()
    assert np.array_equal(tr.cumulative, np.minimum.accumulate(tr.evaluated))
    checks += 1
    assert tr.cumulative[-1] == opt.best_reading.magnitude_db
    checks += 1
    return checks


def fuzz_optimizer_run(seed, nx=3, ny=3, buffer_size=6, stall_limit=30,
                       steps=40, levels=None) -> FuzzOutcome:
    """One randomized optimizer run with invariants checked after every event.

    Returns how many assertions were performed and how many optimizer
    evaluations they covered.
    """
    from ris_sic.search import GreedyOptimizer

    backend = HashBackend(nx, ny, salt=seed, levels=levels)
    rng = np.random.default_rng(seed)
    opt = GreedyOptimizer(backend, buffer_size, stall_limit, rng)
    total = check_optimizer_invariants(opt)

    assert opt.iteration == buffer_size, "warm-up must evaluate exactly B configs"
    total += 1

    for _ in range(steps):
        if opt.finished:
            break
        before_best = opt.best_reading.magnitude_db
        before_worst = opt.buffer_readings[-1]
        value = opt.step()
        total += check_optimizer_invariants(opt)

        if value < before_best:
            assert opt.termination_count == 0, "strict improvement must reset the stall counter"
        else:
            assert opt.termination_count > 0, "non-improvement must advance the stall counter"
        total += 1

        if value >= before_worst:
            # ties with the worst member must not displace it
            assert opt.buffer_readings[-1] == before_worst
            total += 1

    if opt.finished:
        assert opt.termination_count == opt.stall_limit
        total += 1
    return FuzzOutcome(assertions=total, evaluations=opt.iteration)
