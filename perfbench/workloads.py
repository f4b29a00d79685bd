"""The benchmark's workloads: one round of operations each, and their checks.

A round is the unit that is timed and repeated.  ``run`` performs the round's
operations through the ``ris_sic`` module attributes (so a traced run sees
every call) and returns what they produced; ``check`` then verifies every
output against :mod:`reference` or a property the method must have, and
counts each operation that raised or failed its check.

Operations: one campaign run, one scene, one file round trip (write, then read
back) or one snapshot.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ris_sic import channel, experiment, sceneio, search
from ris_sic.backend import SimulatedBackend

import reference

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_SCENE = ROOT / "scenes" / "default.ini"

CAMPAIGN_RUNS = 20
CAMPAIGN_SEED = 11
CAMPAIGN_HORIZON = 5000
SNAPSHOT_POINTS = 201
RANDOM_RUNS = 5  # per 4x4 scene, at the greedy run's evaluation count
# greedy-nb must cancel at least this far below the direct leak (today 51.2 dB).
MIN_NB_CANCELLATION_DB = 25.0


@dataclass
class Outcome:
    """What the checks of one round found."""

    attempted: int
    failures: list[str]
    evaluations: int  # backend evaluations the round's searches report
    cancellation_db: float
    fingerprint: tuple  # deterministic results; equal in every round

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class SearchCounts:
    """Search-layer counts of a round, read from the traces it returned."""

    evaluations: int = 0
    improvements: int = 0
    buffer_replacements: int = 0
    steps: int = 0


def buffer_replacements(trace) -> int:
    """Steps whose candidate displaced the buffer's worst member.

    The buffer always holds the ``buffer_size`` lowest readings seen so far and
    a candidate replaces its worst member only on a strictly lower reading, so
    the count follows from the trace alone.
    """
    b = trace.buffer_size
    worst_first = [-v for v in trace.evaluated[:b]]
    heapq.heapify(worst_first)
    count = 0
    for value in trace.evaluated[b:]:
        if value < -worst_first[0]:
            heapq.heapreplace(worst_first, -value)
            count += 1
    return count


def _greedy_counts(counts: SearchCounts, trace) -> None:
    counts.evaluations += trace.iterations_total
    counts.improvements += int(np.count_nonzero(np.diff(trace.cumulative) < 0))
    counts.buffer_replacements += buffer_replacements(trace)
    counts.steps += trace.iterations_total - trace.buffer_size


def _attempt(fn, *args, **kwargs):
    """Run one operation; returns (result, None) or (None, error text)."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # noqa: BLE001 - a raising operation counts as failed
        return None, f"{type(exc).__name__}: {exc}"


class Failures(list):
    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.append(what)
        return ok


# --------------------------------------------------------------------------
# greedy campaigns: greedy-nb and greedy-wb10
# --------------------------------------------------------------------------

@dataclass
class GreedyCampaign:
    """A seeded greedy campaign on one scene, written to files and read back.

    With ``snapshot_span_hz`` set, the round also takes a ``SNAPSHOT_POINTS``
    snapshot of the campaign's best configuration and round-trips it through
    a snapshot file.
    """

    grid: channel.GridSpec | None = None
    runs: int = CAMPAIGN_RUNS
    snapshot_span_hz: float | None = None
    min_cancellation_db: float | None = None
    spec: experiment.CampaignSpec = field(init=False)
    scene: channel.Scene = field(init=False)

    def set_up(self) -> None:
        params = sceneio.parse_scene(SHIPPED_SCENE)
        if self.grid is not None:
            params = replace(params, grid=self.grid)
        self.spec = experiment.CampaignSpec(
            scene=params,
            algorithm="greedy",
            runs=self.runs,
            master_seed=CAMPAIGN_SEED,
            horizon=CAMPAIGN_HORIZON,
            buffer_size=100,
            stall_limit=500,
        )
        self.scene = channel.build_scene(params)

    @property
    def ops_per_round(self) -> int:
        # every run, every trace file, the campaign file (+ snapshot and its file)
        return 2 * self.runs + 1 + (2 if self.snapshot_span_hz else 0)

    def run(self, outdir: Path, rng: np.random.Generator) -> dict:
        result, err = _attempt(experiment.run_campaign, self.spec)
        if err is not None:
            return {"result": None, "error": err}
        loaded, written = {}, []  # file key -> (content, error); files to read back

        def write(key, path, fn, *args, **kwargs):
            _, err = _attempt(fn, *args, path, **kwargs)
            if err is None:
                written.append((key, path))
            else:
                loaded[key] = (None, f"write: {err}")

        for r, trace in enumerate(result.traces):
            write(("trace", r), outdir / f"run{r:02d}.trace.csv", sceneio.write_trace,
                  trace, header={"run": str(r)})
        write(("campaign", None), outdir / "campaign.csv", sceneio.write_campaign, result)
        snapshot = snapshot_error = None
        if self.snapshot_span_hz:
            snapshot, snapshot_error = _attempt(
                experiment.transfer_snapshot,
                self.scene, result.best_config, self.snapshot_span_hz, SNAPSHOT_POINTS,
            )
            if snapshot is not None:
                write(("snapshot", None), outdir / "best.snapshot.csv",
                      sceneio.write_snapshot, *snapshot)
        readers = {
            "trace": sceneio.read_trace,
            "campaign": sceneio.read_campaign,
            "snapshot": sceneio.read_snapshot,
        }
        for i in rng.permutation(len(written)):
            key, path = written[i]
            loaded[key] = _attempt(readers[key[0]], path)
        return {"result": result, "loaded": loaded,
                "snapshot": snapshot, "snapshot_error": snapshot_error}

    def search_counts(self, raw: dict) -> SearchCounts:
        counts = SearchCounts()
        if raw["result"] is not None:
            for trace in raw["result"].traces:
                _greedy_counts(counts, trace)
        return counts

    def check(self, raw: dict) -> Outcome:
        result = raw["result"]
        if result is None:
            # The campaign aborted, so none of the round's operations completed.
            failures = [f"campaign: {raw['error']}"] * self.ops_per_round
            return Outcome(self.ops_per_round, failures, 0, 0.0, ("aborted", raw["error"]))
        loaded = raw["loaded"]
        fail = Failures()
        terms = reference.scene_terms(self.scene)
        for r, trace in enumerate(result.traces):
            # The best configuration re-scores to the reported best; on a
            # wideband grid that is criterion 3: no point lies above the
            # reported magnitude and the worst point equals it.
            per = reference.per_point_db(terms, trace.best_config.flat())
            reported = trace.best_reading.magnitude_db
            fail.check(
                bool(np.all(per <= reported + reference.TOLERANCE_DB))
                and reference.agrees(per.max(), reported),
                f"run {r}: best re-scores to {per.max()!r}, reported {reported!r}",
            )

        for r, trace in enumerate(result.traces):
            got, err = loaded[("trace", r)]
            if not fail.check(err is None, f"trace {r}: {err}"):
                continue
            fail.check(
                np.array_equal(got.evaluated_db, trace.evaluated)
                and np.array_equal(got.cumulative_db, trace.cumulative)
                and np.array_equal(got.cumulative_db, np.minimum.accumulate(got.evaluated_db)),
                f"trace {r}: file differs from the in-memory trace",
            )

        got, err = loaded[("campaign", None)]
        if fail.check(err is None, f"campaign file: {err}"):
            cut = [t.cumulative[min(t.iterations_total, self.spec.horizon) - 1] for t in result.traces]
            ok = (
                got.spec_hash == result.spec_hash == experiment.campaign_spec_hash(self.spec)
                and np.array_equal(got.final_values_db, result.final_values)
                and np.array_equal(result.final_values, cut)
            )
            if self.min_cancellation_db is not None:
                best = np.median([t.best_reading.magnitude_db for t in result.traces])
                ok = ok and self._leak_db() - best >= self.min_cancellation_db
            fail.check(ok, "campaign file: hash, final values or cancellation wrong")

        if self.snapshot_span_hz:
            self._check_snapshot(raw, fail)

        return Outcome(
            attempted=self.ops_per_round,
            failures=fail,
            evaluations=sum(t.iterations_total for t in result.traces),
            cancellation_db=self._leak_db() - result.final_median_db,
            fingerprint=(result.final_median_db, tuple(result.final_values),
                         tuple(t.iterations_total for t in result.traces)),
        )

    def _leak_db(self) -> float:
        return -self.spec.scene.calibration.alpha_iso_db

    def _check_snapshot(self, raw: dict, fail: Failures) -> None:
        result, snapshot = raw["result"], raw["snapshot"]
        if raw["snapshot_error"] is not None:
            # Without a snapshot there is no snapshot file either.
            fail.append(f"snapshot: {raw['snapshot_error']}")
            fail.append("snapshot file: no snapshot to write")
            return
        freqs, si_db = snapshot
        direct, h, g = self.scene.channels_at(freqs)
        terms = reference.path_terms(direct, h, g, self.scene.cell, freqs)
        best = result.best_config
        ok = reference.agrees(reference.per_point_db(terms, best.flat()), si_db)
        # On the scene's own grid the snapshot must equal the readings bit for bit.
        on_grid, err = _attempt(
            experiment.transfer_snapshot, self.scene, best, self.grid.bandwidth_hz, self.grid.points
        )
        reading = result.traces[result.best_run_index].best_reading
        ok = ok and err is None and np.array_equal(on_grid[1], reading.per_point_db)
        fail.check(ok, f"snapshot disagrees with the reference or the readings ({err})")

        got, err = raw["loaded"][("snapshot", None)]
        if fail.check(err is None, f"snapshot file: {err}"):
            fail.check(
                np.array_equal(got[1], freqs) and np.array_equal(got[2], si_db),
                "snapshot file differs from the snapshot",
            )


# --------------------------------------------------------------------------
# oracle-4x4: exhaustive optimum versus greedy and random
# --------------------------------------------------------------------------

def criterion4_params() -> channel.SceneParams:
    base = channel.default_scene_params()
    return replace(
        base,
        geometry=replace(base.geometry, nx=4, ny=4, antenna_distance_m=0.504),
        cell=channel.CellParams(amplitude_on=0.7, amplitude_off=0.95),
    )


@dataclass
class OracleScenes:
    """Criterion 4's study: per scene, the exhaustive optimum, one greedy run
    and five random runs at the greedy run's budget."""

    scenes: int = 2
    params: channel.SceneParams = field(default_factory=criterion4_params)
    built: list = field(init=False)

    def set_up(self) -> None:
        self.built = [channel.build_scene(self.params, seed=1000 + s) for s in range(self.scenes)]

    @property
    def ops_per_round(self) -> int:
        return self.scenes

    def _scene_round(self, s: int) -> dict:
        backend = SimulatedBackend(self.built[s])
        best_config, best = search.exhaustive_search(backend)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5000 + s)))
        greedy = search.greedy_optimize(backend, 16, 300, rng)
        randoms = []
        for j in range(RANDOM_RUNS):
            rng_j = np.random.Generator(np.random.PCG64(np.random.SeedSequence(6000 + 100 * s + j)))
            randoms.append(search.random_search(backend, greedy.iterations_total, rng_j))
        return {"config": best_config, "best": best, "greedy": greedy, "random": randoms}

    def run(self, outdir: Path, rng: np.random.Generator) -> dict:
        return {int(s): _attempt(self._scene_round, int(s)) for s in rng.permutation(self.scenes)}

    def search_counts(self, raw: dict) -> SearchCounts:
        counts = SearchCounts()
        for s, (got, _) in raw.items():
            if got is None:
                continue
            counts.evaluations += 2 ** self.built[s].n_elements
            _greedy_counts(counts, got["greedy"])
            counts.evaluations += sum(t.iterations_total for t in got["random"])
        return counts

    def check(self, raw: dict) -> Outcome:
        fail = Failures()
        optima = {}
        for s in range(self.scenes):
            got, err = raw[s]
            if not fail.check(err is None, f"scene {s}: {err}"):
                continue
            scene = self.built[s]
            best = got["best"].magnitude_db
            code, ref_best = reference.enumerate_optimum(scene)
            rescored = reference.score(scene, got["config"]).max()
            floor = [got["greedy"].best_reading.magnitude_db] + [
                t.best_reading.magnitude_db for t in got["random"]
            ]
            fail.check(
                reference.agrees(ref_best, best)
                and reference.agrees(rescored, best)
                and min(floor) >= best,
                f"scene {s}: optimum {best!r} vs reference {ref_best!r} (state {code}), "
                f"searches reached {min(floor)!r}",
            )
            # Every search result repeats, not only the optimum: greedy and
            # random readings and evaluation counts join the fingerprint.
            optima[s] = (
                best,
                got["greedy"].best_reading.magnitude_db,
                got["greedy"].iterations_total,
                tuple((t.best_reading.magnitude_db, t.iterations_total) for t in got["random"]),
            )
        leak_db = -self.params.calibration.alpha_iso_db
        cancellation = float(np.median([leak_db - v[0] for v in optima.values()])) if optima else 0.0
        return Outcome(
            attempted=self.ops_per_round,
            failures=fail,
            evaluations=self.search_counts(raw).evaluations,
            cancellation_db=cancellation,
            fingerprint=tuple(sorted(optima.items())),
        )


WORKLOADS = {
    "greedy-nb": lambda: GreedyCampaign(min_cancellation_db=MIN_NB_CANCELLATION_DB),
    "greedy-wb10": lambda: GreedyCampaign(
        grid=channel.GridSpec(5.385e9, 10e6, 11), snapshot_span_hz=20e6
    ),
    "oracle-4x4": OracleScenes,
}
