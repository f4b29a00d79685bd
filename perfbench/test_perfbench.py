"""Tests of the benchmark's reference scorer, output checks and tracer.

    python3 -m pytest -q perfbench
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ris_sic import sceneio, search  # noqa: E402
from ris_sic.backend import SimulatedBackend  # noqa: E402
from ris_sic.cell import UnitCellModel  # noqa: E402
from ris_sic.channel import (  # noqa: E402
    GridSpec,
    Scene,
    build_scene,
    default_scene_params,
    si_per_point_db,
)
from ris_sic.model import FrequencyGrid, RisConfig, SiReading  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WB10 = GridSpec(5.385e9, 10e6, 11)


def _built(nx, ny, grid=None):
    p = default_scene_params()
    p = replace(p, geometry=replace(p.geometry, nx=nx, ny=ny))
    return build_scene(p if grid is None else replace(p, grid=grid))


def _synthetic(nx, ny, k, seed):
    rng = np.random.default_rng(seed)
    n = nx * ny
    grid = (
        FrequencyGrid.narrowband(5.385e9) if k == 1
        else FrequencyGrid.wideband(5.385e9, 20e6, k)
    )

    def cg(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 1e-2

    cell = UnitCellModel.with_phase_target(5.385e9, 160.0, 6.0, 0.8, 0.9)
    return Scene.from_arrays(grid, cg(k), cg(n, k), cg(n, k), cell, nx, ny)


SCENES = {
    "built-16x16-k1": lambda: _built(16, 16),
    "built-16x16-k11": lambda: _built(16, 16, WB10),
    "built-4x4-k11": lambda: _built(4, 4, WB10),
    "arrays-3x5-k1": lambda: _synthetic(3, 5, 1, seed=1),
    "arrays-3x5-k11": lambda: _synthetic(3, 5, 11, seed=2),
}


@pytest.mark.parametrize("name", sorted(SCENES))
def test_reference_agrees_with_program(name):
    scene = SCENES[name]()
    rng = np.random.default_rng(7)
    for _ in range(20):
        config = RisConfig(rng.random((scene.nx, scene.ny)) < 0.5)
        program = si_per_point_db(scene, config)
        ref = reference.score(scene, config)
        assert reference.agrees(ref, program)
        assert not reference.agrees(ref, program + 1e-6)
        assert not reference.agrees(ref, program - 1e-6)


def test_enumeration_matches_exhaustive_search():
    scene = _built(3, 3)
    config, best = search.exhaustive_search(SimulatedBackend(scene))
    code, ref_best = reference.enumerate_optimum(scene)
    bits = [(code >> (8 - i)) & 1 for i in range(9)]
    assert reference.agrees(ref_best, best.magnitude_db)
    assert np.array_equal(np.asarray(bits, dtype=bool), config.flat())


def test_buffer_replacements_follow_from_the_trace():
    opt = search.GreedyOptimizer(SimulatedBackend(_built(4, 4)), 8, 60,
                                 np.random.default_rng(3))
    replaced = 0
    while not opt.finished:
        before = opt.buffer_readings
        opt.step()
        replaced += not np.array_equal(before, opt.buffer_readings)
    assert replaced > 0
    assert workloads.buffer_replacements(opt.trace()) == replaced


def _small_campaign(**kw):
    wl = workloads.GreedyCampaign(runs=2, **kw)
    wl.set_up()
    return wl


def _small_oracle():
    p = workloads.criterion4_params()
    wl = workloads.OracleScenes(scenes=2, params=replace(p, geometry=replace(p.geometry, nx=3, ny=3)))
    wl.set_up()
    return wl


def _round(wl, tmp_path):
    return wl.check(wl.run(tmp_path, np.random.default_rng(0)))


@pytest.mark.parametrize("make", [
    _small_campaign,
    lambda: _small_campaign(grid=WB10, snapshot_span_hz=20e6),
    _small_oracle,
])
def test_clean_round_passes(make, tmp_path):
    wl = make()
    outcome = _round(wl, tmp_path)
    assert outcome.attempted == wl.ops_per_round
    assert outcome.failures == []


def test_tampered_trace_is_a_failed_operation(tmp_path, monkeypatch):
    write = sceneio.write_trace

    def write_then_tamper(trace, path, header=None):
        write(trace, path, header)
        # Raise the last reading by one ulp: still not an improvement, so the
        # file stays self-consistent and only the bit comparison can see it.
        lines = Path(path).read_text().splitlines()
        i, ev, cu = lines[-1].split(",")
        lines[-1] = f"{i},{np.nextafter(float(ev), np.inf)!r},{cu}"
        Path(path).write_text("\n".join(lines) + "\n")

    wl = _small_campaign()
    monkeypatch.setattr(sceneio, "write_trace", write_then_tamper)
    outcome = _round(wl, tmp_path)
    assert outcome.failed == 2
    assert all(f.startswith("trace ") for f in outcome.failures)


def _shift_readings(monkeypatch, shift_db):
    evaluate = SimulatedBackend.evaluate

    def shifted(self, config):
        return SiReading.from_per_point(evaluate(self, config).per_point_db + shift_db)

    monkeypatch.setattr(SimulatedBackend, "evaluate", shifted)


def test_corrupted_readings_fail_every_run(tmp_path, monkeypatch):
    wl = _small_campaign()
    _shift_readings(monkeypatch, 1e-6)
    outcome = _round(wl, tmp_path)
    assert [f.split(":")[0] for f in outcome.failures] == ["run 0", "run 1"]


def test_corrupted_readings_fail_every_scene(tmp_path, monkeypatch):
    wl = _small_oracle()
    _shift_readings(monkeypatch, 1e-6)
    outcome = _round(wl, tmp_path)
    assert outcome.failed == wl.scenes


def _raise_on_call(monkeypatch, k):
    """Make the backend's k-th evaluate call (1-based) raise."""
    evaluate = SimulatedBackend.evaluate
    calls = [0]

    def raising(self, config):
        calls[0] += 1
        if calls[0] == k:
            raise FloatingPointError(f"evaluation {k}")
        return evaluate(self, config)

    monkeypatch.setattr(SimulatedBackend, "evaluate", raising)


def test_raising_backend_fails_every_operation_of_the_campaign_round(tmp_path, monkeypatch):
    # run_campaign aborts on a failing run, so no run, file or snapshot completes.
    wl = _small_campaign(grid=WB10, snapshot_span_hz=20e6)
    _raise_on_call(monkeypatch, 150)
    outcome = _round(wl, tmp_path)
    assert outcome.attempted == outcome.failed == wl.ops_per_round
    assert all("evaluation 150" in f for f in outcome.failures), outcome.failures[:1]


def test_raising_backend_fails_only_its_scene(tmp_path, monkeypatch):
    wl = _small_oracle()
    _raise_on_call(monkeypatch, 3)
    outcome = _round(wl, tmp_path)
    assert outcome.failed == 1
    assert "FloatingPointError" in outcome.failures[0]


def test_raising_write_fails_its_file_round_trip(tmp_path, monkeypatch):
    def refuse(trace, path, header=None):
        raise OSError("disk full")

    wl = _small_campaign()
    monkeypatch.setattr(sceneio, "write_trace", refuse)
    outcome = _round(wl, tmp_path)
    assert outcome.failures == ["trace 0: write: OSError: disk full",
                                "trace 1: write: OSError: disk full"]


def test_raising_snapshot_fails_the_snapshot_and_its_file(tmp_path, monkeypatch):
    from ris_sic import experiment

    def refuse(*args):
        raise ValueError("no grid")

    wl = _small_campaign(grid=WB10, snapshot_span_hz=20e6)
    monkeypatch.setattr(experiment, "transfer_snapshot", refuse)
    outcome = _round(wl, tmp_path)
    assert [f.split(":")[0] for f in outcome.failures] == ["snapshot", "snapshot file"]


def test_self_time_subtracts_named_layers_inside_each_span():
    # p [0, 3] holds c [1, 2]; p [4, 7] holds c [5, 5.5]; c [8, 9] is outside.
    spans = tracer.Spans(
        ["p", "c"], [1, 0, 1, 0, 1], [1.0, 0.0, 5.0, 4.0, 8.0], [2.0, 3.0, 5.5, 7.0, 9.0]
    )
    assert np.array_equal(spans.self_durations("p", ("c",)), [2.0, 2.5])
    assert np.array_equal(spans.durations("c"), [1.0, 0.5, 1.0])


@pytest.mark.parametrize("make", [
    lambda: _small_campaign(grid=WB10, snapshot_span_hz=20e6),
    _small_oracle,
])
def test_traced_round_counts_agree_and_wrappers_are_restored(make, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    wl = make()
    before = tracer.originals()
    wall, outcome, layers = run.run_round(wl, np.random.default_rng(0), trace=True)
    assert tracer.originals() == before
    assert outcome.failures == []
    assert wall > 0.0
    assert layers["search.evaluations"][0] == layers["backend.evaluate_calls"][0] > 0
    assert layers["channel.kernel_configs"][0] >= layers["backend.evaluate_calls"][0]
    assert layers["cell.reflection_calls"][0] >= 2 * layers["channel.kernel_calls"][0]
    assert set(layers) | {"trace.overhead_s"} == {
        m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    }
