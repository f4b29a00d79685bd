"""Acceptance gate: end-to-end statistical and numerical guarantees.

Each test covers one numbered criterion and prints a single verdict line with
the measured values (bypassing capture, so the lines always appear in the
pytest output).  The heavy multi-run campaigns are module-scoped fixtures with
their wall time tracked per fixture, so criteria sharing a campaign are billed
fairly for it.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from ris_sic.backend import SimulatedBackend
from ris_sic.budget import fspl_db, leaked_power_dbm, residual_si_dbm
from ris_sic.cell import UnitCellModel
from ris_sic.channel import (
    CellParams,
    GridSpec,
    build_scene,
    default_scene_params,
    si_per_point_db,
)
from ris_sic.experiment import CampaignSpec, run_campaign
from ris_sic.search import GreedyOptimizer, exhaustive_search, random_search
from ris_sic.sceneio import VOLATILE_HEADER_KEYS, write_campaign, write_trace

from fuzz_tools import fuzz_optimizer_run

GREEDY_MASTER_SEED = 11
RANDOM_MASTER_SEED = 12
RUNS = 20
HORIZON = 5000
BASELINE_DB = -44.0

TIMINGS: dict[str, float] = {}


def _timed_campaign(name, spec):
    t0 = time.perf_counter()
    result = run_campaign(spec)
    TIMINGS[name] = time.perf_counter() - t0
    return result


def _campaign_spec(grid=None, algorithm="greedy", master_seed=GREEDY_MASTER_SEED):
    scene = default_scene_params()
    if grid is not None:
        scene = replace(scene, grid=grid)
    return CampaignSpec(
        scene=scene,
        algorithm=algorithm,
        runs=RUNS,
        master_seed=master_seed,
        horizon=HORIZON,
        buffer_size=100,
        stall_limit=500,
    )


@pytest.fixture(scope="module")
def nb_greedy():
    return _timed_campaign("nb_greedy", _campaign_spec())


@pytest.fixture(scope="module")
def nb_random():
    return _timed_campaign(
        "nb_random", _campaign_spec(algorithm="random", master_seed=RANDOM_MASTER_SEED)
    )


@pytest.fixture(scope="module")
def wb5_greedy():
    return _timed_campaign("wb5_greedy", _campaign_spec(GridSpec(5.385e9, 5e6, 11)))


@pytest.fixture(scope="module")
def wb10_greedy():
    return _timed_campaign("wb10_greedy", _campaign_spec(GridSpec(5.385e9, 10e6, 11)))


@pytest.fixture(scope="module")
def wb10_random():
    return _timed_campaign(
        "wb10_random",
        _campaign_spec(
            GridSpec(5.385e9, 10e6, 11),
            algorithm="random",
            master_seed=RANDOM_MASTER_SEED,
        ),
    )


def _verdict(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number}: {detail}"


# --------------------------------------------------------------------------
# 1. narrowband convergence separation
# --------------------------------------------------------------------------

def test_criterion_1_narrowband_separation(capsys, nb_greedy, nb_random):
    greedy_median = nb_greedy.final_median_db
    random_median = nb_random.final_median_db
    separation = random_median - greedy_median
    random_gain = BASELINE_DB - random_median
    elapsed = TIMINGS["nb_greedy"] + TIMINGS["nb_random"]

    ok = (separation >= 25.0) and (random_gain < 5.0) and (elapsed < 300.0)
    _verdict(
        capsys, 1, ok,
        f"greedy median {greedy_median:.2f} dB vs random {random_median:.2f} dB "
        f"over {RUNS} seeds (separation {separation:.2f} >= 25, random gain "
        f"{random_gain:.2f} < 5 over {BASELINE_DB:g} dB baseline), {elapsed:.0f}s < 300s",
    )


# --------------------------------------------------------------------------
# 2. bandwidth ordering and wideband margin
# --------------------------------------------------------------------------

def test_criterion_2_bandwidth_ordering(
    capsys, nb_greedy, wb5_greedy, wb10_greedy, wb10_random
):
    nb = nb_greedy.final_median_db
    m5 = wb5_greedy.final_median_db
    m10 = wb10_greedy.final_median_db
    r10 = wb10_random.final_median_db
    margin = r10 - m10
    elapsed = (
        TIMINGS["nb_greedy"] + TIMINGS["wb5_greedy"]
        + TIMINGS["wb10_greedy"] + TIMINGS["wb10_random"]
    )

    ok = (nb <= m5 <= m10) and (margin >= 10.0) and (elapsed < 600.0)
    _verdict(
        capsys, 2, ok,
        f"medians ordered {nb:.2f} <= {m5:.2f} <= {m10:.2f} dB "
        f"(narrowband / 5 MHz / 10 MHz); 10 MHz beats random by "
        f"{margin:.2f} dB >= 10; {elapsed:.0f}s < 600s",
    )


# --------------------------------------------------------------------------
# 3. per-point consistency of returned optima
# --------------------------------------------------------------------------

def test_criterion_3_per_point_consistency(capsys, wb5_greedy, wb10_greedy):
    worst_excess = -np.inf
    checked = 0
    for result in (wb5_greedy, wb10_greedy):
        scene = build_scene(result.spec.scene)
        for trace in result.traces:
            per = si_per_point_db(scene, trace.best_config)
            worst_excess = max(
                worst_excess, float(np.max(per) - trace.best_reading.magnitude_db)
            )
            checked += per.size

    ok = worst_excess <= 1e-9
    _verdict(
        capsys, 3, ok,
        f"{checked} per-point readings across {2 * RUNS} wideband optima; "
        f"worst excess over the converged value {worst_excess:.3e} dB <= 1e-9",
    )


# --------------------------------------------------------------------------
# 4. small-surface optimality vs the exhaustive oracle
# --------------------------------------------------------------------------

def test_criterion_4_exhaustive_benchmark(capsys):
    t0 = time.perf_counter()
    base = default_scene_params()
    params0 = replace(
        base,
        geometry=replace(base.geometry, nx=4, ny=4, antenna_distance_m=0.504),
        cell=CellParams(amplitude_on=0.7, amplitude_off=0.95),
    )
    scenes = 50
    matches = 0
    beats = 0
    never_below = True
    for s in range(scenes):
        scene = build_scene(params0, seed=1000 + s)
        backend = SimulatedBackend(scene)
        _, best = exhaustive_search(backend)

        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5000 + s)))
        trace = GreedyOptimizer(backend, 16, 300, rng).run()
        greedy_db = trace.best_reading.magnitude_db

        if greedy_db < best.magnitude_db:
            never_below = False
        if greedy_db == best.magnitude_db:
            matches += 1

        budget = trace.iterations_total
        random_finals = []
        for j in range(5):
            rng_j = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(6000 + 100 * s + j))
            )
            random_finals.append(
                random_search(backend, budget, rng_j).best_reading.magnitude_db
            )
        if greedy_db < float(np.median(random_finals)):
            beats += 1

    elapsed = time.perf_counter() - t0
    ok = (
        never_below
        and matches >= 0.5 * scenes
        and beats >= 0.9 * scenes
        and elapsed < 600.0
    )
    _verdict(
        capsys, 4, ok,
        f"{scenes} random 4x4 scenes: never below the exhaustive optimum "
        f"({never_below}), exact matches {matches}/{scenes} >= 50%, beats the "
        f"equal-budget random median {beats}/{scenes} >= 90%, {elapsed:.0f}s < 600s",
    )


# --------------------------------------------------------------------------
# 5. path-loss reference and budget identities
# --------------------------------------------------------------------------

def test_criterion_5_budget_oracles(capsys):
    import mpmath

    mpmath.mp.dps = 50
    ref = 20 * mpmath.log10(
        4 * mpmath.pi * mpmath.mpf(1) * mpmath.mpf("5.385e9") / mpmath.mpf(299_792_458)
    )
    got = fspl_db(1.0, 5.385e9)
    fspl_err = abs(got - float(ref))

    rng = np.random.default_rng(17)
    worst_identity = 0.0
    for _ in range(1000):
        p_tx = float(rng.uniform(-10.0, 30.0))
        alpha = float(rng.uniform(30.0, 120.0))
        p_ris = float(rng.uniform(0.0, 60.0))
        worst_identity = max(
            worst_identity,
            abs(leaked_power_dbm(p_tx, alpha) - (p_tx - alpha)),
            abs(residual_si_dbm(p_tx, alpha, p_ris) - (p_tx - alpha - p_ris)),
        )

    ok = (fspl_err < 0.01) and (worst_identity <= 1e-12)
    _verdict(
        capsys, 5, ok,
        f"1 m path loss {got:.6f} dB vs 50-digit reference {float(ref):.6f} "
        f"(|err| {fspl_err:.2e} < 0.01 dB); worst budget-identity deviation "
        f"{worst_identity:.2e} <= 1e-12 over 1000 draws",
    )


# --------------------------------------------------------------------------
# 6. optimizer mechanics under randomized fuzzing
# --------------------------------------------------------------------------

def test_criterion_6_mechanics_fuzz(capsys):
    t0 = time.perf_counter()
    from ris_sic.model import RisConfig
    from ris_sic.search import weighted_activation_ratio

    # two-member worked example: best all-ON (weight 2), worst all-OFF
    # (weight 1), normalizer (2**2 + 2)/2 = 3 -> every ratio entry is 2/3
    ratio = weighted_activation_ratio(
        [RisConfig.all_on(3, 3), RisConfig.all_off(3, 3)]
    )
    example_ok = np.allclose(ratio, 2.0 / 3.0, rtol=0, atol=1e-15)

    evaluations = 0
    assertions = 0
    seed = 0
    while evaluations < 10_000:
        outcome = fuzz_optimizer_run(
            seed, buffer_size=6, stall_limit=40, steps=60,
            levels=(3 if seed % 3 == 0 else None),
        )
        assertions += outcome.assertions
        evaluations += outcome.evaluations
        seed += 1

    elapsed = time.perf_counter() - t0
    ok = example_ok and evaluations >= 10_000
    _verdict(
        capsys, 6, ok,
        f"two-member weighting example = 2/3 exactly ({example_ok}); "
        f"{assertions} invariant assertions over {evaluations} fuzzed optimizer "
        f"evaluations in {seed} runs, {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# 7. bit-level reproducibility of serialized results
# --------------------------------------------------------------------------

def _stable_lines(path):
    return [
        ln
        for ln in path.read_text(encoding="utf-8").splitlines()
        if not ln.startswith(tuple(f"# {key}:" for key in VOLATILE_HEADER_KEYS))
    ]


def test_criterion_7_reproducible_outputs(capsys, tmp_path):
    t0 = time.perf_counter()
    scene_params = default_scene_params()

    trace_paths = []
    for name in ("t1.csv", "t2.csv"):
        scene = build_scene(scene_params)
        backend = SimulatedBackend(scene)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(21)))
        trace = GreedyOptimizer(backend, 20, 60, rng).run()
        path = tmp_path / name
        write_trace(trace, path, header={"seed": "21"})
        trace_paths.append(path)
    traces_equal = _stable_lines(trace_paths[0]) == _stable_lines(trace_paths[1])

    campaign_paths = []
    spec = CampaignSpec(
        scene=scene_params, algorithm="greedy", runs=3, master_seed=4,
        horizon=400, buffer_size=20, stall_limit=60,
    )
    for name in ("c1.csv", "c2.csv"):
        path = tmp_path / name
        write_campaign(run_campaign(spec), path)
        campaign_paths.append(path)
    campaigns_equal = _stable_lines(campaign_paths[0]) == _stable_lines(campaign_paths[1])

    elapsed = time.perf_counter() - t0
    ok = traces_equal and campaigns_equal
    _verdict(
        capsys, 7, ok,
        f"repeated runs byte-identical outside the timestamp line: "
        f"traces {traces_equal}, campaign summaries {campaigns_equal}, {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# 8. unit-cell contract at and around the carrier
# --------------------------------------------------------------------------

def test_criterion_8_cell_contract(capsys):
    params = default_scene_params()
    cell = UnitCellModel.with_phase_target(
        center_hz=params.grid.center_hz,
        phase_target_deg=params.cell.phase_target_deg,
        quality_factor=params.cell.quality_factor,
        amplitude_on=params.cell.amplitude_on,
        amplitude_off=params.cell.amplitude_off,
    )
    achieved = cell.phase_difference_deg(params.grid.center_hz)
    phase_err = abs(achieved - params.cell.phase_target_deg)

    freqs = np.linspace(
        params.grid.center_hz - 200e6, params.grid.center_hz + 200e6, 4001
    )
    max_mag = max(
        float(np.max(np.abs(cell.reflection(True, freqs)))),
        float(np.max(np.abs(cell.reflection(False, freqs)))),
    )

    ok = (phase_err <= 1.0) and (max_mag <= 1.0)
    _verdict(
        capsys, 8, ok,
        f"ON/OFF phase difference {achieved:.3f} deg (|err| {phase_err:.3f} <= 1 deg "
        f"at the carrier); max |reflection| {max_mag:.4f} <= 1 across +/-200 MHz",
    )
