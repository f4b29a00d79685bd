"""Layered benchmark for ris-sic.

    python3 perfbench/run.py --workload greedy-nb --seed 1 --seconds 25 --trace 0

Runs whole rounds of one workload (see ``workloads.py``) until ``--seconds``
have passed, checks every round's outputs and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced.
With ``--trace 1`` untraced and traced rounds alternate; the metrics are the
per-layer ones from the traced rounds plus ``trace.overhead_s``.

The workload inputs are fixed seeded studies, so every round of every run
computes the same results; ``--seed`` orders a round's independent operations
(scene order, file read-back order).  The library is imported from ``src/`` of
the checkout this file sits in, and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import ris_sic  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3
OUT_DIR = HERE / ".out"


def probe_setup(workload: str) -> float:
    """Seconds from launching a fresh process to its workload being ready."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        stdout=subprocess.PIPE,
        cwd=ROOT,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return elapsed


def run_round(wl, rng, trace: bool):
    """One timed round: (wall seconds, Outcome, per-layer metrics or None)."""
    outdir = Path(tempfile.mkdtemp(dir=OUT_DIR))
    layers = None
    try:
        if trace:
            with tracer.Tracer() as tr:
                wl.set_up()  # traced again for channel.build_scene
                t0 = time.perf_counter()
                raw = wl.run(outdir, rng)
                wall = time.perf_counter() - t0
            layers = layer_metrics(tr, wl.search_counts(raw))
        else:
            t0 = time.perf_counter()
            raw = wl.run(outdir, rng)
            wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return wall, wl.check(raw), layers


def _median(values, scale=1.0) -> float:
    return float(np.median(values)) * scale if len(values) else 0.0


def layer_metrics(tr: tracer.Tracer, counts) -> dict:
    """Per-layer metrics of one traced round: {name: (value, unit)}."""
    spans, c = tr.spans(), tr.counters
    kernel = spans.durations("channel.kernel")
    configs = c["channel.kernel_configs"]
    evaluate = spans.durations("backend.evaluate")
    write_s = float(spans.durations("sceneio.write").sum())
    read_s = float(spans.durations("sceneio.read").sum())

    def median_us(name):
        return (_median(spans.durations(name), 1e6), "us")

    def median_s(name):
        return (_median(spans.durations(name)), "s")

    return {
        "cell.reflection_calls": (spans.durations("cell.reflection").size, "count"),
        "cell.reflection_us": median_us("cell.reflection"),
        "channel.kernel_calls": (kernel.size, "count"),
        "channel.kernel_configs": (configs, "count"),
        "channel.kernel_us_per_config": (float(kernel.sum()) / configs * 1e6 if configs else 0.0, "us"),
        "channel.kernel_self_s": (
            float(spans.self_durations("channel.kernel", ("cell.reflection",)).sum()), "s"
        ),
        "channel.kernel_bytes_per_config": (
            c["channel.kernel_bytes"] / configs if configs else 0.0, "B_computed"
        ),
        "channel.build_scene_s": median_s("channel.build_scene"),
        "backend.evaluate_calls": (evaluate.size, "count"),
        "backend.evaluate_us_p50": (_median(evaluate, 1e6), "us"),
        "backend.evaluate_us_p99": (
            float(np.percentile(evaluate, 99)) * 1e6 if evaluate.size else 0.0, "us"
        ),
        "backend.self_us": (
            _median(spans.self_durations("backend.evaluate", ("channel.kernel",)), 1e6), "us"
        ),
        "model.reading_us": median_us("model.reading"),
        "model.config_count": (c["model.config_count"], "count"),
        "search.evaluations": (counts.evaluations, "count"),
        "search.improvements": (counts.improvements, "count"),
        "search.buffer_replacements": (counts.buffer_replacements, "count"),
        "search.replacement_ratio": (
            counts.buffer_replacements / counts.steps if counts.steps else 0.0, "ratio"
        ),
        "search.step_us": median_us("search.step"),
        "search.step_self_us": (
            _median(spans.self_durations("search.step", ("backend.evaluate", "search.sample")), 1e6),
            "us",
        ),
        "search.sample_us": median_us("search.sample"),
        "search.greedy_run_s": median_s("search.greedy_run"),
        "search.exhaustive_s": median_s("search.exhaustive"),
        "search.random_s": median_s("search.random"),
        "experiment.campaign_s": median_s("experiment.campaign"),
        "experiment.self_s": (
            _median(spans.self_durations("experiment.campaign", ("search.greedy_run",))), "s"
        ),
        "experiment.snapshot_s": median_s("experiment.snapshot"),
        "sceneio.write_s": (write_s, "s"),
        "sceneio.read_s": (read_s, "s"),
        "sceneio.bytes": (c["sceneio.bytes_written"], "B"),
        "sceneio.write_mb_per_s": (
            c["sceneio.bytes_written"] / write_s / 1e6 if write_s else 0.0, "MB/s"
        ),
        "sceneio.read_mb_per_s": (c["sceneio.bytes_read"] / read_s / 1e6 if read_s else 0.0, "MB/s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(ris_sic.__file__).resolve().parents:
        print(f"ris_sic imported from {ris_sic.__file__}, not from {src}", file=sys.stderr)
        return 2

    originals = tracer.originals()
    setup_s = statistics.median(probe_setup(args.workload) for _ in range(SETUP_PROBES))
    wl = WORKLOADS[args.workload]()
    wl.set_up()
    rng = np.random.default_rng(args.seed)
    OUT_DIR.mkdir(exist_ok=True)

    plain, traced = [], []  # (wall, outcome, layers) per round
    t_start = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - t_start
            if plain and (traced or not args.trace) and elapsed >= args.seconds:
                break
            use_trace = bool(args.trace) and len(traced) < len(plain)
            (traced if use_trace else plain).append(run_round(wl, rng, use_trace))
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)

    rounds = plain + traced
    outcomes = [o for _, o, _ in rounds]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for o in outcomes:
        for what in o.failures:
            print(f"FAILED: {what}", file=sys.stderr)
    first = outcomes[0]
    # Every round runs the same seeded study, so its results must repeat.
    correct = all(
        (o.fingerprint, o.evaluations, o.cancellation_db)
        == (first.fingerprint, first.evaluations, first.cancellation_db)
        for o in outcomes
    ) and tracer.originals() == originals

    walls = [w for w, _, _ in plain]
    wall_s = statistics.median(walls)
    if args.trace:
        layers = {}
        for name, (_, unit) in traced[0][2].items():
            layers[name] = (_median([lm[name][0] for _, _, lm in traced]), unit)
        overhead = statistics.median(w for w, _, _ in traced) - wall_s
        layers["trace.overhead_s"] = (overhead, "s")
        consistent = layers["search.evaluations"][0] == layers["backend.evaluate_calls"][0]
        if not consistent:
            print("search.evaluations differs from backend.evaluate_calls", file=sys.stderr)
        correct = correct and consistent
        metrics = layers
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "evals_per_s": (first.evaluations / wall_s, "1/s"),
            "cancellation_db": (first.cancellation_db, "dB"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    print(
        f"{args.workload}: {len(plain)} untraced + {len(traced)} traced rounds, "
        f"round walls {[round(w, 3) for w in walls]} s, {failed}/{attempted} operations failed"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
