"""Run the benchmark over seeds 1 to N and report each metric's spread.

    python3 perfbench/spread.py --seeds 10 --trace 0 greedy-nb greedy-wb10 oracle-4x4

Runs are made one after another, each as its own process, with the run length
from ``BENCHMARK.json``.  For every metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (quartile distance over the
median) and, for end-to-end metrics, the bound.  These are the figures quoted
in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(1, args.seeds + 1):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct is false", file=sys.stderr)
            shares.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            ), flush=True)
        failed = sorted({f / a for f, a in shares})
        print(f"== {workload}: {args.seeds} runs, failed share {failed}")
        for name, vals in values.items():
            if len(vals) < 2:
                print(f"   {name:34s} {vals[0]:.6g}")
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = f" bound {bounds[name]}" if name in bounds else ""
            print(f"   {name:34s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f}{bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
