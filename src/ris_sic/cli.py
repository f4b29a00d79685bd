"""Command-line front end.

Subcommands mirror the library workflows: single optimizer runs, the random
and exhaustive baselines, seeded multi-run campaigns, bandwidth sweeps,
transfer-function snapshots, and scene-file validation.  Exit codes: 0 on
success, 1 for usage errors, 2 for domain errors (bad scene files, infeasible
parameters, unreadable inputs).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, experiment, sceneio, search
from .backend import SimulatedBackend
from .channel import GridSpec, SceneParams, build_scene, default_scene_params
from .model import WIDEBAND_POINTS


class _Parser(argparse.ArgumentParser):
    """argparse with usage-error exit code 1 (2 is reserved for domain errors)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_params(args) -> SceneParams:
    if getattr(args, "scene", None):
        return sceneio.parse_scene(args.scene)
    return default_scene_params()


def _apply_grid_flags(params: SceneParams, args) -> SceneParams:
    """The scene with ``--bandwidth``/``--points`` applied; :class:`GridSpec` checks them."""
    grid = params.grid
    bw = grid.bandwidth_hz if args.bandwidth is None else args.bandwidth
    if args.points is not None:
        k = args.points
    else:
        k = 1 if bw == 0.0 else grid.points if grid.points > 1 else WIDEBAND_POINTS
    return replace(params, grid=GridSpec(grid.center_hz, bw, k))


def _scene_header(params: SceneParams, seed: Optional[int] = None) -> dict[str, str]:
    meta = {"created_utc": sceneio.now_utc()}
    if seed is not None:
        meta["seed"] = str(seed)
    meta.update(sceneio.flatten_scene_params(params, "scene."))
    return meta


def _best_path(out: Path, tag: str = "") -> Path:
    return out.with_name(out.stem + tag + ".best.txt")


# run flag -> the CampaignSpec field it sets and takes its default from, metavar, help
_CAMPAIGN_FIELDS = {
    "buffer": ("buffer_size", "B", "buffer size"),
    "stall": ("stall_limit", "T", "terminate after T evaluations without improvement"),
    "runs": ("runs", "R", "independent runs"),
    "seed": ("master_seed", "S", "seed; campaign run r uses child stream r"),
    "horizon": ("horizon", "N", "evaluation budget"),
}


def _campaign_fields(args) -> dict:
    return {name: getattr(args, flag) for flag, (name, *_) in _CAMPAIGN_FIELDS.items()}


def _report_best(params: SceneParams, final_db: float) -> str:
    p_tx = params.calibration.p_tx_dbm
    return f"{final_db:.2f} dB ({p_tx + final_db:.2f} dBm at P_tx = {p_tx:g} dBm)"


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

def _cmd_search(args) -> int:
    """``optimize`` (greedy) or ``random``: one seeded run, its trace and best grid."""
    params = _apply_grid_flags(_load_params(args), args)
    scene = build_scene(params)
    backend = SimulatedBackend(scene, noise_floor_db=args.noise_floor)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(args.seed)))
    if args.command == "optimize":
        trace = search.greedy_optimize(backend, args.buffer, args.stall, rng)
    else:
        trace = search.random_search(backend, args.horizon, rng)
    out = Path(args.out)
    sceneio.write_trace(trace, out, header=_scene_header(params, args.seed))
    best = _best_path(out)
    sceneio.write_config_grid(
        trace.best_config,
        best,
        header={"si_db": sceneio.fmt_float(trace.best_reading.magnitude_db)},
    )
    print(f"{trace.algorithm}: {trace.iterations_total} evaluations, best {_report_best(params, trace.best_reading.magnitude_db)}")
    print(f"trace written to {out}, best configuration to {best}")
    return 0


def _cmd_oracle(args) -> int:
    params = _apply_grid_flags(_load_params(args), args)
    scene = build_scene(params)
    backend = SimulatedBackend(scene)
    best_config, best_reading = search.exhaustive_search(backend)
    out = Path(args.out)
    header = {"si_db": sceneio.fmt_float(best_reading.magnitude_db)}
    header.update(_scene_header(params))
    sceneio.write_config_grid(best_config, out, header=header)
    print(f"oracle: enumerated {2**scene.n_elements} states, "
          f"optimum {_report_best(params, best_reading.magnitude_db)}")
    print(f"best configuration written to {out}")
    return 0


def _cmd_campaign(args) -> int:
    params = _apply_grid_flags(_load_params(args), args)
    spec = experiment.CampaignSpec(params, args.algorithm, **_campaign_fields(args))
    result = experiment.run_campaign(spec)
    sceneio.write_campaign(result, args.out)
    print(
        f"campaign ({spec.algorithm}, {spec.runs} runs): median final "
        f"{_report_best(params, result.final_median_db)}, "
        f"best {result.final_best_db:.2f} dB, worst {result.final_worst_db:.2f} dB"
    )
    print(f"results written to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    params = _load_params(args)
    bandwidths = args.bandwidth if args.bandwidth else [0.0, 5e6, 10e6]
    out, best_files = Path(args.out), {}  # best-configuration file -> its bandwidth
    for bw in bandwidths:
        best = _best_path(out, f".{bw / 1e6:.12g}mhz")
        if best in best_files and best_files[best] != bw:
            raise ValueError(f"bandwidths {best_files[best]!r} and {bw!r} Hz would both "
                             f"write their best configuration to {best}")
        best_files[best] = bw
    results = experiment.bandwidth_sweep(params, bandwidths, points=args.points,
                                         **_campaign_fields(args))
    header = _scene_header(params, args.seed)
    header["runs"] = str(args.runs)
    sceneio.write_sweep(results, out, header=header)
    for best, result in zip(best_files, results):  # the sweep refuses repeated bandwidths
        bw = result.spec.scene.grid.bandwidth_hz
        label = "narrowband" if bw == 0.0 else f"{bw / 1e6:g} MHz"
        meta = {"bandwidth_hz": sceneio.fmt_float(bw),
                "si_db": sceneio.fmt_float(result.final_best_db)}
        sceneio.write_config_grid(result.best_config, best, header=meta)
        print(f"{label}: median final {result.final_median_db:.2f} dB over {result.spec.runs} "
              f"runs, best configuration to {best}")
    print(f"sweep table written to {out}")
    return 0


def _cmd_snapshot(args) -> int:
    params = _load_params(args)
    scene = build_scene(params)
    config = sceneio.read_config_grid(args.config)
    freqs, si_db = experiment.transfer_snapshot(scene, config, args.span, args.points)
    header = _scene_header(params)
    header["config_file"] = str(args.config)
    rows = sceneio.config_rows(config)
    header.update({f"config_row_{x:02d}": row for x, row in enumerate(rows)})
    sceneio.write_snapshot(freqs, si_db, args.out, header=header)
    print(
        f"snapshot: {args.points} points over {args.span / 1e6:g} MHz, "
        f"SI {si_db.min():.2f} .. {si_db.max():.2f} dB"
    )
    print(f"written to {args.out}")
    return 0


def _cmd_validate(args) -> int:
    params = sceneio.parse_scene(args.scene)
    build_scene(params)  # exercises the cell solve and calibration too
    grid = params.grid
    kind = "narrowband" if grid.bandwidth_hz == 0.0 else (
        f"{grid.bandwidth_hz / 1e6:g} MHz / {grid.points} points"
    )
    print(
        f"{args.scene}: OK ({params.geometry.nx}x{params.geometry.ny} surface, "
        f"{grid.center_hz / 1e9:g} GHz, {kind})"
    )
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def _add_scene_flag(p: _Parser):
    p.add_argument("--scene", metavar="PATH", help="scene file (defaults to the built-in setup)")


def _add_grid_flags(p: _Parser):
    p.add_argument("--bandwidth", type=float, metavar="HZ",
                   help="objective bandwidth override; 0 = narrowband")
    p.add_argument("--points", type=int, metavar="K",
                   help="frequency points across the bandwidth")


def _add_run_flags(p: _Parser, *flags: str):
    """Flags of :data:`_CAMPAIGN_FIELDS`, each defaulting to its CampaignSpec field."""
    for flag in flags:
        name, metavar, text = _CAMPAIGN_FIELDS[flag]
        p.add_argument(f"--{flag}", type=int, default=getattr(experiment.CampaignSpec, name),
                       metavar=metavar, help=f"{text} (default %(default)s)")


def build_parser() -> _Parser:
    parser = _Parser(prog="ris-sic", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    for command, text, flags, out in (
            ("optimize", "single buffer-weighted search run", ("buffer", "stall", "seed"),
             "greedy_trace.csv"),
            ("random", "uniform random search baseline", ("seed", "horizon"),
             "random_trace.csv")):
        p = sub.add_parser(command, help=text)
        _add_scene_flag(p)
        _add_grid_flags(p)
        _add_run_flags(p, *flags)
        p.add_argument("--noise-floor", type=float, default=None, metavar="DB",
                       help="clamp per-point readings from below")
        p.add_argument("--out", default=out)
        p.set_defaults(func=_cmd_search)

    p = sub.add_parser("oracle", help="exhaustive optimum for small surfaces")
    _add_scene_flag(p)
    _add_grid_flags(p)
    p.add_argument("--out", default="oracle_best.txt")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("campaign", help="multi-run averaged convergence study")
    _add_scene_flag(p)
    _add_grid_flags(p)
    _add_run_flags(p, *_CAMPAIGN_FIELDS)
    p.add_argument("--algorithm", choices=experiment.ALGORITHMS,
                   default=experiment.CampaignSpec.algorithm)
    p.add_argument("--out", default="campaign.csv")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("sweep", help="greedy campaigns across objective bandwidths, "
                       "with each point's best configuration")
    _add_scene_flag(p)
    _add_run_flags(p, *_CAMPAIGN_FIELDS)
    p.add_argument("--bandwidth", type=float, action="append", metavar="HZ",
                   help="repeatable; default 0, 5e6, 10e6")
    p.add_argument("--points", type=int, default=WIDEBAND_POINTS, metavar="K",
                   help="frequency points at each non-zero bandwidth (default %(default)s)")
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("snapshot", help="transfer function of a configuration vs frequency")
    _add_scene_flag(p)
    p.add_argument("--config", required=True, metavar="PATH",
                   help="configuration grid file (rows of 0/1)")
    p.add_argument("--span", type=float, default=20e6, metavar="HZ")
    p.add_argument("--points", type=int, default=201, metavar="K")
    p.add_argument("--out", default="snapshot.csv")
    p.set_defaults(func=_cmd_snapshot)

    p = sub.add_parser("validate", help="check a scene file against the schema")
    p.add_argument("--scene", metavar="PATH", required=True)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"ris-sic: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
