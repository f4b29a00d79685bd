"""End-to-end CLI behavior: subcommands, created files, exit codes."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import NON_FINITE_SCENE_EDITS, edited_scene_text
from ris_sic import sceneio
from ris_sic.channel import Geometry, GridSpec, default_scene_params
from ris_sic.cli import build_parser, main
from ris_sic.experiment import CampaignSpec

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def small_scene_file(tmp_path_factory):
    """4x4 narrowband scene: every command finishes in well under a second."""
    p = default_scene_params()
    p = replace(p, geometry=replace(p.geometry, nx=4, ny=4))
    path = tmp_path_factory.mktemp("scenes") / "small.ini"
    sceneio.write_scene(p, path)
    return path


def run_cli(*args, cwd=None):
    """Invoke main() in-process; returns (exit_code)."""
    return main([str(a) for a in args])


class TestValidate:
    def test_shipped_default_scene(self, capsys):
        rc = run_cli("validate", "--scene", REPO_ROOT / "scenes" / "default.ini")
        assert rc == 0
        out = capsys.readouterr().out
        assert "OK" in out and "16x16" in out and "5.385 GHz" in out

    def test_small_scene(self, small_scene_file, capsys):
        assert run_cli("validate", "--scene", small_scene_file) == 0
        assert "4x4" in capsys.readouterr().out

    @pytest.mark.parametrize("amplitudes", [(0.0, 0.92), (0.85, 0.0)])
    def test_zero_amplitude_cell(self, tmp_path, amplitudes, capsys):
        p = default_scene_params()
        p = replace(p, geometry=replace(p.geometry, nx=4, ny=4),
                    cell=replace(p.cell, amplitude_on=amplitudes[0], amplitude_off=amplitudes[1]))
        path = tmp_path / "zero.ini"
        sceneio.write_scene(p, path)
        assert run_cli("validate", "--scene", path) == 0
        assert "OK" in capsys.readouterr().out

    def test_leading_byte_order_mark_is_ignored(self, tmp_path, capsys):
        bom = tmp_path / "bom.ini"
        bom.write_bytes(b"\xef\xbb\xbf" + (REPO_ROOT / "scenes" / "default.ini").read_bytes())
        assert sceneio.parse_scene(bom) == default_scene_params()
        assert run_cli("validate", "--scene", bom) == 0
        assert "OK" in capsys.readouterr().out

    def test_missing_file_is_domain_error(self, capsys):
        rc = run_cli("validate", "--scene", "no_such_file.ini")
        assert rc == 2
        assert "ris-sic: error:" in capsys.readouterr().err

    def test_malformed_scene_is_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[geometry]\nnx = trouble\n")
        rc = run_cli("validate", "--scene", bad)
        assert rc == 2
        err = capsys.readouterr().err
        assert "ris-sic: error:" in err

    @pytest.mark.parametrize("key, value", NON_FINITE_SCENE_EDITS)
    def test_non_finite_value_is_domain_error(self, key, value, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(edited_scene_text(key, value))
        assert run_cli("validate", "--scene", bad) == 2
        err = capsys.readouterr().err
        assert err.startswith("ris-sic: error:") and key in err

    @pytest.mark.parametrize("key, value", [
        ("relative_power_db", "1000000.0"), ("alpha_iso_db", "-1000000.0"),
        ("alpha_iso_db", "1000000.0"), ("tx_gain_dbi", "1000000.0"),
    ])
    def test_value_past_the_float_range_is_domain_error(self, key, value, tmp_path, capsys):
        # finite values whose linear amplitude overflows or underflows: refused, not
        # passed on as a traceback or as NaN or inf channels that no search can score
        bad = tmp_path / "bad.ini"
        bad.write_text(edited_scene_text(key, value))
        assert run_cli("validate", "--scene", bad) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("ris-sic: error:") and "OK" not in captured.out

    @pytest.mark.parametrize("gain_dbi, rc", [(6200.0, 2), (3000.0, 0)])
    def test_scene_that_validates_can_be_scored(self, gain_dbi, rc, tmp_path, capsys):
        # 6200 dBi leaves h and g finite, but h * gamma * g overflows in the kernel
        p = default_scene_params()
        p = replace(p, geometry=replace(p.geometry, nx=4, ny=4, tx_gain_dbi=gain_dbi,
                                        rx_gain_dbi=gain_dbi))
        scene = tmp_path / "gain.ini"
        sceneio.write_scene(p, scene)
        assert run_cli("validate", "--scene", scene) == rc
        out = tmp_path / "t.csv"
        assert run_cli("optimize", "--scene", scene, "--buffer", 4, "--stall", 20,
                       "--out", out) == rc
        if rc:
            assert "overflows" in capsys.readouterr().err and not out.exists()
        else:
            assert np.isfinite(sceneio.read_trace(out).evaluated_db).all()

    def test_scene_flag_required(self, capsys):
        assert run_cli("validate") == 1


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert run_cli("optimize", "--bogus") == 1

    def test_unknown_command(self, capsys):
        assert run_cli("transmogrify") == 1

    def test_no_command(self, capsys):
        assert run_cli() == 1

    def test_version(self, capsys):
        rc = run_cli("--version")
        assert rc == 0
        assert "ris-sic" in capsys.readouterr().out

    @pytest.mark.parametrize("command, flags", [
        ("optimize", {"buffer", "stall", "seed"}),
        ("random", {"seed", "horizon"}),
        ("campaign", {"buffer", "stall", "runs", "seed", "horizon", "algorithm"}),
        ("sweep", {"buffer", "stall", "runs", "seed", "horizon"}),
    ])
    def test_run_flag_defaults_are_the_campaign_spec_defaults(self, command, flags):
        spec = CampaignSpec(default_scene_params())
        expected = {"buffer": spec.buffer_size, "stall": spec.stall_limit, "runs": spec.runs,
                    "seed": spec.master_seed, "horizon": spec.horizon,
                    "algorithm": spec.algorithm}
        args = vars(build_parser().parse_args([command]))
        assert {flag: args[flag] for flag in flags} == {flag: expected[flag] for flag in flags}
        assert not (expected.keys() - flags) & args.keys()


class TestOptimize:
    def test_writes_trace_and_best(self, small_scene_file, tmp_path, capsys):
        out = tmp_path / "g.csv"
        rc = run_cli(
            "optimize", "--scene", small_scene_file, "--seed", 3,
            "--buffer", 12, "--stall", 40, "--out", out,
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "greedy:" in stdout and "dBm" in stdout

        loaded = sceneio.read_trace(out)
        assert loaded.header["seed"] == "3"
        assert loaded.header["buffer_size"] == "12"
        assert loaded.header["scene.geometry.nx"] == "4"
        assert float(loaded.header["final_db"]) == loaded.cumulative_db[-1]

        best = tmp_path / "g.best.txt"
        config = sceneio.read_config_grid(best)
        assert (config.nx, config.ny) == (4, 4)

    def test_deterministic_rerun_identical_except_timestamp(
        self, small_scene_file, tmp_path
    ):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run_cli(
                "optimize", "--scene", small_scene_file, "--seed", 9,
                "--buffer", 10, "--stall", 30, "--out", out,
            ) == 0
            outs.append(out)

        def stripped(path):
            return [
                ln for ln in path.read_text().splitlines()
                if not ln.startswith(tuple(f"# {key}:" for key in sceneio.VOLATILE_HEADER_KEYS))
            ]

        assert stripped(outs[0]) == stripped(outs[1])
        assert (tmp_path / "a.best.txt").read_text() == (tmp_path / "b.best.txt").read_text()

    def test_seed_changes_trace(self, small_scene_file, tmp_path):
        t = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}.csv"
            run_cli("optimize", "--scene", small_scene_file, "--seed", seed,
                    "--buffer", 10, "--stall", 30, "--out", out)
            t.append(sceneio.read_trace(out).evaluated_db)
        assert not np.array_equal(t[0], t[1])

    def test_bandwidth_flag_switches_objective(self, small_scene_file, tmp_path):
        out = tmp_path / "wb.csv"
        rc = run_cli(
            "optimize", "--scene", small_scene_file, "--bandwidth", 10e6,
            "--points", 5, "--seed", 1, "--buffer", 10, "--stall", 25, "--out", out,
        )
        assert rc == 0
        header = sceneio.read_trace(out).header
        assert header["scene.grid.bandwidth_hz"] == sceneio.fmt_float(10e6)
        assert header["scene.grid.points"] == "5"

    def test_zero_bandwidth_makes_a_wideband_scene_narrowband(self, tmp_path):
        p = default_scene_params()
        p = replace(p, geometry=replace(p.geometry, nx=4, ny=4),
                    grid=GridSpec(p.grid.center_hz, 10e6, 11))
        scene, out = tmp_path / "wb.ini", tmp_path / "nb.csv"
        sceneio.write_scene(p, scene)
        assert run_cli("optimize", "--scene", scene, "--bandwidth", 0, "--seed", 1,
                       "--buffer", 10, "--stall", 25, "--out", out) == 0
        header = sceneio.read_trace(out).header
        assert header["scene.grid.bandwidth_hz"] == sceneio.fmt_float(0.0)
        assert header["scene.grid.points"] == "1"

    def test_readme_command_runs_the_built_in_scene(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # ris-sic optimize --seed 0 --out greedy_trace.csv
        assert run_cli("optimize", "--seed", 0, "--out", "greedy_trace.csv") == 0
        header = sceneio.read_trace(tmp_path / "greedy_trace.csv").header
        scene = sceneio.flatten_scene_params(default_scene_params(), "scene.")
        assert {key: header[key] for key in scene} == scene
        assert header["buffer_size"] == "100" and header["stall_limit"] == "500"
        assert (tmp_path / "greedy_trace.best.txt").exists()

    def test_nan_bandwidth_is_domain_error(self, small_scene_file, tmp_path, capsys):
        out = tmp_path / "t.csv"
        rc = run_cli("optimize", "--scene", small_scene_file, "--bandwidth", "nan", "--out", out)
        assert rc == 2
        assert "bandwidth_hz must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_points_without_bandwidth_is_domain_error(self, small_scene_file, tmp_path, capsys):
        out = tmp_path / "t.csv"
        rc = run_cli("optimize", "--scene", small_scene_file, "--points", 11, "--out", out)
        assert rc == 2
        assert "narrowband grid (bandwidth 0) must have exactly 1 point" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_noise_floor_is_domain_error(self, small_scene_file, tmp_path, capsys):
        out = tmp_path / "t.csv"
        rc = run_cli("optimize", "--scene", small_scene_file, "--noise-floor", "inf",
                     "--out", out)
        assert rc == 2
        assert "noise_floor_db must be finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_minus_infinite_noise_floor_clamps_nothing(self, small_scene_file, tmp_path):
        # argparse reads a bare "-inf" as a flag, so the README writes it with "="
        floor, raw = tmp_path / "floor.csv", tmp_path / "raw.csv"
        assert run_cli("optimize", "--scene", small_scene_file, "--noise-floor=-inf",
                       "--out", floor) == 0
        assert run_cli("optimize", "--scene", small_scene_file, "--out", raw) == 0
        np.testing.assert_array_equal(sceneio.read_trace(floor).evaluated_db,
                                      sceneio.read_trace(raw).evaluated_db)


class TestRandom:
    def test_runs_fixed_budget(self, small_scene_file, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = run_cli(
            "random", "--scene", small_scene_file, "--seed", 3,
            "--horizon", 80, "--out", out,
        )
        assert rc == 0
        loaded = sceneio.read_trace(out)
        assert loaded.evaluated_db.size == 80
        assert loaded.header["algorithm"] == "random"
        assert (tmp_path / "r.best.txt").exists()

    def test_nan_noise_floor_is_domain_error(self, small_scene_file, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = run_cli("random", "--scene", small_scene_file, "--noise-floor", "nan",
                     "--horizon", 10, "--out", out)
        assert rc == 2
        assert "noise_floor_db must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()


class TestOracle:
    def test_small_surface(self, small_scene_file, tmp_path, capsys):
        out = tmp_path / "o.txt"
        rc = run_cli("oracle", "--scene", small_scene_file, "--out", out)
        assert rc == 0
        assert "65536 states" in capsys.readouterr().out
        config = sceneio.read_config_grid(out)
        assert (config.nx, config.ny) == (4, 4)

    def test_oversized_surface_is_domain_error(self, tmp_path, capsys):
        p = replace(default_scene_params(),
                    geometry=replace(default_scene_params().geometry, nx=5, ny=5))
        scene_file = tmp_path / "big.ini"
        sceneio.write_scene(p, scene_file)
        rc = run_cli("oracle", "--scene", scene_file, "--out", tmp_path / "o.txt")
        assert rc == 2
        assert "exhaustive" in capsys.readouterr().err


class TestCampaign:
    def test_writes_summary(self, small_scene_file, tmp_path, capsys):
        out = tmp_path / "c.csv"
        rc = run_cli(
            "campaign", "--scene", small_scene_file, "--algorithm", "greedy",
            "--runs", 3, "--seed", 1, "--horizon", 150,
            "--buffer", 10, "--stall", 30, "--out", out,
        )
        assert rc == 0
        assert "median final" in capsys.readouterr().out
        loaded = sceneio.read_campaign(out)
        assert loaded.spec.runs == 3
        assert loaded.mean_curve_db.size == 150

    def test_random_algorithm(self, small_scene_file, tmp_path):
        out = tmp_path / "cr.csv"
        rc = run_cli(
            "campaign", "--scene", small_scene_file, "--algorithm", "random",
            "--runs", 2, "--seed", 1, "--horizon", 60, "--out", out,
        )
        assert rc == 0
        assert sceneio.read_campaign(out).spec.algorithm == "random"


class TestSweep:
    def test_two_bandwidths(self, small_scene_file, tmp_path, capsys):
        out = tmp_path / "sw.csv"
        rc = run_cli(
            "sweep", "--scene", small_scene_file,
            "--bandwidth", 0, "--bandwidth", 5e6, "--points", 5,
            "--runs", 2, "--buffer", 10, "--stall", 25, "--seed", 2,
            "--horizon", 150, "--out", out,
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "narrowband:" in stdout and "5 MHz:" in stdout
        text = out.read_text()
        rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        assert len(rows) == 2

    def test_writes_each_points_best_configuration(self, small_scene_file, tmp_path, capsys):
        out = tmp_path / "sw.csv"
        rc = run_cli(
            "sweep", "--scene", small_scene_file,
            "--bandwidth", 0, "--bandwidth", 2.5e6, "--points", 5,
            "--runs", 2, "--buffer", 10, "--stall", 25, "--seed", 2,
            "--horizon", 150, "--out", out,
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        rows = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")]
        for (bandwidth, _, _, _, _, best_db, _), tag in zip(rows, ("0mhz", "2.5mhz")):
            best = tmp_path / f"sw.{tag}.best.txt"
            assert f"best configuration to {best}\n" in stdout
            text = best.read_text()
            assert f"# bandwidth_hz: {bandwidth}\n" in text
            assert f"# si_db: {best_db}\n" in text
            snap = tmp_path / f"snap.{tag}.csv"
            assert run_cli("snapshot", "--scene", small_scene_file, "--config", best,
                           "--points", 21, "--out", snap) == 0
            _, freqs, si = sceneio.read_snapshot(snap)
            assert freqs.size == 21 and np.all(np.isfinite(si))


    def test_bandwidths_sharing_a_best_file_name_refused(self, small_scene_file, tmp_path,
                                                         capsys):
        # both tags read 1mhz to 12 digits, so their campaigns would share one best file
        out = tmp_path / "sw.csv"
        rc = run_cli(
            "sweep", "--scene", small_scene_file,
            "--bandwidth", 1e6, "--bandwidth", 1.0000000000001e6, "--points", 5,
            "--runs", 2, "--buffer", 10, "--stall", 25, "--horizon", 150, "--out", out,
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # refused before any campaign ran
        assert "bandwidths 1000000.0 and 1000000.0000001 Hz" in captured.err
        assert str(tmp_path / "sw.1mhz.best.txt") in captured.err
        assert list(tmp_path.iterdir()) == []


class TestSnapshot:
    def test_from_best_config(self, small_scene_file, tmp_path, capsys):
        best = tmp_path / "g.best.txt"
        run_cli("optimize", "--scene", small_scene_file, "--seed", 3,
                "--buffer", 10, "--stall", 30, "--out", tmp_path / "g.csv")
        out = tmp_path / "snap.csv"
        rc = run_cli(
            "snapshot", "--scene", small_scene_file, "--config", best,
            "--span", 2e7, "--points", 41, "--out", out,
        )
        assert rc == 0
        header, freqs, si = sceneio.read_snapshot(out)
        assert freqs.size == 41
        assert header["config_row_00"] in {"0000", "0001", "0010", "0011", "0100",
                                           "0101", "0110", "0111", "1000", "1001",
                                           "1010", "1011", "1100", "1101", "1110",
                                           "1111"}
        assert np.all(np.isfinite(si))

    @pytest.mark.parametrize("span", [12e9, "nan"])
    def test_span_reaching_zero_hz_is_domain_error(self, small_scene_file, tmp_path,
                                                   capsys, span):
        config_file = tmp_path / "c.txt"
        config_file.write_text("# ris-sic config v1\n0101\n1010\n0011\n1100\n")
        out = tmp_path / "s.csv"
        rc = run_cli("snapshot", "--scene", small_scene_file, "--config", config_file,
                     "--span", span, "--points", 5, "--out", out)
        assert rc == 2
        expected = "bandwidth_hz must be finite" if span == "nan" else "positive-frequency span"
        assert expected in capsys.readouterr().err
        assert not out.exists()

    def test_config_path_that_cannot_be_recorded_is_domain_error(
            self, small_scene_file, tmp_path, capsys):
        # the header reader strips edge whitespace, so "c.txt " would read back as "c.txt"
        config_file = tmp_path / "c.txt "
        config_file.write_text("# ris-sic config v1\n0101\n1010\n0011\n1100\n")
        out = tmp_path / "s.csv"
        rc = run_cli("snapshot", "--scene", small_scene_file, "--config", config_file,
                     "--points", 5, "--out", out)
        assert rc == 2
        assert "cannot be read back" in capsys.readouterr().err
        assert not out.exists()

    def test_file_that_is_not_a_config_grid_is_domain_error(
            self, small_scene_file, tmp_path, capsys):
        trace = tmp_path / "g.csv"
        run_cli("optimize", "--scene", small_scene_file, "--seed", 3,
                "--buffer", 10, "--stall", 30, "--out", trace)
        capsys.readouterr()
        out = tmp_path / "s.csv"
        rc = run_cli("snapshot", "--scene", small_scene_file, "--config", trace,
                     "--points", 5, "--out", out)
        assert rc == 2
        assert "not a 'ris-sic config v1' file (bad first line)" in capsys.readouterr().err
        assert not out.exists()

    def test_dimension_mismatch_is_domain_error(self, small_scene_file, tmp_path, capsys):
        config_file = tmp_path / "c.txt"
        config_file.write_text("# ris-sic config v1\n01\n10\n")
        rc = run_cli("snapshot", "--scene", small_scene_file, "--config", config_file,
                     "--out", tmp_path / "s.csv")
        assert rc == 2


def test_readme_python_snippet_runs(capsys):
    # the README's library example must keep working as public constructors change
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    (snippet,) = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    exec(compile(snippet, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) < -44.0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ris_sic", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "ris-sic" in proc.stdout


def test_module_entry_point_passes_on_the_exit_code():
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    version, missing = (
        subprocess.run([sys.executable, "-m", "ris_sic", *args], capture_output=True,
                       text=True, env=env)
        for args in (["--version"], ["validate", "--scene", "no_such_file.ini"]))
    assert (version.returncode, version.stdout) == (0, "ris-sic 0.1.0\n")
    assert missing.returncode == 2 and "ris-sic: error:" in missing.stderr


def test_package_imports_without_scipy():
    # scipy blocked: the package, its CLI and a scene build (resonance solve
    # included) must not import any part of it.
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import ris_sic, ris_sic.cli\n"
        "ris_sic.build_scene(ris_sic.default_scene_params())\n"
        "loaded = [m for m, mod in sys.modules.items()\n"
        "          if m.split('.')[0] == 'scipy' and mod is not None]\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "ris_sic", "optimize", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for flag in ("--scene", "--seed", "--buffer", "--stall", "--out"):
        assert flag in proc.stdout
