"""File formats: scene documents, trace/campaign/snapshot tables, config grids."""

import hashlib
import math
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from conftest import NON_FINITE_SCENE_EDITS, edited_scene_text
from ris_sic import sceneio
from ris_sic.backend import SimulatedBackend
from ris_sic.channel import (
    ClutterParams, Geometry, GridSpec, SceneParams, build_scene, default_scene_params,
)
from ris_sic.experiment import (
    CampaignResult, CampaignSpec, campaign_spec_hash, run_campaign,
    transfer_snapshot,
)
from ris_sic.model import RisConfig, SiReading
from ris_sic.search import ConvergenceTrace, greedy_optimize, random_search
from ris_sic.sceneio import (
    SceneFormatError,
    TraceIntegrityError,
    flatten_scene_params,
    fmt_float,
    format_scene,
    parse_scene,
    parse_scene_text,
    read_campaign,
    read_config_grid,
    read_snapshot,
    read_trace,
    scene_params_from_flat,
    write_campaign,
    write_config_grid,
    write_scene,
    write_snapshot,
    write_sweep,
    write_trace,
)


def _just_outside(f):
    """The nearest values outside a bounded field's range, written as a scene file would."""
    lo, strict, hi, _ = f.metadata["bound"]
    if isinstance(lo, int):
        return [str(lo if strict else lo - 1)] + ([] if hi is None else [str(hi + 1)])
    return [fmt_float(lo if strict else np.nextafter(lo, -np.inf))] + (
        [] if hi is None else [fmt_float(np.nextafter(hi, np.inf))])


# (key, value) for the values just outside every bounded key of every scene section
OUT_OF_BOUND_EDITS = [
    (f.name, value)
    for section in vars(default_scene_params()).values()
    for f in fields(section) if "bound" in f.metadata
    for value in _just_outside(f)
]


# Generated scenes: the caps keep each scene small and bind no check; a float bounded
# only from below is drawn up to _WIDE, and an unbounded gain or level from +-_LEVEL dB,
# which reaches past the float range both ways.
_CAPS = {"nx": 4, "ny": 4, "taps": 8}
_WIDE, _LEVEL = 1e12, 1e4


def _field_values(cls, f):
    """A strategy for one scene key, read from its ``model.bounded`` range."""
    if f.name in _CAPS:
        return st.integers(1, _CAPS[f.name])
    if "bound" not in f.metadata:
        levels = st.floats(-_LEVEL, _LEVEL)
        return st.one_of(st.just(-math.inf), levels) if f.name in cls.NEG_INF_OK else levels
    lo, strict, hi, _ = f.metadata["bound"]
    if isinstance(f.default, int):
        return st.integers(lo + strict, 2**63 if hi is None else hi)
    return st.floats(lo, _WIDE if hi is None else hi, exclude_min=strict)


@st.composite
def scene_params(draw):
    """Whole SceneParams, each section drawn key by key; a section its own check
    refuses (a grid too wide for its center, an unreachable phase) is redrawn."""
    sections = {}
    for section in fields(SceneParams):
        cls = type(section.default)
        values = {f.name: draw(_field_values(cls, f)) for f in fields(cls) if f.name != "points"}
        if cls is GridSpec:
            values["points"] = 1 if values["bandwidth_hz"] == 0.0 else draw(st.integers(2, 5))
        try:
            sections[section.name] = cls(**values)
        except ValueError:
            reject()
    return SceneParams(**sections)


_SMALL = default_scene_params()
_SMALL = replace(_SMALL, geometry=replace(_SMALL.geometry, nx=4, ny=4))


def make_trace(values, algorithm="greedy", **kw):
    ev = np.asarray(values, dtype=np.float64)
    return ConvergenceTrace(
        algorithm=algorithm,
        evaluated=ev,
        best_config=RisConfig.all_off(2, 2),
        best_reading=SiReading.from_per_point([np.min(ev)]),
        **kw,
    )


@pytest.mark.bitexact
class TestMedian:
    def test_bits_equal_numpy_median(self):
        # odd and even lengths, -inf, and signed zeros, whose order a sort leaves open
        rng = np.random.default_rng(4)
        for case in range(3000):
            size = int(rng.integers(1, 80))
            if case % 3 == 0:
                values = rng.choice([float("-inf"), 0.0, -0.0, -40.0, -50.0], size)
            else:
                values = -40.0 - 30.0 * rng.random(size)
                values[rng.random(size) < 0.1 * (case % 3)] = float("-inf")
            got, expected = sceneio.median(values), np.median(values)
            assert type(got) is type(expected)
            assert got == expected
            assert np.signbit(got) == np.signbit(expected), values


class TestFmtFloat:
    @pytest.mark.parametrize(
        "v", [0.85, -44.0, 5.385e9, 3e-8, 0.1 + 0.2, -97.03125, float("-inf")]
    )
    def test_round_trips_exactly(self, v):
        assert float(fmt_float(v)) == v

    def test_readable_forms(self):
        assert fmt_float(0.85) == "0.85"
        assert fmt_float(-44.0) == "-44.0"


class TestSceneDocuments:
    def test_default_round_trip(self, tmp_path):
        p = default_scene_params()
        path = tmp_path / "scene.ini"
        write_scene(p, path)
        assert parse_scene(path) == p

    def test_custom_round_trip(self, tmp_path):
        p = default_scene_params()
        p = replace(
            p,
            geometry=replace(p.geometry, nx=4, ny=7, antenna_distance_m=0.504),
            clutter=ClutterParams(relative_power_db=float("-inf")),
            grid=GridSpec(5.385e9, 10e6, 11),
        )
        path = tmp_path / "scene.ini"
        write_scene(p, path)
        assert parse_scene(path) == p

    def test_shipped_default_matches_factory(self):
        # the repository's scenes/default.ini is generated from the factory;
        # parsing it must reproduce the in-code defaults exactly
        from pathlib import Path

        shipped = Path(__file__).resolve().parent.parent / "scenes" / "default.ini"
        assert parse_scene(shipped) == default_scene_params()
        assert shipped.read_text(encoding="utf-8") == format_scene(default_scene_params())

    def test_format_is_stable(self):
        p = default_scene_params()
        assert format_scene(p) == format_scene(p)
        assert parse_scene_text(format_scene(p)) == p

    def test_unknown_key_rejected_with_line(self):
        text = format_scene(default_scene_params())
        text = text.replace("[cell]", "[cell]\nwobble = 3")
        with pytest.raises(SceneFormatError, match=r"unknown key 'wobble'"):
            parse_scene_text(text, source="doc.ini")
        lineno = text.splitlines().index("wobble = 3") + 1
        with pytest.raises(SceneFormatError, match=rf"doc\.ini:{lineno}"):
            parse_scene_text(text, source="doc.ini")

    def test_unknown_section_rejected(self):
        text = format_scene(default_scene_params()) + "\n[power]\nwatts = 5\n"
        with pytest.raises(SceneFormatError, match=r"unknown section \[power\]"):
            parse_scene_text(text)

    def test_missing_key_rejected(self):
        lines = [
            ln
            for ln in format_scene(default_scene_params()).splitlines()
            if not ln.startswith("center_hz")
        ]
        with pytest.raises(SceneFormatError, match=r"missing key 'center_hz' in \[grid\]"):
            parse_scene_text("\n".join(lines))

    def test_missing_section_rejected(self):
        text = format_scene(default_scene_params())
        head = text.split("[clutter]")[0]
        with pytest.raises(SceneFormatError, match=r"missing section \[clutter\]"):
            parse_scene_text(head)

    def test_bad_value_rejected_with_location(self):
        text = format_scene(default_scene_params()).replace(
            "alpha_iso_db = 44.0", "alpha_iso_db = plenty"
        )
        with pytest.raises(SceneFormatError, match=r"'plenty' is not a valid float"):
            parse_scene_text(text, source="doc.ini")

    def test_nan_rejected(self):
        text = format_scene(default_scene_params()).replace(
            "alpha_iso_db = 44.0", "alpha_iso_db = nan"
        )
        with pytest.raises(SceneFormatError, match="alpha_iso_db must be finite, got nan"):
            parse_scene_text(text)

    @pytest.mark.parametrize("key, value", NON_FINITE_SCENE_EDITS)
    def test_non_finite_values_rejected(self, key, value):
        # NaN and infinities alike, each at the line of its key
        text = edited_scene_text(key, value)
        lineno = text.splitlines().index(f"{key} = {value}") + 1
        with pytest.raises(SceneFormatError,
                           match=rf"^doc\.ini:{lineno}: {key} must be finite, got {value}$"):
            parse_scene_text(text, source="doc.ini")

    @pytest.mark.parametrize("edit, where", [
        (("antenna_separation_m = 0.025", "antenna_separation_m = -1.0"), "antenna_separation_m"),
        (("nx = 16", "nx = 0"), "nx"),
        (("points = 1", "points = 3"), "[grid]"),
    ])
    def test_section_errors_name_their_line(self, edit, where):
        # a message naming a key points at its line, any other (here, a narrowband
        # grid of 3 points) at the section's
        text = format_scene(default_scene_params()).replace(*edit)
        lineno = next(i for i, line in enumerate(text.splitlines(), start=1)
                      if line.startswith(where))
        with pytest.raises(SceneFormatError, match=rf"^doc\.ini:{lineno}: "):
            parse_scene_text(text, source="doc.ini")

    @pytest.mark.parametrize("key, value", OUT_OF_BOUND_EDITS)
    def test_out_of_bound_values_rejected_at_their_line(self, key, value):
        text = edited_scene_text(key, value)
        lineno = text.splitlines().index(f"{key} = {value}") + 1
        with pytest.raises(SceneFormatError, match=rf"^doc\.ini:{lineno}: {key} must be "):
            parse_scene_text(text, source="doc.ini")

    def test_out_of_bound_cases_cover_every_section(self):
        # the cases above are generated from the declared bounds, so none would mean no test
        assert {"nx", "amplitude_on", "phase_target_deg", "delay_spread_s",
                "center_hz"} <= {key for key, _ in OUT_OF_BOUND_EDITS}

    def test_clutter_off_is_the_one_infinite_value(self):
        params = parse_scene_text(edited_scene_text("relative_power_db", "-inf"))
        assert not params.clutter.enabled

    def test_semantic_errors_surface_as_format_errors(self):
        text = format_scene(default_scene_params()).replace("nx = 16", "nx = 0")
        with pytest.raises(SceneFormatError):
            parse_scene_text(text)

    def test_comments_and_inline_comments_ignored(self):
        text = format_scene(default_scene_params())
        text = "# a scene file\n" + text.replace("nx = 16", "nx = 16  # full width")
        assert parse_scene_text(text) == default_scene_params()

    @pytest.mark.parametrize("line", ["NX = 16", "nx: 16", "  nx=16 ; full width"])
    def test_key_spellings(self, line):
        # keys fold to lower case, ':' delimits like '=', indentation is ignored
        text = format_scene(default_scene_params()).replace("nx = 16", line)
        assert parse_scene_text(text) == default_scene_params()

    @pytest.mark.parametrize("old, new, message", [
        ("[grid]", "[grid]\n[grid]", r"duplicate section \[grid\], first at line \d+$"),
        ("ny = 16", "ny = 16\nny = 16", r"duplicate key 'ny' in \[geometry\], first at line 3$"),
        ("[geometry]", "nx = 16\n[geometry]", r"key before the first \[section\]$"),
        ("ny = 16", "ny = 16\nwobble", r"expected '\[section\]' or 'key = value', got 'wobble'$"),
        ("ny = 16", "ny = 16\n    17", r"expected .*, got '17'$"),  # a continuation line
        ("[geometry]", "[DEFAULT]\n[geometry]", r"unknown section \[DEFAULT\]; "),
    ], ids=["duplicate-section", "duplicate-key", "key-before-section", "bare-line",
            "continuation-line", "DEFAULT"])
    def test_rejected_lines_name_their_number(self, old, new, message):
        text = format_scene(default_scene_params())
        edited = text.replace(old, new, 1)
        lineno = next(i for i, (a, b) in enumerate(
            zip(text.splitlines(), edited.splitlines()), start=1) if a != b)
        with pytest.raises(SceneFormatError, match=rf"^doc\.ini:{lineno}: {message}"):
            parse_scene_text(edited, source="doc.ini")

    def test_non_finite_grid_frequency_rejected(self):
        text = format_scene(default_scene_params()).replace(
            "center_hz = 5385000000.0", "center_hz = inf"
        )
        with pytest.raises(SceneFormatError, match="center_hz must be finite, got inf"):
            parse_scene_text(text)

    def test_flatten_round_trip(self):
        p = default_scene_params()
        flat = flatten_scene_params(p)
        assert scene_params_from_flat(flat) == p
        assert flat["geometry.nx"] == "16"
        assert flat["grid.center_hz"] == fmt_float(5.385e9)


class TestGeneratedScenes:
    @given(scene_params(), st.integers(0, 2**32 - 1))
    @example(replace(_SMALL, geometry=replace(_SMALL.geometry, tx_gain_dbi=6200.0,
                                              rx_gain_dbi=6200.0)), 0)
    # a pole phase whose quotient overflows, and clutter taps that overflow a hop
    @example(replace(_SMALL, cell=replace(_SMALL.cell, phase_target_deg=5e-324,
                                          quality_factor=5e-324)), 0)
    @example(replace(_SMALL, geometry=replace(_SMALL.geometry, tx_gain_dbi=3000.0),
                     clutter=replace(_SMALL.clutter, relative_power_db=6000.0)), 0)
    @settings(max_examples=200, deadline=None)
    def test_a_scene_round_trips_and_is_refused_or_scores(self, params, seed):
        assert parse_scene_text(format_scene(params)) == params
        try:
            scene = build_scene(params)
        except (ValueError, RuntimeError):  # the CLI's domain errors, exit 2
            return
        nx, ny = params.geometry.nx, params.geometry.ny
        mixed = RisConfig(np.random.default_rng(seed).random((nx, ny)) < 0.5)
        backend = SimulatedBackend(scene)
        for config in (RisConfig.all_off(nx, ny), RisConfig.all_on(nx, ny), mixed):
            assert not math.isnan(backend.evaluate(config).magnitude_db)


class _ScriptedBackend:
    """Hands out the given readings in order, one per evaluation, on a 2x2 surface."""

    def __init__(self, readings):
        self._readings = iter(readings)

    def evaluate(self, config):
        return SiReading.from_per_point([next(self._readings)])

    def dims(self):
        return (2, 2)


# a few distinct readings, drawn again and again so that ties are common
_READINGS = st.lists(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False),
              st.sampled_from([0.0, -0.0, -math.inf])), min_size=1, max_size=5,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=40))


@pytest.mark.bitexact
@given(_READINGS, st.sampled_from(["random", "greedy"]), st.integers(1, 40))
@example([0.0, -0.0], "random", 1)
@example([-1.0, 0.0, -1.0, 0.0, -0.0], "greedy", 40)
@settings(max_examples=200, deadline=None)
def test_every_search_trace_reads_back(readings, algorithm, stall_limit):
    backend, rng = _ScriptedBackend(readings), np.random.default_rng(0)
    if algorithm == "random":
        trace = random_search(backend, len(readings), rng)
    else:
        trace = greedy_optimize(backend, 2, stall_limit, rng, len(readings))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_trace(trace, path)
        assert read_trace(path).evaluated_db.tobytes() == trace.evaluated.tobytes()


class TestTraceFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        spread = rng.standard_normal(4000) * 10.0 ** rng.integers(-300, 301, 4000)
        hard = [np.inf, 5e-324, -5e-324, -0.0, 0.0, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, -np.inf]
        tr = make_trace([-40.0, -42.5, -41.0, -97.03125, *spread, *hard],
                        buffer_size=2, stall_limit=2)
        path = tmp_path / "t.csv"
        write_trace(tr, path, header={"seed": "7"})
        loaded = read_trace(path)
        # bytes, not values: -0.0 must come back as -0.0
        assert loaded.evaluated_db.tobytes() == tr.evaluated.tobytes()
        assert loaded.cumulative_db.tobytes() == tr.cumulative.tobytes()
        np.testing.assert_array_equal(loaded.iteration, np.arange(1, tr.evaluated.size + 1))
        assert loaded.header["algorithm"] == "greedy"
        assert loaded.header["seed"] == "7"
        assert loaded.header["final_db"] == "-inf"
        # identity equality, as for the in-memory trace: no element-wise array compare
        assert loaded == loaded and (loaded == read_trace(path)) is False

    def test_signed_zero_rows(self, tmp_path):
        # the running minimum keeps the later of two equal readings, as numpy does
        path = tmp_path / "t.csv"
        write_trace(make_trace([0.0, -0.0, 0.0]), path)
        rows = path.read_text().splitlines()[-3:]
        assert rows == ["1,0.0,0.0", "2,-0.0,-0.0", "3,0.0,0.0"]

    def test_round_trip_with_null_readings(self, tmp_path):
        tr = make_trace([-40.0, float("-inf"), -50.0])
        path = tmp_path / "t.csv"
        write_trace(tr, path)
        loaded = read_trace(path)
        np.testing.assert_array_equal(loaded.evaluated_db, tr.evaluated)
        assert np.isneginf(loaded.cumulative_db[-1])

    def test_tampered_cumulative_detected(self, tmp_path):
        path = tmp_path / "t.csv"
        # the signed zero once read back, as 0.0 == -0.0; the NaN rows keep the
        # header's iterations_total and final_db true, and NaN equals nothing
        for values, row, edited, where in [
            ([-40.0, -42.0, -41.0], "3,-41.0,-42.0", "3,-41.0,-43.0", 3),
            ([-0.0, 0.0], "1,-0.0,-0.0", "1,-0.0,0.0", 1),
            ([-1.0, -1.0], "2,-1.0,-1.0", "2,nan,nan", 2),
        ]:
            write_trace(make_trace(values), path)
            text = path.read_text()
            assert f"\n{row}\n" in text
            path.write_text(text.replace(f"\n{row}\n", f"\n{edited}\n"))
            with pytest.raises(TraceIntegrityError, match=r"cumulative column is not the "
                               rf"running minimum \(first mismatch at iteration {where}\)"):
                read_trace(path)

    def test_tampered_iteration_detected(self, tmp_path):
        tr = make_trace([-40.0, -42.0])
        path = tmp_path / "t.csv"
        # a fractional count once loaded, cut to the integer it starts with
        for count in ("5", "2.9"):
            write_trace(tr, path)
            path.write_text(path.read_text().replace("2,", f"{count},"))
            with pytest.raises(TraceIntegrityError, match="1..N"):
                read_trace(path)

    # each of these wrote a file at one time: the first two failed to load
    # ("unexpected columns", "missing '# columns:' line"), the third read back
    # as {"a": "b: v"}, the rest overrode what the trace itself records
    @pytest.mark.parametrize("header", [
        {"columns": "x"}, {"a": "a\nb"}, {"a:b": "v"}, {"a\nb": "v"}, {"a": "a\rb"},
        {"a": "v "}, {"a": " v"},
        *({key: "1"} for key in ("algorithm", "buffer_size", "stall_limit",
                                 "iterations_total", "final_db")),
    ], ids=lambda header: repr(*header))
    def test_header_entries_that_cannot_be_read_back_are_refused(self, tmp_path, header):
        path = tmp_path / "t.csv"
        (key,) = header
        with pytest.raises(ValueError, match=re.escape(repr(key)[1:-1])):
            write_trace(make_trace([-40.0, -42.0]), path, header=header)
        assert not path.exists()

    # at one time the last of two lines read back without a word, and a second
    # columns line was checked again
    @pytest.mark.parametrize("line", ["# algorithm: random", "#  algorithm :random",
                                      "# columns: iteration,evaluated_db,cumulative_db"])
    def test_repeated_header_key_rejected(self, tmp_path, line):
        path = tmp_path / "t.csv"
        write_trace(make_trace([-40.0, -42.0]), path)
        lines = path.read_text().splitlines()
        assert lines[1] == "# algorithm: greedy"
        lines.insert(2, line)
        path.write_text("\n".join(lines) + "\n")
        keys = [text.lstrip("#").partition(":")[0].strip() for text in lines]
        first, again = [at for at, key in enumerate(keys, start=1) if key == keys[2]]
        with pytest.raises(TraceIntegrityError, match=rf"t\.csv:{again}: duplicate header key "
                           rf"'{keys[2]}', first at line {first}"):
            read_trace(path)

    @pytest.mark.parametrize("line, message", [
        ("# iterations_total: 7", "iterations_total is 7 but the rows give 2"),
        ("# final_db: -99.0", "final_db is -99.0 but the rows give -42.0"),
        ("", "iterations_total is None but the rows give 2"),
    ])
    def test_header_disagreeing_with_rows_rejected(self, tmp_path, line, message):
        path = tmp_path / "t.csv"
        write_trace(make_trace([-40.0, -42.0]), path)
        lines = path.read_text().splitlines()
        key = line.partition(":")[0] or "# iterations_total"
        (at,) = [i for i, text in enumerate(lines) if text.startswith(key + ":")]
        lines[at] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceIntegrityError, match=message):
            read_trace(path)

    def test_missing_columns_line_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(make_trace([-40.0, -42.0]), path)
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("# columns:")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceIntegrityError, match=r"t\.csv: missing '# columns:' line"):
            read_trace(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# something else\n1,2,3\n")
        with pytest.raises(TraceIntegrityError, match="bad first line"):
            read_trace(path)

    def test_bad_data_row_rejected(self, tmp_path):
        tr = make_trace([-40.0, -42.0])
        path = tmp_path / "t.csv"
        write_trace(tr, path)
        path.write_text(path.read_text() + "3,oops,-42.0\n")
        with pytest.raises(TraceIntegrityError, match="bad data row"):
            read_trace(path)

    @pytest.mark.parametrize("row, message", [
        ("3,-41.0,-42.0,0.0", r"t\.csv:8: row has 4 fields, expected 3"),
        ("3,-41.0,-42.0 # note", r"t\.csv:8: bad data row: '3,-41.0,-42.0 # note'"),
        ("# seed: 8", r"t\.csv:8: row has 1 fields, expected 3"),
        ("   ", r"t\.csv:8: row has 1 fields, expected 3"),
        ("\n3,-41.0,-42.0,0.0", r"t\.csv:9: row has 4 fields, expected 3"),  # after a blank line
        # Python's float() takes digit underscores, numpy's reader does not
        ("3,1_0,-42.0", r"t\.csv: bad data row: could not convert string '1_0'"),
    ])
    def test_lines_after_the_first_row_are_data_rows(self, tmp_path, row, message):
        tr = make_trace([-40.0, -42.0])
        path = tmp_path / "t.csv"
        write_trace(tr, path)
        path.write_text(path.read_text() + row + "\n")
        with pytest.raises(TraceIntegrityError, match=message):
            read_trace(path)

    def test_empty_lines_and_crlf_are_accepted(self, tmp_path):
        tr = make_trace([-40.0, -42.0, -41.0])
        path = tmp_path / "t.csv"
        write_trace(tr, path)
        path.write_bytes("\r\n\r\n".join(path.read_text().splitlines()).encode())
        np.testing.assert_array_equal(read_trace(path).evaluated_db, tr.evaluated)

    # numpy's reader strips any str.isspace() padding from a field; the old
    # reader split lines at \v, \f, \x1c-\x1e and \u2028, and float() refuses \x1f
    @pytest.mark.parametrize("pad", ["\x0b", "\x0c", "\x1c", "\x1f", "\u2028"])
    def test_whitespace_around_a_field_is_accepted(self, tmp_path, pad):
        tr = make_trace([-40.0, -42.0])
        path = tmp_path / "t.csv"
        write_trace(tr, path)
        path.write_text(path.read_text().replace("2,-42.0,", f"2,-42.0{pad},"), encoding="utf-8")
        np.testing.assert_array_equal(read_trace(path).evaluated_db, tr.evaluated)

    def test_rows_of_one_wrong_width_rejected_with_line(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(make_trace([-40.0, -42.0]), path)
        path.write_text(path.read_text().replace("0,-4", "0,0,-4"))
        with pytest.raises(TraceIntegrityError, match=r"t\.csv:6: row has 4 fields, expected 3"):
            read_trace(path)

    def test_wall_time_not_serialized(self, tmp_path):
        slow = make_trace([-40.0, -42.0], wall_time_s=123.0)
        fast = make_trace([-40.0, -42.0], wall_time_s=0.001)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(slow, a)
        write_trace(fast, b)
        assert a.read_bytes() == b.read_bytes()


class TestConfigGrids:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        config = RisConfig(rng.random((4, 6)) < 0.5)
        path = tmp_path / "c.txt"
        # the header ris-sic oracle writes: the reading and the scene
        write_config_grid(config, path,
                          header={"si_db": "-88.5", **flatten_scene_params(_SMALL, "scene.")})
        assert read_config_grid(path) == config
        assert "# si_db: -88.5" in path.read_text()

    def test_rejects_bad_characters(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# ris-sic config v1\n0120\n")
        with pytest.raises(SceneFormatError, match="0/1"):
            read_config_grid(path)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# ris-sic config v1\n010\n01\n")
        with pytest.raises(SceneFormatError, match="inconsistent"):
            read_config_grid(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# ris-sic config v1\n")
        with pytest.raises(SceneFormatError, match="no configuration rows"):
            read_config_grid(path)

    # each of these once loaded: the reader skipped every '#' line, the magic line included
    @pytest.mark.parametrize("text, error, message", [
        ("# ris-sic snapshot v1\n# columns: frequency_hz,si_db\n0101\n1100\n",
         TraceIntegrityError, r"c\.txt: not a 'ris-sic config v1' file \(bad first line\)"),
        ("# ris-sic config v1\n# si_db: -88.5\n# si_db: -90.0\n0101\n",
         TraceIntegrityError, r"c\.txt:3: duplicate header key 'si_db', first at line 2"),
        ("# ris-sic config v1\n0101\n# si_db: -88.5\n1100\n",
         SceneFormatError, r"c\.txt:3: config rows must be 0/1 strings"),
    ], ids=["snapshot magic", "repeated key", "comment after a row"])
    def test_rejects_bad_headers(self, tmp_path, text, error, message):
        path = tmp_path / "c.txt"
        path.write_text(text)
        with pytest.raises(error, match=message):
            read_config_grid(path)


@pytest.fixture(scope="module")
def result(small_params):
    spec = CampaignSpec(
        scene=small_params, algorithm="greedy", runs=3, master_seed=5,
        horizon=120, buffer_size=8, stall_limit=25,
    )
    return run_campaign(spec)


class TestCampaignFiles:
    def test_round_trip(self, tmp_path, result):
        path = tmp_path / "c.csv"
        write_campaign(result, path)
        loaded = read_campaign(path)
        assert loaded.spec == result.spec
        assert loaded.spec_hash == result.spec_hash
        np.testing.assert_array_equal(loaded.mean_curve_db, result.mean_curve)
        np.testing.assert_array_equal(loaded.final_values_db, result.final_values)
        assert loaded == loaded and (loaded == read_campaign(path)) is False

    def test_edited_header_detected(self, tmp_path, result):
        path = tmp_path / "c.csv"
        write_campaign(result, path)
        path.write_text(path.read_text().replace("master_seed: 5", "master_seed: 6"))
        with pytest.raises(TraceIntegrityError, match="hash mismatch"):
            read_campaign(path)

    def test_truncated_rows_detected(self, tmp_path, result):
        path = tmp_path / "c.csv"
        write_campaign(result, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-10]) + "\n")
        with pytest.raises(TraceIntegrityError, match="curve rows"):
            read_campaign(path)

    @pytest.mark.parametrize("edits, message", [
        # a header statistic and a curve row changed by hand
        ([("# final_median_db: -42.25", "# final_median_db: -99.0"),
          ("\n2,-41.5\n", "\n2,-77.0\n")],
         "final_median_db is -99.0 but final_values_db give -42.25"),
        ([("# final_mean_db: -42.5", "# final_mean_db: -42.0")], "final_mean_db"),
        ([("# final_best_db: -44.5", "# final_best_db: -45.0")], "final_best_db"),
        ([("# final_worst_db: -40.75\n", "")], "final_worst_db is None"),
        ([("\n2,-41.5\n", "\n2,-77.0\n")], "mean curve rises at iteration 3"),
        ([("\n4,-42.5\n", "\n4,nan\n")], "mean curve rises at iteration 4"),
        ([("\n3,-42.125\n", "\n5,-42.125\n")], r"iteration column must count 1\.\.horizon"),
        ([("# scene.geometry.nx: 4\n", "# scene.geometry.nx: abc\n")],
         r"scene\.geometry\.nx: 'abc' is not a valid int"),
        ([("# final_values_db: ", "# final_values_db: abc;")],
         r"c\.csv: bad final_values_db entry 'abc'"),
        ([("# final_values_db: ", "# final_values_db: ;")],
         r"c\.csv: bad final_values_db entry ''"),
    ])
    def test_edits_inconsistent_with_the_runs_detected(self, tmp_path, edits, message):
        path = tmp_path / "c.csv"
        write_campaign(pinned_result(pinned_specs()[0]), path)
        text = path.read_text()
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        path.write_text(text)
        with pytest.raises(TraceIntegrityError, match=message):
            read_campaign(path)

    def test_nan_final_value_refused(self, tmp_path):
        # a run's final is a reading's running minimum, never NaN; the four
        # statistics are edited to match, so only the NaN check can refuse the file
        path = tmp_path / "c.csv"
        write_campaign(pinned_result(pinned_specs()[0]), path)
        text = re.sub(r"(?m)^# final_values_db: [^;]*", "# final_values_db: nan", path.read_text())
        text = re.sub(r"(?m)^# (final_(median|mean|best|worst)_db): .*$", r"# \1: nan", text)
        path.write_text(text)
        with pytest.raises(TraceIntegrityError, match="final_values_db"):
            read_campaign(path)

    def test_minus_inf_final_value_loads(self, tmp_path):
        # exact cancellation reads -inf, so a run may end there
        spec = pinned_specs()[1]
        traces = (make_trace([-40.0, float("-inf")]),) + pinned_result(spec).traces[1:]
        result = CampaignResult(spec=spec, traces=traces, created_utc=CREATED_UTC)
        path = tmp_path / "c.csv"
        write_campaign(result, path)
        loaded = read_campaign(path)
        np.testing.assert_array_equal(loaded.final_values_db, result.final_values)
        assert loaded.final_values_db[0] == float("-inf")

    def test_write_and_read_leave_numpy_ma_unimported(self, tmp_path):
        # np.median imports numpy.ma on its first call; the campaign files' median does not
        code = (
            "import sys\n"
            "from ris_sic.channel import default_scene_params\n"
            "from ris_sic.experiment import CampaignSpec, run_campaign\n"
            "from ris_sic.sceneio import read_campaign, write_campaign\n"
            "spec = CampaignSpec(default_scene_params(), runs=4, horizon=30, buffer_size=4)\n"
            "write_campaign(run_campaign(spec), sys.argv[1])\n"
            "read_campaign(sys.argv[1])\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "c.csv")],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_missing_scene_entry_detected(self, tmp_path):
        path = tmp_path / "c.csv"
        write_campaign(pinned_result(pinned_specs()[0]), path)
        text = path.read_text()
        assert "# scene.geometry.nx: 4\n" in text
        path.write_text(text.replace("# scene.geometry.nx: 4\n", ""))
        with pytest.raises(TraceIntegrityError, match=r"c\.csv: bad campaign header: "
                           r"missing scene entry 'scene\.geometry\.nx'"):
            read_campaign(path)

    def test_final_values_fewer_than_runs_detected(self, tmp_path):
        # the spec hash does not cover the finals, so only their count refuses the file
        spec = pinned_specs()[0]
        path = tmp_path / "c.csv"
        write_campaign(pinned_result(spec), path)
        text = re.sub(r"(?m)^(# final_values_db: .*);[^;\n]*$", r"\1", path.read_text())
        path.write_text(text)
        with pytest.raises(TraceIntegrityError,
                           match=rf"c\.csv: {spec.runs - 1} final values for {spec.runs} runs"):
            read_campaign(path)

    def test_missing_header_field_detected(self, tmp_path, result):
        path = tmp_path / "c.csv"
        write_campaign(result, path)
        lines = [ln for ln in path.read_text().splitlines() if "# runs:" not in ln]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceIntegrityError, match="incomplete campaign header"):
            read_campaign(path)


class TestSnapshotFiles:
    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        write_snapshot(np.array([5.38e9, 5.39e9]), np.array([-40.0, -41.0]), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(TraceIntegrityError, match="no data rows"):
            read_snapshot(path)

    def test_ragged_row_rejected_with_line(self, tmp_path):
        path = tmp_path / "s.csv"
        write_snapshot(np.array([5.38e9, 5.39e9]), np.array([-40.0, -41.0]), path)
        lines = path.read_text().splitlines()
        lines[-1] += ",-42.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceIntegrityError, match=rf"s\.csv:{len(lines)}: row has 3 fields"):
            read_snapshot(path)

    def test_columns_of_unequal_length_refused(self, tmp_path):
        # rows stream to the temp file, so the refusal leaves the old file as it was
        path = tmp_path / "s.csv"
        write_snapshot(np.array([5.38e9, 5.39e9]), np.array([-40.0, -41.0]), path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="argument 2 is shorter than argument 1"):
            write_snapshot(np.array([5.38e9, 5.39e9, 5.4e9]), np.array([-40.0, -41.0]), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]

    def test_unexpected_columns_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        write_snapshot(np.array([5.38e9, 5.39e9]), np.array([-40.0, -41.0]), path)
        path.write_text(path.read_text().replace("si_db", "si_dbm"))
        with pytest.raises(TraceIntegrityError, match="unexpected columns"):
            read_snapshot(path)

    # a key with edge whitespace read back stripped, so {"a": "1", " a": "2"} gave {"a": "2"}
    @pytest.mark.parametrize("header", [{"columns": "x"}, {"a:b": "v"}, {"a": "a\nb"},
                                        {"a": "1", " a": "2"}, {"a ": "v"}])
    def test_header_entries_that_cannot_be_read_back_are_refused(self, tmp_path, header):
        path = tmp_path / "s.csv"
        with pytest.raises(ValueError, match="cannot be read back"):
            write_snapshot(np.array([5.38e9, 5.39e9]), np.array([-40.0, -41.0]), path, header)
        with pytest.raises(ValueError, match="cannot be read back"):
            write_config_grid(RisConfig.all_on(2, 2), path, header)
        assert not path.exists()

    def test_round_trip(self, tmp_path, wideband_scene):
        config = RisConfig.all_on(4, 4)
        freqs, si = transfer_snapshot(wideband_scene, config, 20e6, 41)
        path = tmp_path / "s.csv"
        write_snapshot(freqs, si, path, header={"span_hz": fmt_float(20e6)})
        header, f2, s2 = read_snapshot(path)
        np.testing.assert_array_equal(f2, freqs)
        np.testing.assert_array_equal(s2, si)
        assert header["span_hz"] == fmt_float(20e6)


class TestSweepFiles:
    def test_written_form(self, tmp_path, small_params):
        from ris_sic.experiment import bandwidth_sweep

        results = bandwidth_sweep(
            small_params, [0.0, 5e6], points=5, runs=2,
            master_seed=3, horizon=100, buffer_size=8, stall_limit=20,
        )
        path = tmp_path / "sweep.csv"
        write_sweep(results, path, header={"scene": "small"})
        text = path.read_text()
        assert text.startswith(sceneio.SWEEP_MAGIC)
        data_rows = [
            ln for ln in text.splitlines() if ln and not ln.startswith("#")
        ]
        assert len(data_rows) == 2
        first = data_rows[0].split(",")
        assert float(first[0]) == 0.0
        assert int(first[1]) == 1
        assert float(first[3]) == results[0].final_median_db


class TestAtomicity:
    def test_no_temp_residue(self, tmp_path):
        tr = make_trace([-40.0, -42.0])
        write_trace(tr, tmp_path / "t.csv")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_failing_rows_leave_the_old_file(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(make_trace([-40.0, -42.0]), path)
        before = path.read_bytes()

        def rows():
            for i in range(50_000):
                yield f"{i + 1},-40.0,-40.0"
            # rows stream to the temp file: it is on disk, with data, before the last row
            (tmp,) = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
            assert tmp.stat().st_size > 0
            raise OSError("source failed")

        with pytest.raises(OSError, match="source failed"):
            sceneio._write_table(path, sceneio.TRACE_MAGIC, {}, sceneio.TRACE_COLUMNS, rows())
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_overwrites_in_place(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(make_trace([-40.0, -42.0]), path)
        first = path.read_text()
        write_trace(make_trace([-40.0, -42.0, -44.0]), path)
        assert path.read_text() != first
        assert read_trace(path).evaluated_db.size == 3


def traced_memory(fn):
    """(result, bytes traced and still held once ``fn`` returns, peak bytes)."""
    tracemalloc.start()
    try:
        return fn(), *tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Tables stream out and parse in without a Python object per value."""

    ROWS = 200_000

    def test_write_and_read_peaks(self, tmp_path):
        ev = -40.0 - 60.0 * np.random.default_rng(4).random(self.ROWS)
        trace = make_trace(ev)
        path = tmp_path / "t.csv"
        _, _, write_peak = traced_memory(lambda: write_trace(trace, path))
        assert write_peak < 1 << 20
        loaded, held, read_peak = traced_memory(lambda: read_trace(path))
        returned = sum(a.nbytes for a in (loaded.iteration, loaded.evaluated_db,
                                          loaded.cumulative_db))
        assert read_peak < 2 * returned
        assert held <= 9 * self.ROWS  # the reading column, not the parsed table
        assert loaded.evaluated_db.tobytes() == trace.evaluated.tobytes()


# --------------------------------------------------------------------------
# byte pins: every writer's output from synthetic inputs (no channel
# arithmetic, so the bytes do not depend on numpy's SIMD target)
# --------------------------------------------------------------------------

CREATED_UTC = "2026-01-01T00:00:00+00:00"

FILE_PINS = {
    "campaign_greedy": "d2cc26b4fdffa66950097996f4eac120ff877b48db5e0a1c37e556b1dbd033a4",
    "campaign_random": "05336f380ab0acc49ddfc051ece1f0cd108909930d7bdd0c1f99550597580efc",
    "config_grid": "98fc1dbc4a460bb8425cfbadd9f9cc392eb552084f82eca44f578c00e0327b10",
    "scene_custom": "92535339b9bb201066d6b0786693b8a0a00c4daf18b6606f274571499e893ae5",
    "scene_default": "737420c65f317e2c81b1bbe1050647ba1e2b4bc40ff619b05deaa1d901e34cb2",
    "snapshot": "33b9f378140520f10a016be757f95c4cf70b692a00f9f4fa50468c54e6926b8e",
    "sweep": "780a9f324e5afdc9b55f8b90149bcf88169aabde1e66ad7a5ce70a50e4790bed",
    "trace": "987c1359eab5e9cc2af203e2074479ec2f1ab00928611b395877b9d978fb52b7",
}


def pinned_scene():
    # an int pitch must still be written as a float: keys format by schema type
    return replace(
        default_scene_params(),
        geometry=Geometry(nx=4, ny=7, pitch_m=1, antenna_distance_m=0.504),
        clutter=ClutterParams(relative_power_db=float("-inf"), taps=3, seed=9),
        grid=GridSpec(5.385e9, 10e6, 11),
    )


def pinned_specs():
    greedy = CampaignSpec(scene=pinned_scene(), algorithm="greedy", runs=3, master_seed=5,
                          horizon=4, buffer_size=2, stall_limit=3)
    random = CampaignSpec(scene=pinned_scene(), algorithm="random", runs=4,
                          master_seed=11, horizon=5)
    return greedy, random


def pinned_result(spec, offset=0.0):
    # run r falls by (r + 1) * 0.375 dB a step for r + 2 steps, then stays put;
    # the readings never rise, so each is its own running minimum
    steps = np.arange(1, spec.horizon + 1, dtype=np.float64)
    traces = tuple(make_trace(-40.0 - offset - (r + 1) * 0.375 * np.minimum(steps, r + 2))
                   for r in range(spec.runs))
    return CampaignResult(spec=spec, traces=traces, created_utc=CREATED_UTC)


def write_pinned(name, path):
    greedy, random = pinned_specs()
    if name == "trace":
        tr = make_trace([-40.0, -42.5, -41.0, -97.03125, float("-inf"), -50.0],
                        buffer_size=2, stall_limit=3)
        write_trace(tr, path, header={"seed": "7"})
    elif name == "campaign_greedy":
        write_campaign(pinned_result(greedy), path)
    elif name == "campaign_random":
        write_campaign(pinned_result(random), path)
    elif name == "sweep":
        nb = replace(greedy, scene=replace(greedy.scene, grid=GridSpec(5.385e9, 0.0, 1)))
        wb = replace(greedy, scene=replace(greedy.scene, grid=GridSpec(5.385e9, 5e6, 5)))
        write_sweep([pinned_result(nb), pinned_result(wb, 1.5)], path,
                    header={"seed": "5", "runs": "3"})
    elif name == "snapshot":
        freqs = 5.38e9 + 2.5e6 * np.arange(5)
        si = np.array([-40.0, -55.25, float("-inf"), -61.0, -45.5])
        write_snapshot(freqs, si, path, header={"span_hz": fmt_float(10e6)})
    elif name == "scene_default":
        write_scene(default_scene_params(), path)
    elif name == "scene_custom":
        write_scene(pinned_scene(), path)
    elif name == "config_grid":
        config = RisConfig((np.arange(24).reshape(4, 6) * 7) % 5 < 2)
        write_config_grid(config, path, header={"si_db": "-88.5"})


@pytest.mark.bitexact
class TestBytePins:
    @pytest.mark.parametrize("name", sorted(FILE_PINS))
    def test_written_bytes(self, tmp_path, name):
        path = tmp_path / name
        write_pinned(name, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == FILE_PINS[name]

    def test_spec_hashes(self):
        greedy, random = pinned_specs()
        assert campaign_spec_hash(CampaignSpec(scene=default_scene_params())) == "38a6db122a4aefbd"
        assert campaign_spec_hash(greedy) == "fc221c0b9e7eec46"
        assert campaign_spec_hash(random) == "fdaec57cbbca8145"

    def test_pinned_campaigns_read_back(self, tmp_path):
        for spec in pinned_specs():
            path = tmp_path / f"{spec.algorithm}.csv"
            result = pinned_result(spec)
            write_campaign(result, path)
            loaded = read_campaign(path)
            assert loaded.spec == spec and loaded.spec_hash == result.spec_hash
            np.testing.assert_array_equal(loaded.mean_curve_db, result.mean_curve)
            np.testing.assert_array_equal(loaded.final_values_db, result.final_values)
