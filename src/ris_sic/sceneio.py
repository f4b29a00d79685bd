"""File formats: scene descriptions, traces, campaigns, sweeps, snapshots.

Scene files are INI-style key/value documents with a fixed schema (see
``docs/scene_format.md``); they are read line by line in one pass, so every
error about a line names its number.  Result files are comma-separated tables prefixed
by ``# key: value`` header lines; floats are written as ``repr``, so a
write/read round trip reproduces every value bit-exactly.  Writes stream each
line to a temp file that is then renamed atomically over the target, so
readers never observe a partial file; numpy's reader parses the data rows.
"""

from __future__ import annotations

import os
import re
import tempfile
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .channel import SceneParams
from .model import RisConfig

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .experiment import CampaignResult, CampaignSpec
    from .search import ConvergenceTrace

PathLike = Union[str, Path]

TRACE_MAGIC = "# ris-sic trace v1"
CAMPAIGN_MAGIC = "# ris-sic campaign v1"
SWEEP_MAGIC = "# ris-sic sweep v1"
SNAPSHOT_MAGIC = "# ris-sic snapshot v1"
CONFIG_MAGIC = "# ris-sic config v1"

TRACE_COLUMNS = ("iteration", "evaluated_db", "cumulative_db")
# Header keys write_trace derives from the trace itself
TRACE_KEYS = ("algorithm", "buffer_size", "stall_limit", "iterations_total", "final_db")
CAMPAIGN_COLUMNS = ("iteration", "mean_cumulative_db")


def median(values: np.ndarray) -> np.float64:
    """``np.median`` of a NaN-free 1-D array, bit for bit and signed zeros included:
    the same partition and the mean of its middle one or two entries, without the
    NaN check that imports ``numpy.ma``."""
    n = values.size
    mid = n // 2
    part = np.partition(values, [mid, -1] if n % 2 else [mid - 1, mid, -1])
    return part[mid - 1 + n % 2:mid + 1].mean()


# Statistics of a campaign's final values, as its header and its sweep row report them
FINAL_STATS = {"final_median_db": median, "final_mean_db": np.mean,
               "final_best_db": np.min, "final_worst_db": np.max}
SWEEP_COLUMNS = ("bandwidth_hz", "points", "runs", *FINAL_STATS)
SNAPSHOT_COLUMNS = ("frequency_hz", "si_db")

# Keys whose values change between otherwise identical runs; byte-level
# reproducibility comparisons should ignore lines carrying these.
VOLATILE_HEADER_KEYS = ("created_utc",)


def now_utc() -> str:
    """The ``created_utc`` stamp: the current UTC time to the second, ISO 8601."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class SceneFormatError(ValueError):
    """Scene file violates the schema; message carries file/line context."""


class TraceIntegrityError(ValueError):
    """A loaded results table is internally inconsistent."""


# --------------------------------------------------------------------------
# scene files
# --------------------------------------------------------------------------

def _keys(cls) -> dict[str, type]:
    """Field name -> type of its default, for every field of ``cls`` that has one."""
    return {f.name: type(f.default) for f in fields(cls) if f.default is not MISSING}


# The SceneParams dataclasses are the scene schema: section -> (class, key -> type)
_SCENE_SECTIONS = {name: (kind, _keys(kind)) for name, kind in _keys(SceneParams).items()}


def fmt_float(value: float) -> str:
    """Shortest decimal string that parses back to the identical float64."""
    return repr(float(value))


def _build(cls, raw: Mapping[str, str], where: Callable[[str], str], prefix: str = "", **given):
    """Dataclass ``cls`` from the strings ``raw[prefix + key]``, one per schema key.

    Each string is converted by its key's type; ``given`` supplies the other
    fields.  A missing key raises ``KeyError``.  A bad value raises
    :class:`SceneFormatError` at ``where(prefix + key)`` for the key it is
    about, or at ``where(prefix)`` when the dataclass check names no key.
    """
    values, keys = dict(given), _keys(cls)
    for key, kind in keys.items():
        text = raw[prefix + key]
        try:
            values[key] = kind(text)
        except ValueError as exc:
            raise SceneFormatError(
                f"{where(prefix + key)}: '{text}' is not a valid {kind.__name__} for {key}"
            ) from exc
    try:
        return cls(**values)
    except ValueError as exc:
        key = next((k for k in keys if re.search(rf"\b{k}\b", str(exc))), "")
        raise SceneFormatError(f"{where(prefix + key)}: {exc}") from exc


def _scene_from_flat(
    flat: Mapping[str, str], where: Callable[[str], str], prefix: str = ""
) -> SceneParams:
    return SceneParams(**{section: _build(cls, flat, where, f"{prefix}{section}.")
                          for section, (cls, _) in _SCENE_SECTIONS.items()})


def parse_scene_text(text: str, source: str = "<string>") -> SceneParams:
    """Parse a scene document; reject unknown, duplicate and missing keys with locations."""
    flat: dict[str, str] = {}
    lines: dict[str, int] = {}  # "section." and "section.key" -> 1-based line number
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        where = f"{source}:{lineno}"
        # a comment starts at '#' or ';' that opens the line or follows whitespace
        body = re.sub(r"(^|\s)[#;].*", "", line).strip()
        if not body:
            continue
        pair = re.fullmatch(r"([^=:]+)[=:](.*)", body)
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1]
            if section not in _SCENE_SECTIONS:
                raise SceneFormatError(f"{where}: unknown section {body}; expected one of "
                                       f"{', '.join(_SCENE_SECTIONS)}")
            name, what = section + ".", f"section {body}"
        elif pair is None:
            raise SceneFormatError(f"{where}: expected '[section]' or 'key = value', got {body!r}")
        elif section is None:
            raise SceneFormatError(f"{where}: key before the first [section]")
        else:
            key = pair[1].strip().lower()
            if key not in _SCENE_SECTIONS[section][1]:
                raise SceneFormatError(f"{where}: unknown key '{key}' in [{section}]")
            name, what = f"{section}.{key}", f"key '{key}' in [{section}]"
            flat[name] = pair[2].strip()
        if name in lines:
            raise SceneFormatError(f"{where}: duplicate {what}, first at line {lines[name]}")
        lines[name] = lineno
    for section, (_, keys) in _SCENE_SECTIONS.items():
        if section + "." not in lines:
            raise SceneFormatError(f"{source}: missing section [{section}]")
        missing = [key for key in keys if f"{section}.{key}" not in flat]
        if missing:
            raise SceneFormatError(f"{source}: missing key '{missing[0]}' in [{section}]")
    return _scene_from_flat(flat, lambda name: f"{source}:{lines[name]}")


def _format_value(kind: type, value) -> str:
    """A key's value, formatted by its schema type (not the value's type)."""
    return fmt_float(value) if kind is float else str(value)


def parse_scene(path: PathLike) -> SceneParams:
    path = Path(path)
    return parse_scene_text(path.read_text(encoding="utf-8-sig"), source=str(path))


def format_scene(params: SceneParams) -> str:
    flat, out = flatten_scene_params(params), []
    for section, (_, keys) in _SCENE_SECTIONS.items():
        out.append(f"[{section}]")
        out.extend(f"{key} = {flat[section + '.' + key]}" for key in keys)
        out.append("")
    return "\n".join(out)


def write_scene(params: SceneParams, path: PathLike) -> None:
    _atomic_write(path, [format_scene(params)])


def flatten_scene_params(params: SceneParams, prefix: str = "") -> dict[str, str]:
    """Stable ``<prefix>section.key -> formatted value`` view (hashing, file headers)."""
    return {f"{prefix}{section}.{key}": _format_value(kind, getattr(getattr(params, section), key))
            for section, (_, keys) in _SCENE_SECTIONS.items() for key, kind in keys.items()}


def scene_params_from_flat(flat: Mapping[str, str], prefix: str = "") -> SceneParams:
    """Inverse of :func:`flatten_scene_params`; errors name the entry they are about."""
    try:
        return _scene_from_flat(flat, lambda name: name.rstrip("."), prefix)
    except KeyError as exc:
        raise SceneFormatError(f"missing scene entry {exc}") from exc


def flatten_campaign_spec(spec: "CampaignSpec") -> dict[str, str]:
    """A campaign spec's own fields, then its ``scene.*`` entries (file headers, hashing)."""
    flat = {name: _format_value(kind, getattr(spec, name))
            for name, kind in _keys(type(spec)).items()}
    flat.update(flatten_scene_params(spec.scene, "scene."))
    return flat


# --------------------------------------------------------------------------
# low-level table plumbing
# --------------------------------------------------------------------------

def _atomic_write(path: PathLike, chunks: Iterable[str]) -> None:
    """Stream ``chunks`` to a temp file beside ``path``, then rename it over ``path``."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _header_lines(header: Mapping[str, str]) -> list[str]:
    """``# key: value`` lines; refuses an entry the readers would not give back: the
    ``columns`` key, a key holding ``:``, or edge whitespace or a line break in either."""
    lines = [f"# {key}: {value}" for key, value in header.items()]
    for (key, value), line in zip(header.items(), lines):
        if (line != f"# {str(key).strip()}: {str(value).strip()}" or key == "columns"
                or ":" in str(key) or line.splitlines() != [line]):
            raise ValueError(f"header entry {line[2:]!r} cannot be read back")
    return lines


def _write_table(
    path: PathLike,
    magic: str,
    header: Optional[Mapping[str, str]],
    columns: Sequence[str],
    rows: Iterable[str],
) -> None:
    """Magic line, ``# key: value`` header lines, the columns line, then the rows."""
    lines = chain([magic], _header_lines(header or {}), ["# columns: " + ",".join(columns)], rows)
    _atomic_write(path, (line + "\n" for line in lines))


def _read_table(
    path: PathLike, magic: str, columns: Sequence[str]
) -> tuple[dict[str, str], np.ndarray]:
    """Returns (header dict, data array of shape (rows, len(columns))).  Header
    lines (blank or ``#``) end at the first data row; numpy parses the rest."""
    path, width = Path(path), len(columns)
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != magic:
            raise TraceIntegrityError(
                f"{path}: not a '{magic.lstrip('# ')}' file (bad first line)"
            )
        header: dict[str, str] = {}
        first: dict[str, int] = {}  # header key -> its line number
        lineno, seen_columns = 1, False
        while True:
            start, line = fh.tell(), fh.readline()
            lineno += 1
            stripped = line.strip()
            if not line or (stripped and not stripped.startswith("#")):
                break
            key, colon, value = stripped.lstrip("#").strip().partition(":")
            if colon and key.strip() == "columns":
                found = [c.strip() for c in value.split(",")]
                if found != list(columns):
                    raise TraceIntegrityError(f"{path}: unexpected columns {found}")
                seen_columns = True
            elif colon:
                key = key.strip()
                if key in first:
                    raise TraceIntegrityError(f"{path}:{lineno}: duplicate header key "
                                              f"{key!r}, first at line {first[key]}")
                header[key], first[key] = value.strip(), lineno
        if not seen_columns:
            raise TraceIntegrityError(f"{path}: missing '# columns:' line")
        if not line:
            raise TraceIntegrityError(f"{path}: no data rows")
        fh.seek(start)
        error: Optional[ValueError] = None
        try:
            data = np.loadtxt(fh, delimiter=",", dtype=np.float64, comments=None,
                              ndmin=2, encoding="utf-8")
            if data.shape[1] == width:
                return header, data
        except ValueError as exc:
            error = exc
        # numpy refused the rows: name the first line a plain scan rejects
        fh.seek(start)
        for lineno, line in enumerate(fh, start=lineno):
            values = line.rstrip("\n").split(",")
            if values == [""]:
                continue
            if len(values) != width:
                raise TraceIntegrityError(
                    f"{path}:{lineno}: row has {len(values)} fields, expected {width}"
                )
            try:
                [float(v) for v in values]
            except ValueError as exc:
                raise TraceIntegrityError(
                    f"{path}:{lineno}: bad data row: {line.strip()!r}"
                ) from exc
    # float() also takes digit underscores and non-ASCII digits; numpy does not
    raise TraceIntegrityError(f"{path}: bad data row: {error}") from error


# --------------------------------------------------------------------------
# convergence traces
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LoadedTrace:
    """A trace file's header and ``evaluated_db`` column; ``iteration`` (1..N) and
    ``cumulative_db`` (the running minimum the file's column was checked against)
    are derived on access."""

    header: dict[str, str]
    evaluated_db: np.ndarray
    iteration = property(lambda self: np.arange(1, self.evaluated_db.size + 1))
    cumulative_db = property(lambda self: np.minimum.accumulate(self.evaluated_db))


def write_trace(
    trace: "ConvergenceTrace", path: PathLike, header: Optional[Mapping[str, str]] = None
) -> None:
    """One row per evaluation: iteration (1-based), reading, running best.

    Wall-clock time is deliberately not serialized: apart from the
    ``created_utc`` stamp the bytes depend only on the run's inputs.
    """
    meta: dict[str, str] = {"algorithm": trace.algorithm}
    if trace.buffer_size is not None:
        meta["buffer_size"] = str(trace.buffer_size)
    if trace.stall_limit is not None:
        meta["stall_limit"] = str(trace.stall_limit)
    meta["iterations_total"] = str(trace.iterations_total)
    meta["final_db"] = fmt_float(trace.best_reading.magnitude_db)
    for key, value in (header or {}).items():
        if str(key).strip() in TRACE_KEYS:
            raise ValueError(f"header entry {key!r} clashes with a key write_trace derives")
        meta[str(key)] = str(value)
    cu = np.inf  # the running minimum, streamed; a tie takes the later value, as numpy's does
    rows = (f"{i},{fmt_float(ev)},{fmt_float(cu := ev if ev <= cu else cu)}"
            for i, ev in enumerate(trace.evaluated, start=1))
    _write_table(path, TRACE_MAGIC, meta, TRACE_COLUMNS, rows)


def read_trace(path: PathLike) -> LoadedTrace:
    """Load a trace table; rejects tampered cumulative columns and a header
    whose ``iterations_total`` or ``final_db`` disagrees with the rows."""
    header, data = _read_table(path, TRACE_MAGIC, TRACE_COLUMNS)
    if not np.array_equal(data[:, 0], np.arange(1, data.shape[0] + 1)):
        raise TraceIntegrityError(f"{path}: iteration column must count 1..N")
    evaluated = data[:, 1].copy()  # so the (rows, 3) table is freed on return
    cumulative = data[:, 2]
    expected = np.minimum.accumulate(evaluated)
    if not np.array_equal(cumulative, expected):
        bad = int(np.nonzero(cumulative != expected)[0][0])
        raise TraceIntegrityError(
            f"{path}: cumulative column is not the running minimum "
            f"(first mismatch at iteration {bad + 1})"
        )
    # final_db is the incumbent's reading: the earliest that equals the rows' minimum
    final = evaluated[np.argmax(cumulative == cumulative[-1])]
    for key, expected in (("iterations_total", str(data.shape[0])),
                          ("final_db", fmt_float(final))):
        if header.get(key) != expected:
            raise TraceIntegrityError(
                f"{path}: {key} is {header.get(key)} but the rows give {expected}"
            )
    return LoadedTrace(header, evaluated)


# --------------------------------------------------------------------------
# configuration grids
# --------------------------------------------------------------------------

def config_rows(config: RisConfig) -> list[str]:
    """One 0/1 string per surface row."""
    return ["".join("1" if v else "0" for v in row) for row in config.states]


def write_config_grid(
    config: RisConfig, path: PathLike, header: Optional[Mapping[str, str]] = None
) -> None:
    lines = [CONFIG_MAGIC, *_header_lines(header or {}), *config_rows(config)]
    _atomic_write(path, ["\n".join(lines) + "\n"])


def read_config_grid(path: PathLike) -> RisConfig:
    path, rows = Path(path), []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if set(stripped) - {"0", "1"}:
            raise SceneFormatError(f"{path}:{lineno}: config rows must be 0/1 strings")
        rows.append([c == "1" for c in stripped])
    if not rows:
        raise SceneFormatError(f"{path}: no configuration rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise SceneFormatError(f"{path}: config rows have inconsistent lengths")
    return RisConfig(np.asarray(rows, dtype=bool))


# --------------------------------------------------------------------------
# campaigns
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LoadedCampaign:
    spec: "CampaignSpec"
    header: dict[str, str]
    mean_curve_db: np.ndarray
    final_values_db: np.ndarray
    spec_hash = property(lambda self: self.header["spec_hash"])  # checked against the spec


def write_campaign(result: "CampaignResult", path: PathLike) -> None:
    """Mean convergence curve plus enough metadata to re-run the campaign."""
    meta = {
        "created_utc": result.created_utc,
        "spec_hash": result.spec_hash,
        **flatten_campaign_spec(result.spec),
        **{key: fmt_float(stat(result.final_values)) for key, stat in FINAL_STATS.items()},
        "final_values_db": ";".join(fmt_float(v) for v in result.final_values),
    }
    rows = (f"{i},{fmt_float(value)}" for i, value in enumerate(result.mean_curve, start=1))
    _write_table(path, CAMPAIGN_MAGIC, meta, CAMPAIGN_COLUMNS, rows)


def read_campaign(path: PathLike) -> LoadedCampaign:
    from .experiment import CampaignSpec, campaign_spec_hash  # deferred: cycle

    header, data = _read_table(path, CAMPAIGN_MAGIC, CAMPAIGN_COLUMNS)
    try:
        spec = _build(CampaignSpec, header, lambda name: name or "campaign",
                      scene=scene_params_from_flat(header, "scene."))
    except KeyError as exc:
        raise TraceIntegrityError(f"{path}: incomplete campaign header: {exc}") from exc
    except ValueError as exc:
        raise TraceIntegrityError(f"{path}: bad campaign header: {exc}") from exc
    if campaign_spec_hash(spec) != header.get("spec_hash"):
        raise TraceIntegrityError(
            f"{path}: spec hash mismatch; header was edited or written by an "
            f"incompatible version"
        )
    if data.shape[0] != spec.horizon:
        raise TraceIntegrityError(
            f"{path}: {data.shape[0]} curve rows but horizon {spec.horizon}"
        )
    finals = []
    for entry in filter(None, header.get("final_values_db", "").split(";")):
        try:
            finals.append(float(entry))
        except ValueError as exc:
            raise TraceIntegrityError(f"{path}: bad final_values_db entry {entry!r}") from exc
    finals = np.asarray(finals, dtype=np.float64)
    if finals.size != spec.runs:
        raise TraceIntegrityError(f"{path}: {finals.size} final values for {spec.runs} runs")
    if np.isnan(finals).any():  # -inf stays: exact cancellation reads -inf
        raise TraceIntegrityError(f"{path}: final_values_db holds NaN; no run ends in NaN")
    # the statistics CampaignResult reports, from the same values in the same order
    for key, stat in FINAL_STATS.items():
        expected = fmt_float(float(stat(finals)))
        if header.get(key) != expected:
            raise TraceIntegrityError(
                f"{path}: {key} is {header.get(key)} but final_values_db give {expected}"
            )
    if not np.array_equal(data[:, 0], np.arange(1, spec.horizon + 1)):
        raise TraceIntegrityError(f"{path}: iteration column must count 1..horizon")
    # each run's curve is non-increasing and the runs are summed in a fixed
    # order, so the mean can only fall (rounding is monotone); NaN fails too
    curve = data[:, 1].copy()  # so the (rows, 2) table is freed on return
    rises = np.flatnonzero(~(curve[1:] <= curve[:-1]))
    if rises.size:
        raise TraceIntegrityError(
            f"{path}: mean curve rises at iteration {rises[0] + 2}; runs never get worse"
        )
    return LoadedCampaign(spec=spec, header=header, mean_curve_db=curve, final_values_db=finals)


# --------------------------------------------------------------------------
# bandwidth sweeps and transfer snapshots
# --------------------------------------------------------------------------

def write_sweep(
    results: Sequence["CampaignResult"], path: PathLike, header: Optional[Mapping[str, str]] = None
) -> None:
    lines = (
        f"{fmt_float(r.spec.scene.grid.bandwidth_hz)},{r.spec.scene.grid.points},{r.spec.runs},"
        + ",".join(fmt_float(stat(r.final_values)) for stat in FINAL_STATS.values())
        for r in results
    )
    _write_table(path, SWEEP_MAGIC, header, SWEEP_COLUMNS, lines)


def write_snapshot(
    freqs_hz: np.ndarray,
    si_db: np.ndarray,
    path: PathLike,
    header: Optional[Mapping[str, str]] = None,
) -> None:
    rows = (f"{fmt_float(f)},{fmt_float(v)}" for f, v in zip(freqs_hz, si_db))
    _write_table(path, SNAPSHOT_MAGIC, header, SNAPSHOT_COLUMNS, rows)


def read_snapshot(path: PathLike) -> tuple[dict[str, str], np.ndarray, np.ndarray]:
    header, data = _read_table(path, SNAPSHOT_MAGIC, SNAPSHOT_COLUMNS)
    return header, data[:, 0], data[:, 1]
