"""Frequency-domain self-interference channel: direct leakage plus surface paths.

A :class:`Scene` freezes the whole channel at construction: the direct
antenna-to-antenna leakage coefficient, per-element incident channels ``h``
(transmit antenna to element) and reflected channels ``g`` (element to receive
antenna), one complex value per grid frequency.  The composite transfer
function under a surface configuration is

    H(f) = direct(f) + sum_i h_i(f) * gamma_i(state_i, f) * g_i(f)

with ``gamma_i`` the two-state element reflection from :mod:`ris_sic.cell`;
:func:`transfer_vector` reads each term from a per-scene two-state table.  All
SI magnitudes are transfer functions relative to unit transmit amplitude, so
results are in dB; add the transmit power to obtain dBm.

Geometry: the surface lies in the x-z plane centered at the origin, elements
on a regular pitch grid; the two antennas sit at ``y = distance`` separated
along x.  Per-element amplitudes follow the free-space budget of
:func:`ris_sic.budget.fspl_db` at the exact element-antenna distance (the
antennas are inside the Fraunhofer distance of the full surface, so no
plane-wave approximation is made), and phases follow the propagation delay.

Static multipath ("clutter") is modeled as a small set of frozen scattering
taps per path: complex Gaussian gains at random excess delays, scaled to a
configurable power relative to the deterministic path.  At any single
frequency this is complex Gaussian clutter; across frequency it decorrelates
on the physical coherence-bandwidth scale set by the delay spread.  Channels
and snapshots are built in blocks of frequency points, at most ``FREQ_BLOCK``
(N, K) terms (32 points at 16x16) but never one lone point; see
:func:`freq_blocks`.  That one rule also bounds the clutter: each block's taps
form one (N, M, K) phase tensor, at most 1 MiB at the default 8 taps.  Above
8 taps it grows with the tap count, as the (N, M) tap arrays do, but never
with the number of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .budget import _fspl_db
from .cell import CellParams, UnitCellModel, _immutable
from .model import DEFAULT_CENTER_HZ, Checked, FrequencyGrid, GridSpec, RisConfig, bounded
from .units import C0_M_PER_S, db_to_linear

FREQ_BLOCK = 1 << 13  # (N, K) channel terms alive at once in channels_at and snapshots
_PATH_TERMS_LAST: tuple = (None,) * 6  # (h, g, gamma_on, gamma_off, table, rows)


# --------------------------------------------------------------------------
# scene parameters: the scene-file sections, see ris_sic.sceneio ([cell] is
# ris_sic.cell's CellParams and [grid] is ris_sic.model's GridSpec)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Geometry(Checked):
    nx: int = bounded(16, ge=1)
    ny: int = bounded(16, ge=1)
    pitch_m: float = bounded(C0_M_PER_S / (2.0 * DEFAULT_CENTER_HZ), gt=0.0)
    antenna_distance_m: float = bounded(1.0, gt=0.0)
    antenna_separation_m: float = bounded(0.025, ge=0.0)
    tx_gain_dbi: float = 3.0
    rx_gain_dbi: float = 3.0
    element_gain_dbi: float = 2.0


@dataclass(frozen=True)
class Calibration(Checked):
    alpha_iso_db: float = 44.0
    p_tx_dbm: float = 10.0


@dataclass(frozen=True)
class ClutterParams(Checked):
    relative_power_db: float = -14.0  # -inf disables clutter entirely
    delay_spread_s: float = bounded(30e-9, ge=0.0)
    taps: int = bounded(8, ge=1)
    seed: int = bounded(101, ge=0)
    NEG_INF_OK = ("relative_power_db",)

    @property
    def enabled(self) -> bool:
        return self.relative_power_db != float("-inf")


@dataclass(frozen=True)
class SceneParams:
    geometry: Geometry = Geometry()
    cell: CellParams = CellParams()
    calibration: Calibration = Calibration()
    clutter: ClutterParams = ClutterParams()
    grid: GridSpec = GridSpec()


def default_scene_params() -> SceneParams:
    """The shipped desk-scale setup: 16x16 surface, 1 m antenna standoff,
    5.385 GHz carrier, 44 dB baseline isolation."""
    return SceneParams()


# --------------------------------------------------------------------------
# generative channel model (supports off-grid evaluation for snapshots)
# --------------------------------------------------------------------------

def _tap_response(gains: np.ndarray, delays: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Frozen clutter taps evaluated on a frequency axis.

    gains/delays have shape (..., M); the result has shape (..., K) and unit
    average power per path.  The whole (..., M, K) phase tensor is formed, so
    callers bound its memory by passing few points: ``direct_at`` and ``_hop``
    run once per :func:`freq_blocks` block, at most ``max(2, FREQ_BLOCK // N) + 1``
    points, and ``build_scene``'s calibration passes one.
    """
    phase = -2j * np.pi * delays[..., :, None] * freqs
    np.exp(phase, out=phase)
    return np.einsum("...m,...mk->...k", gains, phase) / math.sqrt(gains.shape[-1])


def freq_blocks(n: int, k: int) -> list[slice]:
    """Slices of ``range(k)`` of ``FREQ_BLOCK // n`` points (at least 2); a lone last
    point, whose rows would be summed pairwise, not in sequence, joins the block before."""
    step = max(2, FREQ_BLOCK // n)
    stops = [*range(step, k - 1, step), k]
    return [slice(a, b) for a, b in zip([0, *stops], stops)]


@dataclass(frozen=True)
class _ChannelModel:
    """Deterministic generator for the channel at arbitrary frequencies."""

    geometry: Geometry
    d_tx_m: np.ndarray  # (N,)
    d_rx_m: np.ndarray  # (N,)
    alpha_amp: float
    center_hz: float
    direct_scale: float
    clutter_amp: float  # linear, relative to each deterministic path; 0 = off
    # clutter (gains, delays): (M,) direct, (N, M) per hop; read only when clutter_amp > 0
    direct_taps: Optional[tuple] = None
    h_taps: Optional[tuple] = None
    g_taps: Optional[tuple] = None

    def direct_at(self, freqs: np.ndarray) -> np.ndarray:
        d = self.geometry.antenna_separation_m
        det = self.alpha_amp * np.exp(-2j * np.pi * freqs * d / C0_M_PER_S)
        if self.clutter_amp > 0.0:
            det = det + self.alpha_amp * self.clutter_amp * _tap_response(*self.direct_taps, freqs)
        return self.direct_scale * det

    def _hop(self, d_m, freqs, g_near_dbi, taps):
        g_element = self.geometry.element_gain_dbi
        loss = _fspl_db(d_m[:, None], freqs[None, :], g_near_dbi, g_element)
        coeff = db_to_linear(-loss) * np.exp(
            -2j * np.pi * freqs[None, :] * d_m[:, None] / C0_M_PER_S)
        if self.clutter_amp > 0.0:
            ref = db_to_linear(-_fspl_db(d_m, self.center_hz, g_near_dbi, g_element))
            coeff = coeff + (self.clutter_amp * ref)[:, None] * _tap_response(*taps, freqs)
        return coeff

    def channels_at(self, freqs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(direct, h, g) sampled at the given frequencies, one block at a time."""
        freqs, geo = np.asarray(freqs, dtype=np.float64), self.geometry
        direct = np.empty(freqs.size, dtype=np.complex128)
        h = np.empty((self.d_tx_m.size, freqs.size), dtype=np.complex128)
        g = np.empty_like(h)
        for b in freq_blocks(h.shape[0], freqs.size):
            direct[b] = self.direct_at(freqs[b])
            h[:, b] = self._hop(self.d_tx_m, freqs[b], geo.tx_gain_dbi, self.h_taps)
            g[:, b] = self._hop(self.d_rx_m, freqs[b], geo.rx_gain_dbi, self.g_taps)
        return direct, h, g


# --------------------------------------------------------------------------
# scene
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Scene(Checked):
    """Frozen frequency-domain SI channel description.

    ``direct`` has shape (K,), ``h`` and ``g`` have shape (N, K) with
    N = nx*ny elements in row-major element order and K grid frequencies.
    Immutable after construction; all evaluation operations are pure.
    """

    grid: FrequencyGrid
    direct: np.ndarray
    h: np.ndarray
    g: np.ndarray
    cell: UnitCellModel
    nx: int = bounded(ge=1)
    ny: int = bounded(ge=1)
    channel_model: Optional[_ChannelModel] = None

    def __post_init__(self):
        super().__post_init__()
        k = self.grid.k
        n = self.nx * self.ny
        direct = np.array(self.direct, dtype=np.complex128)
        h = np.array(self.h, dtype=np.complex128)
        g = np.array(self.g, dtype=np.complex128)
        if direct.shape != (k,):
            raise ValueError(f"direct must have shape ({k},), got {direct.shape}")
        if h.shape != (n, k) or g.shape != (n, k):
            raise ValueError(f"h and g must have shape ({n}, {k})")
        for arr, name in ((direct, "direct"), (h, "h"), (g, "g")):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # every configuration's |H_k| <= |direct_k| + a * sum_i |h_ik||g_ik|, a the larger
        # amplitude; 2x headroom keeps the kernel's complex products and sums finite
        with np.errstate(over="ignore", invalid="ignore"):
            paths, amp = np.abs(h), max(self.cell.amplitude_on, self.cell.amplitude_off)
            for row, g_row in zip(paths, g):  # paths is the one (N, K) temporary
                row *= amp * np.abs(g_row)
            fits = np.isfinite(2.0 * (np.abs(direct) + paths.sum(axis=0))).all()
        if not fits:
            raise ValueError("|direct| + max(a_on, a_off) * sum |h||g| overflows, "
                             "so a configuration's reading could too")

    @property
    def n_elements(self) -> int:
        return self.nx * self.ny

    @classmethod
    def from_arrays(cls, grid, direct, h, g, cell, nx, ny) -> "Scene":
        """Synthetic scene from explicit channel arrays (tests, what-ifs)."""
        return cls(grid=grid, direct=direct, h=h, g=g, cell=cell, nx=nx, ny=ny)

    def channels_at(self, freqs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Channel coefficients at arbitrary frequencies (built scenes only)."""
        if self.channel_model is None:
            raise ValueError("scene has no generative model; off-grid evaluation unsupported")
        return self.channel_model.channels_at(freqs)


def build_scene(params: SceneParams, seed: Optional[int] = None) -> Scene:
    """Construct the calibrated scene for a parameter set.

    Deterministic given the clutter seed (``seed`` overrides
    ``params.clutter.seed`` when provided).  The direct path is scaled so its
    center-frequency magnitude equals ``-alpha_iso_db`` exactly.
    """
    geo, cal, clu, gridspec = params.geometry, params.calibration, params.clutter, params.grid
    grid = FrequencyGrid(gridspec)
    cell = UnitCellModel.with_phase_target(gridspec.center_hz, **vars(params.cell))

    n = geo.nx * geo.ny
    ix, iy = np.divmod(np.arange(n), geo.ny)
    ex = (ix - (geo.nx - 1) / 2.0) * geo.pitch_m
    ez = (iy - (geo.ny - 1) / 2.0) * geo.pitch_m
    tx = np.array([-geo.antenna_separation_m / 2.0, geo.antenna_distance_m, 0.0])
    rx = np.array([+geo.antenna_separation_m / 2.0, geo.antenna_distance_m, 0.0])
    d_tx = np.sqrt((ex - tx[0]) ** 2 + tx[1] ** 2 + (ez - tx[2]) ** 2)
    d_rx = np.sqrt((ex - rx[0]) ** 2 + rx[1] ** 2 + (ez - rx[2]) ** 2)
    if min(d_tx.min(), d_rx.min()) < 1e-9:
        raise ValueError("degenerate geometry: an antenna coincides with a surface element")

    clutter_amp, taps = 0.0, {}
    if clu.enabled:
        rng = np.random.default_rng(np.random.SeedSequence(clu.seed if seed is None else seed))

        def _draw(shape):  # one path's (gains, delays)
            gains = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
            return gains, rng.uniform(0.0, clu.delay_spread_s, size=shape)

        # drawn in this order: the clutter seed fixes every tap
        taps = dict(direct_taps=_draw((clu.taps,)), h_taps=_draw((n, clu.taps)),
                    g_taps=_draw((n, clu.taps)))
        clutter_amp = db_to_linear(clu.relative_power_db)

    model = _ChannelModel(geometry=geo, d_tx_m=d_tx, d_rx_m=d_rx,
                          alpha_amp=db_to_linear(-cal.alpha_iso_db), center_hz=gridspec.center_hz,
                          direct_scale=1.0, clutter_amp=clutter_amp, **taps)
    # Calibrate the direct leakage at the center frequency only.  A leakage that
    # overflows or underflows to 0 gives a NaN scale, which the check refuses, and
    # Scene refuses channels that overflow.
    center = np.array([gridspec.center_hz])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = db_to_linear(-cal.alpha_iso_db) / abs(model.direct_at(center)[0])
        model = replace(model, direct_scale=scale)
        achieved = 20.0 * math.log10(abs(model.direct_at(center)[0]))
        if not abs(achieved + cal.alpha_iso_db) <= 0.1:
            raise RuntimeError(f"direct-path calibration failed: {achieved:.4f} dB "
                               f"vs target {-cal.alpha_iso_db} dB")
        direct, h, g = model.channels_at(grid.points)
    return Scene(grid=grid, direct=direct, h=h, g=g, cell=cell,
                 nx=geo.nx, ny=geo.ny, channel_model=model)


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def _path_terms(h, g, gamma_on, gamma_off, freqs) -> tuple[np.ndarray, np.ndarray]:
    """The (2N, K) table with element i's ``h*gamma_off*g`` at row 2i and its
    ``h*gamma_on*g`` at 2i+1, for reflections read on ``freqs``, and the offsets
    ``2*arange(N)``; memoised as :func:`transfer_vector` describes."""
    global _PATH_TERMS_LAST
    last_h, last_g, last_on, last_off, table, rows = _PATH_TERMS_LAST
    if h is last_h and g is last_g and gamma_on is last_on and gamma_off is last_off:
        return table, rows
    table = np.stack((h * gamma_off * g, h * gamma_on * g), axis=1).reshape(-1, h.shape[-1])
    rows = 2 * np.arange(h.shape[0])
    table.setflags(write=False)
    if _immutable(h, g, freqs):
        _PATH_TERMS_LAST = (h, g, gamma_on, gamma_off, table, rows)
    return table, rows


def transfer_vector(direct, h, g, cell: UnitCellModel, freqs, flat_states) -> np.ndarray:
    """Composite transfer function H at every frequency for one configuration.

    Single canonical kernel: every SI evaluation in the package goes through
    this, so readings from different entry points agree bit-exactly.  Element
    i adds row ``2i + state_i`` of one read-only table stacking its two terms
    (see :func:`_path_terms`).  The last table is reused only for the very
    same ``h``, ``g`` and two reflections, and stored only when ``h``, ``g`` and
    ``freqs`` are immutable, so at most one scene's table stays alive.  The
    gathered (N, K) rows are in C order and ``sum(axis=0)`` fixes the bits
    (rows are added in sequence at K > 1, pairwise at K = 1); a transposed
    table or ``base + S @ (T_on - T_off)`` would not be bit-equal.
    """
    table, rows = _path_terms(h, g, cell.reflection(True, freqs),
                              cell.reflection(False, freqs), freqs)
    return direct + table.take(rows + flat_states, axis=0).sum(axis=0)


def _amplitude_db(transfer: np.ndarray) -> np.ndarray:
    """20*log10 |H| (amplitude dB); a vanished H reads -inf without a warning.

    Zeros occur only at exact cancellation, so the ``errstate`` context, which
    costs more than the check, is entered only when one is present.
    """
    mag = np.abs(transfer)
    if np.count_nonzero(mag) != mag.size:
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(mag)
    return 20.0 * np.log10(mag)


def _check_dims(scene: Scene, config: RisConfig):
    if (config.nx, config.ny) != (scene.nx, scene.ny):
        raise ValueError(
            f"configuration is {config.nx}x{config.ny} but the scene expects "
            f"{scene.nx}x{scene.ny}"
        )


def si_per_point_db(scene: Scene, config: RisConfig) -> np.ndarray:
    """20*log10 |H| per grid point (amplitude dB; -inf where H vanishes)."""
    _check_dims(scene, config)
    full = transfer_vector(scene.direct, scene.h, scene.g, scene.cell,
                           scene.grid.points, config.flat())
    return _amplitude_db(full)

