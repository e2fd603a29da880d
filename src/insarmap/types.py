"""Radar configuration, virtual-array geometry, platform trajectory types,
the marker of an array kept in a file, and the one rule every stored value
obeys (round_rows, check_finite, held_values).

Conventions used throughout the package:
    - Array frame: x = along-track (direction of travel), y = cross-track
      (boresight), z = up.  Element offsets are expressed in this frame.
    - World frame: arbitrary right-handed metric frame; poses map array
      coordinates into it.
    - A virtual element (VX) is the monostatic-equivalent phase center of a
      TX/RX pair, located at the midpoint (tx + rx) / 2.  With this
      convention the two-way path to a far-field source equals 2 * |p - vx|
      to first order, so a vertical VX separation d_v produces the phase
      delay 4*pi*(d_v/lambda)*sin(phi) used by the interferometry stage.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DomainError

C_LIGHT = 299_792_458.0  # m/s

# TDM limits the unambiguous platform velocity; exceeding this is legal but
# produces azimuth aliasing, so it only warns.
SPEED_LIMIT_MPS = 9.0

# Two VX belong to the same vertical baseline when their horizontal offsets
# agree to this tolerance.  Geometry comes from exact config values, so the
# tolerance only absorbs arithmetic noise.
HORIZONTAL_TOL_M = 1e-9


@dataclass(frozen=True)
class ChirpConfig:
    """FMCW chirp timing, sampling, and TDM frame structure.

    Attributes:
        center_frequency_hz: carrier center frequency.
        ramp_slope_hz_per_s: chirp frequency ramp slope.
        samples_per_chirp: fast-time samples recorded per chirp (>= 2).
        sample_rate_sps: ADC sample rate, samples per second.
        pri_s: chirp-to-chirp pulse repetition interval in seconds.
        chirps_per_tx_per_frame: chirps each TX fires per frame.
        num_tx: number of transmitters cycled through by TDM.
    """

    center_frequency_hz: float
    ramp_slope_hz_per_s: float
    samples_per_chirp: int
    sample_rate_sps: float
    pri_s: float
    chirps_per_tx_per_frame: int
    num_tx: int

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(float(value)) or value <= 0:
                raise ConfigError(f"ChirpConfig.{field.name} must be strictly positive, got {value!r}")
        if self.samples_per_chirp < 2:
            raise ConfigError("ChirpConfig.samples_per_chirp must be >= 2")
        if self.pulse_length_s > self.pri_s:
            raise ConfigError(
                f"pulse length {self.pulse_length_s:.3e} s exceeds PRI {self.pri_s:.3e} s"
            )

    @property
    def pulse_length_s(self) -> float:
        return self.samples_per_chirp / self.sample_rate_sps


@dataclass(frozen=True)
class DerivedChirpParams:
    """Quantities derived from a ChirpConfig (see derive_chirp_params)."""

    wavelength_m: float
    bandwidth_hz: float
    pulse_length_s: float
    range_resolution_m: float
    max_range_m: float
    effective_pri_s: float


def derive_chirp_params(cfg: ChirpConfig) -> DerivedChirpParams:
    """Derive wavelength, bandwidth, resolution, max range, and effective PRI.

    wavelength   = c / f_c
    bandwidth    = slope * pulse_length
    range res    = c / (2 * bandwidth)
    max range    = c * sample_rate / (2 * slope)   (complex sampling)
    effective PRI = num_tx * pri                   (full TDM cycle)
    """
    pulse = cfg.pulse_length_s
    bandwidth = cfg.ramp_slope_hz_per_s * pulse
    return DerivedChirpParams(
        wavelength_m=C_LIGHT / cfg.center_frequency_hz,
        bandwidth_hz=bandwidth,
        pulse_length_s=pulse,
        range_resolution_m=C_LIGHT / (2.0 * bandwidth),
        max_range_m=C_LIGHT * cfg.sample_rate_sps / (2.0 * cfg.ramp_slope_hz_per_s),
        effective_pri_s=cfg.num_tx * cfg.pri_s,
    )


@dataclass(frozen=True, eq=False)
class VerticalBaseline:
    """Pair of VX sharing horizontal position, separated vertically.

    lower_vx / upper_vx index into VirtualArray.vx_positions; separation_m is
    the vertical VX distance d_v (always > 0).
    """

    lower_vx: int
    upper_vx: int
    separation_m: float


@dataclass(frozen=True, eq=False)
class VirtualArray:
    """TX/RX element layout plus the derived virtual elements and baselines."""

    tx_positions: np.ndarray  # (n_tx, 3)
    rx_positions: np.ndarray  # (n_rx, 3)
    vx_positions: np.ndarray  # (n_tx * n_rx, 3), TX-major, (tx + rx) / 2
    vertical_baselines: tuple[VerticalBaseline, ...]

    @property
    def n_tx(self) -> int:
        return self.tx_positions.shape[0]

    @property
    def n_rx(self) -> int:
        return self.rx_positions.shape[0]

    @property
    def n_vx(self) -> int:
        return self.vx_positions.shape[0]

    def vx_index(self, tx_index: int, rx_index: int) -> int:
        return tx_index * self.n_rx + rx_index


def build_virtual_array(tx_positions, rx_positions) -> VirtualArray:
    """Enumerate virtual elements and vertical baselines for a TX/RX layout.

    VX positions are the TX/RX midpoints (monostatic-equivalent phase
    centers), listed TX-major.  Vertical baselines are all VX pairs whose
    horizontal offsets agree within HORIZONTAL_TOL_M and whose heights
    differ, ordered lower element first.  Zero vertical baselines is legal;
    the interferometry stage rejects such arrays itself.
    """
    tx = np.atleast_2d(np.asarray(tx_positions, dtype=float))
    rx = np.atleast_2d(np.asarray(rx_positions, dtype=float))
    if tx.size == 0 or rx.size == 0:
        raise ConfigError("need at least one TX and one RX position")
    if tx.shape[1] != 3 or rx.shape[1] != 3:
        raise ConfigError("element positions must be 3D offsets")
    if not (np.isfinite(tx).all() and np.isfinite(rx).all()):
        raise ConfigError("element positions must be finite")

    vx = (0.5 * (tx[:, None] + rx[None, :])).reshape(-1, 3)
    vx.setflags(write=False)

    baselines = []
    for a in range(len(vx)):
        for b in range(a + 1, len(vx)):
            pa = vx[a]
            pb = vx[b]
            if (
                abs(pa[0] - pb[0]) <= HORIZONTAL_TOL_M
                and abs(pa[1] - pb[1]) <= HORIZONTAL_TOL_M
                and abs(pa[2] - pb[2]) > HORIZONTAL_TOL_M
            ):
                lo, hi = (a, b) if pa[2] < pb[2] else (b, a)
                baselines.append(
                    VerticalBaseline(
                        lower_vx=lo,
                        upper_vx=hi,
                        separation_m=float(abs(pb[2] - pa[2])),
                    )
                )

    tx = tx.copy()
    rx = rx.copy()
    tx.setflags(write=False)
    rx.setflags(write=False)
    return VirtualArray(
        tx_positions=tx,
        rx_positions=rx,
        vx_positions=vx,
        vertical_baselines=tuple(baselines),
    )


def default_virtual_array(wavelength_m: float) -> VirtualArray:
    """Default 3 TX x 4 RX layout producing a dense two-layer virtual array.

    RX sit on the lower layer at along-track offsets {0, l/2, l, 3l/2}.  Two
    TX share that layer at {0, 2l}; the third TX sits above the first at
    height l/2.  The midpoint convention then yields 12 VX in two elevation
    layers l/4 apart: 8 lower, 4 upper, and 4 vertical baselines with
    d_v = l/4, the largest spacing that keeps elevation recovery unambiguous
    over +-90 degrees.
    """
    lam = float(wavelength_m)
    if not (lam > 0 and math.isfinite(lam)):
        raise ConfigError(f"wavelength must be positive, got {lam!r}")
    tx = [
        (0.0, 0.0, 0.0),
        (2.0 * lam, 0.0, 0.0),
        (0.0, 0.0, 0.5 * lam),
    ]
    rx = [(k * lam / 2.0, 0.0, 0.0) for k in range(4)]
    return build_virtual_array(tx, rx)


def check_poses(pose: np.ndarray, row: str) -> np.ndarray:
    """The rule of a pose, applied to each row (time, x, y, z, qw, qx, qy,
    qz) of pose (n, 8): time and position finite, and the scalar-first
    quaternion unit to 1e-9.  Raises ConfigError for the first bad row,
    named by row.format(index) ("record 7"); returns each row's quaternion
    norm, which rounds as np.linalg.norm's does: a stacked (1, 4) @ (4, 1)
    product is the dot product it takes."""
    quat = pose[:, 4:]
    norm = np.sqrt((quat[:, None, :] @ quat[:, :, None])[:, 0, 0])
    finite = np.isfinite(pose[:, :4]).all(axis=1)
    # written so that a NaN norm fails too
    good = finite & (np.abs(norm - 1.0) <= 1e-9)
    if not good.all():
        i = int(np.argmin(good))
        if not finite[i]:
            t, position = float(pose[i, 0]), pose[i, 1:4].tolist()
            raise ConfigError(f"{row.format(i)} time and position must be finite, got {t!r}, {position}")
        raise ConfigError(f"{row.format(i)} quaternion norm {float(norm[i])!r} is not 1 within 1e-9")
    return norm


@dataclass(frozen=True, eq=False)
class Pose:
    """Platform pose: world position plus world-from-array rotation.

    time_s and position must be finite; quaternion is scalar-first
    (w, x, y, z), must be unit to 1e-9 (check_poses), and is stored
    divided by its norm.
    """

    time_s: float
    position: np.ndarray  # (3,)
    quaternion: np.ndarray  # (4,), scalar first

    def __post_init__(self) -> None:
        parts = [[self.time_s], np.reshape(self.position, 3), np.reshape(self.quaternion, 4)]
        row = np.concatenate(parts, dtype=float)
        (norm,) = check_poses(row[None], "pose")
        pos, quat = row[1:4], row[4:] / norm
        pos.setflags(write=False)
        quat.setflags(write=False)
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "quaternion", quat)

    def rotation_matrix(self) -> np.ndarray:
        w, x, y, z = self.quaternion
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )

    def to_world(self, offsets: np.ndarray) -> np.ndarray:
        """Map array-frame offsets (..., 3) into world coordinates."""
        offsets = np.asarray(offsets, dtype=float)
        return offsets @ self.rotation_matrix().T + self.position


def _slerp(q0: np.ndarray, q1: np.ndarray, frac: float) -> np.ndarray:
    """Spherical interpolation between unit quaternions (shortest arc)."""
    dot = float(np.dot(q0, q1))
    if dot < 0.0:
        q1 = -q1
        dot = -dot
    if dot > 1.0 - 1e-12:
        q = q0 + frac * (q1 - q0)  # nearly parallel: lerp is exact enough
        return q / np.linalg.norm(q)
    omega = math.acos(min(dot, 1.0))
    s = math.sin(omega)
    q = (math.sin((1.0 - frac) * omega) * q0 + math.sin(frac * omega) * q1) / s
    return q / np.linalg.norm(q)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered sequence of poses with strictly increasing timestamps."""

    poses: tuple[Pose, ...]

    def __post_init__(self) -> None:
        poses = tuple(self.poses)
        if not poses:
            raise ConfigError("trajectory must contain at least one pose")
        times = np.array([p.time_s for p in poses])
        if np.any(np.diff(times) <= 0):
            raise ConfigError("trajectory times must be strictly increasing")
        object.__setattr__(self, "poses", poses)
        speed = self.max_speed_mps()
        if speed > SPEED_LIMIT_MPS:
            warnings.warn(
                f"trajectory speed {speed:.2f} m/s exceeds the {SPEED_LIMIT_MPS:.0f} m/s "
                "TDM operating limit; expect azimuth aliasing",
                UserWarning,
                stacklevel=2,
            )

    @property
    def start_time_s(self) -> float:
        return self.poses[0].time_s

    @property
    def end_time_s(self) -> float:
        return self.poses[-1].time_s

    def max_speed_mps(self) -> float:
        if len(self.poses) < 2:
            return 0.0
        pos = np.array([p.position for p in self.poses])
        dt = np.diff([p.time_s for p in self.poses])
        return float(np.max(np.linalg.norm(np.diff(pos, axis=0), axis=1) / dt))


def pose_at_time(traj: Trajectory, t: float) -> Pose:
    """Interpolate the trajectory: linear in position, slerp in orientation.

    Raises DomainError when t falls outside the sampled span; returns the
    stored pose exactly at sample times.
    """
    times = [p.time_s for p in traj.poses]
    if t < times[0] or t > times[-1]:
        raise DomainError(
            f"time {t!r} outside trajectory span [{times[0]!r}, {times[-1]!r}]"
        )
    i = bisect.bisect_left(times, t)
    if i < len(times) and times[i] == t:
        return traj.poses[i]
    lo = traj.poses[i - 1]
    hi = traj.poses[i]
    frac = (t - lo.time_s) / (hi.time_s - lo.time_s)
    return Pose(
        time_s=t,
        position=lo.position + frac * (hi.position - lo.position),
        quaternion=_slerp(lo.quaternion, hi.quaternion, frac),
    )


class ArrayStore:
    """A complex64 array kept in a file rather than in memory, such as
    formats.ArrayFile: a capture's samples (n_records, samples_per_chirp)
    or a stack's images (n_vx, n_u, n_v).  A store stands in for the array
    where the pipeline reads and writes it: it has shape, dtype and len;
    store[key] reads what key selects into a new complex64 array, as from
    the array, for any key on the leading axes and an int or a unit-step
    slice on the last, and refuses a non-finite value; store[key] = values
    writes, while the store is writable; setflags(write=...) allows or
    forbids writing, as on an array; iterating reads one row of the first
    axis at a time; and np.asarray(store) reads every value.  held_values
    keeps a store as it is, so its values are checked as they are read."""

    dtype = np.dtype(np.complex64)


class Rows(NamedTuple):
    """How refusals name an artifact's rows, the first axis of its values
    (a 1-D array is one row): name says what the rows are ("records"), row
    formats one row's index ("record {}"; "snr_db plane" names one plane),
    and values says what a row holds ("samples")."""

    name: str
    row: str
    values: str

    def beyond_range(self, index: int) -> str:
        return f"{self.row.format(index)} holds {self.values} beyond float32 range"

    def non_finite(self, index: int) -> str:
        return f"{self.row.format(index)} holds non-finite {self.values}"


def _first_row(bad: np.ndarray) -> int | None:
    """The index of the first row of bad that holds True, or None."""
    bad = np.atleast_2d(bad)
    rows = bad.reshape(bad.shape[0], -1).any(axis=1)
    return int(np.argmax(rows)) if rows.any() else None


def round_rows(values, out: np.ndarray, rows: Rows, first: int = 0) -> np.ndarray:
    """Round values into out, a float32 or complex64 array of their shape,
    and return out.  Raises ConfigError for the first row that held a finite
    value float32 cannot hold; first is the index of values' first row."""
    with np.errstate(over="ignore"):
        out[...] = values
    # the float32 view is the fast test; a non-finite value needs the slow one
    if not np.isfinite(out.view(np.float32)).all():
        lost = _first_row(np.isfinite(out) != np.isfinite(values))
        if lost is not None:
            raise ConfigError(rows.beyond_range(first + lost))
    return out


def check_finite(values: np.ndarray, rows: Rows, first: int = 0) -> None:
    """Raise ConfigError for the first row of values that holds a
    non-finite value; first is the index of values' first row."""
    finite = np.isfinite(values)
    if not finite.all():
        raise ConfigError(rows.non_finite(first + _first_row(~finite)))


def held_values(values, rows: Rows, block: int):
    """values as a capture holds its samples and a stack its images, made
    read-only: an ArrayStore as it is, checked as it is read; anything else
    a complex64 array, rounded, then checked, block rows at a time, so no
    mask of the whole array is made and any overflow is refused first."""
    if not isinstance(values, ArrayStore):
        values = np.asarray(values)
        if values.dtype != np.complex64:
            rounded = np.empty(values.shape, dtype=np.complex64)
            for lo in range(0, len(values), block):
                round_rows(values[lo : lo + block], rounded[lo : lo + block], rows, lo)
            values = rounded
        for lo in range(0, len(values), block):
            check_finite(values[lo : lo + block], rows, lo)
    values.setflags(write=False)
    return values
