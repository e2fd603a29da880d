"""Point-target FMCW capture synthesis with TDM scheduling.

The synthesized samples are complex (I/Q) dechirped beat signals.  For a
target at two-way delay tau the beat is

    a[n] = amplitude * exp(j*2*pi*(slope*tau*n/fs + f_c*tau))

The residual video phase term slope*tau^2/2 is deliberately dropped: at a
few percent fractional bandwidth it is far below the phase tolerances of
the interferometric stage, and dropping it keeps the beat a pure tone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError
from .types import (
    C_LIGHT,
    ChirpConfig,
    Pose,
    Trajectory,
    VirtualArray,
    pose_at_time,
)


@dataclass(frozen=True, eq=False)
class PointTarget:
    """Idealized point scatterer with linear reflectivity amplitude."""

    position: np.ndarray  # (3,), world frame
    amplitude: float

    def __post_init__(self) -> None:
        pos = np.asarray(self.position, dtype=float).reshape(3)
        if not np.isfinite(pos).all():
            raise ConfigError("target position must be finite")
        if not (np.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ConfigError(f"target amplitude must be >= 0, got {self.amplitude!r}")
        pos.setflags(write=False)
        object.__setattr__(self, "position", pos)


@dataclass(frozen=True)
class Scene:
    """Collection of point targets."""

    targets: tuple[PointTarget, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))

    def __len__(self) -> int:
        return len(self.targets)


@dataclass(frozen=True, eq=False)
class PulseRecord:
    """One received chirp: which TX fired, which RX listened, where, when.

    pose is the platform pose shared by the whole TDM cycle (start-stop
    approximation anchored at the cycle's first chirp); time_s is the actual
    emission time of this chirp within the cycle.
    """

    time_s: float
    cycle: int
    tx: int
    rx: int
    pose: Pose
    samples: np.ndarray  # (samples_per_chirp,) complex

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.complex128)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True, eq=False)
class RawCapture:
    """Time-ordered pulse records, stored as columns, plus the config and
    array that made them.

    Row i is one received chirp: samples[i] (complex fast-time samples)
    recorded by RX rx[i] while TX tx[i] fired at time_s[i] in TDM cycle
    cycle[i], from platform pose poses[pose_index[i]].  The pose table holds
    each distinct pose once; a synthesized capture has one pose per cycle.
    All arrays are read-only.
    """

    config: ChirpConfig
    array: VirtualArray
    samples: np.ndarray  # (n_records, samples_per_chirp) complex128
    tx: np.ndarray  # (n_records,) int
    rx: np.ndarray  # (n_records,) int
    cycle: np.ndarray  # (n_records,) int
    time_s: np.ndarray  # (n_records,) float
    poses: tuple[Pose, ...]
    pose_index: np.ndarray  # (n_records,) int into poses

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.complex128)
        n = self.config.samples_per_chirp
        if samples.ndim != 2 or samples.shape[1] != n:
            raise ConfigError(f"capture samples shape {samples.shape} != (n_records, {n})")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "poses", tuple(self.poses))
        for name, dtype, limit in (
            ("tx", np.intp, self.array.n_tx),
            ("rx", np.intp, self.array.n_rx),
            ("cycle", np.intp, np.inf),
            ("pose_index", np.intp, len(self.poses)),
            ("time_s", np.float64, None),
        ):
            col = np.array(getattr(self, name), dtype=dtype)
            if col.shape != samples.shape[:1]:
                raise ConfigError(f"RawCapture.{name} shape {col.shape} != ({samples.shape[0]},)")
            if limit is not None and col.size and not (col.min() >= 0 and col.max() < limit):
                raise ConfigError(f"RawCapture.{name} values must lie in [0, {limit})")
            col.setflags(write=False)
            object.__setattr__(self, name, col)
        if np.any(np.diff(self.time_s) < 0):
            raise ConfigError("pulse records must be ordered by time")

    @property
    def n_records(self) -> int:
        return self.samples.shape[0]

    @property
    def n_cycles(self) -> int:
        return int(self.cycle[-1]) + 1 if self.n_records else 0

    def duration_s(self) -> float:
        return float(self.time_s[-1] - self.time_s[0]) if self.n_records else 0.0

    @cached_property
    def records(self) -> tuple[PulseRecord, ...]:
        """Per-record view of the columns, built on first access.  Records
        with the same pose index share one Pose object; samples are
        read-only views into the capture's sample array."""
        return tuple(
            PulseRecord(time_s=t, cycle=c, tx=tx, rx=rx, pose=self.poses[k], samples=row)
            for t, c, tx, rx, k, row in zip(
                self.time_s.tolist(), self.cycle.tolist(), self.tx.tolist(),
                self.rx.tolist(), self.pose_index.tolist(), self.samples,
            )
        )


def _pattern_gain(boresight: np.ndarray, element_pos: np.ndarray, target_pos: np.ndarray, power: float) -> float:
    """Cosine-power element gain toward a target; zero behind the element."""
    direction = target_pos - element_pos
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        return 1.0
    cos = float(np.dot(boresight, direction) / norm)
    return cos**power if cos > 0.0 else 0.0


def synthesize_chirp(
    scene: Scene,
    tx_pos_world: np.ndarray,
    rx_pos_world: np.ndarray,
    cfg: ChirpConfig,
    pattern: tuple[float, np.ndarray] | None = None,
) -> np.ndarray:
    """Synthesize one dechirped fast-time vector for fixed TX/RX positions.

    Target contributions add linearly, accumulated in scene order.
    Elements are isotropic by default; pattern = (cosine power, boresight
    unit vector in world coordinates) weights each target's amplitude by
    cos(angle off boresight)**power on both the TX and RX legs, for
    field-of-view studies.  Patterns change amplitudes only, never phases.
    """
    if len(scene) == 0:
        raise ConfigError("scene is empty")
    tx_pos = np.asarray(tx_pos_world, dtype=float).reshape(3)
    rx_pos = np.asarray(rx_pos_world, dtype=float).reshape(3)
    if not (np.isfinite(tx_pos).all() and np.isfinite(rx_pos).all()):
        raise ConfigError("TX/RX positions must be finite")

    n = np.arange(cfg.samples_per_chirp)
    out = np.zeros(cfg.samples_per_chirp, dtype=np.complex128)
    for target in scene.targets:
        tau = (
            np.linalg.norm(target.position - tx_pos)
            + np.linalg.norm(target.position - rx_pos)
        ) / C_LIGHT
        amplitude = target.amplitude
        if pattern is not None:
            power, boresight = pattern
            amplitude = amplitude * _pattern_gain(boresight, tx_pos, target.position, power)
            amplitude = amplitude * _pattern_gain(boresight, rx_pos, target.position, power)
        phase = 2.0 * np.pi * (
            cfg.ramp_slope_hz_per_s * tau * n / cfg.sample_rate_sps
            + cfg.center_frequency_hz * tau
        )
        out += amplitude * np.exp(1j * phase)
    return out


def synthesize_capture(
    scene: Scene,
    traj: Trajectory,
    cfg: ChirpConfig,
    array: VirtualArray,
    aperture_window: tuple[float, float] | None = None,
    pattern_cos_power: float | None = None,
) -> RawCapture:
    """Emit TDM pulse records over a time window of the trajectory.

    Chirps fire at t_k = t0 + k*pri, cycling TX index k mod num_tx; every RX
    records each firing.  The platform pose is sampled once per full TDM
    cycle at the cycle's first chirp and shared by all of that cycle's
    records.  Only complete TDM cycles are emitted so every TX/RX pair stays
    balanced.  pattern_cos_power, when given, applies a cosine-power element
    pattern about the array boresight (+y in the array frame).
    """
    if array.n_tx != cfg.num_tx:
        raise ConfigError(
            f"array has {array.n_tx} TX but config expects {cfg.num_tx}"
        )
    t_start, t_end = aperture_window if aperture_window is not None else (
        traj.start_time_s,
        traj.end_time_s,
    )
    if t_start < traj.start_time_s or t_end > traj.end_time_s:
        raise DomainError(
            f"trajectory [{traj.start_time_s}, {traj.end_time_s}] does not span "
            f"the capture window [{t_start}, {t_end}]"
        )
    effective_pri = cfg.num_tx * cfg.pri_s
    last_offset = (cfg.num_tx - 1) * cfg.pri_s
    n_cycles = 0
    while t_start + n_cycles * effective_pri + last_offset <= t_end:
        n_cycles += 1
    if n_cycles == 0:
        raise DomainError("trajectory too short: no complete TDM cycle fits the window")

    # one row per (cycle, tx, rx), in firing order
    cycle, tx, rx = np.indices((n_cycles, cfg.num_tx, array.n_rx)).reshape(3, -1)
    samples = np.empty((cycle.size, cfg.samples_per_chirp), dtype=np.complex128)
    poses = []
    row = 0
    for cyc in range(n_cycles):
        pose = pose_at_time(traj, t_start + cyc * effective_pri)
        poses.append(pose)
        tx_world = pose.to_world(array.tx_positions)
        rx_world = pose.to_world(array.rx_positions)
        pattern = None
        if pattern_cos_power is not None:
            boresight = pose.rotation_matrix() @ np.array([0.0, 1.0, 0.0])
            pattern = (float(pattern_cos_power), boresight)
        for i_tx in range(cfg.num_tx):
            for i_rx in range(array.n_rx):
                samples[row] = synthesize_chirp(scene, tx_world[i_tx], rx_world[i_rx], cfg, pattern)
                row += 1
    return RawCapture(
        config=cfg,
        array=array,
        samples=samples,
        tx=tx,
        rx=rx,
        cycle=cycle,
        time_s=t_start + cycle * effective_pri + tx * cfg.pri_s,
        poses=tuple(poses),
        pose_index=cycle,
    )


def add_noise(
    capture: RawCapture,
    per_sample_snr_db: float,
    seed: int,
    noise_power: float | None = None,
) -> RawCapture:
    """Add circularly-symmetric complex white Gaussian noise to a capture.

    Noise variance is set so mean signal power / noise power equals
    10**(snr_db/10).  An infinite SNR returns the capture unchanged.  An
    all-zero capture has no power to scale against and raises DomainError
    unless an absolute noise_power override is given.  Deterministic for a
    fixed seed.
    """
    if capture.n_records == 0:
        raise DomainError("capture is empty")
    if np.isinf(per_sample_snr_db) and per_sample_snr_db > 0:
        return capture

    if noise_power is None:
        mean_power = float(np.mean(np.mean(np.abs(capture.samples) ** 2, axis=1)))
        if mean_power == 0.0:
            raise DomainError(
                "capture has zero signal power; pass noise_power to add noise anyway"
            )
        noise_power = mean_power / 10.0 ** (per_sample_snr_db / 10.0)

    rng = np.random.default_rng(seed)
    sigma = np.sqrt(noise_power / 2.0)
    noise = rng.standard_normal((capture.n_records, capture.config.samples_per_chirp, 2))
    # In place, so at most three capture-sized arrays are alive: the clean
    # samples, the draw and the result.  Same floats as
    # samples + sigma * (noise[..., 0] + 1j * noise[..., 1]).
    noisy = noise[..., 1] * 1j
    noisy += noise[..., 0]
    noisy *= sigma
    noisy += capture.samples
    return replace(capture, samples=noisy)
