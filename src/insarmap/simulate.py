"""Point-target FMCW capture synthesis with TDM scheduling.

The synthesized samples are complex (I/Q) dechirped beat signals.  For a
target at two-way delay tau the beat is

    a[n] = amplitude * exp(j*2*pi*(slope*tau*n/fs + f_c*tau))

The residual video phase term slope*tau^2/2 is deliberately dropped: at a
few percent fractional bandwidth it is far below the phase tolerances of
the interferometric stage, and dropping it keeps the beat a pure tone.

Synthesis is block-vectorised: a capture is filled a block of TDM cycles
at a time, with one distance per (cycle, element, target).  A record's beat
is the product of its TX's and its RX's one-way beats, so each block
evaluates one beat row per (element, target), n_tx + n_rx rows per cycle
rather than n_tx * n_rx, and multiplies them per record, into work buffers
made once per capture rather than fresh temporaries per target.  Phases
are range-reduced in float64 before cos and sin, and a beat is within
5e-11 per unit amplitude of the direct two-way np.exp sum for targets
within 30 m.  synthesize_chirp runs the same path with its two elements,
and distances keep np.linalg.norm's rounding, so every block row is
bitwise equal to synthesize_chirp at that record's TX and RX positions;
each block is then rounded to complex64, the precision of an INSARRAW
file, checked finite and written into the capture's samples.  Noise is
drawn a block of _NOISE_ROWS rows at a time from one stream into one
complex128 block, added to the widened clean rows, rounded to complex64
and written back over those rows: add_noise adds the noise in place and
consumes its input.

Samples are read and written only as row blocks (samples[lo:hi],
samples[index], samples[lo:hi] = rows), so the same loops run over a
complex64 array or over a types.ArrayStore, which keeps the rows in a
file.
The simulate stage synthesizes into a store over its output file
(formats.capture_file), so it holds the per-record columns and a few
small work blocks, never the samples of a whole capture.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, RecordError
from .types import (
    C_LIGHT,
    ArrayStore,
    ChirpConfig,
    Pose,
    Trajectory,
    VirtualArray,
    pose_at_time,
)

# Block sizes, which bound the work buffers; results do not depend on them.
# TDM cycles synthesized per step (16 cycles of 12 records x 512 samples are
# 1.5 MiB per complex buffer), and capture rows per noise draw, power sum
# and finiteness check (32 rows x 512 samples are 256 KiB of complex128;
# 16 rows measured no smaller a stage peak).
_SYNTH_CYCLES = 16
_NOISE_ROWS = 32
# The most TDM cycles a capture may hold: its file indexes cycles with a u32.
_MAX_CYCLES = 2**32


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


def _sample_array(samples) -> np.ndarray:
    """Capture samples as complex64, the precision of an INSARRAW file:
    complex64 samples are kept as they are, and any other input is rounded
    by _round_samples."""
    samples = np.asarray(samples)
    if samples.dtype == np.complex64:
        return samples
    rounded = np.empty(samples.shape, dtype=np.complex64)
    _round_samples(samples, rounded, 0)
    return rounded


def _round_rows(values: np.ndarray, out: np.ndarray) -> int | None:
    """Round values into out, a float32 or complex64 array of their shape:
    the precision of the samples, pixels and map planes of every insarmap
    file.  Returns the index of the first
    row that held a finite value float32 cannot hold, which rounded to inf,
    or None when every value kept its finiteness."""
    with np.errstate(over="ignore"):
        out[...] = values
    # the float32 view is the fast test; a non-finite value needs the slow one
    if np.isfinite(out.view(np.float32)).all():
        return None
    lost = np.atleast_2d(np.isfinite(out) != np.isfinite(values)).any(axis=1)
    return int(np.argmax(lost)) if lost.any() else None


def _mean_power(rows: np.ndarray) -> np.ndarray:
    """Each row's mean power, over its samples widened to complex128.  A
    row's mean does not depend on the other rows, so blocks of rows give
    the floats of one pass over the capture."""
    return np.mean(np.abs(rows.astype(np.complex128)) ** 2, axis=1)


def _check_finite(rows: np.ndarray, first_record: int) -> None:
    """Raise RecordError for the first of rows that holds a non-finite
    sample; first_record is the capture index of rows' first row."""
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise RecordError(first_record + int(np.argmin(finite)), "holds non-finite samples")


def _round_samples(values: np.ndarray, out: np.ndarray, first_record: int) -> None:
    """Round sample rows into out, a complex64 array of their shape, by
    _round_rows.  Raises ConfigError for a finite value that float32 cannot
    hold; first_record is the capture index of values' first row, for the
    message."""
    lost = _round_rows(values, out)
    if lost is not None:
        raise RecordError(first_record + lost, "holds samples beyond float32 range")


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
    samples: np.ndarray  # (samples_per_chirp,) complex64, as _sample_array

    def __post_init__(self) -> None:
        samples = _sample_array(self.samples)
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
    Samples and times must be finite, and times ordered.  All arrays are
    read-only, with one exception: add_noise writes its noise into the
    samples of the capture it is given, which it consumes.

    Samples have one dtype, complex64, the precision of an INSARRAW file.
    complex64 samples are kept as they are; any other samples are rounded
    to complex64, and a finite value beyond float32's range raises
    ConfigError ("record N holds samples beyond float32 range").  Samples
    may also be an ArrayStore, whose rows stay in their file; it is kept
    as it is, and checked as its rows are read.
    """

    config: ChirpConfig
    array: VirtualArray
    samples: np.ndarray  # (n_records, samples_per_chirp) complex64
    tx: np.ndarray  # (n_records,) int
    rx: np.ndarray  # (n_records,) int
    cycle: np.ndarray  # (n_records,) int
    time_s: np.ndarray  # (n_records,) float
    poses: tuple[Pose, ...]
    pose_index: np.ndarray  # (n_records,) int into poses

    def __post_init__(self) -> None:
        stored = isinstance(self.samples, ArrayStore)
        samples = self.samples if stored else np.asarray(self.samples)
        n = self.config.samples_per_chirp
        if len(samples.shape) != 2 or samples.shape[1] != n:
            raise ConfigError(f"capture samples shape {samples.shape} != (n_records, {n})")
        if not stored:
            samples = _sample_array(samples)
            # checked a block of rows at a time, so no capture-sized mask is made
            for lo in range(0, samples.shape[0], _NOISE_ROWS):
                _check_finite(samples[lo : lo + _NOISE_ROWS], lo)
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
        if not np.isfinite(self.time_s).all() or np.any(np.diff(self.time_s) < 0):
            raise ConfigError("pulse record times must be finite and ordered")

    @property
    def n_records(self) -> int:
        return self.samples.shape[0]

    @property
    def n_cycles(self) -> int:
        """The number of distinct TDM cycles the records come from, which
        a capture need not number from 0."""
        return int(np.unique(self.cycle).size)

    def duration_s(self) -> float:
        return float(self.time_s[-1] - self.time_s[0]) if self.n_records else 0.0

    @cached_property
    def records(self) -> tuple[PulseRecord, ...]:
        """Per-record view of the columns, built on first access.  Records
        with the same pose index share one Pose object; samples are
        read-only views into the capture's sample array, or into every row
        read at once from an ArrayStore."""
        return tuple(
            PulseRecord(time_s=t, cycle=c, tx=tx, rx=rx, pose=self.poses[k], samples=row)
            for t, c, tx, rx, k, row in zip(
                self.time_s.tolist(), self.cycle.tolist(), self.tx.tolist(),
                self.rx.tolist(), self.pose_index.tolist(), np.asarray(self.samples),
            )
        )


def _with_samples(capture: RawCapture, samples) -> RawCapture:
    """capture on other samples of its shape, complex64 and finite, which
    are made read-only: the columns are shared, not copied or checked
    again, and no cached value is carried over."""
    samples.setflags(write=False)
    result = object.__new__(RawCapture)
    for field in fields(RawCapture):
        object.__setattr__(result, field.name, getattr(capture, field.name))
    object.__setattr__(result, "samples", samples)
    return result


def _scene_table(scene: Scene) -> tuple[np.ndarray, np.ndarray]:
    """Target positions (n_targets, 3) and amplitudes (n_targets,), in scene order."""
    if len(scene) == 0:
        raise ConfigError("scene is empty")
    positions = np.array([t.position for t in scene.targets])
    amplitudes = np.array([t.amplitude for t in scene.targets], dtype=float)
    return positions, amplitudes


def _element_legs(points: np.ndarray, targets: np.ndarray, pattern) -> tuple[np.ndarray, np.ndarray | None]:
    """Distance from each element position (..., 3) to each target (T, 3),
    shaped (..., T), and the element's gain toward it (None without a
    pattern).  A distance that is not finite (coordinates whose squared
    distance overflows) raises ConfigError.

    pattern = (cosine power, boresight (..., 3) per element): the gain is
    cos(angle off boresight)**power, zero behind the element and one for a
    target at the element.  Every distance and boresight projection is a
    stacked (1, 3) @ (3, 1) product, the dot product np.linalg.norm and
    np.dot use, so values round exactly as np.linalg.norm(target - point)
    does; einsum or a summed square differs in the last bit.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        offsets = targets - points[..., None, :]
        rows = offsets[..., None, :]
        dist = np.sqrt((rows @ offsets[..., :, None])[..., 0, 0])
    if not np.isfinite(dist).all():
        *element, target = np.argwhere(~np.isfinite(dist))[0]
        raise ConfigError(
            f"target {int(target)} at {tuple(targets[target].tolist())} lies at no finite distance "
            f"from the array element at {tuple(points[tuple(element)].tolist())}"
        )
    if pattern is None:
        return dist, None
    power, boresight = pattern
    if not power >= 0.0:
        raise ConfigError(f"element pattern cosine power must be >= 0, got {power!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = (rows @ boresight[..., None, :, None])[..., 0, 0] / dist
    gain = np.zeros_like(dist)
    lit = cos > 0.0
    # Python's float power; np.power's vector loop rounds differently
    gain[lit] = [c**power for c in cos[lit].tolist()]
    gain[dist == 0.0] = 1.0
    return dist, gain


def _beat_work(cycles: int, n_tx: int, n_rx: int, cfg: ChirpConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_beat's work buffers for up to cycles TDM cycles: the phases and the
    one-way beats of every element (cycles, n_tx + n_rx, samples), and one
    TX's records (cycles, n_rx, samples)."""
    n = cfg.samples_per_chirp
    return (
        np.empty((cycles, n_tx + n_rx, n)),
        np.empty((cycles, n_tx + n_rx, n), dtype=np.complex128),
        np.empty((cycles, n_rx, n), dtype=np.complex128),
    )


def _beat(
    dist: np.ndarray,
    gain: np.ndarray | None,
    amplitudes: np.ndarray,
    cfg: ChirpConfig,
    out: np.ndarray,
    work: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """Add every target's dechirped beat to out (cycles, n_tx, n_rx,
    samples_per_chirp), one row per TDM record.

    dist and gain are _element_legs' (cycles, n_tx + n_rx, n_targets), TX
    then RX; amplitudes is (n_targets,).  A record's beat factors exactly
    into the one-way beats of its two elements,

        exp(j*2*pi*(slope*n/fs + f_c)*(d_tx + d_rx)/c) = E_tx[n] * E_rx[n],
        E_e[n] = exp(j*2*pi*(slope*n/fs + f_c)*d_e/c),

    so each element's beat is evaluated once per (cycle, target), and each
    record adds (amplitude*g_tx*E_tx) * (g_rx*E_rx), target by target in
    scene order.  Each phase is range-reduced in float64, in cycles minus
    the nearest whole number, before the 2*pi, so cos and sin see at most
    pi.  Against amplitude * np.exp(1j * phase) of the record's two-way
    phase, whose own rounding grows with the phase, a sample differs by
    less than 5e-11 per unit amplitude for targets within 30 m (tested).
    The one-way beats and one TX's products are formed in the leading
    cycles of the _beat_work buffers, which a capture reuses for every
    block.
    """
    cycles, n_tx = out.shape[:2]
    n = cfg.samples_per_chirp
    phase, element, record = (w[:cycles] for w in work)
    freq = cfg.ramp_slope_hz_per_s * np.arange(n) / cfg.sample_rate_sps
    freq += cfg.center_frequency_hz
    weight = np.ones(dist.shape) if gain is None else gain.copy()
    weight[:, :n_tx] *= amplitudes
    for tau_t, weight_t in zip(np.moveaxis(dist / C_LIGHT, -1, 0), np.moveaxis(weight, -1, 0)):
        np.multiply(tau_t[..., None], freq, out=phase)
        # element's bytes hold the nearest whole numbers until cos and sin fill it
        phase -= np.rint(phase, out=element.view(np.float64)[..., :n])
        phase *= 2.0 * np.pi
        np.cos(phase, out=element.real)
        np.sin(phase, out=element.imag)
        scaled = element.view(np.float64)
        scaled *= weight_t[..., None]
        for t in range(n_tx):
            np.multiply(element[:, t, None], element[:, n_tx:], out=record)
            out[:, t] += record


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
    The beat is _beat's, with one TX and one RX element: within 5e-11 per
    unit amplitude of the direct two-way np.exp sum for targets within
    30 m.
    """
    positions, amplitudes = _scene_table(scene)
    points = np.array([tx_pos_world, rx_pos_world], dtype=float).reshape(1, 2, 3)
    if not np.isfinite(points).all():
        raise ConfigError("TX/RX positions must be finite")
    if pattern is not None:
        power, boresight = pattern
        pattern = (power, np.broadcast_to(np.asarray(boresight, dtype=float), points.shape))
    dist, gain = _element_legs(points, positions, pattern)
    out = np.zeros((1, 1, 1, cfg.samples_per_chirp), dtype=np.complex128)
    _beat(dist, gain, amplitudes, cfg, out, _beat_work(1, 1, 1, cfg))
    return out.reshape(-1)


def synthesize_capture(
    scene: Scene,
    traj: Trajectory,
    cfg: ChirpConfig,
    array: VirtualArray,
    aperture_window: tuple[float, float] | None = None,
    pattern_cos_power: float | None = None,
    samples=None,
) -> RawCapture:
    """Emit TDM pulse records over a time window of the trajectory.

    Chirps fire at t_k = t0 + k*pri, cycling TX index k mod num_tx; every RX
    records each firing.  The platform pose is sampled once per full TDM
    cycle at the cycle's first chirp and shared by all of that cycle's
    records.  Only complete TDM cycles are emitted so every TX/RX pair stays
    balanced.  pattern_cos_power, when given, applies a cosine-power element
    pattern about the array boresight (+y in the array frame).  A
    non-finite window bound raises ConfigError.

    Row r equals synthesize_chirp at record r's TX and RX world positions
    rounded to complex64, bit for bit; so each component is within 5e-11
    per unit amplitude plus one float32 ulp of the direct two-way np.exp
    sum, for targets within 30 m.  Rows are synthesized a fixed block of
    cycles at a time into one reused complex128 block, which is rounded
    _NOISE_ROWS rows at a time into one complex64 block and written into
    the samples, so a finite sample beyond float32's range raises
    ConfigError, as does a target at no finite distance from an element.
    Each block is checked finite before it is written: targets whose
    amplitudes are finite can still sum to inf, and a row that holds a
    non-finite sample raises ConfigError (RecordError) naming its record.

    samples says where the rows go.  By default they fill a new complex64
    array.  Otherwise samples is called once, with the capture's other
    fields as keywords (config, array, tx, rx, cycle, time_s, poses,
    pose_index), and returns the writable (n_records, samples_per_chirp)
    store to write them into: a complex64 array, or an ArrayStore such as
    the file formats.capture_file opens.  Besides the samples, synthesis
    allocates the two blocks, the one-way beats of one block's elements
    and one TX's records, and the per-record columns.
    """
    if array.n_tx != cfg.num_tx:
        raise ConfigError(
            f"array has {array.n_tx} TX but config expects {cfg.num_tx}"
        )
    t_start, t_end = aperture_window if aperture_window is not None else (
        traj.start_time_s,
        traj.end_time_s,
    )
    t_start, t_end = float(t_start), float(t_end)
    if not (np.isfinite(t_start) and np.isfinite(t_end)):
        raise ConfigError(f"capture window [{t_start!r}, {t_end!r}] must be finite")
    if t_start < traj.start_time_s or t_end > traj.end_time_s:
        raise DomainError(
            f"trajectory [{traj.start_time_s}, {traj.end_time_s}] does not span "
            f"the capture window [{t_start}, {t_end}]"
        )
    effective_pri = cfg.num_tx * cfg.pri_s
    last_offset = (cfg.num_tx - 1) * cfg.pri_s
    # Start just below the closed-form count of complete cycles, then let
    # the firing-time test settle it, so rounding cannot add or drop one.
    cycles = (t_end - t_start - last_offset) / effective_pri
    if not cycles < _MAX_CYCLES:
        raise DomainError(f"capture window holds {cycles:.3g} TDM cycles, more than {_MAX_CYCLES}")
    n_cycles = max(0, int(cycles) - 1)
    while t_start + n_cycles * effective_pri + last_offset <= t_end:
        n_cycles += 1
    if n_cycles == 0:
        raise DomainError("trajectory too short: no complete TDM cycle fits the window")
    positions, amplitudes = _scene_table(scene)

    # one row per (cycle, tx, rx), in firing order
    n_tx, n_rx, n = cfg.num_tx, array.n_rx, cfg.samples_per_chirp
    cycle, tx, rx = np.indices((n_cycles, n_tx, n_rx)).reshape(3, -1)
    poses = tuple(pose_at_time(traj, t_start + cyc * effective_pri) for cyc in range(n_cycles))
    columns = dict(
        config=cfg, array=array, tx=tx, rx=rx, cycle=cycle,
        time_s=t_start + cycle * effective_pri + tx * cfg.pri_s, poses=poses, pose_index=cycle,
    )
    store = np.empty((cycle.size, n), dtype=np.complex64) if samples is None else samples(**columns)
    block_cycles = min(n_cycles, _SYNTH_CYCLES)
    work = _beat_work(block_cycles, n_tx, n_rx, cfg)
    beat = np.empty((block_cycles, n_tx, n_rx, n), dtype=np.complex128)
    staged = np.empty((min(cycle.size, _NOISE_ROWS), n), dtype=np.complex64)
    for c_lo in range(0, n_cycles, _SYNTH_CYCLES):
        block = poses[c_lo : c_lo + _SYNTH_CYCLES]
        # world positions of every element, TX then RX: (cycles, n_tx + n_rx, 3)
        points = np.array(
            [np.concatenate([p.to_world(array.tx_positions), p.to_world(array.rx_positions)]) for p in block]
        )
        pattern = None
        if pattern_cos_power is not None:
            boresight = np.array([p.rotation_matrix() @ np.array([0.0, 1.0, 0.0]) for p in block])
            pattern = (float(pattern_cos_power), np.broadcast_to(boresight[:, None, :], points.shape))
        dist, gain = _element_legs(points, positions, pattern)
        # (cycles, n_tx, n_rx, samples), rows in firing order
        rows = beat[: len(block)]
        rows.fill(0.0)
        # a sum beyond float64's range is refused by _check_finite below
        with np.errstate(over="ignore", invalid="ignore"):
            _beat(dist, gain, amplitudes, cfg, rows, work)
        rows = rows.reshape(-1, n)
        # rounded, checked and written _NOISE_ROWS rows at a time
        for lo in range(0, rows.shape[0], _NOISE_ROWS):
            part = rows[lo : lo + _NOISE_ROWS]
            rounded = staged[: part.shape[0]]
            first = c_lo * n_tx * n_rx + lo
            _round_samples(part, rounded, first)
            _check_finite(rounded, first)
            store[first : first + part.shape[0]] = rounded
    return RawCapture(samples=store, **columns)


def add_noise(
    capture: RawCapture,
    per_sample_snr_db: float,
    seed: int,
) -> RawCapture:
    """Add circularly-symmetric complex white Gaussian noise to a capture,
    in place: the result holds the input's own sample buffer.

    add_noise consumes its input.  The noise is written into
    capture.samples, so the input, any capture sharing its samples, and
    any records view built earlier now see the noisy values; rebind the
    name (capture = add_noise(capture, ...)) and do not use the input
    afterwards.  Only samples that are a read-only view of memory the
    capture cannot write, such as np.frombuffer over bytes, are noised
    into a new complex64 buffer, and the input keeps its samples.

    Noise variance is set so mean signal power / noise power equals
    10**(snr_db/10); the power is summed in float64, over the samples
    widened to complex128.  An SNR of +inf, or one too large for that
    ratio to be a float, returns the capture unchanged and leaves the seed
    unused; NaN, -inf and an SNR too small for it raise ConfigError.  An
    all-zero capture has no power to scale against and raises DomainError.
    When there is noise to add, a seed np.random.default_rng refuses (a
    negative or non-integer one) raises ConfigError.  All of these are
    checked before any sample is written.  Deterministic for a fixed seed.

    The noise is added to the complex64 samples widened to complex128,
    and each sum is rounded to complex64.  For a synthesized capture, each
    noisy component is within one float32 ulp of max(|clean|, |noisy|) of
    the same noise added to the unrounded complex128 synthesis.  A finite
    noisy sample beyond float32's range raises ConfigError naming its
    record; the rows before that record's block are then already noisy,
    and the rest keep their values.  The rows are read _NOISE_ROWS at a
    time, once for their power and once to be noised and written back, so
    samples in an ArrayStore stay in their file.  Allocates one complex128
    and one complex64 block of _NOISE_ROWS rows (and, from a store, the
    block it reads), each row's power, and no second capture.  The result
    shares the input's columns, which are not checked again, and its
    samples are read-only.
    """
    if capture.n_records == 0:
        raise DomainError("capture is empty")
    if not per_sample_snr_db > -np.inf:
        raise ConfigError(f"per_sample_snr_db must be a number above -inf, got {per_sample_snr_db!r}")
    if per_sample_snr_db == np.inf:
        return capture

    samples = capture.samples
    power = np.empty(capture.n_records)
    for lo in range(0, capture.n_records, _NOISE_ROWS):
        power[lo : lo + _NOISE_ROWS] = _mean_power(samples[lo : lo + _NOISE_ROWS])
    mean_power = float(np.mean(power))
    if mean_power == 0.0:
        raise DomainError("capture has zero signal power")
    try:
        noise_variance = mean_power / 10.0 ** (per_sample_snr_db / 10.0)
    except OverflowError:  # about 3 080 dB and up: no noise to add
        return capture
    except ZeroDivisionError:
        raise ConfigError(f"per_sample_snr_db {per_sample_snr_db!r} makes the noise infinite") from None
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}") from None

    try:
        samples.setflags(write=True)
    except ValueError:  # memory the capture does not own and cannot write
        noisy = np.empty(samples.shape, dtype=np.complex64)
    else:
        noisy = samples
    sigma = np.sqrt(noise_variance / 2.0)
    # Drawn one block of rows at a time into the block's (real, imaginary)
    # float pairs: consecutive draws continue one stream, so before rounding
    # the floats equal samples + sigma * (n[..., 0] + 1j * n[..., 1]) for a
    # single (n_records, samples_per_chirp, 2) draw n.  Each block is rounded
    # into a staging block first, so a block that overflows float32 is
    # refused before any of its rows is written.
    block = np.empty((min(capture.n_records, _NOISE_ROWS), samples.shape[1]), dtype=np.complex128)
    staged = np.empty(block.shape, dtype=np.complex64)
    try:
        for lo in range(0, capture.n_records, _NOISE_ROWS):
            rows = slice(lo, lo + _NOISE_ROWS)
            clean = samples[rows]
            noise = block[: clean.shape[0]]
            pairs = noise.view(np.float64).reshape(*noise.shape, 2)
            rng.standard_normal(out=pairs)
            pairs *= sigma
            noise += clean
            rounded = staged[: clean.shape[0]]
            _round_samples(noise, rounded, lo)
            noisy[rows] = rounded
    finally:
        samples.setflags(write=False)
    return _with_samples(capture, noisy)
