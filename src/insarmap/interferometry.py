"""Per-pixel phase delays, baseline averaging, and elevation recovery.

The vertical-baseline relations:

    tau(phi)   = (d_v / c) * sin(phi)                 time delay
    dpsi(phi)  = 4*pi * (d_v / lambda) * sin(phi)     phase delay (two-way)
    phi(dpsi)  = arcsin(lambda * dpsi / (4*pi*d_v))   recovery

With d_v <= lambda/4 the recovery is unambiguous over +-90 degrees; larger
baselines would need fringe-ambiguity resolution and are rejected.

build_elevation_map works one block of grid rows at a time: it reads that
block of every VX image (from the file, for a stack read_image_stack
gives), so besides the map's planes it holds one block of the stack and
its work, never the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .imaging import ImageGrid, SarImageStack, _row_blocks, check_positive
from .types import C_LIGHT, Rows, check_finite

# Relative slack when checking d_v against lambda/4, so a baseline built as
# exactly a quarter wavelength is not rejected over float dust.
_AMBIGUITY_SLACK = 1e-9


def phase_delay(s0: complex, s1: complex) -> float:
    """Phase of the complex correlation s0 * conj(s1), wrapped to (-pi, pi].

    Convention: s0 is the lower-layer VX, s1 the upper-layer VX, so a source
    above the sensor plane yields a positive delay.
    """
    if s0 == 0 or s1 == 0:
        raise DomainError("zero signal has no phase")
    return float(np.angle(s0 * np.conj(s1)))


def tau_from_elevation(phi: float, d_v: float) -> float:
    """One-way arrival-time delay across a vertical baseline."""
    if not d_v > 0:
        raise DomainError(f"baseline must be > 0, got {d_v!r}")
    return d_v * np.sin(phi) / C_LIGHT


def phase_from_elevation(phi: float, d_v: float, wavelength: float) -> float:
    """Unwrapped two-way phase delay for elevation angle phi."""
    if not d_v > 0:
        raise DomainError(f"baseline must be > 0, got {d_v!r}")
    if not wavelength > 0:
        raise DomainError(f"wavelength must be > 0, got {wavelength!r}")
    return 4.0 * np.pi * (d_v / wavelength) * np.sin(phi)


def _check_baseline(d_v: float, wavelength: float, error: type[Exception] = DomainError) -> None:
    """Raise error unless 0 < d_v <= lambda/4: larger baselines have
    ambiguous fringes, which are out of scope.  A stage given such a
    baseline meets a DomainError; a map that holds one is a ConfigError."""
    if not d_v > 0:
        raise error(f"baseline must be > 0, got {d_v!r}")
    if not wavelength > 0:
        raise error(f"wavelength must be > 0, got {wavelength!r}")
    if d_v > 0.25 * wavelength * (1.0 + _AMBIGUITY_SLACK):
        raise error(
            f"ambiguous baseline: d_v = {d_v:.6g} m exceeds lambda/4 = "
            f"{0.25 * wavelength:.6g} m"
        )


def elevation_from_phase(dpsi: float, d_v: float, wavelength: float) -> float:
    """Invert the phase-delay relation: phi = arcsin(lambda*dpsi/(4*pi*d_v)).

    Raises DomainError for baselines beyond lambda/4 (ambiguous fringes are
    out of scope) and for arguments outside [-1, 1].
    """
    _check_baseline(d_v, wavelength)
    arg = wavelength * dpsi / (4.0 * np.pi * d_v)
    if abs(arg) > 1.0:
        raise DomainError(f"phase delay {dpsi!r} outside the recoverable domain for d_v={d_v!r}")
    return float(np.arcsin(arg))


def mean_phase_delay(lower, upper, axis: int = 0):
    """Average phase delay over baselines by complex (vector) summation.

    lower/upper are arrays of complex pixel values with the baseline
    dimension on `axis`, or, with axis 0, sequences of equally shaped
    planes, one per baseline.  Returns (mean_phase, circular_variance) with
    the baseline axis reduced.  Vector averaging is immune to wrap-around at
    +-pi and reduces to the arithmetic mean for small spreads.  Baselines
    with an exactly zero correlation are dropped from the variance; if all
    are zero the phase is 0 and the variance 1.

    Baselines are summed one at a time, in order and from zero, which gives
    the floats of numpy's axis-0 sum over the stacked baselines while
    holding one set of per-baseline buffers, reused for every baseline:
    with the running sums, about five complex128 planes.  Each baseline's
    planes are widened to complex128 as it is summed, which is exact, so
    complex64 planes give the floats of their complex128 widening.
    """
    if axis != 0:
        lower = np.moveaxis(np.asarray(lower), axis, 0)
        upper = np.moveaxis(np.asarray(upper), axis, 0)
    total = None
    for lo, up in zip(lower, upper):
        if total is None:
            # one set of per-baseline buffers, reused for every baseline
            corr = np.array(up, np.complex128)
            mag, nonzero, unit = np.empty(corr.shape), np.empty(corr.shape, bool), np.empty_like(corr)
            # sums start from zero, as numpy's do: 0 + -0 is +0
            total, unit_total, count = np.zeros_like(corr), np.zeros_like(corr), np.zeros(corr.shape, np.intp)
        else:
            corr[...] = up
        # conj(upper) * lower, in that order: numpy's complex multiply is not
        # bitwise commutative, and this is the order its temporary elision
        # gave lower * conj(upper) over stacked baselines.  A complex64 lower
        # plane is widened by the multiply's complex128 loop, which is exact.
        np.conj(corr, out=corr)
        np.multiply(corr, lo, out=corr)
        np.abs(corr, out=mag)
        np.greater(mag, 0.0, out=nonzero)
        # corr / mag where the correlation is nonzero and +0 elsewhere, the
        # floats of dividing by mag widened to complex128
        unit.fill(0.0)
        with np.errstate(invalid="ignore"):
            np.divide(corr, mag, out=unit, where=nonzero)
        total += corr
        unit_total += unit
        count += nonzero
    if total is None:  # no baseline, so no nonzero correlation
        shape = np.shape(lower)[1:]
        return np.zeros(shape), np.ones(shape)
    del corr, mag, nonzero, unit  # freed for the temporaries below
    mean_phase = np.angle(total)
    resultant = np.abs(unit_total)
    with np.errstate(invalid="ignore", divide="ignore"):
        variance = np.where(count > 0, 1.0 - resultant / np.maximum(count, 1), 1.0)
    variance = np.clip(variance, 0.0, 1.0)
    return mean_phase, variance


# The INSARELV file's planes, in its order: each ElevationMap field, and how
# every refusal of it names it, in the file's words ("snr_db plane").
MAP_PLANES = {
    field: Rows("map planes", f"{name} plane", "values")
    for field, name in (
        ("elevation", "elevation"),
        ("mean_phase_delay", "mean phase delay"),
        ("circular_variance", "circular variance"),
        ("combined_magnitude", "combined magnitude"),
        ("snr_db", "snr_db"),
    )
}


@dataclass(frozen=True, eq=False)
class ElevationMap:
    """Per-pixel elevation angles and the interferometric quality that
    qualifies them: the INSARELV file's five planes (MAP_PLANES), each of
    the grid's shape.

    elevation is in radians, NaN where the angle is unrecoverable
    (correlation argument outside the arcsin domain); snr_db is -inf where
    the magnitude is exactly zero (20*log10(0)).  Every other value is
    finite.  The wavelength obeys the stack's rule, and the baseline
    _check_baseline's, 0 < d_v <= lambda/4.
    """

    grid: ImageGrid
    phase_center: np.ndarray  # (3,)
    wavelength_m: float
    baseline_m: float
    elevation: np.ndarray
    mean_phase_delay: np.ndarray
    circular_variance: np.ndarray
    combined_magnitude: np.ndarray
    snr_db: np.ndarray

    def __post_init__(self) -> None:
        check_positive("wavelength_m", self.wavelength_m)
        _check_baseline(self.baseline_m, self.wavelength_m, ConfigError)
        for field, rows in MAP_PLANES.items():
            plane = getattr(self, field)
            if np.shape(plane) != (self.grid.n_u, self.grid.n_v):
                raise ConfigError(
                    f"{rows.row} shape {np.shape(plane)} does not match the {self.grid.n_u}x{self.grid.n_v} grid"
                )
            # NaN is an absent elevation, and -inf the SNR of a pixel whose
            # magnitude is exactly zero: neither is damage
            if field == "elevation":
                plane = np.where(np.isnan(plane), 0.0, plane)
            elif field == "snr_db":
                plane = np.where((plane == -np.inf) & (self.combined_magnitude == 0.0), 0.0, plane)
            check_finite(plane, rows)
        pc = np.asarray(self.phase_center, dtype=float).reshape(3)
        if not np.isfinite(pc).all():
            raise ConfigError("phase_center must be finite")
        pc.setflags(write=False)
        object.__setattr__(self, "phase_center", pc)


def snr_map(magnitude: np.ndarray) -> np.ndarray:
    """Per-pixel SNR in amplitude dB against the scene median magnitude.

    20*log10(|S| / median(|S|)); the median is robust to the bright-source
    outliers that would drag a mean reference upward.
    """
    magnitude = np.asarray(magnitude, dtype=float)
    if magnitude.size == 0:
        raise DomainError("empty magnitude grid")
    median = float(np.median(magnitude))
    if median <= 0.0:
        raise DomainError("zero median magnitude: degenerate all-zero image")
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(magnitude / median)


def _map_rows(images: np.ndarray, baselines, wavelength: float, d_v: float):
    """The elevation, mean phase delay, circular variance and mean magnitude
    of a block of grid rows of every VX image, (n_vx, rows, n_v).  Its own
    function, so a block and its work are freed before the next is read."""
    mean_phase, variance = mean_phase_delay(
        [images[b.lower_vx] for b in baselines], [images[b.upper_vx] for b in baselines]
    )
    # the floats of np.mean(np.abs(images), axis=0) over the widened images,
    # one plane at a time; the sum starts from zero, and 0 + |x| is |x|
    magnitude = np.zeros(images.shape[1:])
    plane = np.empty_like(magnitude)
    for image in images:
        magnitude += np.abs(np.asarray(image, np.complex128), out=plane)
    magnitude /= images.shape[0]
    arg = wavelength * mean_phase / (4.0 * np.pi * d_v)
    elevation = np.where(np.abs(arg) <= 1.0, np.arcsin(np.clip(arg, -1.0, 1.0)), np.nan)
    return elevation, mean_phase, variance, magnitude


def build_elevation_map(stack: SarImageStack) -> ElevationMap:
    """Extract per-pixel elevation, and its quality, from a SAR image stack.

    Every vertical baseline is correlated and averaged per pixel.  The
    array needs one, and all must share the same separation, at most a
    quarter wavelength; mixed spacings would need per-baseline phase
    scaling that this pipeline does not implement.  These are checked
    before any pixel is read.

    The map's planes are computed one block of grid rows at a time
    (imaging._row_blocks), from that block of every VX plane: read from
    the file for a stack on an ArrayStore, as read_image_stack gives it.
    Within a block, baselines and VX planes are summed one at a time, so
    the peak memory is the map's planes and one block's work whatever the
    number of baselines or VX; the per-pixel operations, and so the floats,
    do not depend on the blocks.  The images are complex64, as
    SarImageStack holds them.  Each plane is widened to complex128 when it
    is used, which is exact, so the stack gives the floats of its
    complex128 widening without a widened copy of it.  snr_map then takes
    the whole magnitude plane, for its median.
    """
    baselines = stack.array.vertical_baselines
    if not baselines:
        raise DomainError("array has no vertical baseline; cannot interfere")
    seps = np.array([b.separation_m for b in baselines])
    if np.any(np.abs(seps - seps[0]) > 1e-12 * seps[0]):
        raise DomainError(f"mixed baseline separations are unsupported: {sorted(set(seps))}")
    d_v, lam = baselines[0].separation_m, stack.wavelength_m
    _check_baseline(d_v, lam)

    shape = (stack.grid.n_u, stack.grid.n_v)
    elevation, mean_phase, variance, magnitude = (np.empty(shape) for _ in range(4))
    for rows in _row_blocks(stack.grid):
        elevation[rows], mean_phase[rows], variance[rows], magnitude[rows] = _map_rows(
            stack.images[:, rows], baselines, lam, d_v
        )
    return ElevationMap(
        grid=stack.grid,
        phase_center=stack.phase_center,
        wavelength_m=lam,
        baseline_m=d_v,
        elevation=elevation,
        mean_phase_delay=mean_phase,
        circular_variance=variance,
        combined_magnitude=magnitude,
        snr_db=snr_map(magnitude),
    )
