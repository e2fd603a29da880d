"""SAR image formation: range compression plus direct (time-domain)
backprojection.

One complex image is formed per virtual element on a shared world-frame
grid.  All images reference the same phase center (the aperture-center
pose), which keeps inter-VX pixel phase differences physically meaningful
for the interferometric stage.

image_stack is the one imaging entry point: it selects the aperture's
records, reads and range-compresses them one batch of cycles at a time,
and backprojects them into every VX's image.  A capture whose samples stay
in their file (as read_capture gives it) is read a batch at a time too, so
the image stage never holds the aperture's samples at once.  The stack may
be made in its file too (a types.ArrayStore, as formats.stack_file
opens): each cycle batch reads, adds to and writes back one pixel block of
it at a time, so the image stage never holds the stack either.
range_compress applies the same compression to a whole capture at once,
for inspecting the profiles.

Backprojection accumulates, per pixel p and pulse k,

    I(p) += P_k(R_k(p)) * exp(-j*2*pi*f_c*(d_tx + d_rx)/c)

where R_k(p) = (d_tx + d_rx)/2 is the monostatic-equivalent range and P_k
is the interpolated range profile.  The conjugate carrier term cancels the
f_c*tau phase carried by the dechirped data, so a focused target
accumulates zero phase regardless of its grid position.

Each one-leg carrier phasor exp(-j*2*pi*f_c*d/c) is evaluated from the
phase range-reduced to [-pi, pi] in float64 and then rounded to float32 for
numpy's vectorized cos and sin: it is within 1e-6 of the complex exp for
any leg up to 100 m (1.9e-7 measured).  Distances, fractional bins and the
range reduction stay float64.  Each record's value, the interpolated
profile times its two phasors, is computed in single precision: the kept
profile bins and their first differences are rounded to complex64 once per
batch of cycles, interpolation weights to float32, and the phasors are
complex64.  Each VX sums its records' values per pixel in complex64 over
one batch of at most _CYCLE_BATCH cycles, and adds that partial sum into
its complex64 image, the precision of the stack file, so the stack is
never held wider than the file holds it.  An image differs from one made
with the exact complex exp and complex128 values by at most 1e-6 of its
peak magnitude, over a thousand cycles too; the tests hold these bounds.
The float32 bits depend on which SIMD path numpy dispatches cos and sin
to, so artifacts are byte-identical only on one numpy build and CPU
dispatch path.  Single precision ends at about 3.4e38, so a range profile
bin, a partial sum or an image sum beyond that is refused as a
ConfigError, and so is a NaN pixel, as from a non-finite carrier.

Pixel blocks are whole grid rows, or slices of one row when a row is
longer than a block, so each element's squared distance is the outer sum
of per-row and per-column squares plus the height term, the same
operations in the same order as a per-pixel sum.  Each TDM cycle
evaluates the distance and phasor fields of every distinct element in
one pass over (elements, pixels), into work buffers that a pixel block
reuses for all its cycles and records.  Range profiles are cut after the
last bin any pixel of the grid can reach, plus a margin, so the first
differences and the interpolation read only the bins in use.  Profiles
are read by linear interpolation, the one interpolator, in the slope form
P[i] + (P[i+1] - P[i])*w, with the differences taken once per batch of
cycles and the weight rounded straight to complex64, without a cast
buffer; a larger oversample_factor makes it finer.  A grid whose farthest
pixel needs the profile's last bin is refused, since a dechirped return
from that far aliases into a near bin; so every q lies below the last kept
slope.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .simulate import RawCapture, _round_rows
from .types import C_LIGHT, ArrayStore, VirtualArray, derive_chirp_params

WINDOWS = ("rectangular", "hann")

# image_stack tiling: pixel blocks of whole grid rows (or of single-row
# slices, for rows longer than a block), about this many pixels each, sized
# to stay cache-resident; cycle batches bounding how many range profiles
# are alive at once (8 cycles of 12 records x 2048 bins are 3 MiB, plus the
# first differences of the bins in reach).  Per-pixel accumulation order
# does not depend on either.  The elevate and pointcloud stages work in
# blocks of whole rows of about as many pixels (_row_blocks).
_BLOCK_PIXELS = 16384
_CYCLE_BATCH = 8

# The most pixels an ImageGrid may hold: 2**26 is 119 times the default
# 750 x 750 grid, and its 12-VX stack is 6 GiB of complex64.
_MAX_PIXELS = 2**26

# The most bins a padded range profile may hold: 2**18 is 128 times the
# default 512-sample chirp at 4x, and one cycle batch of the default 12-VX
# array, 96 records of complex128 profiles, is 384 MiB at the cap.
_MAX_PROFILE_BINS = 2**18


@dataclass(frozen=True, eq=False)
class ImageGrid:
    """World-frame pixel grid.  u = along-track axis, v = cross-track axis.

    origin_m is the low corner; pixel (iu, iv) is centered at
    origin + (iu + 0.5, iv + 0.5) * pixel_size.  A grid holds at least one
    pixel along each axis and at most _MAX_PIXELS (2**26) in all.
    """

    origin_m: np.ndarray  # (2,)
    extent_m: np.ndarray  # (2,)
    pixel_size_m: float

    def __post_init__(self) -> None:
        origin = np.asarray(self.origin_m, dtype=float).reshape(2)
        extent = np.asarray(self.extent_m, dtype=float).reshape(2)
        if not (self.pixel_size_m > 0 and np.isfinite(self.pixel_size_m)):
            raise ConfigError(f"pixel_size_m must be > 0, got {self.pixel_size_m!r}")
        if not np.isfinite(origin).all():
            raise ConfigError("grid origin must be finite")
        if not (np.all(extent > 0) and np.isfinite(extent).all()):
            raise ConfigError("grid extent must be positive")
        n_u, n_v = np.round(extent / self.pixel_size_m).tolist()
        if not (n_u >= 1 and n_v >= 1):
            raise ConfigError("grid extent smaller than one pixel")
        if not n_u * n_v <= _MAX_PIXELS:
            raise ConfigError(f"grid of {n_u:.4g} x {n_v:.4g} pixels exceeds the cap of {_MAX_PIXELS}")
        origin.setflags(write=False)
        extent.setflags(write=False)
        object.__setattr__(self, "origin_m", origin)
        object.__setattr__(self, "extent_m", extent)

    @property
    def n_u(self) -> int:
        return int(round(self.extent_m[0] / self.pixel_size_m))

    @property
    def n_v(self) -> int:
        return int(round(self.extent_m[1] / self.pixel_size_m))

    def u_centers(self) -> np.ndarray:
        return self.origin_m[0] + (np.arange(self.n_u) + 0.5) * self.pixel_size_m

    def v_centers(self) -> np.ndarray:
        return self.origin_m[1] + (np.arange(self.n_v) + 0.5) * self.pixel_size_m


@dataclass(frozen=True)
class Aperture:
    """Synthetic-aperture gate: pulses within +-length/2 along-track of the
    center pose are imaged.  center_time_s defaults to the capture mid-time,
    halfway between its earliest and latest pose."""

    length_m: float = 1.0
    center_time_s: float | None = None

    def __post_init__(self) -> None:
        if not (self.length_m > 0 and np.isfinite(self.length_m)):
            raise ConfigError(f"aperture length must be > 0, got {self.length_m!r}")


@dataclass(frozen=True, eq=False)
class RangeProfileSet:
    """Per-pulse oversampled range profiles (row i is record i of the capture)."""

    profiles: np.ndarray  # (n_records, n_bins) complex
    bin_spacing_m: float


@dataclass(frozen=True, eq=False)
class SarImageStack:
    """One complex image per VX on a common grid with a common phase center.

    Images have one dtype, complex64, the precision of an INSARIMG file, as
    image_stack makes them.  complex64 images are kept as they are; any
    other images are rounded to complex64 by _round_rows, and a finite
    pixel beyond float32's range raises ConfigError ("VX k image holds
    pixels beyond float32 range").  Images may also be an ArrayStore, whose
    planes stay in their file, as read_image_stack gives them; it is kept
    as it is, and checked as its pixels are read.  Pixels and the phase
    center must be finite, and the wavelength finite and positive.
    """

    grid: ImageGrid
    array: VirtualArray
    images: np.ndarray  # (n_vx, n_u, n_v) complex64
    phase_center: np.ndarray  # (3,) world
    aperture_length_m: float
    wavelength_m: float

    def __post_init__(self) -> None:
        stored = isinstance(self.images, ArrayStore)
        images = self.images if stored else np.asarray(self.images)
        if images.shape != (self.array.n_vx, self.grid.n_u, self.grid.n_v):
            raise ConfigError(
                f"image stack shape {images.shape} does not match "
                f"{self.array.n_vx} VX on a {self.grid.n_u}x{self.grid.n_v} grid"
            )
        if not stored:
            if images.dtype != np.complex64:
                rounded = np.empty(images.shape, dtype=np.complex64)
                for k in range(images.shape[0]):
                    if _round_rows(images[k], rounded[k]) is not None:
                        raise ConfigError(f"VX {k} image holds pixels beyond float32 range")
                images = rounded
            # checked plane by plane, so no stack-sized mask is made
            for k, plane in enumerate(images):
                if not np.isfinite(plane).all():
                    raise ConfigError(f"VX {k} image holds non-finite pixels")
        object.__setattr__(self, "images", images)
        if not self.aperture_length_m > 0:
            raise ConfigError("aperture_length_m must be > 0")
        if not (self.wavelength_m > 0 and np.isfinite(self.wavelength_m)):
            raise ConfigError(f"wavelength_m must be finite and > 0, got {self.wavelength_m!r}")
        pc = np.asarray(self.phase_center, dtype=float).reshape(3)
        if not np.isfinite(pc).all():
            raise ConfigError("phase_center must be finite")
        pc.setflags(write=False)
        object.__setattr__(self, "phase_center", pc)


def _range_setup(cfg, oversample_factor, window: str):
    """Validated (window taps, padded length, bin spacing in m)."""
    try:
        whole = int(oversample_factor) == oversample_factor
    except (TypeError, ValueError, OverflowError):  # int() of None, NaN or inf
        whole = False
    if not whole or oversample_factor < 2:
        raise ConfigError(f"oversample_factor must be an integer >= 2, got {oversample_factor!r}")
    if window not in WINDOWS:
        raise ConfigError(f"unknown window {window!r}; expected one of {WINDOWS}")
    n = cfg.samples_per_chirp
    n_padded = n * int(oversample_factor)
    if n_padded > _MAX_PROFILE_BINS:
        raise ConfigError(
            f"samples_per_chirp ({n}) x oversample_factor makes range profiles longer than the cap "
            f"of {_MAX_PROFILE_BINS} bins"
        )
    taps = np.hanning(n) if window == "hann" else np.ones(n)
    return taps, n_padded, derive_chirp_params(cfg).max_range_m / n_padded


def _compress(samples: np.ndarray, taps: np.ndarray, n_padded: int) -> np.ndarray:
    """Windowed, zero-padded DFT of each row of samples."""
    return np.fft.fft(samples * taps, n=n_padded, axis=1)


def range_compress(
    capture: RawCapture,
    oversample_factor: int = 4,
    window: str = "rectangular",
) -> RangeProfileSet:
    """Window, zero-pad, and DFT each pulse over fast time.

    Bin k maps to two-way range r = k * c * fs / (2 * slope * n_padded); the
    whole padded spectrum spans [0, max_range).  Oversampling >= 2 keeps the
    bin spacing at or below half the range resolution.
    """
    taps, n_padded, bin_spacing = _range_setup(capture.config, oversample_factor, window)
    return RangeProfileSet(
        profiles=_compress(np.asarray(capture.samples), taps, n_padded),
        bin_spacing_m=bin_spacing,
    )


def _select_aperture(capture: RawCapture, aperture: Aperture):
    """The aperture gate: pick the records whose pose lies within +-L/2
    along-track of the center pose.  Returns (record indices, center pose).

    The along-track axis runs from the earliest to the latest pose of the
    pose table, the default center time is their mid-time, and an explicit
    center time must lie between them (the capture span).  The center pose
    is the cycle anchor, the pose of a cycle's first record, nearest the
    center time."""
    if not capture.n_records:
        raise DomainError("capture is empty")
    poses = capture.poses
    times = np.array([p.time_s for p in poses])
    first, last = poses[int(np.argmin(times))], poses[int(np.argmax(times))]

    center_time = aperture.center_time_s
    if center_time is None:
        center_time = 0.5 * (first.time_s + last.time_s)
    elif not (first.time_s <= center_time <= last.time_s):
        raise DomainError(
            f"aperture center time {float(center_time)!r} outside the capture span "
            f"[{float(first.time_s)!r}, {float(last.time_s)!r}]"
        )
    # each cycle is anchored at the pose of its first record
    _, head = np.unique(capture.cycle, return_index=True)
    anchors = capture.pose_index[head]
    center_pose = poses[anchors[int(np.argmin(np.abs(times[anchors] - center_time)))]]

    motion = last.position - first.position
    span = float(np.linalg.norm(motion))
    u_hat = motion / span if span > 1e-12 else np.array([1.0, 0.0, 0.0])

    along = np.array([abs(float(np.dot(p.position - center_pose.position, u_hat))) for p in poses])
    keep = np.flatnonzero(along[capture.pose_index] <= aperture.length_m / 2.0)
    if not keep.size:
        raise DomainError("aperture selects no pulses")
    return keep, center_pose


def _interp_linear(profile, slope, q, work, out):
    """Linear interpolation at fractional bin positions q >= 0 into out, in
    slope form profile[i] + slope[i] * w with slope = np.diff(profile),
    i = trunc(q) and w = q - i rounded to the tables' dtype (complex64 for
    the kernel, the rounding numpy gives a float32 factor of a complex64
    product).  work holds q-shaped float64, intp and table-dtype buffers.
    Every q lies below the last kept slope, len(slope)."""
    f, i, w = work
    np.trunc(q, out=f)
    np.copyto(i, f, casting="unsafe")
    np.subtract(q, f, out=f)
    np.copyto(w, f)
    # mode="clip" lets take write to out unbuffered; i is in range already
    slope.take(i, out=out, mode="clip")
    out *= w
    out += profile.take(i, out=w, mode="clip")
    return out


def _carrier_phasor(d: np.ndarray, k_carrier: float, out=None, work=None) -> np.ndarray:
    """exp(-j*k_carrier*d) in complex64, to within 1e-6 for d up to 100 m
    (1.9e-7 measured), into out; out and work (float64 and float32 buffers
    of d's shape) are allocated when not given.

    The phase is range-reduced in float64 (d in carrier wavelengths, minus
    the nearest whole number), so only the reduced phase in [-pi, pi] is
    rounded to float32, where numpy's cos and sin run vectorized.  A scalar
    complex exp of the ~1e4 rad phase is about ten times slower.
    """
    if out is None:
        out = np.empty(d.shape, dtype=np.complex64)
    waves, theta = work if work is not None else (np.empty(d.shape), np.empty(d.shape, dtype=np.float32))
    np.multiply(d, k_carrier / (2.0 * np.pi), out=waves)
    # out's bytes hold the nearest whole numbers until cos and sin fill it
    waves -= np.rint(waves, out=out.view(np.float64))
    waves *= -2.0 * np.pi
    np.copyto(theta, waves, casting="same_kind")
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _farthest(points: np.ndarray, px, py, pz) -> float:
    """Largest distance from any of points (..., 3) to the bounding box of
    the pixels (px, py) at height pz (the farthest box corner)."""
    du = np.maximum(np.abs(points[..., 0] - px.min()), np.abs(points[..., 0] - px.max()))
    dv = np.maximum(np.abs(points[..., 1] - py.min()), np.abs(points[..., 1] - py.max()))
    return float(np.sqrt(np.max(du * du + dv * dv + (points[..., 2] - pz) ** 2)))


def _chunk_bounds(n_items: int, threads: int) -> list[tuple[int, int]]:
    threads = max(1, min(int(threads), n_items))
    edges = np.linspace(0, n_items, threads + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pixel_blocks(n_u: int, n_v: int, n_blocks: int) -> list[tuple[int, int, int, int]]:
    """About n_blocks (u_lo, u_hi, v_lo, v_hi) blocks covering an n_u x n_v
    grid: runs of whole rows, or, when there are fewer rows than blocks,
    slices of single rows.  Either way a block's pixels are contiguous in
    the u-major flat layout."""
    if n_blocks <= n_u:
        return [(lo, hi, 0, n_v) for lo, hi in _chunk_bounds(n_u, n_blocks)]
    per_row = _chunk_bounds(n_v, -(-n_blocks // n_u))
    return [(r, r + 1, lo, hi) for r in range(n_u) for lo, hi in per_row]


def _row_blocks(grid: ImageGrid) -> list[slice]:
    """Runs of whole grid rows, about _BLOCK_PIXELS pixels each (one row
    when a row is longer), covering the grid in order: the blocks the
    elevate and pointcloud stages work in."""
    n_blocks = -(-grid.n_u * grid.n_v // _BLOCK_PIXELS)
    return [slice(lo, hi) for lo, hi in _chunk_bounds(grid.n_u, n_blocks)]


def image_stack(
    capture: RawCapture,
    grid: ImageGrid,
    aperture: Aperture,
    *,
    oversample_factor: int = 4,
    window: str = "rectangular",
    image_height_m: float = 0.0,
    threads: int = 1,
    images=None,
) -> SarImageStack:
    """Form one backprojected image per virtual element: the one
    backprojection kernel.

    The image plane sits at image_height_m relative to the phase-center
    height (default 0: the sensor plane).  Range compression is streamed
    one batch of _CYCLE_BATCH cycles at a time, which bounds the profile
    memory, and only the bins the grid can reach are kept, rounded to
    complex64.  Each batch's samples are read from the capture as it is
    compressed; from an ArrayStore, such as read_capture gives, that is a
    read of the file, which refuses a non-finite sample then
    (DataFormatError, naming its record in the file), and reads no sample
    outside the aperture.  Pixel blocks of about _BLOCK_PIXELS (whole grid
    rows, or slices of one row when a row is longer) keep the working set
    cache-resident.  Per block and cycle, one pass evaluates the distance
    and phasor fields of every distinct element, which the VX that use
    them share.  Per pixel, each VX sums its records' complex64 values in
    strict cycle order over one cycle batch, then adds the sum to its
    complex64 image, so neither the decomposition nor the thread count can
    change bits; the stack is complex64 throughout, the SarImageStack
    dtype.  threads must be >= 1; at most as many workers run as the
    process has CPUs.  Raises ConfigError when the grid's farthest pixel
    needs the range profile's last bin or one past it, at or beyond
    c*fs/(2*slope), so every q lies below the last kept slope; when a
    partial sum or an image sum is beyond float32's range, as a profile bin
    beyond it makes one; when a pixel is NaN, as a non-finite carrier
    makes it ("VX k image holds non-finite pixels"); and when a pixel's
    distance from the aperture overflows.

    images says where the stack goes.  By default it is a new complex64
    array.  Otherwise images is called once, with the stack's other fields
    as keywords (grid, array, phase_center, aperture_length_m,
    wavelength_m), and returns the writable, zeroed (n_vx, n_u, n_v) store
    to add the images into: a complex64 array, or an ArrayStore such as the
    file formats.stack_file opens.  For each cycle batch and pixel block,
    the block's slices of every VX are read from the store, the batch's
    partial sums added and checked, and the slices written back, so a
    stack made in its file is held one pixel block at a time.
    """
    if not np.isfinite(image_height_m):
        raise ConfigError(f"image_height_m must be finite, got {image_height_m!r}")
    if not threads >= 1:
        raise ConfigError(f"threads must be >= 1, got {threads!r}")
    taps, n_padded, bin_spacing_m = _range_setup(capture.config, oversample_factor, window)
    sel, center_pose = _select_aperture(capture, aperture)
    array = capture.array
    slot = array.vx_index(capture.tx[sel], capture.rx[sel])
    # group by TDM cycle, keeping time order within each cycle
    order = np.argsort(capture.cycle[sel], kind="stable")
    sel, slot = sel[order], slot[order]
    cycle = capture.cycle[sel]
    starts = np.flatnonzero(np.r_[True, cycle[1:] != cycle[:-1]])
    bounds = np.r_[starts, sel.size].tolist()
    # Distinct element offsets (coincident TX/RX positions share one field)
    # and their world positions at every cycle pose, (n_cycles, n_offsets, 3).
    offsets, key = np.unique(
        np.concatenate([array.tx_positions, array.rx_positions]), axis=0, return_inverse=True
    )
    key = key.reshape(-1)
    world = np.stack([capture.poses[k].to_world(offsets) for k in capture.pose_index[sel[starts]]])
    tx_list = key[capture.tx[sel]].tolist()
    rx_list = key[array.n_tx + capture.rx[sel]].tolist()
    slot_list = slot.tolist()

    inv_bin = 1.0 / bin_spacing_m
    half_inv_bin = 0.5 * inv_bin
    k_carrier = 2.0 * np.pi * capture.config.center_frequency_hz / C_LIGHT
    u, v = grid.u_centers(), grid.v_centers()
    pz = center_pose.position[2] + image_height_m
    n_v = v.shape[0]
    # A record's fractional bin q = (d_tx + d_rx) / 2 in bins is at most
    # the farthest element's distance in bins, reach, up to rounding.
    # Interpolation reads bins trunc(q) and trunc(q) + 1: none past
    # floor(reach) + 1, or floor(reach) + 2 where rounding lifts q across
    # the integer just above reach.  Profiles keep the bins through
    # floor(reach) + 2, or all of them for a grid that reaches that far.
    with np.errstate(over="ignore"):
        farthest = _farthest(world, u, v, pz)
        reach = farthest * inv_bin
    if not np.isfinite(reach):
        raise ConfigError(
            f"the image grid's farthest pixel lies at no finite distance from the aperture "
            f"(image_height_m = {float(image_height_m)!r})"
        )
    # with 1e-6 bins to spare for rounding, by which q may pass reach
    if not reach < n_padded - 1 - 1e-6:
        raise ConfigError(
            f"the image grid's farthest pixel lies {farthest:.4g} m from the aperture, at or past the "
            f"range profile's last bin at {(n_padded - 1) * bin_spacing_m:.4g} m "
            f"(range limit c*fs/(2*slope) = {n_padded * bin_spacing_m:.4g} m)"
        )
    keep_bins = reach + 3
    fields = dict(
        grid=grid,
        array=array,
        phase_center=center_pose.position,
        aperture_length_m=aperture.length_m,
        wavelength_m=derive_chirp_params(capture.config).wavelength_m,
    )
    store = np.zeros((array.n_vx, grid.n_u, grid.n_v), dtype=np.complex64) if images is None else images(**fields)

    # A value beyond float32's range, a profile bin or a sum, makes some
    # partial sum or image sum inf, which is refused below; the steps on the
    # way need not warn.
    @np.errstate(over="ignore", invalid="ignore")
    def accumulate_block(block, c_lo, c_hi, rows, slopes):
        u_lo, u_hi, v_lo, v_hi = block
        bu, bv = u[u_lo:u_hi], v[v_lo:v_hi]
        base = bounds[c_lo]
        n_px = (u_hi - 1 - u_lo) * n_v + v_hi - v_lo
        # each VX's values over this cycle batch, at most _CYCLE_BATCH per VX
        partial = np.zeros((array.n_vx, n_px), dtype=np.complex64)
        # buffers reused by every cycle: each element's distance (then in
        # half bins) and phasor; and by every record
        dist = np.empty((len(offsets), n_px))
        phasor = np.empty(dist.shape, dtype=np.complex64)
        phase_work = (np.empty(dist.shape), np.empty(dist.shape, dtype=np.float32))
        q, value = np.empty(n_px), np.empty(n_px, dtype=np.complex64)
        work = (np.empty(n_px), np.empty(n_px, dtype=np.intp), np.empty(n_px, dtype=np.complex64))
        for c in range(c_lo, c_hi):
            # every element's field at once: the same operations in the same
            # order as sqrt(((u - x)**2 + (v - y)**2) + (pz - z)**2) per pixel
            xyz = world[c]
            np.add(
                ((bu - xyz[:, :1]) ** 2)[:, :, None],
                ((bv - xyz[:, 1:2]) ** 2)[:, None, :],
                out=dist.reshape(-1, bu.shape[0], bv.shape[0]),
            )
            dist += (pz - xyz[:, 2:]) ** 2
            np.sqrt(dist, out=dist)
            _carrier_phasor(dist, k_carrier, phasor, phase_work)
            dist *= half_inv_bin
            for r in range(bounds[c], bounds[c + 1]):
                t, s = tx_list[r], rx_list[r]
                np.add(dist[t], dist[s], out=q)
                out = _interp_linear(rows[r - base], slopes[r - base], q, work, value)
                out *= phasor[t]
                out *= phasor[s]
                partial[slot_list[r]] += out
        # the block's image sums: a view of an array, or slices read from a
        # store and written back.  A non-finite partial sum stays non-finite
        # in the image, which held only finite pixels before.
        region = (slice(None), slice(u_lo, u_hi), slice(v_lo, v_hi))
        sums = store[region]
        sums += partial.reshape(sums.shape)
        values = sums.reshape(array.n_vx, -1).view(np.float32)
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            overflowed = np.isinf(values).any(axis=1)
            if overflowed.any():
                raise ConfigError(f"VX {int(np.argmax(overflowed))} image holds pixels beyond float32 range")
            raise ConfigError(f"VX {int(np.argmin(finite))} image holds non-finite pixels")
        store[region] = sums

    # workers beyond the CPUs add no speed, and each would cost a thread and
    # a pixel block of its own
    workers = int(min(threads, _available_cpus()))
    n_blocks = -(-grid.n_u * n_v // _BLOCK_PIXELS)
    blocks = _pixel_blocks(u.shape[0], n_v, max(workers, n_blocks))
    pool = ThreadPoolExecutor(max_workers=min(workers, len(blocks))) if workers > 1 and len(blocks) > 1 else None
    try:
        for c_lo in range(0, len(starts), _CYCLE_BATCH):
            c_hi = min(c_lo + _CYCLE_BATCH, len(starts))
            rows = _compress(capture.samples[sel[bounds[c_lo] : bounds[c_hi]]], taps, n_padded)
            rows = rows[:, : int(keep_bins)]
            with np.errstate(over="ignore"):
                slopes = np.diff(rows, axis=1).astype(np.complex64)
                rows = rows.astype(np.complex64)
            if pool is None:
                for block in blocks:
                    accumulate_block(block, c_lo, c_hi, rows, slopes)
            else:
                list(pool.map(lambda b: accumulate_block(b, c_lo, c_hi, rows, slopes), blocks))
    finally:
        if pool is not None:
            pool.shutdown()
    return SarImageStack(images=store, **fields)


def predicted_azimuth_resolution(aperture_length_m: float, wavelength_m: float, theta_rad: float) -> float:
    """Nominal azimuth resolution lambda / (L * sin(theta)) in radians."""
    if not aperture_length_m > 0:
        raise ConfigError(f"aperture length must be > 0, got {aperture_length_m!r}")
    s = np.sin(theta_rad)
    if s == 0.0:
        raise DomainError("degenerate angle: sin(theta) = 0")
    return wavelength_m / (aperture_length_m * s)
