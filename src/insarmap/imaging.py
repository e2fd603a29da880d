"""SAR image formation: range compression plus direct (time-domain)
backprojection.

One complex image is formed per virtual element on a shared world-frame
grid.  All images reference the same phase center (the aperture-center
pose), which keeps inter-VX pixel phase differences physically meaningful
for the interferometric stage.

Backprojection accumulates, per pixel p and pulse k,

    I(p) += P_k(R_k(p)) * exp(-j*2*pi*f_c*(d_tx + d_rx)/c)

where R_k(p) = (d_tx + d_rx)/2 is the monostatic-equivalent range and P_k
is the interpolated range profile.  The conjugate carrier term cancels the
f_c*tau phase carried by the dechirped data, so a focused target
accumulates zero phase regardless of its grid position.

Each one-leg carrier phasor exp(-j*2*pi*f_c*d/c) is evaluated from the
phase range-reduced to [-pi, pi] in float64 and then rounded to float32 for
numpy's vectorized cos and sin: it is within 1e-6 of the complex exp for
any leg up to 100 m (1.9e-7 measured).  Distances, interpolation weights
and the accumulation stay float64/complex128, and an image differs from one
made with the exact complex exp by at most 1e-6 of its peak magnitude; the
tests hold both bounds.  The float32 bits depend on which SIMD path numpy
dispatches cos and sin to, so artifacts are byte-identical only on one
numpy build and CPU dispatch path.

Pixel blocks are whole grid rows, or slices of one row when a row is
longer than a block, so each element's squared distance is the outer sum
of per-row and per-column squares plus the height term, the same
operations in the same order as a per-pixel sum.  Range profiles are
cut after the last bin any pixel of the grid can reach, plus the sinc
half-width and a margin, so the first differences and the interpolation
read only the bins in use.  Linear interpolation uses the slope form
P[i] + (P[i+1] - P[i])*w, with the differences taken once per batch of
cycles.  Pixels whose range lies beyond the profile extent contribute
zero; whether any pixel of a pixel block can be that far is checked once
per block and cycle batch, and only such blocks pay for the clamping.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .simulate import RawCapture
from .types import C_LIGHT, VirtualArray, derive_chirp_params

WINDOWS = ("rectangular", "hann")
INTERPOLATIONS = ("linear", "sinc")

# Windowed-sinc interpolator: 32 taps under a continuous Kaiser window is
# enough to keep interpolation error below ~1e-4 for profiles oversampled
# 4x or more.
_SINC_TAPS = 32
_SINC_BETA = 10.0

# image_stack tiling: pixel blocks of whole grid rows (or of single-row
# slices, for rows longer than a block), about this many pixels each, sized
# to stay cache-resident; cycle batches bounding how many range profiles
# are alive at once (8 cycles of 12 records x 2048 bins are 3 MiB, plus the
# first differences of the bins in reach).  Per-pixel accumulation order
# does not depend on either.
_BLOCK_PIXELS = 16384
_CYCLE_BATCH = 8

# The most pixels an ImageGrid may hold: 2**26 is 119 times the default
# 750 x 750 grid, and its 12-VX stack is 12 GiB of complex128.
_MAX_PIXELS = 2**26


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

    @staticmethod
    def default(origin=(-15.0, 0.0)) -> "ImageGrid":
        """30 m x 30 m grid at 4 cm pixels."""
        return ImageGrid(origin_m=np.asarray(origin, float), extent_m=np.array([30.0, 30.0]), pixel_size_m=0.04)

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
    center pose are imaged.  center_time_s defaults to the capture mid-time."""

    length_m: float = 1.0
    center_time_s: float | None = None

    def __post_init__(self) -> None:
        if not (self.length_m > 0 and np.isfinite(self.length_m)):
            raise ConfigError(f"aperture length must be > 0, got {self.length_m!r}")


@dataclass(frozen=True, eq=False)
class RangeProfileSet:
    """Per-pulse oversampled range profiles (row i is record i of the capture)."""

    capture: RawCapture
    profiles: np.ndarray  # (n_records, n_bins) complex
    bin_spacing_m: float


@dataclass(frozen=True, eq=False)
class SarImageStack:
    """One complex image per VX on a common grid with a common phase center.

    Pixels and the phase center must be finite, and the wavelength finite
    and positive.
    """

    grid: ImageGrid
    array: VirtualArray
    images: np.ndarray  # (n_vx, n_u, n_v) complex
    phase_center: np.ndarray  # (3,) world
    aperture_length_m: float
    wavelength_m: float

    def __post_init__(self) -> None:
        if self.images.shape != (self.array.n_vx, self.grid.n_u, self.grid.n_v):
            raise ConfigError(
                f"image stack shape {self.images.shape} does not match "
                f"{self.array.n_vx} VX on a {self.grid.n_u}x{self.grid.n_v} grid"
            )
        # checked plane by plane, so no stack-sized mask is made
        for k, plane in enumerate(self.images):
            if not np.isfinite(plane).all():
                raise ConfigError(f"VX {k} image holds non-finite pixels")
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
    if int(oversample_factor) != oversample_factor or oversample_factor < 2:
        raise ConfigError(f"oversample_factor must be an integer >= 2, got {oversample_factor!r}")
    if window not in WINDOWS:
        raise ConfigError(f"unknown window {window!r}; expected one of {WINDOWS}")
    n = cfg.samples_per_chirp
    n_padded = n * int(oversample_factor)
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
        capture=capture,
        profiles=_compress(capture.samples, taps, n_padded),
        bin_spacing_m=bin_spacing,
    )


def _select_aperture(capture: RawCapture, aperture: Aperture):
    """Pick records whose cycle pose lies within +-L/2 along-track of the
    aperture center.  Returns (record indices, center pose, along-track unit)."""
    if capture.n_records == 0:
        raise DomainError("capture is empty")
    # each cycle is anchored at the pose of its first record
    _, first = np.unique(capture.cycle, return_index=True)
    anchors = [capture.poses[k] for k in capture.pose_index[first]]
    anchor_times = np.array([p.time_s for p in anchors])

    center_time = aperture.center_time_s
    if center_time is None:
        center_time = 0.5 * (anchor_times[0] + anchor_times[-1])
    elif not (capture.time_s[0] <= center_time <= capture.time_s[-1]):
        raise DomainError(
            f"aperture center time {center_time!r} outside the capture span "
            f"[{capture.time_s[0]!r}, {capture.time_s[-1]!r}]"
        )
    center_pose = anchors[int(np.argmin(np.abs(anchor_times - center_time)))]

    motion = anchors[-1].position - anchors[0].position
    span = float(np.linalg.norm(motion))
    u_hat = motion / span if span > 1e-12 else np.array([1.0, 0.0, 0.0])

    along = np.array(
        [abs(float(np.dot(p.position - center_pose.position, u_hat))) for p in capture.poses]
    )
    keep = np.flatnonzero(along[capture.pose_index] <= aperture.length_m / 2.0)
    if not keep.size:
        raise DomainError("aperture selects no pulses")
    return keep, center_pose, u_hat


def _interp_linear(profile: np.ndarray, slope: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Linear interpolation at fractional bin positions 0 <= q <= last bin,
    in slope form profile[i] + slope[i] * (q - i) with slope =
    np.diff(profile).  The kernel clamps queries past the last bin and
    zeroes their values."""
    i0 = q.astype(np.intp)  # truncation == floor for non-negative q
    np.minimum(i0, slope.shape[0] - 1, out=i0)
    w = q - i0
    out = np.take(slope, i0)
    out *= w
    out += np.take(profile, i0)
    return out


_SINC_OFFSETS = np.arange(-_SINC_TAPS // 2 + 1, _SINC_TAPS // 2 + 1)


def _interp_sinc(profile: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Kaiser-windowed sinc interpolation at fractional bin positions
    0 <= q <= last bin; taps outside the profile read zero."""
    n = profile.shape[0]
    base = q.astype(np.intp)
    frac = q - base
    # tap positions relative to the query, (n_pix, taps)
    t = frac[:, None] - _SINC_OFFSETS[None, :]
    x = np.clip(2.0 * t / _SINC_TAPS, -1.0, 1.0)
    weights = np.sinc(t) * (np.i0(_SINC_BETA * np.sqrt(1.0 - x * x)) / np.i0(_SINC_BETA))
    idx = base[:, None] + _SINC_OFFSETS[None, :]
    inside = (idx >= 0) & (idx < n)
    np.clip(idx, 0, n - 1, out=idx)
    return np.sum(np.where(inside, np.take(profile, idx), 0.0) * weights, axis=1)


def _carrier_phasor(d: np.ndarray, k_carrier: float) -> np.ndarray:
    """exp(-j*k_carrier*d), to within 1e-6 for d up to 100 m (1.9e-7 measured).

    The phase is range-reduced in float64 (d in carrier wavelengths, minus
    the nearest whole number), so only the reduced phase in [-pi, pi] is
    rounded to float32, where numpy's cos and sin run vectorized.  A scalar
    complex exp of the ~1e4 rad phase is about ten times slower.
    """
    waves = d * (k_carrier / (2.0 * np.pi))
    waves -= np.rint(waves)
    theta = (waves * (-2.0 * np.pi)).astype(np.float32)
    phasor = np.empty(d.shape, dtype=np.complex128)
    phasor.real = np.cos(theta)
    phasor.imag = np.sin(theta)
    return phasor


def _element_field(world: np.ndarray, pu, pv, pz, k_carrier, half_inv_bin):
    """Each pixel's distance d from an element at world, times half_inv_bin
    (so that a record's fractional bin is the sum of its two legs), plus the
    one-leg carrier phasor exp(-j*k*d).  The pixels are the grid rows at u
    centers pu, each over the v centers pv, u-major; d is
    sqrt(((u - x)**2 + (v - y)**2) + (pz - z)**2) per pixel."""
    d = np.add.outer((pu - world[0]) ** 2, (pv - world[1]) ** 2).reshape(-1)
    d += (pz - world[2]) ** 2
    np.sqrt(d, out=d)
    phasor = _carrier_phasor(d, k_carrier)
    d *= half_inv_bin
    return d, phasor


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


def _pixel_blocks(n_u: int, n_v: int, n_blocks: int) -> list[tuple[int, int, int, int]]:
    """About n_blocks (u_lo, u_hi, v_lo, v_hi) blocks covering an n_u x n_v
    grid: runs of whole rows, or, when there are fewer rows than blocks,
    slices of single rows.  Either way a block's pixels are contiguous in
    the u-major flat layout."""
    if n_blocks <= n_u:
        return [(lo, hi, 0, n_v) for lo, hi in _chunk_bounds(n_u, n_blocks)]
    per_row = _chunk_bounds(n_v, -(-n_blocks // n_u))
    return [(r, r + 1, lo, hi) for r in range(n_u) for lo, hi in per_row]


def _backproject(
    capture: RawCapture,
    grid: ImageGrid,
    aperture: Aperture,
    bin_spacing_m: float,
    profile_rows,
    *,
    interpolation: str,
    image_height_m: float,
    threads: int,
    vx_index: int | None = None,
):
    """The one backprojection kernel.

    Images every VX of the aperture's records (or only VX vx_index) and
    returns (images (n_images, n_pix), center pose).  profile_rows maps an
    array of record indices to their range profiles; it is called once per
    batch of _CYCLE_BATCH cycles, which bounds the profile memory, and only
    the bins the grid can reach are kept.  Pixel blocks of about
    _BLOCK_PIXELS (whole grid rows, or slices of one row when a row is
    longer) keep the working set cache-resident.  Per-pixel accumulation
    runs in strict cycle order, so neither the decomposition nor the thread
    count can change bits.
    """
    if interpolation not in INTERPOLATIONS:
        raise ConfigError(f"unknown interpolation {interpolation!r}; expected one of {INTERPOLATIONS}")
    if not np.isfinite(image_height_m):
        raise ConfigError(f"image_height_m must be finite, got {image_height_m!r}")
    sel, center_pose, _ = _select_aperture(capture, aperture)
    array = capture.array
    slot = array.vx_index(capture.tx[sel], capture.rx[sel])
    if vx_index is not None:
        sel = sel[slot == vx_index]
        if not sel.size:
            raise DomainError(f"aperture contains no pulses for VX {vx_index}")
        slot = np.zeros(sel.size, dtype=np.intp)
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
    linear = interpolation == "linear"
    u, v = grid.u_centers(), grid.v_centers()
    pz = center_pose.position[2] + image_height_m
    n_v = v.shape[0]
    images = np.zeros((1 if vx_index is not None else array.n_vx, u.shape[0] * n_v), dtype=np.complex128)
    # A record's fractional bin (d_tx + d_rx) / 2 in bins is at most the
    # farthest element's distance in bins, reach; both round monotonically,
    # so no bin past floor(reach) + 1 is read by linear interpolation, nor
    # past floor(reach) + _SINC_TAPS // 2 by sinc.  Profiles keep the bins
    # through floor(reach) + _SINC_TAPS // 2 + 2.
    reach = _farthest(world, u, v, pz) * inv_bin
    keep_bins = reach + (_SINC_TAPS // 2 + 3)

    def accumulate_block(block, c_lo, c_hi, rows, slopes, last_bin):
        u_lo, u_hi, v_lo, v_hi = block
        bu, bv = u[u_lo:u_hi], v[v_lo:v_hi]
        pixels = slice(u_lo * n_v + v_lo, (u_hi - 1) * n_v + v_hi)
        # When the block's farthest bin is inside the full profile (with
        # 1e-6 bins to spare for rounding), no pixel of it needs the
        # beyond-the-extent zeroing.
        in_extent = _farthest(world[c_lo:c_hi], bu, bv, pz) * inv_bin < last_bin - 1e-6
        base = bounds[c_lo]
        for c in range(c_lo, c_hi):
            fields: list = [None] * len(offsets)
            for r in range(bounds[c], bounds[c + 1]):
                t, s = tx_list[r], rx_list[r]
                if fields[t] is None:
                    fields[t] = _element_field(world[c, t], bu, bv, pz, k_carrier, half_inv_bin)
                if fields[s] is None:
                    fields[s] = _element_field(world[c, s], bu, bv, pz, k_carrier, half_inv_bin)
                (q_t, ph_t), (q_r, ph_r) = fields[t], fields[s]
                q = q_t + q_r
                if not in_extent:
                    # clamped first: a far pixel's bin can overflow an index
                    beyond = q > last_bin
                    q[beyond] = last_bin
                if linear:
                    value = _interp_linear(rows[r - base], slopes[r - base], q)
                else:
                    value = _interp_sinc(rows[r - base], q)
                value *= ph_t
                value *= ph_r
                if not in_extent:
                    value[beyond] = 0.0
                images[slot_list[r], pixels] += value

    n_blocks = -(-images.shape[1] // _BLOCK_PIXELS)
    blocks = _pixel_blocks(u.shape[0], n_v, max(threads, n_blocks))
    pool = ThreadPoolExecutor(max_workers=min(int(threads), len(blocks))) if threads > 1 and len(blocks) > 1 else None
    try:
        for c_lo in range(0, len(starts), _CYCLE_BATCH):
            c_hi = min(c_lo + _CYCLE_BATCH, len(starts))
            rows = profile_rows(sel[bounds[c_lo] : bounds[c_hi]])
            last_bin = rows.shape[1] - 1
            if keep_bins < rows.shape[1]:
                rows = rows[:, : int(keep_bins)]
            slopes = np.diff(rows, axis=1) if linear else None
            if pool is None:
                for block in blocks:
                    accumulate_block(block, c_lo, c_hi, rows, slopes, last_bin)
            else:
                list(pool.map(lambda b: accumulate_block(b, c_lo, c_hi, rows, slopes, last_bin), blocks))
    finally:
        if pool is not None:
            pool.shutdown()
    return images, center_pose


def backproject(
    profiles: RangeProfileSet,
    vx_index: int,
    grid: ImageGrid,
    aperture: Aperture,
    *,
    image_height_m: float = 0.0,
    interpolation: str = "linear",
    threads: int = 1,
) -> np.ndarray:
    """Backproject one virtual element's pulses onto the grid.

    The image plane sits at image_height_m relative to the phase-center
    height (default 0: the sensor plane).  Pixel ranges beyond the profile
    extent contribute zero.  Accumulation over pulses is sequential per
    pixel, so results do not depend on the thread count.
    """
    capture = profiles.capture
    if not 0 <= vx_index < capture.array.n_vx:
        raise DomainError(f"vx_index {vx_index} not in array of {capture.array.n_vx} VX")
    images, _ = _backproject(
        capture, grid, aperture, profiles.bin_spacing_m, lambda idx: profiles.profiles[idx],
        interpolation=interpolation, image_height_m=image_height_m, threads=threads,
        vx_index=vx_index,
    )
    return images[0].reshape(grid.n_u, grid.n_v)


def image_stack(
    capture: RawCapture,
    grid: ImageGrid,
    aperture: Aperture,
    *,
    oversample_factor: int = 4,
    window: str = "rectangular",
    interpolation: str = "linear",
    image_height_m: float = 0.0,
    threads: int = 1,
) -> SarImageStack:
    """Form one backprojected image per virtual element.

    The same kernel as backproject, with range compression streamed one
    batch of cycles at a time (which keeps memory flat) and per-element
    distance fields shared across the VX that use them.
    """
    taps, n_padded, bin_spacing = _range_setup(capture.config, oversample_factor, window)
    images, center_pose = _backproject(
        capture, grid, aperture, bin_spacing,
        lambda idx: _compress(capture.samples[idx], taps, n_padded),
        interpolation=interpolation, image_height_m=image_height_m, threads=threads,
    )
    return SarImageStack(
        grid=grid,
        array=capture.array,
        images=images.reshape(capture.array.n_vx, grid.n_u, grid.n_v),
        phase_center=center_pose.position,
        aperture_length_m=aperture.length_m,
        wavelength_m=derive_chirp_params(capture.config).wavelength_m,
    )


def predicted_azimuth_resolution(aperture_length_m: float, wavelength_m: float, theta_rad: float) -> float:
    """Nominal azimuth resolution lambda / (L * sin(theta)) in radians."""
    if not aperture_length_m > 0:
        raise ConfigError(f"aperture length must be > 0, got {aperture_length_m!r}")
    s = np.sin(theta_rad)
    if s == 0.0:
        raise DomainError("degenerate angle: sin(theta) = 0")
    return wavelength_m / (aperture_length_m * s)
