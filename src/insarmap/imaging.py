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
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .simulate import RawCapture
from .types import C_LIGHT, Pose, VirtualArray, derive_chirp_params

WINDOWS = ("rectangular", "hann")
INTERPOLATIONS = ("linear", "sinc")

# Windowed-sinc interpolator: 32 taps under a continuous Kaiser window is
# enough to keep interpolation error below ~1e-4 for profiles oversampled
# 4x or more.
_SINC_TAPS = 32
_SINC_BETA = 10.0

# image_stack tiling: pixel blocks sized to stay cache-resident, cycle
# batches bounding how many range profiles are alive at once (16 cycles of
# 12 records x 2048 bins are 6 MiB).  Per-pixel accumulation order does
# not depend on either.
_BLOCK_PIXELS = 16384
_CYCLE_BATCH = 16


@dataclass(frozen=True, eq=False)
class ImageGrid:
    """World-frame pixel grid.  u = along-track axis, v = cross-track axis.

    origin_m is the low corner; pixel (iu, iv) is centered at
    origin + (iu + 0.5, iv + 0.5) * pixel_size.
    """

    origin_m: np.ndarray  # (2,)
    extent_m: np.ndarray  # (2,)
    pixel_size_m: float

    def __post_init__(self) -> None:
        origin = np.asarray(self.origin_m, dtype=float).reshape(2)
        extent = np.asarray(self.extent_m, dtype=float).reshape(2)
        if not (self.pixel_size_m > 0 and np.isfinite(self.pixel_size_m)):
            raise ConfigError(f"pixel_size_m must be > 0, got {self.pixel_size_m!r}")
        if not (np.all(extent > 0) and np.isfinite(extent).all()):
            raise ConfigError("grid extent must be positive")
        if np.any(np.round(extent / self.pixel_size_m).astype(int) < 1):
            raise ConfigError("grid extent smaller than one pixel")
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

    def pixel_centers_flat(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat (u, v) center coordinates, u-major (index = iu * n_v + iv)."""
        u = np.repeat(self.u_centers(), self.n_v)
        v = np.tile(self.v_centers(), self.n_u)
        return u, v


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
    oversample_factor: int
    window: str


@dataclass(frozen=True, eq=False)
class SarImageStack:
    """One complex image per VX on a common grid with a common phase center."""

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
        if not self.aperture_length_m > 0:
            raise ConfigError("aperture_length_m must be > 0")
        pc = np.asarray(self.phase_center, dtype=float).reshape(3)
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
        oversample_factor=int(oversample_factor),
        window=window,
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


def _interp_linear(profile: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Linear interpolation at fractional bin positions.

    Queries are ranges scaled to bins, so q >= 0 always; anything past the
    last bin contributes zero (beyond max range).
    """
    n = profile.shape[0]
    i0 = q.astype(np.intp)  # truncation == floor for non-negative q
    np.minimum(i0, n - 2, out=i0)
    w = q - i0
    out = np.take(profile, i0) * (1.0 - w) + np.take(profile, i0 + 1) * w
    out[q > n - 1] = 0.0
    return out


_SINC_OFFSETS = np.arange(-_SINC_TAPS // 2 + 1, _SINC_TAPS // 2 + 1)


def _interp_sinc(profile: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Kaiser-windowed sinc interpolation; zero outside the profile."""
    n = profile.shape[0]
    valid = q <= n - 1
    qc = np.minimum(q, float(n - 1))
    base = qc.astype(np.intp)
    frac = qc - base
    # tap positions relative to the query, (n_pix, taps)
    t = frac[:, None] - _SINC_OFFSETS[None, :]
    x = np.clip(2.0 * t / _SINC_TAPS, -1.0, 1.0)
    weights = np.sinc(t) * (np.i0(_SINC_BETA * np.sqrt(1.0 - x * x)) / np.i0(_SINC_BETA))
    idx = base[:, None] + _SINC_OFFSETS[None, :]
    inside = (idx >= 0) & (idx < n)
    np.clip(idx, 0, n - 1, out=idx)
    out = np.sum(np.where(inside, np.take(profile, idx), 0.0) * weights, axis=1)
    out[~valid] = 0.0
    return out


_INTERP_FNS = {"linear": _interp_linear, "sinc": _interp_sinc}


def _element_field(pose: Pose, offset: np.ndarray, px, py, pz, k_carrier):
    """Distance from a pose-transformed element to each pixel, plus the
    one-leg carrier phasor exp(-j*k*d)."""
    world = pose.to_world(offset)
    d = np.sqrt((px - world[0]) ** 2 + (py - world[1]) ** 2 + (pz - world[2]) ** 2)
    return d, np.exp(-1j * k_carrier * d)


def _chunk_bounds(n_pixels: int, threads: int) -> list[tuple[int, int]]:
    threads = max(1, min(int(threads), n_pixels))
    edges = np.linspace(0, n_pixels, threads + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


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
    batch of _CYCLE_BATCH cycles, which bounds the profile memory.  Pixel
    blocks keep the working set cache-resident.  Per-pixel accumulation
    runs in strict cycle order, so neither the decomposition nor the thread
    count can change bits.
    """
    interp_fn = _INTERP_FNS.get(interpolation)
    if interp_fn is None:
        raise ConfigError(f"unknown interpolation {interpolation!r}; expected one of {INTERPOLATIONS}")
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
    cycle_pose = [capture.poses[k] for k in capture.pose_index[sel[starts]]]
    tx_list, rx_list, slot_list = capture.tx[sel].tolist(), capture.rx[sel].tolist(), slot.tolist()

    inv_bin = 1.0 / bin_spacing_m
    k_carrier = 2.0 * np.pi * capture.config.center_frequency_hz / C_LIGHT
    pu, pv = grid.pixel_centers_flat()
    pz = center_pose.position[2] + image_height_m
    n_pix = pu.shape[0]
    images = np.zeros((1 if vx_index is not None else array.n_vx, n_pix), dtype=np.complex128)

    def accumulate_block(lo, hi, c_lo, c_hi, rows):
        px, py = pu[lo:hi], pv[lo:hi]

        def field(fields, pose, offset):
            # Shared by every record of the cycle that uses the same element
            # position (keyed by offset, so coincident TX/RX positions share).
            key = offset.tobytes()
            if key not in fields:
                fields[key] = _element_field(pose, offset, px, py, pz, k_carrier)
            return fields[key]

        for c in range(c_lo, c_hi):
            fields: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
            for r in range(bounds[c], bounds[c + 1]):
                d_t, ph_t = field(fields, cycle_pose[c], array.tx_positions[tx_list[r]])
                d_r, ph_r = field(fields, cycle_pose[c], array.rx_positions[rx_list[r]])
                q = (0.5 * (d_t + d_r)) * inv_bin
                images[slot_list[r], lo:hi] += interp_fn(rows[r - bounds[c_lo]], q) * ph_t * ph_r

    blocks = _chunk_bounds(n_pix, max(threads, (n_pix + _BLOCK_PIXELS - 1) // _BLOCK_PIXELS))
    pool = ThreadPoolExecutor(max_workers=min(int(threads), len(blocks))) if threads > 1 and len(blocks) > 1 else None
    try:
        for c_lo in range(0, len(starts), _CYCLE_BATCH):
            c_hi = min(c_lo + _CYCLE_BATCH, len(starts))
            rows = profile_rows(sel[bounds[c_lo] : bounds[c_hi]])
            if pool is None:
                for lo, hi in blocks:
                    accumulate_block(lo, hi, c_lo, c_hi, rows)
            else:
                list(pool.map(lambda b: accumulate_block(b[0], b[1], c_lo, c_hi, rows), blocks))
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
