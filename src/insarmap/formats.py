"""Self-describing little-endian binary artifacts plus PGM dumps.

Three formats, all versioned and magic-tagged:

INSARRAW (raw capture)
    magic 8s, version u32,
    chirp: f64 center_frequency_hz, f64 ramp_slope_hz_per_s,
           u32 samples_per_chirp, f64 sample_rate_sps, f64 pri_s,
           u32 chirps_per_tx_per_frame, u32 num_tx,
    array: u32 n_tx, u32 n_rx, then 3*f64 per element (TX first),
    u64 n_records, then per record:
       u32 tx, u32 rx, u32 cycle, f64 time,
       pose: f64 time, 3*f64 position, 4*f64 quaternion (w, x, y, z),
       samples: 2*N f32 interleaved I/Q.

INSARIMG (image stack)
    magic 8s, version u32,
    grid: f64 origin_u, origin_v, extent_u, extent_v, pixel_size,
    f64 aperture_length, f64 wavelength, 3*f64 phase_center,
    array: u32 n_tx, u32 n_rx, 3*f64 per element,
    u32 n_vx, u32 n_u, u32 n_v,
    per VX one plane of n_u*n_v complex64 (f32 I/Q interleaved), u-major.

INSARELV (elevation map)
    magic 8s, version u32, grid as above, 3*f64 phase_center,
    f64 wavelength, f64 baseline, u32 n_u, u32 n_v,
    five f32 planes: elevation (NaN = absent), mean phase delay,
    circular variance, combined magnitude, snr_db.
"""

from __future__ import annotations

import dataclasses
import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, DataFormatError
from .imaging import ImageGrid, SarImageStack
from .interferometry import ElevationMap, InterferogramGrid
from .simulate import RawCapture
from .types import ChirpConfig, Pose, build_virtual_array

MAGIC_RAW = b"INSARRAW"
MAGIC_IMG = b"INSARIMG"
MAGIC_ELV = b"INSARELV"
FORMAT_VERSION = 1
# ChirpConfig's fields, in declaration order
_CHIRP_FORMAT = "<ddIddII"


@contextmanager
def _reading(path):
    """Open path for reading.  Header values that the artifact's own types
    reject (ConfigError) are a corrupt file, so they become DataFormatError."""
    try:
        with open(path, "rb") as fh:
            yield fh
    except ConfigError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _read_exact(fh, count: int, what: str) -> bytes:
    """Read count bytes.  The size a header declared is checked against the
    bytes left in the file before anything is allocated for it, so a
    corrupt header cannot request an arbitrarily large allocation."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    data = fh.read(count) if count <= left else b""
    if len(data) != count:
        raise DataFormatError(f"truncated file while reading {what}: {count} bytes declared, {left} left")
    return data


def _unpack(fh, fmt: str, what: str):
    size = struct.calcsize(fmt)
    return struct.unpack(fmt, _read_exact(fh, size, what))


def _check_header(fh, magic: bytes, path) -> None:
    got = fh.read(len(magic))
    if got != magic:
        raise DataFormatError(f"{path}: bad magic {got!r}, expected {magic!r}")
    (version,) = _unpack(fh, "<I", "version")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported format version {version}")


def _write_positions(fh, positions: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(positions, dtype="<f8").tobytes())


def _read_positions(fh, count: int, what: str) -> np.ndarray:
    raw = _read_exact(fh, count * 3 * 8, what)
    return np.frombuffer(raw, dtype="<f8").reshape(count, 3).copy()


def _record_dtype(samples_per_chirp: int) -> np.dtype:
    """One packed INSARRAW record."""
    return np.dtype(
        [
            ("tx", "<u4"),
            ("rx", "<u4"),
            ("cycle", "<u4"),
            ("time", "<f8"),
            ("pose", "<f8", (8,)),  # time, position xyz, quaternion wxyz
            ("iq", "<c8", (samples_per_chirp,)),
        ]
    )


def write_capture(capture: RawCapture, path) -> None:
    cfg = capture.config
    block = np.empty(capture.n_records, dtype=_record_dtype(cfg.samples_per_chirp))
    block["tx"] = capture.tx
    block["rx"] = capture.rx
    block["cycle"] = capture.cycle
    block["time"] = capture.time_s
    pose_table = np.array([[p.time_s, *p.position, *p.quaternion] for p in capture.poses])
    block["pose"] = pose_table.reshape(-1, 8)[capture.pose_index]
    block["iq"] = capture.samples
    with open(path, "wb") as fh:
        fh.write(MAGIC_RAW)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack(_CHIRP_FORMAT, *dataclasses.astuple(cfg)))
        fh.write(struct.pack("<II", capture.array.n_tx, capture.array.n_rx))
        _write_positions(fh, capture.array.tx_positions)
        _write_positions(fh, capture.array.rx_positions)
        fh.write(struct.pack("<Q", capture.n_records))
        fh.write(block.data)


def read_capture(path) -> RawCapture:
    """Read an INSARRAW capture.  Raises DataFormatError for a header whose
    sizes or values are invalid, for non-finite samples, and for record
    columns that do not form a valid capture."""
    with _reading(path) as fh:
        _check_header(fh, MAGIC_RAW, path)
        cfg = ChirpConfig(*_unpack(fh, _CHIRP_FORMAT, "chirp config"))
        n_tx, n_rx = _unpack(fh, "<II", "array size")
        tx = _read_positions(fh, n_tx, "TX positions")
        rx = _read_positions(fh, n_rx, "RX positions")
        array = build_virtual_array(tx, rx)
        (n_records,) = _unpack(fh, "<Q", "record count")
        dtype = _record_dtype(cfg.samples_per_chirp)
        block = np.frombuffer(_read_exact(fh, n_records * dtype.itemsize, "records"), dtype=dtype)
        finite = np.isfinite(block["iq"]).all(axis=1)
        if not finite.all():
            raise DataFormatError(f"{path}: record {int(np.argmin(finite))} holds non-finite samples")
        # one Pose per distinct pose, compared by its bytes
        _, first, pose_index = np.unique(
            block["pose"].view("<u8"), axis=0, return_index=True, return_inverse=True
        )
        poses = tuple(Pose(time_s=float(r[0]), position=r[1:4], quaternion=r[4:8]) for r in block["pose"][first])
        return RawCapture(
            config=cfg,
            array=array,
            samples=block["iq"].astype(np.complex128),
            tx=block["tx"],
            rx=block["rx"],
            cycle=block["cycle"],
            time_s=block["time"],
            poses=poses,
            pose_index=pose_index.reshape(-1),
        )


def _write_grid(fh, grid: ImageGrid) -> None:
    fh.write(
        struct.pack(
            "<5d",
            grid.origin_m[0],
            grid.origin_m[1],
            grid.extent_m[0],
            grid.extent_m[1],
            grid.pixel_size_m,
        )
    )


def _read_grid(fh) -> ImageGrid:
    ou, ov, eu, ev, pix = _unpack(fh, "<5d", "grid")
    return ImageGrid(origin_m=np.array([ou, ov]), extent_m=np.array([eu, ev]), pixel_size_m=pix)


def write_image_stack(stack: SarImageStack, path) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC_IMG)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        _write_grid(fh, stack.grid)
        fh.write(struct.pack("<dd", stack.aperture_length_m, stack.wavelength_m))
        fh.write(np.asarray(stack.phase_center, dtype="<f8").tobytes())
        fh.write(struct.pack("<II", stack.array.n_tx, stack.array.n_rx))
        _write_positions(fh, stack.array.tx_positions)
        _write_positions(fh, stack.array.rx_positions)
        fh.write(struct.pack("<III", stack.array.n_vx, stack.grid.n_u, stack.grid.n_v))
        # one plane at a time, so no stack-sized copy is made
        for plane in stack.images:
            fh.write(np.ascontiguousarray(plane, dtype="<c8"))


def read_image_stack(path) -> SarImageStack:
    """Read an INSARIMG stack.  Raises DataFormatError for a header whose
    sizes or values are invalid and for non-finite pixels."""
    with _reading(path) as fh:
        _check_header(fh, MAGIC_IMG, path)
        grid = _read_grid(fh)
        aperture_length, wavelength = _unpack(fh, "<dd", "stack header")
        phase_center = np.frombuffer(_read_exact(fh, 24, "phase center"), dtype="<f8").copy()
        n_tx, n_rx = _unpack(fh, "<II", "array size")
        tx = _read_positions(fh, n_tx, "TX positions")
        rx = _read_positions(fh, n_rx, "RX positions")
        array = build_virtual_array(tx, rx)
        n_vx, n_u, n_v = _unpack(fh, "<III", "stack dims")
        if n_vx != array.n_vx:
            raise DataFormatError(f"{path}: VX count {n_vx} does not match array {array.n_vx}")
        if (n_u, n_v) != (grid.n_u, grid.n_v):
            raise DataFormatError(f"{path}: plane dims {(n_u, n_v)} do not match grid")
        raw = _read_exact(fh, n_vx * n_u * n_v * 8, "image planes")
        images = np.frombuffer(raw, dtype="<c8").reshape(n_vx, n_u, n_v).astype(np.complex128)
        # checked plane by plane, so no stack-sized mask is made
        for k, plane in enumerate(images):
            if not np.isfinite(plane).all():
                raise DataFormatError(f"{path}: VX {k} image holds non-finite pixels")
        return SarImageStack(
            grid=grid,
            array=array,
            images=images,
            phase_center=phase_center,
            aperture_length_m=aperture_length,
            wavelength_m=wavelength,
        )


def write_elevation_map(emap: ElevationMap, path) -> None:
    intf = emap.interferogram
    with open(path, "wb") as fh:
        fh.write(MAGIC_ELV)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        _write_grid(fh, emap.grid)
        fh.write(np.asarray(emap.phase_center, dtype="<f8").tobytes())
        fh.write(struct.pack("<dd", emap.wavelength_m, emap.baseline_m))
        fh.write(struct.pack("<II", emap.grid.n_u, emap.grid.n_v))
        for plane in (
            emap.elevation,
            intf.mean_phase_delay,
            intf.circular_variance,
            intf.combined_magnitude,
            intf.snr_db,
        ):
            fh.write(np.ascontiguousarray(plane, dtype="<f4").tobytes())


def read_elevation_map(path) -> ElevationMap:
    """Read an INSARELV map.  Raises DataFormatError for a header whose
    sizes or values are invalid; NaN elevation means "absent"."""
    with _reading(path) as fh:
        _check_header(fh, MAGIC_ELV, path)
        grid = _read_grid(fh)
        phase_center = np.frombuffer(_read_exact(fh, 24, "phase center"), dtype="<f8").copy()
        wavelength, baseline = _unpack(fh, "<dd", "map header")
        n_u, n_v = _unpack(fh, "<II", "map dims")
        if (n_u, n_v) != (grid.n_u, grid.n_v):
            raise DataFormatError(f"{path}: plane dims {(n_u, n_v)} do not match grid")
        raw = _read_exact(fh, 5 * n_u * n_v * 4, "map planes")
        planes = np.frombuffer(raw, dtype="<f4").reshape(5, n_u, n_v).astype(np.float64)
        intf = InterferogramGrid(
            grid=grid,
            mean_phase_delay=planes[1],
            circular_variance=planes[2],
            combined_magnitude=planes[3],
            snr_db=planes[4],
        )
        return ElevationMap(
            grid=grid,
            phase_center=phase_center,
            wavelength_m=wavelength,
            baseline_m=baseline,
            elevation=planes[0],
            interferogram=intf,
        )


def write_pgm(image: np.ndarray, path, floor_db: float = -60.0) -> None:
    """Dump a complex image as 16-bit log-magnitude PGM for inspection.

    Magnitudes are scaled to dB below the image peak, clipped at floor_db,
    and mapped to the full 16-bit range.  Rows run along v, columns along u.
    """
    mag = np.abs(np.asarray(image))
    peak = mag.max()
    if peak <= 0:
        db = np.full_like(mag, floor_db, dtype=float)
    else:
        with np.errstate(divide="ignore"):
            db = 20.0 * np.log10(mag / peak)
        db = np.maximum(db, floor_db)
    scaled = np.round((db - floor_db) / (-floor_db) * 65535.0).astype(">u2")
    scaled = scaled.T  # (n_v, n_u): image row = cross-track line
    with open(path, "wb") as fh:
        fh.write(f"P5\n{scaled.shape[1]} {scaled.shape[0]}\n65535\n".encode("ascii"))
        fh.write(scaled.tobytes())
