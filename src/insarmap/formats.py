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
import math
import os
import stat
import struct
from contextlib import contextmanager, suppress

import numpy as np

from .errors import ConfigError, DataFormatError, RecordError
from .imaging import Aperture, ImageGrid, SarImageStack, _aperture_rule
from .interferometry import ElevationMap, InterferogramGrid
from .simulate import RawCapture, _round_rows
from .types import ChirpConfig, Pose, VirtualArray, build_virtual_array

MAGIC_RAW = b"INSARRAW"
MAGIC_IMG = b"INSARIMG"
MAGIC_ELV = b"INSARELV"
FORMAT_VERSION = 1
# ChirpConfig's fields, in declaration order
_CHIRP_FORMAT = "<ddIddII"
# capture records read or written per block (about 1 MB at 512 samples per chirp)
_BLOCK_ROWS = 256
# write_pgm clips magnitudes this far below the image peak
_PGM_FLOOR_DB = -60.0


@contextmanager
def _writing(path):
    """Open path for writing.  A writer that raises leaves no file behind:
    it removes the regular file it opened, but never a device, a pipe or a
    symlink given as path (such as /dev/null or /dev/stdout)."""
    with open(path, "wb") as fh:
        try:
            yield fh
        except BaseException:
            opened = os.fstat(fh.fileno())
            fh.close()
            with suppress(OSError):
                if stat.S_ISREG(opened.st_mode) and os.path.samestat(os.lstat(path), opened):
                    os.remove(path)
            raise


@contextmanager
def _reading(path):
    """Open path for reading.  Header values that the artifact's own types
    reject (ConfigError) are a corrupt file, so they become DataFormatError."""
    try:
        with open(path, "rb") as fh:
            yield fh
    except ConfigError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _check_left(fh, count: int, what: str) -> None:
    """Raise DataFormatError unless count bytes are left in the file.  Every
    size a header declares is checked here before anything is allocated for
    it, so a corrupt header cannot request an arbitrarily large allocation."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if count > left:
        raise DataFormatError(f"truncated file while reading {what}: {count} bytes declared, {left} left")


def _read_exact(fh, count: int, what: str) -> bytes:
    """Read count bytes, checked by _check_left first."""
    _check_left(fh, count, what)
    data = fh.read(count)
    if len(data) != count:
        raise DataFormatError(f"truncated file while reading {what}: {count} bytes declared, {len(data)} read")
    return data


def _unpack(fh, fmt: str, what: str):
    size = struct.calcsize(fmt)
    return struct.unpack(fmt, _read_exact(fh, size, what))


def _write_preamble(fh, magic: bytes) -> None:
    fh.write(magic)
    fh.write(struct.pack("<I", FORMAT_VERSION))


def _read_preamble(fh, magic: bytes, path) -> None:
    got = fh.read(len(magic))
    if got != magic:
        raise DataFormatError(f"{path}: bad magic {got!r}, expected {magic!r}")
    (version,) = _unpack(fh, "<I", "version")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported format version {version}")


def _write_array(fh, array: VirtualArray) -> None:
    """The element-array section: u32 n_tx, u32 n_rx, then 3*f64 per
    element, TX first."""
    fh.write(struct.pack("<II", array.n_tx, array.n_rx))
    for positions in (array.tx_positions, array.rx_positions):
        fh.write(np.ascontiguousarray(positions, dtype="<f8").tobytes())


def _read_array(fh) -> VirtualArray:
    n_tx, n_rx = _unpack(fh, "<II", "array size")
    raw = _read_exact(fh, (n_tx + n_rx) * 3 * 8, "element positions")
    positions = np.frombuffer(raw, dtype="<f8").reshape(n_tx + n_rx, 3)
    return build_virtual_array(positions[:n_tx], positions[n_tx:])


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
    """Write an INSARRAW capture.  Records are packed _BLOCK_ROWS at a time
    into one reused block.  The samples are copied as they are: RawCapture
    holds them at the file's precision, complex64, and finite."""
    cfg = capture.config
    n_records = capture.n_records
    pose_table = np.array([[p.time_s, *p.position, *p.quaternion] for p in capture.poses]).reshape(-1, 8)
    block = np.empty(min(n_records, _BLOCK_ROWS), dtype=_record_dtype(cfg.samples_per_chirp))
    with _writing(path) as fh:
        _write_preamble(fh, MAGIC_RAW)
        fh.write(struct.pack(_CHIRP_FORMAT, *dataclasses.astuple(cfg)))
        _write_array(fh, capture.array)
        fh.write(struct.pack("<Q", n_records))
        for lo in range(0, n_records, _BLOCK_ROWS):
            rows = block[: min(_BLOCK_ROWS, n_records - lo)]
            hi = lo + rows.shape[0]
            rows["tx"] = capture.tx[lo:hi]
            rows["rx"] = capture.rx[lo:hi]
            rows["cycle"] = capture.cycle[lo:hi]
            rows["time"] = capture.time_s[lo:hi]
            rows["pose"] = pose_table[capture.pose_index[lo:hi]]
            rows["iq"] = capture.samples[lo:hi]
            fh.write(rows.data)


def _read_records(fh, block: np.ndarray, count: int, path):
    """Read count records from fh's position through block, _BLOCK_ROWS at
    a time; yields (first record, filled rows of block)."""
    for lo in range(0, count, _BLOCK_ROWS):
        rows = block[: min(_BLOCK_ROWS, count - lo)]
        if fh.readinto(rows.data) != rows.nbytes:
            raise DataFormatError(f"{path}: truncated file while reading records")
        yield lo, rows


def read_capture(path, aperture: Aperture | None = None) -> RawCapture:
    """Read an INSARRAW capture.  Raises DataFormatError for a damaged file:
    bad magic or version, too few bytes for the sizes the header declares,
    or values that ChirpConfig, Pose or RawCapture reject.  A message that
    names a record gives its number in the file.

    The samples keep the file's precision, complex64.  Records are read
    _BLOCK_ROWS at a time through one reused block, so the peak is the
    samples returned plus one block and the per-record header columns.

    Without aperture every record is read.  With it, every record's header
    (tx, rx, cycle, time, pose) is read first, and imaging's aperture rule
    picks records from those columns; then only the samples of the TDM
    cycles it picks from are read, one contiguous span of records at a
    time.  The capture returned holds those records and the file's whole
    pose table, so image_stack with the same aperture selects the same
    records with the same center pose as on the whole capture, and images
    them to the same bits.  Poses are built for every record, so a bad pose
    anywhere is an error; the samples of the other records are never read,
    so their values are not checked.  The rule's own errors (an empty
    capture, a center time outside the capture span, no pulse selected)
    are DomainErrors, as from image_stack.
    """
    with _reading(path) as fh:
        _read_preamble(fh, MAGIC_RAW, path)
        cfg = ChirpConfig(*_unpack(fh, _CHIRP_FORMAT, "chirp config"))
        array = _read_array(fh)
        (n_records,) = _unpack(fh, "<Q", "record count")
        dtype = _record_dtype(cfg.samples_per_chirp)
        _check_left(fh, n_records * dtype.itemsize, "records")
        start = fh.tell()
        columns = np.empty(n_records, dtype=dtype.descr[:-1])  # every field but iq
        block = np.empty(min(n_records, _BLOCK_ROWS), dtype=dtype)
        # the samples are read in this pass only when every record is kept
        samples = np.empty((n_records, cfg.samples_per_chirp), np.complex64) if aperture is None else None
        for lo, rows in _read_records(fh, block, n_records, path):
            for name in columns.dtype.names:
                columns[name][lo : lo + rows.shape[0]] = rows[name]
            if samples is not None:
                samples[lo : lo + rows.shape[0]] = rows["iq"]
        # one Pose per distinct pose, compared by its bytes
        _, first, pose_index = np.unique(
            columns["pose"].view("<u8"), axis=0, return_index=True, return_inverse=True
        )
        pose_index = pose_index.reshape(-1)
        poses = tuple(Pose(time_s=float(r[0]), position=r[1:4], quaternion=r[4:8]) for r in columns["pose"][first])
        keep = slice(None)
        if aperture is not None:
            sel, _ = _aperture_rule(columns["cycle"], pose_index, poses, aperture)
            # whole cycles, so each kept cycle keeps its anchor record
            keep = np.flatnonzero(np.isin(columns["cycle"], columns["cycle"][sel]))
            samples = np.empty((keep.size, cfg.samples_per_chirp), np.complex64)
            # one seek per run of consecutive records
            breaks = np.flatnonzero(np.diff(keep) != 1) + 1
            for a, b in zip([0, *breaks.tolist()], [*breaks.tolist(), keep.size]):
                fh.seek(start + int(keep[a]) * dtype.itemsize)
                for lo, rows in _read_records(fh, block, b - a, path):
                    samples[a + lo : a + lo + rows.shape[0]] = rows["iq"]
        try:
            return RawCapture(
                config=cfg,
                array=array,
                samples=samples,
                tx=columns["tx"][keep],
                rx=columns["rx"][keep],
                cycle=columns["cycle"][keep],
                time_s=columns["time"][keep],
                poses=poses,
                pose_index=pose_index[keep],
            )
        except RecordError as exc:  # name the record by its number in the file
            raise RecordError(int(np.arange(n_records)[keep][exc.record]), exc.problem) from None


def _write_grid(fh, grid: ImageGrid) -> None:
    fh.write(struct.pack("<5d", *grid.origin_m, *grid.extent_m, grid.pixel_size_m))


def _read_grid(fh) -> ImageGrid:
    ou, ov, eu, ev, pix = _unpack(fh, "<5d", "grid")
    return ImageGrid(origin_m=np.array([ou, ov]), extent_m=np.array([eu, ev]), pixel_size_m=pix)


def write_image_stack(stack: SarImageStack, path) -> None:
    """Write an INSARIMG stack.  Raises ConfigError, and leaves no file, for
    a pixel beyond float32's range."""
    with _writing(path) as fh:
        _write_preamble(fh, MAGIC_IMG)
        _write_grid(fh, stack.grid)
        fh.write(struct.pack("<dd", stack.aperture_length_m, stack.wavelength_m))
        fh.write(np.asarray(stack.phase_center, dtype="<f8").tobytes())
        _write_array(fh, stack.array)
        fh.write(struct.pack("<III", *stack.images.shape))
        # one plane at a time into one buffer, so no stack-sized copy is made
        encoded = np.empty(stack.images.shape[1:], dtype="<c8")
        for k, plane in enumerate(stack.images):
            if _round_rows(plane, encoded) is not None:
                raise ConfigError(f"VX {k} image holds pixels beyond float32 range")
            fh.write(encoded)


def read_image_stack(path) -> SarImageStack:
    """Read an INSARIMG stack.  Raises DataFormatError for a damaged file:
    bad magic or version, too few bytes for the sizes the header declares,
    or values that ImageGrid, the array or SarImageStack reject.

    The images are complex128.  Planes are read one at a time straight into
    the preallocated stack, so the peak is the stack plus one complex64
    plane."""
    with _reading(path) as fh:
        _read_preamble(fh, MAGIC_IMG, path)
        grid = _read_grid(fh)
        aperture_length, wavelength = _unpack(fh, "<dd", "stack header")
        phase_center = np.frombuffer(_read_exact(fh, 24, "phase center"), dtype="<f8").copy()
        array = _read_array(fh)
        dims = _unpack(fh, "<III", "stack dims")
        _check_left(fh, 8 * math.prod(dims), "image planes")
        images = np.empty(dims, dtype=np.complex128)
        # a header with no VX allocates no plane, whatever n_u and n_v it declares
        plane = np.empty(dims[1:] if dims[0] else 0, dtype="<c8")
        for image in images:
            if fh.readinto(plane.data) != plane.nbytes:
                raise DataFormatError(f"{path}: truncated file while reading image planes")
            image[...] = plane
        return SarImageStack(
            grid=grid,
            array=array,
            images=images,
            phase_center=phase_center,
            aperture_length_m=aperture_length,
            wavelength_m=wavelength,
        )


def write_elevation_map(emap: ElevationMap, path) -> None:
    """Write an INSARELV map.  Raises ConfigError, and leaves no file, for a
    finite value beyond float32's range (NaN elevations and -inf SNRs are
    stored as they are)."""
    intf = emap.interferogram
    with _writing(path) as fh:
        _write_preamble(fh, MAGIC_ELV)
        _write_grid(fh, emap.grid)
        fh.write(np.asarray(emap.phase_center, dtype="<f8").tobytes())
        fh.write(struct.pack("<dd", emap.wavelength_m, emap.baseline_m))
        fh.write(struct.pack("<II", emap.grid.n_u, emap.grid.n_v))
        encoded = np.empty((emap.grid.n_u, emap.grid.n_v), dtype="<f4")
        for name, plane in (
            ("elevation", emap.elevation),
            ("mean phase delay", intf.mean_phase_delay),
            ("circular variance", intf.circular_variance),
            ("combined magnitude", intf.combined_magnitude),
            ("snr_db", intf.snr_db),
        ):
            if _round_rows(plane, encoded) is not None:
                raise ConfigError(f"{name} plane holds values beyond float32 range")
            fh.write(encoded)


def read_elevation_map(path) -> ElevationMap:
    """Read an INSARELV map.  Raises DataFormatError for a damaged file:
    bad magic or version, too few bytes for the sizes the header declares,
    or values that ImageGrid, InterferogramGrid or ElevationMap reject."""
    with _reading(path) as fh:
        _read_preamble(fh, MAGIC_ELV, path)
        grid = _read_grid(fh)
        phase_center = np.frombuffer(_read_exact(fh, 24, "phase center"), dtype="<f8").copy()
        wavelength, baseline = _unpack(fh, "<dd", "map header")
        n_u, n_v = _unpack(fh, "<II", "map dims")
        raw = _read_exact(fh, 5 * n_u * n_v * 4, "map planes")
        planes = np.frombuffer(raw, dtype="<f4").reshape(5, n_u, n_v).astype(np.float64)
        elevation, phase, variance, magnitude, snr = planes
        return ElevationMap(
            grid=grid,
            phase_center=phase_center,
            wavelength_m=wavelength,
            baseline_m=baseline,
            elevation=elevation,
            interferogram=InterferogramGrid(
                grid=grid,
                mean_phase_delay=phase,
                circular_variance=variance,
                combined_magnitude=magnitude,
                snr_db=snr,
            ),
        )


def write_pgm(image: np.ndarray, path) -> None:
    """Dump a complex image as 16-bit log-magnitude PGM for inspection.

    Magnitudes are scaled to dB below the image peak, clipped at
    _PGM_FLOOR_DB, and mapped to the full 16-bit range.  Rows run along v,
    columns along u.
    """
    mag = np.abs(np.asarray(image))
    peak = mag.max()
    if peak <= 0:
        db = np.full_like(mag, _PGM_FLOOR_DB, dtype=float)
    else:
        with np.errstate(divide="ignore"):
            db = 20.0 * np.log10(mag / peak)
        db = np.maximum(db, _PGM_FLOOR_DB)
    scaled = np.round((db - _PGM_FLOOR_DB) / (-_PGM_FLOOR_DB) * 65535.0).astype(">u2")
    scaled = scaled.T  # (n_v, n_u): image row = cross-track line
    with open(path, "wb") as fh:
        fh.write(f"P5\n{scaled.shape[1]} {scaled.shape[0]}\n65535\n".encode("ascii"))
        fh.write(scaled.tobytes())
