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

Every writer works in a file it can read back, which _replacing makes the
output only when the writer is done, so a writer that fails leaves the
output as it was.

An INSARRAW file is also where a capture's samples are worked on: a
CaptureFile holds a capture's samples in the file's records, and reads and
writes them a block of records at a time.  The simulate stage synthesizes
and noises its capture in the file that becomes its output (capture_file).
read_capture reads the records' headers and leaves every sample in the
file, and the image stage reads the aperture's records as it images them,
so neither stage holds the samples of a whole capture.

An INSARIMG file is likewise where a stack is made: a StackFile holds a
stack's planes in the file, and reads and writes them a block of pixels at
a time.  The image stage adds its images into the file that becomes its
output (stack_file), one pixel block at a time; read_image_stack leaves
every plane in the file, and the elevate stage reads one block of rows of
every plane at a time, so no stage holds a whole stack.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import shutil
import stat
import struct
import tempfile
import threading
from contextlib import contextmanager, suppress

import numpy as np

from .errors import ConfigError, DataFormatError
from .imaging import ImageGrid, SarImageStack, StackStore
from .interferometry import ElevationMap, InterferogramGrid
from .simulate import RawCapture, SampleStore, _round_rows
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


class _FileStore:
    """What CaptureFile and StackFile share: an array of shape kept in the
    file at path from byte start on, read by opening the file and closing
    it again, so no handle outlives a read; or, while capture_file or
    stack_file makes the file, read and written through writer, the file
    they hold open, under a lock."""

    def __init__(self, path, start: int, shape: tuple[int, ...], writer=None) -> None:
        self.path = path
        self.shape = shape
        self._start = start
        self._writer = writer
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self.shape[0]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        values = self[:]
        return values if dtype is None else values.astype(dtype)

    def _writes(self) -> bool:
        """Whether this store still writes its file through an open handle."""
        return self._writer is not None and not self._writer.closed

    @contextmanager
    def _file(self):
        """The file to read, positioned anywhere."""
        if self._writes():
            with self._lock:
                yield self._writer
        else:
            with open(self.path, "rb") as fh:
                yield fh


def _written(store, path) -> bool:
    """Whether store is a file store that capture_file or stack_file is
    making at path, so the artifact is already written there."""
    return (
        isinstance(store, _FileStore)
        and store._writes()
        and os.path.realpath(path) == os.path.realpath(store.path)
    )


def _write_stored(artifact, field: str, make_file, path, step: int) -> None:
    """Write artifact in make_file(path): its factory takes every field of
    artifact but field, and field's values are copied into the store it
    returns, step rows at a time.  Values that make_file(path) is making
    are already written, so nothing is written."""
    values = getattr(artifact, field)
    if _written(values, path):
        return
    with make_file(path) as start:
        out = start(**{f.name: getattr(artifact, f.name) for f in dataclasses.fields(artifact) if f.name != field})
        for lo in range(0, len(values), step):
            out[lo : lo + step] = values[lo : lo + step]


class CaptureFile(_FileStore, SampleStore):
    """The samples of an INSARRAW file's records, as a capture holds them
    (a SampleStore): row i is the samples of the file's record i.

    Rows are read and written a run of consecutive records at a time,
    through a packed block of at most _BLOCK_ROWS records, so a capture on
    a CaptureFile holds only its per-record columns.  A read refuses a file
    that ends early and a non-finite sample, with DataFormatError naming
    the record by its number in the file.  A store that capture_file made
    writes its file through the file capture_file holds open, packing each
    record's header from the columns it was made with; every other read
    opens the file and closes it again, so no handle outlives the read.
    The file must not change while a capture reads it.
    """

    def __init__(self, path, start: int, n_records: int, samples_per_chirp: int, writer=None, columns=None) -> None:
        # start is the offset of record 0
        super().__init__(path, start, (n_records, samples_per_chirp), writer)
        self._layout = _record_dtype(samples_per_chirp)
        # the header fields of every record, while this store writes its
        # file; writable, as a new array is, until a capture takes it
        self._columns = columns
        self._writeable = writer is not None

    def setflags(self, write: bool) -> None:
        if write and not self._writes():
            raise ValueError(f"{self.path} is open for reading only")
        self._writeable = bool(write)

    @staticmethod
    def _chunks(records: np.ndarray):
        """(first row, first file record, count) of each run of at most
        _BLOCK_ROWS consecutive file records in records."""
        breaks = np.flatnonzero(np.diff(records) != 1) + 1
        for a, b in zip([0, *breaks.tolist()], [*breaks.tolist(), records.size]):
            for lo in range(a, b, _BLOCK_ROWS):
                yield lo, int(records[lo]), min(_BLOCK_ROWS, b - lo)

    def __getitem__(self, key) -> np.ndarray:
        records = np.arange(self.shape[0])[key]
        if records.ndim == 0:  # one row, as an array's row
            return self[[key]][0]
        out = np.empty((records.size, self.shape[1]), dtype=np.complex64)
        block = np.empty(min(records.size, _BLOCK_ROWS), dtype=self._layout)
        with self._file() as fh:
            for lo, first, count in self._chunks(records):
                rows = block[:count]
                fh.seek(self._start + first * self._layout.itemsize)
                if fh.readinto(rows.data) != rows.nbytes:
                    raise DataFormatError(f"{self.path}: truncated file while reading records")
                finite = np.isfinite(rows["iq"]).all(axis=1)
                if not finite.all():
                    raise DataFormatError(
                        f"{self.path}: record {first + int(np.argmin(finite))} holds non-finite samples"
                    )
                out[lo : lo + count] = rows["iq"]
        return out

    def __setitem__(self, key: slice, rows) -> None:
        if not self._writeable:
            raise ValueError(f"{self.path} samples are read-only")
        fh, columns = self._writer, self._columns
        records = np.arange(self.shape[0])[key]
        block = np.empty(min(records.size, _BLOCK_ROWS), dtype=self._layout)
        for lo, first, count in self._chunks(records):
            packed = block[:count]
            for name in columns.dtype.names:
                packed[name] = columns[name][first : first + count]
            packed["iq"] = rows[lo : lo + count]
            fh.seek(self._start + first * self._layout.itemsize)
            fh.write(packed.data)


def _start_capture(fh, path, config, array, tx, rx, cycle, time_s, poses, pose_index) -> CaptureFile:
    """Write the INSARRAW header of these records into fh and return a
    writable CaptureFile over their records, which packs each record's
    header fields with its samples."""
    layout = _record_dtype(config.samples_per_chirp)
    columns = np.empty(len(tx), dtype=layout.descr[:-1])  # every field but iq
    columns["tx"], columns["rx"], columns["cycle"], columns["time"] = tx, rx, cycle, time_s
    pose_table = np.array([[p.time_s, *p.position, *p.quaternion] for p in poses]).reshape(-1, 8)
    columns["pose"] = pose_table[pose_index]
    _write_preamble(fh, MAGIC_RAW)
    fh.write(struct.pack(_CHIRP_FORMAT, *dataclasses.astuple(config)))
    _write_array(fh, array)
    fh.write(struct.pack("<Q", columns.size))
    return CaptureFile(path, fh.tell(), columns.size, config.samples_per_chirp, writer=fh, columns=columns)


@contextmanager
def _replacing(path, mode: str = "b", **kwargs):
    """Open the output at path for a writer, in mode "b" (bytes) or "t"
    (text, with open's **kwargs), and yield a file open for reading and
    writing, which becomes path when the block ends without an error.

    A regular path, or one that does not exist yet, is written as a new file
    beside it, which replaces the file a symlink at path names, with its
    permission bits.  An error inside the block removes the new file and
    leaves path as it was, and an OSError on the new file (say, in a
    missing folder) names path.  So no output is truncated before its
    writer is done, and an artifact may be written over the file it is
    read from.  Any other path (a pipe or a device, such as /dev/null) is
    opened for writing first, then written in an anonymous temporary file
    whose bytes are copied into path at the end; an error inside the block
    sends nothing there.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as out, tempfile.TemporaryFile("w+" + mode, **kwargs) as fh:
            yield fh
            fh.seek(0)  # which flushes a text file's pending text into its buffer
            shutil.copyfileobj(getattr(fh, "buffer", fh), out)
        return
    target = os.path.realpath(path)
    folder, name = os.path.split(target)
    part = os.path.join(folder, f".{name}.{os.urandom(4).hex()}.part")
    try:
        with open(part, "x+" + mode, **kwargs) as fh:
            if os.path.exists(target):
                os.chmod(fh.fileno(), stat.S_IMODE(os.stat(target).st_mode))
            yield fh
        os.replace(part, target)
    except BaseException as exc:
        with suppress(OSError):
            os.remove(part)
        if isinstance(exc, OSError) and exc.filename == part:
            exc.filename = os.fspath(path)
        raise


@contextmanager
def capture_file(path):
    """Make the INSARRAW file at path in a capture, and yield the samples
    argument of simulate.synthesize_capture for it.

    synthesize_capture then writes the header and each block of rows
    straight into the file _replacing opens, add_noise reads, noises and
    writes the rows back there, and write_capture(capture, path) finds the
    capture written: the simulate stage holds the per-record columns and a
    few blocks, never the samples of a whole capture.  The file becomes
    path when the block ends; a pipe or device output cannot be read
    through the samples after that.
    """
    with _replacing(path) as fh:
        yield functools.partial(_start_capture, fh, path)


def write_capture(capture: RawCapture, path) -> None:
    """Write an INSARRAW capture in capture_file(path), _BLOCK_ROWS records
    at a time.  The samples are copied as they are: RawCapture holds them
    at the file's precision, complex64, and finite.

    A capture that capture_file(path) is making is already written, so
    nothing is written.  A capture read from path may be written over it
    (see _replacing)."""
    _write_stored(capture, "samples", capture_file, path, _BLOCK_ROWS)


def read_capture(path) -> RawCapture:
    """Read an INSARRAW capture.  Raises DataFormatError for a damaged file:
    bad magic or version, too few bytes for the sizes the header declares,
    or values that ChirpConfig, Pose or RawCapture reject.  A message that
    names a record gives its number in the file.

    Every record's header (tx, rx, cycle, time, pose) is read, _BLOCK_ROWS
    records at a time through one reused block, so the read holds the
    header columns and one block.  The samples stay in the file, as a
    CaptureFile over all of its records, at the file's precision,
    complex64: they are read as they are used (image_stack reads only the
    aperture's records, a cycle batch at a time), and a non-finite sample
    is a DataFormatError then.  The file must not change while a capture
    reads it.
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
        for lo in range(0, n_records, _BLOCK_ROWS):
            rows = block[: min(_BLOCK_ROWS, n_records - lo)]
            if fh.readinto(rows.data) != rows.nbytes:
                raise DataFormatError(f"{path}: truncated file while reading records")
            for name in columns.dtype.names:
                columns[name][lo : lo + rows.shape[0]] = rows[name]
        # one Pose per distinct pose, compared by its bytes
        _, first, pose_index = np.unique(
            columns["pose"].view("<u8"), axis=0, return_index=True, return_inverse=True
        )
        poses = tuple(Pose(time_s=float(r[0]), position=r[1:4], quaternion=r[4:8]) for r in columns["pose"][first])
        return RawCapture(
            config=cfg,
            array=array,
            samples=CaptureFile(path, start, n_records, cfg.samples_per_chirp),
            tx=columns["tx"],
            rx=columns["rx"],
            cycle=columns["cycle"],
            time_s=columns["time"],
            poses=poses,
            pose_index=pose_index.reshape(-1),
        )


def _write_grid(fh, grid: ImageGrid) -> None:
    fh.write(struct.pack("<5d", *grid.origin_m, *grid.extent_m, grid.pixel_size_m))


def _read_grid(fh) -> ImageGrid:
    ou, ov, eu, ev, pix = _unpack(fh, "<5d", "grid")
    return ImageGrid(origin_m=np.array([ou, ov]), extent_m=np.array([eu, ev]), pixel_size_m=pix)


class StackFile(_FileStore, StackStore):
    """The planes of an INSARIMG file, as a stack holds them (a
    StackStore): plane k is the file's plane k, u-major.

    store[k] reads plane k, store[:, rows] the rows of every plane, and
    store[:, rows, cols] a block of them, into new complex64 arrays; rows
    and columns are unit-step slices, and each plane's part is read one run
    of consecutive pixels at a time.  A read refuses a file that ends early
    and a non-finite pixel, with DataFormatError naming the file and the
    VX.  A store that stack_file made also writes store[key] = block, for
    such a key, through the file stack_file holds open, under a lock, so
    image_stack's workers may read and write their disjoint blocks at once.
    The file must not change while a stack reads it.
    """

    def _block(self, key):
        """The VX, row and column ranges key selects, and the shape of the
        array they make: an integer drops its axis, as from an array."""
        key = key if isinstance(key, tuple) else (key,)
        if len(key) > len(self.shape):
            raise IndexError(f"too many indices for a stack of shape {self.shape}")
        picked = [range(n)[k] for n, k in zip(self.shape, key + (slice(None),) * (3 - len(key)))]
        shape = tuple(len(p) for p in picked if isinstance(p, range))
        vx, rows, cols = (p if isinstance(p, range) else range(p, p + 1) for p in picked)
        if rows.step != 1 or cols.step != 1:
            raise IndexError("a stack file reads unit-step rows and columns")
        return vx, rows, cols, shape

    def _runs(self, vx: range, rows: range, cols: range):
        """(plane of the block, first value in it, count, file offset) of
        each run of the block's pixels that lie one after another in a
        plane, plane by plane."""
        n_v = self.shape[2]
        if len(cols) == n_v or len(rows) == 1:
            runs = [(rows.start * n_v + cols.start, len(rows) * len(cols))]
        else:
            runs = [(r * n_v + cols.start, len(cols)) for r in rows]
        for i, k in enumerate(vx):
            at = 0
            for first, count in runs:
                yield i, at, count, self._start + 8 * (k * self.shape[1] * n_v + first)
                at += count

    def __getitem__(self, key) -> np.ndarray:
        vx, rows, cols, shape = self._block(key)
        out = np.empty((len(vx), len(rows) * len(cols)), dtype="<c8")
        with self._file() as fh:
            for i, at, count, offset in self._runs(vx, rows, cols):
                run = out[i, at : at + count]
                fh.seek(offset)
                if fh.readinto(run.data) != run.nbytes:
                    raise DataFormatError(f"{self.path}: truncated file while reading image planes")
        # the float32 view is the fast test, plane by plane
        for plane, k in zip(out, vx):
            if not np.isfinite(plane.view("<f4")).all():
                raise DataFormatError(f"{self.path}: VX {k} image holds non-finite pixels")
        return out.astype(np.complex64, copy=False).reshape(shape)

    def __setitem__(self, key, block) -> None:
        if not self._writes():
            raise ValueError(f"{self.path} is open for reading only")
        vx, rows, cols, _ = self._block(key)
        block = np.ascontiguousarray(block, dtype="<c8").reshape(len(vx), -1)
        with self._file() as fh:
            for i, at, count, offset in self._runs(vx, rows, cols):
                fh.seek(offset)
                fh.write(block[i, at : at + count])


def _start_stack(fh, path, grid, array, phase_center, aperture_length_m, wavelength_m) -> StackFile:
    """Write the INSARIMG header of a stack with these fields into fh, then
    zero planes, and return a writable StackFile over them."""
    _write_preamble(fh, MAGIC_IMG)
    _write_grid(fh, grid)
    fh.write(struct.pack("<dd", aperture_length_m, wavelength_m))
    fh.write(np.asarray(phase_center, dtype="<f8").tobytes())
    _write_array(fh, array)
    shape = (array.n_vx, grid.n_u, grid.n_v)
    fh.write(struct.pack("<III", *shape))
    start = fh.tell()
    fh.truncate(start + 8 * math.prod(shape))
    return StackFile(path, start, shape, writer=fh)


@contextmanager
def stack_file(path):
    """Make the INSARIMG file at path in a stack, and yield the images
    argument of imaging.image_stack for it.

    image_stack then writes the header and zero planes into the file
    _replacing opens, and adds each cycle batch into one pixel block of the
    planes there at a time; write_image_stack(stack, path) finds the stack
    written, so the image stage holds one block of the stack, never all of
    it.  The file becomes path when the block ends; a pipe or device output
    cannot be read through the images after that.
    """
    with _replacing(path) as fh:
        yield functools.partial(_start_stack, fh, path)


def write_image_stack(stack: SarImageStack, path) -> None:
    """Write an INSARIMG stack in stack_file(path): its complex64 planes as
    SarImageStack holds them, the file's precision, one plane at a time,
    so no stack-sized copy is made of a stack that is not in memory.

    A stack that stack_file(path) is making is already written, so nothing
    is written.  A stack read from path may be written over it (see
    _replacing)."""
    _write_stored(stack, "images", stack_file, path, 1)


def read_image_stack(path) -> SarImageStack:
    """Read an INSARIMG stack.  Raises DataFormatError for a damaged file:
    bad magic or version, too few bytes for the sizes the header declares,
    or values that ImageGrid, the array or SarImageStack reject.

    The planes stay in the file, as a StackFile at the file's precision,
    complex64: they are read as they are used (combine_baselines reads one
    block of rows of every plane at a time), and a non-finite pixel is a
    DataFormatError then.  The file must not change while a stack reads
    it."""
    with _reading(path) as fh:
        _read_preamble(fh, MAGIC_IMG, path)
        grid = _read_grid(fh)
        aperture_length, wavelength = _unpack(fh, "<dd", "stack header")
        phase_center = np.frombuffer(_read_exact(fh, 24, "phase center"), dtype="<f8").copy()
        array = _read_array(fh)
        dims = _unpack(fh, "<III", "stack dims")
        _check_left(fh, 8 * math.prod(dims), "image planes")
        return SarImageStack(
            grid=grid,
            array=array,
            images=StackFile(path, fh.tell(), dims),
            phase_center=phase_center,
            aperture_length_m=aperture_length,
            wavelength_m=wavelength,
        )


def write_elevation_map(emap: ElevationMap, path) -> None:
    """Write an INSARELV map.  Raises ConfigError, and leaves path as it
    was, for a finite value beyond float32's range (NaN elevations and -inf
    SNRs are stored as they are)."""
    intf = emap.interferogram
    with _replacing(path) as fh:
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
        _check_left(fh, 5 * n_u * n_v * 4, "map planes")
        # each float32 plane is read into one reused buffer and widened
        planes = np.empty((5, n_u, n_v))
        encoded = np.empty((n_u, n_v), dtype="<f4")
        for plane in planes:
            if fh.readinto(encoded.data) != encoded.nbytes:
                raise DataFormatError(f"{path}: truncated file while reading map planes")
            plane[...] = encoded
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

    Magnitudes are taken in float64, scaled to dB below the image peak,
    clipped at _PGM_FLOOR_DB, and mapped to the full 16-bit range.  Rows run
    along v, columns along u.
    """
    mag = np.abs(np.asarray(image, dtype=np.complex128))
    peak = mag.max()
    if peak <= 0:
        db = np.full_like(mag, _PGM_FLOOR_DB, dtype=float)
    else:
        with np.errstate(divide="ignore"):
            db = 20.0 * np.log10(mag / peak)
        db = np.maximum(db, _PGM_FLOOR_DB)
    scaled = np.round((db - _PGM_FLOOR_DB) / (-_PGM_FLOOR_DB) * 65535.0).astype(">u2")
    scaled = scaled.T  # (n_v, n_u): image row = cross-track line
    with _replacing(path) as fh:
        fh.write(f"P5\n{scaled.shape[1]} {scaled.shape[0]}\n65535\n".encode("ascii"))
        fh.write(scaled.tobytes())
