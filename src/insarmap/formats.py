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

An INSARRAW or INSARIMG file is also where a capture's samples or a
stack's planes are worked on: an ArrayFile holds the complex64 array in
the file, as lines of its last axis (a record's samples, or a grid row of
one VX's plane), and reads and writes it a run of lines at a time.  The
simulate stage synthesizes and noises its capture in the file that
becomes its output (capture_file), and the image stage adds its images
into its output one pixel block at a time (stack_file).  read_capture
reads the records' headers and read_image_stack the stack's, and both
leave every sample or pixel in the file: the image stage reads the
aperture's records as it images them, and the elevate stage one block of
rows of every plane at a time, so no stage holds a whole capture or stack.
Every value is stored by the rule types states, and refused in the words
of its artifact: simulate.SAMPLES, imaging.PIXELS, interferometry.MAP_PLANES.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import os
import shutil
import stat
import struct
import tempfile
import threading
from contextlib import contextmanager, suppress

import numpy as np

from .errors import ConfigError, DataFormatError
from .imaging import PIXELS, ImageGrid, SarImageStack
from .interferometry import MAP_PLANES, ElevationMap
from .simulate import SAMPLES, RawCapture
from .types import ArrayStore, ChirpConfig, Pose, Rows, VirtualArray, build_virtual_array, round_rows

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


class ArrayFile(ArrayStore):
    """A complex64 array of shape kept in the file at path as lines of its
    last axis: line i, the values at the leading index
    np.unravel_index(i, shape[:-1]), starts at byte start + i*stride + lead.
    An INSARRAW file holds a capture's samples as lines of one record each,
    after the record's header; an INSARIMG file holds a stack's planes as
    lines of one grid row of one VX each.

    store[key] reads what key selects into a new complex64 array, as from
    an array of shape: the leading axes take any key an array takes, and
    the last axis an int or a unit-step slice (any other key there is an
    IndexError).  Each run of consecutive lines is read at most _BLOCK_ROWS
    lines at a time, straight into the result where its values lie one
    after another in the file, else through one reused block.  A read
    refuses a file that ends early and a non-finite value, with
    DataFormatError naming the file and, in the words of rows, what was
    read or the index on the first axis ("record 7 holds non-finite
    samples").

    A store that capture_file or stack_file made reads and writes through
    the file they hold open, under a lock, so image_stack's workers may
    read and write their disjoint blocks at once; store[key] = values
    writes each run the same way, patching the block it reads where a run
    holds other bytes between its values.  It is writable, as a new array
    is, until setflags(write=False); no other store is.  Every other read
    opens the file and closes it again, so no handle outlives the read, and
    a store whose file is not a regular file (say, one made for a pipe)
    cannot be read, a ValueError.  The file must not change while a store
    reads it.
    """

    def __init__(self, path, start: int, shape: tuple[int, ...], stride: int, lead: int, rows: Rows, writer=None):
        self.path = path
        self.shape = tuple(shape)
        self._rows = rows
        self._start, self._stride, self._lead = start, stride, lead
        self._writer = writer
        self._writeable = writer is not None
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self.shape[0]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError(f"{self.path}: values kept in a file are read only into a copy")
        values = self[:]
        return values if dtype is None else values.astype(dtype)

    def _writes(self) -> bool:
        """Whether this store still writes its file through an open handle."""
        return self._writer is not None and not self._writer.closed

    def setflags(self, write: bool) -> None:
        if write and not self._writes():
            raise ValueError(f"{self.path} is open for reading only")
        self._writeable = bool(write)

    @contextmanager
    def _file(self):
        """The file to read, positioned anywhere."""
        if self._writes():
            with self._lock:
                yield self._writer
        elif not os.path.isfile(self.path):
            raise ValueError(f"{self.path} is not a regular file, so its {self._rows.name} cannot be read back")
        else:
            with open(self.path, "rb") as fh:
                yield fh

    def _lines(self, key):
        """The lines key selects, in the order of the result's values, the
        result's shape, and the first value and the count of values key
        selects of each line."""
        key = list(key) if isinstance(key, tuple) else [key]
        # the axes each part of key takes: a boolean mask one per dimension
        taken = [
            0 if k is None or k is Ellipsis else 1 if isinstance(k, slice)
            else np.ndim(k) if np.asarray(k).dtype == bool else 1
            for k in key
        ]
        left = len(self.shape) - sum(taken)
        if left < 0:
            raise IndexError(f"too many indices for an array of shape {self.shape}")
        at = next((i for i, k in enumerate(key) if k is Ellipsis), len(key))
        key[at : at + 1] = [slice(None)] * left
        last, n = key.pop(), self.shape[-1]
        if isinstance(last, slice):
            picked = range(n)[last]
            if len(picked) > 1 and picked.step != 1:
                raise IndexError("a file store reads a unit-step slice of its last axis")
            first, width, kept = (picked[0] if picked else 0), len(picked), (len(picked),)
        else:
            try:
                first, width, kept = range(n)[operator.index(last)], 1, ()
            except TypeError:
                raise IndexError("a file store reads an int or a unit-step slice of its last axis") from None
        lines = np.arange(math.prod(self.shape[:-1])).reshape(self.shape[:-1])[tuple(key)]
        return lines.reshape(-1), lines.shape + kept, first, width

    def _spans(self, lines: np.ndarray, first: int, width: int):
        """(block, first row of the values, count of lines, file offset,
        bytes) of each run of at most _BLOCK_ROWS consecutive lines, whose
        bytes run from the first value selected of its first line to the
        last of its last.  block is the one buffer every run that holds
        other bytes between its values goes through, or None when the
        values lie one after another in the file."""
        block = None
        if self._stride != 8 * width:
            block = np.empty(min(lines.size, _BLOCK_ROWS) * self._stride, dtype=np.uint8)
        breaks = (np.flatnonzero(np.diff(lines) != 1) + 1).tolist()
        for a, b in zip([0, *breaks], [*breaks, lines.size]):
            for lo in range(a, b, _BLOCK_ROWS):
                count = min(_BLOCK_ROWS, b - lo)
                offset = self._start + int(lines[lo]) * self._stride + self._lead + 8 * first
                yield block, lo, count, offset, (count - 1) * self._stride + 8 * width

    def __getitem__(self, key) -> np.ndarray:
        lines, shape, first, width = self._lines(key)
        out = np.empty((lines.size, width), dtype="<c8")
        with self._file() as fh:
            for block, lo, count, offset, size in self._spans(lines, first, width):
                rows = out[lo : lo + count]
                fh.seek(offset)
                if fh.readinto(rows.data if block is None else block[:size].data) != size:
                    raise DataFormatError(f"{self.path}: truncated file while reading {self._rows.name}")
                if block is not None:
                    rows[...] = block[: count * self._stride].reshape(count, -1)[:, : 8 * width].view("<c8")
                # the float32 view is the fast test; a non-finite value needs the slow one
                if not np.isfinite(rows.view("<f4")).all():
                    line = int(lines[lo + np.argmin(np.isfinite(rows).all(axis=1))])
                    index = line // math.prod(self.shape[1:-1])
                    raise DataFormatError(f"{self.path}: {self._rows.non_finite(index)}")
        return out.astype(np.complex64, copy=False).reshape(shape)

    def __setitem__(self, key, values) -> None:
        if not (self._writeable and self._writes()):
            raise ValueError(f"{self.path} is open for reading only")
        lines, shape, first, width = self._lines(key)
        values = np.ascontiguousarray(np.broadcast_to(values, shape), dtype="<c8").reshape(lines.size, width)
        with self._file() as fh:
            for block, lo, count, offset, size in self._spans(lines, first, width):
                rows = values[lo : lo + count]
                fh.seek(offset)
                if block is not None:
                    # the bytes between the run's values are read and written back
                    fh.readinto(block[:size].data)
                    block[: count * self._stride].reshape(count, -1)[:, : 8 * width] = rows.view(np.uint8)
                    rows = block[:size]
                    fh.seek(offset)
                fh.write(rows.data)


def _written(store, path) -> bool:
    """Whether store is a file store that capture_file or stack_file is
    making at path, so the artifact is already written there."""
    return (
        isinstance(store, ArrayFile)
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


def _start_capture(fh, path, config, array, tx, rx, cycle, time_s, poses, pose_index) -> ArrayFile:
    """Write the INSARRAW header of these records into fh, then every
    record's header with zero samples, _BLOCK_ROWS records at a time, and
    return a writable ArrayFile over the records' samples."""
    layout = _record_dtype(config.samples_per_chirp)
    _write_preamble(fh, MAGIC_RAW)
    fh.write(struct.pack(_CHIRP_FORMAT, *dataclasses.astuple(config)))
    _write_array(fh, array)
    fh.write(struct.pack("<Q", len(tx)))
    start = fh.tell()
    pose_table = np.array([[p.time_s, *p.position, *p.quaternion] for p in poses]).reshape(-1, 8)
    block = np.zeros(min(len(tx), _BLOCK_ROWS), dtype=layout)
    for lo in range(0, len(tx), _BLOCK_ROWS):
        part = slice(lo, lo + _BLOCK_ROWS)
        rows = block[: len(tx[part])]
        rows["tx"], rows["rx"], rows["cycle"], rows["time"] = tx[part], rx[part], cycle[part], time_s[part]
        rows["pose"] = pose_table[pose_index[part]]
        fh.write(rows.data)
    shape = (len(tx), config.samples_per_chirp)
    return ArrayFile(path, start, shape, layout.itemsize, layout.fields["iq"][1], SAMPLES, writer=fh)


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

    synthesize_capture then writes the header and every record's header
    into the file _replacing opens, and each block of rows into the
    records there, add_noise reads, noises and writes the rows back there,
    and write_capture(capture, path) finds the capture written: the
    simulate stage holds the per-record columns and a few blocks, never
    the samples of a whole capture.  The file becomes path when the block
    ends; the samples of a pipe or device output cannot be read after
    that, a ValueError.
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
    header columns and one block.  The samples stay in the file, as an
    ArrayFile over all of its records, at the file's precision, complex64:
    they are read as they are used (image_stack reads only the aperture's
    records, a cycle batch at a time), and a non-finite sample is a
    DataFormatError then.  The file must not change while a capture
    reads it.
    """
    with _reading(path) as fh:
        _read_preamble(fh, MAGIC_RAW, path)
        cfg = ChirpConfig(*_unpack(fh, _CHIRP_FORMAT, "chirp config"))
        array = _read_array(fh)
        (n_records,) = _unpack(fh, "<Q", "record count")
        dtype = _record_dtype(cfg.samples_per_chirp)
        _check_left(fh, n_records * dtype.itemsize, SAMPLES.name)
        start = fh.tell()
        columns = np.empty(n_records, dtype=dtype.descr[:-1])  # every field but iq
        block = np.empty(min(n_records, _BLOCK_ROWS), dtype=dtype)
        for lo in range(0, n_records, _BLOCK_ROWS):
            rows = block[: min(_BLOCK_ROWS, n_records - lo)]
            if fh.readinto(rows.data) != rows.nbytes:
                raise DataFormatError(f"{path}: truncated file while reading {SAMPLES.name}")
            for name in columns.dtype.names:
                columns[name][lo : lo + rows.shape[0]] = rows[name]
        # one Pose per distinct pose, compared by its bytes
        _, first, pose_index = np.unique(
            columns["pose"].view("<u8"), axis=0, return_index=True, return_inverse=True
        )
        poses = tuple(Pose(time_s=float(r[0]), position=r[1:4], quaternion=r[4:8]) for r in columns["pose"][first])
        shape = (n_records, cfg.samples_per_chirp)
        return RawCapture(
            config=cfg,
            array=array,
            samples=ArrayFile(path, start, shape, dtype.itemsize, dtype.fields["iq"][1], SAMPLES),
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


def _start_stack(fh, path, grid, array, phase_center, aperture_length_m, wavelength_m) -> ArrayFile:
    """Write the INSARIMG header of a stack with these fields into fh, then
    zero planes, and return a writable ArrayFile over them."""
    _write_preamble(fh, MAGIC_IMG)
    _write_grid(fh, grid)
    fh.write(struct.pack("<dd", aperture_length_m, wavelength_m))
    fh.write(np.asarray(phase_center, dtype="<f8").tobytes())
    _write_array(fh, array)
    shape = (array.n_vx, grid.n_u, grid.n_v)
    fh.write(struct.pack("<III", *shape))
    start = fh.tell()
    fh.truncate(start + 8 * math.prod(shape))
    return ArrayFile(path, start, shape, 8 * grid.n_v, 0, PIXELS, writer=fh)


@contextmanager
def stack_file(path):
    """Make the INSARIMG file at path in a stack, and yield the images
    argument of imaging.image_stack for it.

    image_stack then writes the header and zero planes into the file
    _replacing opens, and adds each cycle batch into one pixel block of the
    planes there at a time; write_image_stack(stack, path) finds the stack
    written, so the image stage holds one block of the stack, never all of
    it.  The file becomes path when the block ends; the images of a pipe
    or device output cannot be read after that, a ValueError.
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

    The planes stay in the file, as an ArrayFile at the file's precision,
    complex64: they are read as they are used (build_elevation_map reads one
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
        _check_left(fh, 8 * math.prod(dims), PIXELS.name)
        return SarImageStack(
            grid=grid,
            array=array,
            images=ArrayFile(path, fh.tell(), dims, 8 * dims[2], 0, PIXELS),
            phase_center=phase_center,
            aperture_length_m=aperture_length,
            wavelength_m=wavelength,
        )


def write_elevation_map(emap: ElevationMap, path) -> None:
    """Write an INSARELV map.  Raises ConfigError, and leaves path as it
    was, for a finite value beyond float32's range (NaN elevations and -inf
    SNRs are stored as they are)."""
    with _replacing(path) as fh:
        _write_preamble(fh, MAGIC_ELV)
        _write_grid(fh, emap.grid)
        fh.write(np.asarray(emap.phase_center, dtype="<f8").tobytes())
        fh.write(struct.pack("<dd", emap.wavelength_m, emap.baseline_m))
        fh.write(struct.pack("<II", emap.grid.n_u, emap.grid.n_v))
        encoded = np.empty((emap.grid.n_u, emap.grid.n_v), dtype="<f4")
        for field, rows in MAP_PLANES.items():
            fh.write(round_rows(getattr(emap, field), encoded, rows))


def read_elevation_map(path) -> ElevationMap:
    """Read an INSARELV map.  Raises DataFormatError for a damaged file:
    bad magic or version, too few bytes for the sizes the header declares,
    or values that ImageGrid or ElevationMap reject."""
    with _reading(path) as fh:
        _read_preamble(fh, MAGIC_ELV, path)
        grid = _read_grid(fh)
        phase_center = np.frombuffer(_read_exact(fh, 24, "phase center"), dtype="<f8").copy()
        wavelength, baseline = _unpack(fh, "<dd", "map header")
        n_u, n_v = _unpack(fh, "<II", "map dims")
        _check_left(fh, len(MAP_PLANES) * n_u * n_v * 4, "map planes")
        # each float32 plane is read into one reused buffer and widened
        planes = np.empty((len(MAP_PLANES), n_u, n_v))
        encoded = np.empty((n_u, n_v), dtype="<f4")
        for plane in planes:
            if fh.readinto(encoded.data) != encoded.nbytes:
                raise DataFormatError(f"{path}: truncated file while reading map planes")
            plane[...] = encoded
        return ElevationMap(
            grid=grid,
            phase_center=phase_center,
            wavelength_m=wavelength,
            baseline_m=baseline,
            **dict(zip(MAP_PLANES, planes)),
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
