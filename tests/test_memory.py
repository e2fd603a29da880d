"""Peak memory of the capture, image and elevate paths.

numpy reports its array allocations to tracemalloc, so a traced peak is
the bytes of every array a call held at once.  Each bound is the arrays the
call must hold plus one work block or plane; anything the size of a second
copy of the samples or of the stack fails it.  The CLI's simulate and
image stages keep the capture's samples in its file, so their bounds hold
no capture at all.
"""

import tracemalloc

import numpy as np
import pytest

import insarmap as im
from insarmap import cli, formats, imaging
from insarmap import simulate as sim

from conftest import make_rail_trajectory, own_samples

# Python objects and small arrays besides the bounded ones: headers, the
# pose table, one block's finiteness mask.
SLACK = 256 * 1024
# A capture's per-record columns (tx, rx, cycle, time, pose index) and, when
# read, the packed pose column and its np.unique pass: with the small
# arrays, about 120 bytes a record in add_noise and 320 in read_capture
# here, against 4 096 bytes of complex64 samples at 512 samples per chirp.
COLUMN_BYTES_PER_RECORD = 512


def traced_peak(fn):
    """fn's result and the peak bytes traced while it ran.  fn runs once
    untraced first, so first-call caches do not count."""
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def clean_capture(reference_chirp):
    array = im.default_virtual_array(im.derive_chirp_params(reference_chirp).wavelength_m)
    scene = im.Scene((im.PointTarget(np.array([0.0, 4.0, 0.4]), 1.0),))
    return im.synthesize_capture(scene, make_rail_trajectory(1.0, 0.01, 0.4), reference_chirp, array)


def test_synthesize_capture_allocates_its_complex64_result_and_one_block(reference_chirp):
    array = im.default_virtual_array(im.derive_chirp_params(reference_chirp).wavelength_m)
    scene = im.Scene((im.PointTarget(np.array([0.0, 4.0, 0.4]), 1.0),))
    traj = make_rail_trajectory(1.0, 0.02, 0.4)
    capture, peak = traced_peak(lambda: im.synthesize_capture(scene, traj, reference_chirp, array))
    n_records, n = capture.samples.shape
    result = n_records * n * np.dtype(np.complex64).itemsize
    # the complex128 block that is rounded into the result, and _beat's
    # float64 phases and complex128 one-way beats of the 3 + 4 elements and
    # complex128 products of one TX's 4 records: 424 bytes per cycle and
    # sample, within this bound of 40 bytes per record (480 per cycle)
    rows = sim._SYNTH_CYCLES * array.n_tx * array.n_rx
    block = rows * n * (2 * np.dtype(np.complex128).itemsize + np.dtype(np.float64).itemsize)
    assert peak <= result + block + COLUMN_BYTES_PER_RECORD * n_records + SLACK
    assert capture.samples.dtype == np.complex64


def test_add_noise_allocates_its_blocks_and_no_result(clean_capture):
    n_records, n = clean_capture.samples.shape
    # one capture per call, made before tracing: add_noise consumes it
    captures = iter([own_samples(clean_capture), own_samples(clean_capture)])
    noisy, peak = traced_peak(lambda: im.add_noise(next(captures), 20.0, seed=1))
    # the complex128 noise block and the complex64 block it is rounded into
    blocks = sim._NOISE_ROWS * n * (np.dtype(np.complex128).itemsize + np.dtype(np.complex64).itemsize)
    assert peak <= blocks + COLUMN_BYTES_PER_RECORD * n_records + SLACK
    assert noisy.samples.dtype == np.complex64


def test_simulate_path_holds_one_capture(reference_chirp):
    # the CLI's simulate stage: synthesize_capture, then add_noise, which
    # writes the noise over the clean samples instead of into a second capture
    array = im.default_virtual_array(im.derive_chirp_params(reference_chirp).wavelength_m)
    scene = im.Scene((im.PointTarget(np.array([0.0, 4.0, 0.4]), 1.0),))
    traj = make_rail_trajectory(1.0, 0.02, 0.4)
    capture, peak = traced_peak(
        lambda: im.add_noise(im.synthesize_capture(scene, traj, reference_chirp, array), 20.0, seed=1)
    )
    n_records, n = capture.samples.shape
    samples = n_records * n * np.dtype(np.complex64).itemsize
    # synthesis's blocks (see the synthesize_capture test) outweigh the noise's
    rows = sim._SYNTH_CYCLES * array.n_tx * array.n_rx
    blocks = rows * n * (2 * np.dtype(np.complex128).itemsize + np.dtype(np.float64).itemsize)
    assert peak <= samples + blocks + COLUMN_BYTES_PER_RECORD * n_records + SLACK
    # a second capture would not fit
    assert blocks + COLUMN_BYTES_PER_RECORD * n_records + SLACK < samples


def test_simulate_stage_holds_its_blocks_and_the_columns_not_the_capture(reference_chirp, tmp_path):
    # the CLI's simulate stage: synthesis and noise in the output file
    array = im.default_virtual_array(im.derive_chirp_params(reference_chirp).wavelength_m)
    scene = im.Scene((im.PointTarget(np.array([0.0, 4.0, 0.4]), 1.0),))
    traj = make_rail_trajectory(1.0, 0.02, 0.4)
    path = tmp_path / "capture.insarraw"

    def stage():
        with formats.capture_file(path) as samples:
            capture = im.synthesize_capture(scene, traj, reference_chirp, array, samples=samples)
            capture = im.add_noise(capture, 20.0, seed=1)
            formats.write_capture(capture, path)
        return capture

    capture, peak = traced_peak(stage)
    n_records, n = capture.samples.shape
    # synthesis's blocks (see the synthesize_capture test) outweigh the
    # noise's, and the file is written and read _NOISE_ROWS packed records
    # at a time
    rows = sim._SYNTH_CYCLES * array.n_tx * array.n_rx
    blocks = rows * n * (2 * np.dtype(np.complex128).itemsize + np.dtype(np.float64).itemsize)
    packed = sim._NOISE_ROWS * formats._record_dtype(n).itemsize
    bound = blocks + packed + COLUMN_BYTES_PER_RECORD * n_records + SLACK
    assert peak <= bound
    # the capture's samples would not fit
    assert bound < n_records * n * np.dtype(np.complex64).itemsize
    assert np.asarray(formats.read_capture(path).samples).tobytes() == np.asarray(capture.samples).tobytes()


def test_image_stage_holds_the_stack_one_batch_and_the_columns_not_the_aperture(reference_chirp, tmp_path):
    # the CLI's image stage: the aperture's samples stay in the file, and
    # image_stack reads one cycle batch at a time
    array = im.default_virtual_array(im.derive_chirp_params(reference_chirp).wavelength_m)
    scene = im.Scene((im.PointTarget(np.array([0.0, 4.0, 0.4]), 1.0),))
    capture = im.synthesize_capture(scene, make_rail_trajectory(1.0, 0.02, 0.4), reference_chirp, array)
    path = tmp_path / "capture.insarraw"
    formats.write_capture(im.add_noise(capture, 20.0, seed=1), path)
    grid = im.ImageGrid(np.array([-0.5, 3.5]), np.array([1.0, 1.0]), 0.04)  # 25 x 25 px
    aperture = im.Aperture(0.04)  # the whole 4 cm track
    stack, peak = traced_peak(lambda: im.image_stack(formats.read_capture(path), grid, aperture))
    n_records, n = capture.samples.shape
    n_px = grid.n_u * grid.n_v
    images = array.n_vx * n_px * np.dtype(np.complex64).itemsize
    # one pixel block's buffers, as in the image_stack test below
    n_elements = len(np.unique(np.concatenate([array.tx_positions, array.rx_positions]), axis=0))
    block = n_px * (array.n_vx * (8 + 2) + n_elements * (8 + 8 + 8 + 4) + 8 + 8 + 8 + 8 + 8)
    # one cycle batch: its complex64 samples, the packed records they are
    # read through, the windowed complex128 samples and their complex128
    # range profiles at the 4x default oversampling
    batch_rows = imaging._CYCLE_BATCH * array.n_tx * array.n_rx
    batch = batch_rows * (n * (8 + 16 + 4 * 16) + formats._record_dtype(n).itemsize)
    bound = images + block + batch + COLUMN_BYTES_PER_RECORD * n_records + SLACK
    assert peak <= bound
    # the aperture's samples would not fit
    assert bound < n_records * n * np.dtype(np.complex64).itemsize
    assert stack.images.dtype == np.complex64


def test_read_capture_holds_the_columns_and_one_block_not_the_samples(clean_capture, tmp_path):
    path = tmp_path / "capture.insarraw"
    formats.write_capture(im.add_noise(own_samples(clean_capture), 20.0, seed=1), path)
    n_records, n = clean_capture.samples.shape
    capture, peak = traced_peak(lambda: formats.read_capture(path))
    block = formats._BLOCK_ROWS * formats._record_dtype(n).itemsize
    bound = block + COLUMN_BYTES_PER_RECORD * n_records + SLACK
    assert peak <= bound
    # the capture's samples would not fit: they stay in the file
    assert bound < n_records * n * np.dtype(np.complex64).itemsize
    assert isinstance(capture.samples, formats.CaptureFile)
    assert capture.samples.dtype == np.complex64


def test_read_capture_peaks_at_the_samples_and_one_block(clean_capture, tmp_path):
    path = tmp_path / "capture.insarraw"
    formats.write_capture(im.add_noise(own_samples(clean_capture), 20.0, seed=1), path)
    n_records, n = clean_capture.samples.shape
    # the capture and every one of its samples, read from the file
    samples, peak = traced_peak(lambda: np.asarray(formats.read_capture(path).samples))
    sample_bytes = n_records * n * np.dtype(np.complex64).itemsize
    block = formats._BLOCK_ROWS * formats._record_dtype(n).itemsize
    assert peak <= sample_bytes + block + COLUMN_BYTES_PER_RECORD * n_records + SLACK
    assert samples.dtype == np.complex64 and samples.nbytes == sample_bytes


def test_aperture_read_allocates_the_aperture_samples_one_block_and_the_columns(clean_capture, tmp_path):
    path = tmp_path / "capture.insarraw"
    formats.write_capture(im.add_noise(own_samples(clean_capture), 20.0, seed=1), path)
    n_records, n = clean_capture.samples.shape
    aperture = im.Aperture(0.004)  # 4 mm of the 2 cm track

    def aperture_read():
        capture = formats.read_capture(path)
        return capture.samples[imaging._select_aperture(capture, aperture)[0]]

    samples, peak = traced_peak(aperture_read)
    sample_bytes = n * np.dtype(np.complex64).itemsize
    block = formats._BLOCK_ROWS * formats._record_dtype(n).itemsize
    bound = samples.shape[0] * sample_bytes + block + COLUMN_BYTES_PER_RECORD * n_records + SLACK
    assert peak <= bound
    # the bound is below the whole capture's samples, which the read never holds
    assert bound < n_records * sample_bytes
    assert samples.shape[0] < n_records / 4


GRID = im.ImageGrid(np.array([-2.0, 2.0]), np.array([8.0, 8.0]), 0.04)  # 200 x 200 px
WAVELENGTH = 0.0039


def random_stack(array, seed=0):
    rng = np.random.default_rng(seed)
    shape = (array.n_vx, GRID.n_u, GRID.n_v)
    return im.SarImageStack(
        grid=GRID,
        array=array,
        images=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        phase_center=np.zeros(3),
        aperture_length_m=0.1,
        wavelength_m=WAVELENGTH,
    )


def test_read_image_stack_peaks_at_the_stack_and_one_plane(tmp_path):
    stack = random_stack(im.default_virtual_array(WAVELENGTH))
    path = tmp_path / "stack.insarimg"
    formats.write_image_stack(stack, path)
    back, peak = traced_peak(lambda: formats.read_image_stack(path))
    # the file's complex64 planes, read straight into the stack
    assert peak <= stack.images.size * np.dtype(np.complex64).itemsize + SLACK
    assert back.images.dtype == np.complex64


def test_elevate_path_holds_the_complex64_stack_and_a_few_wide_planes(tmp_path):
    array = im.default_virtual_array(WAVELENGTH)
    path = tmp_path / "stack.insarimg"
    formats.write_image_stack(random_stack(array), path)
    _, peak = traced_peak(lambda: im.build_elevation_map(formats.read_image_stack(path)))
    stack = array.n_vx * GRID.n_u * GRID.n_v * np.dtype(np.complex64).itemsize
    plane = GRID.n_u * GRID.n_v * np.dtype(np.complex128).itemsize
    # mean_phase_delay's running sums and its one reused set of per-baseline
    # buffers: 4 complex128 planes (total, unit_total, corr, unit) and 2 of
    # 8-byte values (count, mag); its bool mask and the multiply's widening
    # buffer fit in SLACK.  A complex128 copy of the 12-VX stack would be 12.
    assert peak <= stack + 5 * plane + SLACK


def stacked_baselines(n_baselines):
    """An array of n_baselines vertical baselines, all d_v = 0.95 mm
    (below lambda/4), over 2 * n_baselines VX."""
    tx = [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0019)]
    rx = [(0.002 * k, 0.0, 0.0) for k in range(n_baselines)]
    array = im.build_virtual_array(tx, rx)
    assert len(array.vertical_baselines) == n_baselines
    return array


def test_build_elevation_map_peak_does_not_grow_with_baselines():
    peaks = {}
    for n_baselines in (2, 8):
        stack = random_stack(stacked_baselines(n_baselines))
        _, peaks[n_baselines] = traced_peak(lambda: im.build_elevation_map(stack))
    # one complex plane is 640 KB, so a peak that held a plane per baseline
    # or per VX would exceed this by megabytes
    assert peaks[8] <= peaks[2] + SLACK


def test_image_stack_holds_its_complex64_stack_the_block_buffers_and_one_batch(clean_capture):
    # 4 mm of the 2 cm track: 21 cycles, 3 cycle batches, on a 300 x 300 grid
    grid = im.ImageGrid(np.array([-6.0, 1.0]), np.array([12.0, 12.0]), 0.04)
    aperture = im.Aperture(0.004)
    stack, peak = traced_peak(lambda: im.image_stack(clean_capture, grid, aperture))
    array, n = clean_capture.array, clean_capture.config.samples_per_chirp
    n_px = grid.n_u * grid.n_v
    images = array.n_vx * n_px * np.dtype(np.complex64).itemsize
    # a pixel block's buffers: each VX's complex64 partial sum and overflow
    # mask (two bools per pixel); each distinct element's float64 distance,
    # complex64 phasor and float64 and float32 phase work; and one record's
    # float64 q, complex64 value and float64, intp and complex64 work
    blocks = imaging._pixel_blocks(grid.n_u, grid.n_v, -(-n_px // imaging._BLOCK_PIXELS))
    block_px = max((u_hi - 1) * grid.n_v + v_hi - (u_lo * grid.n_v + v_lo) for u_lo, u_hi, v_lo, v_hi in blocks)
    n_elements = len(np.unique(np.concatenate([array.tx_positions, array.rx_positions]), axis=0))
    block = block_px * (array.n_vx * (8 + 2) + n_elements * (8 + 8 + 8 + 4) + 8 + 8 + 8 + 8 + 8)
    # one cycle batch's complex128 range profiles, at the 4x default oversampling
    profiles = imaging._CYCLE_BATCH * array.n_tx * array.n_rx * 4 * n * np.dtype(np.complex128).itemsize
    assert peak <= images + block + profiles + SLACK
    assert stack.images.dtype == np.complex64
    # a complex128 stack would not fit
    assert block + profiles + SLACK < images


def test_image_stage_peak_magnitude_takes_one_plane_at_a_time():
    stack = random_stack(im.default_virtual_array(WAVELENGTH))
    peak, traced = traced_peak(lambda: cli._peak_magnitude(stack.images))
    assert peak == float(np.abs(stack.images).max())
    # one float32 plane of |pixel|, within a float64 plane, against 1.9 MB
    # for the whole complex64 stack's
    plane = GRID.n_u * GRID.n_v * np.dtype(np.float64).itemsize
    assert traced <= plane + SLACK
