"""Peak memory of the capture, image, elevate and pointcloud paths.

numpy reports its array allocations to tracemalloc, so a traced peak is
the bytes of every array a call held at once.  Each bound is the arrays the
call must hold plus one work block or plane; anything the size of a second
copy of the samples or of the stack fails it.  The CLI's simulate and
image stages keep the capture's samples in its file, so their bounds hold
no capture at all; its image and elevate stages keep the stack in its file
too, so theirs hold one block of it.  The same bounds hold for an output
that is a device, which the stages make in a temporary file.
"""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

import insarmap as im
from insarmap import cli, formats, imaging, pointcloud
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
    scene = im.Scene([[0.0, 4.0, 0.4]], [1.0])
    return im.synthesize_capture(scene, make_rail_trajectory(1.0, 0.01, 0.4), reference_chirp, array)


def test_synthesize_capture_allocates_its_complex64_result_and_one_block(reference_chirp):
    array = im.default_virtual_array(im.derive_chirp_params(reference_chirp).wavelength_m)
    scene = im.Scene([[0.0, 4.0, 0.4]], [1.0])
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
    scene = im.Scene([[0.0, 4.0, 0.4]], [1.0])
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
    # the CLI's simulate stage: synthesis and noise in the output file, or
    # in the temporary file of a device output
    array = im.default_virtual_array(im.derive_chirp_params(reference_chirp).wavelength_m)
    scene = im.Scene([[0.0, 4.0, 0.4]], [1.0])
    traj = make_rail_trajectory(1.0, 0.02, 0.4)

    def stage(path):
        with formats.capture_file(path) as samples:
            capture = im.synthesize_capture(scene, traj, reference_chirp, array, samples=samples)
            capture = im.add_noise(capture, 20.0, seed=1)
            formats.write_capture(capture, path)
        return capture

    path = tmp_path / "capture.insarraw"
    capture, peak = traced_peak(lambda: stage(path))
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
    # a device output, which cannot be read back, is held to the same bound
    _, peak = traced_peak(lambda: stage(os.devnull))
    assert peak <= bound


def test_image_stage_holds_the_stack_one_batch_and_the_columns_not_the_aperture(reference_chirp, tmp_path):
    # the CLI's image stage: the aperture's samples stay in the file, and
    # image_stack reads one cycle batch at a time
    array = im.default_virtual_array(im.derive_chirp_params(reference_chirp).wavelength_m)
    scene = im.Scene([[0.0, 4.0, 0.4]], [1.0])
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
    assert isinstance(capture.samples, formats.ArrayFile)
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
# 400 x 400 px in 10 blocks of 40 rows: the 12-VX complex64 stack, 15.4 MB,
# outweighs what the streamed stages hold besides one block of it
WIDE_GRID = im.ImageGrid(np.array([-8.0, 1.0]), np.array([16.0, 16.0]), 0.04)
WAVELENGTH = 0.0039


def random_stack(array, grid=GRID, seed=0):
    rng = np.random.default_rng(seed)
    shape = (array.n_vx, grid.n_u, grid.n_v)
    return im.SarImageStack(
        grid=grid,
        array=array,
        images=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        phase_center=np.zeros(3),
        aperture_length_m=0.1,
        wavelength_m=WAVELENGTH,
    )


def in_memory(stack):
    """stack with every plane read from its file into memory."""
    return dataclasses.replace(stack, images=np.asarray(stack.images))


def test_read_image_stack_peaks_at_the_stack_and_one_plane(tmp_path):
    stack = random_stack(im.default_virtual_array(WAVELENGTH))
    path = tmp_path / "stack.insarimg"
    formats.write_image_stack(stack, path)
    # the stack and every one of its planes, read from the file
    images, peak = traced_peak(lambda: np.asarray(formats.read_image_stack(path).images))
    # the file's complex64 planes, read straight into the stack
    assert peak <= stack.images.size * np.dtype(np.complex64).itemsize + SLACK
    assert images.dtype == np.complex64 and images.tobytes() == stack.images.tobytes()


def test_read_image_stack_holds_no_plane(tmp_path):
    stack = random_stack(im.default_virtual_array(WAVELENGTH))
    path = tmp_path / "stack.insarimg"
    formats.write_image_stack(stack, path)
    back, peak = traced_peak(lambda: formats.read_image_stack(path))
    # the header; the planes stay in the file
    assert peak <= SLACK
    assert isinstance(back.images, formats.ArrayFile)


def test_elevate_path_holds_the_complex64_stack_and_a_few_wide_planes(tmp_path):
    # the elevate path on a stack read whole into memory
    array = im.default_virtual_array(WAVELENGTH)
    path = tmp_path / "stack.insarimg"
    formats.write_image_stack(random_stack(array), path)
    _, peak = traced_peak(lambda: im.build_elevation_map(in_memory(formats.read_image_stack(path))))
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


def largest_block(grid, blocks):
    """The most pixels any of blocks, (u_lo, u_hi, v_lo, v_hi), holds."""
    return max((u_hi - 1 - u_lo) * grid.n_v + v_hi - v_lo for u_lo, u_hi, v_lo, v_hi in blocks)


def largest_row_block(grid):
    """The most pixels any block of imaging._row_blocks holds."""
    return max(rows.stop - rows.start for rows in imaging._row_blocks(grid)) * grid.n_v


def test_image_stage_in_its_file_holds_one_pixel_block_of_the_stack(clean_capture, tmp_path):
    # the CLI's image stage: the samples stay in the capture file, and the
    # stack is made in its own, one pixel block at a time, or in the
    # temporary file of a device output
    path = tmp_path / "capture.insarraw"
    formats.write_capture(im.add_noise(own_samples(clean_capture), 20.0, seed=1), path)
    aperture = im.Aperture(0.004)  # 21 cycles, 3 cycle batches

    def stage(out):
        with formats.stack_file(out) as images:
            stack = im.image_stack(formats.read_capture(path), WIDE_GRID, aperture, images=images)
            formats.write_image_stack(stack, out)
        return stack

    array, (n_records, n) = clean_capture.array, clean_capture.samples.shape
    n_px = WIDE_GRID.n_u * WIDE_GRID.n_v
    n_blocks = -(-n_px // imaging._BLOCK_PIXELS)
    block_px = largest_block(WIDE_GRID, imaging._pixel_blocks(WIDE_GRID.n_u, WIDE_GRID.n_v, n_blocks))
    # a pixel block's buffers, as in the image_stack test above, and the
    # block's slices of every VX, read from the file and written back
    n_elements = len(np.unique(np.concatenate([array.tx_positions, array.rx_positions]), axis=0))
    block = block_px * (array.n_vx * (8 + 2) + n_elements * (8 + 8 + 8 + 4) + 8 + 8 + 8 + 8 + 8)
    block += array.n_vx * block_px * np.dtype(np.complex64).itemsize
    # one cycle batch, as in the image-stage test above
    batch_rows = imaging._CYCLE_BATCH * array.n_tx * array.n_rx
    batch = batch_rows * (n * (8 + 16 + 4 * 16) + formats._record_dtype(n).itemsize)
    bound = block + batch + COLUMN_BYTES_PER_RECORD * n_records + SLACK
    # the stack would not fit
    assert bound < array.n_vx * n_px * np.dtype(np.complex64).itemsize
    for out in (tmp_path / "stack.insarimg", os.devnull):
        stack, peak = traced_peak(lambda: stage(out))
        assert peak <= bound, out
        assert isinstance(stack.images, formats.ArrayFile)


def test_elevate_stage_holds_the_map_planes_and_one_block_of_rows(tmp_path):
    # the CLI's elevate stage: the stack stays in its file, and each block
    # of rows of every plane is read as it is combined
    array = im.default_virtual_array(WAVELENGTH)
    path = tmp_path / "stack.insarimg"
    formats.write_image_stack(random_stack(array, WIDE_GRID), path)
    emap, peak = traced_peak(lambda: im.build_elevation_map(formats.read_image_stack(path)))
    n_px = WIDE_GRID.n_u * WIDE_GRID.n_v
    # the map's five float64 planes, or, while snr_map runs, the three
    # combined planes, the median's copy of the magnitude and the ratio
    planes = 5 * n_px * np.dtype(np.float64).itemsize
    # one block of rows: its complex64 slices of every VX, mean_phase_delay's
    # four complex128 and two 8-byte buffers, and a dozen float64
    # temporaries (its results, the widened plane and magnitude, and the
    # elevation's)
    block = largest_row_block(WIDE_GRID) * (array.n_vx * 8 + 4 * 16 + 2 * 8 + 12 * 8)
    bound = planes + block + SLACK
    assert peak <= bound
    # the stack would not fit
    assert bound < array.n_vx * n_px * np.dtype(np.complex64).itemsize
    assert emap.elevation.shape == (WIDE_GRID.n_u, WIDE_GRID.n_v)


def test_pointcloud_stage_holds_the_map_planes_and_one_block_of_temporaries(tmp_path):
    path = tmp_path / "map.insarelv"
    formats.write_elevation_map(im.build_elevation_map(random_stack(im.default_virtual_array(WAVELENGTH), WIDE_GRID)),
                                path)
    # thresholds that keep about a sixth of the random map's pixels
    cfg = pointcloud.FilterConfig(snr_threshold_db=0.0, max_circular_variance=1.0)
    cloud, peak = traced_peak(lambda: pointcloud.filter_points(formats.read_elevation_map(path), cfg))
    n_px = WIDE_GRID.n_u * WIDE_GRID.n_v
    planes = 5 * n_px * np.dtype(np.float64).itemsize
    # beside the map's five float64 planes, the read holds one float32 plane
    # and ElevationMap's check one float64 plane and three masks; the
    # filter, one block of rows' dozen float64 and dozen bool temporaries,
    # and the kept points' six float64 columns, per block and joined
    read = n_px * (4 + 8 + 3)
    kept = 2 * len(cloud) * 6 * np.dtype(np.float64).itemsize
    block = largest_row_block(WIDE_GRID) * (12 * 8 + 12)
    bound = planes + max(read, block + kept) + SLACK
    assert peak <= bound
    assert len(cloud) > n_px / 10
    # the stack the map was made from would not fit
    assert bound < 12 * n_px * np.dtype(np.complex64).itemsize
