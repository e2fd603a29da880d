"""Peak memory of the capture, image and elevate paths.

numpy reports its array allocations to tracemalloc, so a traced peak is
the bytes of every array a call held at once.  Each bound is the arrays the
call must hold plus one work block or plane; anything the size of a second
copy of the samples or of the stack fails it.
"""

import tracemalloc

import numpy as np
import pytest

import insarmap as im
from insarmap import cli, formats
from insarmap import simulate as sim

from conftest import make_rail_trajectory

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


def test_add_noise_allocates_its_complex64_result_and_one_block(clean_capture):
    n_records, n = clean_capture.samples.shape
    noisy, peak = traced_peak(lambda: im.add_noise(clean_capture, 20.0, seed=1))
    result = n_records * n * np.dtype(np.complex64).itemsize
    block = sim._NOISE_ROWS * n * np.dtype(np.complex128).itemsize
    assert peak <= result + block + COLUMN_BYTES_PER_RECORD * n_records + SLACK
    assert noisy.samples.dtype == np.complex64


def test_read_capture_peaks_at_the_samples_and_one_block(clean_capture, tmp_path):
    path = tmp_path / "capture.insarraw"
    formats.write_capture(im.add_noise(clean_capture, 20.0, seed=1), path)
    n_records, n = clean_capture.samples.shape
    capture, peak = traced_peak(lambda: formats.read_capture(path))
    samples = n_records * n * np.dtype(np.complex64).itemsize
    block = formats._BLOCK_ROWS * formats._record_dtype(n).itemsize
    assert peak <= samples + block + COLUMN_BYTES_PER_RECORD * n_records + SLACK
    assert capture.samples.dtype == np.complex64


def test_aperture_read_allocates_the_aperture_samples_one_block_and_the_columns(clean_capture, tmp_path):
    path = tmp_path / "capture.insarraw"
    formats.write_capture(im.add_noise(clean_capture, 20.0, seed=1), path)
    n_records, n = clean_capture.samples.shape
    # 4 mm of the 2 cm track
    capture, peak = traced_peak(lambda: formats.read_capture(path, im.Aperture(0.004)))
    sample_bytes = n * np.dtype(np.complex64).itemsize
    block = formats._BLOCK_ROWS * formats._record_dtype(n).itemsize
    bound = capture.n_records * sample_bytes + block + COLUMN_BYTES_PER_RECORD * n_records + SLACK
    assert peak <= bound
    # the bound is below the whole capture's samples, which the read never holds
    assert bound < n_records * sample_bytes
    assert capture.n_records < n_records / 4


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
    plane = GRID.n_u * GRID.n_v * np.dtype(np.complex64).itemsize
    assert peak <= stack.images.nbytes + plane + SLACK
    assert back.images.dtype == np.complex128


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


def test_image_stage_peak_magnitude_takes_one_plane_at_a_time():
    stack = random_stack(im.default_virtual_array(WAVELENGTH))
    peak, traced = traced_peak(lambda: cli._peak_magnitude(stack.images))
    assert peak == float(np.abs(stack.images).max())
    # one float64 plane of |pixel|, against 3.8 MB for the whole stack's
    plane = GRID.n_u * GRID.n_v * np.dtype(np.float64).itemsize
    assert traced <= plane + SLACK
