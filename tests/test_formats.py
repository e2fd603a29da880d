"""Binary artifact round trips and corruption handling."""

import contextlib
import dataclasses
import os
import stat
import sys
import threading

import numpy as np
import pytest

import insarmap as im
from insarmap import formats, imaging
from insarmap.errors import ConfigError, DataFormatError, DomainError
from insarmap.imaging import _select_aperture

from conftest import make_rail_trajectory, output_pipe, own_samples


class TestCaptureFormat:
    def test_round_trip(self, tmp_path, small_e2e):
        cap = small_e2e["capture"]
        path = tmp_path / "cap.insarraw"
        formats.write_capture(cap, path)
        back = formats.read_capture(path)
        assert back.config == cap.config
        assert back.n_records == cap.n_records
        assert np.allclose(back.array.tx_positions, cap.array.tx_positions)
        for r0, r1 in zip(cap.records, back.records):
            assert (r0.tx, r0.rx, r0.cycle) == (r1.tx, r1.rx, r1.cycle)
            assert r1.time_s == r0.time_s
            # samples go through float32, so only that much precision survives
            assert np.allclose(r1.samples, r0.samples, rtol=0, atol=2e-5)
        # a second write of the loaded capture is byte-stable
        path2 = tmp_path / "cap2.insarraw"
        formats.write_capture(back, path2)
        assert path.read_bytes()[:64] == path2.read_bytes()[:64]
        back2 = formats.read_capture(path2)
        for r1, r2 in zip(back.records, back2.records):
            assert np.array_equal(r1.samples, r2.samples)

    def test_full_file_round_trip_and_record_view(self, tmp_path, small_e2e):
        cap = im.add_noise(own_samples(small_e2e["capture"]), 20.0, seed=3)
        path, path2 = tmp_path / "cap.insarraw", tmp_path / "cap2.insarraw"
        formats.write_capture(cap, path)
        back = formats.read_capture(path)
        formats.write_capture(back, path2)
        assert path2.read_bytes() == path.read_bytes()
        # the record view is cached and agrees with the columns
        assert back.records is back.records
        poses_by_cycle = {}
        for i, rec in enumerate(back.records):
            assert (rec.tx, rec.rx, rec.cycle) == (back.tx[i], back.rx[i], back.cycle[i])
            assert rec.time_s == back.time_s[i]
            assert rec.pose is back.poses[back.pose_index[i]]
            assert np.array_equal(rec.samples, back.samples[i])
            poses_by_cycle.setdefault(rec.cycle, set()).add(id(rec.pose))
        assert all(len(ids) == 1 for ids in poses_by_cycle.values())

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.insarraw"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(DataFormatError, match="magic"):
            formats.read_capture(path)

    def test_truncated_file(self, tmp_path, small_e2e):
        path = tmp_path / "cap.insarraw"
        formats.write_capture(small_e2e["capture"], path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(DataFormatError, match="truncated"):
            formats.read_capture(path)


# 64 samples per chirp keep the aperture cases quick; one TDM cycle is
# 191.7 us, 0.38 mm along a 2 m/s track
PRI_S = 63.9e-6
CYCLE_S = 3 * PRI_S
CHIRP_M = 2.0 * PRI_S  # travel from one chirp to the next
APERTURE_CHIRP = im.ChirpConfig(77.4e9, 30e12, 64, 18.75e6, PRI_S, 256, 3)
APERTURE_GRID = im.ImageGrid(np.array([-0.2, 1.8]), np.array([0.4, 0.4]), 0.04)
IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def yaw_roll(yaw_deg, roll_deg):
    """Unit quaternion of a yaw about z after a roll about x."""
    y, r = np.radians(yaw_deg) / 2, np.radians(roll_deg) / 2
    q = np.array([np.cos(y) * np.cos(r), np.cos(y) * np.sin(r), np.sin(y) * np.sin(r), np.sin(y) * np.cos(r)])
    return q / np.linalg.norm(q)


def bent_track():
    """A pass that runs straight at 2 m/s, then turns left and speeds up to
    4 m/s: the chord of a part of it points another way than the chord of
    the whole, and an aperture about the turn is not centered in time."""
    rows = [(-0.02, -0.04, 0.0), (-0.01, -0.02, 0.0), (0.0, 0.0, 0.0), (0.01, 0.01, 0.03), (0.02, 0.01, 0.07)]
    return im.Trajectory(tuple(im.Pose(t, np.array([x, y, 0.4]), IDENTITY) for t, x, y in rows))


def rotated_rail():
    traj = make_rail_trajectory(2.0, 0.02, 0.4)
    return im.Trajectory(tuple(im.Pose(p.time_s, p.position, yaw_roll(20.0, 3.0)) for p in traj.poses))


def per_chirp_poses(capture, traj):
    """capture with each chirp's records at the pose of their own emission
    time, so a TDM cycle holds three poses."""
    times, pose_index = np.unique(capture.time_s, return_inverse=True)
    poses = tuple(im.pose_at_time(traj, float(t)) for t in times)
    return dataclasses.replace(capture, poses=poses, pose_index=pose_index)


@pytest.fixture(scope="module")
def captures(tmp_path_factory):
    """Noisy captures in memory, each with the file it was written to, one
    per trajectory: name -> (capture, path)."""
    array = im.default_virtual_array(im.derive_chirp_params(APERTURE_CHIRP).wavelength_m)
    scene = im.Scene((im.PointTarget(np.array([0.0, 2.0, 0.6]), 1.0),))
    out = tmp_path_factory.mktemp("aperture")
    made = {}
    rail = make_rail_trajectory(2.0, 0.02, 0.4)
    for name, traj in (("rail", rail), ("bent", bent_track()), ("rotated", rotated_rail())):
        made[name] = im.add_noise(im.synthesize_capture(scene, traj, APERTURE_CHIRP, array), 20.0, seed=5)
        if name == "rail":
            made["per-chirp"] = per_chirp_poses(made[name], rail)
    paths = {name: out / f"{name}.insarraw" for name in made}
    for name, capture in made.items():
        formats.write_capture(capture, paths[name])
    return {name: (capture, paths[name]) for name, capture in made.items()}


def assert_file_images_as_memory(captures, track, aperture):
    """image_stack of read_capture(path), which reads the aperture's records
    from the file, makes the bits it makes from the capture in memory, at 1
    and 2 threads.  The float32 cos and sin of imaging may differ between
    numpy SIMD paths; the file and the memory must agree on each."""
    memory, path = captures[track]
    capture = formats.read_capture(path)
    assert isinstance(capture.samples, formats.ArrayFile)
    for threads in (1, 2):
        a, b = (im.image_stack(c, APERTURE_GRID, aperture, threads=threads) for c in (capture, memory))
        assert a.images.tobytes() == b.images.tobytes()
        assert a.phase_center.tobytes() == b.phase_center.tobytes()


class TestApertureRead:
    """image_stack reads only the aperture's records of a capture whose
    samples stay in their file, and images them to the bits it makes from
    the whole capture in memory, for apertures that cut a capture in every
    way the aperture rule can."""

    @pytest.mark.simd
    @pytest.mark.parametrize(
        "track, aperture",
        [
            pytest.param("bent", im.Aperture(0.01), id="curved trajectory"),
            pytest.param("bent", im.Aperture(0.01, center_time_s=0.008), id="curved, off-center"),
            pytest.param("rotated", im.Aperture(0.01, center_time_s=-0.005), id="rotated array"),
            # 0.3 of the way from one cycle anchor to the next; then 0.7,
            # before the anchor of the one cycle the aperture holds
            pytest.param("rail", im.Aperture(0.01, center_time_s=-0.02 + 120.3 * CYCLE_S),
                         id="explicit center time"),
            pytest.param("rail", im.Aperture(2e-4, center_time_s=-0.02 + 120.7 * CYCLE_S),
                         id="shorter than one cycle"),
            pytest.param("rail", im.Aperture(0.02, center_time_s=-0.02), id="at the capture start"),
            pytest.param("rail", im.Aperture(0.02, center_time_s=0.0196), id="at the capture end"),
            # The aperture, 1.5 chirps of travel either side, picks the last
            # chirp of the cycle before the center one, whose pose is 0.4
            # chirps from the center time, nearer than the center cycle's
            # anchor at 0.6.
            pytest.param("per-chirp", im.Aperture(3 * CHIRP_M, center_time_s=-0.02 + 121 * CYCLE_S - 0.6 * PRI_S),
                         id="per-chirp poses, a cycle cut by the aperture"),
        ],
    )
    def test_images_the_whole_capture_bits(self, captures, track, aperture):
        memory = captures[track][0]
        sel, _ = _select_aperture(memory, aperture)
        assert 0 < sel.size < memory.n_records  # the aperture cuts the capture
        assert_file_images_as_memory(captures, track, aperture)


class TestCaptureFile:
    """A capture whose samples stay in their INSARRAW file: read_capture
    gives one, and capture_file makes one in the file it writes."""

    @pytest.fixture(scope="class")
    def noisy(self, captures):
        return captures["rail"][0]

    @pytest.mark.simd
    @pytest.mark.parametrize("threads", [1, 2])
    def test_image_from_the_file_equals_the_capture_in_memory(self, captures, noisy, threads):
        # the float32 cos and sin of imaging may differ between numpy SIMD
        # paths; the file and the memory must agree on each
        aperture = im.Aperture(0.02)
        # several cycle batches
        assert _select_aperture(noisy, aperture)[0].size > 2 * imaging._CYCLE_BATCH * noisy.array.n_vx
        capture = formats.read_capture(captures["rail"][1])
        assert isinstance(capture.samples, formats.ArrayFile)
        a, b = (im.image_stack(c, APERTURE_GRID, aperture, threads=threads) for c in (capture, noisy))
        assert a.images.tobytes() == b.images.tobytes()
        assert a.phase_center.tobytes() == b.phase_center.tobytes()

    def test_rows_read_from_the_file(self, captures, noisy):
        capture = formats.read_capture(captures["rail"][1])
        n = noisy.n_records
        assert n > 2 * formats._BLOCK_ROWS  # several blocks
        assert capture.samples.shape == (n, APERTURE_CHIRP.samples_per_chirp)
        assert capture.samples.dtype == np.complex64
        assert np.asarray(capture.samples).tobytes() == noisy.samples.tobytes()
        assert capture.records[4].samples.tobytes() == noisy.samples[4].tobytes()
        # the keys a store reads are TestStoreKeys'

    def test_read_only_samples_are_noised_into_memory(self, tmp_path, noisy):
        path = tmp_path / "c.insarraw"
        formats.write_capture(noisy, path)
        before = path.read_bytes()
        back = formats.read_capture(path)
        with pytest.raises(ValueError):
            back.samples.setflags(write=True)
        again = im.add_noise(back, 10.0, seed=1)
        assert isinstance(again.samples, np.ndarray)
        assert path.read_bytes() == before
        expected = dataclasses.replace(back, samples=np.asarray(back.samples))
        assert again.samples.tobytes() == im.add_noise(expected, 10.0, seed=1).samples.tobytes()

    def test_a_capture_may_be_written_over_the_file_it_reads(self, tmp_path, noisy):
        # the new file replaces the one the samples are read from only once
        # every record is copied; the write used to be refused
        path = tmp_path / "c.insarraw"
        formats.write_capture(noisy, path)
        before = path.read_bytes()
        back = formats.read_capture(path)
        formats.write_capture(back, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        # written elsewhere, it is the same file
        formats.write_capture(back, tmp_path / "copy.insarraw")
        assert (tmp_path / "copy.insarraw").read_bytes() == before

    def test_made_in_its_file(self, tmp_path, noisy):
        path = tmp_path / "c.insarraw"
        array, scene = noisy.array, im.Scene((im.PointTarget(np.array([0.0, 2.0, 0.6]), 1.0),))
        with formats.capture_file(path) as samples:
            cap = im.synthesize_capture(scene, make_rail_trajectory(2.0, 0.02, 0.4), APERTURE_CHIRP, array,
                                        samples=samples)
            assert isinstance(cap.samples, formats.ArrayFile)
            cap = im.add_noise(cap, 20.0, seed=5)
            formats.write_capture(cap, path)
        memory = tmp_path / "memory.insarraw"
        formats.write_capture(noisy, memory)
        assert path.read_bytes() == memory.read_bytes()
        # once the file is closed, the capture reads its rows from it
        assert np.asarray(cap.samples).tobytes() == noisy.samples.tobytes()
        with pytest.raises(ValueError):
            cap.samples.setflags(write=True)

    def test_a_failure_leaves_no_file(self, tmp_path, noisy):
        path = tmp_path / "c.insarraw"
        scene = im.Scene((im.PointTarget(np.array([0.0, 2.0, 0.6]), 1.0),))
        with pytest.raises(ConfigError, match="seed"):
            with formats.capture_file(path) as samples:
                cap = im.synthesize_capture(scene, make_rail_trajectory(2.0, 0.02, 0.4), APERTURE_CHIRP,
                                            noisy.array, samples=samples)
                im.add_noise(cap, 20.0, seed=-1)
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_sample_is_refused_as_it_is_read(self, tmp_path, noisy):
        path = tmp_path / "c.insarraw"
        formats.write_capture(noisy, path)
        aperture = im.Aperture(0.01)
        # a record of the aperture's second cycle batch
        record = int(_select_aperture(noisy, aperture)[0][imaging._CYCLE_BATCH * noisy.array.n_vx + 6])
        layout = formats._record_dtype(APERTURE_CHIRP.samples_per_chirp)
        data = bytearray(path.read_bytes())
        at = formats.read_capture(path).samples._start + record * layout.itemsize + layout.fields["iq"][1] + 4
        data[at : at + 4] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match=f"record {record} holds non-finite samples"):
            im.image_stack(formats.read_capture(path), APERTURE_GRID, aperture)


class TestImageStackFormat:
    def test_round_trip(self, tmp_path, small_e2e):
        stack = small_e2e["stack"]
        path = tmp_path / "stack.insarimg"
        formats.write_image_stack(stack, path)
        back = formats.read_image_stack(path)
        assert back.grid.n_u == stack.grid.n_u
        assert back.wavelength_m == stack.wavelength_m
        assert np.array_equal(back.phase_center, stack.phase_center)
        assert len(back.array.vertical_baselines) == 4
        assert np.allclose(back.images, stack.images, rtol=1e-6, atol=1e-6 * np.abs(stack.images).max())
        # the planes are the pixels rounded to complex64, and read back as they are
        assert path.read_bytes().endswith(stack.images.astype("<c8").tobytes())
        assert back.images.dtype == np.complex64
        # the planes stay in the file until they are read
        assert isinstance(back.images, formats.ArrayFile)
        assert np.asarray(back.images).tobytes() == stack.images.astype("<c8").tobytes()

    def test_version_check(self, tmp_path, small_e2e):
        path = tmp_path / "stack.insarimg"
        formats.write_image_stack(small_e2e["stack"], path)
        data = bytearray(path.read_bytes())
        data[8] = 99  # version field
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="version"):
            formats.read_image_stack(path)


class TestStackFile:
    """A stack whose planes stay in their INSARIMG file: read_image_stack
    gives one, and stack_file makes one in the file it writes."""

    APERTURE = im.Aperture(0.01)

    @pytest.fixture(scope="class")
    def stack(self, captures):
        return im.image_stack(captures["rail"][0], APERTURE_GRID, self.APERTURE)

    def test_blocks_read_from_the_file(self, tmp_path, stack):
        path = tmp_path / "s.insarimg"
        formats.write_image_stack(stack, path)
        back = formats.read_image_stack(path)
        assert isinstance(back.images, formats.ArrayFile)
        assert (back.images.shape, back.images.dtype, len(back.images)) == (stack.images.shape, np.complex64, 12)
        # the keys a store reads are TestStoreKeys'
        assert [p.tobytes() for p in back.images] == [p.tobytes() for p in stack.images]
        with pytest.raises(ValueError, match="reading only"):
            back.images[:, 0:1] = stack.images[:, 0:1]

    def test_made_in_its_file(self, tmp_path, captures, stack):
        path = tmp_path / "s.insarimg"
        with formats.stack_file(path) as images:
            made = im.image_stack(formats.read_capture(captures["rail"][1]), APERTURE_GRID, self.APERTURE,
                                  images=images)
            assert isinstance(made.images, formats.ArrayFile)
            formats.write_image_stack(made, path)
        memory = tmp_path / "memory.insarimg"
        formats.write_image_stack(stack, memory)
        assert path.read_bytes() == memory.read_bytes()
        # once the file is closed, the stack reads its planes from it
        assert np.asarray(made.images).tobytes() == stack.images.tobytes()
        with pytest.raises(ValueError, match="reading only"):
            made.images[:, 0:1] = stack.images[:, 0:1]

    def test_workers_add_into_disjoint_blocks_through_one_file(self, tmp_path, stack):
        # image_stack's workers read, add to and write back their own pixel
        # blocks through the one file stack_file holds open; a write that
        # lands at another thread's file position loses or misplaces a sum
        n_vx, n_u, n_v = stack.images.shape
        blocks = [(slice(None), slice(r, r + 1), slice(lo, lo + n_v // 2)) for r in range(n_u) for lo in (0, n_v // 2)]
        rounds, failures = 40, []

        def work(mine):
            try:
                for _ in range(rounds):
                    for region in mine:
                        sums = images[region]
                        sums += 1.0
                        images[region] = sums
            except Exception as exc:  # reported by the test thread
                failures.append(exc)

        path = tmp_path / "s.insarimg"
        with formats.stack_file(path) as start:
            images = start(grid=stack.grid, array=stack.array, phase_center=stack.phase_center,
                           aperture_length_m=stack.aperture_length_m, wavelength_m=stack.wavelength_m)
            workers = [threading.Thread(target=work, args=(blocks[i::8],)) for i in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(worker.is_alive() for worker in workers)
        assert failures == []
        assert (np.asarray(formats.read_image_stack(path).images) == rounds).all()

    def test_a_failure_leaves_the_output_as_it_was(self, tmp_path, captures):
        path = tmp_path / "s.insarimg"
        path.write_bytes(b"an earlier stack")
        with pytest.raises(RuntimeError, match="stopped"):
            with formats.stack_file(path) as images:
                im.image_stack(captures["rail"][0], APERTURE_GRID, self.APERTURE, images=images)
                raise RuntimeError("stopped")
        assert path.read_bytes() == b"an earlier stack"
        assert list(tmp_path.iterdir()) == [path]

    def test_a_stack_may_be_written_over_the_file_it_reads(self, tmp_path, stack):
        # the new file replaces the one the planes are read from only once
        # every plane is copied; the write used to be refused
        path = tmp_path / "s.insarimg"
        formats.write_image_stack(stack, path)
        before = path.read_bytes()
        back = formats.read_image_stack(path)
        formats.write_image_stack(back, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        # written elsewhere, it is the same file
        formats.write_image_stack(back, tmp_path / "copy.insarimg")
        assert (tmp_path / "copy.insarimg").read_bytes() == before

    def test_non_finite_pixel_is_refused_as_it_is_read(self, tmp_path, stack):
        path = tmp_path / "s.insarimg"
        formats.write_image_stack(stack, path)
        back = formats.read_image_stack(path)
        n_u, n_v = APERTURE_GRID.n_u, APERTURE_GRID.n_v
        data = bytearray(path.read_bytes())
        at = back.images._start + 8 * (5 * n_u * n_v + 7 * n_v + 2)  # VX 5, row 7
        data[at : at + 4] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(data))
        back = formats.read_image_stack(path)
        assert back.images[:, :7].tobytes() == stack.images[:, :7].tobytes()
        with pytest.raises(DataFormatError, match=f"{path}: VX 5 image holds non-finite pixels"):
            back.images[:, 7:]
        with pytest.raises(DataFormatError, match="VX 5 image holds non-finite pixels"):
            im.build_elevation_map(back)

    def test_a_file_cut_short_is_refused_as_it_is_read(self, tmp_path, stack):
        path = tmp_path / "s.insarimg"
        formats.write_image_stack(stack, path)
        back = formats.read_image_stack(path)
        path.write_bytes(path.read_bytes()[:-8])
        assert back.images[0].tobytes() == stack.images[0].tobytes()
        with pytest.raises(DataFormatError, match="truncated file while reading image planes"):
            back.images[-1]


def stored_fields(artifact, field):
    """Every field of artifact but field, the arguments of the factory that
    capture_file or stack_file yields."""
    return {f.name: getattr(artifact, f.name) for f in dataclasses.fields(artifact) if f.name != field}


@pytest.fixture(scope="module")
def artifacts_in_files(captures, tmp_path_factory):
    """A noisy capture and a stack imaged from it, each in memory and in its
    file: name -> (artifact, the field its file keeps, path, file factory)."""
    capture, capture_path = captures["rail"]
    stack = im.image_stack(capture, APERTURE_GRID, im.Aperture(0.01))
    stack_path = tmp_path_factory.mktemp("stores") / "s.insarimg"
    formats.write_image_stack(stack, stack_path)
    return {
        "capture": (capture, "samples", capture_path, formats.capture_file),
        "stack": (stack, "images", stack_path, formats.stack_file),
    }


def read_back(artifact, path):
    """The values of artifact's file as read_capture or read_image_stack
    leaves them, in a store over the file."""
    if isinstance(artifact, im.RawCapture):
        return formats.read_capture(path).samples
    return formats.read_image_stack(path).images


# keys of both artifacts, then keys of a stack's three axes
STORE_KEYS = {
    "int": 7,
    "negative np.int64": np.int64(-1),
    "slice": slice(2, 5),
    "stepped slice": slice(1, None, 3),
    "empty slice": slice(5, 2),
    "list": [0, 3],
    "array": np.array([0, 5, 6, 7, -1]),
    "boolean mask": lambda values: np.arange(len(values)) % 3 == 1,
    "Ellipsis": Ellipsis,
    "Ellipsis, last int": (Ellipsis, 0),
    "Ellipsis, last slice": (Ellipsis, slice(2, 5)),
    "block of parts of rows": (slice(3, 5), slice(0, 10)),
}
STACK_KEYS = {
    "rows of every plane": (slice(None), slice(3, 6)),
    "stepped rows of every plane": (slice(None), slice(None, None, 2)),
    "part of one row of every plane": (slice(None), 4, slice(2, 9)),
    "block of parts of rows of every plane": (slice(None), slice(2, 5), slice(3, 7)),
    "one column of two planes": (slice(1, 3), slice(None), 6),
    "listed planes, one column": ([0, 3], slice(None), 6),
}
KEY_CASES = [
    pytest.param(kind, key, id=f"{kind}-{name}")
    for kind, keys in (("capture", STORE_KEYS), ("stack", {**STORE_KEYS, **STACK_KEYS}))
    for name, key in keys.items()
]


class TestStoreKeys:
    """A store over a capture's samples (n_records, samples_per_chirp) or a
    stack's planes (n_vx, n_u, n_v) reads and writes what the array in
    memory does, for any key on the leading axes and an int or a unit-step
    slice on the last."""

    @pytest.mark.parametrize("kind, key", KEY_CASES)
    def test_a_store_reads_what_an_array_reads(self, artifacts_in_files, kind, key):
        artifact, field, path, _ = artifacts_in_files[kind]
        values = getattr(artifact, field)
        key = key(values) if callable(key) else key
        block = read_back(artifact, path)[key]
        assert block.dtype == np.complex64
        assert block.shape == values[key].shape
        assert block.tobytes() == values[key].tobytes()

    @pytest.mark.parametrize("kind, key", KEY_CASES)
    def test_a_store_writes_what_an_array_writes(self, tmp_path, artifacts_in_files, kind, key):
        artifact, field, _, make_file = artifacts_in_files[kind]
        values = getattr(artifact, field)
        key = key(values) if callable(key) else key
        expected = np.zeros_like(values)
        expected[key] = values[key]
        path = tmp_path / "out"
        with make_file(path) as start:
            store = start(**stored_fields(artifact, field))
            store[key] = values[key]
            assert np.asarray(store).tobytes() == expected.tobytes()
        # the record headers stay as the file's factory wrote them
        memory = tmp_path / "memory"
        with make_file(memory) as start:
            start(**stored_fields(artifact, field))[:] = expected
        assert path.read_bytes() == memory.read_bytes()

    @pytest.mark.parametrize("kind", ["capture", "stack"])
    @pytest.mark.parametrize("key", [(Ellipsis, slice(None, None, 2)), (Ellipsis, [1, 2])],
                             ids=["stepped last axis", "list on the last axis"])
    def test_a_key_a_store_cannot_serve_is_an_index_error(self, tmp_path, artifacts_in_files, kind, key):
        artifact, field, path, make_file = artifacts_in_files[kind]
        getattr(artifact, field)[key]  # an array serves it
        with pytest.raises(IndexError, match="last axis"):
            read_back(artifact, path)[key]
        with make_file(tmp_path / "out") as start:
            store = start(**stored_fields(artifact, field))
            with pytest.raises(IndexError, match="last axis"):
                store[key] = 0

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="numpy 2's copy keyword")
    @pytest.mark.parametrize("kind", ["capture", "stack"])
    def test_an_array_without_a_copy_is_refused(self, artifacts_in_files, kind):
        artifact, field, path, _ = artifacts_in_files[kind]
        store = read_back(artifact, path)
        with pytest.raises(ValueError, match="copy"):
            np.asarray(store, copy=False)
        assert np.asarray(store, copy=True).tobytes() == getattr(artifact, field).tobytes()


class TestElevationMapFormat:
    def test_round_trip_with_nans(self, tmp_path, small_e2e):
        emap = small_e2e["map"]
        # poke a NaN elevation in to confirm absent pixels survive the file
        elev = emap.elevation.copy()
        elev[0, 0] = np.nan
        poked = im.ElevationMap(
            grid=emap.grid,
            phase_center=emap.phase_center,
            wavelength_m=emap.wavelength_m,
            baseline_m=emap.baseline_m,
            elevation=elev,
            interferogram=emap.interferogram,
        )
        path = tmp_path / "map.insarelv"
        formats.write_elevation_map(poked, path)
        # the five planes are the values rounded to float32
        intf = emap.interferogram
        planes = (elev, intf.mean_phase_delay, intf.circular_variance, intf.combined_magnitude, intf.snr_db)
        assert path.read_bytes().endswith(np.stack(planes).astype("<f4").tobytes())
        back = formats.read_elevation_map(path)
        assert np.isnan(back.elevation[0, 0])
        finite = np.isfinite(poked.elevation)
        assert np.allclose(back.elevation[finite], poked.elevation[finite], atol=1e-6)
        assert np.allclose(
            back.interferogram.snr_db, emap.interferogram.snr_db, atol=1e-3
        )
        assert back.baseline_m == emap.baseline_m

    def test_value_beyond_float32_is_refused_with_its_plane(self, tmp_path, small_e2e):
        emap = small_e2e["map"]
        magnitude = emap.interferogram.combined_magnitude.copy()
        magnitude[4, 0] = 1e39
        big = dataclasses.replace(
            emap, interferogram=dataclasses.replace(emap.interferogram, combined_magnitude=magnitude)
        )
        path = tmp_path / "map.insarelv"
        with pytest.raises(ConfigError, match="combined magnitude plane holds values beyond float32 range"):
            formats.write_elevation_map(big, path)
        assert not path.exists()
        # an existing map is left as it was, and no new file beside it
        path.write_bytes(b"an earlier map")
        with pytest.raises(ConfigError, match="combined magnitude plane holds values beyond float32 range"):
            formats.write_elevation_map(big, path)
        assert path.read_bytes() == b"an earlier map"
        assert list(tmp_path.iterdir()) == [path]
        # nothing is sent into a pipe; the header used to be
        if hasattr(os, "mkfifo"):
            pipe = tmp_path / "pipe"
            with pytest.raises(ConfigError, match="beyond float32 range"), output_pipe(pipe) as received:
                formats.write_elevation_map(big, pipe)
            assert received == b""

    @pytest.mark.parametrize("plane, name", [(1, "phase"), (2, "variance"), (3, "magnitude"), (4, "SNR")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_quality_value_is_a_format_error(self, tmp_path, small_e2e, plane, name, bad):
        path = tmp_path / "map.insarelv"
        formats.write_elevation_map(small_e2e["map"], path)
        data = bytearray(path.read_bytes())
        at = len(data) - (5 - plane) * 4 * small_e2e["grid"].n_u * small_e2e["grid"].n_v  # the last 5 planes
        data[at : at + 4] = np.float32(bad).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match=f"{name} plane holds non-finite values"):
            formats.read_elevation_map(path)

    def test_zero_magnitude_pixel_keeps_its_minus_inf_snr(self, tmp_path, small_e2e):
        emap = small_e2e["map"]
        intf = emap.interferogram
        magnitude = intf.combined_magnitude.copy()
        magnitude[0, 0] = 0.0
        snr = im.snr_map(magnitude)
        poked = im.ElevationMap(
            grid=emap.grid,
            phase_center=emap.phase_center,
            wavelength_m=emap.wavelength_m,
            baseline_m=emap.baseline_m,
            elevation=emap.elevation,
            interferogram=im.InterferogramGrid(
                grid=emap.grid,
                mean_phase_delay=intf.mean_phase_delay,
                circular_variance=intf.circular_variance,
                combined_magnitude=magnitude,
                snr_db=snr,
            ),
        )
        path = tmp_path / "map.insarelv"
        formats.write_elevation_map(poked, path)
        back = formats.read_elevation_map(path)
        assert back.interferogram.snr_db[0, 0] == -np.inf
        assert np.isfinite(back.interferogram.snr_db.reshape(-1)[1:]).all()

    def test_truncation(self, tmp_path, small_e2e):
        path = tmp_path / "map.insarelv"
        formats.write_elevation_map(small_e2e["map"], path)
        data = path.read_bytes()
        path.write_bytes(data[:-100])
        with pytest.raises(DataFormatError, match="truncated"):
            formats.read_elevation_map(path)


class TestPgm:
    def test_pgm_header_and_size(self, tmp_path, small_e2e):
        stack = small_e2e["stack"]
        path = tmp_path / "vx00.pgm"
        formats.write_pgm(stack.images[0], path)
        data = path.read_bytes()
        header, rest = data.split(b"65535\n", 1)
        assert header.startswith(b"P5\n")
        dims = header.split(b"\n")[1].split()
        assert int(dims[0]) == stack.grid.n_u
        assert int(dims[1]) == stack.grid.n_v
        assert len(rest) == 2 * stack.grid.n_u * stack.grid.n_v

    def test_a_failing_write_leaves_an_existing_pgm(self, tmp_path, small_e2e, monkeypatch):
        # the disk fills after the header: the PGM used to be left half written
        class DiskFull:
            def __init__(self, fh):
                self.fh, self.writes = fh, []

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if self.writes:
                    raise OSError(28, "No space left on device")
                self.writes.append(data)
                return self.fh.write(data)

        opened = []
        monkeypatch.setattr(formats, "open", lambda *a, **k: opened.append(DiskFull(open(*a, **k))) or opened[-1],
                            raising=False)
        path = tmp_path / "vx00.pgm"
        path.write_bytes(b"an earlier PGM")
        with pytest.raises(OSError, match="No space left"):
            formats.write_pgm(small_e2e["stack"].images[0], path)
        assert opened[0].writes[0].startswith(b"P5\n")
        assert path.read_bytes() == b"an earlier PGM"
        assert list(tmp_path.iterdir()) == [path]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
class TestPipeOutput:
    """A pipe output is made in a temporary file, whose bytes are copied
    into the pipe when the writer is done."""

    WRITERS = {
        "capture": lambda e2e, path: formats.write_capture(e2e["capture"], path),
        "stack": lambda e2e, path: formats.write_image_stack(e2e["stack"], path),
        "map": lambda e2e, path: formats.write_elevation_map(e2e["map"], path),
        "pgm": lambda e2e, path: formats.write_pgm(e2e["stack"].images[0], path),
    }

    @pytest.mark.parametrize("kind", WRITERS)
    def test_a_pipe_receives_the_bytes_of_a_file(self, tmp_path, small_e2e, kind):
        write = self.WRITERS[kind]
        write(small_e2e, tmp_path / "file")
        with output_pipe(tmp_path / "pipe") as received:
            write(small_e2e, tmp_path / "pipe")
        assert received == (tmp_path / "file").read_bytes()
        assert stat.S_ISFIFO(os.lstat(tmp_path / "pipe").st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "pipe"]

    @pytest.mark.parametrize("kind", ["capture", "stack"])
    @pytest.mark.parametrize("output", ["pipe", "device"])
    def test_a_store_made_for_a_pipe_or_device_is_refused_when_read(self, tmp_path, small_e2e, kind, output):
        # once the output is written, the store's file is the pipe or the
        # device: a pipe opened for reading blocks until a writer opens it,
        # and /dev/null reads as an empty file
        artifact, field = (small_e2e["capture"], "samples") if kind == "capture" else (small_e2e["stack"], "images")
        make_file = formats.capture_file if kind == "capture" else formats.stack_file
        path = tmp_path / "pipe" if output == "pipe" else os.devnull
        with contextlib.ExitStack() as outputs:
            if output == "pipe":
                outputs.enter_context(output_pipe(path))
            with make_file(path) as start:
                store = start(**stored_fields(artifact, field))
                store[:] = getattr(artifact, field)
                assert np.asarray(store).tobytes() == getattr(artifact, field).tobytes()
        failures = []

        def read():
            try:
                np.asarray(store)
            except Exception as exc:  # reported by the test thread
                failures.append(exc)

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout=10)
        if reader.is_alive():
            # a writer's open lets a reader blocked in its open go on
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            pytest.fail("reading the store blocks")
        assert len(failures) == 1 and isinstance(failures[0], ValueError)
        assert f"{path} is not a regular file" in str(failures[0])


class TestFuzz:
    """Seeded byte flips and truncations of each binary format: every case
    either loads or raises DataFormatError (CLI exit 3), never anything
    else.  A capture's samples are read too, and the capture is imaged,
    which may also end in the aperture rule's DomainError or a ConfigError
    image_stack documents."""

    CASES = 150
    GRID = im.ImageGrid(np.array([-0.2, 2.8]), np.array([0.4, 0.4]), 0.04)

    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        cfg = im.ChirpConfig(77.4e9, 30e12, 16, 18.75e6, 63.9e-6, 256, 3)
        array = im.default_virtual_array(im.derive_chirp_params(cfg).wavelength_m)
        traj = im.Trajectory(
            (
                im.Pose(0.0, np.array([0.0, 0.0, 0.4]), np.array([1.0, 0, 0, 0])),
                im.Pose(0.004, np.array([0.02, 0.0, 0.4]), np.array([1.0, 0, 0, 0])),
            )
        )
        scene = im.Scene((im.PointTarget(np.array([0.0, 3.0, 0.5]), 1.0),))
        cap = im.add_noise(im.synthesize_capture(scene, traj, cfg, array), 20.0, seed=1)
        stack = im.image_stack(cap, self.GRID, im.Aperture(0.02))
        out = tmp_path_factory.mktemp("fuzz")
        paths = {"capture": out / "c.insarraw", "stack": out / "s.insarimg", "map": out / "m.insarelv"}
        formats.write_capture(cap, paths["capture"])
        formats.write_image_stack(stack, paths["stack"])
        formats.write_elevation_map(im.build_elevation_map(stack), paths["map"])
        return paths

    def damaged(self, good: bytes, path):
        """Write each seeded damaged copy of good to path in turn, yielding
        its case number."""
        rng = np.random.default_rng(2024)
        for case in range(self.CASES):
            data = bytearray(good)
            if case % 3 == 0:
                data = data[: int(rng.integers(0, len(data)))]
            else:
                # half the flips land in the first 512 bytes, where the
                # header's sizes and values are
                span = 512 if case % 3 == 1 else len(data)
                for at in rng.integers(0, min(span, len(data)), size=int(rng.integers(1, 5))):
                    data[at] = int(rng.integers(0, 256))
            path.write_bytes(bytes(data))
            yield case

    # garbage header values may overflow in the readers' validation arithmetic
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize(
        "kind, reader",
        [
            ("capture", formats.read_capture),
            ("stack", formats.read_image_stack),
            ("map", formats.read_elevation_map),
        ],
    )
    def test_damage_loads_or_is_a_format_error(self, tmp_path, artifacts, kind, reader):
        reader(artifacts[kind])
        path = tmp_path / artifacts[kind].name
        for case in self.damaged(artifacts[kind].read_bytes(), path):
            try:
                loaded = reader(path)
                # the samples and the planes stay in the file until read
                if kind == "capture":
                    np.asarray(loaded.samples)
                elif kind == "stack":
                    np.asarray(loaded.images)
            except DataFormatError:
                pass
            except Exception as exc:
                pytest.fail(f"{kind} case {case}: {type(exc).__name__}: {exc}")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_aperture_read_damage_loads_or_fails_cleanly(self, tmp_path, artifacts):
        # the aperture rule's own errors (say, for a pose far beyond the
        # others) are DomainErrors; the aperture's samples stay in the file
        # until image_stack reads them, so a damaged sample is a
        # DataFormatError then, and a value the kernel refuses (one beyond
        # float32, say) is the ConfigError it documents
        aperture = im.Aperture(0.01)
        im.image_stack(formats.read_capture(artifacts["capture"]), self.GRID, aperture)
        path = tmp_path / "c.insarraw"
        for case in self.damaged(artifacts["capture"].read_bytes(), path):
            try:
                im.image_stack(formats.read_capture(path), self.GRID, aperture)
            except (DataFormatError, DomainError, ConfigError):
                pass
            except Exception as exc:
                pytest.fail(f"aperture read case {case}: {type(exc).__name__}: {exc}")
