"""Tests for the shared-memory frame protocol and arena layer."""

import glob
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.runtime import shmem
from repro.runtime.shmem import (
    MIN_CAPACITY,
    ShmArena,
    ShmProtocolError,
    attach,
    capacity_for,
    frames_capacity,
    read_frames,
    write_frames,
)


def make_frames():
    return [
        np.arange(7, dtype=np.uint32),
        None,
        np.array([True, False, True]),
        np.arange(4, dtype=np.int64) * -3,
    ]


def assert_frames_equal(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        if want is None:
            assert got is None
        else:
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


class TestFrameProtocol:
    def test_round_trip(self):
        frames = make_frames()
        buf = memoryview(bytearray(frames_capacity(frames)))
        write_frames(buf, epoch=5, frames=frames)
        assert_frames_equal(read_frames(buf, expected_epoch=5), frames)

    def test_empty_arrays_round_trip(self):
        frames = [np.empty(0, dtype=np.uint32), None]
        buf = memoryview(bytearray(frames_capacity(frames)))
        write_frames(buf, epoch=1, frames=frames)
        assert_frames_equal(read_frames(buf, expected_epoch=1), frames)

    def test_every_wire_dtype_round_trips(self):
        frames = [np.ones(3, dtype=dtype) for dtype in shmem._DTYPES]
        buf = memoryview(bytearray(frames_capacity(frames)))
        write_frames(buf, epoch=2, frames=frames)
        assert_frames_equal(read_frames(buf, expected_epoch=2), frames)

    def test_unregistered_dtype_rejected(self):
        frames = [np.zeros(2, dtype=np.complex128)]
        buf = memoryview(bytearray(frames_capacity(frames)))
        with pytest.raises(ValueError, match="wire format"):
            write_frames(buf, epoch=1, frames=frames)

    def test_write_rejects_undersized_buffer(self):
        frames = make_frames()
        buf = memoryview(bytearray(frames_capacity(frames) - 1))
        with pytest.raises(ShmProtocolError, match="grow before writing"):
            write_frames(buf, epoch=1, frames=frames)

    def test_epoch_mismatch_rejected(self):
        frames = make_frames()
        buf = memoryview(bytearray(frames_capacity(frames)))
        write_frames(buf, epoch=4, frames=frames)
        with pytest.raises(ShmProtocolError, match="epoch 4"):
            read_frames(buf, expected_epoch=5)

    def test_garbled_magic_rejected(self):
        frames = make_frames()
        buf = memoryview(bytearray(frames_capacity(frames)))
        write_frames(buf, epoch=1, frames=frames)
        buf[0] = 0xFF
        with pytest.raises(ShmProtocolError, match="bad magic"):
            read_frames(buf, expected_epoch=1)

    def test_version_mismatch_rejected(self):
        frames = make_frames()
        buf = memoryview(bytearray(frames_capacity(frames)))
        write_frames(buf, epoch=1, frames=frames)
        buf[4] = 99
        with pytest.raises(ShmProtocolError, match="version"):
            read_frames(buf, expected_epoch=1)

    def test_truncated_payload_rejected(self):
        frames = [np.arange(1000, dtype=np.int64)]
        whole = memoryview(bytearray(frames_capacity(frames)))
        write_frames(whole, epoch=1, frames=frames)
        truncated = whole[: len(whole) // 2]
        with pytest.raises(ShmProtocolError, match="truncated"):
            read_frames(truncated, expected_epoch=1)

    def test_headerless_buffer_rejected(self):
        with pytest.raises(ShmProtocolError, match="header"):
            read_frames(memoryview(bytearray(4)), expected_epoch=0)

    def test_absurd_frame_count_rejected(self):
        buf = memoryview(bytearray(1024))
        shmem._HEADER.pack_into(
            buf, 0, shmem.MAGIC, shmem.VERSION, 0, 4096
        )
        with pytest.raises(ShmProtocolError, match="frame count"):
            read_frames(buf, expected_epoch=0)

    def test_unknown_dtype_code_rejected(self):
        frames = [np.arange(3, dtype=np.uint32)]
        buf = memoryview(bytearray(frames_capacity(frames)))
        write_frames(buf, epoch=1, frames=frames)
        shmem._FRAME.pack_into(buf, shmem._HEADER.size, 77, 3)
        with pytest.raises(ShmProtocolError, match="dtype code"):
            read_frames(buf, expected_epoch=1)

    def test_capacity_for_matches_frames_capacity(self):
        frames = make_frames()
        shapes = [
            (0 if f is None else len(f), np.uint8 if f is None else f.dtype)
            for f in frames
        ]
        # capacity_for can't model absent frames (it sizes the worst
        # case), so it must never be *smaller* than the real message.
        assert capacity_for(shapes) >= frames_capacity(frames)


class TestShmArena:
    def test_round_trip_and_copy_semantics(self):
        frames = make_frames()
        with ShmArena("t0") as arena:
            arena.write(3, frames)
            copied = arena.read(3)
            assert_frames_equal(copied, frames)
            # Default read copies: mutating the copy must not change
            # what a second read sees.
            copied[0][:] = 0
            assert_frames_equal(arena.read(3), frames)

    def test_growth_renames_and_preserves_message(self):
        with ShmArena("t1") as arena:
            first_name = arena.name
            big = [np.arange(MIN_CAPACITY, dtype=np.int64)]
            arena.write(1, big)
            assert arena.name != first_name
            assert arena.capacity >= big[0].nbytes
            assert_frames_equal(arena.read(1), big)
            assert not glob.glob(f"/dev/shm/{first_name}")

    def test_ensure_is_geometric(self):
        with ShmArena("t2") as arena:
            assert not arena.ensure(10)
            before = arena.capacity
            assert arena.ensure(before + 1)
            assert arena.capacity >= 2 * before

    def test_attach_sees_owner_writes(self):
        frames = [np.arange(9, dtype=np.uint32)]
        with ShmArena("t3") as arena:
            arena.write(7, frames)
            segment = attach(arena.name)
            try:
                assert_frames_equal(
                    read_frames(segment.buf, expected_epoch=7), frames
                )
            finally:
                segment.close()

    def test_close_unlinks_and_is_idempotent(self):
        arena = ShmArena("t4")
        name = arena.name
        assert glob.glob(f"/dev/shm/{name}")
        arena.close()
        arena.close()
        assert not glob.glob(f"/dev/shm/{name}")
        with pytest.raises(ShmProtocolError, match="closed"):
            arena.read(0)
        with pytest.raises(ShmProtocolError, match="closed"):
            arena.ensure(1)

    def test_no_segments_leaked_by_lifecycle(self):
        before = set(glob.glob("/dev/shm/rs*"))
        arena = ShmArena("t5")
        arena.write(1, [np.arange(MIN_CAPACITY, dtype=np.uint32)])
        arena.close()
        assert set(glob.glob("/dev/shm/rs*")) == before


class TestInterpreterTeardown:
    """Regressions for ``close()`` running during interpreter exit.

    At shutdown ``__del__`` can fire after the module's globals were
    cleared to ``None``; the retire-list append must degrade to a
    no-op so the unlink below it still runs.
    """

    def test_close_survives_a_cleared_retire_list(self, monkeypatch):
        arena = ShmArena("t6")
        name = arena.name
        arena.write(1, [np.arange(4, dtype=np.uint32)])
        # A live loan forces the BufferError branch inside close().
        loan = arena.read(1, copy=False)
        monkeypatch.setattr(shmem, "_RETIRED_SEGMENTS", None)
        arena.close()  # must not raise
        assert not glob.glob(f"/dev/shm/{name}")
        assert loan[0][0] == 0  # the mapping outlived the close
        # Release the loan so the un-retired segment's destructor can
        # unmap cleanly (nothing tracked it while the list was None).
        del loan

    def test_gc_at_exit_leaves_no_segment_or_noise(self):
        script = textwrap.dedent(
            """
            import numpy as np
            from repro.runtime.shmem import ShmArena

            arena = ShmArena("exit")
            arena.write(1, [np.arange(4, dtype=np.uint32)])
            # Keep a loaned view alive in a global so teardown order
            # decides whether the retire list still exists.
            loan = arena.read(1, copy=False)
            print(arena.name)
            """
        )
        env = dict(os.environ, PYTHONPATH="src")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            env=env,
        )
        assert result.returncode == 0, result.stderr
        name = result.stdout.strip()
        assert name and not glob.glob(f"/dev/shm/{name}")
        assert "Traceback" not in result.stderr
        assert "Exception ignored" not in result.stderr
