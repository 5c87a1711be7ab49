"""Shared-memory tick transport: header-framed array exchange.

The shard worker pool moves its per-tick arrays through named
:mod:`multiprocessing.shared_memory` segments rather than the executor
pipe: the driver writes each shard's routed batch (`TickPayload`) into
that shard's *request* arena, the worker maps the segment once and
reads the arrays zero-copy, and the fresh-infection reply comes back
the same way through a *reply* arena.  Only a tiny control tuple
(shard id, tick time, epoch, segment names) crosses the pickle pipe
each tick.

**Frame protocol.**  A segment holds one *message* at a time::

    header   | magic u32 | version u32 | epoch u64 | frame_count u32 |
    table    | frame_count x ( dtype_code i32 | length i64 ) |
    payload  | frame 0 bytes ... frame 1 bytes ...  (16-byte aligned)

Frames are positional — writer and reader agree on the slot meaning
(the shard tick uses ``sources, targets, policy, loss, immunize``; the
reply uses ``fresh``) — and a slot may be *absent* (dtype code ``-1``,
the ``None`` of the wire format).  Every read validates magic, version
and the expected epoch and bounds-checks the frame table against the
mapped size, so a truncated, garbled, or stale message surfaces as
:class:`ShmProtocolError` — which the shard driver treats exactly like
a dead worker: degrade to the serial re-run.

**Growth and epoch invalidation.**  Segments grow geometrically like
:class:`~repro.sim.arena.TickArena` buffers: when a tick's payload
outgrows the segment, the owner creates a doubled replacement under a
*new* name and unlinks the old one (POSIX keeps existing mappings
alive, so a worker still attached to the retired segment is safe —
it just can never validate a fresh epoch there).  The per-tick control
message carries the current name, and the monotonically increasing
epoch is written into the header *after* the payload, so a reader that
races a resize sees an epoch mismatch, never a torn frame it would
trust.

**Ownership.**  The driver creates and unlinks every segment; workers
only ever attach.  :func:`attach` deliberately skips Python's
``resource_tracker`` registration (``track=False`` where available) —
double-tracking a segment the driver will unlink makes the tracker
spew "leaked shared_memory" noise at exit and, worse, unlink segments
that are still in use.
"""

from __future__ import annotations

import itertools
import os
import struct
from contextlib import contextmanager
from multiprocessing.shared_memory import SharedMemory
from typing import Iterator, Optional, Sequence

import numpy as np


class ShmProtocolError(RuntimeError):
    """A shared-memory message failed validation (truncated, garbled,
    or stale-epoch) — recoverable by degrading to the serial path."""


#: ``b"RPSM"`` little-endian: *r*epro *p*robe *s*hared *m*emory.
MAGIC = 0x4D535052

#: Bump on any incompatible layout change; readers reject mismatches.
VERSION = 1

#: Header: magic u32, version u32, epoch u64, frame_count u32 (+pad).
_HEADER = struct.Struct("<IIQI4x")

#: Frame-table entry: dtype code i32 (-1 = absent frame), length i64.
_FRAME = struct.Struct("<iq")

#: Payload frames start and advance on 16-byte boundaries.
_ALIGN = 16

#: Sanity ceiling on the header's frame count — anything larger is a
#: garbled header, not a real message (tick messages use <= 5 frames).
_MAX_FRAMES = 64

#: The dtypes the wire format can carry; a frame's code indexes this
#: table.  Append only — codes are part of the protocol.
_DTYPES: tuple[np.dtype, ...] = tuple(
    np.dtype(d)
    for d in (
        np.uint32,
        np.int64,
        np.bool_,
        np.uint8,
        np.uint64,
        np.float64,
        np.int32,
        np.float32,
        np.intp,
    )
)
_CODE_BY_DTYPE: dict[str, int] = {
    dtype.str: code for code, dtype in enumerate(_DTYPES)
}

#: Smallest segment ever created; growth at least doubles from here.
MIN_CAPACITY = 1 << 16

#: Distinctive prefix so tests (and humans) can spot our segments in
#: ``/dev/shm`` — kept short because macOS caps names at 31 chars.
NAME_PREFIX = "rs"

_NAME_SEQUENCE = itertools.count()

#: Unlinked segments whose unmap was blocked by a live loaned view;
#: kept so their memory outlives the borrower (freed at exit).
_RETIRED_SEGMENTS: list["SharedMemory"] = []


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) & ~(_ALIGN - 1)


def _payload_start(frame_count: int) -> int:
    return _aligned(_HEADER.size + frame_count * _FRAME.size)


def frames_capacity(frames: Sequence[Optional[np.ndarray]]) -> int:
    """Bytes needed to hold one message carrying ``frames``."""
    total = _payload_start(len(frames))
    for frame in frames:
        if frame is not None:
            total += _aligned(frame.nbytes)
    return total


def capacity_for(shapes: Sequence[tuple[int, object]]) -> int:
    """Bytes needed for a message of ``(length, dtype)`` frames.

    Lets the driver pre-size a *reply* arena from what it knows — the
    reply's fresh-infection frame can never exceed the tick's target
    count — without materializing placeholder arrays.
    """
    total = _payload_start(len(shapes))
    for length, dtype in shapes:
        total += _aligned(length * np.dtype(dtype).itemsize)  # type: ignore[arg-type]
    return total


def write_frames(
    buf: memoryview, epoch: int, frames: Sequence[Optional[np.ndarray]]
) -> int:
    """Serialize one message into ``buf``; returns bytes used.

    The payload is written before the header, and the header (with its
    epoch) last — a reader racing this write sees a stale epoch, never
    a half-written frame under a current one.
    """
    needed = frames_capacity(frames)
    if needed > len(buf):
        raise ShmProtocolError(
            f"message needs {needed} bytes but the segment maps "
            f"{len(buf)} — the owner must grow before writing"
        )
    offset = _payload_start(len(frames))
    table: list[tuple[int, int]] = []
    for frame in frames:
        if frame is None:
            table.append((-1, 0))
            continue
        code = _CODE_BY_DTYPE.get(frame.dtype.str)
        if code is None:
            raise ValueError(
                f"dtype {frame.dtype} is not in the shmem wire format"
            )
        flat = frame.ravel()
        dest = np.frombuffer(
            buf, dtype=frame.dtype, count=flat.size, offset=offset
        )
        np.copyto(dest, flat, casting="no")
        table.append((code, flat.size))
        offset += _aligned(flat.nbytes)
    for index, (code, length) in enumerate(table):
        _FRAME.pack_into(
            buf, _HEADER.size + index * _FRAME.size, code, length
        )
    _HEADER.pack_into(buf, 0, MAGIC, VERSION, epoch, len(frames))
    return offset


def read_frames(
    buf: memoryview, expected_epoch: int
) -> list[Optional[np.ndarray]]:
    """Validate and deserialize one message from ``buf``.

    Returned arrays are *views into the segment* — loans, valid until
    the owner's next write (one tick).  Copy anything kept longer.
    Raises :class:`ShmProtocolError` on any validation failure.
    """
    if len(buf) < _HEADER.size:
        raise ShmProtocolError(
            f"segment maps only {len(buf)} bytes — no room for a header"
        )
    magic, version, epoch, frame_count = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise ShmProtocolError(
            f"bad magic {magic:#010x} (expected {MAGIC:#010x}) — "
            "garbled or foreign segment"
        )
    if version != VERSION:
        raise ShmProtocolError(
            f"protocol version {version} (expected {VERSION})"
        )
    if epoch != expected_epoch:
        raise ShmProtocolError(
            f"epoch {epoch} but tick expects {expected_epoch} — stale "
            "or racing message"
        )
    if frame_count > _MAX_FRAMES:
        raise ShmProtocolError(
            f"frame count {frame_count} exceeds the protocol maximum "
            f"{_MAX_FRAMES} — garbled header"
        )
    offset = _payload_start(frame_count)
    if offset > len(buf):
        raise ShmProtocolError("frame table extends past the segment")
    frames: list[Optional[np.ndarray]] = []
    for index in range(frame_count):
        code, length = _FRAME.unpack_from(
            buf, _HEADER.size + index * _FRAME.size
        )
        if code == -1:
            frames.append(None)
            continue
        if not 0 <= code < len(_DTYPES):
            raise ShmProtocolError(
                f"frame {index}: unknown dtype code {code}"
            )
        if length < 0:
            raise ShmProtocolError(
                f"frame {index}: negative length {length}"
            )
        dtype = _DTYPES[code]
        nbytes = length * dtype.itemsize
        if offset + nbytes > len(buf):
            raise ShmProtocolError(
                f"frame {index}: {nbytes} bytes at offset {offset} "
                f"run past the {len(buf)}-byte segment — truncated"
            )
        frames.append(
            np.frombuffer(buf, dtype=dtype, count=length, offset=offset)
        )
        offset += _aligned(nbytes)
    return frames


def _create_segment(tag: str, capacity: int) -> "SharedMemory":
    """A fresh named segment; names are ``rs<pid>-<seq>-<tag>``.

    The sequence counter makes names unique within a process and the
    pid across processes; a collision with a segment leaked by a
    *previous* pid-reusing process just advances the counter.
    """
    while True:
        name = f"{NAME_PREFIX}{os.getpid()}-{next(_NAME_SEQUENCE)}-{tag}"
        try:
            return SharedMemory(name=name, create=True, size=capacity)
        except FileExistsError:  # pragma: no cover - pid-reuse relic
            continue


@contextmanager
def _tracker_bypass() -> Iterator[None]:
    """Keep one shared-memory op out of the resource tracker's books.

    Used for worker-side :func:`attach` on Python <= 3.12 (which has
    no ``track=False``): under the default fork start method the
    worker shares the driver's tracker process, so registering an
    attachment would put the segment's name into the same set the
    driver's eventual ``unlink`` removes it from — and whichever side
    acts second trips a KeyError inside the tracker.  Under spawn the
    worker gets its *own* tracker, which would "clean up" (unlink!)
    segments the driver still uses.  Driver-side create/unlink stays
    tracked normally, so a hard-killed driver still gets its segments
    reclaimed at tracker shutdown.
    """
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover - exotic platforms only
        yield
        return
    original = resource_tracker.register

    def _register_except_shm(name: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = _register_except_shm  # type: ignore[assignment]
    try:
        yield
    finally:
        resource_tracker.register = original  # type: ignore[assignment]


def attach(name: str) -> "SharedMemory":
    """Map an existing segment *without* resource-tracker ownership.

    The creating (driver) process owns unlink; tracking the same name
    again from a worker makes Python's resource tracker complain
    about — or worse, act on — "leaked" segments at exit.
    """
    try:
        # Python >= 3.13 supports opting out directly.
        return SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        with _tracker_bypass():
            return SharedMemory(name=name)


class ShmArena:
    """One owned, named, geometrically-grown shared-memory segment.

    The owner (always the shard driver) writes messages with
    :meth:`write` / pre-sizes with :meth:`ensure`; growth allocates a
    doubled replacement under a new name and unlinks the retired one.
    :meth:`close` unlinks unconditionally and is idempotent — it runs
    from ``ShardPool.close``, the pool-failure path, context-manager
    exit, and ``__del__``, whichever comes first.
    """

    __slots__ = ("tag", "_segment", "_closed")

    def __init__(self, tag: str, capacity: int = MIN_CAPACITY) -> None:
        self.tag = tag
        self._segment = _create_segment(tag, max(capacity, MIN_CAPACITY))
        self._closed = False

    @property
    def name(self) -> str:
        """The segment's name (what a worker passes to :func:`attach`)."""
        return self._segment.name

    @property
    def capacity(self) -> int:
        """Mapped bytes available for one message."""
        return self._segment.size

    def ensure(self, nbytes: int) -> bool:
        """Grow to hold ``nbytes`` (at least doubling); True if grown."""
        if self._closed:
            raise ShmProtocolError(f"arena {self.tag} is closed")
        if nbytes <= self._segment.size:
            return False
        replacement = _create_segment(
            self.tag, max(nbytes, 2 * self._segment.size)
        )
        self._unlink_current()
        self._segment = replacement
        return True

    def write(
        self, epoch: int, frames: Sequence[Optional[np.ndarray]]
    ) -> None:
        """Grow as needed, then serialize one message."""
        self.ensure(frames_capacity(frames))
        write_frames(self._segment.buf, epoch, frames)

    def read(
        self, epoch: int, copy: bool = True
    ) -> list[Optional[np.ndarray]]:
        """Deserialize the current message.

        Copies by default: a view into an owned segment would pin its
        mapping (``BufferError`` on close) and go stale on growth.
        Pass ``copy=False`` only for use-and-drop access within one
        tick.
        """
        if self._closed:
            raise ShmProtocolError(f"arena {self.tag} is closed")
        frames = read_frames(self._segment.buf, epoch)
        if not copy:
            return frames
        return [
            None if frame is None else frame.copy() for frame in frames
        ]

    def _unlink_current(self) -> None:
        segment = self._segment
        try:
            segment.close()
        except BufferError:
            # A loaned view is still alive somewhere; the mapping must
            # outlive it.  Retire the object (bounded by the growth
            # count) and let interpreter exit reclaim the memory — the
            # name is still unlinked below, so nothing leaks on disk.
            #
            # Looked up via globals(): at interpreter shutdown this
            # runs from __del__ *after* the module's globals may have
            # been cleared to None, and a bare name reference would
            # raise — aborting before the unlink below and leaking the
            # segment on disk.  Losing the retire list itself is fine
            # then (the process is exiting; the OS unmaps everything).
            retired = globals().get("_RETIRED_SEGMENTS")
            if retired is not None:
                retired.append(segment)
        try:
            segment.unlink()
        except FileNotFoundError:  # noqa: RP007 — already unlinked (tracker or a racing close); the goal state
            pass

    def close(self) -> None:
        """Unmap and unlink; safe to call repeatedly."""
        if self._closed:
            return
        self._closed = True
        self._unlink_current()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:  # noqa: RP007 — interpreter-teardown close; nothing left to tell
            pass


__all__ = [
    "MAGIC",
    "MIN_CAPACITY",
    "NAME_PREFIX",
    "VERSION",
    "ShmArena",
    "ShmProtocolError",
    "attach",
    "capacity_for",
    "frames_capacity",
    "read_frames",
    "write_frames",
]
