"""Zero-copy scan transport over POSIX shared memory.

The service's scan-pair requests carry the sensing itself — point
clouds, BV images, keypoint payloads — and pickling all of it through
the worker pool's call pipe costs two copies (serialize + deserialize)
of a ~1 MB payload per pose answer.  This module is the data plane that
avoids them, with one packing format: any picklable object is pickled
with protocol 5, its array buffers go out of band into a
:mod:`multiprocessing.shared_memory` segment, and the worker gets the
few-hundred-byte pickle stream plus a descriptor (``name``, per-buffer
offset/shape/dtype).  The worker maps the segment and rebuilds the
objects with their arrays as read-only NumPy views — no serialization
of array payloads in either direction, and no worker can write into a
segment the parent may resubmit on a retry.

Ownership protocol (the crash-cleanup contract, see ``DESIGN.md``):

* **The parent owns every segment.**  Only :class:`ShmArena` (which
  lives in the dispatcher process) creates and unlinks segments.
  Workers attach and close; they never unlink.  A worker that is
  SIGKILLed mid-task therefore cannot orphan a segment — its mapping
  dies with the process, and the parent unlinks the name when the
  task's retry ladder resolves.
* **One placement per task, released in ``finally``.**  The retry
  ladder re-submits the *same* descriptor to a restarted pool (the
  payload has not changed), so a retried task pays zero re-placement
  cost; the segment is released exactly once, whatever the outcome
  (success, exhausted retry budget, cancellation).
* **Backstops:** the arena registers a :mod:`weakref` finalizer (and
  the interpreter's ``atexit`` runs finalizers), so even an abandoned
  arena unlinks its live segments on interpreter exit; the service
  additionally calls :meth:`release_all` in its drain path.

Attachment bypasses ``multiprocessing``'s resource tracker: on
CPython < 3.13 every attach registers the name with the tracker, which
would later unlink (and warn about) a segment it does not own.  The
parent's create-side registration is kept — it is the last-resort
cleanup if the parent dies without running finalizers.

Results can travel the other way too: the parent reserves an empty
segment (:meth:`ShmArena.reserve`), the worker writes its result into
it (:func:`pack_objects`) and returns only the descriptor, and the
parent, which still owns the segment, decides when to unlink it.

Everything here is transport-agnostic and knows no message type:
:func:`share_objects` / :func:`pack_objects` / :func:`load_objects`
carry any picklable object (a scan's message, extracted features, a
match's arguments), and the rest is plain "pack these arrays / map
them back".  Segment names stay unique through the arena's monotonic
sequence number.  When shared memory is unavailable (no ``/dev/shm``,
sealed sandbox), :func:`shm_available` reports it and callers fall
back to the pickle path transparently.
"""

from __future__ import annotations

import os
import pickle
import weakref
from dataclasses import dataclass, replace
from multiprocessing import shared_memory
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ShmArena",
    "ShmBlockRef",
    "ShmSlice",
    "ShmUnavailableError",
    "SharedObjects",
    "attach_block",
    "load_objects",
    "pack_objects",
    "share_objects",
    "shm_available",
    "shm_free_bytes",
]

#: Segment offsets are aligned so every array view starts on a cache
#: line; costs at most 63 bytes per array.
_ALIGN = 64


class ShmUnavailableError(RuntimeError):
    """Shared memory cannot be used here; callers fall back to pickle."""


@dataclass(frozen=True)
class ShmSlice:
    """One array's location inside a segment (picklable, tiny)."""

    offset: int
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class ShmBlockRef:
    """A picklable handle to one shared segment full of packed arrays."""

    name: str
    size: int
    slices: tuple[ShmSlice, ...]

    @property
    def payload_bytes(self) -> int:
        """Bytes of array payload carried by the segment."""
        return sum(int(np.prod(s.shape, dtype=np.int64))
                   * np.dtype(s.dtype).itemsize for s in self.slices)


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _layout(arrays: Sequence[np.ndarray],
            ) -> tuple[tuple[ShmSlice, ...], int]:
    """Aligned slices packing ``arrays`` back to back, and the segment
    size they need (at least 1 byte)."""
    slices: list[ShmSlice] = []
    offset = 0
    for array in arrays:
        offset = _aligned(offset)
        slices.append(ShmSlice(offset, array.shape, array.dtype.str))
        offset += array.nbytes
    return tuple(slices), max(offset, 1)


def _write(segment: shared_memory.SharedMemory,
           arrays: Sequence[np.ndarray],
           slices: Sequence[ShmSlice]) -> None:
    for array, shm_slice in zip(arrays, slices):
        if array.nbytes:
            view = np.ndarray(array.shape, dtype=array.dtype,
                              buffer=segment.buf, offset=shm_slice.offset)
            view[...] = array


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker tracking.

    CPython < 3.13 registers every ``SharedMemory(name=...)`` attach
    with the multiprocessing resource tracker, which then unlinks the
    name at process teardown — destroying a segment this process does
    not own and warning about a "leak" that is not one.  Unregistering
    *after* the attach is no fix: pool workers share the parent's
    tracker (its cache is a name *set*), so the attacher's unregister
    would silently delete the creator's entry and the eventual unlink
    would double-unregister.  Suppressing registration during the
    attach is balanced in both topologies (shared tracker and a
    separate per-process one).  Ownership stays explicit: the creating
    arena unlinks, and its create-side registration remains the
    last-resort cleanup if the owner dies without running finalizers.
    """
    from multiprocessing import resource_tracker
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


_AVAILABLE: bool | None = None


def shm_available() -> bool:
    """Probe (once per process) whether shared memory works here."""
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            probe = shared_memory.SharedMemory(create=True, size=16)
        except Exception:
            _AVAILABLE = False
        else:
            probe.close()
            probe.unlink()
            _AVAILABLE = True
    return _AVAILABLE


def shm_free_bytes() -> int:
    """Free space of the ``/dev/shm`` filesystem that holds the segments
    (0 where it cannot be read)."""
    try:
        stats = os.statvfs("/dev/shm")
    except OSError:
        return 0
    return stats.f_bavail * stats.f_frsize


class ShmArena:
    """Parent-side owner of shared-memory segments.

    Tracks every live segment by name so cleanup is exact: segments are
    unlinked in :meth:`release` (per task), :meth:`release_all` (drain
    / shutdown), or — backstop — by a :mod:`weakref` finalizer when the
    arena is garbage-collected or the interpreter exits.

    ``active`` is the live-segment gauge and must be zero after a
    drained shutdown (the chaos soak asserts it).
    """

    def __init__(self, prefix: str = "repro-shm") -> None:
        if not shm_available():
            raise ShmUnavailableError("shared memory is not available")
        self.prefix = prefix
        self._sequence = 0
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._finalizer = weakref.finalize(
            self, ShmArena._unlink_all, self._segments)

    # ------------------------------------------------------------------
    @property
    def active(self) -> int:
        """Live (placed, not yet released) segments."""
        return len(self._segments)

    # ------------------------------------------------------------------
    def place(self, arrays: Sequence[np.ndarray]) -> ShmBlockRef:
        """Copy ``arrays`` into one fresh segment; returns its handle.

        One copy total (write side); the consumer maps views.  Raises
        :class:`ShmUnavailableError` when the segment cannot be created
        (e.g. ``/dev/shm`` filled up mid-run) — callers fall back to
        pickling that task.
        """
        contiguous = [np.ascontiguousarray(a) for a in arrays]
        slices, size = _layout(contiguous)
        segment = self._create(size)
        _write(segment, contiguous, slices)
        return ShmBlockRef(name=segment.name, size=size, slices=slices)

    def reserve(self, size: int) -> ShmBlockRef:
        """A fresh, empty segment of ``size`` bytes for a worker to fill
        (:func:`pack_objects`).

        The segment is sparse: it takes ``/dev/shm`` space only for the
        bytes the worker writes, so ``size`` can be a generous bound.
        """
        segment = self._create(size)
        return ShmBlockRef(name=segment.name, size=size, slices=())

    def _create(self, size: int) -> shared_memory.SharedMemory:
        self._sequence += 1
        name = f"{self.prefix}-{os.getpid()}-{self._sequence}"
        try:
            segment = shared_memory.SharedMemory(name=name, create=True,
                                                 size=size)
        except Exception as error:
            raise ShmUnavailableError(
                f"cannot create shared segment: {error}") from error
        self._segments[name] = segment
        return segment

    def release(self, ref: ShmBlockRef) -> None:
        """Unlink one segment.  Idempotent: releasing twice (or after
        :meth:`release_all`) is a no-op."""
        segment = self._segments.pop(ref.name, None)
        if segment is None:
            return
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - external unlink
            pass

    def release_all(self) -> None:
        """Unlink every live segment."""
        for name in list(self._segments):
            self.release(ShmBlockRef(name=name, size=0, slices=()))

    @staticmethod
    def _unlink_all(segments: dict[str, shared_memory.SharedMemory]) -> None:
        # weakref.finalize target: must not reference the arena itself.
        for segment in segments.values():
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
        segments.clear()


def attach_block(ref: ShmBlockRef,
                 ) -> tuple[list[np.ndarray], Callable[[], None]]:
    """Map a placed block; returns its arrays (read-only views) and a
    closer.

    The views are read-only: the parent may resubmit the same segment
    to another worker on a retry, so no consumer may write into it.
    They alias the mapped segment: call the closer after dropping every
    reference to them.  A view that outlives the closer keeps the
    mapping alive until it dies (the *name* is still the parent's to
    unlink, so nothing leaks either way).
    """
    segment = _attach(ref.name)
    arrays = []
    for s in ref.slices:
        array = np.ndarray(s.shape, dtype=np.dtype(s.dtype),
                           buffer=segment.buf, offset=s.offset)
        array.flags.writeable = False
        arrays.append(array)

    def close() -> None:
        # A NumPy view holds the mmap object as its base but no buffer
        # export, so closing the mmap would unmap pages a live view
        # still reads.  Drop the handle instead: the pages are unmapped
        # when the mmap's last reference dies.
        segment._mmap = None  # type: ignore[attr-defined]
        try:
            segment.close()
        except BufferError:  # a view holds an export: it keeps the map
            pass

    return arrays, close


# ----------------------------------------------------------------------
# Object packing.  Pickle protocol 5 hands every contiguous array buffer
# to a callback instead of copying it into the stream; the buffers go
# into one arena block and the stream (a few hundred bytes per object)
# crosses the pipe.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedObjects:
    """Picklable objects whose array buffers live in one shared segment.

    ``skeleton`` is the protocol-5 pickle of the objects with every
    out-of-band buffer left out; ``block`` holds those buffers in order.
    """

    block: ShmBlockRef
    skeleton: bytes


def _out_of_band(objects: object) -> tuple[bytes, list[np.ndarray]]:
    """Pickle ``objects`` with their array buffers out of band: the
    stream, and each buffer as a flat byte array."""
    buffers: list[pickle.PickleBuffer] = []
    skeleton = pickle.dumps(objects, protocol=5,
                            buffer_callback=buffers.append)
    return skeleton, [np.frombuffer(buffer.raw(), dtype=np.uint8)
                      for buffer in buffers]


def share_objects(arena: ShmArena, objects: object) -> SharedObjects:
    """Place ``objects``' array buffers into one arena segment.

    Raises :class:`ShmUnavailableError` when the segment cannot be
    created; the caller falls back to pickling ``objects``.
    """
    skeleton, buffers = _out_of_band(objects)
    return SharedObjects(block=arena.place(buffers), skeleton=skeleton)


def pack_objects(ref: ShmBlockRef, objects: object) -> SharedObjects | None:
    """Write ``objects``' array buffers into the reserved segment
    ``ref`` (:meth:`ShmArena.reserve`); ``None`` when they do not fit
    (in ``ref`` or in ``/dev/shm``).

    The worker's side of returning a result through shared memory: it
    attaches, writes and detaches, and the parent that reserved the
    segment still owns it.
    """
    skeleton, buffers = _out_of_band(objects)
    slices, size = _layout(buffers)
    if size > ref.size:
        return None
    segment = _attach(ref.name)
    try:
        # Allocate the pages first: on a full /dev/shm this fails with
        # ENOSPC here, where writing into the sparse segment would kill
        # the worker with a bus error.
        fd = segment._fd  # type: ignore[attr-defined]
        os.posix_fallocate(fd, 0, size)
        _write(segment, buffers, slices)
    except OSError:
        return None
    finally:
        segment.close()
    return SharedObjects(block=replace(ref, slices=slices),
                         skeleton=skeleton)


def load_objects(shared: SharedObjects) -> tuple[object, Callable[[], None]]:
    """Rebuild the objects with their arrays as read-only views over
    the mapped block.

    Returns ``(objects, close)``; call ``close`` after dropping every
    reference into the objects (see :func:`attach_block`).
    """
    arrays, close = attach_block(shared.block)
    return pickle.loads(shared.skeleton, buffers=arrays), close
