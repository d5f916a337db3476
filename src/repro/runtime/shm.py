"""Zero-copy scan transport over POSIX shared memory.

The service's scan-pair requests carry the sensing itself — point
clouds, BV images, keypoint payloads — and the PR 8 data path pickled
all of it through the worker pool's call pipe on every request: two
copies (serialize + deserialize) of a ~1 MB payload per pose answer.
This module is the replacement data plane: the dispatcher *places* the
heavy arrays into a :mod:`multiprocessing.shared_memory` segment once
per pool task and hands workers a few-hundred-byte descriptor
(``name``, per-array offset/shape/dtype); the worker maps the segment
and reconstructs the messages as NumPy views — no serialization of
array payloads in either direction.

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
* **Generation tags** stamp every descriptor with the arena's epoch.
  :meth:`ShmArena.release_all` bumps the epoch, so a descriptor that
  survives an arena teardown (a straggler task) can be recognized and
  refused instead of attaching to a recycled name.
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

Everything here is transport-agnostic: :func:`share_messages` /
:func:`load_messages` know the tier message shapes,
:func:`share_objects` / :func:`pack_objects` / :func:`load_objects`
carry any picklable object (extracted features) with its array buffers
out of band, and the rest is plain "pack these arrays / map them
back".  When shared memory is unavailable (no ``/dev/shm``, sealed
sandbox), :func:`shm_available` reports it and callers fall back to
the pickle path transparently.
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
    "SharedMessages",
    "SharedObjects",
    "attach_block",
    "load_messages",
    "load_objects",
    "pack_objects",
    "read_segment",
    "share_messages",
    "share_objects",
    "shm_available",
    "shm_free_bytes",
    "write_segment",
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
    """A picklable handle to one shared segment full of packed arrays.

    ``generation`` is the owning arena's epoch at placement time — a
    consumer can detect a descriptor that outlived its arena (see
    :meth:`ShmArena.owns`).
    """

    name: str
    size: int
    generation: int
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

    Counters (``created`` / ``released`` / ``bytes_placed``) feed the
    service's metrics; ``active`` is the live-segment gauge and must be
    zero after a drained shutdown (the chaos soak asserts it).
    """

    def __init__(self, prefix: str = "repro-shm") -> None:
        if not shm_available():
            raise ShmUnavailableError("shared memory is not available")
        self.prefix = prefix
        self.generation = 0
        self.created = 0
        self.released = 0
        self.bytes_placed = 0
        self._sequence = 0
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._finalizer = weakref.finalize(
            self, ShmArena._unlink_all, self._segments)

    # ------------------------------------------------------------------
    @property
    def active(self) -> int:
        """Live (placed, not yet released) segments."""
        return len(self._segments)

    def owns(self, ref: ShmBlockRef) -> bool:
        """Whether ``ref`` names a live segment of this arena's epoch."""
        return ref.generation == self.generation and ref.name in self._segments

    # ------------------------------------------------------------------
    def place(self, arrays: Sequence[np.ndarray]) -> ShmBlockRef:
        """Copy ``arrays`` into one fresh segment; returns its handle.

        One copy total (write side); the consumer maps views.  Raises
        :class:`ShmUnavailableError` when the segment cannot be created
        (e.g. ``/dev/shm`` filled up mid-run) — callers fall back to
        pickling that batch.
        """
        contiguous = [np.ascontiguousarray(a) for a in arrays]
        slices, size = _layout(contiguous)
        segment = self._create(size)
        _write(segment, contiguous, slices)
        self.bytes_placed += size
        return ShmBlockRef(name=segment.name, size=size,
                           generation=self.generation, slices=slices)

    def reserve(self, size: int) -> ShmBlockRef:
        """A fresh, empty segment of ``size`` bytes for a worker to fill
        (:func:`pack_objects`).

        The segment is sparse: it takes ``/dev/shm`` space only for the
        bytes the worker writes, so ``size`` can be a generous bound.
        """
        segment = self._create(size)
        return ShmBlockRef(name=segment.name, size=size,
                           generation=self.generation, slices=())

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
        self.created += 1
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
        self.released += 1

    def release_all(self) -> None:
        """Unlink every live segment and bump the epoch."""
        for name in list(self._segments):
            self.release(ShmBlockRef(name=name, size=0,
                                     generation=self.generation, slices=()))
        self.generation += 1

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


def write_segment(payload: bytes) -> shared_memory.SharedMemory:
    """Create a fresh segment holding ``payload`` (caller owns it).

    The TCP client's side of the shm-pair transport: the returned
    segment's ``name`` travels in the request descriptor and the caller
    unlinks after the response arrives.  Raises
    :class:`ShmUnavailableError` when the segment cannot be created.
    """
    try:
        segment = shared_memory.SharedMemory(create=True,
                                             size=max(len(payload), 1))
    except Exception as error:
        raise ShmUnavailableError(
            f"cannot create shared segment: {error}") from error
    segment.buf[:len(payload)] = payload
    return segment


def read_segment(name: str, length: int) -> bytes:
    """Copy ``length`` bytes out of a foreign segment and detach.

    The server's side of the shm-pair transport: the segment belongs to
    the client, so this attaches untracked, copies, and closes — never
    unlinks.  Raises ``ValueError`` when the segment is shorter than
    promised, ``FileNotFoundError`` when the name does not resolve.
    """
    segment = _attach(name)
    try:
        if segment.size < length:
            raise ValueError(
                f"segment {name!r} holds {segment.size} bytes, "
                f"descriptor promises {length}")
        return bytes(segment.buf[:length])
    finally:
        segment.close()


def attach_block(ref: ShmBlockRef,
                 ) -> tuple[list[np.ndarray], Callable[[], None]]:
    """Map a placed block; returns its arrays (views) and a closer.

    The views alias the mapped segment: call the closer only after
    dropping every reference to them (a view kept alive past the close
    would raise ``BufferError``; the closer tolerates that and leaves
    the mapping to die with the process — the *name* is still the
    parent's to unlink, so nothing leaks either way).
    """
    segment = _attach(ref.name)
    arrays = [np.ndarray(s.shape, dtype=np.dtype(s.dtype),
                         buffer=segment.buf, offset=s.offset)
              for s in ref.slices]

    def close() -> None:
        try:
            segment.close()
        except BufferError:  # a view outlived the batch: leave the map
            pass

    return arrays, close


# ----------------------------------------------------------------------
# Tier-message packing.  A TieredMessage is a skeleton of scalars plus
# up to a handful of arrays; share_messages() strips the arrays into an
# arena block and load_messages() reassembles views on the worker side.
# The comms import is local: repro.runtime stays import-light and free
# of a package-level runtime <-> comms cycle.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _CloudSkeleton:
    points: int
    timestamps: int | None
    labels: int | None


@dataclass(frozen=True)
class _BvImageSkeleton:
    image: int
    cell_size: float
    lidar_range: float
    num_nonfinite: int


@dataclass(frozen=True)
class _KeypointSkeleton:
    xy: int
    scores: int
    descriptors: int
    image_size: int
    cell_size: float
    lidar_range: float
    grid_size: int
    num_orientations: int


@dataclass(frozen=True)
class _MessageSkeleton:
    """One tier message with its arrays replaced by slice indices."""

    tier: str
    boxes: tuple
    cloud: _CloudSkeleton | None = None
    bv_image: _BvImageSkeleton | None = None
    keypoints: _KeypointSkeleton | None = None


@dataclass(frozen=True)
class SharedMessages:
    """A batch of tier messages packed into one shared segment.

    Picklable and tiny (the block handle plus per-message skeletons);
    this is what crosses the pool's call pipe instead of the payloads.
    """

    block: ShmBlockRef
    skeletons: tuple[_MessageSkeleton, ...]

    @property
    def payload_bytes(self) -> int:
        return self.block.payload_bytes


def share_messages(arena: ShmArena, messages: Sequence) -> SharedMessages:
    """Strip a batch of :class:`~repro.comms.tiers.TieredMessage` into
    one arena segment plus skeletons.

    Raises :class:`ShmUnavailableError` when the segment cannot be
    created; the caller falls back to pickling the batch.
    """
    arrays: list[np.ndarray] = []

    def add(array: np.ndarray) -> int:
        arrays.append(array)
        return len(arrays) - 1

    skeletons: list[_MessageSkeleton] = []
    for message in messages:
        cloud = bv = kp = None
        if message.cloud is not None:
            c = message.cloud
            cloud = _CloudSkeleton(
                points=add(c.points),
                timestamps=(add(c.timestamps)
                            if c.timestamps is not None else None),
                labels=add(c.labels) if c.labels is not None else None)
        if message.bv_image is not None:
            b = message.bv_image
            bv = _BvImageSkeleton(image=add(b.image),
                                  cell_size=b.cell_size,
                                  lidar_range=b.lidar_range,
                                  num_nonfinite=b.num_nonfinite)
        if message.keypoints is not None:
            k = message.keypoints
            kp = _KeypointSkeleton(
                xy=add(k.xy), scores=add(k.scores),
                descriptors=add(k.descriptors), image_size=k.image_size,
                cell_size=k.cell_size, lidar_range=k.lidar_range,
                grid_size=k.grid_size,
                num_orientations=k.num_orientations)
        skeletons.append(_MessageSkeleton(
            tier=message.tier.value, boxes=tuple(message.boxes),
            cloud=cloud, bv_image=bv, keypoints=kp))
    block = arena.place(arrays)
    return SharedMessages(block=block, skeletons=tuple(skeletons))


def load_messages(shared: SharedMessages,
                  ) -> tuple[list, Callable[[], None]]:
    """Reassemble the batch's messages as views over the mapped block.

    Cloud points stay zero-copy views (the heavy payload, consumed
    within the batch); the small BV-image/keypoint arrays are *copied*
    out of the segment so anything downstream that retains them (the
    worker's warm feature cache) can outlive the mapping safely.

    Returns ``(messages, close)``; call ``close`` after the batch drops
    its message references.
    """
    from repro.bev.projection import BVImage
    from repro.comms.tiers import KeypointPayload, Tier, TieredMessage
    from repro.pointcloud.cloud import PointCloud

    arrays, close = attach_block(shared.block)
    messages = []
    for skel in shared.skeletons:
        cloud = bv = kp = None
        if skel.cloud is not None:
            cloud = PointCloud(
                arrays[skel.cloud.points],
                timestamps=(arrays[skel.cloud.timestamps]
                            if skel.cloud.timestamps is not None else None),
                labels=(arrays[skel.cloud.labels]
                        if skel.cloud.labels is not None else None))
        if skel.bv_image is not None:
            bv = BVImage(arrays[skel.bv_image.image].copy(),
                         cell_size=skel.bv_image.cell_size,
                         lidar_range=skel.bv_image.lidar_range,
                         num_nonfinite=skel.bv_image.num_nonfinite)
        if skel.keypoints is not None:
            k = skel.keypoints
            kp = KeypointPayload(
                xy=arrays[k.xy].copy(), scores=arrays[k.scores].copy(),
                descriptors=arrays[k.descriptors].copy(),
                image_size=k.image_size, cell_size=k.cell_size,
                lidar_range=k.lidar_range, grid_size=k.grid_size,
                num_orientations=k.num_orientations)
        messages.append(TieredMessage(tier=Tier(skel.tier),
                                      boxes=list(skel.boxes),
                                      cloud=cloud, bv_image=bv,
                                      keypoints=kp))
    return messages, close


# ----------------------------------------------------------------------
# Generic object packing.  Pickle protocol 5 hands every contiguous
# array buffer to a callback instead of copying it into the stream; the
# buffers go into one arena block and the stream (a few hundred bytes
# per object) crosses the pipe.
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
    """Rebuild the objects with their arrays as views over the mapped
    block.

    Returns ``(objects, close)``; call ``close`` after dropping every
    reference into the objects (see :func:`attach_block`).
    """
    arrays, close = attach_block(shared.block)
    return pickle.loads(shared.skeleton, buffers=arrays), close
