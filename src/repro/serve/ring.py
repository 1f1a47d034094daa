"""Shared-memory frame rings: the sharded server's ingest transport."""

from __future__ import annotations

import time

import numpy as np

_RING_HEADER = 24  # head u64 | tail u64 | reserved u64
_SLOT_HEADER = 16  # stream u32 | pad u32 | seq u64


class FrameRing:
    """Single-producer single-consumer frame ring over
    :class:`multiprocessing.shared_memory.SharedMemory`.

    The sharded server's ingest path: the gateway writes frames
    directly into the shard's ring (one memcpy, no pickling), the
    shard process copies them out as it admits them into its
    in-process :class:`~repro.serve.StreamServer`. Each slot carries a
    ``(stream_id, seq)`` header so the consumer can route the frame
    and keep the gateway's submission sequence numbers aligned with
    its own.

    Synchronisation is deliberately lock-free *polling* on two
    monotonically increasing u64 cursors (``head`` written only by the
    producer, ``tail`` only by the consumer): a SIGKILLed peer can
    never leave a semaphore locked, which is exactly the failure the
    sharded tier's chaos tests exercise. Payload writes precede the
    cursor publish, which is sufficient ordering on the
    total-store-order hardware this repo targets (and far stronger
    than needed under CPython's per-op bytecode granularity).

    Frames are fixed ``shape``/``dtype``, declared at creation; both
    sides map per-slot NumPy views once and reuse them.
    """

    def __init__(self, shm, shape, dtype, capacity, *, owner):
        import struct

        self._struct = struct
        self._shm = shm
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.capacity = int(capacity)
        self._owner = owner
        self._frame_bytes = int(np.prod(self.shape)) * self.dtype.itemsize
        self._slot_bytes = _SLOT_HEADER + self._frame_bytes
        buf = shm.buf
        self._views = []
        for i in range(self.capacity):
            off = _RING_HEADER + i * self._slot_bytes + _SLOT_HEADER
            self._views.append(
                np.ndarray(self.shape, dtype=self.dtype, buffer=buf, offset=off)
            )

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(cls, shape, dtype, capacity) -> "FrameRing":
        """Allocate a fresh ring (call from the owning/parent process)."""
        from multiprocessing import shared_memory

        frame_bytes = int(np.prod(tuple(shape))) * np.dtype(dtype).itemsize
        size = _RING_HEADER + capacity * (_SLOT_HEADER + frame_bytes)
        shm = shared_memory.SharedMemory(create=True, size=size)
        shm.buf[:_RING_HEADER] = b"\x00" * _RING_HEADER
        return cls(shm, shape, dtype, capacity, owner=True)

    @classmethod
    def attach(cls, name, shape, dtype, capacity) -> "FrameRing":
        """Map an existing ring by name (call from the shard process)."""
        from multiprocessing import resource_tracker, shared_memory

        # Python <= 3.12 registers every attach with the resource
        # tracker, which unlinks the segment when *this* process exits
        # -- yanking it out from under the owner (and, under fork,
        # corrupting the owner's own registration in the shared
        # tracker). Suppress registration for the attach: the owner
        # alone tracks and unlinks.
        orig = resource_tracker.register

        def _no_track(name_, rtype):
            if rtype != "shared_memory":
                orig(name_, rtype)

        resource_tracker.register = _no_track
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = orig
        return cls(shm, shape, dtype, capacity, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        """Unmap (and, in the owner, unlink) the segment."""
        views, self._views = self._views, []
        del views
        try:
            self._shm.close()
        except Exception:
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except Exception:
                pass

    # -- cursors -----------------------------------------------------------

    def _load(self, offset: int) -> int:
        return self._struct.unpack_from("<Q", self._shm.buf, offset)[0]

    def _store(self, offset: int, value: int) -> None:
        self._struct.pack_into("<Q", self._shm.buf, offset, value)

    def __len__(self) -> int:
        return self._load(0) - self._load(8)

    # -- producer ----------------------------------------------------------

    def push(self, stream: int, seq: int, frame: np.ndarray,
             timeout_s: float = 0.0) -> bool:
        """Write one frame; returns False if the ring stayed full past
        ``timeout_s`` (backpressure -- the shard is behind)."""
        deadline = time.monotonic() + timeout_s
        head = self._load(0)
        wait = 0.0002
        while head - self._load(8) >= self.capacity:
            if timeout_s <= 0 or time.monotonic() >= deadline:
                return False
            # Exponential backoff: a full ring means the consumer is
            # compute-bound, and waking every 0.2 ms would steal CPU
            # slices from the very process we are waiting on.
            time.sleep(wait)
            wait = min(wait * 2, 0.002)
        idx = head % self.capacity
        self._views[idx][...] = frame
        self._struct.pack_into(
            "<IIQ", self._shm.buf,
            _RING_HEADER + idx * self._slot_bytes, stream, 0, seq,
        )
        self._store(0, head + 1)
        return True

    # -- consumer ----------------------------------------------------------

    def pop(self, timeout_s: float = 0.0):
        """Read one frame as ``(stream, seq, frame_copy)``, or None if
        the ring stayed empty past ``timeout_s``."""
        deadline = time.monotonic() + timeout_s
        tail = self._load(8)
        wait = 0.0002
        while self._load(0) <= tail:
            if timeout_s <= 0 or time.monotonic() >= deadline:
                return None
            time.sleep(wait)
            wait = min(wait * 2, 0.002)
        idx = tail % self.capacity
        stream, _, seq = self._struct.unpack_from(
            "<IIQ", self._shm.buf, _RING_HEADER + idx * self._slot_bytes
        )
        frame = self._views[idx].copy()
        self._store(8, tail + 1)
        return stream, seq, frame
