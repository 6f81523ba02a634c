"""Size-classed buffer pooling for the allocation-free hot path.

The steady-state send/recv path should not allocate per message: encode
writes into a pooled ``bytearray`` (:meth:`IOContext.encode_into
<repro.pbio.context.IOContext.encode_into>`), the transports receive
into a reusable buffer, and views are handed out instead of copies.
:class:`BufferPool` supplies those buffers.

Buffers are grouped into power-of-two size classes: ``acquire(n)``
returns a ``bytearray`` of the smallest class that holds ``n`` bytes
(its length may exceed ``n`` — callers slice a ``memoryview``), and
``release`` parks it for reuse.  Requests above the largest class are
allocated fresh and never pooled, so a single giant frame cannot pin
megabytes of idle memory.

Thread safety: one lock guards the free lists; ``acquire``/``release``
are safe from any thread.  Hit/miss counts are kept as plain integers
(the hot path never touches the metrics registry) and mirrored into
``repro.obs`` counters (``bufpool_events_total{event=hit|miss}``) when
the default registry is enabled.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import get_registry

#: Smallest pooled buffer (requests below this round up to it).
MIN_CLASS = 256

#: Largest pooled buffer; bigger requests are allocated, never pooled.
MAX_CLASS = 1 << 20

#: Default cap on parked buffers per size class.
DEFAULT_MAX_PER_CLASS = 8

# Memo of the bound counter handles for the current default registry;
# swapped registries (tests) re-resolve on first use.
_obs_memo = [None]


def _obs():
    """(hit_inc, miss_inc) bound methods, or None if metrics disabled."""
    registry = get_registry()
    if not registry.enabled:
        return None
    cached = _obs_memo[0]
    if cached is None or cached[0] is not registry:
        family = registry.counter(
            "bufpool_events_total", "buffer pool acquires by outcome", ("event",)
        )
        cached = (registry, (family.labels("hit").inc, family.labels("miss").inc))
        _obs_memo[0] = cached
    return cached[1]


def _class_for(size: int) -> int:
    """The smallest power-of-two class holding ``size`` bytes."""
    cls = MIN_CLASS
    while cls < size:
        cls <<= 1
    return cls


class BufferPool:
    """A thread-safe, size-classed pool of reusable ``bytearray`` buffers."""

    def __init__(self, *, max_per_class: int = DEFAULT_MAX_PER_CLASS) -> None:
        self._lock = threading.Lock()
        self._free: dict[int, list[bytearray]] = {}
        self.max_per_class = max_per_class
        self.hits = 0
        self.misses = 0
        self.releases = 0

    def acquire(self, size: int) -> bytearray:
        """Return a ``bytearray`` of at least ``size`` bytes.

        The buffer's length is its size class (>= ``size``); callers that
        need exact framing slice a ``memoryview``.  Contents are
        whatever the previous user left — callers overwrite.
        """
        if size > MAX_CLASS:
            # Never pooled: count as a miss but do not track the buffer.
            self.misses += 1
            handles = _obs()
            if handles is not None:
                handles[1]()
            return bytearray(size)
        cls = _class_for(size)
        with self._lock:
            free = self._free.get(cls)
            buffer = free.pop() if free else None
        handles = _obs()
        if buffer is not None:
            self.hits += 1
            if handles is not None:
                handles[0]()
            return buffer
        self.misses += 1
        if handles is not None:
            handles[1]()
        return bytearray(cls)

    def release(self, buffer: bytearray) -> None:
        """Park ``buffer`` for reuse.

        Only exact size-class buffers are pooled (anything else —
        including oversize allocations from :meth:`acquire` — is left
        for the garbage collector).  Callers must not hold views into a
        released buffer: the next acquirer will overwrite it.
        """
        size = len(buffer)
        if size < MIN_CLASS or size > MAX_CLASS or size & (size - 1):
            return
        self.releases += 1
        with self._lock:
            free = self._free.setdefault(size, [])
            if len(free) < self.max_per_class:
                free.append(buffer)

    @property
    def hit_rate(self) -> float:
        """Fraction of acquires served from the pool (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Point-in-time counters (hits, misses, releases, pooled bytes)."""
        with self._lock:
            pooled_bytes = sum(
                cls * len(buffers) for cls, buffers in self._free.items()
            )
            pooled_buffers = sum(len(buffers) for buffers in self._free.values())
        return {
            "hits": self.hits,
            "misses": self.misses,
            "releases": self.releases,
            "hit_rate": self.hit_rate,
            "pooled_buffers": pooled_buffers,
            "pooled_bytes": pooled_bytes,
        }


#: The process-wide default pool used by the transports.
_default_pool = BufferPool()


def get_pool() -> BufferPool:
    """The process-wide default :class:`BufferPool`."""
    return _default_pool


def set_pool(pool: BufferPool) -> BufferPool:
    """Swap the default pool (tests); returns the new pool."""
    global _default_pool
    _default_pool = pool
    return pool
