"""Zero-copy shared-memory transport of the parallel executor.

A process-pool pipe that carried the weight vectors themselves would
push ``~3 * C * num_params`` values per ``C``-client round: one global
buffer down and two result vectors up per client.  That is pure
dispatch overhead, since the weight plane is already one
process-invariant contiguous buffer.  This module holds the segment
plumbing that cuts per-client IPC from ``O(num_params)`` to
``O(descriptor)``; :class:`repro.fl.executor.ParallelExecutor` drives
it.

**Down-link (broadcast segment).**  One ``multiprocessing.
shared_memory`` segment per executor holds the round's global buffer.
The parent writes it once per round and bumps a generation counter;
tasks carry only a tiny :class:`ShmRound` descriptor ``(segment
names, generation, geometry)``.  Workers map the segment and wrap it
in a *read-only* zero-copy view — safe because the serial executor
already hands every task of a round the very same buffer object, so
nothing in the round path mutates the received global in place
(DINAR copies before personalizing, ``set_weights`` copies in).  The
round-shared defense state is pickled **once** per round into a
second segment; each worker unpickles it once per generation (not
once per task) and caches it.

**Up-link (result slab ring).**  A ring of ``workers + 1``
preallocated slabs — two rows of ``num_params`` each — receives every
client's update and personalized vectors directly from the worker;
the descriptor result that travels back through the pipe names only
the leased slab.  The parent copies the two rows out (parent-owned
arrays, so downstream consumers keep their lifetime guarantees) and
recycles the slab.

**Lifecycle.**  ``close()`` is idempotent and unlinks every segment;
an ``atexit`` hook covers channels that are never closed explicitly.
Workers attach segments *without* registering them with the
``resource_tracker`` — on Python < 3.13 an attach re-registers the
name, and a worker that later exits (or crashes) would have the
tracker unlink segments the parent still owns (the classic
double-unlink).  Generation overwrite is safe: the parent only
publishes round ``g+1`` after round ``g`` closed, and the only tasks
still reading by then are stragglers whose results are discarded.

The transport is **bitwise invisible**: the mapped view holds the
identical float64/float32 values, the round state round-trips through
``pickle`` bitwise, and every per-cell RNG stream is untouched —
serial and parallel runs are trajectory-identical (pinned by the
golden fixtures and hypothesis-tested across worker counts, defenses
and pool capacities).
"""

from __future__ import annotations

import atexit
import pickle
from collections import deque
from dataclasses import dataclass
from typing import Any

import numpy as np

try:  # platforms without POSIX/System V shared memory lack the module
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - exotic platforms
    _shm = None


_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Lazily probed result of :func:`shm_available`.
_AVAILABLE: bool | None = None


def shm_available() -> bool:
    """Whether shared-memory segments can actually be created here.

    Probed once per process by creating and unlinking a 1-byte
    segment; containers that mount no ``/dev/shm`` (or deny shm_open)
    make the executor run clients serially instead.
    """
    global _AVAILABLE
    if _AVAILABLE is None:
        if _shm is None:
            _AVAILABLE = False
        else:
            try:
                probe = _shm.SharedMemory(create=True, size=1)
                probe.close()
                probe.unlink()
                _AVAILABLE = True
            except Exception:
                _AVAILABLE = False
    return _AVAILABLE


def _attach(name: str) -> Any:
    """Attach an existing segment without resource-tracker tracking.

    Python 3.13+ exposes ``track=False``; earlier versions register
    every attach with the resource tracker, so a worker exit would
    have the tracker unlink (or warn about) segments the parent still
    owns.  The fallback briefly no-ops ``register`` around the attach
    — workers are single-threaded, and only workers call this.
    """
    try:
        return _shm.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return _shm.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


@dataclass(frozen=True)
class ShmRound:
    """O(descriptor) handle to one round's shared-memory broadcast.

    This — not the weight vectors — is what a
    :class:`~repro.fl.executor.ClientTask` carries through the pool
    pipe.
    """

    #: Segment holding the round's global flat buffer.
    weights_name: str
    #: Segment holding the result slab ring.
    slabs_name: str
    #: Segment holding the round state's pickle bytes (None = no state).
    state_name: str | None
    #: Length of the round state's pickle payload inside ``state_name``.
    state_len: int
    #: Monotonic per-channel round counter; workers key their
    #: unpickled-round-state cache on it.
    generation: int
    num_params: int
    dtype: str
    #: Slab count of the ring (ring geometry, for the worker's view).
    slots: int


class ShmChannel:
    """Parent-side owner of one executor's shared-memory segments.

    Three segments, all created lazily on first use and owned (and
    unlinked) exclusively by the parent:

    * ``weights`` — ``num_params`` values; rewritten every round;
    * ``state``   — the round state's pickle bytes; recreated at a
      doubled capacity (new name) when a round's state outgrows it;
    * ``slabs``   — ``slots`` result slabs of 2 rows x ``num_params``.

    Slab leases are plain parent-side bookkeeping: ``lease`` pops a
    free index (or reports exhaustion with ``None``), ``recycle``
    returns one.  ``read_slab`` copies both rows out so the slab can
    be recycled immediately.
    """

    def __init__(self, slots: int) -> None:
        if slots < 1:
            raise ValueError(f"slab ring needs >= 1 slot, got {slots}")
        self.slots = slots
        self._weights: Any = None
        self._slabs: Any = None
        self._state: Any = None
        self._state_capacity = 0
        self._generation = 0
        self._num_params: int | None = None
        self._dtype: np.dtype | None = None
        self._free: deque[int] = deque()
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def open(self, num_params: int, dtype: np.dtype) -> None:
        """Create the weights + slab segments (idempotent)."""
        if self._weights is not None:
            if num_params != self._num_params \
                    or np.dtype(dtype) != self._dtype:
                raise ValueError(
                    f"channel already open for {self._num_params} "
                    f"params ({self._dtype}), asked to reopen for "
                    f"{num_params} ({np.dtype(dtype)})")
            return
        if _shm is None:  # pragma: no cover - guarded by shm_available
            raise RuntimeError("shared memory is unavailable here")
        self._num_params = int(num_params)
        self._dtype = np.dtype(dtype)
        itemsize = self._dtype.itemsize
        self._weights = _shm.SharedMemory(
            create=True, size=max(1, self._num_params * itemsize))
        self._slabs = _shm.SharedMemory(
            create=True,
            size=max(1, self.slots * 2 * self._num_params * itemsize))
        self._free = deque(range(self.slots))
        self._closed = False
        # Cover executors that are never closed explicitly; close()
        # unregisters, so a clean close leaves no hook behind.
        atexit.register(self.close)

    def close(self) -> None:
        """Unlink every segment (idempotent, crash-tolerant)."""
        if self._closed:
            return
        self._closed = True
        for segment in (self._weights, self._slabs, self._state):
            if segment is None:
                continue
            for release in (segment.close, segment.unlink):
                try:
                    release()
                except FileNotFoundError:
                    # Already unlinked (resource tracker raced us, or
                    # a second close path); the goal state is reached.
                    pass
                except Exception:  # pragma: no cover - best effort
                    pass
        self._weights = self._slabs = self._state = None
        self._state_capacity = 0
        self._free = deque()
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    @property
    def is_open(self) -> bool:
        return self._weights is not None

    def segment_names(self) -> tuple[str, ...]:
        """Names of the currently live segments (tests, leak checks)."""
        return tuple(
            segment.name
            for segment in (self._weights, self._slabs, self._state)
            if segment is not None)

    # ------------------------------------------------------------------
    # down-link: per-round broadcast
    # ------------------------------------------------------------------
    def publish_round(self, buffer: np.ndarray,
                      round_state: Any) -> ShmRound:
        """Write one round's global buffer + round state, bump the
        generation, and return the descriptor tasks will carry."""
        buffer = np.ascontiguousarray(buffer)
        self.open(buffer.size, buffer.dtype)
        self._generation += 1
        view = np.ndarray((self._num_params,), dtype=self._dtype,
                          buffer=self._weights.buf)
        view[:] = buffer
        del view  # drop the buffer export so close() stays legal
        state_name: str | None = None
        state_len = 0
        if round_state is not None:
            payload = pickle.dumps(round_state,
                                   protocol=_PICKLE_PROTOCOL)
            self._ensure_state_capacity(len(payload))
            self._state.buf[:len(payload)] = payload
            state_name = self._state.name
            state_len = len(payload)
        return ShmRound(
            weights_name=self._weights.name,
            slabs_name=self._slabs.name,
            state_name=state_name,
            state_len=state_len,
            generation=self._generation,
            num_params=self._num_params,
            dtype=self._dtype.name,
            slots=self.slots,
        )

    def _ensure_state_capacity(self, needed: int) -> None:
        """Grow the round-state segment by recreation (fresh name).

        Segments cannot resize in place; the old one is unlinked and a
        doubled replacement created.  Stragglers still mapping the old
        segment keep a valid mapping until their process drops it —
        unlink only removes the name.
        """
        if self._state is not None and needed <= self._state_capacity:
            return
        if self._state is not None:
            try:
                self._state.close()
                self._state.unlink()
            except FileNotFoundError:  # pragma: no cover - raced
                pass
        capacity = 1024
        while capacity < needed:
            capacity *= 2
        self._state = _shm.SharedMemory(create=True, size=capacity)
        self._state_capacity = capacity

    # ------------------------------------------------------------------
    # up-link: the result slab ring
    # ------------------------------------------------------------------
    def lease(self) -> int | None:
        """Pop a free slab index, or None when the ring is exhausted."""
        if not self._free:
            return None
        return self._free.popleft()

    def recycle(self, index: int) -> None:
        """Return a slab to the free list."""
        if not 0 <= index < self.slots:
            raise ValueError(f"slab index {index} out of range "
                             f"[0, {self.slots})")
        if index in self._free:
            raise ValueError(f"slab {index} recycled twice")
        self._free.append(index)

    @property
    def free_slabs(self) -> int:
        """How many slabs are currently leasable (tests)."""
        return len(self._free)

    def read_slab(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Copy one slab's ``(update, personal)`` rows out.

        The copies are parent-owned, so the slab can be recycled the
        moment this returns while the result's consumers (streaming
        accumulator, personal-weights registry, ``last_updates``) keep
        arrays with ordinary lifetimes.
        """
        if self._slabs is None:
            raise RuntimeError("channel is not open")
        if not 0 <= index < self.slots:
            raise ValueError(f"slab index {index} out of range "
                             f"[0, {self.slots})")
        itemsize = self._dtype.itemsize
        offset = index * 2 * self._num_params * itemsize
        rows = np.ndarray((2, self._num_params), dtype=self._dtype,
                          buffer=self._slabs.buf, offset=offset)
        update = rows[0].copy()
        personal = rows[1].copy()
        del rows
        return update, personal


# ----------------------------------------------------------------------
# worker-side attachment cache
# ----------------------------------------------------------------------

#: name -> attached SharedMemory, for the per-executor-constant
#: weights/slab segments (one pool serves exactly one executor, so the
#: cache never grows past a handful of names).
_WORKER_SEGMENTS: dict[str, Any] = {}

#: Single-slot cache of the current round's unpickled state:
#: (weights_name, generation) -> state.  One unpickle per worker per
#: round instead of one per task.
_WORKER_ROUND_STATE: tuple[tuple[str, int], Any] | None = None

#: Single-slot attachment for the (recreatable) state segment.
_WORKER_STATE_SEGMENT: tuple[str, Any] | None = None


def _worker_segment(name: str) -> Any:
    segment = _WORKER_SEGMENTS.get(name)
    if segment is None:
        segment = _attach(name)
        _WORKER_SEGMENTS[name] = segment
    return segment


def _worker_state_bytes(name: str, length: int) -> bytes:
    """Read the round state's pickle payload from its segment."""
    global _WORKER_STATE_SEGMENT
    if _WORKER_STATE_SEGMENT is None \
            or _WORKER_STATE_SEGMENT[0] != name:
        if _WORKER_STATE_SEGMENT is not None:
            try:  # the old segment was outgrown and unlinked
                _WORKER_STATE_SEGMENT[1].close()
            except Exception:  # pragma: no cover - best effort
                pass
        _WORKER_STATE_SEGMENT = (name, _attach(name))
    return bytes(_WORKER_STATE_SEGMENT[1].buf[:length])


def _worker_resolve(ref: ShmRound) -> tuple[np.ndarray, Any]:
    """Map one round's broadcast: the read-only global buffer view
    plus the (cached) unpickled round state."""
    global _WORKER_ROUND_STATE
    segment = _worker_segment(ref.weights_name)
    buffer = np.ndarray((ref.num_params,), dtype=np.dtype(ref.dtype),
                        buffer=segment.buf)
    buffer.flags.writeable = False
    if ref.state_name is None:
        return buffer, None
    key = (ref.weights_name, ref.generation)
    if _WORKER_ROUND_STATE is not None \
            and _WORKER_ROUND_STATE[0] == key:
        return buffer, _WORKER_ROUND_STATE[1]
    state = pickle.loads(_worker_state_bytes(ref.state_name,
                                             ref.state_len))
    _WORKER_ROUND_STATE = (key, state)
    return buffer, state


def _worker_write_slab(ref: ShmRound, index: int, update: np.ndarray,
                       personal: np.ndarray) -> None:
    """Write one result's two rows into its leased slab."""
    segment = _worker_segment(ref.slabs_name)
    dtype = np.dtype(ref.dtype)
    offset = index * 2 * ref.num_params * dtype.itemsize
    rows = np.ndarray((2, ref.num_params), dtype=dtype,
                      buffer=segment.buf, offset=offset)
    rows[0] = update
    rows[1] = personal
    del rows
