"""Round executors: the per-round client fan-out as a subsystem.

After the flat weight plane made aggregation cheap, per-round
wall-clock is dominated by the strictly sequential client-training
loop.  This module turns that loop into a pluggable
:class:`RoundExecutor`:

* :class:`SerialExecutor` — the reference implementation, one client
  after another in the parent process;
* :class:`ParallelExecutor` — fans the cohort out across a
  ``fork``-based process pool over the zero-copy shared-memory
  transport of :mod:`repro.fl.shm`: the round's global buffer and
  round-shared defense state are published once into mapped
  segments, each client's :class:`ClientTask` and
  :class:`ClientRoundResult` cross the pool pipe as O(descriptor)
  payloads, and the two result vectors come back through leased
  slabs.  Where segments cannot be created, :func:`make_executor`
  runs the clients serially instead and warns.

Determinism is the design constraint, not an afterthought: every
client's round RNG is derived via
``np.random.SeedSequence(seed, spawn_key=(round_index, client_id))``
(see :func:`round_rng`), so a client's random stream depends only on
``(seed, round, client)`` — never on which process runs it or in what
order — and serial and parallel executions are **bitwise identical**.

What crosses the process boundary is explicit and nothing else does:

* parent -> worker: the round index, the global weight-plane buffer
  and the defense's round-shared state (both once per round, through
  shared memory), and the client's own defense state
  (:meth:`Defense.export_round_state` /
  :meth:`Defense.export_client_state`);
* worker -> parent: the transmitted update buffer and the personalized
  weight buffer (through the client's result slab), wall-clock deltas
  for the cost meters, and the client's post-round defense state.

Worker processes are forked from the fully constructed simulation, so
datasets and model structure are inherited copy-on-write and are never
pickled.  The parent's personal-weights registry stays authoritative
for evaluation state, which the simulation writes back from the
returned results.

Virtual-client plane: executors resolve ``client_id -> FLClient``
through the simulation's :class:`~repro.fl.virtual.VirtualClientFleet`,
so each process (the parent for serial, every forked worker for
parallel) materializes clients on demand from its own bounded model
pool instead of indexing a fleet-sized list.  Each result carries the
executing process's pool accounting (``pool_live`` /
``pool_materializations``) back to the parent's cost meter.

Workspace arenas (:class:`repro.nn.workspace.Workspace`) are strictly
process-local: a forked worker inherits the parent model's arena
copy-on-write and re-warms its own buffers on first use, and no arena
ever rides in a :class:`ClientTask` or :class:`ClientRoundResult` —
``Workspace`` refuses to pickle, so any payload that serializes at all
is proven free of scratch state.
"""

from __future__ import annotations

import multiprocessing
import pickle
import warnings
from collections import deque
from collections.abc import Iterator, Sequence
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures import ProcessPoolExecutor as _PoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.fl.shm import (
    ShmChannel,
    _worker_resolve,
    _worker_write_slab,
    shm_available,
)
from repro.nn.store import Layout, WeightStore, as_store

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.fl.behavior import ClientBehavior
    from repro.fl.client import FLClient
    from repro.fl.config import FLConfig
    from repro.fl.costs import CostMeter
    from repro.fl.virtual import VirtualClientFleet
    from repro.privacy.defenses.base import Defense


def round_rng(seed: int, round_index: int,
              client_id: int) -> np.random.Generator:
    """The dedicated RNG stream of one ``(round, client)`` cell.

    Spawned from the run seed with ``spawn_key=(round_index,
    client_id)``, so the stream is a pure function of the experiment
    seed and the cell — independent of execution order, of which
    process runs the client, and of every other client's consumption.
    This is what makes serial and parallel runs bitwise identical.
    """
    sequence = np.random.SeedSequence(
        seed, spawn_key=(int(round_index), int(client_id)))
    return np.random.default_rng(sequence)


#: Spawn-key tag of the dropout stream.  round_rng uses 2-element
#: spawn keys, so any 3-element key is a disjoint stream; the tag
#: keeps future per-cell streams from colliding with this one.
_DROPOUT_KEY = 0xD20


def client_drops(seed: int, round_index: int, client_id: int,
                 drop_rate: float) -> bool:
    """Whether one ``(round, client)`` cell drops out of its round.

    The decision draws from a dedicated SeedSequence stream of the
    cell — not from ``round_rng`` — so enabling dropout never perturbs
    training draws, and the dropout pattern is a pure function of
    ``(seed, round, client, drop_rate)``: reproducible, independent of
    worker count and of every other client.
    """
    if drop_rate <= 0.0:
        return False
    sequence = np.random.SeedSequence(
        seed, spawn_key=(int(round_index), int(client_id), _DROPOUT_KEY))
    return float(np.random.default_rng(sequence).random()) < drop_rate


@dataclass
class ClientTask:
    """Everything one client needs to run one round, picklable."""

    round_index: int
    client_id: int
    #: The global model as the flat weight-plane vector.  ``None`` only
    #: in transit to a worker, where ``shm`` names the broadcast instead.
    global_buffer: np.ndarray | None
    #: This client's defense state (``Defense.export_client_state``).
    client_state: Any = None
    #: Round-shared defense state (``Defense.export_round_state``).
    #: ``None`` in transit to a worker, which reads it from ``shm``.
    round_state: Any = None
    #: Injected dropout: a dropped client never trains and never
    #: produces a result (see :func:`client_drops`).
    dropped: bool = False
    #: In transit: the round's broadcast descriptor
    #: (:class:`repro.fl.shm.ShmRound`); replaces ``global_buffer`` and
    #: ``round_state`` on the wire.
    shm: Any = None
    #: In transit: index of the result slab leased to this task.
    slab_index: int | None = None


@dataclass
class ClientRoundResult:
    """Everything one client's round produced, picklable."""

    client_id: int
    #: The transmitted (post-defense) update as a flat vector.
    #: ``None`` only in transit from a worker (the slab holds the row).
    update_buffer: np.ndarray | None
    #: The personalized (pre-defense) weights as a flat vector.
    #: ``None`` only in transit from a worker.
    personal_buffer: np.ndarray | None
    num_samples: int
    train_seconds: float
    defense_seconds: float
    #: This client's defense state after the round.
    client_state: Any
    #: ``Defense.state_bytes()`` as seen where the round ran.
    defense_state_bytes: int
    #: Virtual-client plane: model instances live in the executing
    #: process's pool, and its cumulative materializations (binds).
    pool_live: int = 0
    pool_materializations: int = 0
    #: In transit: which slab holds the result rows while the
    #: descriptor travels back; ``None`` once the parent folds it in.
    slab_index: int | None = None


def _stamp_pool_stats(result: ClientRoundResult,
                      fleet: "VirtualClientFleet") -> None:
    """Record the executing process's pool accounting on the result."""
    result.pool_live = fleet.live_models
    result.pool_materializations = fleet.materializations


def execute_client_task(client: "FLClient", defense: "Defense",
                        layout: Layout, task: ClientTask,
                        behavior: "ClientBehavior | None" = None
                        ) -> ClientRoundResult:
    """Run one client's round against explicit, shipped-in state.

    This is the single code path both executors share: import the
    defense state the client's hooks read, rebuild the global model
    from the flat buffer, train with the cell's spawned RNG, and
    export everything the parent needs.  Running it in-process
    (serial) or in a forked worker (parallel) is therefore the *same*
    computation, bit for bit.

    ``behavior`` is the run's adversarial-client behavior (see
    ``fl.behavior``); ``None`` means every client is honest.  Because
    behavior noise draws from its own per-``(round, client)`` stream,
    the bitwise serial/parallel guarantee holds under every behavior
    mix.
    """
    defense.import_round_state(task.round_state)
    defense.import_client_state(task.client_id, task.client_state)
    global_weights = WeightStore(layout, task.global_buffer)
    rng = round_rng(client.config.seed, task.round_index, task.client_id)
    update = client.train_round(global_weights, task.round_index, rng=rng,
                                behavior=behavior)
    return ClientRoundResult(
        client_id=task.client_id,
        update_buffer=as_store(update.weights, layout=layout).buffer,
        personal_buffer=client.personal_weights.buffer,
        num_samples=update.num_samples,
        train_seconds=update.train_seconds,
        defense_seconds=update.defense_seconds,
        client_state=defense.export_client_state(task.client_id),
        defense_state_bytes=defense.state_bytes(),
    )


class RoundExecutor:
    """Runs one FL round's cohort of client tasks.

    The primitive is :meth:`iter_round`: results stream back one at a
    time, **always in cohort (task) order**, with dropped tasks
    skipped.  Streaming in a fixed order is what lets the server fold
    updates into its constant-memory accumulator as they arrive while
    staying bitwise independent of the executor — and it makes round
    closing lazy: a consumer that stops iterating once its completion
    threshold is met never pays for the stragglers it will discard
    (the serial executor literally never trains them).
    """

    #: How many OS processes this executor trains clients on.
    workers: int = 1

    def iter_round(self, tasks: Sequence[ClientTask]
                   ) -> Iterator[ClientRoundResult]:
        """Yield each non-dropped task's result, in task order."""
        raise NotImplementedError

    def run_round(self, tasks: Sequence[ClientTask]
                  ) -> list[ClientRoundResult]:
        """Execute every task, returning results in task order."""
        return list(self.iter_round(tasks))

    def close(self) -> None:
        """Release any held resources (idempotent)."""

    def warm_up(self) -> None:
        """Pre-acquire resources (worker pools) ahead of the first round."""


class SerialExecutor(RoundExecutor):
    """The reference executor: clients run one after another."""

    def __init__(self, fleet: "VirtualClientFleet", defense: "Defense",
                 layout: Layout,
                 behavior: "ClientBehavior | None" = None) -> None:
        self.fleet = fleet
        self.defense = defense
        self.layout = layout
        self.behavior = behavior

    def iter_round(self, tasks: Sequence[ClientTask]
                   ) -> Iterator[ClientRoundResult]:
        for task in tasks:
            if task.dropped:
                continue
            result = execute_client_task(
                self.fleet.materialize(task.client_id),
                self.defense, self.layout, task, self.behavior)
            _stamp_pool_stats(result, self.fleet)
            yield result


# ----------------------------------------------------------------------
# process-parallel execution
# ----------------------------------------------------------------------

@dataclass
class _WorkerContext:
    """Per-process replica of the simulation's client-side objects.

    ``fleet`` is inherited via fork; each worker materializes from its
    *own* copy-on-write pool, so per-process live models stay bounded
    by the pool capacity.
    """

    fleet: Any
    defense: Any
    layout: Layout
    behavior: Any = None


#: Bound once per worker process by the pool initializer.
_WORKER_CONTEXT: _WorkerContext | None = None


def _bind_worker_context(context: _WorkerContext) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _run_in_worker(task: ClientTask) -> ClientRoundResult:
    """Worker entry point: one client's round over the shm transport.

    Resolves the broadcast descriptor into the shared read-only buffer
    and round state, runs the same :func:`execute_client_task` path as
    the serial executor, then moves the two result vectors into the
    leased slab so only a descriptor travels back.
    """
    context = _WORKER_CONTEXT
    if context is None:  # pragma: no cover - defensive
        raise RuntimeError("worker process has no bound context; "
                           "the pool initializer did not run")
    ref = task.shm
    try:
        buffer, round_state = _worker_resolve(ref)
    except Exception as exc:
        raise RuntimeError(
            f"client {task.client_id} could not map the round "
            f"{task.round_index} shared-memory broadcast: "
            f"{exc!r}") from exc
    try:
        result = execute_client_task(
            context.fleet.materialize(task.client_id), context.defense,
            context.layout,
            replace(task, global_buffer=buffer, round_state=round_state),
            context.behavior)
        _stamp_pool_stats(result, context.fleet)
    except Exception as exc:
        raise RuntimeError(
            f"client {task.client_id} failed in round "
            f"{task.round_index}: {exc!r}") from exc
    try:
        _worker_write_slab(ref, task.slab_index,
                           result.update_buffer, result.personal_buffer)
    except Exception as exc:
        raise RuntimeError(
            f"client {task.client_id} failed writing its round "
            f"{task.round_index} result slab: {exc!r}") from exc
    result.update_buffer = None
    result.personal_buffer = None
    result.slab_index = task.slab_index
    return result


class ParallelExecutor(RoundExecutor):
    """Fans client training out across a fork-based process pool.

    Workers fork from the fully constructed simulation (datasets and
    models are inherited, never pickled).  Each round's global buffer
    and round-shared defense state are published once into a
    :class:`~repro.fl.shm.ShmChannel`; tasks and results cross the
    pool pipe as descriptors while the two result vectors come back
    through leased slabs.  Results stream back strictly in cohort
    order, so aggregation consumes updates in exactly the serial
    order.  Submission is windowed by the slab ring: at most
    ``workers + 1`` tasks are in flight, which also caps how much
    result memory a round can pin.
    """

    def __init__(self, fleet: "VirtualClientFleet", defense: "Defense",
                 layout: Layout, workers: int,
                 behavior: "ClientBehavior | None" = None,
                 cost_meter: "CostMeter | None" = None) -> None:
        if workers < 2:
            raise ValueError(
                f"ParallelExecutor needs >= 2 workers, got {workers}; "
                "use SerialExecutor for single-process runs")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "ParallelExecutor requires the 'fork' start method "
                "(unavailable on this platform); run with workers=0")
        self.fleet = fleet
        self.defense = defense
        self.layout = layout
        self.workers = workers
        self.behavior = behavior
        self.cost_meter = cost_meter
        self._pool: _PoolExecutor | None = None
        self._channel = ShmChannel(slots=workers + 1)
        #: Abandoned stragglers still holding a leased slab:
        #: ``(future, slab_index)``; reaped lazily.
        self._stragglers: list[tuple[Any, int]] = []

    # -- lifecycle -----------------------------------------------------
    def _ensure_pool(self) -> _PoolExecutor:
        if self._pool is None:
            self._pool = _PoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_bind_worker_context,
                initargs=(_WorkerContext(self.fleet, self.defense,
                                         self.layout, self.behavior),),
            )
        return self._pool

    def warm_up(self) -> None:
        self._ensure_pool()
        if self.layout is not None:
            self._channel.open(self.layout.num_params,
                               self.layout.dtype)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        # The pool is gone (or going): pending stragglers were
        # cancelled or will die with their workers; unlinking now is
        # safe either way because mappings survive the unlink.
        self._stragglers = []
        self._channel.close()

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass

    # -- slab leasing with backpressure --------------------------------
    def _reap_stragglers(self, *, block: bool) -> None:
        """Recycle slabs of abandoned tasks whose futures finished.

        ``block=True`` waits for at least one straggler to finish —
        the backpressure path when the whole ring is leased out.
        Straggler outcomes (results and exceptions alike) are
        discarded: the round that owned them closed long ago.
        """
        if not self._stragglers:
            return
        if block:
            wait([future for future, _ in self._stragglers],
                 return_when=FIRST_COMPLETED)
        keep: list[tuple[Any, int]] = []
        for future, slab in self._stragglers:
            if future.done():
                try:
                    future.result()
                except Exception:
                    pass
                self._channel.recycle(slab)
            else:
                keep.append((future, slab))
        self._stragglers = keep

    def _acquire_slab(self) -> int | None:
        """Lease a slab, reaping stragglers; None when the current
        round itself holds every slab (its own completions will free
        one)."""
        self._reap_stragglers(block=False)
        slab = self._channel.lease()
        if slab is None and self._stragglers:
            self._reap_stragglers(block=True)
            slab = self._channel.lease()
        return slab

    # -- the round loop ------------------------------------------------
    def iter_round(self, tasks: Sequence[ClientTask]
                   ) -> Iterator[ClientRoundResult]:
        """Stream results in task order.

        The round's buffer + state are published once; stripped tasks
        (descriptor only) are submitted in task order as slabs free
        up, completions land in a reorder buffer, and each collected
        result has its slab copied out and recycled before it is
        yielded — so a consumer sees exactly the serial executor's
        stream.  A consumer that stops early (round closed at its
        completion threshold) triggers the ``finally`` below, which
        cancels every not-yet-started future; in-flight stragglers
        keep their slab until a later round reaps them.
        """
        pool = self._ensure_pool()
        live = [task for task in tasks if not task.dropped]
        if not live:
            return
        ref = self._channel.publish_round(live[0].global_buffer,
                                          live[0].round_state)
        stripped = [
            replace(task, global_buffer=None, round_state=None, shm=ref)
            for task in live
        ]
        shared_bytes = live[0].global_buffer.nbytes + ref.state_len
        pickled_bytes = 0
        task_probe: int | None = None
        result_probe: int | None = None
        pending = deque(enumerate(stripped))
        futures: dict[Any, int] = {}
        slab_of: dict[int, int] = {}
        buffered: dict[int, ClientRoundResult] = {}
        next_index = 0
        total = len(stripped)
        try:
            while next_index < total:
                while pending:
                    slab = self._acquire_slab()
                    if slab is None:
                        break
                    index, task = pending.popleft()
                    task = replace(task, slab_index=slab)
                    if task_probe is None:
                        task_probe = len(pickle.dumps(
                            task, protocol=pickle.HIGHEST_PROTOCOL))
                    pickled_bytes += task_probe
                    slab_of[index] = slab
                    futures[pool.submit(_run_in_worker, task)] = index
                done, _ = wait(list(futures),
                               return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool as exc:
                        self.close()
                        task = live[index]
                        raise RuntimeError(
                            f"a worker process died while training "
                            f"client {task.client_id} in round "
                            f"{task.round_index} (killed or crashed "
                            f"hard); the pool has been shut down and "
                            f"the round aborted") from exc
                    except Exception:
                        self._channel.recycle(slab_of.pop(index))
                        raise
                    if result_probe is None:
                        result_probe = len(pickle.dumps(
                            result, protocol=pickle.HIGHEST_PROTOCOL))
                    pickled_bytes += result_probe
                    update, personal = self._channel.read_slab(
                        slab_of[index])
                    self._channel.recycle(slab_of.pop(index))
                    shared_bytes += update.nbytes + personal.nbytes
                    result.update_buffer = update
                    result.personal_buffer = personal
                    result.slab_index = None
                    buffered[index] = result
                while next_index in buffered:
                    yield buffered.pop(next_index)
                    next_index += 1
        finally:
            for future, index in futures.items():
                slab = slab_of.pop(index)
                if not self._channel.is_open:
                    # The channel was torn down mid-round (worker
                    # crash path): every lease died with it, and
                    # registering stragglers against a future
                    # channel's fresh free list would double-recycle.
                    continue
                if future.cancel():
                    self._channel.recycle(slab)
                else:
                    self._stragglers.append((future, slab))
            if self.cost_meter is not None:
                self.cost_meter.record_ipc(pickled=pickled_bytes,
                                           shared=shared_bytes)


def make_executor(fleet: "VirtualClientFleet", defense: "Defense",
                  layout: Layout, config: "FLConfig",
                  behavior: "ClientBehavior | None" = None,
                  cost_meter: "CostMeter | None" = None
                  ) -> RoundExecutor:
    """Build the executor ``config.workers`` asks for.

    ``workers`` of 0 or 1 selects the serial reference; anything larger
    fans out across that many worker processes.  Where shared-memory
    segments cannot be created, the clients run on the serial executor
    instead — bitwise identical — and one ``RuntimeWarning`` says so.
    ``behavior`` is the run's adversarial-client behavior (``None`` =
    honest); ``cost_meter`` receives per-round IPC byte accounting
    when set.
    """
    if config.workers > 1:
        if shm_available():
            return ParallelExecutor(fleet, defense, layout,
                                    workers=config.workers,
                                    behavior=behavior,
                                    cost_meter=cost_meter)
        warnings.warn(
            f"shared memory unavailable; running {config.workers} "
            "workers' clients serially", RuntimeWarning, stacklevel=2)
    return SerialExecutor(fleet, defense, layout, behavior=behavior)
