"""One evaluation cell: set-up, the round loop, the attack, the checks.

The steps mirror ``repro.bench.harness.run_experiment`` call for call
(same seeds, same RNG streams), split so that each phase is timed on
its own.  Two light wrappers are always installed, traced or not: the
server's ``select_clients`` (one call per round, records the cohort so
a failed round's client-rounds can be counted) and ``aggregate``
(counts the updates actually folded, for ``train_samples_per_s``).
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench.trace import NullTracer
from perfbench.workloads import Workload

#: As in ``run_experiment``.
MAX_ATTACK_SAMPLES = 400
MAX_ATTACK_REPS = 10


@dataclass
class CellResult:
    seed: int = 0
    setup_s: float = 0.0
    round_s: list[float] = field(default_factory=list)
    loop_s: float = 0.0
    train_samples: int = 0
    attack_s: list[float] = field(default_factory=list)
    client_accuracy: float = math.nan
    global_auc: float = math.nan
    local_auc: float = math.nan
    digest: str = ""
    #: Client-rounds attempted: sampled minus simulated dropouts.
    attempted: int = 0
    workers: int = 1
    rounds: int = 0
    costs: object = None
    #: Per-round maximum of the server's dense update matrix bytes.
    dense_bytes: int = 0
    registry_bytes: int = 0
    defense_state_bytes: int = 0
    error: str = ""


def output_digest(global_buffer: np.ndarray, registry) -> str:
    """SHA-256 over the final global buffer and every registry row
    (ascending client id, each prefixed by the id)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(global_buffer).tobytes())
    for client_id in registry.client_ids():
        h.update(np.int64(client_id).tobytes())
        h.update(np.ascontiguousarray(
            registry.get(client_id).buffer).tobytes())
    return h.hexdigest()


def _setup(workload: Workload, seed: int, config, tracer):
    from repro.bench.harness import DINAR_LR, make_model_factory
    from repro.data import load_dataset, split_for_membership
    from repro.fl import FederatedSimulation
    from repro.privacy.defenses.make import make_defense_for_config

    with tracer.span("setup"):
        with tracer.span("data.load"):
            dataset = load_dataset(workload.dataset, seed,
                                   dtype=config.dtype)
        with tracer.span("data.split"):
            split = split_for_membership(
                dataset, np.random.default_rng((seed, 17)))
        with tracer.span("sim.init"):
            kwargs = {}
            if workload.defense == "dinar" and workload.dataset in DINAR_LR:
                kwargs["lr"] = DINAR_LR[workload.dataset]
            defense = make_defense_for_config(workload.defense, config,
                                              **kwargs)
            sim = FederatedSimulation(
                split, make_model_factory(workload.dataset,
                                          dtype=config.dtype),
                config, defense)
        with tracer.span("executor.warm_up"):
            sim.executor.warm_up()
    return sim, split


def _close(sim) -> None:
    """Close the executor and reap its workers, so ``getrusage``'s
    children figure includes them."""
    workers = multiprocessing.active_children()
    sim.executor.close()
    for process in workers:
        process.join(timeout=60)


def timed_setup(workload: Workload, seed: int) -> float:
    """One untraced set-up, closed again; returns its wall time."""
    config = workload.config(seed)
    start = time.perf_counter()
    sim, _ = _setup(workload, seed, config, NullTracer())
    elapsed = time.perf_counter() - start
    _close(sim)
    return elapsed


def run_cell(workload: Workload, seed: int, *, tracer=None,
             serial: bool = False, on_setup=None,
             attack_seconds: float = 0.0) -> CellResult:
    """Run one cell; never raises for a failure of the program — the
    exception text lands in ``CellResult.error``."""
    from repro.bench.harness import build_attack
    from repro.fl.executor import client_drops
    from repro.privacy.attacks import global_model_auc, local_models_auc

    tracer = tracer or NullTracer()
    config = workload.config(seed, serial=serial)
    result = CellResult(seed=seed, workers=max(1, config.workers))
    start = time.perf_counter()
    try:
        sim, split = _setup(workload, seed, config, tracer)
    except Exception as exc:  # boundary: report, keep benchmarking
        result.error = f"setup: {exc!r}"
        return result
    result.setup_s = time.perf_counter() - start
    if on_setup is not None:
        on_setup(sim)

    cohort: list[int] = []
    select = sim.server.select_clients

    def recording_select(round_index):
        chosen = select(round_index)
        cohort[:] = chosen
        return chosen

    aggregate = sim.server.aggregate

    def counting_aggregate(updates, **kwargs):
        def counted():
            for update in updates:
                result.train_samples += (config.local_epochs
                                         * update.num_samples)
                yield update
        return aggregate(counted(), **kwargs)

    sim.server.select_clients = recording_select
    sim.server.aggregate = counting_aggregate

    report = sim.cost_meter.report
    round_index = -1
    try:
        loop_start = time.perf_counter()
        try:
            for round_index in range(config.rounds):
                cohort.clear()
                tracer.round = round_index
                before = report.clients_sampled - report.clients_dropped
                t0 = time.perf_counter()
                with tracer.span("round"):
                    sim.run_round(round_index)
                result.round_s.append(time.perf_counter() - t0)
                tracer.round = -1
                result.attempted += (report.clients_sampled
                                     - report.clients_dropped - before)
                batch = getattr(sim.server, "_batch", None)
                if batch is not None:
                    result.dense_bytes = max(result.dense_bytes,
                                             batch.nbytes)
            result.loop_s = time.perf_counter() - loop_start
        finally:
            tracer.round = -1
            _close(sim)
        result.rounds = len(result.round_s)
        result.costs = report
        result.registry_bytes = sim.registry.nbytes
        result.defense_state_bytes = sim.defense.state_bytes()

        # The attack is deterministic: repeat it for more timing samples
        # (its AUCs must repeat exactly), as long as attack_seconds lasts.
        while True:
            t0 = time.perf_counter()
            with tracer.span("attack"):
                with tracer.span("attack.fit"):
                    attack = build_attack(
                        workload.attack, workload.dataset, split,
                        seed=seed, dtype=config.dtype)
                eval_rng = np.random.default_rng((seed, 23))
                with tracer.span("attack.global_auc"):
                    global_auc = global_model_auc(
                        attack, sim, max_samples=MAX_ATTACK_SAMPLES,
                        rng=eval_rng)
                with tracer.span("attack.local_auc"):
                    local_auc = local_models_auc(
                        attack, sim, max_samples=MAX_ATTACK_SAMPLES,
                        rng=eval_rng)
            result.attack_s.append(time.perf_counter() - t0)
            if result.attack_s[1:] and (global_auc, local_auc) != (
                    result.global_auc, result.local_auc):
                raise RuntimeError(
                    f"attack AUCs changed on repetition: "
                    f"{(result.global_auc, result.local_auc)} -> "
                    f"{(global_auc, local_auc)}")
            result.global_auc, result.local_auc = global_auc, local_auc
            if (sum(result.attack_s) >= attack_seconds
                    or len(result.attack_s) >= MAX_ATTACK_REPS):
                break
        result.client_accuracy = sim.history.final_client_accuracy
        result.digest = output_digest(sim.server.global_weights.buffer,
                                      sim.registry)
    except Exception as exc:  # boundary: report, keep benchmarking
        where = (f"round {round_index}" if len(result.round_s)
                 < config.rounds else "attack")
        result.error = f"{where}: {exc!r}"
        if len(result.round_s) < config.rounds and cohort:
            # the failing round's client-rounds were attempted too
            result.attempted += sum(
                not client_drops(config.seed, round_index, cid,
                                 config.drop_rate) for cid in cohort)
    return result
