"""The benchmark workloads: canonical ``repro run`` cells.

Each workload is one (dataset, defense, attack, FL config) cell driven
through the public API exactly as ``repro.bench.harness.run_experiment``
drives it, so its accuracy and AUC figures are the ones
``python -m repro run`` prints for the same flags.  ``moves`` records,
before any optimisation is measured, which per-layer metric should move
which end-to-end metric on this workload.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


def parallel_workers() -> int:
    """One worker per core; the parallel executor needs at least 2."""
    return max(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    defense: str
    attack: str
    why: str
    #: (per-layer metric, end-to-end metric it should move).
    moves: tuple[tuple[str, str], ...]
    #: FLConfig fields set on top of ``default_config(dataset)``.
    overrides: dict = field(default_factory=dict)
    parallel: bool = False
    #: Workloads in one group are the same computation and must yield
    #: the same output digest at the same seed.
    digest_group: str = ""
    #: Wall time of one cell (set-up, 20 rounds, attack) on a 2-core
    #: x86-64 host; fixes how many cells a run of ``--seconds`` makes,
    #: so the work per run does not depend on timing noise.
    cell_seconds: float = 10.5
    #: Fewest cells per run, for a workload whose figures drift more
    #: from run to run than a ``--seconds`` run averages out.
    min_cells: int = 1

    def cells_for(self, seconds: float) -> int:
        return max(self.min_cells, round(seconds / self.cell_seconds))

    def config(self, seed: int, *, serial: bool = False):
        """The cell's FLConfig; ``serial`` drops the parallel executor
        (the reference the parallel cell's digest must equal)."""
        from dataclasses import replace

        from repro.bench.harness import default_config
        config = replace(default_config(self.dataset, seed=seed),
                         **self.overrides)
        if self.parallel and not serial:
            config = replace(config, workers=parallel_workers(),
                             ipc="shm")
        return config


_NN = (("nn.forward_s", "round_s_p50"),
       ("nn.backward_s", "train_samples_per_s"),
       ("nn.layer0.Dense.backward_s", "round_s_p50"),
       ("optim.step_s", "train_samples_per_s"),
       ("client.train_round_self_s", "round_s_p50"))

#: Runnable (``--workload p100_dinar_par``, ``--workload all``) but not
#: listed in BENCHMARK.json: with default BLAS threading, 2 workers on
#: 2 cores oversubscribe the cores and a run's round loop takes 30 s to
#: over 170 s (round_s_p50 1.45-1.91 s over 5 seeds, IQR 22% of the
#: median; train_samples_per_s IQR 44%), beyond any usable bound and
#: the 180 s run limit.  It returns once the executor budgets threads.
UNSTEADY = ("p100_dinar_par",)

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="p100_dinar", dataset="purchase100", defense="dinar",
        attack="yeom", digest_group="purchase100-dinar-default",
        why="Paper headline cell, serial: nn forward/backward + Adagrad "
            "step are ~90% of round time, aggregation ~1%, no IPC; "
            "nn.*, optim.step_s -> round_s_p50, train_samples_per_s",
        moves=_NN + (("data.load_s", "setup_s"),
                     ("sim.init_s", "setup_s"))),
    Workload(
        name="p100_dinar_par", dataset="purchase100", defense="dinar",
        attack="yeom", parallel=True, cell_seconds=45.0,
        digest_group="purchase100-dinar-default",
        why="Same cell at workers=cores over shm: executor wait, IPC and "
            "worker BLAS threads set the clock; executor.wait_s, "
            "busy_share -> round_s_p50, train_samples_per_s",
        moves=(("executor.wait_s", "round_s_p50"),
               ("executor.worker_train_s", "train_samples_per_s"),
               ("executor.busy_share", "train_samples_per_s"),
               ("ipc.pickled_bytes_per_round", "round_s_p50"),
               ("executor.warm_up_s", "setup_s"))),
    Workload(
        name="fleet_robust", dataset="purchase100", defense="dinar",
        attack="yeom", digest_group="fleet-robust", cell_seconds=11.5,
        # completion_threshold 0.7: with 50 sampled clients at
        # drop_rate 0.1 a round misses 0.8 (40 reports) with p~0.009,
        # i.e. ~17% of seeds would have a round that cannot close;
        # 35 reports fail with p~2e-5 per round.
        overrides=dict(num_clients=100, local_epochs=1,
                       sample_fraction=0.5, drop_rate=0.1,
                       completion_threshold=0.7,
                       aggregator="clustered",
                       distance_mask="obfuscated",
                       adversary="byzantine", adversary_fraction=0.2),
        why="100-client DINAR fleet, clustered+masked aggregation, 20% "
            "byzantine: robust fold, registry, defense hooks, per-client "
            "scoring -> round_s_p50, peak_rss_mib, attack_s",
        moves=(("server.aggregate_self_s", "round_s_p50"),
               ("aggregation.reduce_s", "round_s_p50"),
               ("aggregation.dense_bytes", "peak_rss_mib"),
               ("virtual.registry_put_s", "round_s_p50"),
               ("virtual.registry_bytes", "peak_rss_mib"),
               ("defense.send_s", "round_s_p50"),
               ("eval.clients_s", "round_s_p50"),
               ("fleet.useful_ratio", "train_samples_per_s"),
               ("attack.local_auc_s", "attack_s"))),
    Workload(
        name="cifar10_ldp_shadow", dataset="cifar10", defense="ldp",
        attack="shadow", digest_group="cifar10-ldp-shadow",
        # Small conv GEMMs make its round time swing 30-40% between
        # consecutive cells on a shared 2-core host, and its accuracy
        # varies with the seed: 3 cells per run left IQRs of 14-16% of
        # the median over 10 runs, so a run makes at least 6.
        cell_seconds=8.5, min_cells=6,
        overrides=dict(rounds=20, eval_every=20),
        why="cifar10 ResNet under LDP (DP-SGD) with shadow attack: conv/"
            "pool/residual layers and the workspace arena; nn.layer*.Conv2d"
            "/ResidualBlock -> round_s_p50, attack.fit_s -> attack_s",
        moves=(("nn.layer0.Conv2d.backward_s", "round_s_p50"),
               ("nn.layer2.ResidualBlock.forward_s", "round_s_p50"),
               ("optim.step_s", "train_samples_per_s"),
               ("attack.fit_s", "attack_s"))),
)}
