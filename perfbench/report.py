"""Metric definitions and the reductions from cells and spans to them."""

from __future__ import annotations

import math
import os
import platform
import statistics

from perfbench.trace import coverage, self_times, span_counts, total_times

#: name -> unit, for the untraced (``--trace 0``) run.
END_TO_END = {
    "setup_s": "s",
    "round_s_p50": "s",
    "train_samples_per_s": "samples/s",
    "attack_s": "s",
    "peak_rss_mib": "MiB",
    "client_accuracy": "fraction",
    "global_auc": "auc",
    "local_auc": "auc",
}

#: Top-level layers of the two model families (FCNN, small ResNet).
MODEL_LAYERS = tuple(
    [f"nn.layer{i}.{'Dense' if i % 2 == 0 else 'Tanh'}"
     for i in range(13)]
    + ["nn.layer0.Conv2d", "nn.layer1.ReLU", "nn.layer2.ResidualBlock",
       "nn.layer3.ResidualBlock", "nn.layer4.AvgPool2d",
       "nn.layer5.Flatten", "nn.layer6.Dense"])

#: name -> unit, for the traced (``--trace 1``) run.  A layer that does
#: not run in the parent process on a workload reports 0 there.
PER_LAYER = {
    "data.load_s": "s", "data.split_s": "s", "sim.init_s": "s",
    "executor.warm_up_s": "s",
    "nn.forward_s": "s", "nn.backward_s": "s", "nn.steps": "count",
    **{f"{layer}.{phase}_s": "s" for layer in MODEL_LAYERS
       for phase in ("forward", "backward")},
    "optim.step_s": "s", "optim.steps": "count",
    "client.train_round_self_s": "s",
    "defense.round_start_s": "s", "defense.receive_s": "s",
    "defense.send_s": "s", "defense.state_bytes": "bytes",
    "virtual.materialize_s": "s", "virtual.materializations": "count",
    "virtual.registry_put_s": "s", "virtual.registry_bytes": "bytes",
    "virtual.peak_live_models": "count",
    "executor.wait_s": "s", "executor.worker_train_s": "s",
    "executor.busy_share": "ratio",
    "ipc.pickled_bytes_per_round": "bytes",
    "ipc.shared_bytes_per_round": "bytes",
    "server.select_s": "s", "server.aggregate_self_s": "s",
    "aggregation.reduce_s": "s", "aggregation.dense_bytes": "bytes",
    "fleet.sampled": "count", "fleet.completed": "count",
    "fleet.dropped": "count", "fleet.straggled": "count",
    "fleet.useful_ratio": "ratio",
    "eval.global_s": "s", "eval.clients_s": "s",
    "attack.fit_s": "s", "attack.global_auc_s": "s",
    "attack.local_auc_s": "s",
    "trace.overhead": "ratio", "trace.coverage": "ratio",
}

#: Span names whose metric is the span's self time (children removed);
#: every other span metric is the inclusive total.
SELF_TIMED = {"client.train_round": "client.train_round_self_s",
              "server.aggregate": "server.aggregate_self_s",
              "executor.wait": "executor.wait_s"}


def summarize(values: list[float]) -> dict:
    """Median of the samples and how many there were."""
    if not values:
        return {"value": math.nan, "n": 0}
    return {"value": statistics.median(values), "n": len(values)}


def host_facts() -> dict:
    import numpy as np

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        pass
    return {
        "cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"),
                 "version": blas.get("version")},
        "blas_env": {var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS")},
    }


def end_to_end(cells, setup_samples: list[float],
               peak_rss_mib: float) -> dict:
    """The eight user-facing metrics, each as ``{value, n}``."""
    return {
        "setup_s": summarize(setup_samples),
        "round_s_p50": summarize([t for c in cells for t in c.round_s]),
        "train_samples_per_s": summarize(
            [c.train_samples / c.loop_s for c in cells if c.loop_s > 0]),
        "attack_s": summarize([t for c in cells for t in c.attack_s]),
        "peak_rss_mib": {"value": peak_rss_mib, "n": 1},
        "client_accuracy": summarize([c.client_accuracy for c in cells]),
        "global_auc": summarize([c.global_auc for c in cells]),
        "local_auc": summarize([c.local_auc for c in cells]),
    }


def per_layer(spans, cell, untraced_round_p50: float) -> dict:
    """Reduce one traced cell's spans and cost report to PER_LAYER.

    Spans recorded inside the round loop feed the round-loop layers
    (nn, optim, client, defense, virtual, executor, server, eval), so
    the attack's shadow-model training stays under ``attack.fit_s``.
    """
    loop = [s for s in spans if s.round >= 0]
    everywhere = total_times(spans)
    totals = total_times(loop)
    own = self_times(loop)
    counts = span_counts(loop)
    costs = cell.costs
    rounds = max(cell.rounds, 1)
    trained = counts.get("client.train_round", 0) or (
        costs.clients_completed + costs.clients_straggled)
    out = {name: 0.0 for name in PER_LAYER}
    for name in ("data.load", "data.split", "sim.init",
                 "executor.warm_up", "attack.fit", "attack.global_auc",
                 "attack.local_auc"):
        out[f"{name}_s"] = everywhere.get(name, 0.0)
    for name, seconds in totals.items():
        if f"{name}_s" in out:
            out[f"{name}_s"] = seconds
    for name, key in SELF_TIMED.items():
        out[key] = own.get(name, 0.0)
    out.update({
        "nn.steps": counts.get("nn.backward", 0),
        "optim.steps": counts.get("optim.step", 0),
        "defense.state_bytes": cell.defense_state_bytes,
        "virtual.materializations": costs.model_materializations,
        "virtual.registry_bytes": cell.registry_bytes,
        "virtual.peak_live_models": costs.peak_live_models,
        "executor.worker_train_s": costs.client_train_seconds,
        "executor.busy_share": costs.client_train_seconds
        / (cell.workers * cell.loop_s) if cell.loop_s > 0 else 0.0,
        "ipc.pickled_bytes_per_round": costs.ipc_bytes_pickled / rounds,
        "ipc.shared_bytes_per_round": costs.ipc_bytes_shared / rounds,
        "aggregation.reduce_s": costs.server_aggregate_seconds,
        "aggregation.dense_bytes": cell.dense_bytes,
        "fleet.sampled": costs.clients_sampled,
        "fleet.completed": costs.clients_completed,
        "fleet.dropped": costs.clients_dropped,
        "fleet.straggled": costs.clients_straggled,
        "fleet.useful_ratio": (costs.clients_completed
                               - costs.clients_filtered) / trained
        if trained else 0.0,
        "trace.overhead": statistics.median(cell.round_s)
        / untraced_round_p50 if untraced_round_p50 > 0 else 0.0,
        "trace.coverage": coverage(spans),
    })
    return out
