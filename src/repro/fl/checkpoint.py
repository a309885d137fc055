"""Simulation checkpointing.

Long federated runs (the paper's Purchase100 uses 300 rounds) need to
survive interruption. A checkpoint captures the server's global model,
every client's personalized weights and DINAR's stored private layers;
restoring reproduces the simulation's observable state so training can
continue round-by-round.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.fl.simulation import FederatedSimulation
from repro.nn.serialize import load_store, save_weights


def save_checkpoint(simulation: FederatedSimulation,
                    directory: str | pathlib.Path) -> pathlib.Path:
    """Write the simulation's resumable state into a directory."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    global_weights = simulation.server.global_weights
    save_weights(global_weights, directory / "global.npz")
    meta = {
        "rounds_completed": len(simulation.history.records),
        "dtype": global_weights.layout.dtype.name,
        "clients": [],
    }
    # Personalized weights live in the flat registry, not on live
    # client objects — save straight from its rows (zero-copy views),
    # keeping the on-disk format of the eager plane.
    trained = set(simulation.registry.client_ids())
    for client_id in range(simulation.config.num_clients):
        entry = {"client_id": client_id,
                 "has_personal": client_id in trained}
        if client_id in trained:
            save_weights(simulation.registry.get(client_id),
                         directory / f"client{client_id}.npz")
        meta["clients"].append(entry)
    stored = getattr(simulation.defense, "_stored", None)
    if stored:
        for client_id, layers in stored.items():
            arrays = {
                f"layer{idx}/{key}": value
                for idx, layer in layers.items()
                for key, value in layer.items()
            }
            np.savez(directory / f"dinar{client_id}.npz", **arrays)
        meta["dinar_clients"] = sorted(stored)
    (directory / "meta.json").write_text(json.dumps(meta, indent=2))
    return directory


def load_checkpoint(simulation: FederatedSimulation,
                    directory: str | pathlib.Path) -> dict:
    """Restore a simulation's state from :func:`save_checkpoint`.

    The simulation must have been constructed with the same split,
    model factory and config. Returns the checkpoint metadata.
    """
    directory = pathlib.Path(directory)
    meta = json.loads((directory / "meta.json").read_text())
    expected = simulation.server.global_weights.layout.dtype
    saved = meta.get("dtype")
    if saved is not None and np.dtype(saved) != expected:
        raise ValueError(
            f"checkpoint was written at dtype {saved} but the "
            f"simulation computes in {expected.name}; rebuild the "
            f"simulation with a matching FLConfig.dtype")
    simulation.server.global_weights = load_store(
        directory / "global.npz")
    for entry in meta["clients"]:
        if entry["has_personal"]:
            store = load_store(
                directory / f"client{entry['client_id']}.npz")
            simulation.registry.put(int(entry["client_id"]),
                                    store.buffer)
    for client_id in meta.get("dinar_clients", []):
        path = directory / f"dinar{client_id}.npz"
        layers: dict[int, dict[str, np.ndarray]] = {}
        with np.load(path) as archive:
            for name in archive.files:
                prefix, key = name.split("/", 1)
                idx = int(prefix.removeprefix("layer"))
                layers.setdefault(idx, {})[key] = archive[name]
        simulation.defense.import_client_state(int(client_id), layers)
    return meta
