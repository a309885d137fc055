"""A client round writes each model-sized buffer once, into its final
home, so nothing a round hands out may alias the pooled model.

The client personalizes the live weight store in place, copies it into
its registry row and passes it to the behavior and defense hooks, and
copies the transmitted update only when it shares the model's memory.
With a pool of one model every task rebinds and retrains that model,
so any result that still viewed it would change under the next client.
These tests pin, for every defense x {honest, byzantine, free_rider},
that the update in ``last_updates``, the registry row and the dense
``UpdateBatch`` row all keep the bytes they had when the update
arrived at the server.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.partition import split_for_membership
from repro.data.synthetic import synthetic_tabular
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.models.fcnn import build_fcnn
from repro.nn.store import as_store
from repro.privacy.defenses import DEFENSE_CHOICES
from repro.privacy.defenses.make import make_defense_for_config

BEHAVIORS = ("none", "byzantine", "free_rider")


def _split():
    rng = np.random.default_rng(3)
    data = synthetic_tabular(rng, 300, 20, 4, noise=0.3, name="alias")
    return split_for_membership(data, np.random.default_rng(1))


def _factory(rng):
    return build_fcnn(20, 4, rng, hidden=(12,))


def _simulation(defense_name: str, behavior: str) -> FederatedSimulation:
    # Secure aggregation's masks only cancel in the streaming FedAvg
    # sum; every other defense goes through the dense UpdateBatch.
    aggregator = "fedavg" if defense_name == "sa" else "coordinate_median"
    config = FLConfig(
        num_clients=4, rounds=2, local_epochs=1, batch_size=32, seed=0,
        eval_every=2, max_materialized=1, aggregator=aggregator,
        adversary=behavior,
        adversary_fraction=0.5 if behavior != "none" else 0.0)
    defense = make_defense_for_config(defense_name, config)
    return FederatedSimulation(_split(), _factory, config, defense)


@pytest.mark.parametrize("behavior", BEHAVIORS)
@pytest.mark.parametrize("defense_name", DEFENSE_CHOICES)
def test_rebinding_the_pooled_model_leaves_round_results_intact(
        defense_name, behavior):
    sim = _simulation(defense_name, behavior)
    if behavior != "none":
        assert sim.behavior.adversaries, "no adversary was selected"
    arrived: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    aggregate = sim.server.aggregate

    def recording_aggregate(updates, **kwargs):
        def tap():
            for update in updates:
                arrived[update.client_id] = (
                    as_store(update.weights).buffer.copy(),
                    sim.registry.get(update.client_id).buffer.copy())
                yield update
        return aggregate(tap(), **kwargs)

    sim.server.aggregate = recording_aggregate
    for round_index in range(sim.config.rounds):
        arrived.clear()
        sim.run_round(round_index)
        # one pooled model served every client of the round
        assert sim.fleet.live_models == 1
        assert len(arrived) == sim.config.num_clients
        for client_id, (update, personal) in arrived.items():
            np.testing.assert_array_equal(
                as_store(sim.last_updates[client_id]).buffer, update)
            np.testing.assert_array_equal(
                sim.registry.get(client_id).buffer, personal)
        batch = sim.server._batch
        if batch is not None:
            rows = [update for update, _ in arrived.values()]
            np.testing.assert_array_equal(batch.matrix, np.stack(rows))


def test_pass_through_update_is_copied_off_the_model():
    """A defense that returns the live store (none, LDP) still hands
    the server its own buffer, never the model's."""
    sim = _simulation("none", "none")
    sim.run_round(0)
    client = sim.fleet.materialize(sim.config.num_clients - 1)
    model_buffer = client.model.weights.buffer
    for weights in sim.last_updates.values():
        assert not np.may_share_memory(as_store(weights).buffer,
                                       model_buffer)
