"""Property-based tests on DINAR's obfuscation/personalization
invariants and the SA mask-cancellation identity."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dinar import DINAR
from repro.nn.model import weights_allclose, weights_zip_map
from repro.nn.store import WeightStore, as_store
from repro.privacy.defenses.compression import GradientCompression
from repro.privacy.defenses.secure_aggregation import SecureAggregation


def _structure(rng, num_layers):
    return [
        {"W": rng.standard_normal((3, 3)), "b": rng.standard_normal(3)}
        for _ in range(num_layers)
    ]


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 5), st.integers(0, 1000))
def test_obfuscate_then_personalize_is_identity_on_p(num_layers, p_raw,
                                                     seed):
    """For any layer index, what a client stores at upload time is
    exactly what personalization restores next round."""
    p = p_raw % num_layers
    rng = np.random.default_rng(seed)
    weights = _structure(rng, num_layers)
    defense = DINAR(private_layer=p)
    defense.on_send_update(0, weights, 10, rng)
    garbage = [{k: np.full_like(v, 123.0) for k, v in layer.items()}
               for layer in weights]
    received = defense.on_receive_global(0, garbage)
    assert np.array_equal(received[p]["W"], weights[p]["W"])
    assert np.array_equal(received[p]["b"], weights[p]["b"])
    for j in range(num_layers):
        if j != p:
            assert np.all(received[j]["W"] == 123.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 1000))
def test_obfuscated_layer_carries_no_information(num_layers, seed):
    """In ``gaussian`` mode, two different private layers produce
    obfuscations that are statistically identical (both pure noise
    from the same rng stream) — the transmitted layer cannot depend on
    the secret.  (``scaled`` mode intentionally leaks only the layer's
    std, which carries no membership information.)"""
    rng_a = np.random.default_rng(seed)
    rng_b = np.random.default_rng(seed)
    data_rng = np.random.default_rng(seed + 1)
    weights_a = _structure(data_rng, num_layers)
    weights_b = _structure(data_rng, num_layers)  # different secrets

    sent_a = DINAR(private_layer=0, obfuscation="gaussian") \
        .on_send_update(0, weights_a, 1, rng_a)
    sent_b = DINAR(private_layer=0, obfuscation="gaussian") \
        .on_send_update(0, weights_b, 1, rng_b)
    # same rng stream => identical noise regardless of the layer values
    assert np.array_equal(sent_a[0]["W"], sent_b[0]["W"])


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.integers(0, 500), st.integers(1, 30))
def test_sa_masks_cancel_for_any_cohort(num_clients, seed, round_index):
    rng = np.random.default_rng(seed)
    template = _structure(rng, 2)
    defense = SecureAggregation(mask_scale=10.0)
    cohort = list(range(num_clients))
    defense.on_round_start(round_index, cohort, template, rng)
    zeros = [{k: np.zeros_like(v) for k, v in layer.items()}
             for layer in template]
    total = zeros
    for cid in cohort:
        sent = defense.on_send_update(cid, zeros, 1, rng)
        total = weights_zip_map(np.add, total, sent)
    # zero updates + masks: the sum must be exactly the zero structure
    assert weights_allclose(total, zeros, atol=1e-6)


#: Random per-client state traffic: (op, client, other client).
_STATE_OPS = st.lists(
    st.tuples(st.sampled_from(["send", "import", "drop"]),
              st.integers(0, 4), st.integers(0, 4)),
    max_size=25)


def _dinar_stored_bytes(defense) -> int:
    return sum(v.nbytes for layers in defense._stored.values()
               for layer in layers.values() for v in layer.values())


@settings(max_examples=40, deadline=None)
@given(_STATE_OPS, st.integers(0, 1000))
def test_dinar_state_bytes_is_the_running_total(ops, seed):
    """``state_bytes()`` is a running total; after any sequence of
    uploads, imports (another client's state, a checkpoint-style
    plain dict of another size, or None) it equals the recomputed
    sum over every stored array."""
    rng = np.random.default_rng(seed)
    weights = _structure(rng, 3)
    defense = DINAR(private_layer=1, extra_layers=(0,))
    for op, client, other in ops:
        if op == "send":
            defense.on_send_update(client, weights, 10, rng)
        elif op == "import":
            state = defense.export_client_state(other)
            if state is None:
                state = {2: {"W": rng.standard_normal((other + 1, 2))}}
            defense.import_client_state(client, state)
        else:
            defense.import_client_state(client, None)
        assert defense.state_bytes() == _dinar_stored_bytes(defense)


@settings(max_examples=40, deadline=None)
@given(_STATE_OPS, st.integers(0, 1000))
def test_compression_state_bytes_is_the_running_total(ops, seed):
    rng = np.random.default_rng(seed)
    template = as_store(_structure(rng, 2))
    defense = GradientCompression(keep_ratio=0.2)
    defense.on_round_start(0, list(range(5)), template, rng)
    for op, client, other in ops:
        if op == "send":
            update = WeightStore(
                template.layout,
                template.buffer + rng.standard_normal(template.num_params))
            defense.on_send_update(client, update, 10, rng)
        elif op == "import":
            state = defense.export_client_state(other)
            if state is None:  # a residual of another width
                state = rng.standard_normal(template.num_params).astype(
                    np.float32 if other % 2 else np.float64)
            defense.import_client_state(client, state)
        else:
            defense.import_client_state(client, None)
        assert defense.state_bytes() == sum(
            r.nbytes for r in defense._residuals.values())
