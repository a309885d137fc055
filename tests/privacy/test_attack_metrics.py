"""Attack AUC metric tests (Appendix A)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import build_attack, make_model_factory
from repro.data.datasets import load_dataset
from repro.data.partition import split_for_membership
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.privacy.attacks.metrics import (
    _sample,
    attack_auc,
    local_models_auc,
    roc_auc,
)
from repro.privacy.defenses import make_defense


#: Scores with many ties (few distinct values), NaN and infinities.
_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5, np.inf, -np.inf, np.nan]),
    st.integers(-3, 3).map(float))


def _loop_roc_auc(pos, neg):
    """The rank AUC with ties averaged run by run in Python (the
    reference for the vectorized :func:`roc_auc`)."""
    combined = np.concatenate([pos, neg])
    order = combined.argsort(kind="mergesort")
    ranks = np.empty_like(combined)
    ranks[order] = np.arange(1, combined.size + 1, dtype=np.float64)
    sorted_vals = combined[order]
    i = 0
    while i < combined.size:
        j = i
        while j + 1 < combined.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            ranks[order[i:j + 1]] = 0.5 * (i + 1 + j + 1)
        i = j + 1
    u = ranks[:pos.size].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc(np.array([3.0, 4.0]), np.array([1.0, 2.0])) == 1.0

    def test_perfectly_inverted(self):
        assert roc_auc(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 0.0

    def test_random_overlap_near_half(self, rng):
        pos = rng.standard_normal(2000)
        neg = rng.standard_normal(2000)
        assert abs(roc_auc(pos, neg) - 0.5) < 0.03

    def test_ties_count_half(self):
        assert roc_auc(np.array([1.0]), np.array([1.0])) == 0.5

    def test_matches_pairwise_definition(self, rng):
        pos = rng.standard_normal(30)
        neg = rng.standard_normal(40)
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        assert np.isclose(roc_auc(pos, neg), wins / (30 * 40))

    def test_heavy_ties_match_pairwise_definition_exactly(self, rng):
        pos = np.round(rng.standard_normal(30), 1)
        neg = np.round(rng.standard_normal(45), 1)
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        assert roc_auc(pos, neg) == wins / (30 * 45)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_SCORES, min_size=1, max_size=40),
           st.lists(_SCORES, min_size=1, max_size=60))
    def test_equals_the_run_by_run_rank_loop(self, pos, neg):
        """Vectorized tie averaging equals the interpreted loop it
        replaced, bit for bit (NaN and infinities included)."""
        got = roc_auc(np.array(pos), np.array(neg))
        want = _loop_roc_auc(np.array(pos), np.array(neg))
        assert got == want or (np.isnan(got) and np.isnan(want))

    def test_known_shift(self, rng):
        pos = rng.standard_normal(3000) + 1.0
        neg = rng.standard_normal(3000)
        # AUC of unit shift between unit gaussians = Phi(1/sqrt(2))
        from scipy.stats import norm
        assert abs(roc_auc(pos, neg) - norm.cdf(1 / np.sqrt(2))) < 0.02

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            roc_auc(np.array([]), np.array([1.0]))


class TestAttackAuc:
    def test_clamped_to_half(self, rng):
        """An anti-predictive attacker is as good as its inverse."""
        pos = np.array([1.0, 2.0])
        neg = np.array([3.0, 4.0])
        assert attack_auc(pos, neg) == 1.0

    def test_never_below_half(self, rng):
        for _ in range(5):
            pos = rng.standard_normal(50)
            neg = rng.standard_normal(50)
            assert attack_auc(pos, neg) >= 0.5

    def test_preserves_strong_signal(self, rng):
        pos = rng.standard_normal(500) + 3
        neg = rng.standard_normal(500)
        assert attack_auc(pos, neg) > 0.95


# ----------------------------------------------------------------------
# local_models_auc reuses one model across clients
# ----------------------------------------------------------------------

def _fresh_model_local_auc(attack, simulation, *, max_samples, rng):
    """The per-client AUC loop with a freshly built model per client
    (what ``local_models_auc`` did before reusing one model)."""
    nonmembers = simulation.split.nonmembers
    aucs = []
    for client_id in sorted(simulation.last_updates):
        model = simulation.transmitted_model(client_id)
        data = simulation.client_dataset(client_id)
        m_idx = _sample(rng, len(data), max_samples)
        n_idx = _sample(rng, len(nonmembers), max_samples)
        aucs.append(attack_auc(
            attack.score(model, data.x[m_idx], data.y[m_idx]),
            attack.score(model, nonmembers.x[n_idx],
                         nonmembers.y[n_idx])))
    return float(np.mean(aucs))


@pytest.fixture(scope="module", params=["purchase100", "cifar10"])
def trained_simulation(request):
    name = request.param
    dataset = load_dataset(name, 0, n_samples=240)
    split = split_for_membership(dataset, np.random.default_rng(1))
    # Two rounds at half participation: last_updates then holds
    # clients from both rounds, each with a different model.
    config = FLConfig(num_clients=4, rounds=2, local_epochs=1,
                      batch_size=32, seed=0, eval_every=2,
                      sample_fraction=0.5)
    sim = FederatedSimulation(split, make_model_factory(name), config,
                              make_defense("dinar"))
    sim.run()
    return name, split, sim


@pytest.mark.parametrize(
    "attack_name", ["yeom", "entropy", "confidence", "shadow", "calibrated"])
def test_reused_model_auc_equals_fresh_model_auc(trained_simulation,
                                                 attack_name):
    name, split, sim = trained_simulation
    assert len(sim.last_updates) > 1
    attack = build_attack(attack_name, name, split, seed=0,
                          num_shadows=1, shadow_epochs=1)
    reused = local_models_auc(attack, sim, max_samples=40,
                              rng=np.random.default_rng(5))
    fresh = _fresh_model_local_auc(attack, sim, max_samples=40,
                                   rng=np.random.default_rng(5))
    assert reused == fresh
