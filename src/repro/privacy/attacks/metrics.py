"""Attack metrics — the paper's Appendix A, implemented exactly.

Attack AUC lives in [50%, 100%]: 50% is a random attacker (the paper's
"optimal" defended value), 100% a perfect one.  A raw rank AUC below
0.5 means the attacker's scores are anti-predictive; a real attacker
would invert its classifier, so the reported AUC is
``max(auc, 1 - auc)`` — which is what clamps defended models at ~50%.
"""

from __future__ import annotations

import numpy as np


def roc_auc(positive_scores: np.ndarray,
            negative_scores: np.ndarray) -> float:
    """Rank-based (Mann-Whitney) AUC; ties count half.

    Equivalent to integrating the ROC curve over every threshold, which
    is why the paper calls AUC "a robust overall measure ... because its
    calculation involves all possible attacker's binary classification
    thresholds".
    """
    pos = np.asarray(positive_scores, dtype=np.float64)
    neg = np.asarray(negative_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both score sets must be non-empty")
    combined = np.concatenate([pos, neg])
    order = combined.argsort(kind="mergesort")
    sorted_vals = combined[order]
    # Runs of equal values share their average 1-based rank: a run over
    # sorted positions [start, end) averages to (start + 1 + end) / 2.
    # NaN equals nothing, so each NaN is a run of its own.
    starts = np.flatnonzero(
        np.concatenate([[True], sorted_vals[1:] != sorted_vals[:-1]]))
    ends = np.append(starts[1:], combined.size)
    ranks = np.empty_like(combined)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    rank_sum = ranks[:pos.size].sum()
    u = rank_sum - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def attack_auc(member_scores: np.ndarray,
               nonmember_scores: np.ndarray) -> float:
    """Paper-convention attack AUC in [0.5, 1.0].

    ``member_scores`` are the attacker's membership scores on true
    members, ``nonmember_scores`` on true non-members.
    """
    raw = roc_auc(member_scores, nonmember_scores)
    return max(raw, 1.0 - raw)


def global_model_auc(attack, simulation, *, max_samples: int = 500,
                     rng: np.random.Generator | None = None) -> float:
    """Attack AUC against the global FL model (Appendix A, metric 1).

    Members are drawn from all clients' training data, non-members from
    the held-out test pool — the client-side attacker's task: "whether a
    data sample has been used for training by other clients".
    """
    rng = rng or np.random.default_rng(0)
    model = simulation.global_model()
    members = simulation.split.members
    nonmembers = simulation.split.nonmembers
    m_idx = _sample(rng, len(members), max_samples)
    n_idx = _sample(rng, len(nonmembers), max_samples)
    m_scores = attack.score(model, members.x[m_idx], members.y[m_idx])
    n_scores = attack.score(model, nonmembers.x[n_idx], nonmembers.y[n_idx])
    return attack_auc(m_scores, n_scores)


def local_models_auc(attack, simulation, *, max_samples: int = 500,
                     rng: np.random.Generator | None = None) -> float:
    """Mean attack AUC over clients' transmitted models (Appendix A,
    metric 2: ``sum_i AUC(theta_i) / N``).

    For each client the attacker (sitting on the server) inspects the
    update that client actually uploaded — after any defense transform —
    and tries to separate that client's training samples from held-out
    data.

    One model is built per call and each client's update is loaded
    into it: ``set_weights`` overwrites every parameter and buffer, and
    scoring reads nothing else, so the AUCs equal those of a fresh
    model per client.
    """
    rng = rng or np.random.default_rng(0)
    # Ascending id over every client that has ever transmitted:
    # ``last_updates`` keeps each client's latest upload across rounds,
    # so this covers past rounds' participants too, not only the last
    # round's.  No FLClient is materialized (at fleet scale, most
    # clients never trained).
    client_ids = sorted(simulation.last_updates)
    if not client_ids:
        raise RuntimeError("no client has transmitted an update yet")
    model = simulation.transmitted_model(client_ids[0])
    nonmembers = simulation.split.nonmembers
    aucs = []
    for client_id in client_ids:
        model.set_weights(simulation.last_updates[client_id])
        data = simulation.client_dataset(client_id)
        m_idx = _sample(rng, len(data), max_samples)
        n_idx = _sample(rng, len(nonmembers), max_samples)
        m_scores = attack.score(model, data.x[m_idx], data.y[m_idx])
        n_scores = attack.score(
            model, nonmembers.x[n_idx], nonmembers.y[n_idx])
        aucs.append(attack_auc(m_scores, n_scores))
    return float(np.mean(aucs))


def _sample(rng: np.random.Generator, n: int, max_samples: int) -> np.ndarray:
    if n <= max_samples:
        return np.arange(n)
    return rng.choice(n, size=max_samples, replace=False)
