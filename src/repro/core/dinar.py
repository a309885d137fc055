"""DINAR: the paper's contribution (§4, Algorithm 1).

DINAR is a client-side defense with three moving parts per FL round:

* **Model personalization** (§4.3, Alg. 1 lines 1–6): on receiving the
  global model, the client restores its stored, non-obfuscated private
  layer ``p`` and uses the result as its personalized model.
* **Adaptive model training** (§4.4, Alg. 1 lines 7–14): local epochs
  with Adagrad-style adaptive gradient descent (``G += g**2``,
  ``theta -= lr * g / sqrt(G + 1e-5)``), rebuilt with ``G = 0`` each
  round.
* **Model obfuscation** (§4.2, Alg. 1 lines 15–17): before upload, the
  client stores its private layer ``p`` as ``theta_p*`` and replaces
  the transmitted copy with random values.

Initialization (§4.1) — choosing ``p`` — is a one-off distributed vote
over per-client layer-sensitivity measurements; see
:func:`dinar_initialization`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.consensus import ConsensusResult, agree_on_private_layer
from repro.core.sensitivity import LayerSensitivity, layer_divergences
from repro.data.loader import iterate_batches
from repro.data.synthetic import Dataset
from repro.nn.dtypes import standard_normal
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Model
from repro.nn.optim import Optimizer, make_optimizer
from repro.nn.store import LayoutEntry, WeightsLike, WeightStore, as_store
from repro.privacy.defenses.base import Defense


class _StoredLayer(dict):
    """A protected layer snapshot: flat backing copy + shaped views.

    Reads like the legacy ``{key: array}`` dict (checkpoints and tests
    access stored layers that way) while keeping one contiguous
    ``flat`` vector so personalization restores the layer with a single
    slice assignment.
    """

    __slots__ = ("flat", "entries")

    def __init__(self, flat: np.ndarray,
                 entries: Sequence[LayoutEntry]) -> None:
        super().__init__()
        self.flat = flat
        self.entries = tuple(entries)
        base = entries[0].offset
        for e in entries:
            lo = e.offset - base
            self[e.key] = flat[lo:lo + e.size].reshape(e.shape)

    def __reduce__(self):
        # The dict payload is views into ``flat``; rebuilding from
        # ``(flat, entries)`` round-trips through pickle without
        # duplicating the buffer (executor ships these to workers).
        return (_StoredLayer, (self.flat, self.entries))


def _stored_nbytes(stored: dict[int, dict[str, np.ndarray]]) -> int:
    """Bytes of one client's stored layers."""
    return sum(v.nbytes for layer in stored.values()
               for v in layer.values())


class DINAR(Defense):
    """The DINAR privacy-protection pipeline (Algorithm 1)."""

    name = "dinar"

    def __init__(self, private_layer: int = -2, *,
                 obfuscation: str = "scaled",
                 obfuscation_scale: float = 3.0,
                 optimizer: str = "adagrad",
                 lr: float | None = 0.005,
                 personalize: bool = True,
                 extra_layers: Sequence[int] = ()) -> None:
        """
        Parameters
        ----------
        private_layer:
            Index ``p`` of the privacy-sensitive layer among the
            model's trainable layers.  Negative indices count from the
            back; the default ``-2`` is the penultimate layer the
            paper's consensus typically converges to.  Use
            :func:`dinar_initialization` to determine it empirically.
        obfuscation:
            ``"scaled"`` (default) replaces layer ``p`` with Gaussian
            random values whose std matches the replaced array's own
            std — random values indistinguishable in magnitude from a
            real layer, so the protected model's outputs stay in a
            normal range (the "similar and low" loss distributions of
            Fig. 3).  ``"gaussian"`` uses plain N(0, scale^2) values.
        obfuscation_scale:
            Std multiplier for the random values replacing layer ``p``.
        optimizer:
            Local-training optimizer name; ``"adagrad"`` is Algorithm 1,
            the others back the Fig. 11 ablation.
        lr:
            Learning rate for the adaptive optimizer.  Adaptive methods
            take near-sign-sized early steps, so they need a smaller
            rate than the plain-SGD baseline; None inherits the
            experiment's configured rate.
        personalize:
            Disable to ablate the personalization step (§4.3): the
            client then trains from the received — obfuscated — global
            layer instead of restoring its own, which collapses
            utility and shows personalization is load-bearing.
        extra_layers:
            Additional layer indices to obfuscate (the Fig. 5
            multi-layer study); empty for standard DINAR.
        """
        if obfuscation_scale <= 0:
            raise ValueError(
                f"obfuscation_scale must be positive, "
                f"got {obfuscation_scale}")
        if obfuscation not in ("scaled", "gaussian"):
            raise ValueError(
                f"unknown obfuscation mode {obfuscation!r}; "
                "known: scaled, gaussian")
        self.obfuscation = obfuscation
        self.personalize = personalize
        self.private_layer = private_layer
        self.obfuscation_scale = obfuscation_scale
        self.optimizer_name = optimizer
        self.lr = lr
        self.extra_layers = tuple(extra_layers)
        self._stored: dict[int, dict[int, dict[str, np.ndarray]]] = {}
        # Running total of the stored arrays' bytes (see
        # import_client_state), so state_bytes() is O(1).
        self._stored_bytes = 0

    # ------------------------------------------------------------------
    def _resolve(self, index: int, num_layers: int) -> int:
        resolved = index if index >= 0 else num_layers + index
        if not 0 <= resolved < num_layers:
            raise IndexError(
                f"private layer {index} out of range for a model with "
                f"{num_layers} trainable layers")
        return resolved

    def protected_indices(self, num_layers: int) -> list[int]:
        """All obfuscated layer indices, resolved and sorted."""
        indices = {self._resolve(self.private_layer, num_layers)}
        indices.update(
            self._resolve(i, num_layers) for i in self.extra_layers)
        return sorted(indices)

    # ------------------------------------------------------------------
    # Algorithm 1, lines 1-6: model personalization
    # ------------------------------------------------------------------
    def on_receive_global(self, client_id: int,
                          weights: WeightsLike) -> WeightsLike:
        stored = self._stored.get(client_id)
        if stored is None or not self.personalize:
            return weights  # first round / ablated: nothing to restore
        # In place on the client's live store (the hook's contract); a
        # nested input is copied into a fresh store first.
        personalized = as_store(weights)
        for layer_idx, saved in stored.items():
            if isinstance(saved, _StoredLayer):
                # the whole layer is one contiguous coordinate range
                personalized.layer_flat(layer_idx)[:] = saved.flat
            else:
                # plain dict, e.g. a layer restored from a checkpoint
                for key, value in saved.items():
                    personalized.view(layer_idx, key)[:] = value
        return personalized

    # ------------------------------------------------------------------
    # Algorithm 1, lines 7-14: adaptive model training
    # ------------------------------------------------------------------
    def make_optimizer(self, model: Model, lr: float,
                       rng: np.random.Generator | None = None) -> Optimizer:
        # Rebuilt every round by the client: G starts at 0 (line 8).
        return make_optimizer(
            self.optimizer_name, model, self.lr if self.lr else lr)

    # ------------------------------------------------------------------
    # Algorithm 1, lines 15-17: model obfuscation
    # ------------------------------------------------------------------
    def on_send_update(self, client_id: int, weights: WeightsLike,
                       num_samples: int,
                       rng: np.random.Generator) -> WeightStore:
        update = as_store(weights)
        out = update.copy()
        protected = self.protected_indices(len(out))
        stored: dict[int, dict[str, np.ndarray]] = {}
        for layer_idx in protected:
            entries = out.layout.layer_entries(layer_idx)
            stored[layer_idx] = _StoredLayer(
                update.layer_flat(layer_idx).copy(), entries)
            for e in entries:
                view = out.view(layer_idx, e.key)
                # the noise std derives from the replaced array itself,
                # so the draw stays per-array (in layout order — the
                # same generator stream as the legacy loop)
                noise = standard_normal(rng, e.shape, out.layout.dtype)
                noise *= self._noise_std(view)
                view[:] = noise
        self.import_client_state(client_id, stored)
        return out

    def _noise_std(self, array: np.ndarray) -> float:
        """Std of the random values replacing one parameter array."""
        if self.obfuscation == "gaussian":
            return self.obfuscation_scale
        # scaled: match the replaced array's own magnitude (floored so
        # an all-zero bias vector still gets non-degenerate noise)
        return self.obfuscation_scale * max(float(array.std()), 1e-3)

    # ------------------------------------------------------------------
    # executor state protocol: a client's state is its stored layers
    # ------------------------------------------------------------------
    def export_client_state(self, client_id: int):
        return self._stored.get(client_id)

    def import_client_state(self, client_id: int, state) -> None:
        old = self._stored.get(client_id)
        if old is not None:
            self._stored_bytes -= _stored_nbytes(old)
        if state is None:
            self._stored.pop(client_id, None)
        else:
            self._stored[client_id] = state
            self._stored_bytes += _stored_nbytes(state)

    def state_bytes(self) -> int:
        return self._stored_bytes

    def describe(self) -> str:
        extra = f", extra={list(self.extra_layers)}" if self.extra_layers \
            else ""
        return (f"dinar(p={self.private_layer}, "
                f"opt={self.optimizer_name}{extra})")


# ----------------------------------------------------------------------
# §4.1: DINAR initialization
# ----------------------------------------------------------------------

@dataclass
class InitializationResult:
    """Outcome of the preliminary consensus phase."""

    private_layer: int
    consensus: ConsensusResult
    per_client_sensitivity: dict[int, LayerSensitivity]


def dinar_initialization(
        model_factory: Callable[[np.random.Generator], Model],
        client_datasets: Sequence[Dataset], *,
        warmup_epochs: int = 5, lr: float = 0.05, batch_size: int = 64,
        holdout_fraction: float = 0.3,
        byzantine: dict[int, str] | None = None,
        seed: int = 0) -> InitializationResult:
    """Run the preliminary phase: per-client analysis + distributed vote.

    Each client splits its local data into a used-for-training part
    ``D_m`` and a held-out part ``D_n`` (§4.1), trains a warm-up model
    on ``D_m``, measures per-layer member/non-member gradient
    divergence, and proposes its argmax layer.  The broadcast vote
    (optionally with injected Byzantine voters) fixes the global ``p``.
    """
    if not client_datasets:
        raise ValueError("need at least one client dataset")
    proposals: dict[int, int] = {}
    sensitivities: dict[int, LayerSensitivity] = {}
    num_layers = None
    for client_id, data in enumerate(client_datasets):
        rng = np.random.default_rng((seed, client_id))
        order = rng.permutation(len(data))
        holdout = max(1, int(len(data) * holdout_fraction))
        d_n = data.subset(order[:holdout])
        d_m = data.subset(order[holdout:])

        model = model_factory(rng)
        model.attach_rng(rng)
        loss = SoftmaxCrossEntropy()
        optimizer = make_optimizer("adagrad", model, lr)
        for _ in range(warmup_epochs):
            for bx, by in iterate_batches(d_m.x, d_m.y, batch_size, rng):
                model.loss_and_grad(bx, by, loss)
                optimizer.step()

        sensitivity = layer_divergences(
            model, d_m.x, d_m.y, d_n.x, d_n.y, rng=rng)
        sensitivities[client_id] = sensitivity
        proposals[client_id] = sensitivity.most_sensitive_layer
        num_layers = model.num_trainable_layers

    consensus = agree_on_private_layer(
        proposals, byzantine=byzantine, num_layers=num_layers, seed=seed)
    return InitializationResult(
        private_layer=consensus.decided_value,
        consensus=consensus,
        per_client_sensitivity=sensitivities,
    )
