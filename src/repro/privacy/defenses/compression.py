"""Gradient Compression (GC) baseline.

Per §2.3/[7]: compression "reduce[s] the amount of information
available for the attacker".  Implemented as top-k sparsification of
the client's round delta (update minus the round's global model) with
error feedback: coordinates dropped this round accumulate in a residual
that is added back next round.  The residual store is exactly why the
paper measures a large GC memory overhead ("storing the difference
between original and compressed gradients").

Store-native: the round delta *is* a flat vector on the weight plane,
so sparsification works directly on the store buffer — no flatten /
unflatten round-trips — and residuals are plain flat vectors.
"""

from __future__ import annotations

import numpy as np

from repro.nn.store import WeightsLike, WeightStore, as_store
from repro.privacy.defenses.base import Defense


class GradientCompression(Defense):
    """Top-k sparsification of round deltas with error feedback."""

    name = "gc"

    def __init__(self, *, keep_ratio: float = 0.1) -> None:
        if not 0.0 < keep_ratio <= 1.0:
            raise ValueError(
                f"keep_ratio must be in (0, 1], got {keep_ratio}")
        self.keep_ratio = keep_ratio
        self._round_global: WeightStore | None = None
        self._residuals: dict[int, np.ndarray] = {}
        # Running total of the residuals' bytes (see
        # import_client_state), so state_bytes() is O(1).
        self._residual_bytes = 0

    def on_round_start(self, round_index, client_ids, template, rng) -> None:
        self._round_global = as_store(template, copy=True)

    def on_send_update(self, client_id: int, weights: WeightsLike,
                       num_samples: int,
                       rng: np.random.Generator) -> WeightStore:
        if self._round_global is None:
            raise RuntimeError("on_round_start was never called")
        update = as_store(weights, layout=self._round_global.layout)
        delta = update - self._round_global
        flat = delta.buffer
        residual = self._residuals.get(client_id)
        if residual is not None:
            flat += residual
        k = max(1, int(self.keep_ratio * flat.size))
        view = self._round_global.layout.segmented()
        keep_idx = view.top_k_indices(flat, k)
        sparse = np.zeros_like(flat)
        sparse[keep_idx] = flat[keep_idx]
        self.import_client_state(client_id, flat - sparse)
        return WeightStore(self._round_global.layout,
                           self._round_global.buffer + sparse)

    # ------------------------------------------------------------------
    # executor state protocol
    # ------------------------------------------------------------------
    def export_client_state(self, client_id: int):
        return self._residuals.get(client_id)

    def import_client_state(self, client_id: int, state) -> None:
        old = self._residuals.get(client_id)
        if old is not None:
            self._residual_bytes -= old.nbytes
        if state is None:
            self._residuals.pop(client_id, None)
        else:
            self._residuals[client_id] = state
            self._residual_bytes += state.nbytes

    def export_round_state(self):
        if self._round_global is None:
            return None
        return (self._round_global.layout, self._round_global.buffer)

    def import_round_state(self, state) -> None:
        if state is not None:
            layout, buffer = state
            self._round_global = WeightStore(layout, buffer)

    def upload_nbytes(self, weights: WeightsLike) -> int:
        """GC transmits the sparse delta, not the dense model."""
        from repro.fl.network import sparse_nbytes
        if self._round_global is None:
            return super().upload_nbytes(weights)
        return sparse_nbytes(weights, self._round_global)

    def state_bytes(self) -> int:
        return self._residual_bytes

    def describe(self) -> str:
        return f"gc(keep={self.keep_ratio})"
