"""Defense hook interface.

A defense is a single object per federated run that intercepts the
FL message flow at four points:

* ``on_receive_global``  — client downloads the global model
  (DINAR personalizes here);
* ``on_send_update``     — client uploads its update
  (DINAR obfuscates, LDP/WDP add noise, GC compresses, SA masks);
* ``on_aggregate``       — server finishes aggregation
  (CDP adds central noise);
* ``on_round_start``     — per-round setup (SA negotiates pairwise
  masks for the selected cohort).

Per-client state (DINAR's stored private layers, SA's masks) is keyed
by client id inside the defense object.  ``make_optimizer`` lets a
defense impose its own local-training optimizer (DINAR's adaptive
gradient descent); returning None keeps the experiment default.

The export/import state hooks make that keyed state explicit so the
round executor (see ``repro.fl.executor``) can ship exactly one
client's slice of it into a worker process and merge the post-round
slice back — the defense object itself is never synchronized across
processes.  ``export_round_state`` covers state ``on_round_start``
computes on the parent that every client's hooks read (SA's cohort
masks, compression's round-start global).  The default hooks carry
nothing, which is correct for any stateless defense.

Weight-plane defenses (noise, clipping, masking, compression) operate
on the flat ``WeightStore`` buffer; gradient-plane defenses that hook
local training (LDP's DP-SGD, DINAR's ADGD) step the model's flat
gradient vector directly — see *The parameter plane* in
``docs/architecture.md``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.nn.model import Model
from repro.nn.store import WeightsLike
from repro.nn.optim import Optimizer


class Defense:
    """No-op defense: the paper's "No Defense" baseline."""

    name = "none"

    #: When True the client transmits ``num_samples * weights`` (plus any
    #: masking) and the server divides the plain sum by total samples —
    #: the transmission protocol of secure aggregation.
    pre_weighted = False

    #: When True the round may only aggregate if *every* sampled client
    #: reported back: the defense's correctness depends on the complete
    #: cohort (secure aggregation's pairwise masks only cancel when both
    #: endpoints of every pair are summed).  The simulation rejects
    #: dropout/partial-completion configs up front and the server
    #: refuses to finalize a short round rather than silently corrupt
    #: the aggregate.
    requires_full_cohort = False

    def on_round_start(self, round_index: int, client_ids: Sequence[int],
                       template: WeightsLike,
                       rng: np.random.Generator) -> None:
        """Per-round setup before any client trains."""

    def on_receive_global(self, client_id: int,
                          weights: WeightsLike) -> WeightsLike:
        """Transform the downloaded global model for one client.

        The client has already loaded the global model, and ``weights``
        is its model's live store: a defense may write it in place and
        return it (DINAR restores the private layers this way), or
        return other weights, which the client then loads.  The store
        is overwritten next round, so it must not be kept.
        """
        return weights

    def on_send_update(self, client_id: int, weights: WeightsLike,
                       num_samples: int,
                       rng: np.random.Generator) -> WeightsLike:
        """Transform the update a client is about to upload.

        ``weights`` may be the client model's live store; it must not
        be kept or written.  Returning it (or a view of it) is allowed:
        the client copies an update that shares the model's memory.
        """
        return weights

    def on_aggregate(self, weights: WeightsLike,
                     rng: np.random.Generator) -> WeightsLike:
        """Transform the aggregated model on the server."""
        return weights

    def make_optimizer(self, model: Model, lr: float,
                       rng: np.random.Generator | None = None
                       ) -> Optimizer | None:
        """Optionally impose a local-training optimizer.

        ``rng`` is the calling client's per-``(round, client)`` stream;
        defenses whose optimizer draws noise (DP-SGD) must use it so
        the draw is independent of construction order across processes.
        """
        return None

    # ------------------------------------------------------------------
    # executor state protocol
    # ------------------------------------------------------------------
    def export_client_state(self, client_id: int) -> Any:
        """Picklable snapshot of one client's defense state (or None)."""
        return None

    def import_client_state(self, client_id: int, state: Any) -> None:
        """Install one client's defense state; None clears it."""

    def export_round_state(self) -> Any:
        """Picklable snapshot of round-shared state (or None).

        Called on the parent after ``on_round_start``; shipped to every
        client task of the round.
        """
        return None

    def import_round_state(self, state: Any) -> None:
        """Install round-shared state before a client's hooks run."""

    def upload_nbytes(self, weights: WeightsLike) -> int:
        """Wire size of one transmitted update.

        Defaults to a dense float64 encoding; defenses with a cheaper
        wire format (gradient compression's sparse deltas) override.
        """
        from repro.fl.network import dense_nbytes
        return dense_nbytes(weights)

    def state_bytes(self) -> int:
        """Extra bytes this defense keeps alive (Table 3 memory column)."""
        return 0

    def describe(self) -> str:
        """One-line human-readable parameterization."""
        return self.name
