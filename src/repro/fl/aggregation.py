"""Model aggregation rules, vectorized over the flat weight plane.

FedAvg is the paper's aggregation (§2.1).  Trimmed mean and coordinate
median are extensions (DESIGN.md §6) for composing DINAR with
Byzantine-robust aggregation.

Two reduction shapes coexist:

* **Streaming** (:class:`StreamingAccumulator`) — the fleet-plane
  default: each arriving flat update is folded into chunked partial
  sums in client-arrival order, so aggregation-side memory is constant
  in cohort size (one bounded staging block plus one partial vector).
  This is what lets a round sample thousands-to-millions of clients.
* **Dense** (:class:`UpdateBatch` + the rule functions below) — a
  ``(num_clients, num_params)`` matrix, retained only for rules that
  genuinely need every client row materialized at once (order
  statistics over the client axis: trimmed mean, coordinate median).
  Dense rules declare ``requires_dense = True`` and the batch enforces
  a configurable client cap (:data:`DENSE_CLIENT_CAP`) so nobody
  accidentally materializes a fleet.  Order statistics sort the matrix
  one column chunk at a time (:func:`_sorted_mean`), so they never copy
  it whole.

Legacy nested ``Weights`` updates are accepted and bridged;
:func:`fedavg_reference` retains the seed nested-dict implementation
as the oracle the property tests and the aggregation benchmark compare
against.

The weighted column sum is computed with ``np.einsum`` over column
chunks, which accumulates clients sequentially in the same order as
the legacy per-array ``sum()`` loop while keeping the accumulator
cache-resident (the chunking is what buys the speedup on models larger
than cache).  einsum may contract each multiply-add as a fused FMA,
whose deferred rounding can shift individual coordinates by 1 ULP
relative to the reference's separate multiply-then-add — agreement is
therefore ULP-level, not bitwise (see the property tests).  The
streaming accumulator flushes blocks through the *same* einsum with
the running partial carried as an extra coefficient-1.0 row, which
continues the identical sequential accumulation chain — so streaming
and dense reductions agree to the same envelope (bitwise on builds
whose einsum accumulates strictly in order, which the fleet benchmark
verifies).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.nn.model import Weights
from repro.nn.store import Layout, WeightsLike, WeightStore, as_store

#: Column-chunk width for reductions over the update matrix.  Chunking
#: keeps each partial reduction's working set cache-resident; 64k
#: float64 columns was the empirical sweet spot on CPU.
REDUCE_CHUNK = 65536

#: Column-chunk width for order statistics over the client axis
#: (:func:`_sorted_mean`): a chunk of a few dozen clients stays
#: cache-resident through its transpose, sort and mean.  At 40 clients
#: x 226,340 params on a 2-vCPU Xeon the median takes 44 ms (255 ms
#: for ``np.median``) and the trimmed mean 52 ms; wider chunks are no
#: faster for the median and ~20% slower for the trimmed mean.
ORDER_CHUNK = 1024

#: Client rows the streaming accumulator stages before flushing a
#: block through the chunked einsum.  Any cohort up to this size is
#: reduced in literally one dense einsum call (bitwise identical to
#: the pre-fleet dense path); larger cohorts chain blocks through the
#: carry row.  64 rows keeps staging memory at 64 x num_params.
STREAM_BLOCK = 64

#: Default ceiling on the clients a dense :class:`UpdateBatch` will
#: materialize.  Dense memory is O(clients x params); rules that need
#: it (``requires_dense``) are order statistics whose usefulness caps
#: out far below fleet scale.  Pass ``client_cap`` explicitly to raise
#: it when you really mean to.
DENSE_CLIENT_CAP = 1024


class UpdateBatch:
    """A round's client updates as rows of one pooled matrix.

    The matrix is preallocated and reused across rounds (``reset`` +
    ``add``), so collecting a cohort's updates costs one row copy per
    client and aggregation never re-walks nested structures.  In a
    deployment this is where deserialized updates would land directly.

    This is the **dense fallback** of the fleet plane: memory grows
    linearly in cohort size, so it is reserved for ``requires_dense``
    rules (trimmed mean, coordinate median) and guarded by
    ``client_cap``.  Streaming rules fold through
    :class:`StreamingAccumulator` in constant memory instead.
    """

    def __init__(self, layout: Layout, capacity: int = 8, *,
                 client_cap: int = DENSE_CLIENT_CAP) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if client_cap < 1:
            raise ValueError(f"client_cap must be >= 1, got {client_cap}")
        if capacity > client_cap:
            raise ValueError(
                f"capacity {capacity} exceeds client_cap {client_cap}; "
                f"raise client_cap explicitly if a dense matrix of that "
                f"many clients is really intended")
        self.layout = layout
        self.client_cap = client_cap
        self._matrix = np.empty((capacity, layout.num_params),
                                dtype=layout.dtype)
        self._count = 0

    def reset(self) -> None:
        """Forget all collected rows (the matrix stays allocated)."""
        self._count = 0

    def ensure_capacity(self, num_clients: int) -> None:
        """Grow the matrix once to hold ``num_clients`` rows.

        Callers that know the cohort size up front (the server does)
        pre-size here instead of paying O(log n) doubling copies
        through :meth:`add`.  Collected rows are preserved.
        """
        if num_clients > self.client_cap:
            raise ValueError(
                f"dense UpdateBatch is capped at {self.client_cap} "
                f"clients, got {num_clients}; use StreamingAccumulator "
                f"for fleet-scale cohorts or raise client_cap")
        if num_clients <= len(self._matrix):
            return
        grown = np.empty((num_clients, self.layout.num_params),
                         dtype=self.layout.dtype)
        grown[:self._count] = self._matrix[:self._count]
        self._matrix = grown

    def add(self, update: WeightsLike) -> None:
        """Copy one client update into the next matrix row."""
        needed = self._count + 1
        if needed > self.client_cap:
            raise ValueError(
                f"dense UpdateBatch is capped at {self.client_cap} "
                f"clients; use StreamingAccumulator for fleet-scale "
                f"cohorts or raise client_cap")
        if needed > len(self._matrix):
            self.ensure_capacity(
                min(max(2 * len(self._matrix), needed), self.client_cap))
        store = as_store(update, layout=self.layout)
        self._matrix[self._count] = store.buffer
        self._count += 1

    @property
    def matrix(self) -> np.ndarray:
        """View of the filled ``(len(self), num_params)`` rows."""
        return self._matrix[:self._count]

    @property
    def nbytes(self) -> int:
        """Allocated matrix bytes (linear in collected capacity)."""
        return self._matrix.nbytes

    def __len__(self) -> int:
        return self._count


Updates = Sequence[WeightsLike] | UpdateBatch


def _check_nonempty(updates) -> None:
    if not len(updates):
        raise ValueError("cannot aggregate zero updates")


def _as_matrix(updates: Updates) -> tuple[np.ndarray, Layout]:
    """Materialize updates as a ``(num_clients, num_params)`` matrix."""
    _check_nonempty(updates)
    if isinstance(updates, UpdateBatch):
        return updates.matrix, updates.layout
    first = updates[0]
    layout = first.layout if isinstance(first, WeightStore) \
        else Layout.from_layers(first)
    matrix = np.empty((len(updates), layout.num_params),
                      dtype=layout.dtype)
    for row, update in zip(matrix, updates):
        row[:] = as_store(update, layout=layout).buffer
    return matrix, layout


def _weighted_colsum(matrix: np.ndarray, coeffs: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """``sum_i coeffs[i] * matrix[i]`` per column, chunked.

    ``einsum`` accumulates the client axis sequentially in the order
    of the legacy ``sum(c_i * u_i)`` loop, while the chunking keeps
    throughput high on out-of-cache models.  Each ``c_i * u_i + acc``
    step may execute as one fused multiply-add, so coordinates can
    differ from the reference by 1 ULP.
    """
    num_params = matrix.shape[1]
    # einsum would otherwise promote a float32 matrix against float64
    # coefficients; casting the (tiny) coefficient vector keeps the
    # reduction in the matrix's precision.  A float64 matrix sees the
    # exact same call as before.
    coeffs = np.asarray(coeffs, dtype=matrix.dtype)
    if out is None:
        out = np.empty(num_params, dtype=matrix.dtype)
    for lo in range(0, num_params, REDUCE_CHUNK):
        hi = min(lo + REDUCE_CHUNK, num_params)
        np.einsum("i,ip->p", coeffs, matrix[:, lo:hi], out=out[lo:hi])
    return out


class StreamingAccumulator:
    """Folds arriving flat updates into constant-memory partial sums.

    The fleet-plane reduction: each :meth:`fold` copies one update into
    a bounded staging block; a full block is flushed through the same
    chunked einsum the dense path uses, with the running partial carried
    into the next flush as an extra coefficient-1.0 row.  Because einsum
    accumulates the client axis sequentially, the carry row *continues*
    the dense reduction's accumulation chain rather than starting a new
    one — a cohort of any size folds to the same value the one-shot
    dense einsum produces (bitwise wherever einsum's accumulation is
    strictly in-order; never worse than the documented ULP envelope).

    Memory is ``(block + 1) x num_params`` staging plus one partial
    vector — independent of how many clients fold.

    Weighting has two modes, chosen per :meth:`reset`:

    * ``total_weight=t`` — the final mixing total is known up front (the
      round-closing policy fixes the completion set, and FedAvg weights
      are metadata that travels ahead of the update payloads).  Each
      row's einsum coefficient is ``weight / t``, exactly the
      normalized coefficient vector of the dense FedAvg path.
    * ``total_weight=None`` — plain weighted sum (secure aggregation's
      server step folds with weight 1.0 and rescales after
      :meth:`drain`; callers with a genuinely unknown total divide the
      drained sum by :attr:`weight_sum` themselves, accepting the one
      extra rounding that late normalization costs).
    """

    def __init__(self, layout: Layout, *,
                 block: int = STREAM_BLOCK) -> None:
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self.layout = layout
        self.block = block
        # Row 0 is reserved for the carried partial (coefficient 1.0);
        # client rows stage at 1..block.
        self._stage = np.empty((block + 1, layout.num_params),
                               dtype=layout.dtype)
        self._coeffs = np.empty(block + 1, dtype=np.float64)
        self._coeffs[0] = 1.0
        self._partial = np.empty(layout.num_params, dtype=layout.dtype)
        self.reset()

    def reset(self, total_weight: float | None = None) -> None:
        """Forget all folded rows and (re)declare the weighting mode."""
        if total_weight is not None and not total_weight > 0:
            raise ValueError(
                f"total weight must be positive, got {total_weight}")
        self._total = None if total_weight is None else float(total_weight)
        self._staged = 0
        self._count = 0
        self._weight_sum = 0.0
        self._flushed = False

    @property
    def count(self) -> int:
        """Updates folded since the last :meth:`reset`."""
        return self._count

    @property
    def weight_sum(self) -> float:
        """Sum of the raw fold weights seen since the last reset."""
        return self._weight_sum

    @property
    def nbytes(self) -> int:
        """Bytes the accumulator holds — constant in clients folded."""
        return (self._stage.nbytes + self._coeffs.nbytes
                + self._partial.nbytes)

    def fold(self, update: WeightsLike, weight: float = 1.0) -> None:
        """Fold one arriving client update with its mixing weight."""
        if self._staged == self.block:
            self._flush()
        row = 1 + self._staged
        store = as_store(update, layout=self.layout)
        self._stage[row] = store.buffer
        self._coeffs[row] = weight if self._total is None \
            else weight / self._total
        self._staged += 1
        self._count += 1
        self._weight_sum += weight

    def _flush(self) -> None:
        """Reduce the staged block into the partial vector."""
        k = self._staged
        if k == 0:
            return
        if self._flushed:
            # Carry the running partial as row 0 (coefficient 1.0):
            # einsum's sequential accumulation then continues the
            # previous flush's chain.  The copy keeps einsum's output
            # buffer disjoint from its inputs.
            self._stage[0] = self._partial
            _weighted_colsum(self._stage[:1 + k], self._coeffs[:1 + k],
                             out=self._partial)
        else:
            _weighted_colsum(self._stage[1:1 + k], self._coeffs[1:1 + k],
                             out=self._partial)
        self._flushed = True
        self._staged = 0

    def drain(self) -> WeightStore:
        """Finalize the reduction over everything folded so far.

        With a known ``total_weight`` the result is the finished
        weighted mean; otherwise it is the raw weighted sum.  The
        accumulator stays valid — further folds continue from the
        drained partial, and :meth:`reset` starts the next round.
        """
        if self._count == 0:
            raise ValueError("cannot aggregate zero updates")
        self._flush()
        return WeightStore(self.layout, self._partial.copy())


# ----------------------------------------------------------------------
# aggregation rules
# ----------------------------------------------------------------------

def fedavg(updates: Updates,
           num_samples: Sequence[int]) -> WeightStore:
    """Sample-count-weighted average of client updates (McMahan 2017)."""
    matrix, layout = _as_matrix(updates)
    if len(matrix) != len(num_samples):
        raise ValueError(f"{len(matrix)} updates vs "
                         f"{len(num_samples)} sample counts")
    total = float(sum(num_samples))
    if total <= 0:
        raise ValueError("total sample count must be positive")
    coeffs = np.asarray(num_samples, dtype=np.float64) / total
    return WeightStore(layout, _weighted_colsum(matrix, coeffs))


def sum_updates(updates: Updates) -> WeightStore:
    """Plain element-wise sum (the server step of secure aggregation)."""
    matrix, layout = _as_matrix(updates)
    ones = np.ones(len(matrix))
    return WeightStore(layout, _weighted_colsum(matrix, ones))


def scale_weights(weights: WeightsLike, factor: float) -> WeightsLike:
    """Multiply every coordinate by ``factor`` (returns a new value of
    the same representation)."""
    if isinstance(weights, WeightStore):
        return weights * factor
    return [{k: v * factor for k, v in layer.items()} for layer in weights]


def _blocks(total: int, width: int) -> list[tuple[int, int]]:
    """Ranges of ``width`` over ``range(total)``; a lone trailing index
    joins the range before it.

    numpy reduces a one-column block along its rows as a pairwise sum
    (not row by row, as for a wider matrix), and ``einsum`` contracts a
    one-row block with a different kernel than a taller one; folding
    the lone tail away keeps every block on the kernel the whole
    matrix would use.
    """
    bounds = [*range(0, total, width), total]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _sorted_mean(matrix: np.ndarray, start: int, stop: int, *,
                 propagate_nan: bool = False) -> np.ndarray:
    """Per column: the mean of the sorted rows ``start:stop``.

    Works on :data:`ORDER_CHUNK` columns at a time, so the temporaries
    are two chunk-sized blocks.  Each chunk is transposed so every
    column sorts in place as one contiguous row — the same sort kernel
    ``np.sort(..., axis=0)`` runs on each gathered column — and the
    sorted positions ``start:stop`` are laid out as rows again and
    averaged row by row, as ``mean(axis=0)`` does on the whole matrix.
    The result is bitwise equal to
    ``np.sort(matrix, axis=0)[start:stop].mean(axis=0)``, up to the
    payload of a NaN the mean makes from two NaNs.  NaNs sort last, so
    they rank above every number.  With ``propagate_nan`` a column
    holding a NaN instead yields ``np.median``'s result for it: the
    sort writes NaNs back as the default quiet NaN, so those (rare)
    columns are handed to ``np.median`` itself, which keeps the sign
    and payload of the NaN it returns.
    """
    n, num_cols = matrix.shape
    count = stop - start
    out = np.empty(num_cols, dtype=matrix.dtype)
    width = min(num_cols, ORDER_CHUNK + 1)
    ranked_buf = np.empty(width * n, dtype=matrix.dtype)
    middle_buf = np.empty(width * count, dtype=matrix.dtype)
    for lo, hi in _blocks(num_cols, ORDER_CHUNK):
        ranked = ranked_buf[:(hi - lo) * n].reshape(hi - lo, n)
        np.copyto(ranked, matrix[:, lo:hi].T)
        ranked.sort(axis=1)
        middle = middle_buf[:count * (hi - lo)].reshape(count, hi - lo)
        np.copyto(middle, ranked[:, start:stop].T)
        middle.mean(axis=0, out=out[lo:hi])
        if propagate_nan:
            nan_cols = lo + np.flatnonzero(np.isnan(ranked[:, -1]))
            if len(nan_cols):
                out[nan_cols] = np.median(matrix[:, nan_cols], axis=0)
    return out


def _median_rows(n: int) -> tuple[int, int]:
    """The sorted-row slice whose mean is the median of ``n`` values."""
    half = n // 2
    return (half, half + 1) if n % 2 else (half - 1, half + 1)


def trimmed_mean(updates: Updates, *, trim: int = 1) -> WeightStore:
    """Coordinate-wise mean after dropping the ``trim`` highest and
    lowest values (extension: Byzantine-robust aggregation)."""
    matrix, layout = _as_matrix(updates)
    n = len(matrix)
    if 2 * trim >= n:
        raise ValueError(f"trim={trim} removes all of {n} updates")
    return WeightStore(layout, _sorted_mean(matrix, trim, n - trim))


def coordinate_median(updates: Updates) -> WeightStore:
    """Coordinate-wise median (extension: Byzantine-robust aggregation).

    Bitwise ``np.median(matrix, axis=0)``, without its full copy.
    """
    matrix, layout = _as_matrix(updates)
    median = _sorted_mean(matrix, *_median_rows(len(matrix)),
                          propagate_nan=True)
    return WeightStore(layout, median)


#: Client rows per block of the clustered distance pass.  A block of
#: ``DISTANCE_ROWS + 1`` rows x :data:`REDUCE_CHUNK` float64 columns
#: (2.6 MB) is the one scratch the pass writes.  On a 35-client x
#: 226,340-param fold (2-vCPU Xeon, float64) a fresh
#: ``(clients, REDUCE_CHUNK)`` difference per chunk cost 37 ms, and
#: four-row blocks 20 ms (66 -> 48 ms with a coordinate mask).
DISTANCE_ROWS = 4

#: Minimum cohort for norm clustering to act; below this the distance
#: multiset is too small to separate and :func:`clustered_mean` falls
#: back to keeping every row (documented fallback, not an error).
CLUSTER_MIN_COHORT = 4

#: Separation factor for the norm clusters: the far cluster is only
#: discarded when its mean distance exceeds this multiple of the near
#: cluster's, so a homogeneous honest cohort is never filtered.
CLUSTER_SEPARATION = 2.0


def _cluster_distances(matrix: np.ndarray,
                       include: np.ndarray | None = None) -> np.ndarray:
    """Each row's L2 distance to the coordinate-median center.

    Both the center (:func:`_sorted_mean`, :data:`ORDER_CHUNK` columns
    at a time) and the distances (:data:`REDUCE_CHUNK` columns at a
    time) are chunked over columns, so the temporaries are bounded
    blocks and one ``(num_params,)`` center, never a
    ``(clients, params)`` copy.  Within a column chunk the differences
    are taken :data:`DISTANCE_ROWS` rows at a time into one reused
    scratch block (see :func:`_blocks` for the lone trailing row), so
    every row's squared distance is the same sum, in the same chunk
    order, as one ``einsum`` over the whole chunk.  The center is the
    median with NaNs ranked above every number: on NaN-free input it
    equals ``np.median`` bitwise, and one row's NaN cannot make it NaN
    (which would give every row a NaN distance).

    ``include`` is an optional boolean coordinate mask (segment-plane
    shape, ``(num_params,)``): False coordinates are excluded from the
    distance — how norm clustering ignores DINAR's obfuscated segment.
    Masked coordinates are set to zero in place (not compressed away),
    so every chunk keeps its shape and summation order and an all-True
    mask reproduces the unmasked distances bitwise.  Setting (not
    multiplying by the mask) keeps an ``inf`` or NaN hidden in a masked
    coordinate out of the distance.
    """
    n, num_cols = matrix.shape
    center = _sorted_mean(matrix, *_median_rows(n))
    exclude = None if include is None else ~include
    row_blocks = _blocks(n, DISTANCE_ROWS)
    scratch = np.empty(
        max(hi - lo for lo, hi in row_blocks) * min(num_cols, REDUCE_CHUNK),
        dtype=np.result_type(matrix, center))
    sq = np.zeros(n)
    for lo in range(0, num_cols, REDUCE_CHUNK):
        hi = min(lo + REDUCE_CHUNK, num_cols)
        for top, bottom in row_blocks:
            diff = scratch[:(bottom - top) * (hi - lo)].reshape(
                bottom - top, hi - lo)
            np.subtract(matrix[top:bottom, lo:hi], center[lo:hi],
                        out=diff)
            if exclude is not None:
                np.copyto(diff, 0.0, where=exclude[lo:hi])
            sq[top:bottom] += np.einsum("ip,ip->i", diff, diff)
    return np.sqrt(sq)


def _norm_cluster_keep(dist: np.ndarray) -> np.ndarray:
    """Boolean keep-mask from deterministic 1-D 2-means over distances.

    Centers initialize at the min/max distance and iterate to a fixed
    point; the computation depends only on the distance *multiset*, so
    the mask is client-permutation-equivariant.  The far cluster is
    dropped only when clearly separated (``CLUSTER_SEPARATION``);
    otherwise everything is kept.  A NaN distance (a NaN in a counted
    coordinate) always lands in the far cluster and the rest are
    clustered without it; only when every distance is NaN is
    everything kept.
    """
    n = len(dist)
    keep_all = np.ones(n, dtype=bool)
    valid = ~np.isnan(dist)
    if not valid.all():
        if not valid.any():
            return keep_all
        keep = valid.copy()
        keep[valid] = _norm_cluster_keep(dist[valid])
        return keep
    near, far = float(dist.min()), float(dist.max())
    if not far > CLUSTER_SEPARATION * near + 1e-12:
        return keep_all
    for _ in range(32):
        mask = np.abs(dist - near) <= np.abs(dist - far)
        if mask.all() or not mask.any():
            return keep_all
        new_near = float(dist[mask].mean())
        new_far = float(dist[~mask].mean())
        if new_near == near and new_far == far:
            break
        near, far = new_near, new_far
    if not far > CLUSTER_SEPARATION * near + 1e-12:
        return keep_all
    return mask


def clustered_mean(updates: Updates,
                   num_samples: Sequence[int] | None = None, *,
                   diagnostics: dict | None = None,
                   distance_include: np.ndarray | None = None
                   ) -> WeightStore:
    """Norm-clustering robust mean over flat update rows (extension).

    Cheap now that updates are contiguous ``(clients, params)`` rows:
    compute each row's distance to the coordinate-median center,
    2-means-cluster the distance multiset, discard the far cluster
    when it is clearly separated, and FedAvg the kept rows (sample-
    weighted when ``num_samples`` is given).  Cohorts smaller than
    ``CLUSTER_MIN_COHORT`` keep every row.

    ``distance_include`` restricts the distance metric to a boolean
    coordinate mask (see :func:`_cluster_distances`) — e.g. the
    complement of DINAR's obfuscated segment — while the kept rows are
    still averaged over *all* coordinates.

    ``diagnostics``, when passed, receives ``kept`` / ``filtered``
    (row indices) and ``distances`` — this is how the server reports
    *which* clients a robustness filter rejected, the observable the
    DINAR-looks-byzantine question hinges on.
    """
    matrix, layout = _as_matrix(updates)
    n = len(matrix)
    if num_samples is not None and len(num_samples) != n:
        raise ValueError(f"{n} updates vs "
                         f"{len(num_samples)} sample counts")
    if distance_include is not None \
            and distance_include.shape != (matrix.shape[1],):
        raise ValueError(
            f"distance_include shape {distance_include.shape} does not "
            f"match {matrix.shape[1]} params")
    dist = _cluster_distances(matrix, distance_include)
    if n < CLUSTER_MIN_COHORT:
        keep = np.ones(n, dtype=bool)
    else:
        keep = _norm_cluster_keep(dist)
    kept = np.flatnonzero(keep)
    if diagnostics is not None:
        diagnostics["kept"] = [int(i) for i in kept]
        diagnostics["filtered"] = [int(i) for i in np.flatnonzero(~keep)]
        diagnostics["distances"] = dist
    sub = matrix[kept]
    if num_samples is None:
        coeffs = np.full(len(kept), 1.0 / len(kept))
    else:
        counts = np.asarray(num_samples, dtype=np.float64)[kept]
        total = float(counts.sum())
        if total <= 0:
            raise ValueError("total sample count must be positive")
        coeffs = counts / total
    return WeightStore(layout, _weighted_colsum(sub, coeffs))


# ----------------------------------------------------------------------
# rule capabilities
# ----------------------------------------------------------------------

# Weighted sums fold one arrival at a time; order statistics over the
# client axis need every row at once.  ``requires_dense`` is the
# explicit capability the server consults: streaming rules go through
# StreamingAccumulator in constant memory, dense rules go through a
# cap-guarded UpdateBatch.
fedavg.requires_dense = False
sum_updates.requires_dense = False
trimmed_mean.requires_dense = True
coordinate_median.requires_dense = True
clustered_mean.requires_dense = True

#: Rule name -> callable, with the capability attributes above.
AGGREGATION_RULES = {
    "fedavg": fedavg,
    "sum": sum_updates,
    "trimmed_mean": trimmed_mean,
    "coordinate_median": coordinate_median,
    "clustered": clustered_mean,
}

#: ``FLConfig.aggregator`` / ``--aggregator`` choices: every registry
#: rule a user can pick end-to-end ("sum" is secure aggregation's
#: internal server step, not a standalone aggregator).
AGGREGATOR_CHOICES = ("fedavg", "trimmed_mean", "coordinate_median",
                      "clustered")


def requires_dense(rule) -> bool:
    """Whether an aggregation rule needs the full client matrix.

    Unknown rules conservatively report dense: anything that has not
    declared it can stream must not be handed an iterator.
    """
    if isinstance(rule, str):
        rule = AGGREGATION_RULES[rule]
    return bool(getattr(rule, "requires_dense", True))


# ----------------------------------------------------------------------
# the seed implementation, retained as the oracle
# ----------------------------------------------------------------------

def fedavg_reference(updates: Sequence[Weights],
                     num_samples: Sequence[int]) -> Weights:
    """The original nested-dict FedAvg (kept verbatim).

    Property tests assert :func:`fedavg` matches it to within 2 ULP
    (FMA contraction inside einsum), and
    ``benchmarks/test_perf_aggregation.py`` times it against the
    vectorized path.
    """
    _check_nonempty(updates)
    if len(updates) != len(num_samples):
        raise ValueError(f"{len(updates)} updates vs "
                         f"{len(num_samples)} sample counts")
    total = float(sum(num_samples))
    if total <= 0:
        raise ValueError("total sample count must be positive")
    out: Weights = []
    for layer_idx in range(len(updates[0])):
        merged: dict[str, np.ndarray] = {}
        for key in updates[0][layer_idx]:
            merged[key] = sum(
                (n / total) * u[layer_idx][key]
                for u, n in zip(updates, num_samples))
        out.append(merged)
    return out
