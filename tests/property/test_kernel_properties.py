"""Hot-path kernels against the expressions they replace, bit for bit.

* The chunked order statistics in ``repro.fl.aggregation`` against
  ``np.median`` and the whole-matrix ``np.sort`` trimmed mean, over
  matrices salted with signed zeros, NaN, infinities and huge values,
  odd and even cohorts, and column counts off the chunk grid.
* Each blocked optimizer step in ``repro.nn.optim`` against the
  whole-vector update expression it had before blocking, at float32
  and float64, at sizes around the block boundary, over several steps
  (Adam/AdaMax bias correction) and with permanently-zero gradient
  coordinates (the non-trainable buffers of a real model).

Equality is on ``tobytes()``, so ``-0.0`` vs ``0.0``, NaN vs a number
and NaN vs ``-NaN`` count as differences.  The one exception is the
trimmed mean's NaN sign and payload, which the whole-matrix sort
already rewrites and which a sum of two NaNs takes from one operand,
chosen by whether the column lands in a SIMD body or a scalar tail of
numpy's add loop — where the chunk boundaries fall, not the arithmetic.
"""

from __future__ import annotations

import types

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.aggregation import (
    ORDER_CHUNK,
    coordinate_median,
    trimmed_mean,
)
from repro.nn.optim import STEP_BLOCK, make_optimizer

SPECIALS = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e308,
                     -1e308, 5e-324, -1e-45, 1.0, -1.0])
COLUMNS = (1, 2, 7, ORDER_CHUNK - 1, ORDER_CHUNK, ORDER_CHUNK + 1,
           ORDER_CHUNK + 3, 2 * ORDER_CHUNK + 1, 2 * ORDER_CHUNK + 5)
DTYPES = (np.float64, np.float32)


def _salted_matrix(seed: int, rows: int, cols: int, dtype,
                   salt: float) -> np.ndarray:
    """Normal values with a ``salt`` fraction replaced by specials
    (few distinct values per column, so ties are common)."""
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((rows, cols))
    hit = rng.random((rows, cols)) < salt
    matrix[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
    with np.errstate(over="ignore"):
        return matrix.astype(dtype)


def _rows(matrix: np.ndarray) -> list[list[dict]]:
    return [[{"W": row.copy()}] for row in matrix]


order_cases = st.tuples(
    st.integers(0, 2**32 - 1),          # seed
    st.integers(1, 24),                 # cohort: odd and even
    st.sampled_from(COLUMNS),
    st.sampled_from(DTYPES),
    st.sampled_from((0.0, 0.05, 0.5, 1.0)),  # special-value salt
)


@settings(max_examples=60, deadline=None)
@given(order_cases)
def test_median_is_np_median_bitwise(case):
    seed, rows, cols, dtype, salt = case
    matrix = _salted_matrix(seed, rows, cols, dtype, salt)
    with np.errstate(all="ignore"):
        expected = np.median(matrix, axis=0)
        got = coordinate_median(_rows(matrix)).buffer
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(order_cases, st.integers(0, 11))
def test_trimmed_mean_is_whole_sort_bitwise(case, trim):
    seed, rows, cols, dtype, salt = case
    if 2 * trim >= rows:
        trim = (rows - 1) // 2
    matrix = _salted_matrix(seed, rows, cols, dtype, salt)
    with np.errstate(all="ignore"):
        # the rule before chunking, verbatim
        ranked = np.sort(matrix, axis=0)
        expected = ranked[trim:rows - trim].mean(axis=0)
        got = trimmed_mean(_rows(matrix), trim=trim).buffer
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


# ----------------------------------------------------------------------
# optimizers: the whole-vector rules as they were before blocking
# ----------------------------------------------------------------------

def _sgd(o, params, grads, state):
    if o.momentum:
        buf = state.setdefault("momentum", np.zeros_like(params))
        buf *= o.momentum
        buf += grads
        params -= o.lr * buf
    else:
        params -= o.lr * grads


def _adagrad(o, params, grads, state):
    accum = state.setdefault("accum", np.zeros_like(params))
    accum += grads ** 2
    params -= o.lr * grads / np.sqrt(accum + o.eps)


def _rmsprop(o, params, grads, state):
    accum = state.setdefault("accum", np.zeros_like(params))
    accum *= o.decay
    accum += (1.0 - o.decay) * grads ** 2
    params -= o.lr * grads / (np.sqrt(accum) + o.eps)


def _adam(o, params, grads, state):
    m = state.setdefault("m", np.zeros_like(params))
    v = state.setdefault("v", np.zeros_like(params))
    m *= o.beta1
    m += (1.0 - o.beta1) * grads
    v *= o.beta2
    v += (1.0 - o.beta2) * grads ** 2
    m_hat = m / (1.0 - o.beta1 ** o.steps)
    v_hat = v / (1.0 - o.beta2 ** o.steps)
    params -= o.lr * m_hat / (np.sqrt(v_hat) + o.eps)


def _adamax(o, params, grads, state):
    m = state.setdefault("m", np.zeros_like(params))
    u = state.setdefault("u", np.zeros_like(params))
    m *= o.beta1
    m += (1.0 - o.beta1) * grads
    np.maximum(o.beta2 * u, np.abs(grads), out=u)
    m_hat = m / (1.0 - o.beta1 ** o.steps)
    params -= o.lr * m_hat / (u + o.eps)


REFERENCE = {"sgd": _sgd, "adagrad": _adagrad, "rmsprop": _rmsprop,
             "adam": _adam, "adamax": _adamax}
SIZES = (1, 5, STEP_BLOCK - 1, STEP_BLOCK, STEP_BLOCK + 1,
         2 * STEP_BLOCK + 7)


def _flat_model(params: np.ndarray, grads: np.ndarray):
    """The slice of ``Model`` an optimizer step reads."""
    return types.SimpleNamespace(
        num_trainable_layers=1, grads_ready=True,
        weights=types.SimpleNamespace(buffer=params), grad_vector=grads)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(REFERENCE)), st.sampled_from(SIZES),
       st.sampled_from(DTYPES), st.sampled_from((1e-3, 0.05, 0.7)),
       st.sampled_from((0.0, 0.9)), st.integers(0, 2**32 - 1))
def test_blocked_step_is_whole_vector_rule_bitwise(name, size, dtype, lr,
                                                   momentum, seed):
    rng = np.random.default_rng(seed)
    params = rng.standard_normal(size).astype(dtype)
    grads = np.empty_like(params)
    # coordinates whose gradient is zero on every step: a real model's
    # non-trainable buffers (batch-norm running statistics)
    frozen = rng.random(size) < 0.1
    kwargs = {"momentum": momentum} if name == "sgd" else {}
    optimizer = make_optimizer(name, _flat_model(params, grads), lr,
                               **kwargs)
    expected = params.copy()
    state: dict[str, np.ndarray] = {}
    for _ in range(3):
        grads[...] = rng.standard_normal(size) * 0.1
        grads[frozen] = 0.0
        optimizer.step()
        REFERENCE[name](optimizer, expected, grads, state)
        assert params.tobytes() == expected.tobytes()
        assert params.dtype == dtype
    for key, value in state.items():
        assert optimizer.state[key].tobytes() == value.tobytes()
