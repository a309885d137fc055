"""Optimizers over the flat parameter plane.

Every update rule operates on the model's flat weight buffer and flat
gradient buffer — no per-``(layer, key)`` Python loop — with optimizer
state held as flat vectors of the same length.  Gradient coordinates of
non-trainable buffers (batch-norm running statistics) are permanently
zero, which makes every whole-buffer update a bitwise no-op there, so
the flat rules reproduce the legacy per-array loops bit for bit.

The base class walks the flat buffers in :data:`STEP_BLOCK`-coordinate
blocks and hands each block to the rule's ``_update_block`` kernel,
which evaluates the rule's textbook expression with ``out=`` ufuncs
into two block-sized scratch vectors, in the expression's own operation
order.  Every operation is elementwise and correctly rounded, so the
blocked step equals the whole-vector expression bitwise, while the
working set stays in cache and no step allocates a param-sized
temporary.  Scalar hyperparameters are Python floats, which keep a
float32 plane in float32 exactly as the whole-vector expression did.

``Adagrad`` implements Algorithm 1 (lines 8–14) of the paper verbatim:
cumulative squared gradients ``G`` and the update
``theta <- theta - lr * g / sqrt(G + 1e-5)`` (the stabilizer sits *inside*
the square root, as written in the paper).  The remaining optimizers back
the Fig. 11 ablation study: Adam, AdaMax, RMSProp, plain/momentum SGD and
ADGD (Malitsky & Mishchenko's adaptive gradient descent without descent).
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.model import Model
from repro.nn.store import chunked_sq_sum

#: Coordinates per optimizer block.  Params, grads, up to two state
#: slots and the two scratch vectors of this length fit a 2 MiB L2 at
#: float64; on the 226,340-param Purchase100 FCNN (Xeon, 2 MiB L2 per
#: core) an Adagrad step drops from 2.4 to 1.0 ms at float64.  Smaller
#: blocks pay more per-block Python overhead (8192: 1.14 ms).
STEP_BLOCK = 32768


class Optimizer:
    """Base optimizer bound to a model's flat parameter plane.

    State slots (:meth:`_slot`) are flat vectors parallel to the weight
    buffer, keyed by name (``"momentum"``, ``"accum"``, ``"m"``, …), so
    a client can keep its optimizer across FL rounds even though the
    model weights are overwritten by the server at the start of each
    round.

    A rule names its slots in :attr:`slots` and implements
    :meth:`_update_block`; :meth:`step` runs the block loop.
    """

    #: State slots :meth:`step` passes to :meth:`_update_block`, in
    #: this order, after the params, grads and two scratch blocks.
    slots: tuple[str, ...] = ()

    def __init__(self, model: Model, lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.model = model
        self.lr = lr
        self.state: dict[str, np.ndarray] = {}
        self.steps = 0
        # Model structure is fixed after construction, so this is a
        # constant; a parameterless model makes step() a no-op.
        self._paramless = model.num_trainable_layers == 0
        self._scratch: np.ndarray | None = None

    def _flat_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """The live (weights, gradients) buffer pair, post-backward."""
        if not self.model.grads_ready:
            raise RuntimeError(
                f"no gradients on {self.model.name}; run "
                "loss_and_grad before step()")
        return self.model.weights.buffer, self.model.grad_vector

    def step(self) -> None:
        """Apply one update from the gradients currently on the model."""
        self.steps += 1
        if self._paramless:
            return
        params, grads = self._flat_buffers()
        flats = (params, grads) + tuple(self._slot(name)
                                        for name in self.slots)
        size = len(params)
        scratch = self._scratch
        if scratch is None:
            scratch = np.empty((2, min(size, STEP_BLOCK)),
                               dtype=params.dtype)
            self._scratch = scratch
        for lo in range(0, size, STEP_BLOCK):
            hi = min(lo + STEP_BLOCK, size)
            p, g, *state = (flat[lo:hi] for flat in flats)
            self._update_block(p, g, scratch[0, :hi - lo],
                               scratch[1, :hi - lo], *state)

    def _update_block(self, p: np.ndarray, g: np.ndarray, t: np.ndarray,
                      u: np.ndarray, *state: np.ndarray) -> None:
        """Update one block of params ``p`` from grads ``g`` in place.

        ``t`` and ``u`` are scratch of the block's length (contents
        unspecified); ``state`` holds the blocks of :attr:`slots`.
        """
        raise NotImplementedError

    def _slot(self, name: str) -> np.ndarray:
        """A named flat state vector, zero-initialized on first use.

        Allocated in the weight buffer's dtype so optimizer state never
        drags a float32 plane back up to double precision.
        """
        buf = self.state.get(name)
        if buf is None:
            buf = np.zeros_like(self.model.weights.buffer)
            self.state[name] = buf
        return buf

    def reset(self) -> None:
        """Drop accumulated state (fresh start, e.g. for a new FL task)."""
        self.state.clear()
        self.steps = 0


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, model: Model, lr: float,
                 momentum: float = 0.0) -> None:
        super().__init__(model, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.slots = ("momentum",) if momentum else ()

    def _update_block(self, p, g, t, u, *state) -> None:
        if self.momentum:
            # buf = momentum * buf + g;  p -= lr * buf
            (buf,) = state
            buf *= self.momentum
            buf += g
            g = buf
        # p -= lr * g
        np.multiply(g, self.lr, out=t)
        p -= t


class Adagrad(Optimizer):
    """The paper's adaptive model training (Algorithm 1, lines 8–14)."""

    slots = ("accum",)

    def __init__(self, model: Model, lr: float, eps: float = 1e-5) -> None:
        super().__init__(model, lr)
        self.eps = eps

    def _update_block(self, p, g, t, u, accum) -> None:
        # accum += g ** 2;  p -= lr * g / sqrt(accum + eps)
        np.square(g, out=t)
        accum += t
        np.add(accum, self.eps, out=t)
        np.sqrt(t, out=t)
        np.multiply(g, self.lr, out=u)
        u /= t
        p -= u


class RMSProp(Optimizer):
    """RMSProp with exponentially decayed squared-gradient average."""

    slots = ("accum",)

    def __init__(self, model: Model, lr: float, decay: float = 0.9,
                 eps: float = 1e-8) -> None:
        super().__init__(model, lr)
        self.decay = decay
        self.eps = eps

    def _update_block(self, p, g, t, u, accum) -> None:
        # accum = decay * accum + (1 - decay) * g ** 2
        accum *= self.decay
        np.square(g, out=t)
        t *= 1.0 - self.decay
        accum += t
        # p -= lr * g / (sqrt(accum) + eps)
        np.sqrt(accum, out=t)
        t += self.eps
        np.multiply(g, self.lr, out=u)
        u /= t
        p -= u


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    slots = ("m", "v")

    def __init__(self, model: Model, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8) -> None:
        super().__init__(model, lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps

    def _update_block(self, p, g, t, u, m, v) -> None:
        # m = beta1 * m + (1 - beta1) * g
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=t)
        m += t
        # v = beta2 * v + (1 - beta2) * g ** 2
        v *= self.beta2
        np.square(g, out=t)
        t *= 1.0 - self.beta2
        v += t
        # p -= lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(m, 1.0 - self.beta1 ** self.steps, out=u)
        u *= self.lr
        np.divide(v, 1.0 - self.beta2 ** self.steps, out=t)
        np.sqrt(t, out=t)
        t += self.eps
        u /= t
        p -= u


class AdaMax(Optimizer):
    """AdaMax — the infinity-norm variant of Adam (Kingma & Ba, 2015)."""

    slots = ("m", "u")

    def __init__(self, model: Model, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8) -> None:
        super().__init__(model, lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps

    def _update_block(self, p, g, t, u, m, inf_norm) -> None:
        # m = beta1 * m + (1 - beta1) * g
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=t)
        m += t
        # inf_norm = max(beta2 * inf_norm, |g|)
        np.multiply(inf_norm, self.beta2, out=t)
        np.abs(g, out=u)
        np.maximum(t, u, out=inf_norm)
        # p -= lr * m_hat / (inf_norm + eps)
        np.divide(m, 1.0 - self.beta1 ** self.steps, out=u)
        u *= self.lr
        np.add(inf_norm, self.eps, out=t)
        u /= t
        p -= u


class ADGD(Optimizer):
    """Adaptive gradient descent without descent (Malitsky & Mishchenko).

    A single scalar step size is adapted from the observed local
    smoothness ``||x_k - x_{k-1}|| / (2 ||g_k - g_{k-1}||)``; no
    hyper-parameter beyond the initial step.

    The original rule targets deterministic gradients.  With minibatch
    noise the smoothness estimate ``dx / (2 dg)`` is corrupted in both
    directions — gradient noise inflates ``dg`` (collapsing the step
    to zero) while the ``sqrt(1 + theta)`` growth path can run away —
    so the adapted step is clamped to ``[lr / cap_factor,
    lr * cap_factor]``, a standard stochastic safeguard.

    Snapshots of the previous iterate/gradient are single flat buffer
    copies, and the norms fold per layout entry
    (:func:`~repro.nn.store.chunked_sq_sum`) over the trainable
    coordinates only, reproducing the legacy per-array reduction
    bitwise.
    """

    def __init__(self, model: Model, lr: float,
                 cap_factor: float = 2.0) -> None:
        super().__init__(model, lr)
        if cap_factor <= 1.0:
            raise ValueError(f"cap_factor must be > 1, got {cap_factor}")
        self._cap = cap_factor * lr
        self._floor = lr / cap_factor
        self._lam = lr
        self._theta = float("inf")
        self._prev_params: np.ndarray | None = None
        self._prev_grads: np.ndarray | None = None

    def step(self) -> None:
        self.steps += 1
        if self._paramless:
            return
        params, grads = self._flat_buffers()
        if self._prev_params is not None:
            chunks = self.model.weight_layout().param_entry_slices
            dx = math.sqrt(
                chunked_sq_sum(params - self._prev_params, chunks))
            dg = math.sqrt(
                chunked_sq_sum(grads - self._prev_grads, chunks))
            candidate = math.sqrt(1.0 + self._theta) * self._lam
            if dg > 1e-12:
                candidate = min(candidate, dx / (2.0 * dg))
            candidate = min(max(candidate, self._floor), self._cap)
            self._theta = candidate / self._lam
            self._lam = candidate

        self._prev_params = params.copy()
        self._prev_grads = grads.copy()
        params -= self._lam * grads

    def reset(self) -> None:
        super().reset()
        self._lam = self.lr
        self._theta = float("inf")
        self._prev_params = None
        self._prev_grads = None


_REGISTRY = {
    "sgd": SGD,
    "adagrad": Adagrad,
    "rmsprop": RMSProp,
    "adam": Adam,
    "adamax": AdaMax,
    "adgd": ADGD,
}


def make_optimizer(name: str, model: Model, lr: float, **kwargs) -> Optimizer:
    """Build an optimizer by name (the Fig. 11 ablation switch)."""
    try:
        cls = _REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown optimizer {name!r}; known: {sorted(_REGISTRY)}") from None
    return cls(model, lr, **kwargs)


def optimizer_names() -> list[str]:
    """Names accepted by :func:`make_optimizer`."""
    return sorted(_REGISTRY)
