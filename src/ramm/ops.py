"""Numeric kernels with hand-written backward passes.

Every operation builds a Node whose vjp closure encodes the analytic
gradient for exactly that op; reverse traversal of the resulting graph is
plain accumulation. There is no generic rule engine: if an op is not listed
here it cannot be differentiated.

Shapes follow a "last two axes are the matrix" convention so the same
kernels serve unbatched (n, d) states, batched (B, n, d) states and per-head
attention. Learned weights and biases are shared over all leading axes.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeError
from .tensor import Tensor


class Node:
    """Value plus optional gradient; the training-time dual of a Tensor."""

    __slots__ = ("value", "grad", "parents", "vjp", "requires_grad")

    def __init__(self, value, parents=(), vjp=None, requires_grad=None):
        if isinstance(value, Tensor):
            value = value.array
        self.value = np.asarray(value)
        self.parents = tuple(parents)
        self.vjp = vjp
        if requires_grad is None:
            requires_grad = any(p.requires_grad for p in self.parents)
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def __repr__(self):
        return f"Node(shape={self.value.shape}, requires_grad={self.requires_grad})"


def param(value) -> Node:
    """Leaf node that accumulates a gradient."""
    if isinstance(value, Tensor):
        value = value.array
    return Node(np.asarray(value), requires_grad=True)


def constant(value) -> Node:
    if isinstance(value, Node):
        return value
    if isinstance(value, Tensor):
        value = value.array
    return Node(np.asarray(value), requires_grad=False)


def as_node(x) -> Node:
    return x if isinstance(x, Node) else constant(x)


def backward(root: Node) -> None:
    """Accumulate gradients of a scalar root into every reachable leaf."""
    if root.value.size != 1:
        raise ShapeError(f"backward root must be scalar, got {root.value.shape}")
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node.vjp is None or node.grad is None:
            continue
        for parent, pgrad in zip(node.parents, node.vjp(node.grad)):
            if pgrad is None or not parent.requires_grad:
                continue
            # out of place: a vjp may hand one array to several parents
            if parent.grad is None:
                parent.grad = pgrad
            else:
                parent.grad = parent.grad + pgrad


def zero_grads(nodes: Iterable[Node]) -> None:
    for n in nodes:
        n.grad = None


def _swap(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def matmul(a, b) -> Node:
    """Matrix product over the last two axes; leading axes must match."""
    a, b = as_node(a), as_node(b)
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got {a.shape} and {b.shape}")
    if a.value.shape[-1] != b.value.shape[-2] or a.value.shape[:-2] != b.value.shape[:-2]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out = a.value @ b.value

    def vjp(g):
        return g @ _swap(b.value), _swap(a.value) @ g

    return Node(out, (a, b), vjp)


def transpose(a, axes: Sequence[int] | None = None) -> Node:
    a = as_node(a)
    if axes is None:
        axes = tuple(range(a.value.ndim - 2)) + (a.value.ndim - 1, a.value.ndim - 2)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return Node(np.transpose(a.value, axes), (a,), lambda g: (np.transpose(g, inv),))


def reshape(a, shape: Sequence[int]) -> Node:
    a = as_node(a)
    orig = a.value.shape
    return Node(a.value.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def add(a, b) -> Node:
    """a + b; b may lack leading axes of a and is then shared across them."""
    a, b = as_node(a), as_node(b)
    extra = a.value.ndim - b.value.ndim
    if extra < 0 or a.value.shape[extra:] != b.value.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    if extra == 0:
        return Node(a.value + b.value, (a, b), lambda g: (g, g))
    lead = tuple(range(extra))
    return Node(a.value + b.value, (a, b), lambda g: (g, g.sum(axis=lead)))


def mul(a, b) -> Node:
    """Elementwise product (same shape); used for dropout masks."""
    a, b = as_node(a), as_node(b)
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    return Node(a.value * b.value, (a, b), lambda g: (g * b.value, g * a.value))


def scale(a, s: float) -> Node:
    a = as_node(a)
    return Node(a.value * s, (a,), lambda g: (g * s,))


def linear(x, w, b) -> Node:
    """x @ w + b; realizes every learned projection in the model. The (k, n)
    weight and (n,) bias are shared over all leading axes of x, so a batch
    of items costs one matrix product."""
    x, w, b = as_node(x), as_node(w), as_node(b)
    if w.value.ndim != 2 or x.value.shape[-1] != w.value.shape[0]:
        raise ShapeError(f"linear shape mismatch: {x.shape} x {w.shape}")
    k, n = w.value.shape
    if b.value.shape != (n,):
        raise ShapeError(f"bias shape {b.shape} does not fit {w.shape}")
    x2 = x.value.reshape(-1, k)
    out = (x2 @ w.value + b.value).reshape(x.value.shape[:-1] + (n,))

    def vjp(g):
        g2 = g.reshape(-1, n)
        return (g2 @ w.value.T).reshape(x.value.shape), x2.T @ g2, g2.sum(axis=0)

    return Node(out, (x, w, b), vjp)


def softmax_rows(x, mask: np.ndarray | None = None) -> Node:
    """Softmax along the last axis with per-row max subtraction.

    `mask` is an additive constant broadcast onto x: 0 keeps an entry, a
    large finite negative drops it. Finite, so a row whose every entry is
    dropped stays finite (uniform) instead of turning into NaN."""
    x = as_node(x)
    z = x.value if mask is None else (x.value + mask).astype(x.dtype, copy=False)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return Node(y, (x,), vjp)


def scaled_dot_attention(q, k, v, mask: np.ndarray | None = None) -> Node:
    """softmax(q kᵀ / sqrt(d_k) + mask) v over the last two axes; `mask` is
    an additive key-padding mask broadcast onto the (..., nq, nk) scores."""
    q, k, v = as_node(q), as_node(k), as_node(v)
    if q.value.shape[-1] != k.value.shape[-1]:
        raise ShapeError(f"query/key dim mismatch: {q.shape} vs {k.shape}")
    if k.value.shape[-2] != v.value.shape[-2]:
        raise ShapeError(f"key/value count mismatch: {k.shape} vs {v.shape}")
    d_k = q.value.shape[-1]
    scores = scale(matmul(q, transpose(k)), 1.0 / math.sqrt(d_k))
    return matmul(softmax_rows(scores, mask), v)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Node:
    """Per-row standardization over the last axis, then affine."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    x, gain, bias = as_node(x), as_node(gain), as_node(bias)
    d = x.value.shape[-1]
    if gain.value.shape != (d,) or bias.value.shape != (d,):
        raise ShapeError(f"gain/bias must be ({d},)")
    mu = x.value.mean(axis=-1, keepdims=True)
    var = x.value.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.value - mu) * inv
    y = xhat * gain.value + bias.value

    def vjp(g):
        lead = tuple(range(x.value.ndim - 1))
        gxhat = g * gain.value
        gx = inv * (
            gxhat
            - gxhat.mean(axis=-1, keepdims=True)
            - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)

    return Node(y, (x, gain, bias), vjp)


# Tanh approximation of the Gaussian error linear unit:
#   gelu(x) = 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x) -> Node:
    x = as_node(x)
    u = _GELU_C * (x.value + _GELU_A * x.value**3)
    t = np.tanh(u)
    y = 0.5 * x.value * (1.0 + t)

    def vjp(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * x.value**2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x.value * (1.0 - t**2) * du),)

    return Node(y, (x,), vjp)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy(logits, targets, weights=None) -> Node:
    """Mean negative log-softmax of the target class; grad=(softmax-onehot)/m.

    With `weights` (one per row) the loss is their weighted sum instead of
    the mean, and row i's gradient is scaled by weights[i]."""
    logits = as_node(logits)
    targets = np.asarray(targets, dtype=np.int64)
    m, c = logits.value.shape
    if targets.shape != (m,):
        raise ShapeError(f"targets must have shape ({m},), got {targets.shape}")
    if targets.min() < 0 or targets.max() >= c:
        raise IndexError(f"target out of range [0, {c})")
    logp = _log_softmax(logits.value)
    picked = logp[np.arange(m), targets]
    if weights is None:
        loss, scale_rows = -picked.mean(), 1.0 / m
    else:
        w = np.asarray(weights, dtype=logits.dtype)
        if w.shape != (m,):
            raise ShapeError(f"weights must have shape ({m},), got {w.shape}")
        loss, scale_rows = -(w * picked).sum(), w[:, None]

    def vjp(g):
        soft = np.exp(logp)
        soft[np.arange(m), targets] -= 1.0
        return (g * soft * scale_rows,)

    return Node(np.asarray(loss, dtype=logits.dtype), (logits,), vjp)


def soft_cross_entropy(logits, target_probs) -> Node:
    """Mean of -sum(target * log_softmax(logits)); targets are constants."""
    logits = as_node(logits)
    t = np.asarray(target_probs, dtype=np.float64)
    if t.shape != logits.value.shape:
        raise ShapeError(f"target shape {t.shape} vs logits {logits.value.shape}")
    m = logits.value.shape[0]
    logp = _log_softmax(logits.value)
    loss = -(t * logp).sum() / m

    def vjp(g):
        soft = np.exp(logp)
        return (g * (soft * t.sum(axis=-1, keepdims=True) - t) / m,)

    return Node(np.asarray(loss, dtype=logits.dtype), (logits,), vjp)


def kl_divergence(p_logits, q_logits) -> Node:
    """Mean over rows of KL(softmax(p) || softmax(q))."""
    p_logits, q_logits = as_node(p_logits), as_node(q_logits)
    if p_logits.value.shape != q_logits.value.shape:
        raise ShapeError(
            f"kl shape mismatch: {p_logits.value.shape} vs {q_logits.value.shape}"
        )
    m = p_logits.value.shape[0]
    lp = _log_softmax(p_logits.value)
    lq = _log_softmax(q_logits.value)
    p = np.exp(lp)
    diff = lp - lq
    loss = (p * diff).sum() / m

    def vjp(g):
        row = (p * diff).sum(axis=-1, keepdims=True)
        gp = p * (diff - row) / m
        gq = (np.exp(lq) - p) / m
        return g * gp, g * gq

    return Node(np.asarray(loss, dtype=p_logits.dtype), (p_logits, q_logits), vjp)


def symmetric_kl(p_logits, q_logits) -> Node:
    """(KL(p||q) + KL(q||p)) / 2, the R-Drop consistency term."""
    return scale(add(kl_divergence(p_logits, q_logits), kl_divergence(q_logits, p_logits)), 0.5)


def l2_normalize_rows(x, eps: float = 1e-12) -> Node:
    """Rows scaled to unit norm; the norm is floored at eps, never zero."""
    x = as_node(x)
    norm = np.sqrt((x.value**2).sum(axis=-1, keepdims=True))
    d = np.maximum(norm, eps)
    y = x.value / d

    def vjp(g):
        return (g / d - x.value * ((g * x.value).sum(axis=-1, keepdims=True) / d**3),)

    return Node(y, (x,), vjp)


def gather_rows(table, ids) -> Node:
    """Lookup along axis 0 (embedding rows, or items of a batch); `ids` may
    have any shape. The gradient scatters back with accumulation."""
    table = as_node(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.value.shape[0]):
        raise IndexError(
            f"index out of range for table with {table.value.shape[0]} rows"
        )
    out = table.value[ids]

    def vjp(g):
        gt = np.zeros_like(table.value)
        np.add.at(gt, ids, g)
        return (gt,)

    return Node(out, (table,), vjp)


def slice_rows(x, start: int, stop: int, axis: int = 0) -> Node:
    """x[start:stop] along `axis`."""
    x = as_node(x)
    index = [slice(None)] * x.value.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)

    def vjp(g):
        gx = np.zeros_like(x.value)
        gx[index] = g
        return (gx,)

    return Node(x.value[index], (x,), vjp)


def concat_rows(parts: Sequence, axis: int = 0) -> Node:
    """Concatenation along `axis`."""
    parts = [as_node(p) for p in parts]
    out = np.concatenate([p.value for p in parts], axis=axis)
    bounds = np.cumsum([p.value.shape[axis] for p in parts])[:-1]
    return Node(out, tuple(parts), lambda g: tuple(np.split(g, bounds, axis=axis)))


def add_to_rows(x, y, start: int = 0) -> Node:
    """x with y added to rows start..start+len along axis -2 (a scatter-add);
    every other row of the result is x's, bitwise."""
    x, y = as_node(x), as_node(y)
    k = y.value.shape[-2]
    if (x.value.shape[:-2] != y.value.shape[:-2] or x.value.shape[-1] != y.value.shape[-1]
            or not 0 <= start <= x.value.shape[-2] - k):
        raise ShapeError(f"cannot add {y.shape} to rows {start}.. of {x.shape}")
    out = x.value.astype(np.result_type(x.value, y.value))
    out[..., start : start + k, :] += y.value
    return Node(out, (x, y), lambda g: (g, g[..., start : start + k, :]))


def mean_all(x) -> Node:
    x = as_node(x)
    n = x.value.size
    return Node(
        np.asarray(x.value.mean(), dtype=x.dtype),
        (x,),
        lambda g: (np.full_like(x.value, float(g) / n),),
    )


def dropout(x, mask: np.ndarray, rate: float) -> Node:
    """Inverted dropout with a caller-supplied deterministic 0/1 mask."""
    if rate <= 0.0:
        return as_node(x)
    keep = mask.astype(np.float64) / (1.0 - rate)
    return mul(x, constant(keep.astype(as_node(x).dtype)))
