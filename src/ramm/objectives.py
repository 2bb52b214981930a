"""Pretraining losses (ITC, ITM, MLM), fine-tuning regularizers (EMA,
R-Drop), token masking, and the optimizer."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ConfigError, ContractViolation, DivergenceError, StructureError
from .model import Vocab
from .ops import Node


@dataclass
class TrainConfig:
    itc_temperature: float = 0.07
    momentum: float = 0.995        # pretraining momentum-encoder decay
    ema_decay: float = 0.999       # fine-tuning EMA of trainable weights
    rdrop_alpha: float = 0.6
    mask_rate: float = 0.15
    distill_weight: float = 0.4    # soft-target mixing for momentum distillation
    batch_size: int = 8
    lr: float = 1e-3
    total_steps: int = 1000
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.itc_temperature):
            raise ConfigError("itc_temperature must be positive")
        if not (0.0 < self.momentum < 1.0 and 0.0 < self.ema_decay < 1.0):
            raise ConfigError("momentum and ema_decay must lie in (0, 1)")
        if not (0.0 < self.mask_rate < 1.0):
            raise ConfigError("mask_rate must lie in (0, 1)")
        if not (0.0 <= self.distill_weight <= 1.0):
            raise ConfigError("distill_weight must lie in [0, 1]")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if not (0.0 <= self.lr < math.inf and 0.0 <= self.weight_decay < math.inf
                and 0.0 <= self.rdrop_alpha < math.inf):
            raise ConfigError("lr, weight_decay and rdrop_alpha must be finite and non-negative")


def itc_loss(text_proj: Node, image_proj: Node, temperature: float) -> Node:
    """Symmetric InfoNCE over the batch similarity matrix at temperature tau.

    Mean of the image->text and text->image cross-entropies against the
    matched (diagonal) pairs.
    """
    b = text_proj.value.shape[0]
    if b < 2:
        raise ConfigError("itc_loss needs a batch of at least 2 (no negatives)")
    if text_proj.value.shape != image_proj.value.shape:
        raise ops.ShapeError(
            f"projection shapes differ: {text_proj.value.shape} vs {image_proj.value.shape}"
        )
    sim_it = ops.scale(ops.matmul(image_proj, ops.transpose(text_proj)), 1.0 / temperature)
    sim_ti = ops.transpose(sim_it)
    targets = np.arange(b)
    return ops.scale(
        ops.add(ops.cross_entropy(sim_it, targets), ops.cross_entropy(sim_ti, targets)),
        0.5,
    )


def itc_loss_distilled(text_proj: Node, image_proj: Node,
                       text_proj_m: np.ndarray, image_proj_m: np.ndarray,
                       temperature: float, soft_weight: float) -> Node:
    """InfoNCE with momentum-encoder soft targets mixed into the one-hot
    targets at a fixed weight, symmetrically for both directions."""
    b = text_proj.value.shape[0]
    if b < 2:
        raise ConfigError("itc_loss needs a batch of at least 2 (no negatives)")
    onehot = np.eye(b)

    def soft_targets(a: np.ndarray, bmat: np.ndarray) -> np.ndarray:
        logits = (a @ bmat.T) / temperature
        logits = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(logits)
        return e / e.sum(axis=-1, keepdims=True)

    t_it = (1 - soft_weight) * onehot + soft_weight * soft_targets(image_proj_m, text_proj_m)
    t_ti = (1 - soft_weight) * onehot + soft_weight * soft_targets(text_proj_m, image_proj_m)
    sim_it = ops.scale(ops.matmul(image_proj, ops.transpose(text_proj)), 1.0 / temperature)
    sim_ti = ops.transpose(sim_it)
    return ops.scale(
        ops.add(ops.soft_cross_entropy(sim_it, t_it), ops.soft_cross_entropy(sim_ti, t_ti)),
        0.5,
    )


def itm_loss(logits: Node, labels) -> Node:
    """2-class cross-entropy over match/mismatch logits."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(set(labels.tolist())) < 2:
        warnings.warn("itm batch contains a single label; loss is still defined")
    return ops.cross_entropy(logits, labels)


def mask_tokens(ids: list[int], rate: float, seed: int, vocab: Vocab
                ) -> tuple[list[int], list[int], list[int]]:
    """MLM corruption of one sequence, deterministic in (seed, sequence).

    Each non-CLS position is picked with probability `rate` (one position is
    forced if none is picked), then corrupted by the 80/10/10 scheme:
    MASK / random ordinary token / unchanged. Returns (corrupted ids,
    masked positions, original ids at those positions).
    """
    if len(ids) < 2:
        raise ContractViolation("sequence must contain at least one non-CLS token")
    rng = np.random.default_rng([seed & 0x7FFFFFFF, *[i & 0x7FFFFFFF for i in ids]])
    positions = [i for i in range(1, len(ids)) if rng.random() < rate]
    if not positions:
        positions = [int(rng.integers(1, len(ids)))]
    corrupted = list(ids)
    targets = []
    for pos in positions:
        targets.append(ids[pos])
        roll = rng.random()
        if roll < 0.8:
            corrupted[pos] = vocab.mask_id
        elif roll < 0.9:
            corrupted[pos] = int(rng.integers(4, len(vocab)))
        # else: leave unchanged
    return corrupted, positions, targets


def mlm_loss(text_states: Node, params, positions: list[int], targets: list[int],
             weights=None) -> Node:
    """Cross-entropy of vocabulary logits at masked positions only.

    `positions` index rows of the (n, d) text states; for a batch, pass the
    states flattened to (B*n, d). `weights` are per-position loss weights as
    in ops.cross_entropy (default: the mean)."""
    from .model import mlm_head

    logits = mlm_head(params, ops.gather_rows(text_states, positions))
    return ops.cross_entropy(logits, targets, weights)


def pretrain_loss(itc: Node, itm: Node, mlm: Node) -> Node:
    """Unweighted sum of the three pretraining objectives."""
    return ops.add(ops.add(itc, itm), mlm)


def ema_update(target: dict[str, Node], online: dict[str, Node], decay: float) -> None:
    """target <- decay * target + (1 - decay) * online, every tensor in place;
    one entry can be a whole buffer of views (see AdamW.views)."""
    if set(target) != set(online):
        missing = set(target) ^ set(online)
        raise StructureError(f"parameter names differ: {sorted(missing)[:5]}")
    for name, t in target.items():
        o = online[name]
        if t.value.shape != o.value.shape:
            raise StructureError(f"{name}: shape {t.value.shape} != {o.value.shape}")
        t.value *= decay
        t.value += (1.0 - decay) * o.value


def rdrop_loss(logits_a: Node, logits_b: Node, targets, alpha: float) -> Node:
    """Mean cross-entropy of two dropout passes plus alpha * symmetric KL."""
    ce = ops.scale(
        ops.add(ops.cross_entropy(logits_a, targets), ops.cross_entropy(logits_b, targets)),
        0.5,
    )
    return ops.add(ce, ops.scale(ops.symmetric_kl(logits_a, logits_b), alpha))


class AdamW:
    """Decoupled-weight-decay adaptive optimizer with linear LR decay to 0.

    The trainable tensors, which share one dtype, are copied into one
    contiguous buffer, and each parameter's `value` becomes a view of it, so
    a step updates every parameter in place with whole-buffer operations.
    Anything that must keep a parameter's value across a step copies it; a
    caller that rebinds a trainable `value` detaches it from the optimizer."""

    B1, B2, EPS = 0.9, 0.999, 1e-8   # the moment decay rates and the denominator floor

    def __init__(self, params: dict[str, Node], lr: float = 1e-3,
                 weight_decay: float = 0.01, total_steps: int = 1000,
                 trainable_prefixes: tuple[str, ...] | None = None):
        self.lr = lr
        self.weight_decay = weight_decay
        self.total_steps = max(1, total_steps)
        self.t = 0
        if trainable_prefixes is None:
            self.names = sorted(params)
        else:
            self.names = sorted(
                n for n in params if n.startswith(trainable_prefixes)
            )
        self._nodes = [params[n] for n in self.names]
        dtypes = {node.dtype for node in self._nodes}
        if len(dtypes) > 1:
            raise ContractViolation(f"trainable tensors mix dtypes {sorted(map(str, dtypes))}")
        self._sizes = [node.value.size for node in self._nodes]
        self._flat = np.concatenate([node.value.reshape(-1) for node in self._nodes]
                                   or [np.zeros(0)])
        for node, view in zip(self._nodes, self.views(self._flat).values()):
            node.value = view
        self.buffer = ops.constant(self._flat)  # for a whole-buffer ema_update
        self.m, self.v, self._g, self._m, self._v, self._u = np.zeros((6, self._flat.size))
        self._new = np.empty_like(self._flat)  # the updated values, parameter dtype

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each trainable tensor's view of `flat`, laid out like the buffer."""
        out, off = {}, 0
        for name, node, n in zip(self.names, self._nodes, self._sizes):
            out[name] = flat[off : off + n].reshape(node.value.shape)
            off += n
        return out

    def current_lr(self) -> float:
        frac = 1.0 - self.t / self.total_steps
        return self.lr * max(0.0, frac)

    def step(self) -> float:
        """One update of every parameter that has a gradient; a parameter
        whose `grad` is None keeps its value, m and v. Raises
        DivergenceError, before anything is updated, when a gradient holds
        a NaN or an infinity, or when the update would turn a weight into
        one (an overflow of the parameter dtype, say)."""
        grads = [node.grad for node in self._nodes]
        missing = [gr is None for gr in grads]
        g, m, v, u = self._g, self._m, self._v, self._u
        if grads:
            np.concatenate([np.zeros(n) if gr is None else gr.reshape(-1)
                            for gr, n in zip(grads, self._sizes)], out=g)
        if not np.isfinite(g).all():
            raise self._divergence("gradient", ~np.isfinite(g))
        lr = self.current_lr()
        t = self.t + 1
        bc1 = 1.0 - self.B1**t
        bc2 = 1.0 - self.B2**t
        # The per-tensor update, one operation at a time into the scratch
        # buffers (fresh temporaries of this size each cost a page fault per
        # page), rounded in the same order and dtypes:
        #   m' = B1*m + (1-B1)*g        v' = B2*v + (1-B2)*g*g
        #   u = (m'/bc1) / (sqrt(v'/bc2) + EPS)
        #   value' = float64(value) - lr*(u + weight_decay*value)
        np.multiply(self.m, self.B1, out=m)
        m += np.multiply(g, 1 - self.B1, out=u)
        np.multiply(self.v, self.B2, out=v)
        np.multiply(g, 1 - self.B2, out=u)
        v += np.multiply(u, g, out=u)
        np.sqrt(np.divide(v, bc2, out=u), out=u)
        u += self.EPS
        np.divide(np.divide(m, bc1, out=g), u, out=u)
        u += self.weight_decay * self._flat      # the decay term in the parameter dtype
        u *= lr
        np.subtract(self._flat, u, out=u)
        with np.errstate(over="ignore", invalid="ignore"):
            np.copyto(self._new, u, casting="same_kind")
        bad = ~np.isfinite(self._new)
        if any(missing):   # a tensor without a gradient keeps its value, m and v
            keep = np.repeat(missing, self._sizes)
            bad &= ~keep
            for new, old in ((self._new, self._flat), (m, self.m), (v, self.v)):
                np.copyto(new, old, where=keep)
        if bad.any():
            raise self._divergence("weight update", bad)
        self.t = t
        np.copyto(self._flat, self._new)
        # the scratch moments become the moments
        self.m, self._m, self.v, self._v = m, self.m, v, self.v
        return lr

    def _divergence(self, what: str, bad: np.ndarray) -> DivergenceError:
        """The error for a step whose flat `bad` mask marks non-finite
        entries, naming the step and up to 8 tensors holding one."""
        names = [name for name, hit in zip(
            self.names, np.split(bad, np.cumsum(self._sizes)[:-1])) if hit.any()]
        more = f" and {len(names) - 8} more" if len(names) > 8 else ""
        return DivergenceError(f"non-finite {what} at optimizer step {self.t} "
                               f"in {', '.join(names[:8])}{more}")
