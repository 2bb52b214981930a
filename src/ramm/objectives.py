"""Pretraining losses (ITC, ITM, MLM), fine-tuning regularizers (EMA,
R-Drop), token masking, and the optimizer."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ConfigError, ContractViolation, StructureError
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
    """target <- decay * target + (1 - decay) * online, every tensor in place."""
    if set(target) != set(online):
        missing = set(target) ^ set(online)
        raise StructureError(f"parameter manifests differ: {sorted(missing)[:5]}")
    for name, t in target.items():
        o = online[name]
        if t.value.shape != o.value.shape:
            raise StructureError(f"{name}: shape {t.value.shape} != {o.value.shape}")
        t.value = decay * t.value + (1.0 - decay) * o.value


def rdrop_loss(logits_a: Node, logits_b: Node, targets, alpha: float,
               dropout_active: bool = True) -> Node:
    """Mean cross-entropy of two dropout passes plus alpha * symmetric KL."""
    if not dropout_active and alpha > 0.0:
        raise ContractViolation(
            "R-Drop needs two distinct dropout passes; with dropout disabled "
            "request plain cross-entropy explicitly (alpha=0)"
        )
    ce = ops.scale(
        ops.add(ops.cross_entropy(logits_a, targets), ops.cross_entropy(logits_b, targets)),
        0.5,
    )
    if alpha == 0.0:
        return ce
    return ops.add(ce, ops.scale(ops.symmetric_kl(logits_a, logits_b), alpha))


class AdamW:
    """Decoupled-weight-decay adaptive optimizer with linear LR decay to 0."""

    def __init__(self, params: dict[str, Node], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01, total_steps: int = 1000,
                 trainable_prefixes: tuple[str, ...] | None = None):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.total_steps = max(1, total_steps)
        self.t = 0
        if trainable_prefixes is None:
            self.names = sorted(params)
        else:
            self.names = sorted(
                n for n in params if n.startswith(trainable_prefixes)
            )
        self.m = {n: np.zeros_like(params[n].value, dtype=np.float64) for n in self.names}
        self.v = {n: np.zeros_like(params[n].value, dtype=np.float64) for n in self.names}

    def current_lr(self) -> float:
        frac = 1.0 - self.t / self.total_steps
        return self.lr * max(0.0, frac)

    def step(self) -> float:
        lr = self.current_lr()
        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        for name in self.names:
            node = self.params[name]
            if node.grad is None:
                continue
            g = node.grad.astype(np.float64)
            self.m[name] = self.b1 * self.m[name] + (1 - self.b1) * g
            self.v[name] = self.b2 * self.v[name] + (1 - self.b2) * g * g
            update = (self.m[name] / bc1) / (np.sqrt(self.v[name] / bc2) + self.eps)
            new = node.value.astype(np.float64) - lr * (
                update + self.weight_decay * node.value
            )
            node.value = new.astype(node.dtype)
        return lr
