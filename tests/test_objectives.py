"""Closed-form and invariant tests for the pretraining objectives."""

import math

import numpy as np
import pytest

from ramm import ops
from ramm.errors import ConfigError, ContractViolation, DivergenceError, StructureError
from ramm.model import Vocab
from ramm.objectives import (
    AdamW, TrainConfig, ema_update, itc_loss, itc_loss_distilled, itm_loss,
    mask_tokens, mlm_loss, pretrain_loss, rdrop_loss,
)

from conftest import micro_config, micro_params


# -- ITC ----------------------------------------------------------------------

def test_itc_identity_pairs_closed_form():
    """Orthonormal matched pairs at tau=1: each row has similarity 1 on the
    diagonal and 0 off it, so the loss is ln(1 + e^-1) in both directions."""
    eye = ops.constant(np.eye(2))
    loss = itc_loss(eye, eye, temperature=1.0)
    assert abs(loss.value.item() - math.log(1 + math.exp(-1))) < 1e-12


def test_itc_uniform_is_log_batch(rng):
    """All projections identical: every similarity ties, loss = ln B."""
    for b in (2, 4, 7):
        row = rng.normal(size=4)
        row /= np.linalg.norm(row)
        mat = ops.constant(np.tile(row, (b, 1)))
        loss = itc_loss(mat, mat, temperature=0.07)
        assert abs(loss.value.item() - math.log(b)) < 1e-9


def test_itc_temperature_sharpens(rng):
    """When matched pairs score highest, a lower temperature lowers the loss."""
    text = np.eye(3) + 0.1 * rng.normal(size=(3, 3))
    text /= np.linalg.norm(text, axis=1, keepdims=True)
    image = np.eye(3)
    losses = [itc_loss(ops.constant(text), ops.constant(image), t).value.item()
              for t in (1.0, 0.5, 0.07)]
    assert losses[0] > losses[1] > losses[2]


def test_itc_rejects_singleton_batch():
    one = ops.constant(np.ones((1, 4)))
    with pytest.raises(ConfigError):
        itc_loss(one, one, 0.07)


def test_itc_distilled_zero_weight_matches_plain(rng):
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(4, 5))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    plain = itc_loss(ops.constant(a), ops.constant(b), 0.07).value.item()
    dist = itc_loss_distilled(ops.constant(a), ops.constant(b), a, b,
                              0.07, soft_weight=0.0).value.item()
    assert abs(plain - dist) < 1e-12


# -- ITM ----------------------------------------------------------------------

def test_itm_perfect_and_uniform():
    logits = ops.constant(np.array([[10.0, -10.0], [-10.0, 10.0]]))
    assert itm_loss(logits, [0, 1]).value.item() < 1e-8
    flat = ops.constant(np.zeros((2, 2)))
    assert abs(itm_loss(flat, [0, 1]).value.item() - math.log(2)) < 1e-12


def test_itm_single_label_warns():
    logits = ops.constant(np.zeros((2, 2)))
    with pytest.warns(UserWarning):
        itm_loss(logits, [1, 1])


# -- MLM ----------------------------------------------------------------------

@pytest.fixture
def vocab():
    return Vocab([f"w{i}" for i in range(10)])


def test_mask_tokens_deterministic(vocab):
    ids = [1] + list(range(4, 34))
    out_a = mask_tokens(ids, 0.15, seed=3, vocab=vocab)
    out_b = mask_tokens(ids, 0.15, seed=3, vocab=vocab)
    out_c = mask_tokens(ids, 0.15, seed=4, vocab=vocab)
    assert out_a == out_b
    assert out_a != out_c
    # the sequence itself also keys the stream
    out_d = mask_tokens(ids[:-1], 0.15, seed=3, vocab=vocab)
    assert out_d[1:] != (out_a[1][: len(out_d[1])], out_a[2][: len(out_d[2])]) \
        or out_d[0] != out_a[0][:-1]


def test_mask_tokens_never_touches_cls_and_masks_something(vocab):
    for seed in range(50):
        corrupted, positions, targets = mask_tokens([1, 4, 5, 6], 0.15, seed, vocab)
        assert corrupted[0] == 1
        assert len(positions) >= 1
        assert all(p >= 1 for p in positions)
        assert targets == [[1, 4, 5, 6][p] for p in positions]


def test_mask_tokens_rate(vocab):
    """Across many long sequences the empirical masking rate is ~0.15.
    Short sequences drift higher because one position is always forced."""
    total, masked = 0, 0
    ids = [1] + list(range(4, 104))
    for seed in range(400):
        _, positions, _ = mask_tokens(ids, 0.15, seed, vocab)
        total += len(ids) - 1
        masked += len(positions)
    assert abs(masked / total - 0.15) < 0.01


def test_mask_tokens_corruption_scheme(vocab):
    """Over many draws, masked positions are ~80% MASK, ~10% random ordinary
    token, ~10% unchanged; random replacements never hit a special token."""
    counts = {"mask": 0, "same": 0, "other": 0}
    ids = [1] + list(range(4, 54))
    for seed in range(200):
        corrupted, positions, targets = mask_tokens(ids, 0.15, seed, vocab)
        for pos, tgt in zip(positions, targets):
            tok = corrupted[pos]
            if tok == vocab.mask_id:
                counts["mask"] += 1
            elif tok == tgt:
                counts["same"] += 1
            else:
                counts["other"] += 1
                assert tok >= 4
    n = sum(counts.values())
    assert abs(counts["mask"] / n - 0.8) < 0.05
    assert abs(counts["same"] / n - 0.1) < 0.04
    assert abs(counts["other"] / n - 0.1) < 0.04


def test_mlm_uniform_logits_log_vocab(vocab):
    cfg = micro_config()
    params = micro_params(cfg)
    params["mlm.w"].value[:] = 0.0
    params["mlm.b"].value[:] = 0.0
    states = ops.constant(np.random.default_rng(0).normal(size=(4, cfg.d)))
    loss = mlm_loss(states, params, positions=[1, 3], targets=[5, 6])
    assert abs(loss.value.item() - math.log(cfg.vocab_size)) < 1e-9


# -- combination, EMA, R-Drop --------------------------------------------------

def test_pretrain_loss_is_plain_sum():
    a, b, c = (ops.constant(np.array(x)) for x in (0.5, 1.25, 2.0))
    assert pretrain_loss(a, b, c).value.item() == pytest.approx(3.75)


def test_ema_closed_form():
    cfg = micro_config()
    target = micro_params(cfg, seed=1, dtype=np.float64)
    online = micro_params(cfg, seed=2, dtype=np.float64)
    t0 = {n: p.value.copy() for n, p in target.items()}
    d = 0.9
    for _ in range(3):
        ema_update(target, online, d)
    for name in target:
        want = d**3 * t0[name] + (1 - d**3) * online[name].value
        assert np.allclose(target[name].value, want, atol=1e-12)


def test_ema_contracts_toward_online():
    cfg = micro_config()
    target = micro_params(cfg, seed=1, dtype=np.float64)
    online = micro_params(cfg, seed=2, dtype=np.float64)
    def gap():
        return sum(np.abs(target[n].value - online[n].value).sum() for n in target)
    before = gap()
    for _ in range(10):
        ema_update(target, online, 0.99)
    assert gap() < before


def test_ema_manifest_mismatch():
    cfg = micro_config()
    target = micro_params(cfg, seed=1)
    online = micro_params(cfg, seed=2)
    del online["vqa.b2"]
    with pytest.raises(StructureError):
        ema_update(target, online, 0.999)


def test_rdrop_identical_logits_is_plain_ce(rng):
    logits = rng.normal(size=(3, 4))
    targets = [0, 2, 1]
    loss = rdrop_loss(ops.constant(logits), ops.constant(logits.copy()),
                      targets, alpha=0.6)
    ce = ops.cross_entropy(ops.constant(logits), targets)
    assert abs(loss.value.item() - ce.value.item()) < 1e-12


def test_rdrop_penalizes_disagreement(rng):
    logits_a = rng.normal(size=(3, 4))
    logits_b = logits_a + rng.normal(size=(3, 4))
    targets = [0, 1, 2]
    same = rdrop_loss(ops.constant(logits_a), ops.constant(logits_a.copy()),
                      targets, alpha=0.6).value.item()
    ce_mean = 0.5 * (ops.cross_entropy(ops.constant(logits_a), targets).value.item()
                     + ops.cross_entropy(ops.constant(logits_b), targets).value.item())
    diff = rdrop_loss(ops.constant(logits_a), ops.constant(logits_b),
                      targets, alpha=0.6).value.item()
    assert diff > ce_mean
    assert same == pytest.approx(
        ops.cross_entropy(ops.constant(logits_a), targets).value.item())


# -- AdamW ----------------------------------------------------------------------

def test_adamw_first_step_is_signlike():
    x = ops.param(np.array([[2.0, -3.0]]))
    x.grad = np.array([[0.4, -0.7]])
    opt = AdamW({"x": x}, lr=0.1, weight_decay=0.0, total_steps=10)
    opt.step()
    # bias-corrected first step reduces to g / (|g| + eps)
    assert np.allclose(x.value, [[2.0 - 0.1, -3.0 + 0.1]], atol=1e-6)


def test_adamw_linear_decay_and_prefix_filter():
    a = ops.param(np.ones((2, 2)))
    b = ops.param(np.ones((2, 2)))
    opt = AdamW({"fuse.a": a, "text.b": b}, lr=1.0, total_steps=4,
                trainable_prefixes=("fuse.",))
    assert opt.names == ["fuse.a"]
    lrs = []
    for _ in range(4):
        a.grad = np.ones((2, 2))
        b.grad = np.ones((2, 2))
        lrs.append(opt.step())
    assert lrs == [1.0, 0.75, 0.5, 0.25]
    assert np.array_equal(b.value, np.ones((2, 2)))
    assert not np.array_equal(a.value, np.ones((2, 2)))


def test_adamw_minimizes_quadratic():
    x = ops.param(np.array([5.0]))
    opt = AdamW({"x": x}, lr=0.3, weight_decay=0.0, total_steps=200)
    for _ in range(200):
        x.grad = 2.0 * x.value
        opt.step()
    assert abs(x.value.item()) < 1e-2


class _ReferenceAdamW:
    """The per-tensor AdamW loop that the flat-buffer optimizer replaced,
    kept as the bitwise reference."""

    def __init__(self, params, lr, weight_decay, total_steps, trainable_prefixes=None):
        self.params, self.lr, self.weight_decay = params, lr, weight_decay
        self.b1, self.b2, self.eps = 0.9, 0.999, 1e-8
        self.total_steps, self.t = max(1, total_steps), 0
        self.names = sorted(n for n in params if trainable_prefixes is None
                            or n.startswith(trainable_prefixes))
        self.m = {n: np.zeros_like(params[n].value, dtype=np.float64) for n in self.names}
        self.v = {n: np.zeros_like(params[n].value, dtype=np.float64) for n in self.names}

    def step(self):
        lr = self.lr * max(0.0, 1.0 - self.t / self.total_steps)
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


def _mixed_params(seed, dtype=np.float32):
    """Tensors of mixed shapes, one dtype."""
    rng = np.random.default_rng(seed)
    shapes = {"fuse.w": (3, 4), "fuse.b": (4,), "fuse.k": (2, 3, 2),
              "vqa.w": (5, 1), "vqa.s": (), "text.e": (6, 2)}
    return {n: ops.param(rng.normal(size=shape).astype(dtype))
            for n, shape in shapes.items()}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("prefixes", [None, ("fuse.", "vqa.")])
@pytest.mark.parametrize("weight_decay", [0.1, 10.0])
def test_adamw_flat_matches_per_tensor_reference(dtype, prefixes, weight_decay):
    """Tensors of mixed shapes, some without a gradient on some steps: every
    value equals the per-tensor loop's exactly, so the moments of a tensor
    without a gradient were left alone too. With lr * weight_decay = 0.5
    the decay term's rounding in the parameter dtype shows in the result."""
    flat_params, ref_params = _mixed_params(0, dtype), _mixed_params(0, dtype)
    opt = AdamW(flat_params, lr=0.05, weight_decay=weight_decay, total_steps=9,
                trainable_prefixes=prefixes)
    ref = _ReferenceAdamW(ref_params, lr=0.05, weight_decay=weight_decay, total_steps=9,
                          trainable_prefixes=prefixes)
    assert opt.names == ref.names
    rng = np.random.default_rng(1)
    for step in range(7):
        for name in sorted(flat_params):
            # fuse.b has no gradient on steps 1 and 4, vqa.s on all but step 4
            grad = None
            if not ((name == "fuse.b" and step in (1, 4)) or (name == "vqa.s" and step != 4)):
                grad = (10.0 ** rng.integers(-3, 3)) * rng.normal(
                    size=flat_params[name].shape)
                grad = grad.astype(flat_params[name].dtype)
            flat_params[name].grad = ref_params[name].grad = grad
        assert opt.step() == ref.step()
        for name in flat_params:
            got, want = flat_params[name].value, ref_params[name].value
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), (step, name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("prefixes", [None, ("fuse.", "vqa.")])
def test_adamw_swap_and_masked_paths_match_reference(dtype, prefixes):
    """Steps where every trainable tensor has a gradient (no masks) alternate
    with steps where some have none (their entries restored by a mask):
    every value equals the per-tensor loop's exactly."""
    flat_params, ref_params = _mixed_params(5, dtype), _mixed_params(5, dtype)
    opt = AdamW(flat_params, lr=0.05, weight_decay=0.1, total_steps=12,
                trainable_prefixes=prefixes)
    ref = _ReferenceAdamW(ref_params, lr=0.05, weight_decay=0.1, total_steps=12,
                          trainable_prefixes=prefixes)
    rng = np.random.default_rng(2)
    for step in range(10):
        partial = step in (2, 3, 7)
        for name in sorted(flat_params):
            grad = None
            if not (partial and name in ("fuse.b", "vqa.s")):
                grad = ((10.0 ** rng.integers(-3, 3))
                        * rng.normal(size=flat_params[name].shape)).astype(dtype)
            flat_params[name].grad = ref_params[name].grad = grad
        assert partial == any(flat_params[n].grad is None for n in opt.names)
        assert opt.step() == ref.step()
        for name in flat_params:
            assert np.array_equal(flat_params[name].value, ref_params[name].value), (step, name)


def test_flat_ema_equals_dict_ema():
    """One ema_update over a whole buffer whose views are the tensors equals
    the per-tensor dict ema_update over 30 steps, bit for bit, and leaves
    the online tensors alone."""
    online = _mixed_params(6)
    opt = AdamW(online, trainable_prefixes=("fuse.", "vqa."))
    flat = ops.param(opt.buffer.value.copy())
    shadow = {n: ops.param(v) for n, v in opt.views(flat.value).items()}
    per_tensor = {n: ops.param(p.value.copy()) for n, p in online.items()}
    # the expression ema_update evaluated out of place before it updated in place
    formula = {n: p.value.copy() for n, p in online.items()}
    rng = np.random.default_rng(3)
    for _ in range(30):
        for name in opt.names:
            online[name].value[...] = rng.normal(size=online[name].shape)
        before = {n: p.value.copy() for n, p in online.items()}
        ema_update({"": flat}, {"": opt.buffer}, 0.9)
        ema_update({n: per_tensor[n] for n in opt.names},
                   {n: online[n] for n in opt.names}, 0.9)
        for name in opt.names:
            formula[name] = 0.9 * formula[name] + (1.0 - 0.9) * online[name].value
        for name in opt.names:
            assert np.array_equal(shadow[name].value, per_tensor[name].value), name
            assert np.array_equal(shadow[name].value, formula[name]), name
        for name in online:
            assert np.array_equal(online[name].value, before[name])
    assert all(np.shares_memory(shadow[n].value, flat.value) for n in opt.names)
    assert not any(np.shares_memory(shadow[n].value, online[n].value) for n in opt.names)


def test_adamw_updates_in_place_and_snapshots_hold():
    """Parameters are updated in place, so a copy taken before a step
    (clone_params, the EMA's initial values) must not move with them."""
    from conftest import clone_params

    params = _mixed_params(2)
    opt = AdamW(params, lr=0.1, total_steps=5)
    view = params["fuse.w"].value
    clone = clone_params(params)
    init = {n: params[n].value.astype(np.float64).copy() for n in opt.names}
    frozen = {n: params[n].value.copy() for n in params}
    for _ in range(3):
        for node in params.values():
            node.grad = np.ones(node.shape, dtype=node.dtype)
        opt.step()
    assert params["fuse.w"].value is view
    for n in params:
        assert not np.array_equal(params[n].value, frozen[n])
        assert np.array_equal(clone[n].value, frozen[n])
        assert np.array_equal(init[n], frozen[n].astype(np.float64))


def test_adamw_rejects_mixed_dtypes():
    params = {"a": ops.param(np.ones(2, dtype=np.float32)),
              "b": ops.param(np.ones(2, dtype=np.float64))}
    with pytest.raises(ContractViolation, match="mix dtypes"):
        AdamW(params)
    AdamW(params, trainable_prefixes=("a",))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adamw_nonfinite_gradient_raises_before_update(bad):
    params = _mixed_params(3)
    opt = AdamW(params, lr=0.1, total_steps=5)
    for node in params.values():
        node.grad = np.ones(node.shape, dtype=node.dtype)
    opt.step()
    values = {n: p.value.copy() for n, p in params.items()}
    m, v = opt.m.copy(), opt.v.copy()
    params["fuse.k"].grad[1, 2, 0] = bad
    params["vqa.w"].grad[0, 0] = bad
    with pytest.raises(DivergenceError, match=r"step 1 in fuse\.k, vqa\.w$"):
        opt.step()
    assert opt.t == 1
    assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)
    for n, p in params.items():
        assert np.array_equal(p.value, values[n])


def test_adamw_overflowing_update_raises_before_update():
    """A finite gradient whose update overflows a float32 weight stops the
    step before it writes anything, so the weight is never saved as inf."""
    params = _mixed_params(4)
    params["fuse.w"].value[1, 2] = np.finfo(np.float32).max * np.float32(0.9)
    opt = AdamW(params, lr=1e38, weight_decay=0.0, total_steps=5)
    for node in params.values():
        node.grad = np.ones(node.shape, dtype=node.dtype)
    params["fuse.w"].grad[1, 2] = -1.0
    values = {n: p.value.copy() for n, p in params.items()}
    m, v = opt.m.copy(), opt.v.copy()
    with pytest.raises(DivergenceError,
                       match=r"^non-finite weight update at optimizer step 0 in fuse\.w$"):
        opt.step()
    assert opt.t == 0
    assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)
    for n, p in params.items():
        assert np.array_equal(p.value, values[n])
    params["fuse.w"].grad[1, 2] = 1.0
    opt.step()
    assert opt.t == 1 and all(np.isfinite(p.value).all() for p in params.values())


def test_train_config_validation():
    TrainConfig(total_steps=10)
    with pytest.raises(ConfigError):
        TrainConfig(total_steps=10, itc_temperature=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(total_steps=10, momentum=1.5)
