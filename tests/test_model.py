"""Model-level tests: tokenization, encoders, fusion, retrieval-attention."""

import numpy as np
import pytest

from ramm import model, ops
from ramm.errors import ContractViolation
from ramm.model import (
    DropoutPlan, FusionState, ModelConfig, Vocab, encode_image, encode_text,
    fuse, fusion_layer, project_itc, retrieval_attention, tokenize, vqa_head,
)
from ramm.tensor import finite_difference_gradient, relative_error

from conftest import micro_config, micro_params


# -- tokenization -------------------------------------------------------------

def test_tokenize_goldens():
    vocab = Vocab(["chest", "x", "ray", "shows", "lesion"])
    ids = tokenize("Chest X-ray shows a lesion.", vocab, max_len=16)
    # [cls] chest x ray shows [unk] lesion
    assert ids == [1, 4, 5, 6, 7, 3, 8]
    assert tokenize("", vocab, 16) == [1]
    assert tokenize("chest chest chest", vocab, 3) == [1, 4, 4]


def test_vocab_roundtrip(tmp_path):
    vocab = Vocab(["alpha", "beta"])
    vocab.save(tmp_path / "v.txt")
    back = Vocab.load(tmp_path / "v.txt")
    assert back.tokens == vocab.tokens
    assert back.mask_id == 2 and back.unk_id == 3


# -- encoders -----------------------------------------------------------------

def test_encode_text_shape_and_determinism():
    cfg = micro_config()
    params = micro_params(cfg)
    ids = [1, 4, 5, 6]
    a = encode_text(params, cfg, ids)
    b = encode_text(params, cfg, ids)
    assert a.value.shape == (len(ids), cfg.d)
    assert np.array_equal(a.value, b.value)


def test_encode_image_shape(rng):
    cfg = micro_config()
    params = micro_params(cfg)
    patches = rng.normal(size=(cfg.patch_grid**2, cfg.d_patch))
    out = encode_image(params, cfg, patches)
    assert out.value.shape == (cfg.patch_grid**2 + 1, cfg.d)


def test_encoder_block_oracle(rng):
    """One pre-norm block equals LN/MHA/LN/FFN composed by hand."""
    cfg = micro_config()
    params = micro_params(cfg)
    x = ops.constant(rng.normal(size=(4, cfg.d)))
    got = model._encoder_block(params, "text.0", x, cfg.n_head)
    xn = model._ln(params, "text.0.ln1", x)
    h = ops.add(x, model._mha(params, "text.0.attn", xn, xn, cfg.n_head))
    want = ops.add(h, model._ffn(params, "text.0.ffn", model._ln(params, "text.0.ln2", h)))
    assert np.array_equal(got.value, want.value)


def test_project_itc_unit_norm(rng):
    cfg = micro_config()
    params = micro_params(cfg)
    row = ops.constant(rng.normal(size=(1, cfg.d)))
    out = project_itc(row, params, "text")
    assert out.value.shape == (1, cfg.d_proj)
    assert abs(np.linalg.norm(out.value) - 1.0) < 1e-9


def test_project_itc_scale_invariant_direction(rng):
    """Scaling the projected vector before normalization keeps direction."""
    cfg = micro_config()
    params = micro_params(cfg)
    v = rng.normal(size=(1, cfg.d_proj))
    a = ops.l2_normalize_rows(ops.constant(v)).value
    b = ops.l2_normalize_rows(ops.constant(3.7 * v)).value
    assert np.allclose(a, b, atol=1e-12)


# -- fusion and retrieval-attention -------------------------------------------

def _fusion_inputs(cfg, rng, r):
    params = micro_params(cfg)
    text0 = ops.constant(rng.normal(size=(5, cfg.d)))
    image0 = ops.constant(rng.normal(size=(cfg.patch_grid**2 + 1, cfg.d)))
    retrieved = [
        (ops.constant(rng.normal(size=(4, cfg.d))),
         ops.constant(rng.normal(size=(3, cfg.d))))
        for _ in range(r)
    ]
    return params, text0, image0, retrieved


def test_fuse_r0_matches_plain_coattention(rng):
    """fuse with an empty retrieval list is the plain dual-stream model."""
    cfg = micro_config(l_fuse=2)
    params, text0, image0, _ = _fusion_inputs(cfg, rng, 0)
    w, v = fuse(params, cfg, text0, image0, retrieved=[])

    state = FusionState([text0], [image0])
    for _ in range(cfg.l_fuse):
        state = fusion_layer(state, params, cfg, retrieval_enabled=False)
    assert np.array_equal(w.value, state.text_streams[0].value)
    assert np.array_equal(v.value, state.image_streams[0].value)


def test_retrieval_attention_requires_streams(rng):
    cfg = micro_config()
    params, text0, image0, _ = _fusion_inputs(cfg, rng, 0)
    state = FusionState([text0], [image0])
    with pytest.raises(ContractViolation):
        retrieval_attention(state, params, cfg, layer=0)


def test_retrieval_attention_touches_only_stream0_cls(rng):
    cfg = micro_config()
    params, text0, image0, retrieved = _fusion_inputs(cfg, rng, 3)
    state = FusionState([text0] + [t for t, _ in retrieved],
                        [image0] + [v for _, v in retrieved])
    out = retrieval_attention(state, params, cfg, layer=0)
    # streams j > 0 are the very same nodes, hence bitwise identical
    for j in range(1, 4):
        assert out.text_streams[j] is state.text_streams[j]
        assert out.image_streams[j] is state.image_streams[j]
    # stream 0: CLS row changed, all other rows bitwise unchanged
    for before, after in ((text0, out.text_streams[0]), (image0, out.image_streams[0])):
        assert not np.array_equal(after.value[0], before.value[0])
        assert np.array_equal(after.value[1:], before.value[1:])


def test_retrieval_attention_permutation_invariant_value(rng):
    """Attention is a weighted sum over keys, so permuting the retrieved
    streams must not change stream 0's update."""
    cfg = micro_config()
    params, text0, image0, retrieved = _fusion_inputs(cfg, rng, 3)
    state_a = FusionState([text0] + [t for t, _ in retrieved],
                          [image0] + [v for _, v in retrieved])
    perm = [retrieved[2], retrieved[0], retrieved[1]]
    state_b = FusionState([text0] + [t for t, _ in perm],
                          [image0] + [v for _, v in perm])
    out_a = retrieval_attention(state_a, params, cfg, layer=0)
    out_b = retrieval_attention(state_b, params, cfg, layer=0)
    assert np.allclose(out_a.text_streams[0].value[0],
                       out_b.text_streams[0].value[0], atol=1e-12)
    assert np.allclose(out_a.image_streams[0].value[0],
                       out_b.image_streams[0].value[0], atol=1e-12)


def test_retrieval_attention_identical_cls_collapse(rng):
    """If every stream has the same CLS row, the attention output equals
    attention over a single copy of that row (softmax over equal scores)."""
    cfg = micro_config()
    params = micro_params(cfg)
    shared = rng.normal(size=(1, cfg.d))
    def stream():
        body = rng.normal(size=(3, cfg.d))
        body[0] = shared
        return ops.constant(body.copy())
    many = FusionState([stream() for _ in range(4)], [stream() for _ in range(4)])
    one = FusionState([many.text_streams[0], many.text_streams[1]],
                      [many.image_streams[0], many.image_streams[1]])
    out_many = retrieval_attention(many, params, cfg, layer=0)
    out_one = retrieval_attention(one, params, cfg, layer=0)
    assert np.allclose(out_many.text_streams[0].value[0],
                       out_one.text_streams[0].value[0], atol=1e-10)


def test_fuse_with_retrieval_changes_output(rng):
    cfg = micro_config()
    params, text0, image0, retrieved = _fusion_inputs(cfg, rng, 2)
    w0, v0 = fuse(params, cfg, text0, image0, retrieved=[])
    w2, v2 = fuse(params, cfg, text0, image0, retrieved=retrieved)
    assert not np.array_equal(w0.value, w2.value)
    assert not np.array_equal(v0.value, v2.value)


def test_dropout_plan_deterministic():
    cfg = micro_config(dropout_rate=0.5)
    plan_a = DropoutPlan(seed=9, rate=cfg.dropout_rate).at(step=3, pass_idx=0)
    plan_b = DropoutPlan(seed=9, rate=cfg.dropout_rate).at(step=3, pass_idx=0)
    plan_c = DropoutPlan(seed=9, rate=cfg.dropout_rate).at(step=3, pass_idx=1)
    m_a = plan_a.mask("tag", (4, 6))
    m_b = plan_b.mask("tag", (4, 6))
    m_c = plan_c.mask("tag", (4, 6))
    assert np.array_equal(m_a, m_b)
    assert not np.array_equal(m_a, m_c)


# -- end-to-end gradient check ------------------------------------------------

def test_full_model_gradient_check(rng):
    """Finite differences through the whole fused model with r=2 retrieval."""
    cfg = micro_config()
    params = micro_params(cfg, dtype=np.float64)
    ids = [1, 4, 5]
    patches = rng.normal(size=(cfg.patch_grid**2, cfg.d_patch))
    ret_specs = [([1, 6, 7], rng.normal(size=(cfg.patch_grid**2, cfg.d_patch)))
                 for _ in range(2)]
    label = np.array([1])

    def build():
        # cross-entropy plus a quadratic penalty on the fused states so
        # every parameter receives a non-negligible gradient
        w = encode_text(params, cfg, ids)
        v = encode_image(params, cfg, patches)
        retrieved = [(encode_text(params, cfg, i), encode_image(params, cfg, p))
                     for i, p in ret_specs]
        wf, vf = fuse(params, cfg, w, v, retrieved)
        logits = vqa_head(params, ops.slice_rows(wf, 0, 1), ops.slice_rows(vf, 0, 1))
        ce = ops.cross_entropy(logits, label)
        reg = ops.add(ops.mean_all(ops.mul(wf, wf)), ops.mean_all(ops.mul(vf, vf)))
        return ops.add(ce, reg)

    def loss_with(name, flat):
        saved = params[name].value.copy()
        params[name].value = flat.reshape(saved.shape)
        try:
            return build().value.item()
        finally:
            params[name].value = saved

    loss = build()
    ops.backward(loss)

    checked = ["fuse.0.ret_w.wq", "fuse.0.self_v.wk", "fuse.0.cross_w.wv",
               "text.0.attn.wq", "image.patch_proj.w", "vqa.w1", "fuse.0.ln_rw.g"]
    dir_rng = np.random.default_rng(77)
    for name in checked:
        grad = params[name].grad.ravel()
        if np.linalg.norm(grad) > 1e-6:
            numeric = finite_difference_gradient(
                lambda f: loss_with(name, f), params[name].value.ravel().copy())
            err = relative_error(grad, numeric)
            assert err < 1e-5, f"{name}: rel err {err:.3e}"
        else:
            # gradient smaller than the per-entry finite-difference noise
            # floor, so compare directional derivatives at a larger step
            base = params[name].value.ravel().copy()
            for _ in range(3):
                u = dir_rng.normal(size=base.shape)
                u /= np.linalg.norm(u)
                eps = 1e-3
                fd = (loss_with(name, base + eps * u)
                      - loss_with(name, base - eps * u)) / (2 * eps)
                analytic = float(grad @ u)
                err = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-12)
                assert err < 1e-3, f"{name}: directional rel err {err:.3e}"


# -- one padded batch equals its items run one at a time ----------------------

def _grads(params):
    return {n: (p.grad.copy() if p.grad is not None else np.zeros_like(p.value))
            for n, p in params.items()}


def _assert_same_grads(got, want, tol=1e-10):
    for name in want:
        if name.endswith(".bk"):
            # softmax ignores a shift shared by all keys, so a key bias has
            # true gradient 0 and both sides hold only rounding noise
            assert np.abs(got[name] - want[name]).max() < tol, name
        else:
            assert relative_error(got[name], want[name]) < tol, name


def test_padded_finetune_batch_matches_items(rng):
    """Loss and every parameter gradient of one padded fine-tune batch equal
    the mean over per-item passes, at 64-bit. The texts differ in length
    and the last item retrieved fewer pairs than the others (flagged)."""
    from ramm.model import batch_streams
    from ramm.train import answer_logits

    cfg = micro_config(l_fuse=2)
    params = micro_params(cfg)
    n_img = cfg.patch_grid**2
    ids = [[1, 4, 5, 6], [1, 7], [1, 8, 9, 10, 11]]
    patches = rng.normal(size=(3, n_img, cfg.d_patch))
    retrieved = [
        [(rng.normal(size=(n, cfg.d)), rng.normal(size=(n_img + 1, cfg.d)))
         for n in lengths]
        for lengths in ([3, 2], [4, 1], [2])]
    targets = [2, 0, 1]

    # per item: stream 0 encoded live so the encoders get gradients too
    losses = []
    for b in range(3):
        w = encode_text(params, cfg, ids[b])
        v = encode_image(params, cfg, patches[b])
        ret = [(ops.constant(t), ops.constant(i)) for t, i in retrieved[b]]
        wf, vf = fuse(params, cfg, w, v, ret)
        logits = vqa_head(params, model.cls_rows(wf), model.cls_rows(vf))
        losses.append(ops.cross_entropy(logits, [targets[b]]))
    per_item = ops.scale(ops.add(ops.add(losses[0], losses[1]), losses[2]), 1.0 / 3)
    ops.backward(per_item)
    want = _grads(params)

    ops.zero_grads(params.values())
    originals = [(np.zeros((len(seq), cfg.d)), np.zeros((n_img + 1, cfg.d))) for seq in ids]
    streams = batch_streams(originals, retrieved)
    assert streams.stream_mask.shape == (3, 3) and streams.stream_mask[2, 2] < 0
    logits = answer_logits(params, cfg, encode_text(params, cfg, ids),
                           encode_image(params, cfg, patches), streams)
    batched = ops.cross_entropy(logits, targets)
    ops.backward(batched)
    assert abs(batched.value.item() - per_item.value.item()) < 1e-10 * per_item.value.item()
    _assert_same_grads(_grads(params), want)


def test_pretrain_losses_batch_matches_items(rng):
    """ITC (distilled), ITM and MLM of one padded batch, and the gradient of
    their sum, equal the per-pair construction at 64-bit."""
    from ramm.objectives import (
        TrainConfig, itc_loss_distilled, itm_loss, mask_tokens, mlm_loss,
        pretrain_loss,
    )
    from ramm.train import clone_params, pretrain_losses

    cfg = micro_config()
    tcfg = TrainConfig(mask_rate=0.3)
    params = micro_params(cfg)
    momentum = clone_params(params)
    for node in momentum.values():
        node.value = node.value + 0.01 * rng.normal(size=node.value.shape)
    vocab = Vocab([f"w{i}" for i in range(cfg.vocab_size - 4)])
    ids = [[1, 4, 5, 6, 7], [1, 8], [1, 9, 10], [1, 11, 12, 13]]
    patches = rng.normal(size=(4, cfg.patch_grid**2, cfg.d_patch))
    perm = np.array([2, 3, 1, 0])
    masked = [mask_tokens(seq, tcfg.mask_rate, 40 + b, vocab) for b, seq in enumerate(ids)]

    # per pair, the unbatched graphs
    w = [encode_text(params, cfg, seq) for seq in ids]
    v = [encode_image(params, cfg, p) for p in patches]
    tmat = ops.concat_rows([project_itc(ops.slice_rows(x, 0, 1), params, "text") for x in w])
    imat = ops.concat_rows([project_itc(ops.slice_rows(x, 0, 1), params, "image") for x in v])
    tm = np.concatenate([project_itc(ops.slice_rows(encode_text(momentum, cfg, seq), 0, 1),
                                     momentum, "text").value for seq in ids])
    im = np.concatenate([project_itc(ops.slice_rows(encode_image(momentum, cfg, p), 0, 1),
                                     momentum, "image").value for p in patches])
    itc = itc_loss_distilled(tmat, imat, tm, im, tcfg.itc_temperature, tcfg.distill_weight)
    logits, labels = [], []
    for b in range(4):
        for text, label in ((w[b], 1), (w[perm[b]], 0)):
            wl, vl = fuse(params, cfg, text, v[b], [])
            logits.append(model.itm_head(params, ops.slice_rows(wl, 0, 1),
                                         ops.slice_rows(vl, 0, 1)))
            labels.append(label)
    itm = itm_loss(ops.concat_rows(logits), labels)
    mlm = None
    for b, (corrupted, positions, targets) in enumerate(masked):
        wl, _ = fuse(params, cfg, encode_text(params, cfg, corrupted), v[b], [])
        part = mlm_loss(wl, params, positions, targets)
        mlm = part if mlm is None else ops.add(mlm, part)
    mlm = ops.scale(mlm, 1.0 / 4)
    ops.backward(pretrain_loss(itc, itm, mlm))
    want = _grads(params)

    ops.zero_grads(params.values())
    got = pretrain_losses(params, momentum, cfg, tcfg, ids, patches, perm, masked)
    ops.backward(pretrain_loss(*got))
    for g, ref in zip(got, (itc, itm, mlm)):
        assert abs(g.value.item() - ref.value.item()) < 1e-10 * abs(ref.value.item())
    _assert_same_grads(_grads(params), want)


def test_batched_evaluate_matches_items(tmp_path, monkeypatch):
    """evaluate in batches predicts and retrieves what it does item by item."""
    from ramm import train
    from ramm.objectives import TrainConfig
    from ramm.synthetic import SyntheticSpec, generate
    from ramm.train import build_index_cmd, evaluate, finetune, pretrain

    data, ckpt, index = tmp_path / "data", tmp_path / "ckpt", tmp_path / "index.idx"
    generate(SyntheticSpec(n_train=16, n_test=12, pairs_per_cluster=2, seed=3), data)
    vocab = Vocab.load(data / "vocab.txt")
    answers = (data / "answers.txt").read_text().split()
    mcfg = ModelConfig(vocab_size=len(vocab), n_answers=len(answers), d=16,
                       n_head=2, l_fuse=1, l_text=1, l_image=1, d_proj=8,
                       max_text_len=12, patch_grid=2, d_patch=16, d_ff=32,
                       dropout_rate=0.0)
    pretrain(data, ckpt, mcfg, TrainConfig(seed=0, batch_size=4), steps=3)
    build_index_cmd(ckpt, data, index)
    finetune(ckpt, index, data, 2, TrainConfig(seed=0, batch_size=4, lr=0.003),
             tmp_path / "ft", epochs=2)
    monkeypatch.setattr(train, "EVAL_BATCH", 5)
    _, batched = evaluate(tmp_path / "ft", index, data, 2, use_ema=False)
    monkeypatch.setattr(train, "EVAL_BATCH", 1)
    _, single = evaluate(tmp_path / "ft", index, data, 2, use_ema=False)
    assert len(batched) == 12
    assert [d["pred"] for d in batched] == [d["pred"] for d in single]
    assert ([[s["pair_id"] for s in d["retrieved"]] for d in batched]
            == [[s["pair_id"] for s in d["retrieved"]] for d in single])
