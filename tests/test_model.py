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

from conftest import batch_streams, micro_config, micro_params


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
         ops.constant(rng.normal(size=(cfg.patch_grid**2 + 1, cfg.d))))
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


def test_fuse_refuses_retrieved_image_of_another_row_count(rng):
    """A retrieved image that cannot share stream 0's image stack is a named
    ShapeError, not numpy's concatenation error."""
    cfg = micro_config()
    params, text0, image0, retrieved = _fusion_inputs(cfg, rng, 2)
    retrieved[1] = (retrieved[1][0], ops.constant(rng.normal(size=(3, cfg.d))))
    with pytest.raises(ops.ShapeError, match="image has 3 rows, stream 0's has 5"):
        fuse(params, cfg, text0, image0, retrieved)


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


@pytest.mark.parametrize("l_text, l_image, l_fuse", [(1, 1, 1), (2, 3, 2)])
def test_init_params_has_no_key_bias(l_text, l_image, l_fuse):
    """Softmax cancels a key bias (it adds q·b_k to each score of a query's
    row), so no attention has one: l_text + l_image + 6 * l_fuse tensors
    fewer than the 16 per encoder block, 72 per fusion layer and 24 others
    of an attention with all four biases."""
    cfg = micro_config(l_text=l_text, l_image=l_image, l_fuse=l_fuse)
    params = model.init_params(cfg, seed=0)
    n_attn = l_text + l_image + 6 * l_fuse
    assert not [n for n in params if n.endswith(".bk")]
    assert len([n for n in params if n.endswith(".wk")]) == n_attn
    assert len(params) == 16 * (l_text + l_image) + 72 * l_fuse + 24 - n_attn
    if (l_text, l_image, l_fuse) == (1, 1, 1):   # the criterion-07 depth
        assert len(params) == 120
        assert len([n for n in params if n.startswith(("fuse.", "vqa."))]) == 70


# -- one padded batch equals its items run one at a time ----------------------

def _grads(params):
    return {n: (p.grad.copy() if p.grad is not None else np.zeros_like(p.value))
            for n, p in params.items()}


def _assert_same_grads(got, want, tol=1e-10):
    for name in want:
        assert relative_error(got[name], want[name]) < tol, name


def test_padded_finetune_batch_matches_items(rng):
    """Loss and every parameter gradient of one padded fine-tune batch equal
    the mean over per-item passes, at 64-bit. The texts, stream 0's and the
    retrieved ones, differ in length."""
    cfg = micro_config(l_fuse=2)
    params = micro_params(cfg)
    n_img = cfg.patch_grid**2
    ids = [[1, 4, 5, 6], [1, 7], [1, 8, 9, 10, 11]]
    patches = rng.normal(size=(3, n_img, cfg.d_patch))
    retrieved = [
        [(rng.normal(size=(n, cfg.d)), rng.normal(size=(n_img + 1, cfg.d)))
         for n in lengths]
        for lengths in ([3, 2], [4, 1], [2, 5])]
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
    assert streams.text.shape == (3, 3, 5, cfg.d)
    wl, vl = _live_fuse(params, cfg, ids, patches, streams)
    batched = ops.cross_entropy(vqa_head(params, model.cls_rows(wl), model.cls_rows(vl)), targets)
    ops.backward(batched)
    assert abs(batched.value.item() - per_item.value.item()) < 1e-10 * per_item.value.item()
    _assert_same_grads(_grads(params), want)
    _assert_stack_matches(params, cfg, ids, patches, retrieved, targets, per_item, want)


def _live_fuse(params, cfg, ids, patches, streams, cls_only=True):
    """fuse as answer_logits runs it, but with stream 0 encoded live from
    `ids` and `patches`, so the encoders get gradients too: the retrieved
    slots of `streams` go through fuse's per-stream path."""
    slots = range(1, streams.text.shape[1])
    return fuse(params, cfg, encode_text(params, cfg, ids), encode_image(params, cfg, patches),
                [(ops.constant(streams.text[:, j]), ops.constant(streams.image[:, j]))
                 for j in slots],
                text_masks=([model.key_mask([len(seq) for seq in ids])]
                            + [streams.text_mask[:, j] for j in slots]),
                cls_only=cls_only)


def _assert_stack_matches(params, cfg, ids, patches, retrieved, targets, want_loss, want):
    """answer_logits on the gathered stack, stream 0's slot holding the
    encoders' states of `ids` and `patches`, gives `want_loss` and the
    fusion and head gradients of `want`, at 64-bit."""
    from ramm.train import answer_logits

    ops.zero_grads(params.values())
    w, v = encode_text(params, cfg, ids).value, encode_image(params, cfg, patches).value
    streams = batch_streams([(w[b, : len(seq)], v[b]) for b, seq in enumerate(ids)], retrieved)
    loss = ops.cross_entropy(answer_logits(params, cfg, streams), targets)
    ops.backward(loss)
    assert abs(loss.value.item() - want_loss.value.item()) < 1e-10 * want_loss.value.item()
    _assert_same_grads(_grads(params),
                       {n: g for n, g in want.items() if n.startswith(("fuse.", "vqa."))})


# -- stacked retrieved streams equal the per-stream fusion --------------------

def _per_stream_fuse(params, cfg, text0, image0, retrieved, text_masks):
    """Reference: the fusion stack with every retrieved stream run through
    every sublayer on its own, the last layer's retrieved feed-forward
    included. `retrieved` and `text_masks` hold one (B, n_j, d) text,
    image and key mask per stream (text_masks[0] is stream 0's)."""
    texts = [text0] + [t for t, _ in retrieved]
    images = [image0] + [v for _, v in retrieved]
    for i in range(cfg.l_fuse):
        mid_w, mid_v = [], []
        for j, (w, v, m) in enumerate(zip(texts, images, text_masks)):
            wn = model._ln(params, f"fuse.{i}.ln_sw", w)
            w1 = ops.add(w, model._mha(params, f"fuse.{i}.self_w", wn, wn, cfg.n_head,
                                       mask=m))
            vn = model._ln(params, f"fuse.{i}.ln_sv", v)
            v1 = ops.add(v, model._mha(params, f"fuse.{i}.self_v", vn, vn, cfg.n_head))
            wc = model._ln(params, f"fuse.{i}.ln_cw", w1)
            vc = model._ln(params, f"fuse.{i}.ln_cv", v1)
            mid_w.append(ops.add(w1, model._mha(params, f"fuse.{i}.cross_w", wc, vc,
                                                cfg.n_head)))
            mid_v.append(ops.add(v1, model._mha(params, f"fuse.{i}.cross_v", vc, wc,
                                                cfg.n_head, mask=m)))
        for streams, sub, ln_name in ((mid_w, "ret_w", "ln_rw"), (mid_v, "ret_v", "ln_rv")):
            cls = ops.concat_rows([ops.slice_rows(s, 0, 1, axis=-2) for s in streams],
                                  axis=-2)
            keys = model._ln(params, f"fuse.{i}.{ln_name}", cls)
            out = model._mha(params, f"fuse.{i}.{sub}", ops.slice_rows(keys, 0, 1, axis=-2),
                             keys, cfg.n_head)
            streams[0] = ops.add_to_rows(streams[0], out)
        texts = [ops.add(w, model._ffn(params, f"fuse.{i}.ffn_w",
                                       model._ln(params, f"fuse.{i}.ln_fw", w)))
                 for w in mid_w]
        images = [ops.add(v, model._ffn(params, f"fuse.{i}.ffn_v",
                                        model._ln(params, f"fuse.{i}.ln_fv", v)))
                  for v in mid_v]
    return texts[0], images[0]


def test_stacked_fusion_matches_per_stream_fusion(rng):
    """Loss and every parameter gradient of the stacked fusion equal the
    per-stream reference at 64-bit, over two layers (so the stacked
    retrieved feed-forward of layer 0 runs) and retrieved texts of
    different lengths (up to 10 tokens)."""
    from conftest import _pad

    cfg = micro_config(l_fuse=2)
    params = micro_params(cfg)
    n_img = cfg.patch_grid**2
    ids = [[1, 4, 5, 6], [1, 7], [1, 8, 9, 10, 11]]
    patches = rng.normal(size=(3, n_img, cfg.d_patch))
    retrieved = [
        [(rng.normal(size=(n, cfg.d)), rng.normal(size=(n_img + 1, cfg.d)))
         for n in lengths]
        for lengths in ([3, 9], [4, 1], [10, 6])]
    targets = [2, 0, 1]

    # reference input: one zero-padded array per slot
    slots, masks = [], []
    for j in range(2):
        slot = [pairs[j] for pairs in retrieved]
        text, mask = _pad([t for t, _ in slot])
        slots.append((ops.constant(text), ops.constant(np.stack([v for _, v in slot]))))
        masks.append(mask)
    wf, vf = _per_stream_fuse(params, cfg, encode_text(params, cfg, ids),
                              encode_image(params, cfg, patches), slots,
                              [model.key_mask([len(seq) for seq in ids])] + masks)
    want_loss = ops.cross_entropy(vqa_head(params, model.cls_rows(wf), model.cls_rows(vf)),
                                  targets)
    ops.backward(want_loss)
    want = _grads(params)

    ops.zero_grads(params.values())
    originals = [(np.zeros((len(seq), cfg.d)), np.zeros((n_img + 1, cfg.d))) for seq in ids]
    streams = batch_streams(originals, retrieved)
    assert streams.text.shape == (3, 3, 10, cfg.d)
    wl, vl = _live_fuse(params, cfg, ids, patches, streams)
    got_loss = ops.cross_entropy(vqa_head(params, model.cls_rows(wl), model.cls_rows(vl)),
                                 targets)
    ops.backward(got_loss)
    assert abs(got_loss.value.item() - want_loss.value.item()) < 1e-10 * want_loss.value.item()
    _assert_same_grads(_grads(params), want)
    _assert_stack_matches(params, cfg, ids, patches, retrieved, targets, want_loss, want)


@pytest.mark.parametrize("r", [0, 2])
def test_cls_only_last_layer_equals_full_cls_rows(rng, r):
    """fuse with cls_only computes, at 64-bit, the CLS rows of the full last
    layer and the same gradients through them, over two layers and texts of
    different lengths."""
    cfg = micro_config(l_fuse=2)
    params = micro_params(cfg)
    n_img = cfg.patch_grid**2
    ids = [[1, 4, 5, 6], [1, 7], [1, 8, 9, 10, 11]]
    patches = rng.normal(size=(3, n_img, cfg.d_patch))
    retrieved = [[(rng.normal(size=(n, cfg.d)), rng.normal(size=(n_img + 1, cfg.d)))
                  for n in lengths][:r] for lengths in ([3, 9], [4, 1], [7, 2])]
    originals = [(np.zeros((len(seq), cfg.d)), np.zeros((n_img + 1, cfg.d))) for seq in ids]
    streams = batch_streams(originals, retrieved)
    runs = []
    for cls_only in (False, True):
        ops.zero_grads(params.values())
        wl, vl = _live_fuse(params, cfg, ids, patches, streams, cls_only)
        w_cls, v_cls = model.cls_rows(wl), model.cls_rows(vl)
        ops.backward(ops.cross_entropy(vqa_head(params, w_cls, v_cls), [2, 0, 1]))
        runs.append((w_cls.value, v_cls.value, _grads(params)))
    (w_full, v_full, want), (w_cls, v_cls, got) = runs
    assert wl.value.shape == vl.value.shape == (3, 1, cfg.d)
    assert relative_error(w_cls, w_full) < 1e-10 and relative_error(v_cls, v_full) < 1e-10
    _assert_same_grads(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_r0_stack_is_stream0_fused_alone(rng, dtype):
    """An r = 0 StreamBatch, stream 0 in its one slot, gives through
    answer_logits the logits and gradients of stream 0 fused alone, bit for
    bit, with dropout drawing the same masks."""
    from ramm.train import answer_logits

    cfg = micro_config(l_fuse=2)
    params = micro_params(cfg, dtype=dtype)
    n_img = cfg.patch_grid**2
    originals = [(rng.normal(size=(n, cfg.d)).astype(dtype),
                  rng.normal(size=(n_img + 1, cfg.d)).astype(dtype)) for n in (4, 2, 5)]
    streams = batch_streams(originals, [[], [], []])
    assert streams.text.shape == (3, 1, 5, cfg.d)
    plan = DropoutPlan(seed=5, rate=0.2).at(step=3)

    def alone():
        wl, vl = fuse(params, cfg, ops.constant(streams.text[:, 0]),
                      ops.constant(streams.image[:, 0]), [], plan,
                      [streams.text_mask[:, 0]], cls_only=True)
        return vqa_head(params, model.cls_rows(wl), model.cls_rows(vl))

    runs = []
    for logits in (lambda: answer_logits(params, cfg, streams, plan), alone):
        ops.zero_grads(params.values())
        out = logits()
        ops.backward(ops.cross_entropy(out, [2, 0, 1]))
        runs.append((out.value, _grads(params)))
    (got, got_grads), (want, want_grads) = runs
    assert got.dtype == dtype and np.array_equal(got, want)
    for name, grad in want_grads.items():
        assert np.array_equal(got_grads[name], grad), name


def test_answer_logits_nodes_do_not_grow_with_r(rng, monkeypatch):
    """Each sublayer runs the retrieved streams as one node, so a forward
    pass builds as many nodes at r = 4 as at r = 1."""
    from ramm.train import answer_logits

    cfg = micro_config(l_fuse=2)
    params = micro_params(cfg)
    n_img = cfg.patch_grid**2
    count = [0]
    init = ops.Node.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    def nodes(r: int) -> int:
        originals = [(rng.normal(size=(3, cfg.d)), rng.normal(size=(n_img + 1, cfg.d)))
                     for _ in range(2)]
        retrieved = [[(rng.normal(size=(2 + j, cfg.d)), rng.normal(size=(n_img + 1, cfg.d)))
                      for j in range(r)] for _ in range(2)]
        streams = batch_streams(originals, retrieved)
        count[0] = 0
        answer_logits(params, cfg, streams)
        return count[0]

    monkeypatch.setattr(ops.Node, "__init__", counting)
    assert nodes(1) == nodes(4)


def test_pretrain_losses_batch_matches_items(rng):
    """ITC (distilled), ITM and MLM of one padded batch, and the gradient of
    their sum, equal the per-pair construction at 64-bit."""
    from ramm.objectives import (
        TrainConfig, itc_loss_distilled, itm_loss, mask_tokens, mlm_loss,
        pretrain_loss,
    )
    from conftest import clone_params
    from ramm.train import pretrain_losses

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


def _pretrain_step_inputs(cfg, rng, b=8):
    """A student, a momentum teacher and one pretrain batch of b pairs whose
    captions differ in length, with their mask_tokens outputs."""
    from ramm.objectives import TrainConfig, mask_tokens

    tcfg = TrainConfig(batch_size=b)
    vocab = Vocab([f"w{i}" for i in range(cfg.vocab_size - 4)])
    ids = [[1, *rng.integers(4, cfg.vocab_size, size=n).tolist()]
           for n in rng.integers(1, cfg.max_text_len, size=b)]
    masked = [mask_tokens(seq, tcfg.mask_rate, 40 + i, vocab) for i, seq in enumerate(ids)]
    patches = rng.normal(size=(b, cfg.patch_grid**2, cfg.d_patch))
    return (micro_params(cfg, dtype=np.float32), micro_params(cfg, seed=8, dtype=np.float32),
            cfg, tcfg, ids, patches, np.roll(np.arange(b), 1), masked)


def test_pretrain_step_draws_each_dropout_mask_once(rng, monkeypatch):
    """Within one pretrain step every dropout site draws its mask once, over
    all the rows it drops, so no (tag, step, pass) key repeats: the clean and
    the corrupted captions, and the ITM and MLM fusion rows, get masks of
    their own."""
    from ramm.train import pretrain_losses

    cfg = micro_config(l_fuse=2, dropout_rate=0.5)
    keys = []
    mask = DropoutPlan.mask
    monkeypatch.setattr(DropoutPlan, "mask", lambda self, tag, shape: (
        keys.append((tag, self.step, self.pass_idx)) or mask(self, tag, shape)))
    pretrain_losses(*_pretrain_step_inputs(cfg, rng), DropoutPlan(seed=3, rate=0.5).at(step=5))
    assert keys and len(set(keys)) == len(keys), sorted(keys)


def test_pretrain_step_is_one_encode_and_one_fuse(rng, monkeypatch):
    """On the criterion-07 model config, which the finetune-r4 benchmark
    pretrains, one pretrain step encodes the student's texts once and fuses
    once, and builds at most 120 nodes (150 with a second text encode and
    a second fusion pass)."""
    from ramm import train
    from ramm.objectives import pretrain_loss

    cfg = ModelConfig(vocab_size=40, n_answers=5, d=32, n_head=2, l_fuse=1, l_text=1,
                      l_image=1, d_proj=16, max_text_len=16, patch_grid=2, d_patch=16,
                      d_ff=64, dropout_rate=0.0)
    inputs = _pretrain_step_inputs(cfg, rng)
    calls = []

    def recording(name):
        real = getattr(train, name)

        def call(params, *args, **kwargs):
            if params is inputs[0]:   # the student's, not the momentum teacher's
                calls.append(name)
            return real(params, *args, **kwargs)
        return call

    for name in ("encode_text", "fuse"):
        monkeypatch.setattr(train, name, recording(name))
    count = [0]
    init = ops.Node.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ops.Node, "__init__", counting)
    pretrain_loss(*train.pretrain_losses(*inputs))
    assert sorted(calls) == ["encode_text", "fuse"]
    assert count[0] <= 120, count[0]


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


# -- gathered stream batches equal the per-item copy loops ------------------------

def _copy_loop_streams(originals, retrieved):
    """batch_streams as it was before the states became gathered rows, kept
    as the bitwise reference: zero-padded copies, item by item and slot by
    slot, stream 0 in slot 0, every text padded to the longest of the
    batch."""
    flat = [*originals, *(pair for pairs in retrieved for pair in pairs)]
    n = max(len(t) for t, _ in flat)
    shape = (len(retrieved), 1 + len(retrieved[0]))
    text = np.zeros(shape + (n, flat[0][0].shape[-1]), np.result_type(*{t.dtype for t, _ in flat}))
    image = np.zeros(shape + flat[0][1].shape, np.result_type(*{v.dtype for _, v in flat}))
    lengths = np.empty(shape, dtype=np.int64)
    for b, pairs in enumerate(retrieved):
        for j, (t, v) in enumerate([originals[b], *pairs]):
            text[b, j, : len(t)] = t
            image[b, j] = v
            lengths[b, j] = len(t)
    text_mask = np.where(np.arange(n) < lengths[..., None], 0.0, model.MASKED)
    return text, image, text_mask


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("r", [0, 1, 4])
def test_gathered_streams_equal_copy_loops(rng, dtype, r):
    """batch_streams, and gather_streams over tables built from a pool of
    states (as Stage builds them), equal the copy loops array for array,
    with texts of 1 to 12 tokens and a repeated pair."""
    d, n_img = 8, 5
    pool = [(rng.normal(size=(int(rng.integers(1, 13)), d)).astype(dtype),
             rng.normal(size=(n_img, d)).astype(dtype)) for _ in range(12)]
    items = [0, 1, 2, 3]
    chosen = [[int(k) for k in rng.choice(range(4, 12), size=r, replace=False)]
              for _ in items]
    if r:
        chosen[1][0] = chosen[0][0]        # two items retrieved the same pair
    want = _copy_loop_streams([pool[i] for i in items],
                              [[pool[k] for k in ks] for ks in chosen])

    texts = model.StateRows([t for t, _ in pool])
    images = model.StateRows([v for _, v in pool])
    got = [batch_streams([pool[i] for i in items],
                         [[pool[k] for k in ks] for ks in chosen]),
           model.gather_streams(texts, images, items, chosen)]
    for streams in got:
        for name, a in zip(("text", "image", "text_mask"), want):
            b = getattr(streams, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b), name
