"""Toy uni-modal encoders, contrastive projection heads, and the dual-stream
co-attention fusion stack extended with retrieval-attention.

All streams (the original sample plus r retrieved pairs) share layer weights.
Retrieval-attention runs single-query multi-head attention from the original
stream's CLS over the CLS rows of all streams and residually updates only the
original CLS; every other row of every stream passes through untouched.

fuse runs the original stream and the r retrieved streams as one stack per
modality, (r+1, n, d) or (B, r+1, n, d) with the original in slot 0, so
each fusion sublayer runs every stream as one node whatever r is. A batch's
StreamBatch is that stack as gathered; per-stream inputs are folded into it
by fuse. fuse returns only the original stream, so the last layer skips the
retrieved streams' feed-forward; when only CLS rows are read, it computes
only those.

Every forward pass takes one item, with (n, d) states, or a batch, with
(B, n, d) states: the unbatched case is the same code without the leading
axis. In a batch, text is padded to its longest sequence and padded
positions are dropped from attention by an additive key mask (key_mask).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import ops
from .errors import ConfigError, ContractViolation, FormatError
from .ops import Node
from .tensor import load_tensor, save_tensor
from .textio import read_lines

PAD, CLS, MASK, UNK = "[pad]", "[cls]", "[mask]", "[unk]"
SPECIALS = [PAD, CLS, MASK, UNK]
PAD_ID = SPECIALS.index(PAD)

# additive attention-mask value of a dropped key; finite, so a row whose
# every key is dropped stays finite instead of turning into NaN
MASKED = -1e9

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class Vocab:
    """Word-level vocabulary with fixed special tokens at the front."""

    def __init__(self, words: list[str]):
        self.tokens = SPECIALS + [w for w in words if w not in SPECIALS]
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ConfigError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def cls_id(self):
        return self.index[CLS]

    @property
    def mask_id(self):
        return self.index[MASK]

    @property
    def unk_id(self):
        return self.index[UNK]

    def save(self, path):
        Path(path).write_text("\n".join(self.tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocab":
        tokens = read_lines(path)
        if tokens[: len(SPECIALS)] != SPECIALS:
            raise FormatError(f"{path}: the first lines are not the special tokens {SPECIALS}")
        return cls(tokens[len(SPECIALS) :])


def tokenize(text: str, vocab: Vocab, max_len: int) -> list[int]:
    """Lowercase, split on runs of [a-z0-9], map OOV to UNK, prepend CLS."""
    words = _TOKEN_RE.findall(text.lower())
    ids = [vocab.cls_id] + [vocab.index.get(w, vocab.unk_id) for w in words]
    return ids[:max_len]


@dataclass
class ModelConfig:
    vocab_size: int
    n_answers: int = 2
    d: int = 64
    n_head: int = 4
    l_fuse: int = 2
    l_text: int = 2
    l_image: int = 2
    d_proj: int = 32
    max_text_len: int = 32
    patch_grid: int = 2
    d_patch: int = 16
    d_ff: int | None = None
    dropout_rate: float = 0.1

    def __post_init__(self):
        if self.d_ff is None:
            self.d_ff = 4 * self.d
        dims = {k: v for k, v in vars(self).items() if k != "dropout_rate"}
        if bad := [k for k, v in dims.items() if type(v) is not int or v < 1]:
            raise ConfigError(f"model dimension {bad[0]} = {dims[bad[0]]!r} "
                              "is not a positive integer")
        if self.d % self.n_head != 0:
            raise ConfigError(f"d={self.d} not divisible by n_head={self.n_head}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError("dropout_rate must be in [0, 1)")

    @property
    def n_patches(self) -> int:
        return self.patch_grid**2

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


class DropoutPlan:
    """Deterministic dropout masks keyed by (seed, step, pass, site tag)."""

    def __init__(self, seed: int, rate: float, step: int = 0, pass_idx: int = 0):
        self.seed = seed
        self.rate = rate
        self.step = step
        self.pass_idx = pass_idx

    def at(self, step: int, pass_idx: int = 0) -> "DropoutPlan":
        return DropoutPlan(self.seed, self.rate, step, pass_idx)

    def mask(self, tag: str, shape) -> np.ndarray:
        key = f"{self.seed}|{self.step}|{self.pass_idx}|{tag}".encode()
        digest = hashlib.blake2b(key, digest_size=8).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "little"))
        return (rng.random(shape) >= self.rate).astype(np.float64)


def _maybe_drop(x: Node, dctx: DropoutPlan | None, tag: str) -> Node:
    if dctx is None or dctx.rate <= 0.0:
        return x
    return ops.dropout(x, dctx.mask(tag, x.value.shape), dctx.rate)


# ---------------------------------------------------------------------------
# Parameters

ATTN_FIELDS = ("wq", "bq", "wk", "wv", "bv", "wo", "bo")  # no key bias: softmax cancels q·bk


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in the order `init_params` draws
    them, from the config's arithmetic alone: it allocates nothing."""
    d, ff, shapes = cfg.d, cfg.d_ff, {}

    def attn(prefix):
        shapes.update({f"{prefix}.{w}": (d, d) for w in ("wq", "wk", "wv", "wo")})
        shapes.update({f"{prefix}.{b}": (d,) for b in ("bq", "bv", "bo")})

    def ln(prefix):
        shapes.update({f"{prefix}.g": (d,), f"{prefix}.b": (d,)})

    def ffn(prefix):
        shapes.update({f"{prefix}.w1": (d, ff), f"{prefix}.b1": (ff,),
                       f"{prefix}.w2": (ff, d), f"{prefix}.b2": (d,)})

    def block(prefix):
        attn(f"{prefix}.attn")
        ln(f"{prefix}.ln1")
        ffn(f"{prefix}.ffn")
        ln(f"{prefix}.ln2")

    shapes.update({"text.tok_emb": (cfg.vocab_size, d), "text.pos_emb": (cfg.max_text_len, d)})
    for i in range(cfg.l_text):
        block(f"text.{i}")
    ln("text.lnf")

    shapes.update({"image.cls": (1, d), "image.patch_proj.w": (cfg.d_patch, d),
                   "image.patch_proj.b": (d,), "image.pos_emb": (cfg.n_patches + 1, d)})
    for i in range(cfg.l_image):
        block(f"image.{i}")
    ln("image.lnf")

    for modality in ("text", "image"):
        shapes.update({f"proj.{modality}.w": (d, cfg.d_proj),
                       f"proj.{modality}.b": (cfg.d_proj,)})

    for i in range(cfg.l_fuse):
        for sub in ("self_w", "self_v", "cross_w", "cross_v", "ret_w", "ret_v"):
            attn(f"fuse.{i}.{sub}")
        for lname in ("ln_sw", "ln_sv", "ln_cw", "ln_cv", "ln_rw", "ln_rv",
                      "ln_fw", "ln_fv"):
            ln(f"fuse.{i}.{lname}")
        ffn(f"fuse.{i}.ffn_w")
        ffn(f"fuse.{i}.ffn_v")

    for head, n_out in (("vqa", cfg.n_answers), ("itm", 2)):
        shapes.update({f"{head}.w1": (2 * d, d), f"{head}.b1": (d,),
                       f"{head}.w2": (d, n_out), f"{head}.b2": (n_out,)})
    shapes.update({"mlm.w": (d, cfg.vocab_size), "mlm.b": (cfg.vocab_size,)})
    return shapes


def init_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> dict[str, Node]:
    """Matrices drawn in `param_shapes` order with Glorot scaling (a fixed
    small std would crush signal at small d); layer-norm gains 1, every
    other vector 0."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(cfg).items():
        if len(shape) == 2:
            value = rng.normal(0.0, math.sqrt(2.0 / sum(shape)), size=shape)
        else:
            value = np.full(shape, 1.0 if name.endswith(".g") else 0.0)
        params[name] = ops.param(value.astype(dtype))
    return params


def reinit_group(params: dict[str, Node], prefix: str, seed: int) -> None:
    """Fresh random init for one parameter group (e.g. the answer head)."""
    rng = np.random.default_rng(seed)
    for name in sorted(params):
        if not name.startswith(prefix):
            continue
        node = params[name]
        if node.value.ndim == 2:
            node.value = rng.normal(0.0, 0.02, size=node.value.shape).astype(node.dtype)
        else:
            fill = 1.0 if name.endswith(".g") else 0.0
            node.value = np.full_like(node.value, fill)


def save_params(params: dict[str, Node], path) -> None:
    """One RAMMTEN1 float32 vector at `path`: every tensor flattened and laid
    end to end in sorted name order. A tensor with a value that is not finite
    in float32 raises ContractViolation before anything is written."""
    names = sorted(params)
    with np.errstate(over="ignore"):
        flat = np.concatenate([params[n].value.reshape(-1) for n in names], dtype=np.float32)
        if not np.isfinite(flat).all():   # name the first tensor that is not
            bad = next(n for n in names
                       if not np.isfinite(params[n].value.astype(np.float32)).all())
            raise ContractViolation(f"{bad}: not finite in float32, checkpoint not written")
    save_tensor(flat, path)


def load_params(path, shapes: dict[str, tuple]) -> dict[str, Node]:
    """The float32 tensors of a save_params file, cut from it by `shapes` in
    sorted name order; a file that is not one float32 vector of exactly
    their total length raises FormatError."""
    names = sorted(shapes)
    sizes = [math.prod(shapes[n]) for n in names]
    flat = load_tensor(path).array
    if flat.dtype != np.float32 or flat.shape != (sum(sizes),):
        raise FormatError(f"{path}: {flat.dtype} of shape {flat.shape}, the config needs "
                          f"{len(names)} float32 tensors of {sum(sizes)} values")
    return {n: ops.param(part.reshape(shapes[n]))
            for n, part in zip(names, np.split(flat, np.cumsum(sizes[:-1])))}


# ---------------------------------------------------------------------------
# Forward passes


def key_mask(lengths) -> np.ndarray:
    """Additive key-padding mask (..., max length) of an array of sequence
    lengths: 0 on the first lengths[b] positions of sequence b, MASKED on
    its padding."""
    lengths = np.asarray(lengths)
    return np.where(np.arange(lengths.max()) < lengths[..., None], 0.0, MASKED)


def _mha(params, prefix, x_q: Node, x_kv: Node, n_head: int,
         dctx=None, tag: str = "", mask: np.ndarray | None = None) -> Node:
    """Multi-head attention with output projection, queries from x_q.
    `mask` is an additive (..., n_kv) key mask (see key_mask)."""
    weights = (params[f"{prefix}.{f}"] for f in ATTN_FIELDS)
    out = ops.multi_head_attention(x_q, x_kv, *weights, n_head, mask)
    return _maybe_drop(out, dctx, tag or prefix)


def _ln(params, prefix, x: Node) -> Node:
    return ops.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def _ffn(params, prefix, x: Node, dctx=None, tag: str = "") -> Node:
    h = ops.gelu(ops.linear(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    out = ops.linear(h, params[f"{prefix}.w2"], params[f"{prefix}.b2"])
    return _maybe_drop(out, dctx, tag or prefix)


def _encoder_block(params, prefix, x: Node, n_head: int, dctx=None,
                   mask: np.ndarray | None = None) -> Node:
    xn = _ln(params, f"{prefix}.ln1", x)
    x = ops.add(x, _mha(params, f"{prefix}.attn", xn, xn, n_head, dctx,
                        f"{prefix}.attn", mask))
    x = ops.add(x, _ffn(params, f"{prefix}.ffn", _ln(params, f"{prefix}.ln2", x),
                        dctx, f"{prefix}.ffn"))
    return x


def encode_text(params, cfg: ModelConfig, ids, dctx: DropoutPlan | None = None) -> Node:
    """Token + position embedding, then l_text pre-norm self-attention layers.

    `ids` is one id sequence, giving (n, d) states, or a list of sequences,
    padded with PAD_ID to the longest and giving (B, n, d) states whose
    padding is masked by key_mask of the sequence lengths."""
    mask = None
    if len(ids) and not np.isscalar(ids[0]):
        mask = key_mask([len(seq) for seq in ids])
        grid = np.full(mask.shape, PAD_ID, dtype=np.int64)
        for b, seq in enumerate(ids):
            grid[b, : len(seq)] = seq
        ids = grid
    ids = np.asarray(ids, dtype=np.int64)
    x = ops.gather_rows(params["text.tok_emb"], ids)
    x = ops.add(x, ops.slice_rows(params["text.pos_emb"], 0, ids.shape[-1]))
    for i in range(cfg.l_text):
        x = _encoder_block(params, f"text.{i}", x, cfg.n_head, dctx, mask)
    return _ln(params, "text.lnf", x)


def encode_image(params, cfg: ModelConfig, patches, dctx: DropoutPlan | None = None) -> Node:
    """Patch projection plus learned CLS slot, then l_image encoder layers.
    `patches` is (n_patches, d_patch), or (B, n_patches, d_patch) for a batch."""
    patches = ops.as_node(patches)
    if patches.value.shape[-1] != cfg.d_patch:
        raise ops.ShapeError(
            f"patch dim {patches.value.shape[-1]} != configured {cfg.d_patch}"
        )
    proj = ops.linear(patches, params["image.patch_proj.w"], params["image.patch_proj.b"])
    # one copy of the learned CLS row per item
    cls = ops.gather_rows(params["image.cls"],
                          np.zeros(patches.value.shape[:-2] + (1,), dtype=np.int64))
    x = ops.concat_rows([cls, proj], axis=-2)
    x = ops.add(x, ops.slice_rows(params["image.pos_emb"], 0, x.value.shape[-2]))
    for i in range(cfg.l_image):
        x = _encoder_block(params, f"image.{i}", x, cfg.n_head, dctx)
    return _ln(params, "image.lnf", x)


def cls_rows(states: Node) -> Node:
    """The CLS row of each item as an (m, d) matrix: (1, d) for unbatched
    (n, d) states, (B, d) for a (B, n, d) batch."""
    return ops.reshape(ops.slice_rows(states, 0, 1, axis=-2), (-1, states.value.shape[-1]))


def project_itc(cls_row: Node, params, modality: str) -> Node:
    """Linear projection of CLS rows followed by L2 normalization."""
    if modality not in ("text", "image"):
        raise ConfigError(f"unknown modality {modality!r}")
    out = ops.linear(cls_row, params[f"proj.{modality}.w"], params[f"proj.{modality}.b"])
    return ops.l2_normalize_rows(out)


@dataclass
class FusionState:
    """Dual-stream hidden states: stream 0, the original pair, then the r
    retrieved pairs, in one of two layouts.

    As a list, text_streams[j] and image_streams[j] are stream j, (n_j, d),
    or (B, n_j, d) for a batch. Folded, each holds one entry, the stack of
    all r+1 streams with stream 0 in slot 0, (..., r+1, n, d), as a
    StreamBatch holds it or fuse folds it. text_masks holds the additive
    key mask of each text entry, (B, n) or (..., r+1, n)."""

    text_streams: list[Node]
    image_streams: list[Node]
    layer_index: int = 0
    text_masks: list | None = None
    folded: bool = False

    @property
    def r(self) -> int:
        if self.folded:
            return self.text_streams[0].value.shape[-3] - 1
        return len(self.text_streams) - 1


def retrieval_attention(state: FusionState, params, cfg: ModelConfig,
                        layer: int, dctx: DropoutPlan | None = None) -> FusionState:
    """Single-query attention from stream 0's CLS over all streams' CLS rows.

    Output is added residually to stream 0's CLS only; every other position
    of every stream keeps its value bitwise, and in the list layout every
    stream j > 0 is returned as the same node.
    """
    if state.r < 1:
        raise ContractViolation("retrieval_attention requires r >= 1 streams")

    def per_modality(streams: list[Node], sub: str, ln_name: str) -> list[Node]:
        # the rows of each entry, a folded stack's slots laid end to end
        flat = streams[0].value.shape[: -3 if state.folded else -2] + (-1, cfg.d)
        cls = ops.concat_rows([ops.reshape(ops.slice_rows(s, 0, 1, axis=-2), flat)
                               for s in streams], axis=-2)
        keys = _ln(params, f"fuse.{layer}.{ln_name}", cls)
        query = ops.slice_rows(keys, 0, 1, axis=-2)
        out = _mha(params, f"fuse.{layer}.{sub}", query, keys, cfg.n_head,
                   dctx, f"fuse.{layer}.{sub}")
        rows = ops.add_to_rows(ops.reshape(streams[0], flat), out)
        return [ops.reshape(rows, streams[0].value.shape)] + streams[1:]

    return replace(
        state,
        text_streams=per_modality(state.text_streams, "ret_w", "ln_rw"),
        image_streams=per_modality(state.image_streams, "ret_v", "ln_rv"),
    )


def fusion_layer(state: FusionState, params, cfg: ModelConfig, retrieval_enabled: bool,
                 dctx: DropoutPlan | None = None, cls_only: bool = False) -> FusionState:
    """One dual-stream layer: self-attention, cross-attention, optional
    retrieval-attention, then per-modality feed-forward; residual + pre-norm
    around every sublayer. `state` holds one entry per modality, stream 0
    alone or the folded stack of every stream, and each sublayer runs it as
    one node; the streams of a stack share weights and are independent until
    retrieval-attention couples their CLS rows. The last layer (layer_index
    l_fuse - 1) returns stream 0 alone: nothing reads the retrieved streams
    after it, so their feed-forward is skipped. With cls_only the layer
    computes only CLS rows: cross-attention queries from every stream's,
    the feed-forward on stream 0's, which it returns as (..., 1, d)."""
    if len(state.text_streams) != 1:
        raise ContractViolation("fusion_layer takes stream 0 alone or the folded stack; "
                                "fuse folds them")
    i = state.layer_index
    last = i == cfg.l_fuse - 1
    p = f"fuse.{i}."
    (w,), (v,) = state.text_streams, state.image_streams
    m = state.text_masks[0] if state.text_masks else None

    # dropout masks are keyed by these tags: ".s0" (stream 0) keeps the r = 0 path's draws
    def attn(sub: str, q: Node, kv: Node, mask=None) -> Node:
        return _mha(params, p + sub, q, kv, cfg.n_head, dctx, f"{p}{sub}.s0", mask)

    def ffn(sub: str, ln_name: str, x: Node) -> Node:
        return ops.add(x, _ffn(params, p + sub, _ln(params, p + ln_name, x), dctx, f"{p}{sub}.s0"))

    wn, vn = _ln(params, p + "ln_sw", w), _ln(params, p + "ln_sv", v)
    w, v = ops.add(w, attn("self_w", wn, wn, m)), ops.add(v, attn("self_v", vn, vn))
    wc, vc = qw, qv = _ln(params, p + "ln_cw", w), _ln(params, p + "ln_cv", v)
    if cls_only:
        w, v, qw, qv = (ops.slice_rows(x, 0, 1, axis=-2) for x in (w, v, wc, vc))
    w, v = ops.add(w, attn("cross_w", qw, vc)), ops.add(v, attn("cross_v", qv, wc, m))

    mid = replace(state, text_streams=[w], image_streams=[v])
    if retrieval_enabled and mid.r >= 1:
        mid = retrieval_attention(mid, params, cfg, i, dctx)
    (w,), (v,) = mid.text_streams, mid.image_streams
    if last and mid.folded:
        w, v = (ops.reshape(ops.slice_rows(x, 0, 1, axis=-3),
                            x.value.shape[:-3] + x.value.shape[-2:]) for x in (w, v))
    return replace(mid, text_streams=[ffn("ffn_w", "ln_fw", w)],
                   image_streams=[ffn("ffn_v", "ln_fv", v)],
                   folded=mid.folded and not last, layer_index=i + 1)


def _fold(streams: list[tuple[Node, Node]], masks: list):
    """(text, image) streams, each (..., n_j, d), their images with stream
    0's row count, as one text and one image stack, (..., r+1, n, d), texts
    zero-padded to the longest, plus the text stack's key mask: each
    stream's from `masks`, or where it has none, every position kept."""
    rows = streams[0][1].value.shape[-2]
    if odd := [v.value.shape[-2] for _, v in streams if v.value.shape[-2] != rows]:
        raise ops.ShapeError(f"a retrieved image has {odd[0]} rows, stream 0's has {rows}")
    n = max(t.value.shape[-2] for t, _ in streams)
    texts, images, keys = [], [], []
    for j, (t, v) in enumerate(streams):
        shape = t.value.shape
        m = masks[j] if j < len(masks) and masks[j] is not None else np.zeros(shape[:-1])
        keys.append(np.concatenate([m, np.full(m.shape[:-1] + (n - m.shape[-1],), MASKED)],
                                   axis=-1)[..., None, :])
        if shape[-2] < n:
            t = ops.concat_rows([t, np.zeros(shape[:-2] + (n - shape[-2], shape[-1]), t.dtype)],
                                axis=-2)
        texts.append(ops.reshape(t, shape[:-2] + (1, n, shape[-1])))
        images.append(ops.reshape(v, v.value.shape[:-2] + (1,) + v.value.shape[-2:]))
    return (ops.concat_rows(texts, axis=-3), ops.concat_rows(images, axis=-3),
            np.concatenate(keys, axis=-2))


def fuse(params, cfg: ModelConfig, text0: Node, image0: Node,
         retrieved: list[tuple[Node, Node]],
         dctx: DropoutPlan | None = None, text_masks: list | None = None,
         cls_only: bool = False) -> tuple[Node, Node]:
    """Run the full fusion stack; returns final stream-0 representations.

    `retrieved` lists one (text, image) node pair per retrieved stream,
    shaped like stream 0 and with texts of any length; stream 0 and they are
    folded here into one stack per modality (see FusionState). With no
    retrieved pairs, a (B, r+1, n, d) text0 and image0 are that stack
    already, as StreamBatch holds it; (n, d) or (B, n, d) ones are stream 0
    alone, which runs without the retrieval-attention sublayer, so the r=0
    path is the plain co-attention model bit-for-bit; so is a stack of one
    slot. For a batch, text_masks holds the key mask of text0 (stream 0's or
    the stack's), then those of the retrieved streams. cls_only, for a
    caller that reads only CLS rows, makes the last layer compute only
    those (see fusion_layer), so the result is (..., 1, d).
    """
    folded = bool(retrieved) or text0.value.ndim == 4
    state = FusionState([text0], [image0], text_masks=text_masks and text_masks[:1],
                        folded=folded)
    if retrieved:
        text, image, mask = _fold([(text0, image0), *retrieved], text_masks or [])
        state = replace(state, text_streams=[text], image_streams=[image], text_masks=[mask])
    for i in range(cfg.l_fuse):
        state = fusion_layer(state, params, cfg, folded, dctx, cls_only and i == cfg.l_fuse - 1)
    return state.text_streams[0], state.image_streams[0]


@dataclass
class StreamBatch:
    """The fusion streams of a batch as constant arrays, folded as fuse runs
    them: stream 0 in slot 0, then the r retrieved streams, every text
    padded to one length n. With r = 0 it holds stream 0 alone in one slot."""

    text: np.ndarray          # (B, r+1, n, d), padded
    image: np.ndarray         # (B, r+1, n_patches + 1, d)
    text_mask: np.ndarray     # additive key mask (B, r+1, n)


class StateRows:
    """Encoder states of sequences of at most n positions as the rows of a
    zero-padded (len(states), n, d) array, with their lengths: states[i] is
    row i."""

    def __init__(self, states: list[np.ndarray]):
        self.lengths = np.array([len(a) for a in states], dtype=np.int64)
        self.values = np.zeros((len(states), self.lengths.max(), states[0].shape[-1]),
                               np.result_type(*{a.dtype for a in states}))
        for row, a in enumerate(states):
            self.values[row, : len(a)] = a

    def gather(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """The states of `rows`, an index array of any shape, cut to the
        longest of them, and their additive key mask."""
        lengths = self.lengths[rows]
        return self.values[rows, : lengths.max()], key_mask(lengths)


def gather_streams(texts: StateRows, images: StateRows, originals: list[int],
                   retrieved: list[list[int]]) -> StreamBatch:
    """The streams of B items whose states are rows of `texts` and `images`,
    a stream's text and image at the same row: originals[b] is item b's row
    and retrieved[b] those of its retrieved pairs, as many for every item
    (retrieval returns min(r, index size) pairs for every query). The
    gathered arrays are the stack fuse runs, every text padded to the
    longest of the batch, stream 0's and the retrieved ones.
    """
    slots = np.array([[row, *rows] for row, rows in zip(originals, retrieved)])
    text, mask = texts.gather(slots)
    return StreamBatch(text, images.gather(slots)[0], mask)


def _cls_pair(w_cls: Node, v_cls: Node) -> Node:
    """Concatenate (m, d) text and image CLS rows into (m, 2d) feature rows."""
    return ops.concat_rows([w_cls, v_cls], axis=-1)


def vqa_head(params, w_cls: Node, v_cls: Node) -> Node:
    """Two-layer MLP over the concatenated fused CLS pair -> answer logits."""
    return _ffn(params, "vqa", _cls_pair(w_cls, v_cls))


def itm_head(params, w_cls: Node, v_cls: Node) -> Node:
    return _ffn(params, "itm", _cls_pair(w_cls, v_cls))


def mlm_head(params, w_states: Node) -> Node:
    """Per-position vocabulary logits from fused text states."""
    return ops.linear(w_states, params["mlm.w"], params["mlm.b"])
