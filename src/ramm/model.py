"""Toy uni-modal encoders, contrastive projection heads, and the dual-stream
co-attention fusion stack extended with retrieval-attention.

All streams (the original sample plus r retrieved pairs) share layer weights.
Retrieval-attention runs single-query multi-head attention from the original
stream's CLS over the CLS rows of all streams and residually updates only the
original CLS; every other row of every stream passes through untouched.

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
from .errors import ConfigError, ContractViolation, MissingArtifactError, StructureError
from .ops import Node
from .tensor import load_tensor, save_tensor

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
    def pad_id(self):
        return self.index[PAD]

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
        tokens = Path(path).read_text(encoding="utf-8").splitlines()
        if tokens[: len(SPECIALS)] != SPECIALS:
            raise StructureError(f"{path}: vocabulary missing special tokens")
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
        dims = [
            self.vocab_size, self.n_answers, self.d, self.n_head, self.l_fuse,
            self.l_text, self.l_image, self.d_proj, self.max_text_len,
            self.patch_grid, self.d_patch, self.d_ff,
        ]
        if any(v < 1 for v in dims):
            raise ConfigError("all model dimensions must be >= 1")
        if self.d % self.n_head != 0:
            raise ConfigError(f"d={self.d} not divisible by n_head={self.n_head}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError("dropout_rate must be in [0, 1)")

    @property
    def n_patches(self) -> int:
        return self.patch_grid**2

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        return cls(**json.loads(text))


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

ATTN_FIELDS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")


def init_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> dict[str, Node]:
    rng = np.random.default_rng(seed)
    p: dict[str, np.ndarray] = {}

    def mat(name, rows, cols):
        # Glorot scaling; a fixed small std would crush signal at small d
        p[name] = rng.normal(0.0, math.sqrt(2.0 / (rows + cols)), size=(rows, cols))

    def vec(name, n, value=0.0):
        p[name] = np.full(n, value, dtype=np.float64)

    def attn(prefix):
        for w, b in (("wq", "bq"), ("wk", "bk"), ("wv", "bv"), ("wo", "bo")):
            mat(f"{prefix}.{w}", cfg.d, cfg.d)
            vec(f"{prefix}.{b}", cfg.d)

    def ln(prefix):
        vec(f"{prefix}.g", cfg.d, 1.0)
        vec(f"{prefix}.b", cfg.d)

    def ffn(prefix):
        mat(f"{prefix}.w1", cfg.d, cfg.d_ff)
        vec(f"{prefix}.b1", cfg.d_ff)
        mat(f"{prefix}.w2", cfg.d_ff, cfg.d)
        vec(f"{prefix}.b2", cfg.d)

    def block(prefix):
        attn(f"{prefix}.attn")
        ln(f"{prefix}.ln1")
        ffn(f"{prefix}.ffn")
        ln(f"{prefix}.ln2")

    mat("text.tok_emb", cfg.vocab_size, cfg.d)
    mat("text.pos_emb", cfg.max_text_len, cfg.d)
    for i in range(cfg.l_text):
        block(f"text.{i}")
    ln("text.lnf")

    mat("image.cls", 1, cfg.d)
    mat("image.patch_proj.w", cfg.d_patch, cfg.d)
    vec("image.patch_proj.b", cfg.d)
    mat("image.pos_emb", cfg.n_patches + 1, cfg.d)
    for i in range(cfg.l_image):
        block(f"image.{i}")
    ln("image.lnf")

    mat("proj.text.w", cfg.d, cfg.d_proj)
    vec("proj.text.b", cfg.d_proj)
    mat("proj.image.w", cfg.d, cfg.d_proj)
    vec("proj.image.b", cfg.d_proj)

    for i in range(cfg.l_fuse):
        for sub in ("self_w", "self_v", "cross_w", "cross_v", "ret_w", "ret_v"):
            attn(f"fuse.{i}.{sub}")
        for lname in ("ln_sw", "ln_sv", "ln_cw", "ln_cv", "ln_rw", "ln_rv",
                      "ln_fw", "ln_fv"):
            ln(f"fuse.{i}.{lname}")
        ffn(f"fuse.{i}.ffn_w")
        ffn(f"fuse.{i}.ffn_v")

    mat("vqa.w1", 2 * cfg.d, cfg.d)
    vec("vqa.b1", cfg.d)
    mat("vqa.w2", cfg.d, cfg.n_answers)
    vec("vqa.b2", cfg.n_answers)
    mat("itm.w1", 2 * cfg.d, cfg.d)
    vec("itm.b1", cfg.d)
    mat("itm.w2", cfg.d, 2)
    vec("itm.b2", 2)
    mat("mlm.w", cfg.d, cfg.vocab_size)
    vec("mlm.b", cfg.vocab_size)

    return {name: ops.param(arr.astype(dtype)) for name, arr in p.items()}


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


def save_params(params: dict[str, Node], directory) -> None:
    """Directory of RAMMTEN1 files plus a plain-text manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for name in sorted(params):
        arr = params[name].value
        save_tensor(arr.astype(np.float32), directory / f"{name}.ten")
        lines.append(name + " " + " ".join(str(d) for d in arr.shape))
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_params(directory, dtype=np.float32) -> dict[str, Node]:
    directory = Path(directory)
    manifest = directory / "manifest.txt"
    if not manifest.exists():
        raise MissingArtifactError(f"no weights manifest at {manifest}")
    params: dict[str, Node] = {}
    for line in manifest.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        name, *dims = line.split()
        t = load_tensor(directory / f"{name}.ten")
        if tuple(int(d) for d in dims) != t.shape:
            raise StructureError(f"{name}: manifest shape {dims} != file {t.shape}")
        params[name] = ops.param(t.array.astype(dtype))
    return params


# ---------------------------------------------------------------------------
# Forward passes


def key_mask(lengths) -> np.ndarray:
    """Additive key-padding mask (B, max length): 0 on the first lengths[b]
    positions of item b, MASKED on its padding."""
    lengths = np.asarray(lengths)
    return np.where(np.arange(lengths.max()) < lengths[:, None], 0.0, MASKED)


def _mha(params, prefix, x_q: Node, x_kv: Node, n_head: int,
         dctx=None, tag: str = "", mask: np.ndarray | None = None) -> Node:
    """Multi-head attention with output projection, queries from x_q.
    `mask` is an additive (..., n_kv) key mask (see key_mask)."""
    d = x_q.value.shape[-1]
    dh = d // n_head
    q = ops.linear(x_q, params[f"{prefix}.wq"], params[f"{prefix}.bq"])
    k = ops.linear(x_kv, params[f"{prefix}.wk"], params[f"{prefix}.bk"])
    v = ops.linear(x_kv, params[f"{prefix}.wv"], params[f"{prefix}.bv"])
    lead = q.value.shape[:-2]
    nq, nk = q.value.shape[-2], k.value.shape[-2]
    # (..., n, d) -> (..., n_head, n, dh); the permutation is its own inverse
    heads = tuple(range(len(lead))) + (len(lead) + 1, len(lead), len(lead) + 2)
    q3 = ops.transpose(ops.reshape(q, lead + (nq, n_head, dh)), heads)
    k3 = ops.transpose(ops.reshape(k, lead + (nk, n_head, dh)), heads)
    v3 = ops.transpose(ops.reshape(v, lead + (nk, n_head, dh)), heads)
    if mask is not None:
        mask = mask.reshape(lead + (1, 1, nk))
    out = ops.scaled_dot_attention(q3, k3, v3, mask)
    out = ops.reshape(ops.transpose(out, heads), lead + (nq, d))
    out = ops.linear(out, params[f"{prefix}.wo"], params[f"{prefix}.bo"])
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
    """(r+1) parallel dual-stream hidden states; stream 0 is the original.

    For a batch, every stream is (B, n, d). text_masks holds each text
    stream's additive key mask (B, n) and stream_mask (B, r+1) drops the
    retrieved streams an item lacks from retrieval-attention; None masks
    nothing."""

    text_streams: list[Node]
    image_streams: list[Node]
    layer_index: int = 0
    text_masks: list | None = None
    stream_mask: np.ndarray | None = None

    @property
    def r(self) -> int:
        return len(self.text_streams) - 1


def retrieval_attention(state: FusionState, params, cfg: ModelConfig,
                        layer: int, dctx: DropoutPlan | None = None) -> FusionState:
    """Single-query attention from stream 0's CLS over all streams' CLS rows.

    Output is added residually to stream 0's CLS only; every other position
    of every stream is returned as the same node, hence bitwise unchanged.
    """
    if state.r < 1:
        raise ContractViolation("retrieval_attention requires r >= 1 streams")

    def per_modality(streams: list[Node], sub: str, ln_name: str) -> list[Node]:
        cls = ops.concat_rows([ops.slice_rows(s, 0, 1, axis=-2) for s in streams],
                              axis=-2)
        keys = _ln(params, f"fuse.{layer}.{ln_name}", cls)
        query = ops.slice_rows(keys, 0, 1, axis=-2)
        out = _mha(params, f"fuse.{layer}.{sub}", query, keys, cfg.n_head,
                   dctx, f"fuse.{layer}.{sub}", state.stream_mask)
        return [ops.add_to_rows(streams[0], out)] + streams[1:]

    return replace(
        state,
        text_streams=per_modality(state.text_streams, "ret_w", "ln_rw"),
        image_streams=per_modality(state.image_streams, "ret_v", "ln_rv"),
    )


def fusion_layer(state: FusionState, params, cfg: ModelConfig,
                 retrieval_enabled: bool, dctx: DropoutPlan | None = None) -> FusionState:
    """One dual-stream layer: self-attention, cross-attention, optional
    retrieval-attention, then per-modality feed-forward; residual + pre-norm
    around every sublayer. Streams share weights and are processed
    independently until retrieval-attention couples their CLS rows."""
    i = state.layer_index
    masks = state.text_masks or [None] * len(state.text_streams)
    texts, images = [], []
    for j, (w, v, m) in enumerate(zip(state.text_streams, state.image_streams, masks)):
        wn = _ln(params, f"fuse.{i}.ln_sw", w)
        w1 = ops.add(w, _mha(params, f"fuse.{i}.self_w", wn, wn, cfg.n_head,
                             dctx, f"fuse.{i}.self_w.s{j}", m))
        vn = _ln(params, f"fuse.{i}.ln_sv", v)
        v1 = ops.add(v, _mha(params, f"fuse.{i}.self_v", vn, vn, cfg.n_head,
                             dctx, f"fuse.{i}.self_v.s{j}"))
        wc = _ln(params, f"fuse.{i}.ln_cw", w1)
        vc = _ln(params, f"fuse.{i}.ln_cv", v1)
        w2 = ops.add(w1, _mha(params, f"fuse.{i}.cross_w", wc, vc, cfg.n_head,
                              dctx, f"fuse.{i}.cross_w.s{j}"))
        v2 = ops.add(v1, _mha(params, f"fuse.{i}.cross_v", vc, wc, cfg.n_head,
                              dctx, f"fuse.{i}.cross_v.s{j}", m))
        texts.append(w2)
        images.append(v2)

    mid = replace(state, text_streams=texts, image_streams=images)
    if retrieval_enabled and mid.r >= 1:
        mid = retrieval_attention(mid, params, cfg, i, dctx)

    texts2, images2 = [], []
    for j, (w, v) in enumerate(zip(mid.text_streams, mid.image_streams)):
        w3 = ops.add(w, _ffn(params, f"fuse.{i}.ffn_w", _ln(params, f"fuse.{i}.ln_fw", w),
                             dctx, f"fuse.{i}.ffn_w.s{j}"))
        v3 = ops.add(v, _ffn(params, f"fuse.{i}.ffn_v", _ln(params, f"fuse.{i}.ln_fv", v),
                             dctx, f"fuse.{i}.ffn_v.s{j}"))
        texts2.append(w3)
        images2.append(v3)
    return replace(mid, text_streams=texts2, image_streams=images2, layer_index=i + 1)


def fuse(params, cfg: ModelConfig, text0: Node, image0: Node,
         retrieved: list[tuple[Node, Node]],
         dctx: DropoutPlan | None = None, text_masks: list | None = None,
         stream_mask: np.ndarray | None = None) -> tuple[Node, Node]:
    """Run the full fusion stack; returns final stream-0 representations.

    With no retrieved pairs the retrieval-attention sublayer is skipped
    entirely, so the r=0 path is the plain co-attention model bit-for-bit.
    For a batch, text_masks and stream_mask are as in FusionState (see
    StreamBatch).
    """
    state = FusionState(
        [text0] + [t for t, _ in retrieved],
        [image0] + [v for _, v in retrieved],
        text_masks=text_masks,
        stream_mask=stream_mask,
    )
    enabled = len(retrieved) > 0
    for _ in range(cfg.l_fuse):
        state = fusion_layer(state, params, cfg, enabled, dctx)
    return state.text_streams[0], state.image_streams[0]


@dataclass
class StreamBatch:
    """The r+1 fusion streams of a batch as constant arrays, ready for fuse."""

    texts: list[np.ndarray]               # r+1 text states (B, n_j, d), padded
    images: list[np.ndarray]              # r+1 image states (B, n_patches + 1, d)
    text_masks: list[np.ndarray]          # r+1 additive key masks (B, n_j)
    stream_mask: np.ndarray | None        # additive (B, r+1); None when r = 0

    @property
    def retrieved(self) -> list[tuple[Node, Node]]:
        return [(ops.constant(t), ops.constant(v))
                for t, v in zip(self.texts[1:], self.images[1:])]


def _pad(states: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(n_b, d) arrays zero-padded into one (B, max n_b, d) array, plus its key mask."""
    lengths = [len(a) for a in states]
    out = np.zeros((len(states), max(lengths), states[0].shape[-1]),
                   dtype=np.result_type(*states))
    for b, a in enumerate(states):
        out[b, : len(a)] = a
    return out, key_mask(lengths)


def batch_streams(originals: list[tuple[np.ndarray, np.ndarray]],
                  retrieved: list[list[tuple[np.ndarray, np.ndarray]]]) -> StreamBatch:
    """Stack B items' (text, image) states and their retrieved pairs' states.

    Text is padded to the longest sequence of each stream. An item with
    fewer retrieved pairs than the batch's widest gets a one-row zero
    placeholder in each missing slot, masked out of retrieval-attention by
    stream_mask, so it fuses exactly as it would alone. Every item keeps at
    least one retrieved pair when any item has one (retrieval returns
    min(r, index size) pairs or more for every query).
    """
    width = max(len(pairs) for pairs in retrieved)
    streams = [[orig] + pairs for orig, pairs in zip(originals, retrieved)]
    text0, image0 = originals[0]
    blank = (np.zeros((1, text0.shape[-1]), text0.dtype), np.zeros_like(image0))
    texts, masks, images = [], [], []
    for j in range(width + 1):
        slot = [s[j] if j < len(s) else blank for s in streams]
        text, mask = _pad([t for t, _ in slot])
        texts.append(text)
        masks.append(mask)
        images.append(np.stack([v for _, v in slot]))
    stream_mask = None
    if width:
        stream_mask = key_mask([len(s) for s in streams])
    return StreamBatch(texts, images, masks, stream_mask)


def _cls_pair(w_cls: Node, v_cls: Node) -> Node:
    """Concatenate (m, d) text and image CLS rows into (m, 2d) feature rows."""
    return ops.concat_rows([w_cls, v_cls], axis=-1)


def _mlp_head(params, prefix, x: Node) -> Node:
    h = ops.gelu(ops.linear(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    return ops.linear(h, params[f"{prefix}.w2"], params[f"{prefix}.b2"])


def vqa_head(params, w_cls: Node, v_cls: Node) -> Node:
    """Two-layer MLP over the concatenated fused CLS pair -> answer logits."""
    return _mlp_head(params, "vqa", _cls_pair(w_cls, v_cls))


def itm_head(params, w_cls: Node, v_cls: Node) -> Node:
    return _mlp_head(params, "itm", _cls_pair(w_cls, v_cls))


def mlm_head(params, w_states: Node) -> Node:
    """Per-position vocabulary logits from fused text states."""
    return ops.linear(w_states, params["mlm.w"], params["mlm.b"])
