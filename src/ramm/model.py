"""Toy uni-modal encoders, contrastive projection heads, and the dual-stream
co-attention fusion stack extended with retrieval-attention.

All streams (the original sample plus r retrieved pairs) share layer weights.
Retrieval-attention runs single-query multi-head attention from the original
stream's CLS over the CLS rows of all streams and residually updates only the
original CLS; every other row of every stream passes through untouched.

The original stream runs on its own; the r retrieved streams are stacked on
one extra axis, (r, n, d) or (B, r, n, d), so each fusion sublayer runs them
as one node whatever r is. fuse returns only the original stream, so the
last layer skips the retrieved streams' feed-forward.

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
from .errors import ConfigError, ContractViolation, FormatError, MissingArtifactError, StructureError
from .ops import Node
from .tensor import load_tensor, save_tensor
from .textio import read_text

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
        tokens = read_text(path).splitlines()
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


def init_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> dict[str, Node]:
    rng = np.random.default_rng(seed)
    p: dict[str, np.ndarray] = {}

    def mat(name, rows, cols):
        # Glorot scaling; a fixed small std would crush signal at small d
        p[name] = rng.normal(0.0, math.sqrt(2.0 / (rows + cols)), size=(rows, cols))

    def vec(name, n, value=0.0):
        p[name] = np.full(n, value, dtype=np.float64)

    def attn(prefix):
        for w in ("wq", "wk", "wv", "wo"):
            mat(f"{prefix}.{w}", cfg.d, cfg.d)
        for b in ("bq", "bv", "bo"):
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
    """Directory of RAMMTEN1 files plus a plain-text manifest. A tensor with
    a value that is not finite in float32 raises ContractViolation before
    anything is written."""
    with np.errstate(over="ignore"):
        arrays = {name: params[name].value.astype(np.float32) for name in sorted(params)}
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ContractViolation(f"{name}: not finite in float32, checkpoint not written")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for name, arr in arrays.items():
        save_tensor(arr, directory / f"{name}.ten")
        lines.append(name + " " + " ".join(str(d) for d in arr.shape))
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_params(directory, shapes: dict[str, tuple] | None = None) -> dict[str, Node]:
    """The float32 tensors of a save_params directory. A manifest line whose
    dimensions are not integers, or a manifest whose names or shapes differ
    from `shapes`, if given, raises FormatError first."""
    directory = Path(directory)
    manifest = directory / "manifest.txt"
    if not manifest.exists():
        raise MissingArtifactError(f"no weights manifest at {manifest}")
    listed = {}
    for number, line in enumerate(read_text(manifest).splitlines(), 1):
        row = line.split()
        try:
            if row:
                listed[row[0]] = tuple(int(d) for d in row[1:])
        except ValueError:
            raise FormatError(f"{manifest} line {number}: dimensions of "
                              f"{line!r} are not integers") from None
    if shapes is not None:
        for name in sorted(listed.keys() | shapes.keys()):
            if listed.get(name) != shapes.get(name):
                raise FormatError(f"{directory}: tensor {name} has shape "
                                  f"{listed.get(name, 'absent')} in the manifest, "
                                  f"{shapes.get(name, 'absent')} in the config")
    params: dict[str, Node] = {}
    for name, dims in listed.items():
        t = load_tensor(directory / f"{name}.ten")
        if dims != t.shape:
            raise StructureError(f"{name}: manifest shape {dims} != file {t.shape}")
        params[name] = ops.param(t.array.astype(np.float32))
    return params


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
    retrieved pairs.

    text_streams[0] and image_streams[0] are stream 0, (n, d), or (B, n, d)
    for a batch. Each later entry is one retrieved stream shaped like
    stream 0, or a stack of k retrieved streams with one more axis,
    (..., k, n, d); fuse holds all r of them in one stack. text_masks holds
    the additive key mask of each text entry, (B, n) or (..., k, n), and
    stream_mask (B, r+1) drops the retrieved streams an item lacks from
    retrieval-attention; None masks nothing."""

    text_streams: list[Node]
    image_streams: list[Node]
    layer_index: int = 0
    text_masks: list | None = None
    stream_mask: np.ndarray | None = None

    @property
    def r(self) -> int:
        rank = self.text_streams[0].value.ndim
        return sum(s.value.shape[-3] if s.value.ndim > rank else 1
                   for s in self.text_streams[1:])


def _cls_of(entry: Node, rank: int) -> Node:
    """The CLS rows of a stream entry as (..., k, d): k = 1 for a stream of
    `rank` axes, k streams for a stack with one more axis."""
    cls = ops.slice_rows(entry, 0, 1, axis=-2)
    if entry.value.ndim > rank:
        cls = ops.reshape(cls, cls.value.shape[:-2] + cls.value.shape[-1:])
    return cls


def retrieval_attention(state: FusionState, params, cfg: ModelConfig,
                        layer: int, dctx: DropoutPlan | None = None) -> FusionState:
    """Single-query attention from stream 0's CLS over all streams' CLS rows.

    Output is added residually to stream 0's CLS only; every other position
    of every stream is returned as the same node, hence bitwise unchanged.
    """
    if state.r < 1:
        raise ContractViolation("retrieval_attention requires r >= 1 streams")

    def per_modality(streams: list[Node], sub: str, ln_name: str) -> list[Node]:
        rank = streams[0].value.ndim
        cls = ops.concat_rows([_cls_of(s, rank) for s in streams], axis=-2)
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


# dropout-mask tag suffixes of stream 0 and of the retrieved stack
_STREAM_TAGS = ("s0", "sr")


def fusion_layer(state: FusionState, params, cfg: ModelConfig,
                 retrieval_enabled: bool, dctx: DropoutPlan | None = None) -> FusionState:
    """One dual-stream layer: self-attention, cross-attention, optional
    retrieval-attention, then per-modality feed-forward; residual + pre-norm
    around every sublayer. Streams share weights and are independent until
    retrieval-attention couples their CLS rows. `state` holds stream 0 and
    at most one retrieved entry, the stack fuse builds, and each entry runs
    through a sublayer as one node. The last layer (layer_index l_fuse - 1)
    returns stream 0 alone: nothing reads the retrieved streams after it,
    so their feed-forward is skipped."""
    if len(state.text_streams) > 2:
        raise ContractViolation("fusion_layer takes stream 0 and one stack of "
                                "retrieved streams; fuse stacks them")
    i = state.layer_index
    masks = state.text_masks or [None] * len(state.text_streams)
    texts, images = [], []
    for w, v, m, tag in zip(state.text_streams, state.image_streams, masks, _STREAM_TAGS):
        wn = _ln(params, f"fuse.{i}.ln_sw", w)
        w1 = ops.add(w, _mha(params, f"fuse.{i}.self_w", wn, wn, cfg.n_head,
                             dctx, f"fuse.{i}.self_w.{tag}", m))
        vn = _ln(params, f"fuse.{i}.ln_sv", v)
        v1 = ops.add(v, _mha(params, f"fuse.{i}.self_v", vn, vn, cfg.n_head,
                             dctx, f"fuse.{i}.self_v.{tag}"))
        wc = _ln(params, f"fuse.{i}.ln_cw", w1)
        vc = _ln(params, f"fuse.{i}.ln_cv", v1)
        w2 = ops.add(w1, _mha(params, f"fuse.{i}.cross_w", wc, vc, cfg.n_head,
                              dctx, f"fuse.{i}.cross_w.{tag}"))
        v2 = ops.add(v1, _mha(params, f"fuse.{i}.cross_v", vc, wc, cfg.n_head,
                              dctx, f"fuse.{i}.cross_v.{tag}", m))
        texts.append(w2)
        images.append(v2)

    mid = replace(state, text_streams=texts, image_streams=images)
    if retrieval_enabled and mid.r >= 1:
        mid = retrieval_attention(mid, params, cfg, i, dctx)

    keep = 1 if i == cfg.l_fuse - 1 else len(texts)
    texts2, images2 = [], []
    for w, v, tag in zip(mid.text_streams[:keep], mid.image_streams[:keep], _STREAM_TAGS):
        w3 = ops.add(w, _ffn(params, f"fuse.{i}.ffn_w", _ln(params, f"fuse.{i}.ln_fw", w),
                             dctx, f"fuse.{i}.ffn_w.{tag}"))
        v3 = ops.add(v, _ffn(params, f"fuse.{i}.ffn_v", _ln(params, f"fuse.{i}.ln_fv", v),
                             dctx, f"fuse.{i}.ffn_v.{tag}"))
        texts2.append(w3)
        images2.append(v3)
    return replace(mid, text_streams=texts2, image_streams=images2,
                   text_masks=state.text_masks and state.text_masks[:keep],
                   layer_index=i + 1)


def _stack(retrieved: list[tuple[Node, Node]], rank: int):
    """The retrieved (text, image) streams as one stacked pair, texts
    zero-padded to the longest, plus the stack's key mask (None when no
    text is padded). A single pair that is already stacked is returned as
    it is."""
    if len(retrieved) == 1 and retrieved[0][0].value.ndim > rank:
        return (*retrieved[0], None)
    lengths = [t.value.shape[-2] for t, _ in retrieved]
    n = max(lengths)

    def as_slot(x: Node, rows: int) -> Node:
        shape = x.value.shape
        if shape[-2] < rows:
            pad = np.zeros(shape[:-2] + (rows - shape[-2], shape[-1]), x.dtype)
            x = ops.concat_rows([x, pad], axis=-2)
        return ops.reshape(x, shape[:-2] + (1, rows, shape[-1]))

    text = ops.concat_rows([as_slot(t, n) for t, _ in retrieved], axis=-3)
    image = ops.concat_rows([as_slot(v, v.value.shape[-2]) for _, v in retrieved], axis=-3)
    mask = None
    if min(lengths) < n:
        mask = np.broadcast_to(key_mask(lengths), text.value.shape[:-1])
    return text, image, mask


def fuse(params, cfg: ModelConfig, text0: Node, image0: Node,
         retrieved: list[tuple[Node, Node]],
         dctx: DropoutPlan | None = None, text_masks: list | None = None,
         stream_mask: np.ndarray | None = None) -> tuple[Node, Node]:
    """Run the full fusion stack; returns final stream-0 representations.

    `retrieved` lists (text, image) node pairs: one per retrieved stream,
    shaped like stream 0 and with texts of any length, which are stacked
    here once; or one pair that is already stacked (see FusionState), as
    StreamBatch.retrieved gives. With no retrieved pairs the
    retrieval-attention sublayer is skipped entirely, so the r=0 path is the
    plain co-attention model bit-for-bit. For a batch, text_masks holds
    stream 0's key mask and, for a stacked pair, the stack's; stream_mask is
    as in FusionState (see StreamBatch).
    """
    texts, images, masks = [text0], [image0], list(text_masks or [None])
    if retrieved:
        text, image, mask = _stack(retrieved, text0.value.ndim)
        texts.append(text)
        images.append(image)
        if len(masks) == 1:
            masks.append(mask)
    state = FusionState(texts, images, text_masks=masks, stream_mask=stream_mask)
    for _ in range(cfg.l_fuse):
        state = fusion_layer(state, params, cfg, bool(retrieved), dctx)
    return state.text_streams[0], state.image_streams[0]


@dataclass
class StreamBatch:
    """The fusion streams of a batch as constant arrays, ready for fuse:
    stream 0 on its own and the r retrieved streams in one stack."""

    text0: np.ndarray                     # (B, n0, d), padded
    image0: np.ndarray                    # (B, n_patches + 1, d)
    text0_mask: np.ndarray                # additive key mask (B, n0)
    texts: np.ndarray | None              # (B, r, n, d), padded; None when r = 0
    images: np.ndarray | None             # (B, r, n_patches + 1, d)
    text_mask: np.ndarray | None          # additive key mask (B, r, n)
    stream_mask: np.ndarray | None        # additive (B, r+1); None when r = 0

    @property
    def retrieved(self) -> list[tuple[Node, Node]]:
        if self.texts is None:
            return []
        return [(ops.constant(self.texts), ops.constant(self.images))]

    @property
    def text_masks(self) -> list[np.ndarray]:
        return [self.text0_mask] + ([] if self.text_mask is None else [self.text_mask])


class StateRows:
    """Encoder states of sequences of at most n positions as the rows of a
    zero-padded (1 + len(states), n, d) array, with their lengths: states[i]
    is row i + 1. Row 0, zero and one position long, stands in for a
    retrieved stream an item lacks."""

    def __init__(self, states: list[np.ndarray]):
        self.lengths = np.array([1, *map(len, states)], dtype=np.int64)
        self.values = np.zeros((len(self.lengths), self.lengths.max(), states[0].shape[-1]),
                               np.result_type(*{a.dtype for a in states}))
        for row, a in enumerate(states, 1):
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
    and retrieved[b] those of its retrieved pairs. Stream 0's text is padded
    to its longest sequence, and every retrieved text to the longest
    retrieved one. An item with fewer retrieved pairs than the batch's
    widest gets row 0, a one-row zero placeholder, in each missing slot,
    masked out of retrieval-attention by stream_mask, so it fuses exactly
    as it would alone. Every item keeps at least one retrieved pair when any
    item has one (retrieval returns min(r, index size) pairs or more for
    every query).
    """
    text0, mask0 = texts.gather(originals)
    image0 = images.gather(originals)[0]
    width = max(len(rows) for rows in retrieved)
    if not width:
        return StreamBatch(text0, image0, mask0, None, None, None, None)
    slots = np.array([rows + [0] * (width - len(rows)) for rows in retrieved])
    text, text_mask = texts.gather(slots)
    return StreamBatch(text0, image0, mask0, text, images.gather(slots)[0], text_mask,
                       key_mask([1 + len(rows) for rows in retrieved]))


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
