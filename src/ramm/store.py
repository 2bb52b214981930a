"""Precomputed unit-norm projection vectors for a corpus, persisted
bit-exactly in the RAMMIDX1 binary format with a newline-separated UTF-8
caption sidecar."""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import BuildError, FingerprintMismatchError, FormatError, TruncatedFileError
from .model import ModelConfig, encode_image, encode_text, project_itc, tokenize
from .ops import Node, ShapeError, constant

MAGIC = b"RAMMIDX1"
VERSION = 1

SOURCE_TAGS = {"PMCPM": 0, "ROCO": 1, "MIMIC_CXR": 2, "SYNTH": 3, "OTHER": 4}
TAG_NAMES = {v: k for k, v in SOURCE_TAGS.items()}

_HEADER = struct.Struct("<HHQQ")  # version, d_proj, count, fingerprint
_REC = np.dtype([("pair_id", "<u8"), ("source_tag", "u1"), ("offset", "<u8")])

# Rows per block of the float32 screen (`_screen`). A power of two, so a
# family split at a multiple of it splits where BLAS gemv's row groups do,
# and each screened score keeps the whole-family product's bits.
SCORE_BLOCK = 2048

# Rows per group when only some rows are rescored (`scores_at`). Also a power
# of two, so a group's rows take the same BLAS code path, and give the same
# bits, as in the whole-family product.
CHUNK = 64

# items per inference graph (index building, evaluation); bounds the memory
# of a pass over a large corpus or split
EVAL_BATCH = 64


def fingerprint_params(params: dict[str, Node], d_proj: int) -> int:
    """64-bit hash of the frozen encoders and projection heads (every
    text.*, image.* and proj.* tensor, in sorted name order) plus d_proj.

    An index answers queries only for the exact encoders that built it;
    this makes a silent encoder swap a loud error instead.
    """
    h = hashlib.blake2b(digest_size=8)
    for name in sorted(n for n in params if n.startswith(("text.", "image.", "proj."))):
        h.update(name.encode())
        h.update(params[name].value.astype("<f4").tobytes())
    h.update(struct.pack("<H", d_proj))
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class EmbeddingIndex:
    """The dual vector store of a corpus, fixed at construction; use
    `dataclasses.replace` for a variant. What searches derive from the arrays
    is computed once, so an array is not modified in place once searched."""

    d_proj: int
    fingerprint: int
    pair_ids: np.ndarray          # (n,) uint64
    source_tags: np.ndarray       # (n,) uint8
    text_vecs: np.ndarray         # (n, d_proj) float32
    image_vecs: np.ndarray        # (n, d_proj) float32
    captions: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.pair_ids.shape[0])

    def family(self, which: str) -> np.ndarray:
        """The (n, d_proj) float32 vectors of family "text" or "image"."""
        return {"text": self.text_vecs, "image": self.image_vecs}[which]

    def scores_at(self, which: str, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """`(family.astype(np.float64) @ q)[rows]` for ascending `rows`, bit
        for bit.

        Casts and multiplies only the aligned CHUNK-row groups holding a
        requested row. Gathering the rows instead would move them within
        BLAS gemv's row groups, and their sums by an ulp. numpy computes a
        one-row product as a dot, not with gemv, and its sum can differ in
        the last bit, so a lone last row joins the group before it.
        """
        out = np.empty(rows.shape[0], dtype=np.float64)
        if not rows.shape[0]:
            return out
        family = self.family(which)
        last = max(0, (family.shape[0] - 2) // CHUNK)
        group = np.minimum(rows // CHUNK, last)
        starts = (np.flatnonzero(group[1:] != group[:-1]) + 1).tolist()
        for lo, hi in zip([0, *starts], [*starts, rows.shape[0]]):
            a = int(group[lo]) * CHUNK
            b = family.shape[0] if group[lo] == last else a + CHUNK
            out[lo:hi] = (family[a:b].astype(np.float64) @ q)[rows[lo:hi] - a]
        return out

    def search(self, which: str, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k best rows for float64 `q` (every row if k >= n), in
        descending score order with ties by ascending pair_id, and their
        float64 scores, bit for bit those of `family.astype(np.float64) @ q`.

        A float32 screen (`_screen`) picks the rows that can reach the top k,
        and only those are rescored (`scores_at`); where the screen is not
        finite, every row is."""
        n = len(self)
        rows = _screen(self, which, q, k) if k < n else None
        if rows is None:
            rows = np.arange(n)
        scores = self.scores_at(which, q, rows)
        if k < rows.size:
            # superset including every exact tie with the k-th score, so the
            # pair_id tiebreak is applied over all tied candidates
            kth = scores[np.argpartition(-scores, k - 1)[k - 1]]
            keep = scores >= kth
            rows, scores = rows[keep], scores[keep]
        order = np.lexsort((self.pair_ids[rows], -scores))[:k]
        return rows[order], scores[order]

    @cached_property
    def _norm_bounds(self) -> dict[str, float]:
        bounds = {}
        for which in ("text", "image"):
            family = self.family(which)
            with np.errstate(over="ignore", invalid="ignore"):
                sq = np.einsum("ij,ij->i", family, family).max(initial=0.0)
            bounds[which] = float(np.sqrt(np.float64(sq) + family.shape[1] * 2.0**-149))
        return bounds

    def norm_bound(self, which: str) -> float:
        """N, an upper bound on the largest row norm of a vector family, up
        to the factor `_screen` allows for. It is inf or NaN when a row is
        not finite or its squared norm overflows float32."""
        return self._norm_bounds[which]

    @cached_property
    def id_order(self) -> np.ndarray:
        """Rows sorted by pair_id. An index holds each pair_id once."""
        return np.argsort(self.pair_ids)

    def row_of(self, pair_id: int) -> int:
        key = np.uint64(pair_id)
        order = self.id_order
        at = int(np.searchsorted(self.pair_ids, key, sorter=order))
        if at == order.shape[0] or self.pair_ids[order[at]] != key:
            raise KeyError(f"pair_id {pair_id} not in index")
        return int(order[at])

    def caption_of(self, pair_id: int) -> str:
        return self.captions[self.row_of(pair_id)]

    def checksum(self) -> str:
        h = hashlib.blake2b(digest_size=16)
        h.update(self.pair_ids.tobytes())
        h.update(self.source_tags.tobytes())
        h.update(self.text_vecs.tobytes())
        h.update(self.image_vecs.tobytes())
        h.update("\n".join(self.captions).encode("utf-8"))
        return h.hexdigest()


_worker: list = []   # the executor of the one thread `_screen` hands second chunks to


def _screen(index: EmbeddingIndex, which: str, q: np.ndarray, k: int
            ) -> np.ndarray | None:
    """Ascending rows, found by a float32 product over the family, that
    include every row whose exact score reaches the k-th largest exact
    score; None when the screen could overflow or meets a non-finite value.

    Bound. Let S = F_i . q exactly, s64 the float64 score `scores_at`
    computes from the float32 row F_i, and s32 = fl32(F_i . fl32(q)) the
    screen's. A dot product of length d carries an error of at most
    gamma_d * sum |F_ij q_j|, gamma_d = d*u / (1 - d*u), in any summation
    order, fused or not (Higham 2002, sec. 3.1), plus under gradual
    underflow at most half a subnormal spacing per product. Rounding q to
    float32 adds u32 * |q_j| per term. `norm_bound` sums each squared norm
    in float32 over d rounded squares, so the exact one is at most
    (c + d * 2**-150) / (1 - gamma_d) for the computed c, 2**-150 being
    the most a square that underflows can lose; it adds d * 2**-149 to c,
    so its N has |F_i| <= N / sqrt(1 - gamma_d). By Cauchy-Schwarz:
        |s32 - S| <= ((d+1)*u32 + O(d*u32**2)) * N*|q| + 2**-150 * (d + sqrt(d)*N)
        |s64 - S| <= (d*u64 + O(d*u64**2)) * N*|q| + d * 2**-1075
    so |s32 - s64| <= E below. d*u32 < 0.004 for d_proj < 2**16, so the
    second-order terms, the factor 1 / sqrt(1 - gamma_d) and the rounding
    of E, |q| and T - 2E are far inside E's factor 2.

    Screen. With T the k-th largest s32, k rows have s64 >= T - E, so the
    k-th largest s64 is at least T - E, and every row reaching it has
    s32 >= T - 2E. If N*|q| < 2**120, every s32 partial sum stays below
    float32's largest value and every vector entry is finite.

    Chunks. With more than one usable core, a family whose last multiple of
    SCORE_BLOCK up to n/2 leaves each side max(SCORE_BLOCK, k) rows or more
    is cut there in two (`_cut`), the second on `_worker`; gemv's row groups
    split there too, so s32 keeps its bits. A chunk's k-th largest s32 is
    at most T, so each keeps every row with s32 >= T - 2E.
    """
    family = index.family(which)
    n, d = family.shape
    bound, q_norm = index.norm_bound(which), float(np.linalg.norm(q))
    if not bound * q_norm < 2.0**120:  # false for inf and NaN too
        return None
    err = (2 * ((d + 1) * 2.0**-24 + d * 2.0**-53) * bound * q_norm
           + d * (1 + bound) * 2.0**-148)
    q32, s32 = q.astype(np.float32), np.empty(n, dtype=np.float32)
    half = n // 2 // SCORE_BLOCK * SCORE_BLOCK
    if half >= max(SCORE_BLOCK, k) and len(os.sched_getaffinity(0)) > 1:
        if not _worker:   # at the first split, so a process that never splits imports none
            from concurrent.futures import ThreadPoolExecutor
            _worker.append(ThreadPoolExecutor(1))
        tail = _worker[0].submit(_cut, family[half:], q32, k, err, s32[half:], half)
        head = _cut(family[:half], q32, k, err, s32[:half])
        rows, top = (np.concatenate(parts) for parts in zip(head, tail.result()))
    else:
        rows, top = _cut(family, q32, k, err, s32)
    return rows[top >= np.float64(np.partition(top, -k)[-k]) - 2 * err]


def _cut(family: np.ndarray, q32: np.ndarray, k: int, err: float, s32: np.ndarray,
         start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Writes family @ q32 into s32, and returns the rows (plus `start`) and s32
    reaching its first max(SCORE_BLOCK, k) rows' k-th largest minus 2E. Only
    numpy. The cut is rounded to float32: the float32 above keeps the same
    rows, the one below adds only rows equal to it, which `_screen` drops."""
    np.matmul(family, q32, out=s32)
    cut = np.float64(np.partition(s32[:max(SCORE_BLOCK, k)], -k)[-k]) - 2 * err
    rows = np.flatnonzero(s32 >= np.float32(cut))
    return rows + start, s32[rows]


def frozen_texts(params, cfg: ModelConfig, vocab, texts: list[str]) -> list[np.ndarray]:
    """The frozen-encoder (n_i, d) states (dropout off) of each text, cut to
    its token count, EVAL_BATCH texts per graph. A text's bits depend on
    the longest text of its graph."""
    states = []
    for a in range(0, len(texts), EVAL_BATCH):
        ids = [tokenize(t, vocab, cfg.max_text_len) for t in texts[a : a + EVAL_BATCH]]
        states += [w[: len(seq)] for seq, w in zip(ids, encode_text(params, cfg, ids).value)]
    return states


def frozen_images(params, cfg: ModelConfig, patches: list[np.ndarray]) -> list[np.ndarray]:
    """The frozen-encoder (n_patches + 1, d) states (dropout off) of each
    image's patches, EVAL_BATCH images per graph."""
    return [v for a in range(0, len(patches), EVAL_BATCH)
            for v in encode_image(params, cfg, np.stack(patches[a : a + EVAL_BATCH])).value]


def check_patches(patches, cfg: ModelConfig, source) -> np.ndarray:
    """`patches` if of the configured shape, else ShapeError naming `source`."""
    if np.shape(patches) != (cfg.n_patches, cfg.d_patch):
        raise ShapeError(f"{source} has shape {np.shape(patches)}; the patch grid and "
                         f"patch dim need {(cfg.n_patches, cfg.d_patch)}")
    return patches


@dataclass
class BuildReport:
    encoded: int = 0
    skipped: int = 0
    skipped_ids: list[int] = field(default_factory=list)


def build_store(pairs, params, cfg: ModelConfig, vocab, load_patches
                ) -> tuple[EmbeddingIndex, BuildReport]:
    """Encode every corpus pair once with frozen encoders (dropout off),
    EVAL_BATCH pairs per graph.

    `pairs` yields objects with pair_id, source_tag, caption and an
    `image_ref` that `load_patches` reads. Pairs whose image cannot be read
    are skipped and counted; duplicate ids abort the build, and an image or
    caption the encoders reject (a `ShapeError`, say) propagates.
    """
    report = BuildReport()
    kept, patches = [], []
    seen: set[int] = set()
    for pair in pairs:
        pid = int(pair.pair_id)
        if pid in seen:
            raise BuildError(f"duplicate pair_id {pid}")
        seen.add(pid)
        try:
            p = load_patches(pair.image_ref)
        except (OSError, FormatError, TruncatedFileError):
            report.skipped += 1
            report.skipped_ids.append(pid)
            continue
        kept.append(pair)
        patches.append(check_patches(p, cfg, f"pair_id {pid}"))
    n = report.encoded = len(kept)
    tvecs = np.empty((n, cfg.d_proj), dtype=np.float32)
    ivecs = np.empty((n, cfg.d_proj), dtype=np.float32)
    for a in range(0, n, EVAL_BATCH):
        chunk = slice(a, a + EVAL_BATCH)
        w = frozen_texts(params, cfg, vocab, [pair.caption for pair in kept[chunk]])
        v = frozen_images(params, cfg, patches[chunk])
        tvecs[chunk] = project_itc(constant(np.stack([s[0] for s in w])), params, "text").value
        ivecs[chunk] = project_itc(constant(np.stack([s[0] for s in v])), params, "image").value
    index = EmbeddingIndex(
        d_proj=cfg.d_proj,
        fingerprint=fingerprint_params(params, cfg.d_proj),
        pair_ids=np.asarray([int(pair.pair_id) for pair in kept], dtype=np.uint64),
        source_tags=np.asarray(
            [SOURCE_TAGS.get(pair.source_tag, SOURCE_TAGS["OTHER"]) for pair in kept],
            dtype=np.uint8),
        text_vecs=tvecs,
        image_vecs=ivecs,
        captions=[pair.caption for pair in kept],
    )
    return index, report


def sidecar_path(path) -> Path:
    return Path(str(path) + ".captions")


def save_index(index: EmbeddingIndex, path) -> None:
    """RAMMIDX1: magic | version u16 | d_proj u16 | count u64 | fingerprint
    u64 | count records | text vecs f32 | image vecs f32, all little-endian.
    The sidecar holds each caption up to its first newline, as it loads."""
    path = Path(path)
    encoded = [cap.split("\n", 1)[0].encode("utf-8") + b"\n" for cap in index.captions]
    n = len(index)
    recs = np.empty(n, dtype=_REC)
    recs["pair_id"] = index.pair_ids
    recs["source_tag"] = index.source_tags
    lengths = np.fromiter(map(len, encoded), dtype=np.uint64, count=n)
    recs["offset"] = np.cumsum(lengths) - lengths
    # no index while the sidecar is replaced, so a save cut short never loads
    path.unlink(missing_ok=True)
    sidecar_path(path).write_bytes(b"".join(encoded))
    partial = Path(str(path) + ".partial")
    with open(partial, "wb") as f:
        f.write(MAGIC)
        f.write(_HEADER.pack(VERSION, index.d_proj, n, index.fingerprint))
        f.write(recs.data)
        for vecs in (index.text_vecs, index.image_vecs):
            f.write(np.ascontiguousarray(vecs, dtype="<f4").data)
    partial.replace(path)


def _read_captions(path: Path, offsets: np.ndarray) -> list[str]:
    """The caption at each byte offset of the sidecar: the line starting
    there, up to the next newline. save_index writes each offset at a line
    start and nothing after the last line; anything else is corrupt."""
    side = sidecar_path(path)
    blob = side.read_bytes()
    newlines = np.flatnonzero(np.frombuffer(blob, dtype=np.uint8) == ord("\n"))
    starts = np.concatenate(([0], newlines + 1)).astype(np.uint64)
    line = np.searchsorted(starts, offsets)
    if line.size and line.max() >= newlines.size:
        raise TruncatedFileError(f"{side}: a caption has no terminating newline "
                                 f"in {len(blob)} bytes")
    if not np.array_equal(starts[line], offsets):
        raise FormatError(f"{side}: a caption offset is not at a line start")
    end = int(starts[line.max(initial=-1) + 1])
    if len(blob) > end:
        raise FormatError(f"{side}: {len(blob) - end} bytes after the last caption (an older "
                          "index whose last caption held a newline: rerun `ramm build-index`)")
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{side}: captions are not UTF-8: {exc}") from exc
    # a newline byte never occurs inside a UTF-8 sequence, so the decoded
    # lines are the byte lines
    return np.array(text.split("\n"), dtype=object)[line].tolist()


def load_index(path) -> EmbeddingIndex:
    path = Path(path)
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if f.read(len(MAGIC)) != MAGIC:
            raise FormatError(f"{path}: bad magic")
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise TruncatedFileError(f"{path}: truncated header")
        version, d_proj, count, fingerprint = _HEADER.unpack(head)
        if version != VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        need = len(MAGIC) + _HEADER.size + count * (_REC.itemsize + 2 * d_proj * 4)
        if size < need:
            raise TruncatedFileError(f"{path}: {size} bytes, need {need}")
        recs = np.fromfile(f, dtype=_REC, count=count)
        tvecs = np.fromfile(f, dtype="<f4", count=count * d_proj)
        ivecs = np.fromfile(f, dtype="<f4", count=count * d_proj)
    if recs["source_tag"].size and recs["source_tag"].max() >= len(TAG_NAMES):
        raise FormatError(f"{path}: unknown source tag {recs['source_tag'].max()}")
    index = EmbeddingIndex(
        d_proj=int(d_proj),
        fingerprint=int(fingerprint),
        pair_ids=np.ascontiguousarray(recs["pair_id"], dtype=np.uint64),
        source_tags=np.ascontiguousarray(recs["source_tag"], dtype=np.uint8),
        text_vecs=tvecs.astype(np.float32, copy=False).reshape(count, d_proj),
        image_vecs=ivecs.astype(np.float32, copy=False).reshape(count, d_proj),
        captions=_read_captions(path, recs["offset"]),
    )
    ids = index.pair_ids[index.id_order]
    dups = ids[1:][ids[1:] == ids[:-1]]
    if dups.size:
        raise FormatError(f"{path}: duplicate pair_id {int(dups[0])}")
    # a non-finite row has no score to rank by; a NaN one would silently
    # drop out of every top-r while still counting in len(index)
    for which in ("text", "image"):
        finite = np.isfinite(index.family(which))
        if not finite.all():
            row = finite.all(axis=1).argmin()
            raise FormatError(f"{path}: pair_id {int(index.pair_ids[row])} "
                              f"has a non-finite {which} vector")
    return index


def verify_fingerprint(index: EmbeddingIndex, params, d_proj: int) -> None:
    expected = fingerprint_params(params, d_proj)
    if index.fingerprint != expected:
        raise FingerprintMismatchError(
            f"index fingerprint {index.fingerprint:#018x} does not match the "
            f"current frozen encoders ({expected:#018x}); rebuild the index"
        )
