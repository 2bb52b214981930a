"""Dual-index exact retrieval: image-query searches over the corpus text and
image vector families, max-merged scores, and stochastic (train) or
deterministic (inference) selection of r pairs.

Queries are always image vectors; question text is never used as a query.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ContractViolation
from .store import SCORE_BLOCK, EmbeddingIndex

log = logging.getLogger(__name__)

# incremented whenever a caller hands in a query that was not unit-norm
non_unit_query_count = 0

_worker: list = []   # the executor of the one thread `_screen` hands second chunks to


class Mode(Enum):
    TRAIN = "train"
    INFER = "infer"


@dataclass
class RetrievalCandidate:
    pair_id: int
    s_w: float | None = None
    s_v: float | None = None

    @property
    def s(self) -> float:
        present = [x for x in (self.s_w, self.s_v) if x is not None]
        if not present:
            raise ContractViolation("candidate has no score components")
        return max(present)


@dataclass
class RetrievalResult:
    mode: Mode
    selected: list[tuple[int, float]]
    candidate_pool_size: int
    flagged: bool = False  # pool (or index) smaller than requested r
    # (s_w, s_v) of each selected pair, in the order of `selected`
    components: list[tuple[float, float]] = field(default_factory=list)


def _prepare_query(query_vec: np.ndarray) -> np.ndarray:
    global non_unit_query_count
    q = np.asarray(query_vec, dtype=np.float64).reshape(-1)
    if not q.any():
        raise ContractViolation("query vector is zero")
    with np.errstate(over="ignore"):    # an overflowing norm is handled below
        norm = np.linalg.norm(q)
    if abs(norm - 1.0) > 1e-3:
        non_unit_query_count += 1
        log.warning("query vector has norm %.6f; normalizing", norm)
        if norm == 0.0 or np.isinf(norm):
            # the float64 sum of squares under- or overflowed; the largest
            # magnitude brings it into range without changing the direction
            q = q / np.abs(q).max()
            norm = np.linalg.norm(q)
        q = q / norm
    return q


def _screen(index: EmbeddingIndex, which: str, q: np.ndarray, k: int
            ) -> np.ndarray | None:
    """Ascending rows, found by a float32 product over the family, that
    include every row whose exact score reaches the k-th largest exact
    score; None when the screen could overflow or meets a non-finite value.

    Bound. Let S = F_i . q exactly, s64 the float64 score `scores` computes
    from the float32 row F_i, and s32 = fl32(F_i . fl32(q)) the screen's. A
    dot product of length d carries an error of at most
    gamma_d * sum |F_ij q_j|, gamma_d = d*u / (1 - d*u), in any summation
    order, fused or not (Higham 2002, sec. 3.1), plus under gradual
    underflow at most half a subnormal spacing per product. Rounding q to
    float32 adds u32 * |q_j| per term. By Cauchy-Schwarz, with N >= |F_i|
    from `norm_bound`:
        |s32 - S| <= ((d+1)*u32 + O(d*u32**2)) * N*|q| + 2**-150 * (d + sqrt(d)*N)
        |s64 - S| <= (d*u64 + O(d*u64**2)) * N*|q| + d * 2**-1075
    so |s32 - s64| <= E below. d*u32 < 0.004 for d_proj < 2**16, so the
    second-order terms, N's own 1 / (1 - gamma_d) and the rounding of E,
    |q| and T - 2E are far inside E's factor 2.

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


def search_topr(query_vec, index: EmbeddingIndex, which: str, r: int
                ) -> list[RetrievalCandidate]:
    """Exact top-r by dot product, descending; ties broken by ascending
    pair_id. Similarities are accumulated at 64-bit over the stored 32-bit
    vectors. If r exceeds the index size the whole index is returned.

    A float32 screen (`_screen`) picks the rows that can reach the top r,
    and only those are scored at 64-bit, with the bits of the whole-family
    product; where the screen is not finite, every row is scored."""
    if r < 1:
        raise ContractViolation("search_topr requires r >= 1")
    if which not in ("text", "image"):
        raise ContractViolation(f"unknown vector family {which!r}")
    n = len(index)
    if n == 0:
        return []
    q = _prepare_query(query_vec)
    k = min(r, n)
    rows = _screen(index, which, q, k) if k < n else np.arange(n)
    if rows is None:
        rows, scores = np.arange(n), index.scores(which, q)
    else:
        scores = index.scores_at(which, q, rows)
    if k < rows.size:
        # superset including every exact tie with the k-th score, so the
        # pair_id tiebreak is applied over all tied candidates
        kth = scores[np.argpartition(-scores, k - 1)[k - 1]]
        keep = scores >= kth
        rows, scores = rows[keep], scores[keep]
    order = np.lexsort((index.pair_ids[rows], -scores))[:k]
    out = []
    for i in order:
        pid, s = int(index.pair_ids[rows[i]]), float(scores[i])
        if which == "text":
            out.append(RetrievalCandidate(pid, s_w=s))
        else:
            out.append(RetrievalCandidate(pid, s_v=s))
    return out


def merge_candidates(top_w: list[RetrievalCandidate],
                     top_v: list[RetrievalCandidate]) -> list[RetrievalCandidate]:
    """Union by pair_id; duplicates keep both components, score is the max."""
    pool: dict[int, RetrievalCandidate] = {}
    for cand in top_w:
        pool[cand.pair_id] = RetrievalCandidate(cand.pair_id, s_w=cand.s_w)
    for cand in top_v:
        if cand.pair_id in pool:
            pool[cand.pair_id].s_v = cand.s_v
        else:
            pool[cand.pair_id] = RetrievalCandidate(cand.pair_id, s_v=cand.s_v)
    return list(pool.values())


def complete_scores(pool: list[RetrievalCandidate], query_vec,
                    index: EmbeddingIndex) -> list[RetrievalCandidate]:
    """Fill in whichever similarity component a pool member is missing.

    Candidates that surfaced in only one top-r list get the other component
    computed exactly, with the bits the full-family product and the search
    give that row, so the max-merge never compares against an unknown.
    """
    q = _prepare_query(query_vec)
    for which, attr in (("text", "s_w"), ("image", "s_v")):
        lacking = [c for c in pool if getattr(c, attr) is None]
        rows = np.array([index.row_of(c.pair_id) for c in lacking], dtype=np.intp)
        order = np.argsort(rows)
        for i, s in zip(order, index.scores_at(which, q, rows[order])):
            setattr(lacking[i], attr, float(s))
    return pool


def select_training(pool: list[RetrievalCandidate], r: int, seed: int | list[int]
                    ) -> RetrievalResult | list[RetrievalResult]:
    """Sample r distinct pairs, probability proportional to min-shifted
    scores (p_j ~ s_j - min_pool + eps), sequentially without replacement.
    Neither the pool nor its candidates are modified, so one pool can serve
    any number of draws. Each draw is `rng.choice(len(live), p=w / w.sum())`
    over the live weights w, computed as that method does, with the
    uniforms drawn at once; so the picks are choice's.

    An int seed gives one result; a 1-D sequence of seeds gives one per
    seed, drawn together as the rows of one array. Every row has as many
    live weights at each pick, so each row's pairwise sum, cumsum and
    normalization are bitwise those of a lone draw."""
    if not pool:
        raise ContractViolation("select_training requires a nonempty pool")
    ordered = sorted(pool, key=lambda c: c.pair_id)
    scores = np.array([c.s for c in ordered], dtype=np.float64)
    weights = scores - scores.min() + 1e-6
    lone = np.ndim(seed) == 0
    seeds = [seed] if lone else seed
    n, m, rows = len(ordered), min(r, len(ordered)), len(seeds)
    u = np.array([np.random.default_rng(s).random(m) for s in seeds]).reshape(rows, m)
    w = weights[None].repeat(rows, axis=0)   # each row's live weights
    at = np.empty((rows, m), dtype=np.intp)  # each pick's position among them
    for j in range(m):
        cdf = (w / w.sum(axis=1, keepdims=True)).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        at[:, j] = (cdf > u[:, j:j + 1]).argmax(axis=1)   # cdf.searchsorted(u, side="right")
        w = w[np.arange(n - j) != at[:, j:j + 1]].reshape(rows, n - j - 1)
    results = []
    for row in at.tolist():
        live = list(ordered)
        results.append(_result(Mode.TRAIN, [live.pop(i) for i in row], len(pool), n < r))
    return results[0] if lone else results


def select_inference(pool: list[RetrievalCandidate], r: int) -> RetrievalResult:
    """Deterministic top-r by merged score, pair_id ascending as tiebreak."""
    if not pool:
        raise ContractViolation("select_inference requires a nonempty pool")
    ranked = sorted(pool, key=lambda c: (-c.s, c.pair_id))
    return _result(Mode.INFER, ranked[:r], len(pool), len(pool) < r)


def _result(mode: Mode, chosen: list[RetrievalCandidate], pool_size: int,
            flagged: bool) -> RetrievalResult:
    return RetrievalResult(mode, [(c.pair_id, c.s) for c in chosen], pool_size,
                           flagged, [(c.s_w, c.s_v) for c in chosen])


def candidate_pool(query_vec, index: EmbeddingIndex, r: int) -> list[RetrievalCandidate]:
    """The merged, score-completed pool of both top-r searches for an
    already-projected image vector: at least min(r, len(index)) and at most
    2r pairs, so every selection from it holds min(r, len(index)). It depends
    only on the query and the index, so a caller with a frozen index and
    query may compute it once and select from it many times. A non-unit
    query is normalized (and counted) once, here. Requires r >= 1 and a
    finite, nonzero query."""
    if not np.isfinite(query_vec).all():
        raise ContractViolation("query vector is not finite")
    q = _prepare_query(query_vec)
    top_w = search_topr(q, index, "text", r)
    top_v = search_topr(q, index, "image", r)
    pool = merge_candidates(top_w, top_v)
    if not min(r, len(index)) <= len(pool) <= 2 * r:
        raise ContractViolation(f"pool of {len(pool)} pairs outside "
                                f"[{min(r, len(index))}, {2 * r}] for r={r}")
    return complete_scores(pool, q, index)


def retrieve_by_vector(query_vec, index: EmbeddingIndex, r: int, mode: Mode,
                       seed: int = 0) -> RetrievalResult:
    """Dual search + merge + select for an already-projected image vector:
    `candidate_pool`, then `select_training` or `select_inference`."""
    if r == 0:
        return RetrievalResult(mode, [], 0)
    pool = candidate_pool(query_vec, index, r)
    if mode is Mode.TRAIN:
        return select_training(pool, r, seed)
    return select_inference(pool, r)
