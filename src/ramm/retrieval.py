"""Dual-index exact retrieval: image-query searches over the corpus text and
image vector families, max-merged scores, and stochastic (train) or
deterministic (inference) selection of r pairs.

Queries are always image vectors; question text is never used as a query.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractViolation
from .store import EmbeddingIndex

log = logging.getLogger(__name__)

# incremented whenever a caller hands in a query that was not unit-norm
non_unit_query_count = 0


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


def _prepare_query(query_vec: np.ndarray) -> np.ndarray:
    global non_unit_query_count
    q = np.asarray(query_vec, dtype=np.float64).reshape(-1)
    norm = np.linalg.norm(q)
    if abs(norm - 1.0) > 1e-3:
        non_unit_query_count += 1
        log.warning("query vector has norm %.6f; normalizing", norm)
        q = q / max(norm, 1e-12)
    return q


def search_topr(query_vec, index: EmbeddingIndex, which: str, r: int
                ) -> list[RetrievalCandidate]:
    """Exact top-r by dot product, descending; ties broken by ascending
    pair_id. Similarities are accumulated at 64-bit over the stored 32-bit
    vectors. If r exceeds the index size the whole index is returned."""
    if r < 1:
        raise ContractViolation("search_topr requires r >= 1")
    if which == "text":
        family = index.text_vecs
    elif which == "image":
        family = index.image_vecs
    else:
        raise ContractViolation(f"unknown vector family {which!r}")
    n = len(index)
    if n == 0:
        return []
    q = _prepare_query(query_vec)
    scores = family.astype(np.float64) @ q
    k = min(r, n)
    if k < n:
        # superset including every exact tie with the k-th score, so the
        # pair_id tiebreak is applied over all tied candidates
        kth = scores[np.argpartition(-scores, k - 1)[k - 1]]
        part = np.nonzero(scores >= kth)[0]
    else:
        part = np.arange(n)
    order = part[np.lexsort((index.pair_ids[part], -scores[part]))][:k]
    out = []
    for i in order:
        s = float(scores[i])
        if which == "text":
            out.append(RetrievalCandidate(int(index.pair_ids[i]), s_w=s))
        else:
            out.append(RetrievalCandidate(int(index.pair_ids[i]), s_v=s))
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
    computed exactly (one dot product each) so the max-merge never compares
    against an unknown.
    """
    q = _prepare_query(query_vec)
    for cand in pool:
        row = index.row_of(cand.pair_id)
        if cand.s_w is None:
            cand.s_w = float(index.text_vecs[row].astype(np.float64) @ q)
        if cand.s_v is None:
            cand.s_v = float(index.image_vecs[row].astype(np.float64) @ q)
    return pool


def select_training(pool: list[RetrievalCandidate], r: int, seed: int
                    ) -> RetrievalResult:
    """Sample r distinct pairs, probability proportional to min-shifted
    scores (p_j ~ s_j - min_pool + eps), sequentially without replacement."""
    if not pool:
        raise ContractViolation("select_training requires a nonempty pool")
    eps = 1e-6
    rng = np.random.default_rng(seed)
    remaining = sorted(pool, key=lambda c: c.pair_id)
    scores = np.array([c.s for c in remaining], dtype=np.float64)
    weights = scores - scores.min() + eps
    chosen: list[tuple[int, float]] = []
    flagged = len(remaining) < r
    take = min(r, len(remaining))
    idx = list(range(len(remaining)))
    for _ in range(take):
        w = weights[idx]
        probs = w / w.sum()
        pick = rng.choice(len(idx), p=probs)
        j = idx.pop(int(pick))
        chosen.append((remaining[j].pair_id, remaining[j].s))
    return RetrievalResult(Mode.TRAIN, chosen, len(pool), flagged)


def select_inference(pool: list[RetrievalCandidate], r: int) -> RetrievalResult:
    """Deterministic top-r by merged score, pair_id ascending as tiebreak."""
    if not pool:
        raise ContractViolation("select_inference requires a nonempty pool")
    ranked = sorted(pool, key=lambda c: (-c.s, c.pair_id))
    flagged = len(pool) < r
    chosen = [(c.pair_id, c.s) for c in ranked[:r]]
    return RetrievalResult(Mode.INFER, chosen, len(pool), flagged)


def retrieve_by_vector(query_vec, index: EmbeddingIndex, r: int, mode: Mode,
                       seed: int = 0, exclude_pair_id: int | None = None
                       ) -> RetrievalResult:
    """Dual search + merge + select for an already-projected image vector."""
    if r == 0:
        return RetrievalResult(mode, [], 0)
    top_w = search_topr(query_vec, index, "text", r)
    top_v = search_topr(query_vec, index, "image", r)
    pool = merge_candidates(top_w, top_v)
    pool = complete_scores(pool, query_vec, index)
    if exclude_pair_id is not None:
        pool = [c for c in pool if c.pair_id != exclude_pair_id]
        if not pool:
            return RetrievalResult(mode, [], 0, flagged=True)
    if mode is Mode.TRAIN:
        return select_training(pool, r, seed)
    return select_inference(pool, r)

