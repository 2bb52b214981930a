"""Dual-index exact retrieval: image-query searches over the corpus text and
image vector families, max-merged scores, and stochastic (train) or
deterministic (inference) selection of r pairs.

Queries are always image vectors; question text is never used as a query.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
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


def search_topr(query_vec, index: EmbeddingIndex, which: str, r: int
                ) -> list[RetrievalCandidate]:
    """Exact top-r by dot product, descending; ties broken by ascending
    pair_id. Similarities are accumulated at 64-bit over the stored 32-bit
    vectors (`EmbeddingIndex.search`). If r exceeds the index size the
    whole index is returned."""
    if r < 1:
        raise ContractViolation("search_topr requires r >= 1")
    if which not in ("text", "image"):
        raise ContractViolation(f"unknown vector family {which!r}")
    if len(index) == 0:
        return []
    rows, scores = index.search(which, _prepare_query(query_vec), r)
    attr = "s_w" if which == "text" else "s_v"
    return [RetrievalCandidate(pid, **{attr: s})
            for pid, s in zip(index.pair_ids[rows].tolist(), scores.tolist())]


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
