"""Retrieval: exact search against brute force, merge semantics, sampling."""

import itertools
import logging
import threading
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from ramm import retrieval, store
from ramm.errors import ContractViolation
from ramm.retrieval import (
    Mode, RetrievalCandidate, candidate_pool, complete_scores, merge_candidates,
    retrieve_by_vector, search_topr, select_inference, select_training,
)
from ramm.store import CHUNK, SCORE_BLOCK, EmbeddingIndex


def _unit_rows(rng, n, d):
    mat = rng.normal(size=(n, d))
    return (mat / np.linalg.norm(mat, axis=1, keepdims=True)).astype(np.float32)


def _index(rng, n, d=8, pair_ids=None):
    if pair_ids is None:
        pair_ids = np.arange(1, n + 1, dtype=np.uint64)
    return EmbeddingIndex(
        d_proj=d,
        fingerprint=1,
        pair_ids=np.asarray(pair_ids, dtype=np.uint64),
        source_tags=np.zeros(n, dtype=np.uint8),
        text_vecs=_unit_rows(rng, n, d),
        image_vecs=_unit_rows(rng, n, d),
        captions=[f"cap {i}" for i in range(n)],
    )


def brute_force_topr(query, family, pair_ids, r):
    """Full-scan oracle: rank every row by dot product, pair_id tiebreak."""
    q = np.asarray(query, dtype=np.float64)
    q = q / np.linalg.norm(q)
    scores = family.astype(np.float64) @ q
    ranked = sorted(range(len(pair_ids)), key=lambda i: (-scores[i], pair_ids[i]))
    return [(int(pair_ids[i]), scores[i]) for i in ranked[:r]]


# -- exact search ---------------------------------------------------------------

def test_search_matches_brute_force(rng):
    for n in (1, 5, 50, 500):
        index = _index(rng, n)
        for r in (1, 2, 4, 8):
            q = rng.normal(size=8)
            q /= np.linalg.norm(q)
            got = search_topr(q, index, "text", r)
            want = brute_force_topr(q, index.text_vecs, index.pair_ids, r)
            assert [(c.pair_id, c.s_w) for c in got] == [
                (pid, pytest.approx(s)) for pid, s in want]


def test_search_self_match(rng):
    """Querying with a stored image vector returns that pair first."""
    index = _index(rng, 40)
    for row in (0, 7, 39):
        got = search_topr(index.image_vecs[row].astype(np.float64),
                          index, "image", 1)
        assert got[0].pair_id == int(index.pair_ids[row])
        assert got[0].s_v == pytest.approx(1.0, abs=1e-5)


def test_search_tiebreak_by_pair_id(rng):
    """Duplicate rows score identically; lower pair_id must win."""
    index = _index(rng, 6, pair_ids=[9, 2, 5, 11, 3, 7])
    index.text_vecs[1] = index.text_vecs[3]
    index.text_vecs[4] = index.text_vecs[3]
    q = index.text_vecs[3].astype(np.float64)
    got = search_topr(q, index, "text", 2)
    assert [c.pair_id for c in got] == [2, 3]


def test_search_r_exceeds_index(rng):
    index = _index(rng, 3)
    got = search_topr(rng.normal(size=8), index, "text", 10)
    assert len(got) == 3


def test_search_rejects_bad_args(rng):
    index = _index(rng, 3)
    with pytest.raises(ContractViolation):
        search_topr(rng.normal(size=8), index, "text", 0)
    with pytest.raises(ContractViolation):
        search_topr(rng.normal(size=8), index, "audio", 1)


# -- merge and completion --------------------------------------------------------

def test_merge_disjoint():
    w = [RetrievalCandidate(1, s_w=0.9), RetrievalCandidate(2, s_w=0.8)]
    v = [RetrievalCandidate(3, s_v=0.7), RetrievalCandidate(4, s_v=0.6)]
    pool = merge_candidates(w, v)
    assert sorted(c.pair_id for c in pool) == [1, 2, 3, 4]


def test_merge_overlap_keeps_both_components():
    """2r-1 distinct ids from two lists of r with one shared member."""
    w = [RetrievalCandidate(1, s_w=0.9), RetrievalCandidate(2, s_w=0.5)]
    v = [RetrievalCandidate(2, s_v=0.8), RetrievalCandidate(3, s_v=0.4)]
    pool = {c.pair_id: c for c in merge_candidates(w, v)}
    assert len(pool) == 3
    assert pool[2].s_w == 0.5 and pool[2].s_v == 0.8
    assert pool[2].s == 0.8  # max of the two components


def test_merge_full_overlap():
    w = [RetrievalCandidate(i, s_w=0.1 * i) for i in (1, 2)]
    v = [RetrievalCandidate(i, s_v=0.2 * i) for i in (1, 2)]
    pool = merge_candidates(w, v)
    assert len(pool) == 2
    assert all(c.s_w is not None and c.s_v is not None for c in pool)


def test_complete_scores_exact(rng):
    index = _index(rng, 10)
    q = rng.normal(size=8)
    q /= np.linalg.norm(q)
    pool = [RetrievalCandidate(4, s_w=0.3), RetrievalCandidate(7, s_v=0.1)]
    complete_scores(pool, q, index)
    assert pool[0].s_v == pytest.approx(
        float(index.image_vecs[3].astype(np.float64) @ q))
    assert pool[1].s_w == pytest.approx(
        float(index.text_vecs[6].astype(np.float64) @ q))


def test_pool_size_bounds(rng):
    """The merged pool always holds between r and 2r candidates when the
    index is large enough."""
    for trial in range(200):
        q = rng.normal(size=8)
        index = _index(rng, 64)
        for r in (1, 2, 4, 8):
            w = search_topr(q, index, "text", r)
            v = search_topr(q, index, "image", r)
            pool = merge_candidates(w, v)
            assert r <= len(pool) <= 2 * r


# -- selection --------------------------------------------------------------------

def inclusion_probs(weights, r):
    """Exact inclusion probability of each item under sequential
    weight-proportional sampling without replacement, by enumerating every
    ordered draw sequence."""
    n = len(weights)
    probs = np.zeros(n)
    for seq in itertools.permutations(range(n), r):
        p = 1.0
        remaining = list(range(n))
        for pick in seq:
            w = np.array([weights[i] for i in remaining])
            p *= weights[pick] / w.sum()
            remaining.remove(pick)
        for pick in seq:
            probs[pick] += p
    return probs


def test_training_selection_frequencies(rng):
    """Monte-Carlo inclusion frequencies match the exact enumeration oracle
    to within 0.02."""
    pool = [RetrievalCandidate(1, s_w=0.9), RetrievalCandidate(2, s_w=0.6),
            RetrievalCandidate(3, s_w=0.4), RetrievalCandidate(4, s_w=0.1)]
    r = 2
    scores = np.array([c.s for c in pool])
    weights = scores - scores.min() + 1e-6
    want = inclusion_probs(weights, r)
    counts = {c.pair_id: 0 for c in pool}
    trials = 20000
    for seed in range(trials):
        res = select_training(pool, r, seed)
        assert len(res.selected) == r
        for pid, _ in res.selected:
            counts[pid] += 1
    got = np.array([counts[c.pair_id] / trials for c in pool])
    assert np.abs(got - want).max() < 0.02


def test_training_selection_distinct_and_flagged():
    pool = [RetrievalCandidate(i, s_w=0.5) for i in range(1, 4)]
    res = select_training(pool, r=5, seed=0)
    assert res.flagged
    assert len(res.selected) == 3
    assert len({pid for pid, _ in res.selected}) == 3


def test_training_selection_deterministic_per_seed():
    pool = [RetrievalCandidate(i, s_w=0.1 * i) for i in range(1, 9)]
    a = select_training(pool, 4, seed=42).selected
    b = select_training(pool, 4, seed=42).selected
    c = select_training(pool, 4, seed=43).selected
    assert a == b
    assert a != c


def test_inference_selection_sorted():
    pool = [RetrievalCandidate(3, s_w=0.5), RetrievalCandidate(1, s_w=0.9),
            RetrievalCandidate(2, s_w=0.9), RetrievalCandidate(4, s_w=0.2)]
    res = select_inference(pool, 3)
    assert [pid for pid, _ in res.selected] == [1, 2, 3]
    assert not res.flagged


# -- end to end -----------------------------------------------------------------

def test_retrieve_r0_is_empty(rng):
    index = _index(rng, 10)
    res = retrieve_by_vector(rng.normal(size=8), index, 0, Mode.INFER)
    assert res.selected == [] and res.candidate_pool_size == 0


def test_retrieve_clustered_corpus(rng):
    """With well-separated clusters, at least 3 of the top 4 neighbours of a
    fresh draw around a cluster member come from the same cluster."""
    d = 8
    protos = _unit_rows(rng, 4, d) * 10
    rows, labels = [], []
    for k in range(4):
        for _ in range(12):
            rows.append(protos[k] + 0.05 * rng.normal(size=d))
            labels.append(k)
    mat = np.asarray(rows)
    mat = (mat / np.linalg.norm(mat, axis=1, keepdims=True)).astype(np.float32)
    index = EmbeddingIndex(
        d_proj=d, fingerprint=1,
        pair_ids=np.arange(1, 49, dtype=np.uint64),
        source_tags=np.zeros(48, dtype=np.uint8),
        text_vecs=mat, image_vecs=mat,
        captions=[f"cluster {k}" for k in labels],
    )
    for row in (0, 13, 30, 47):
        res = retrieve_by_vector(rows[row] + 0.05 * rng.normal(size=d), index, 4, Mode.INFER)
        same = sum(labels[pid - 1] == labels[row] for pid, _ in res.selected)
        assert same >= 3


def test_retrieve_counts_non_unit_query_once(rng, caplog):
    """One non-unit query is normalized, counted and warned about once, not
    once per search and once more in complete_scores."""
    index = _index(rng, 20)
    before = retrieval.non_unit_query_count
    with caplog.at_level(logging.WARNING, logger="ramm.retrieval"):
        res = retrieve_by_vector(3.0 * index.image_vecs[2], index, 2, Mode.INFER)
    assert retrieval.non_unit_query_count == before + 1
    assert len([r for r in caplog.records if "norm" in r.getMessage()]) == 1
    assert res.selected[0][0] == 3


def _oracle_pool(index, q, r):
    """Brute force over every row: full sort per family by (-score, pair_id),
    top r of each, both components of each member scored exactly."""
    s_w = index.text_vecs.astype(np.float64) @ q
    s_v = index.image_vecs.astype(np.float64) @ q
    rows = {int(row) for s in (s_w, s_v)
            for row in np.lexsort((index.pair_ids, -s))[:r]}
    return [RetrievalCandidate(int(index.pair_ids[row]), s_w=float(s_w[row]),
                               s_v=float(s_v[row]))
            for row in sorted(rows)]


def test_retrieval_matches_oracle_across_blocks(rng):
    """Top-r searches and both selection modes over an index of more than two
    score blocks, in shuffled pair_id order, equal the brute-force oracle."""
    n = 2 * SCORE_BLOCK + 37
    index = _index(rng, n, d=16, pair_ids=rng.permutation(n) * 3 + 10)
    for trial in range(6):
        # near a stored image in the last, partial block, or anywhere
        q = index.image_vecs[n - 1 - trial].astype(np.float64) + 0.3 * rng.normal(size=16)
        q /= np.linalg.norm(q)
        for r in (1, 4):
            for which, family in (("text", index.text_vecs), ("image", index.image_vecs)):
                got = search_topr(q, index, which, r)
                scores = family.astype(np.float64) @ q
                want = np.lexsort((index.pair_ids, -scores))[:r]
                assert [c.pair_id for c in got] == index.pair_ids[want].tolist()
                assert [c.s_w if which == "text" else c.s_v for c in got] == (
                    scores[want].tolist())
            pool = _oracle_pool(index, q, r)
            infer = retrieve_by_vector(q, index, r, Mode.INFER)
            want = select_inference(pool, r)
            assert [pid for pid, _ in infer.selected] == [pid for pid, _ in want.selected]
            assert infer.candidate_pool_size == len(pool)
            train = retrieve_by_vector(q, index, r, Mode.TRAIN, seed=trial)
            want = select_training(pool, r, trial)
            assert [pid for pid, _ in train.selected] == [pid for pid, _ in want.selected]
            for res, ref in ((infer, select_inference(pool, r)), (train, want)):
                assert [s for _, s in res.selected] == pytest.approx(
                    [s for _, s in ref.selected], abs=1e-12)
                assert np.allclose(res.components, ref.components, atol=1e-12)


# -- pools computed once, selected from many times ---------------------------------

def _spanning_index(rng):
    n = 2 * SCORE_BLOCK + 37
    return _index(rng, n, d=16, pair_ids=rng.permutation(n) * 3 + 10)


def test_retrieve_is_selection_from_candidate_pool(rng):
    """retrieve_by_vector equals a selector applied to candidate_pool, over
    an index of more than two blocks."""
    index = _spanning_index(rng)
    n = len(index)
    for trial in range(4):
        q = index.image_vecs[n - 1 - trial].astype(np.float64) + 0.3 * rng.normal(size=16)
        q /= np.linalg.norm(q)
        for r in (1, 4):
            pool = candidate_pool(q, index, r)
            assert retrieve_by_vector(q, index, r, Mode.INFER) == select_inference(pool, r)
            assert retrieve_by_vector(q, index, r, Mode.TRAIN, seed=trial
                                      ) == select_training(pool, r, trial)


def test_select_training_leaves_pool_unchanged(rng):
    """One pool serves every step of a fine-tune, so drawing from it must
    not reorder the list or change a candidate."""
    index = _spanning_index(rng)
    q = rng.normal(size=16)
    pool = candidate_pool(q / np.linalg.norm(q), index, 4)
    before = [(c.pair_id, c.s_w, c.s_v) for c in pool]
    ids = [id(c) for c in pool]
    for seed in range(20):
        select_training(pool, 4, seed)
        select_training(pool, 9, seed)
    assert [(c.pair_id, c.s_w, c.s_v) for c in pool] == before
    assert [id(c) for c in pool] == ids


def _choice_loop_selection(pool, r, seed):
    """The draw loop that the batched draws replaced, kept as the bitwise
    reference: one `rng.choice` per draw over the live weights."""
    rng = np.random.default_rng(seed)
    remaining = sorted(pool, key=lambda c: c.pair_id)
    scores = np.array([c.s for c in remaining], dtype=np.float64)
    weights = scores - scores.min() + 1e-6
    idx = list(range(len(remaining)))
    chosen = []
    for _ in range(min(r, len(remaining))):
        w = weights[idx]
        chosen.append(remaining[idx.pop(int(rng.choice(len(idx), p=w / w.sum())))])
    return [(c.pair_id, c.s) for c in chosen]


def test_draw_table_picks_equal_choice_loop():
    """Over 20,000 random pools of 1-8 candidates and 1-4 draws, with equal
    scores, scores within 1e-6 of each other and scores scaled by 1e3, a
    draw picks exactly what the rng.choice loop picks, and so does a second
    draw from the same pool."""
    rng = np.random.default_rng(20)
    for trial in range(20_000):
        n, r = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        kind = trial % 3
        if kind == 0:
            scores = np.full(n, rng.normal())
        elif kind == 1:
            scores = 0.3 + 1e-6 * rng.random(n)
        else:
            scores = 1e3 * rng.normal(size=n)
        ids = rng.permutation(50)[:n] + 1
        pool = [RetrievalCandidate(int(i), s_w=float(s)) if trial % 2
                else RetrievalCandidate(int(i), s_v=float(s)) for i, s in zip(ids, scores)]
        want = _choice_loop_selection(pool, r, trial)
        for _ in range(2):
            assert select_training(pool, r, trial).selected == want, trial


def test_multi_seed_draw_equals_single_draws():
    """select_training over a list of seeds gives, seed by seed, the result
    of its int-seed call and the picks of the rng.choice loop: pools of 1-16
    candidates (8 or more run numpy's unrolled pairwise sum), r from 1 to 8
    (past the pool size flagged), equal, near-equal and widely spread
    scores."""
    rng = np.random.default_rng(21)
    for trial in range(600):
        n, r = int(rng.integers(1, 17)), int(rng.integers(1, 9))
        scores = [np.full(n, rng.normal()), 0.3 + 1e-6 * rng.random(n),
                  1e3 * rng.normal(size=n)][trial % 3]
        ids = rng.permutation(50)[:n] + 1
        pool = [RetrievalCandidate(int(i), s_w=float(s)) if trial % 2
                else RetrievalCandidate(int(i), s_v=float(s)) for i, s in zip(ids, scores)]
        seeds = [int(x) for x in rng.integers(0, 2**63, size=int(rng.integers(1, 12)))]
        many = select_training(pool, r, seeds)
        assert isinstance(many, list) and len(many) == len(seeds)
        for seed, res in zip(seeds, many):
            assert res == select_training(pool, r, seed), (trial, seed)
            assert res.selected == _choice_loop_selection(pool, r, seed), (trial, seed)
            assert res.flagged == (n < r) and len(res.selected) == min(n, r)
    assert select_training(pool, r, []) == []


class _FixedUniforms(np.random.Generator):
    """A Generator whose every uniform is `u`; Generator.choice draws its
    uniform through `random`, so it sees `u` too."""

    def __init__(self, u: float):
        super().__init__(np.random.PCG64(0))
        self.u = u

    def random(self, size=None):
        return np.full(() if size is None else size, self.u)


def test_draw_normalizes_by_the_pairwise_sum(monkeypatch):
    """rng.choice normalizes p = w / w.sum(), numpy's pairwise sum, before
    its cdf; a draw that normalized by the sequential sum (w.cumsum()[-1])
    would pick another pair when the uniform falls between the two cdfs'
    steps. A pool of 9 weights whose two sums differ, and such a uniform:
    the draw picks what the rng.choice loop picks, for an int seed and a
    list of seeds."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        scores = rng.normal(size=9)
        w = scores - scores.min() + 1e-6
        if w.sum() != w.cumsum()[-1]:
            break
    assert w.sum() != w.cumsum()[-1]

    def cdf(total):
        c = (w / total).cumsum()
        return c / c[-1]

    pairwise, sequential = cdf(w.sum()), cdf(w.cumsum()[-1])
    k = int(np.flatnonzero(pairwise != sequential)[0])
    u = float(min(pairwise[k], sequential[k]))
    pick = int(pairwise.searchsorted(u, side="right"))
    assert pick != sequential.searchsorted(u, side="right")

    pool = [RetrievalCandidate(i + 1, s_w=float(s)) for i, s in enumerate(scores)]
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _FixedUniforms(u))
    want = [(pick + 1, float(scores[pick]))]
    assert _choice_loop_selection(pool, 1, 0) == want
    assert select_training(pool, 1, 0).selected == want
    assert [res.selected for res in select_training(pool, 1, [0, 1])] == [want, want]


def test_finetune_builds_each_pool_once(tmp_path, monkeypatch):
    """A fine-tune computes one pool per training item and never runs the
    full per-query pipeline; it draws all of an item's retrievals for the
    run, one per step the item appears in, with one select_training call."""
    from ramm import train
    from ramm.model import ModelConfig, Vocab
    from ramm.objectives import TrainConfig
    from ramm.synthetic import SyntheticSpec, generate, load_vqa_items

    data, ckpt, idx = tmp_path / "data", tmp_path / "ckpt", tmp_path / "index.idx"
    generate(SyntheticSpec(n_train=12, n_test=4, pairs_per_cluster=2, seed=2), data)
    answers = (data / "answers.txt").read_text().split()
    mcfg = ModelConfig(vocab_size=len(Vocab.load(data / "vocab.txt")),
                       n_answers=len(answers), d=16, n_head=2, l_fuse=1, l_text=1,
                       l_image=1, d_proj=8, max_text_len=12, patch_grid=2,
                       d_patch=16, d_ff=32, dropout_rate=0.0)
    train.pretrain(data, ckpt, mcfg, TrainConfig(seed=0, batch_size=4), steps=2)
    train.build_index_cmd(ckpt, data, idx)

    calls = {"candidate_pool": 0, "retrieve_by_vector": 0, "select_training": 0}

    def counting(name):
        fn = getattr(train, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(train, name, counting(name))
    train.finetune(ckpt, idx, data, 2, TrainConfig(seed=0, batch_size=4),
                   tmp_path / "ft", epochs=3)
    n_items = len(load_vqa_items(data / "vqa_train.jsonl"))
    assert n_items % 4 == 0   # so every item appears in every epoch
    assert calls == {"candidate_pool": n_items, "retrieve_by_vector": 0,
                     "select_training": n_items}


def test_r_past_the_index_size_retrieves_the_whole_index(tmp_path):
    """With r = 8 over a 6-pair index, finetune and evaluate run, and every
    item retrieves all 6 pairs: each query retrieves min(r, index size)."""
    from ramm import train
    from ramm.model import ModelConfig, Vocab
    from ramm.objectives import TrainConfig
    from ramm.synthetic import SyntheticSpec, generate

    data, ckpt, idx = tmp_path / "data", tmp_path / "ckpt", tmp_path / "index.idx"
    generate(SyntheticSpec(n_clusters=2, pairs_per_cluster=1, n_train=2, n_test=2,
                           anchor_copies=1), data)
    answers = (data / "answers.txt").read_text().split()
    mcfg = ModelConfig(vocab_size=len(Vocab.load(data / "vocab.txt")),
                       n_answers=len(answers), d=16, n_head=2, l_fuse=1, l_text=1,
                       l_image=1, d_proj=8, max_text_len=12, patch_grid=2,
                       d_patch=16, d_ff=32, dropout_rate=0.0)
    tcfg = TrainConfig(seed=0, batch_size=2)
    train.pretrain(data, ckpt, mcfg, tcfg, steps=2)
    assert train.build_index_cmd(ckpt, data, idx).encoded == 6
    train.finetune(ckpt, idx, data, 8, tcfg, tmp_path / "ft", epochs=2)
    _, details = train.evaluate(tmp_path / "ft", idx, data, 8)
    assert [len(d["retrieved"]) for d in details] == [6, 6]


# -- float32 screen, exact rescoring -------------------------------------------------

def _full_pass_topr(index, which, q, r):
    """Top-r the way search_topr ranks every row: one 64-bit score per row,
    the k-th largest by argpartition, ties resolved by lexsort."""
    scores = index.family(which).astype(np.float64) @ q
    n, k = len(index), min(r, len(index))
    part = np.arange(n)
    if k < n:
        part = np.nonzero(scores >= scores[np.argpartition(-scores, k - 1)[k - 1]])[0]
    order = part[np.lexsort((index.pair_ids[part], -scores[part]))][:k]
    return [(int(index.pair_ids[i]), scores[i]) for i in order]


def _exact_topr(q, family, pair_ids, r):
    """The brute-force oracle over the whole-family float64 product, for a
    query search_topr does not renormalize."""
    scores = family.astype(np.float64) @ q
    return [(int(pair_ids[i]), scores[i]) for i in np.lexsort((pair_ids, -scores))[:r]]


def _found(cands, which):
    return [(c.pair_id, c.s_w if which == "text" else c.s_v) for c in cands]


def _same_bits(got, want):
    return ([pid for pid, _ in got] == [pid for pid, _ in want]
            and np.array_equal(np.array([s for _, s in got], dtype=np.float64).view(np.uint64),
                               np.array([s for _, s in want], dtype=np.float64).view(np.uint64)))


@pytest.mark.parametrize("n", [2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 1,
                               SCORE_BLOCK - 1, SCORE_BLOCK, SCORE_BLOCK + 1,
                               2 * SCORE_BLOCK + 3])
def test_scores_at_bit_identical(rng, n):
    """Rescoring any subset of rows, all of them too, gives the bits of the
    whole-family float64 product, whether its groups are multiplied alone or
    as a run of consecutive groups."""
    index = _index(rng, n, d=32)
    q = rng.normal(size=32)
    q /= np.linalg.norm(q)
    subsets = [np.arange(n), np.array([0]), np.array([n - 1]), np.array([n - 2, n - 1]),
               np.zeros(0, dtype=np.intp)]
    subsets += [np.sort(rng.choice(n, size=m, replace=False)) for m in (1, min(n, 3), min(n, 40))]
    # consecutive groups multiplied as one run, then a gap, then the last group
    subsets.append(np.unique(np.r_[1, CHUNK + 3, 2 * CHUNK + 5, n - 1].clip(0, n - 1)))
    for which in ("text", "image"):
        full = index.family(which).astype(np.float64) @ q
        for rows in subsets:
            got = index.scores_at(which, q, rows)
            assert got.dtype == np.float64 and got.shape == rows.shape
            assert np.array_equal(got.view(np.uint64), full[rows].view(np.uint64)), rows


@pytest.mark.parametrize("n", [2 * SCORE_BLOCK + 3])
def test_block_scores_bit_identical(rng, n):
    """A search for every row of families spanning several score blocks,
    alone or both in one call, returns each row once per family, ranked,
    with the bits of each whole-family float64 product."""
    index = _index(rng, n, d=32)
    q = rng.normal(size=32)
    q /= np.linalg.norm(q)
    full = {which: index.family(which).astype(np.float64) @ q for which in ("text", "image")}
    for families in (("text",), ("image",), ("text", "image"), ("image", "text")):
        for which, (rows, scores) in zip(families, index.search(families, q, n)):
            assert np.array_equal(np.sort(rows), np.arange(n))
            assert np.array_equal(rows, np.lexsort((index.pair_ids, -full[which])))
            assert scores.shape == (len(families), n)
            for named, got in zip(families, scores):
                assert np.array_equal(got.view(np.uint64), full[named][rows].view(np.uint64))


def _adversarial_family(rng, n, d, kind):
    mat = rng.normal(size=(n, d))
    if kind == "scaled":
        mat *= 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    else:
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    mat = mat.astype(np.float32)
    src, pick = rng.integers(0, n, size=n), rng.random(n) < 0.5
    if kind == "duplicate":
        mat[pick] = mat[src[pick]]
    elif kind == "ulp":
        away = np.where(rng.random((pick.sum(), d)) < 0.5, -np.inf, np.inf)
        mat[pick] = np.nextafter(mat[src[pick]], away.astype(np.float32))
    return mat


@pytest.mark.parametrize("d", [2, 8, 32])
@pytest.mark.parametrize("kind", ["duplicate", "ulp", "scaled"])
def test_screened_search_matches_oracle_bits(rng, d, kind):
    """Duplicate rows, rows 1 ulp apart and rows of norms 1e-3 to 1e3:
    every top-r, r up to and past the index size, has the oracle's ids and
    score bits."""
    for n in (3, CHUNK + 1, 300):
        pair_ids = rng.permutation(n) * 5 + 2
        index = EmbeddingIndex(
            d_proj=d, fingerprint=1, pair_ids=np.asarray(pair_ids, dtype=np.uint64),
            source_tags=np.zeros(n, dtype=np.uint8),
            text_vecs=_adversarial_family(rng, n, d, kind),
            image_vecs=_adversarial_family(rng, n, d, kind), captions=[""] * n)
        for trial in range(4):
            if trial % 2:
                q = index.image_vecs[rng.integers(n)].astype(np.float64)
            else:
                q = rng.normal(size=d)
            q /= np.linalg.norm(q)
            for r in (1, 2, 4, 8, n, n + 2):
                for which, family in (("text", index.text_vecs),
                                      ("image", index.image_vecs)):
                    got = _found(search_topr(q, index, which, r), which)
                    want = _exact_topr(q, family, index.pair_ids, r)
                    assert _same_bits(got, want), (n, r, which)


def _screen_oracle(index, which, q, k):
    """The rows whose float32 score s32 reaches T - 2E, with T the k-th
    largest s32 from a partition of the whole family and E the bound
    `_screen` documents."""
    family = index.family(which)
    n, d = family.shape
    bound, q_norm = index.norm_bound(which), float(np.linalg.norm(q))
    err = (2 * ((d + 1) * 2.0**-24 + d * 2.0**-53) * bound * q_norm
           + d * (1 + bound) * 2.0**-148)
    s32 = family @ q.astype(np.float32)
    return np.flatnonzero(s32 >= np.float64(np.partition(s32, n - k)[n - k]) - 2 * err)


@pytest.mark.parametrize("kind", ["unit", "duplicate", "few"])
def test_screen_keeps_exactly_the_rows_the_bound_names(rng, kind):
    """One cut at the first block's k-th largest score keeps exactly the rows
    a whole-family partition names, for k from 1 to past the block edge, on
    families with many exact ties; a two-family screen keeps the union of
    the rows each family's own screen keeps."""
    n, d = 2 * SCORE_BLOCK + 37, 8
    family = _unit_rows(rng, n, d)
    if kind == "duplicate":   # about half the rows copy another one
        pick = rng.random(n) < 0.5
        family[pick] = family[rng.integers(0, n, size=pick.sum())]
    elif kind == "few":       # every row one of 5 vectors: ties span the blocks
        family = family[rng.integers(0, 5, size=n)]
    index = EmbeddingIndex(d_proj=d, fingerprint=1, pair_ids=np.arange(n, dtype=np.uint64),
                           source_tags=np.zeros(n, dtype=np.uint8), text_vecs=family,
                           image_vecs=family[::-1].copy(), captions=[""] * n)
    for trial in range(3):
        q = family[rng.integers(n)].astype(np.float64) if trial else rng.normal(size=d)
        q /= np.linalg.norm(q)
        for k in (1, 4, SCORE_BLOCK - 1, SCORE_BLOCK, SCORE_BLOCK + 1, n - 1):
            want = [_screen_oracle(index, which, q, k) for which in ("text", "image")]
            for which, rows in zip(("text", "image"), want):
                assert np.array_equal(store._screen(index, (which,), q, k), rows), (trial, k)
            got = store._screen(index, ("text", "image"), q, k)
            assert np.array_equal(got, np.union1d(*want)), (trial, k)


def _counting_full_passes(monkeypatch):
    """The families of each screen that gave up (returned None), so that the
    search scored every row."""
    calls = []
    screen = store._screen

    def counting(index, families, q, k):
        rows = screen(index, families, q, k)
        if rows is None:
            calls.extend(families)
        return rows
    monkeypatch.setattr(store, "_screen", counting)
    return calls


@pytest.mark.parametrize("bad", ["nan", "inf", "large"])
def test_nonfinite_screen_takes_full_pass(rng, monkeypatch, bad):
    """A NaN or infinite row, or rows of norm 1e30 whose float32 squared
    norm overflows, make the screen's bound unusable: the search scores every
    row and ranks them as the full pass does."""
    n = 2 * SCORE_BLOCK + 3
    index = _index(rng, n, d=8)
    vecs = index.text_vecs.copy()
    rows = rng.choice(n, size=5, replace=False)
    vecs[rows[0], 3] = {"nan": np.nan, "inf": np.inf}.get(bad, vecs[rows[0], 3])
    if bad == "large":
        vecs[rows] *= np.float32(1e30)
    index = replace(index, text_vecs=vecs)
    assert not index.norm_bound("text") < np.inf
    calls = _counting_full_passes(monkeypatch)
    for trial in range(3):
        q = vecs[rows[trial]].astype(np.float64) if trial else rng.normal(size=8)
        q /= np.linalg.norm(q)
        for r in (1, 4):
            got = _found(search_topr(q, index, "text", r), "text")
            assert calls == ["text"]
            with np.errstate(invalid="ignore"):
                want = _full_pass_topr(index, "text", q, r)
            assert _same_bits(got, want)
            calls.clear()


def test_nonfinite_query_takes_full_pass(rng, monkeypatch):
    index = _index(rng, 50)
    calls = _counting_full_passes(monkeypatch)
    q = rng.normal(size=8)
    q[2] = np.nan
    got = _found(search_topr(q, index, "image", 3), "image")
    assert calls == ["image"]
    with np.errstate(invalid="ignore"):
        want = _full_pass_topr(index, "image", retrieval._prepare_query(q), 3)
    assert _same_bits(got, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_query_is_refused(rng, bad):
    """A NaN or infinite query has no ranking: the pool and both retrieval
    modes say so before normalizing (and counting) it."""
    index = _index(rng, 10, d=4)
    q = np.array([bad, 0.0, 0.0, 0.0])
    before = retrieval.non_unit_query_count
    with pytest.raises(ContractViolation, match="query vector is not finite"):
        candidate_pool(q, index, 3)
    for mode in (Mode.TRAIN, Mode.INFER):
        with pytest.raises(ContractViolation, match="query vector is not finite"):
            retrieve_by_vector(q, index, 3, mode)
    assert retrieval.non_unit_query_count == before


def test_zero_query_is_refused(rng):
    """A zero query has no direction: every entry point names it before
    counting it."""
    index = _index(rng, 10, d=4)
    q = np.zeros(4)
    before = retrieval.non_unit_query_count
    with pytest.raises(ContractViolation, match="query vector is zero"):
        candidate_pool(q, index, 3)
    with pytest.raises(ContractViolation, match="query vector is zero"):
        search_topr(q, index, "text", 3)
    for mode in (Mode.TRAIN, Mode.INFER):
        with pytest.raises(ContractViolation, match="query vector is zero"):
            retrieve_by_vector(q, index, 3, mode)
    assert retrieval.non_unit_query_count == before


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_query_with_out_of_range_norm_keeps_its_direction(rng, caplog, scale):
    """A finite query whose float64 norm overflows or underflows retrieves
    exactly as its unit direction, and is warned about and counted once."""
    index = _index(rng, 10, d=4)
    want = candidate_pool(np.array([1.0, 0.0, 0.0, 0.0]), index, 3)
    before = retrieval.non_unit_query_count
    with caplog.at_level(logging.WARNING, logger="ramm.retrieval"):
        got = candidate_pool(np.array([scale, 0.0, 0.0, 0.0]), index, 3)
    assert got == want
    assert retrieval.non_unit_query_count == before + 1
    assert len([r for r in caplog.records if "norm" in r.getMessage()]) == 1
    assert retrieval._prepare_query(np.array([3 * scale, 4 * scale, 0.0])).tolist() == \
        retrieval._prepare_query(np.array([0.75, 1.0, 0.0])).tolist()


def test_finite_query_is_divided_by_its_norm_once(rng):
    """A unit query is used as it is; a query of any other finite nonzero
    norm, however small, is divided by that norm and counted once per pool."""
    index = _index(rng, 10)
    q = _unit_rows(rng, 1, 8)[0].astype(np.float64)
    assert retrieval._prepare_query(q).tobytes() == q.tobytes()
    for scaled in (3.0 * q, 1e-100 * q, 1e100 * q):
        assert retrieval._prepare_query(scaled).tobytes() == \
            (scaled / np.linalg.norm(scaled)).tobytes()
        before = retrieval.non_unit_query_count
        candidate_pool(scaled, index, 3)
        assert retrieval.non_unit_query_count == before + 1


def test_replaced_family_refreshes_norm_bound(rng):
    """An index is fixed at construction: assigning a field raises. A
    variant made by `replace` has its own norm bound, and a search over it
    stays exact, while the original keeps its own."""
    index = _index(rng, 300, d=8)
    before = index.norm_bound("text")
    assert 1.0 <= before < 1.0 + 1e-5
    with pytest.raises(FrozenInstanceError):
        index.text_vecs = index.text_vecs * np.float32(1000.0)
    scaled = replace(index, text_vecs=(index.text_vecs * np.float32(1000.0)).astype(np.float32))
    after = scaled.norm_bound("text")
    assert 1000.0 <= after < 1000.0 * (1 + 1e-5)
    assert index.norm_bound("text") == before
    assert scaled.norm_bound("image") == index.norm_bound("image")
    assert index.norm_bound("image") == pytest.approx(before, rel=1e-5)
    q = rng.normal(size=8)
    q /= np.linalg.norm(q)
    got = _found(search_topr(q, scaled, "text", 4), "text")
    assert _same_bits(got, _exact_topr(q, scaled.text_vecs, scaled.pair_ids, 4))


def test_finite_search_never_scores_every_row(rng, monkeypatch):
    """Over finite families, searches and candidate pools score only the
    rows the screen keeps."""
    index = _spanning_index(rng)
    calls = _counting_full_passes(monkeypatch)
    for trial in range(5):
        q = rng.normal(size=16)
        q /= np.linalg.norm(q)
        for r in (1, 4, 8):
            search_topr(q, index, "text", r)
            candidate_pool(q, index, r)
    search_topr(rng.normal(size=8), _index(rng, 3), "image", 5)
    assert calls == []


def test_pool_components_equal_full_family_product(rng):
    """Every component of every pool member, the one its own search found
    and the one complete_scores filled in, has the bits of the whole-family
    float64 product."""
    index = _spanning_index(rng)
    s_filled = 0
    for trial in range(12):
        q = index.image_vecs[rng.integers(len(index))] + 0.3 * rng.normal(size=16)
        q /= np.linalg.norm(q)
        s_w = index.text_vecs.astype(np.float64) @ q
        s_v = index.image_vecs.astype(np.float64) @ q
        for r in (1, 4):
            for cand in candidate_pool(q, index, r):
                row = index.row_of(cand.pair_id)
                assert np.float64(cand.s_w).tobytes() == s_w[row].tobytes()
                assert np.float64(cand.s_v).tobytes() == s_v[row].tobytes()
                s_filled += 1
    assert s_filled > 12 * 5


# -- pool bound, and one family per core ---------------------------------------------

@pytest.mark.parametrize("text_ids, image_ids", [([3], [3]), ([1, 2, 3], [4, 5, 6, 7])],
                         ids=["too few", "too many"])
def test_candidate_pool_refuses_a_pool_outside_its_bound(rng, monkeypatch, text_ids, image_ids):
    """A merged pool of fewer than min(r, |index|) or more than 2r pairs
    raises ContractViolation instead of reaching a selection."""
    def fake_search(q, index, which, r):
        assert which == ("text", "image")
        return [[RetrievalCandidate(pid, s_w=0.5, s_v=0.5) for pid in ids]
                for ids in (text_ids, image_ids)]
    monkeypatch.setattr(retrieval, "search_topr", fake_search)
    with pytest.raises(ContractViolation, match=r"outside \[3, 6\]"):
        candidate_pool(rng.normal(size=8), _index(rng, 10), 3)


def _usable_cores(monkeypatch, count):
    monkeypatch.setattr(store.os, "sched_getaffinity", lambda pid: set(range(count)))


def _split_family(rng, n, kind):
    """(family, q): n random unit rows in d = 8 ("unit"); the same rows in
    ascending score order, so every top row lies past the first score block
    ("top in second chunk"); or rows drawn from five vectors, with the top
    one in the three rows on either side of that block's edge ("ties across
    the split")."""
    family, q = _unit_rows(rng, n, 8), _unit_rows(rng, 1, 8)[0].astype(np.float64)
    if kind == "top in second chunk":
        family = family[np.argsort(family.astype(np.float64) @ q, kind="stable")]
    elif kind == "ties across the split":
        five = family[:5]
        family = five[rng.integers(0, 5, size=n)]
        family[SCORE_BLOCK - 3:SCORE_BLOCK + 3] = five[np.argmax(five.astype(np.float64) @ q)]
    return family, q


def _cut_threads(monkeypatch):
    """(family, thread) of each `_cut` call, in the order they start."""
    cuts, cut = [], store._cut

    def recording(family, *args):
        cuts.append((family, threading.current_thread()))
        return cut(family, *args)
    monkeypatch.setattr(store, "_cut", recording)
    return cuts


def _with_components(cands):
    """(pair_id, s_w bits, s_v bits) of each candidate."""
    return [(c.pair_id, *np.array([c.s_w, c.s_v], dtype=np.float64).view(np.uint64).tolist())
            for c in cands]


def _two_family_oracle(index, q, r):
    """Each family's top r by a full sort of its whole-family product, with
    both families' score bits at each row."""
    full = [index.family(which).astype(np.float64) @ q for which in ("text", "image")]
    bits = np.stack(full).view(np.uint64)
    return [[(int(index.pair_ids[row]), *bits[:, row].tolist())
             for row in np.lexsort((index.pair_ids, -s))[:r]] for s in full]


@pytest.mark.parametrize("kind", ["unit", "top in second chunk", "ties across the split"])
@pytest.mark.parametrize("n", [2 * SCORE_BLOCK - 1, 2 * SCORE_BLOCK, 2 * SCORE_BLOCK + 37,
                               4 * SCORE_BLOCK + 5])
def test_split_screen_equals_one_product(rng, monkeypatch, n, kind):
    """With the worker forced on (two usable cores) and off (one), a
    two-family screen keeps the same rows, and a two-family search_topr
    returns the same ids and score bits, each family's own top r with both
    whole-family products' bits. The worker cuts the second family, and
    does so exactly when there are two cores and 2 * SCORE_BLOCK rows."""
    text, q = _split_family(rng, n, kind)
    index = EmbeddingIndex(d_proj=8, fingerprint=1, pair_ids=rng.permutation(n).astype(np.uint64),
                           source_tags=np.zeros(n, dtype=np.uint8), text_vecs=text,
                           image_vecs=text[rng.permutation(n)], captions=[""] * n)
    cuts = _cut_threads(monkeypatch)
    for k in (1, 4, SCORE_BLOCK + 1):
        found = {}
        for cores in (1, 2):
            _usable_cores(monkeypatch, cores)
            cuts.clear()
            rows = store._screen(index, ("text", "image"), q, k)
            found[cores] = rows, [_with_components(c) for c in
                                  search_topr(q, index, ("text", "image"), k)]
            on_worker = [t is not threading.main_thread() for _, t in cuts]
            handoff = cores == 2 and n >= 2 * SCORE_BLOCK
            assert sorted(on_worker) == sorted([False, handoff] * 2), (cores, k)
            assert all((f is index.image_vecs) == w for (f, _), w in zip(cuts, on_worker)
                       if handoff)
        assert np.array_equal(found[1][0], found[2][0]), k
        assert found[1][1] == found[2][1] == _two_family_oracle(index, q, k), k


def test_worker_exception_reaches_the_caller(rng, monkeypatch):
    """An exception raised while the worker thread cuts the second family
    is raised again by `_screen` in the calling thread."""
    class CutError(Exception):
        pass

    cut, threads = store._cut, []

    def failing_on_the_worker(family, *args):
        if threading.current_thread() is not threading.main_thread():
            threads.append(threading.current_thread())
            raise CutError(f"family of {family.shape[0]} rows")
        return cut(family, *args)
    _usable_cores(monkeypatch, 2)
    monkeypatch.setattr(store, "_cut", failing_on_the_worker)
    index = _spanning_index(rng)
    with pytest.raises(CutError, match=f"family of {len(index)} rows"):
        store._screen(index, ("text", "image"), index.text_vecs[0].astype(np.float64), 4)
    assert len(threads) == 1


@pytest.mark.parametrize("n, cores", [(4 * SCORE_BLOCK, 1), (2 * SCORE_BLOCK - 1, 2),
                                      (580, 2)])
def test_one_core_or_a_small_family_starts_no_thread(rng, monkeypatch, n, cores):
    """With one usable core, or under 2 * SCORE_BLOCK rows, both screens of
    a pool run as one product on the calling thread."""
    class NoWorker:
        def submit(self, *args):
            raise AssertionError("a chunk was handed to the worker")
    _usable_cores(monkeypatch, cores)
    monkeypatch.setattr(store, "_worker", [NoWorker()])
    index = _index(rng, n)
    q = index.image_vecs[0].astype(np.float64)
    assert len(candidate_pool(q, index, 4)) >= 4


def _record_calls(monkeypatch, owner, names):
    """Wrap each named attribute of a module or class with a recorder of its
    (name, args), the way perfbench's tracing wraps what it times."""
    calls = []
    for name in names:
        def recording(*args, _name=name, _fn=getattr(owner, name), **kwargs):
            calls.append((_name, args))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, recording)
    return calls


@pytest.mark.parametrize("mode", [Mode.INFER, Mode.TRAIN])
def test_retrieve_passes_through_every_traced_step(rng, monkeypatch, mode):
    """perfbench times retrieval by wrapping these `retrieval` functions and
    requires each span to fire (perfbench/test_perfbench.py): a query on an
    index large enough for the worker still calls each of them, by its
    module name, once."""
    _usable_cores(monkeypatch, 2)
    index = _index(rng, 2 * SCORE_BLOCK)
    selector = "select_training" if mode is Mode.TRAIN else "select_inference"
    names = ("candidate_pool", "search_topr", "merge_candidates", "complete_scores", selector)
    calls = _record_calls(monkeypatch, retrieval, names)
    for q in index.image_vecs[:3]:
        calls.clear()
        assert len(retrieve_by_vector(q, index, 4, mode).selected) == 4
        assert [name for name, _ in calls] == list(names)


def test_a_pool_rescores_each_family_once(rng, monkeypatch):
    """One candidate_pool on a large index hands one family to the worker,
    calls `scores_at` once per family and looks up no row: its members
    come out of the search with both components."""
    from concurrent.futures import ThreadPoolExecutor

    _usable_cores(monkeypatch, 2)
    index = _spanning_index(rng)
    submitted = []

    class RecordingWorker(ThreadPoolExecutor):
        def submit(self, fn, family, *args):
            submitted.append(family)
            return super().submit(fn, family, *args)
    worker = RecordingWorker(1)
    monkeypatch.setattr(store, "_worker", [worker])
    calls = _record_calls(monkeypatch, EmbeddingIndex, ("scores_at", "row_of"))
    try:
        for r in (1, 4, 8):
            calls.clear()
            submitted.clear()
            pool = candidate_pool(index.text_vecs[r].astype(np.float64), index, r)
            assert all(c.s_w is not None and c.s_v is not None for c in pool)
            assert [(name, args[1]) for name, args in calls] == \
                [("scores_at", "text"), ("scores_at", "image")]
            assert len(submitted) == 1 and submitted[0] is index.image_vecs
    finally:
        worker.shutdown()


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("kind", ["unit", "ties across families", "nonfinite text row"])
def test_two_family_search_equals_single_family_searches(rng, monkeypatch, cores, kind):
    """search_topr over ("text", "image") gives each family the ids and
    score bits of its own search, r up to and past the index size, with the
    worker on or off, under exact ties within and across the families, and
    with a NaN row in one family only; and each candidate carries the other
    family's whole-family score bits too."""
    _usable_cores(monkeypatch, cores)
    n = 2 * SCORE_BLOCK + 37
    text, image = _unit_rows(rng, n, 8), _unit_rows(rng, n, 8)
    if kind == "ties across families":
        text = text[rng.integers(0, 5, size=n)]
        image = text[rng.permutation(n)]
    elif kind == "nonfinite text row":
        text[rng.integers(n), 3] = np.nan
    index = EmbeddingIndex(d_proj=8, fingerprint=1, pair_ids=rng.permutation(n).astype(np.uint64),
                           source_tags=np.zeros(n, dtype=np.uint8), text_vecs=text,
                           image_vecs=image, captions=[""] * n)
    with np.errstate(invalid="ignore"):
        for trial in range(3):
            q = image[rng.integers(n)].astype(np.float64) if trial else rng.normal(size=8)
            q /= np.linalg.norm(q)
            other = {"text": index.image_vecs.astype(np.float64) @ q,
                     "image": index.text_vecs.astype(np.float64) @ q}
            for r in (1, 4, n, n + 3):
                both = search_topr(q, index, ("text", "image"), r)
                for which, got in zip(("text", "image"), both):
                    assert _same_bits(_found(got, which), _found(search_topr(q, index, which, r),
                                                                 which)), (trial, r, which)
                    rows = [index.row_of(c.pair_id) for c in got]
                    carried = [c.s_v if which == "text" else c.s_w for c in got]
                    assert np.array_equal(np.array(carried).view(np.uint64),
                                          other[which][rows].view(np.uint64)), (trial, r, which)


@pytest.mark.parametrize("which", [("text", "text"), ("image", "audio"), (), "audio",
                                   ("image", "text", "image")])
def test_search_topr_refuses_an_unknown_or_repeated_family(rng, which):
    with pytest.raises(ContractViolation, match="unknown or repeated vector family"):
        search_topr(rng.normal(size=8), _index(rng, 3), which, 1)


@pytest.mark.parametrize("cores", [1, 2])
def test_screen_cut_keeps_the_float32_at_its_edge(rng, monkeypatch, cores):
    """Rows whose float32 score is the float32 just at or above the cut
    1 - 2E survive, and those just below it do not, in either family and on
    either thread: the cut rounded to float32 drops no row the bound names."""
    _usable_cores(monkeypatch, cores)
    n, d = 2 * SCORE_BLOCK + 37, 8
    family = _unit_rows(rng, n, d) * np.float32(0.5)
    family[0] = np.eye(d, dtype=np.float32)[0]     # the top score, 1, in the first block
    index = EmbeddingIndex(d_proj=d, fingerprint=1, pair_ids=np.arange(n, dtype=np.uint64),
                           source_tags=np.zeros(n, dtype=np.uint8), text_vecs=family,
                           image_vecs=family, captions=[""] * n)
    q = np.eye(d)[0]                                # each s32 is its row's first entry
    bound = index.norm_bound("text")
    err = (2 * ((d + 1) * 2.0**-24 + d * 2.0**-53) * bound
           + d * (1 + bound) * 2.0**-148)
    cut = 1.0 - 2 * err
    above = np.float32(cut) if np.float32(cut) >= cut else np.nextafter(
        np.float32(cut), np.float32(1))
    below = np.nextafter(above, np.float32(0))
    edge_rows = [5, 700, SCORE_BLOCK + 3, n - 1]
    for i, row in enumerate(edge_rows):
        family[row] = 0
        family[row, 0] = above if i % 2 else below
    index = replace(index, text_vecs=family.copy())
    assert np.array_equal(index.image_vecs, index.text_vecs)   # both families edited
    for families in (("text",), ("image",), ("text", "image")):
        got = store._screen(index, families, q, 1)
        assert np.array_equal(got, _screen_oracle(index, "text", q, 1))
        assert got.tolist() == [0, 700, n - 1]
