"""Embedding store construction: determinism, norms, failure handling."""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from ramm.errors import BuildError, ShapeError
from ramm.model import Vocab, cls_rows, encode_image, encode_text, project_itc, tokenize
from ramm.store import EVAL_BATCH, build_store

from conftest import micro_config, micro_params


@dataclass
class FakePair:
    pair_id: int
    caption: str
    patches: np.ndarray = None
    image_ref: str = ""
    source_tag: str = "SYNTH"


@pytest.fixture
def vocab():
    return Vocab([f"w{i}" for i in range(10)])


def _pairs(cfg, rng, n, start=1):
    return [
        FakePair(pair_id=start + i,
                 caption=f"w{i % 10} w{(i + 3) % 10} finding",
                 patches=rng.normal(size=(cfg.patch_grid**2, cfg.d_patch)),
                 image_ref=f"img/{start + i}.ten")
        for i in range(n)
    ]


def _loader(pairs):
    """A load_patches that reads each pair's in-memory `patches` by its
    image_ref; a pair without patches is an unreadable image."""
    by_ref = {pair.image_ref: pair for pair in pairs}

    def load_patches(ref):
        if by_ref[ref].patches is None:
            raise FileNotFoundError(ref)
        return by_ref[ref].patches
    return load_patches


def test_build_empty(vocab):
    cfg = micro_config()
    index, report = build_store([], micro_params(cfg), cfg, vocab, _loader([]))
    assert len(index) == 0
    assert report.encoded == 0 and report.skipped == 0


def test_build_single_and_norms(vocab, rng):
    cfg = micro_config()
    params = micro_params(cfg)
    pairs = _pairs(cfg, rng, 1)
    index, report = build_store(pairs, params, cfg, vocab, _loader(pairs))
    assert len(index) == 1 and report.encoded == 1
    assert np.abs(np.linalg.norm(index.text_vecs, axis=1) - 1).max() < 1e-5
    assert np.abs(np.linalg.norm(index.image_vecs, axis=1) - 1).max() < 1e-5


def test_build_100_deterministic(vocab, rng):
    cfg = micro_config()
    params = micro_params(cfg)
    pairs = _pairs(cfg, rng, 100)
    index_a, _ = build_store(pairs, params, cfg, vocab, _loader(pairs))
    index_b, _ = build_store(pairs, params, cfg, vocab, _loader(pairs))
    assert index_a.checksum() == index_b.checksum()
    assert len(index_a) == 100
    norms = np.linalg.norm(index_a.text_vecs.astype(np.float64), axis=1)
    assert np.abs(norms - 1).max() < 1e-5


def test_build_duplicate_id_aborts(vocab, rng):
    cfg = micro_config()
    pairs = _pairs(cfg, rng, 3) + _pairs(cfg, rng, 1)
    with pytest.raises(BuildError):
        build_store(pairs, micro_params(cfg), cfg, vocab, _loader(pairs))


def test_build_skips_undecodable(vocab, rng):
    cfg = micro_config()
    pairs = _pairs(cfg, rng, 4)
    pairs[2].patches = None
    index, report = build_store(pairs, micro_params(cfg), cfg, vocab, _loader(pairs))
    assert report.encoded == 3 and report.skipped == 1
    assert report.skipped_ids == [3]
    assert len(index) == 3


def test_build_shape_mismatch_raises(vocab, rng):
    """An image of the wrong patch width is a configuration fault, not an
    unreadable image: it raises instead of leaving an empty index."""
    cfg = micro_config(d_patch=4)
    pairs = _pairs(micro_config(d_patch=5), rng, 3)
    with pytest.raises(ShapeError):
        build_store(pairs, micro_params(cfg), cfg, vocab, _loader(pairs))


def test_index_lookup_and_immutability(vocab, rng):
    cfg = micro_config()
    pairs = _pairs(cfg, rng, 5)
    index, _ = build_store(pairs, micro_params(cfg), cfg, vocab, _loader(pairs))
    before = index.checksum()
    assert index.row_of(3) == 2
    assert "finding" in index.caption_of(3)
    with pytest.raises(KeyError):
        index.row_of(999)
    assert index.checksum() == before


def test_lookup_shuffled_ids_and_replaced_ids(vocab, rng):
    """row_of resolves ids stored in any order, and a variant index with
    other pair_ids resolves its own while the original keeps its order."""
    cfg = micro_config()
    pairs = _pairs(cfg, rng, 6)
    built, _ = build_store(pairs, micro_params(cfg), cfg, vocab, _loader(pairs))
    index = replace(built, pair_ids=np.array([40, 7, 93, 12, 5, 61], dtype=np.uint64))
    assert [index.row_of(pid) for pid in (5, 7, 12, 40, 61, 93)] == [4, 1, 3, 0, 5, 2]
    assert index.caption_of(93) == index.captions[2]
    for missing in (0, 6, 94, 2**64 - 1):
        with pytest.raises(KeyError):
            index.row_of(missing)
    reversed_ids = replace(index, pair_ids=index.pair_ids[::-1].copy())
    assert reversed_ids.row_of(40) == 5
    assert index.row_of(40) == 0


def test_batched_build_matches_per_pair_reference(vocab, rng):
    """Across a chunk boundary, with captions of every length (an empty one
    too) and one unreadable image, the batched build equals one encoder pass
    per pair and keeps the skip accounting in input order."""
    cfg = micro_config()
    params = micro_params(cfg)
    pairs = _pairs(cfg, rng, EVAL_BATCH + 2)
    for i, pair in enumerate(pairs):
        pair.caption = " ".join(f"w{(i + k) % 10}" for k in range(i % (cfg.max_text_len + 2)))
    assert pairs[0].caption == ""
    unreadable = pairs[30]
    unreadable.patches = None
    index, report = build_store(pairs, params, cfg, vocab, _loader(pairs))
    assert report.encoded == EVAL_BATCH + 1 and report.skipped == 1
    assert report.skipped_ids == [unreadable.pair_id]
    kept = [p for p in pairs if p is not unreadable]
    assert index.pair_ids.tolist() == [p.pair_id for p in kept]
    assert index.captions == [p.caption for p in kept]
    for row, pair in enumerate(kept):
        w = encode_text(params, cfg, tokenize(pair.caption, vocab, cfg.max_text_len))
        v = encode_image(params, cfg, pair.patches)
        tvec = project_itc(cls_rows(w), params, "text").value[0].astype(np.float32)
        ivec = project_itc(cls_rows(v), params, "image").value[0].astype(np.float32)
        assert np.abs(index.text_vecs[row] - tvec).max() < 1e-10
        assert np.abs(index.image_vecs[row] - ivec).max() < 1e-10


def test_build_patch_count_mismatch_names_pair(vocab, rng):
    cfg = micro_config()
    pairs = _pairs(cfg, rng, 3)
    pairs[1].patches = rng.normal(size=(cfg.n_patches + 1, cfg.d_patch))
    with pytest.raises(ShapeError, match=f"pair_id {pairs[1].pair_id}"):
        build_store(pairs, micro_params(cfg), cfg, vocab, _loader(pairs))
