"""Bit-exact round trips and header-corruption handling for both file formats."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ramm.errors import FingerprintMismatchError, FormatError, TruncatedFileError
from ramm.store import (
    EmbeddingIndex, fingerprint_params, load_index, save_index, sidecar_path,
    verify_fingerprint,
)
from ramm.tensor import Tensor, load_tensor, save_tensor

from conftest import micro_config, micro_params


def _random_index(rng, n=100, d_proj=4) -> EmbeddingIndex:
    def unit(mat):
        return (mat / np.linalg.norm(mat, axis=1, keepdims=True)).astype(np.float32)

    return EmbeddingIndex(
        d_proj=d_proj,
        fingerprint=0xDEADBEEF12345678,
        pair_ids=np.arange(1, n + 1, dtype=np.uint64),
        source_tags=rng.integers(0, 5, size=n).astype(np.uint8),
        text_vecs=unit(rng.normal(size=(n, d_proj))),
        image_vecs=unit(rng.normal(size=(n, d_proj))),
        captions=[f"caption number {i} with words" for i in range(n)],
    )


def test_tensor_roundtrip_f32_and_f64(tmp_path, rng):
    for dtype in (np.float32, np.float64):
        t = Tensor(rng.normal(size=(3, 4, 2)).astype(dtype))
        save_tensor(t, tmp_path / "t.ten")
        back = load_tensor(tmp_path / "t.ten")
        assert back.dtype == dtype
        assert back.shape == t.shape
        assert np.array_equal(back.array, t.array)


def test_tensor_roundtrip_bytes_stable(tmp_path, rng):
    t = Tensor(rng.normal(size=(5, 7)).astype(np.float32))
    save_tensor(t, tmp_path / "a.ten")
    save_tensor(load_tensor(tmp_path / "a.ten"), tmp_path / "b.ten")
    assert (tmp_path / "a.ten").read_bytes() == (tmp_path / "b.ten").read_bytes()


def test_tensor_bad_magic(tmp_path, rng):
    save_tensor(Tensor(rng.normal(size=(2, 2)).astype(np.float32)), tmp_path / "t.ten")
    raw = bytearray((tmp_path / "t.ten").read_bytes())
    raw[0] ^= 0xFF
    (tmp_path / "t.ten").write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_tensor(tmp_path / "t.ten")


def test_tensor_truncated(tmp_path, rng):
    save_tensor(Tensor(rng.normal(size=(4, 4)).astype(np.float64)), tmp_path / "t.ten")
    raw = (tmp_path / "t.ten").read_bytes()
    (tmp_path / "t.ten").write_bytes(raw[: len(raw) - 9])
    with pytest.raises(TruncatedFileError):
        load_tensor(tmp_path / "t.ten")


@pytest.mark.parametrize("corrupt", [
    lambda raw: raw.__setitem__(10 + 8 + 7, raw[10 + 8 + 7] ^ 0x40),  # dim 1 overflows
    lambda raw: raw.__setitem__(slice(10 + 8, 10 + 16), bytes(8)),     # dim 1 is zero
    lambda raw: raw.__setitem__(slice(34 + 6, 34 + 8), b"\xf0\x7f"),  # an inf or NaN
])
def test_tensor_corrupt_dims_or_payload(tmp_path, rng, corrupt):
    save_tensor(Tensor(rng.normal(size=(3, 4, 2))), tmp_path / "t.ten")
    raw = bytearray((tmp_path / "t.ten").read_bytes())
    corrupt(raw)
    (tmp_path / "t.ten").write_bytes(bytes(raw))
    with pytest.raises((FormatError, TruncatedFileError)):
        load_tensor(tmp_path / "t.ten")


_FUZZ_TENSOR = np.random.default_rng(6).normal(size=(3, 4, 2))


@given(dtype=st.sampled_from([np.float32, np.float64]), flip=st.booleans(),
       at=st.floats(min_value=0, max_value=1, exclude_max=True),
       mask=st.integers(min_value=1, max_value=255))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_tensor_fuzz_named_errors_only(tmp_path, dtype, flip, at, mask):
    """RAMMTEN1 bytes with one byte flipped, or cut at any point, either load
    or raise FormatError/TruncatedFileError, nothing else."""
    path = tmp_path / "t.ten"
    save_tensor(_FUZZ_TENSOR.astype(dtype), path)
    raw = bytearray(path.read_bytes())
    pos = int(at * len(raw))
    if flip:
        raw[pos] ^= mask
    else:
        del raw[pos:]
    path.write_bytes(bytes(raw))
    try:
        back = load_tensor(path)
    except (FormatError, TruncatedFileError):
        return
    assert back.array.size >= 1 and np.all(np.isfinite(back.array))


@pytest.mark.parametrize("dtype, uint", [(np.float32, "<u4"), (np.float64, "<u8")])
@pytest.mark.parametrize("entry", [0, 11, 23])
@pytest.mark.parametrize("kind", ["inf", "nan"])
def test_tensor_nonfinite_payload_is_a_format_error(tmp_path, dtype, uint, entry, kind):
    """Every exponent bit of the first, a middle or the last payload entry
    set, with the mantissa cleared (an infinity) or not (a NaN): the case a
    one-byte fuzz flip rarely hits is a FormatError."""
    path = tmp_path / "t.ten"
    save_tensor(_FUZZ_TENSOR.astype(dtype), path)
    raw = bytearray(path.read_bytes())
    bits = np.frombuffer(raw, dtype=uint, offset=10 + 8 * raw[9])
    info = np.finfo(dtype)
    mantissa = (1 << info.nmant) - 1
    value = int(bits[entry]) | (((1 << info.nexp) - 1) << info.nmant)
    bits[entry] = value & ~mantissa if kind == "inf" else value | 1
    check = getattr(np, "is" + kind)
    assert check(bits.view(dtype)[entry]) and bits.size == _FUZZ_TENSOR.size
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="non-finite"):
        load_tensor(path)


def test_index_roundtrip_bit_exact(tmp_path, rng):
    index = _random_index(rng)
    save_index(index, tmp_path / "i.idx")
    back = load_index(tmp_path / "i.idx")
    assert back.d_proj == index.d_proj
    assert back.fingerprint == index.fingerprint
    assert np.array_equal(back.pair_ids, index.pair_ids)
    assert np.array_equal(back.source_tags, index.source_tags)
    assert np.array_equal(back.text_vecs, index.text_vecs)
    assert np.array_equal(back.image_vecs, index.image_vecs)
    assert back.captions == index.captions
    # second save of the loaded index is byte-identical
    save_index(back, tmp_path / "j.idx")
    assert (tmp_path / "i.idx").read_bytes() == (tmp_path / "j.idx").read_bytes()
    assert sidecar_path(tmp_path / "i.idx").read_bytes() == \
        sidecar_path(tmp_path / "j.idx").read_bytes()


def test_index_corrupt_magic(tmp_path, rng):
    save_index(_random_index(rng, n=3), tmp_path / "i.idx")
    raw = bytearray((tmp_path / "i.idx").read_bytes())
    raw[3] ^= 0x55
    (tmp_path / "i.idx").write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_index(tmp_path / "i.idx")


def test_index_bad_version(tmp_path, rng):
    save_index(_random_index(rng, n=3), tmp_path / "i.idx")
    raw = bytearray((tmp_path / "i.idx").read_bytes())
    raw[8] = 99
    (tmp_path / "i.idx").write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_index(tmp_path / "i.idx")


def test_index_truncated(tmp_path, rng):
    save_index(_random_index(rng, n=10), tmp_path / "i.idx")
    raw = (tmp_path / "i.idx").read_bytes()
    (tmp_path / "i.idx").write_bytes(raw[: len(raw) // 2])
    with pytest.raises(TruncatedFileError):
        load_index(tmp_path / "i.idx")


def _saved(tmp_path, index):
    save_index(index, tmp_path / "i.idx")
    return tmp_path / "i.idx", sidecar_path(tmp_path / "i.idx")


def test_index_truncated_sidecar(tmp_path, rng):
    path, side = _saved(tmp_path, _random_index(rng, n=10))
    side.write_bytes(side.read_bytes()[:-5])
    with pytest.raises(TruncatedFileError):
        load_index(path)


def test_index_caption_not_utf8(tmp_path, rng):
    path, side = _saved(tmp_path, _random_index(rng, n=10))
    raw = bytearray(side.read_bytes())
    raw[3] = 0xFF
    side.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="UTF-8"):
        load_index(path)


def test_index_duplicate_pair_id(tmp_path, rng):
    index = _random_index(rng, n=10)
    index.pair_ids[7] = index.pair_ids[2]
    path, _ = _saved(tmp_path, index)
    with pytest.raises(FormatError, match="duplicate pair_id 3"):
        load_index(path)


def test_index_unknown_source_tag(tmp_path, rng):
    index = _random_index(rng, n=10)
    index.source_tags[4] = 200
    path, _ = _saved(tmp_path, index)
    with pytest.raises(FormatError, match="source tag"):
        load_index(path)


@pytest.mark.parametrize("which, value", [("text", np.nan), ("image", np.inf)])
def test_index_nonfinite_vector(tmp_path, rng, which, value):
    """A NaN or inf vector would drop its pair out of every top-r while it
    still counts in len(index): load_index refuses it and names the pair."""
    index = _random_index(rng, n=10)
    getattr(index, f"{which}_vecs")[3, 1] = value
    path, _ = _saved(tmp_path, index)
    with pytest.raises(FormatError, match=f"pair_id 4 has a non-finite {which} vector"):
        load_index(path)


def test_index_roundtrip_shuffled_ids_and_lookup(tmp_path, rng):
    index = replace(_random_index(rng, n=50),
                    pair_ids=rng.permutation(np.arange(100, 150, dtype=np.uint64)))
    index.captions[3] = "unicode caption: µm ülcer — 5×"
    index.captions[4] = ""
    back = load_index(_saved(tmp_path, index)[0])
    assert back.checksum() == index.checksum()
    for row in (0, 3, 4, 49):
        pid = int(index.pair_ids[row])
        assert back.row_of(pid) == row
        assert back.caption_of(pid) == index.captions[row]


def test_index_multiline_caption_loads_first_line(tmp_path, rng):
    """The sidecar is newline-separated: a caption holding a newline, the
    last one too, reads back up to it, and the captions after it are
    unaffected."""
    index = _random_index(rng, n=4)
    index.captions[1] = "first line\nsecond line"
    index.captions[3] = "last caption\nits second line"
    back = load_index(_saved(tmp_path, index)[0])
    assert back.captions == [index.captions[0], "first line", index.captions[2],
                             "last caption"]


def test_index_caption_offset_inside_line(tmp_path, rng):
    path, _ = _saved(tmp_path, _random_index(rng, n=4))
    raw = bytearray(path.read_bytes())
    raw[28 + 17 + 9] += 2          # the second record's caption offset
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="line start"):
        load_index(path)


@pytest.mark.parametrize("n", [0, 4])
@pytest.mark.parametrize("extra", [b"stale caption\n", b"junk"])
def test_index_sidecar_bytes_after_last_caption(tmp_path, rng, n, extra):
    """A sidecar holding anything after its last caption, a stale line or
    an unterminated tail, is a corrupt file, refused by name."""
    path, side = _saved(tmp_path, _random_index(rng, n=n))
    side.write_bytes(side.read_bytes() + extra)
    with pytest.raises(FormatError, match=f"{side.name}: {len(extra)} bytes after the last caption"):
        load_index(path)


def test_index_empty_roundtrip(tmp_path, rng):
    index = _random_index(rng, n=0)
    back = load_index(_saved(tmp_path, index)[0])
    assert len(back) == 0 and back.captions == []
    assert back.text_vecs.shape == (0, index.d_proj)


_FUZZ_INDEX = _random_index(np.random.default_rng(5), n=6, d_proj=3)


@given(target=st.sampled_from(["index", "sidecar"]),
       flip=st.booleans(), at=st.floats(min_value=0, max_value=1, exclude_max=True),
       mask=st.integers(min_value=1, max_value=255))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_index_fuzz_named_errors_only(tmp_path, target, flip, at, mask):
    """RAMMIDX1 or sidecar bytes with one byte flipped, or cut at any point,
    either load or raise FormatError/TruncatedFileError, nothing else."""
    path, side = _saved(tmp_path, _FUZZ_INDEX)
    victim = path if target == "index" else side
    raw = bytearray(victim.read_bytes())
    pos = int(at * len(raw))
    if flip:
        raw[pos] ^= mask
    else:
        del raw[pos:]
    victim.write_bytes(bytes(raw))
    try:
        back = load_index(path)
    except (FormatError, TruncatedFileError):
        return
    assert len(back.captions) == len(back) == back.text_vecs.shape[0]


def test_index_fingerprint_guard(tmp_path, rng):
    cfg = micro_config()
    params_a = micro_params(cfg, seed=1)
    params_b = micro_params(cfg, seed=2)
    index = replace(_random_index(rng, n=3, d_proj=cfg.d_proj),
                    fingerprint=fingerprint_params(params_a, cfg.d_proj))
    verify_fingerprint(index, params_a, cfg.d_proj)
    with pytest.raises(FingerprintMismatchError, match="rebuild"):
        verify_fingerprint(index, params_b, cfg.d_proj)


def test_weights_roundtrip(tmp_path):
    """save_params writes one float32 vector, every tensor flattened in
    sorted name order, and load_params cuts it back into equal tensors."""
    from ramm.model import load_params, param_shapes, save_params

    cfg = micro_config()
    params = micro_params(cfg, seed=3, dtype=np.float32)
    save_params(params, tmp_path / "w.ten")
    assert list(tmp_path.iterdir()) == [tmp_path / "w.ten"]
    flat = load_tensor(tmp_path / "w.ten").array
    assert flat.dtype == np.float32 and np.array_equal(
        flat, np.concatenate([params[n].value.reshape(-1) for n in sorted(params)]))
    back = load_params(tmp_path / "w.ten", param_shapes(cfg))
    assert set(back) == set(params)
    for name in params:
        assert back[name].value.dtype == np.float32
        assert np.array_equal(back[name].value, params[name].value)


def test_interrupted_weights_overwrite_never_loads(tmp_path, monkeypatch, capsys):
    """A save_params whose write stops partway, over a complete earlier
    save, leaves a short file: the next load raises TruncatedFileError
    naming it, never loading the earlier weights, and `ramm eval` on the
    checkpoint exits 5 with one stderr line."""
    import ramm.model
    from ramm.cli import EXIT_FORMAT, main
    from ramm.model import load_params, param_shapes, save_params
    from ramm.train import save_checkpoint

    cfg, ckpt = micro_config(), tmp_path / "ckpt"
    save_checkpoint(ckpt, micro_params(cfg, seed=3, dtype=np.float32), cfg, extra={})
    assert sorted(p.name for p in ckpt.iterdir()) == ["config.json", "meta.json", "weights.ten"]
    path = ckpt / "weights.ten"
    size = path.stat().st_size
    for cut in (0, 5, 20, size // 2, size - 1):
        def dying_save(tensor, path, _save=save_tensor):
            _save(tensor, path)
            with open(path, "r+b") as f:   # what a write stopped at byte `cut` leaves
                f.truncate(cut)
            raise OSError("killed")
        monkeypatch.setattr(ramm.model, "save_tensor", dying_save)
        with pytest.raises(OSError, match="killed"):
            save_params(micro_params(cfg, seed=4, dtype=np.float32), path)
        assert path.stat().st_size == cut
        with pytest.raises(TruncatedFileError, match="weights.ten"):
            load_params(path, param_shapes(cfg))
        assert main(["eval", "--checkpoint", str(ckpt), "--index", str(tmp_path / "i.idx"),
                     "--data", str(tmp_path / "data")]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith(f"format error: {path}: ") and err.count("\n") == 1, (cut, err)


_FUZZ_CONFIG = micro_config()


@given(flip=st.booleans(), at=st.floats(min_value=0, max_value=1, exclude_max=True),
       mask=st.integers(min_value=1, max_value=255))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_weights_fuzz_named_errors_only(tmp_path, flip, at, mask):
    """Weights-file bytes with one byte flipped, or cut at any point, either
    load as the config's tensors or raise FormatError/TruncatedFileError."""
    from ramm.model import load_params, param_shapes, save_params

    path, shapes = tmp_path / "w.ten", param_shapes(_FUZZ_CONFIG)
    save_params(micro_params(_FUZZ_CONFIG, seed=3, dtype=np.float32), path)
    raw = bytearray(path.read_bytes())
    pos = int(at * len(raw))
    if flip:
        raw[pos] ^= mask
    else:
        del raw[pos:]
    path.write_bytes(bytes(raw))
    try:
        back = load_params(path, shapes)
    except (FormatError, TruncatedFileError):
        return
    assert {n: p.value.shape for n, p in back.items()} == shapes
    assert all(np.isfinite(p.value).all() for p in back.values())


@pytest.mark.parametrize("dies_at", ["sidecar", "rename"])
def test_interrupted_index_overwrite_never_loads(tmp_path, monkeypatch, capsys, rng, dies_at):
    """A save_index that stops at its sidecar write or at its rename, over a
    complete earlier save with other captions, leaves no index: the next
    load and `ramm retrieve` refuse it by name instead of pairing the new
    vectors with the old captions. A completed save leaves only the index
    and its sidecar."""
    from pathlib import Path

    from ramm.cli import EXIT_MISSING, main

    path = tmp_path / "i.idx"
    old = _random_index(rng, n=6)
    save_index(old, path)
    new = replace(_random_index(rng, n=6),
                  captions=[c.upper() for c in old.captions])   # the old offsets, other text

    def killed(self, *args):
        raise OSError("killed")
    with monkeypatch.context() as patched:
        patched.setattr(Path, "write_bytes" if dies_at == "sidecar" else "replace", killed)
        with pytest.raises(OSError, match="killed"):
            save_index(new, path)
    with pytest.raises(FileNotFoundError, match="i.idx"):
        load_index(path)
    save_tensor(Tensor(new.image_vecs[0]), tmp_path / "q.ten")
    assert main(["retrieve", "--index", str(path), "--query-tensor", str(tmp_path / "q.ten"),
                 "--r", "2", "--mode", "infer"]) == EXIT_MISSING
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "i.idx" in err[0]
    save_index(new, path)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["i.idx", "i.idx.captions", "q.ten"]
    assert load_index(path).captions == new.captions


def test_fingerprint_covers_encoders(rng):
    """A change to one frozen-encoder value, not only to the projection
    heads, makes the index fingerprint a mismatch."""
    cfg = micro_config()
    params = micro_params(cfg, seed=1)
    index = replace(_random_index(rng, n=3, d_proj=cfg.d_proj),
                    fingerprint=fingerprint_params(params, cfg.d_proj))
    params["image.0.attn.wq"].value[0, 0] += 1e-3
    with pytest.raises(FingerprintMismatchError):
        verify_fingerprint(index, params, cfg.d_proj)


def test_save_params_refuses_value_not_finite_in_float32(tmp_path):
    from ramm.errors import ContractViolation
    from ramm.model import save_params

    cfg = micro_config()
    params = micro_params(cfg, seed=3, dtype=np.float64)
    params["vqa.b2"].value[1] = 1e39   # finite in float64, inf in float32
    with pytest.raises(ContractViolation, match="vqa.b2"):
        save_params(params, tmp_path / "w")
    assert not (tmp_path / "w").exists()
