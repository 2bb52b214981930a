import numpy as np
import pytest

from ramm import ops
from ramm.model import ModelConfig, StateRows, StreamBatch, gather_streams, init_params


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def micro_config(**overrides) -> ModelConfig:
    base = dict(
        vocab_size=14, n_answers=3, d=8, n_head=2, l_fuse=1, l_text=1,
        l_image=1, d_proj=4, max_text_len=6, patch_grid=2, d_patch=3,
        d_ff=16, dropout_rate=0.0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def micro_params(cfg=None, seed=7, dtype=np.float64):
    cfg = cfg or micro_config()
    return init_params(cfg, seed=seed, dtype=dtype)


def clone_params(params: dict[str, ops.Node]) -> dict[str, ops.Node]:
    return {n: ops.param(p.value.copy()) for n, p in params.items()}


def _pad(states: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(n_b, d) arrays zero-padded into one (B, max n_b, d) array, plus its key mask."""
    return StateRows(states).gather(np.arange(len(states)))


def batch_streams(originals: list[tuple[np.ndarray, np.ndarray]],
                  retrieved: list[list[tuple[np.ndarray, np.ndarray]]]) -> StreamBatch:
    """Stack B items' (text, image) states and their retrieved pairs' states
    (see gather_streams) by storing them as rows and gathering those."""
    flat = [*originals, *(pair for pairs in retrieved for pair in pairs)]
    rows = iter(range(len(flat)))
    return gather_streams(StateRows([t for t, _ in flat]), StateRows([v for _, v in flat]),
                          [next(rows) for _ in originals],
                          [[next(rows) for _ in pairs] for pairs in retrieved])
