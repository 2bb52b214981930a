"""Synthetic desk-scale stand-in for the pretraining corpora and VQA sets.

Images are noisy samples around per-cluster prototype patch grids. Every VQA
item has a near-duplicate "anchor" pair in the corpus whose caption names the
item's answer token. For retrieval-required items the answer is random given
the image, so a model without retrieval can only learn the marginal; with
retrieval the anchor caption carries the answer.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import ImageTextPair, read_pairs_jsonl
from .errors import ConfigError
from .model import Vocab
from .tensor import load_tensor, save_tensor
from .textio import read_jsonl, read_lines, write_jsonl

OPEN_ANSWERS = ["lesion", "fracture", "edema", "tumor", "cyst", "stenosis"]
OPEN_TEMPLATE = "what finding is present in this image"
CLOSED_TEMPLATE = "is there an abnormality in this image"


@dataclass
class SyntheticSpec:
    n_clusters: int = 4
    pairs_per_cluster: int = 5          # filler corpus pairs per cluster
    n_train: int = 240
    n_test: int = 120
    patch_grid: int = 2
    d_patch: int = 16
    n_open_answers: int = 6
    required_fraction: float = 0.5
    closed_fraction: float = 0.2
    margin: float = 6.0                 # min pairwise prototype distance
    anchor_spread: float = 3.0
    anchor_copies: int = 4              # near-duplicate corpus pairs per item
    copy_noise: float = 0.02
    seed: int = 0

    def __post_init__(self):
        for name in ("n_clusters", "n_train", "n_test", "patch_grid", "d_patch",
                     "n_open_answers", "anchor_copies", "pairs_per_cluster"):
            least = 0 if name == "pairs_per_cluster" else 1
            if type(value := getattr(self, name)) is not int or value < least:
                raise ConfigError(f"{name} = {value!r} is not an integer >= {least}")
        if not (0.0 <= self.required_fraction <= 1.0):
            raise ConfigError("required_fraction must lie in [0, 1]")
        if not (0.0 <= self.closed_fraction <= 1.0):
            raise ConfigError("closed_fraction must lie in [0, 1]")
        if self.n_open_answers > len(OPEN_ANSWERS):
            raise ConfigError(f"at most {len(OPEN_ANSWERS)} open answers available")

    def fingerprint(self) -> str:
        blob = json.dumps(self.__dict__, sort_keys=True).encode()
        return hashlib.blake2b(blob, digest_size=8).hexdigest()


@dataclass
class VQAItem:
    item_id: int
    question: str
    answer: str
    image_ref: str
    cluster: int
    required: bool
    closed: bool


def _prototypes(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Cluster prototypes with enforced pairwise separation."""
    m = spec.patch_grid**2
    for _ in range(100):
        protos = rng.normal(0.0, 1.0, size=(spec.n_clusters, m, spec.d_patch))
        protos *= spec.margin / 2.0
        flat = protos.reshape(spec.n_clusters, -1)
        dists = np.linalg.norm(flat[:, None] - flat[None, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        if dists.min() >= spec.margin:
            return protos
    raise ConfigError("could not separate cluster prototypes; lower margin")


def _descriptor(k: int) -> str:
    return f"organ{k}"


def generate(spec: SyntheticSpec, out_dir) -> dict:
    """Write corpus + VQA splits; byte-identical given the same spec."""
    out = Path(out_dir)
    (out / "corpus" / "images").mkdir(parents=True, exist_ok=True)
    (out / "vqa_images").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    protos = _prototypes(spec, rng)
    open_answers = OPEN_ANSWERS[: spec.n_open_answers]

    pairs: list[ImageTextPair] = []
    next_pair_id = 1

    def add_pair(image: np.ndarray, caption: str) -> int:
        nonlocal next_pair_id
        pid = next_pair_id
        next_pair_id += 1
        ref = f"images/{pid:08d}.ten"
        save_tensor(image.astype(np.float32), out / "corpus" / ref)
        pairs.append(ImageTextPair(pid, f"synth{pid}", caption, ref, "SYNTH"))
        return pid

    def make_item(item_id: int, split: str) -> VQAItem:
        k = int(rng.integers(0, spec.n_clusters))
        anchor = protos[k] + spec.anchor_spread * rng.normal(size=protos[k].shape)
        roll = rng.random()
        if roll < spec.required_fraction:
            required, closed = True, False
            question = OPEN_TEMPLATE
            answer = open_answers[int(rng.integers(0, len(open_answers)))]
        elif roll < spec.required_fraction + spec.closed_fraction * (1 - spec.required_fraction):
            required, closed = False, True
            question = CLOSED_TEMPLATE
            answer = "yes" if k % 2 == 0 else "no"
        else:
            required, closed = False, False
            question = OPEN_TEMPLATE
            answer = open_answers[k % len(open_answers)]
        ref = f"vqa_images/{split}_{item_id:06d}.ten"
        save_tensor(anchor.astype(np.float32), out / ref)
        for _ in range(spec.anchor_copies):
            copy = anchor + spec.copy_noise * rng.normal(size=anchor.shape)
            add_pair(copy, f"figure showing {answer}")
        return VQAItem(item_id, question, answer, ref, k, required, closed)

    train = [make_item(i, "train") for i in range(spec.n_train)]
    test = [make_item(i, "test") for i in range(spec.n_test)]

    for k in range(spec.n_clusters):
        for _ in range(spec.pairs_per_cluster):
            image = protos[k] + spec.anchor_spread * rng.normal(size=protos[k].shape)
            add_pair(image, f"routine imaging of {_descriptor(k)}")

    write_jsonl(out / "corpus" / "pairs.jsonl", pairs)
    write_jsonl(out / "vqa_train.jsonl", train)
    write_jsonl(out / "vqa_test.jsonl", test)

    words = sorted(
        set(OPEN_TEMPLATE.split()) | set(CLOSED_TEMPLATE.split())
        | set(open_answers) | {"yes", "no", "case", "of", "figure", "showing",
                               "routine", "imaging"}
        | {_descriptor(k) for k in range(spec.n_clusters)}
    )
    Vocab(words).save(out / "vocab.txt")
    answers = open_answers + ["yes", "no"]
    (out / "answers.txt").write_text("\n".join(answers) + "\n", encoding="utf-8")
    meta = {"spec": spec.__dict__, "fingerprint": spec.fingerprint(),
            "n_corpus_pairs": len(pairs)}
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2),
                                   encoding="utf-8")
    return meta


def load_vqa_items(path) -> list[VQAItem]:
    return read_jsonl(path, VQAItem)


def load_answers(data_dir) -> list[str]:
    """The answer vocabulary of `data_dir`: the lines of its answers.txt."""
    return read_lines(Path(data_dir) / "answers.txt")


def load_corpus(data_dir):
    """Corpus pairs plus a patch loader resolving image_ref paths."""
    data_dir = Path(data_dir)
    pairs = read_pairs_jsonl(data_dir / "corpus" / "pairs.jsonl")

    def load_patches(image_ref: str) -> np.ndarray:
        return load_tensor(data_dir / "corpus" / image_ref).array

    return pairs, load_patches
