"""End-to-end harness: pretraining, index building, retrieval-augmented
fine-tuning, evaluation, retrieval statistics, and the r-sweep.

Stages communicate through on-disk artifacts (checkpoint directories, the
RAMMIDX1 index, JSONL data files) and are reproducible bit-for-bit given the
same configs and seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ops
from .errors import ConfigError, FingerprintMismatchError, FormatError, MissingArtifactError
from .model import (
    _TOKEN_RE, DropoutPlan, ModelConfig, StateRows, StreamBatch, Vocab, cls_rows,
    encode_image, encode_text, fuse, gather_streams, init_params, itm_head,
    key_mask, load_params, param_shapes, project_itc, reinit_group, save_params,
    tokenize, vqa_head,
)
from .objectives import (
    AdamW, TrainConfig, ema_update, itc_loss, itc_loss_distilled, itm_loss,
    mask_tokens, mlm_loss, pretrain_loss, rdrop_loss,
)
from .retrieval import Mode, candidate_pool, retrieve_by_vector, select_training
from .store import (
    EVAL_BATCH, TAG_NAMES, BuildReport, build_store, check_patches, frozen_images,
    frozen_texts, load_index, save_index, verify_fingerprint,
)
from .synthetic import load_answers, load_corpus, load_vqa_items
from .tensor import load_tensor
from .textio import read_jsonl, read_text, write_jsonl


def _sub_seed(*parts) -> int:
    digest = hashlib.blake2b("|".join(str(p) for p in parts).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "little") & 0x7FFFFFFFFFFFFFFF


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(directory, params, mcfg: ModelConfig, extra: dict):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_params(params, directory / "weights.ten")
    (directory / "config.json").write_text(mcfg.to_json(), encoding="utf-8")
    (directory / "meta.json").write_text(json.dumps(extra, sort_keys=True), encoding="utf-8")


def load_checkpoint(directory, weights: str = "weights"):
    """Model config and the float32 parameters in the file `{weights}.ten`;
    FormatError if config.json is no ModelConfig or the weights not its tensors."""
    directory = Path(directory)
    cfg_path = directory / "config.json"
    if not cfg_path.exists():
        raise MissingArtifactError(f"no checkpoint at {directory}")
    try:
        mcfg = ModelConfig(**json.loads(read_text(cfg_path)))
    except (ValueError, TypeError, RecursionError, ConfigError) as exc:   # not ModelConfig JSON
        raise FormatError(f"{cfg_path}: {exc}") from exc
    return load_params(directory / f"{weights}.ten", param_shapes(mcfg)), mcfg


# ---------------------------------------------------------------------------
# Pretraining


def _derangement(n: int, rng: np.random.Generator) -> np.ndarray:
    """Permutation with no fixed point (mismatched caption assignment)."""
    while True:
        perm = rng.permutation(n)
        if not np.any(perm == np.arange(n)):
            return perm


def pretrain_losses(params, momentum, mcfg: ModelConfig, tcfg: TrainConfig,
                    ids: list[list[int]], patches: np.ndarray, perm: np.ndarray,
                    masked: list[tuple[list[int], list[int], list[int]]],
                    dctx: DropoutPlan | None = None) -> tuple[ops.Node, ops.Node, ops.Node]:
    """ITC, ITM and MLM losses of one batch of B pairs, as one graph.

    ids: the B captions' token ids; patches: (B, n_patches, d_patch);
    perm: a derangement giving each image its mismatched ITM caption;
    masked: each caption's mask_tokens output. `momentum` holds the
    distillation teacher, unused when tcfg.distill_weight is 0. Each loss is
    the mean over the batch of the per-pair losses."""
    b = len(ids)
    # one encode: the clean captions, then their corrupted copies of equal lengths
    texts = encode_text(params, mcfg, ids + [corrupted for corrupted, _, _ in masked], dctx)
    v = encode_image(params, mcfg, patches, dctx)
    tmat = project_itc(ops.slice_rows(cls_rows(texts), 0, b), params, "text")
    imat = project_itc(cls_rows(v), params, "image")
    if tcfg.distill_weight > 0.0:
        tm = project_itc(cls_rows(encode_text(momentum, mcfg, ids)), momentum, "text")
        im = project_itc(cls_rows(encode_image(momentum, mcfg, patches)), momentum, "image")
        loss_itc = itc_loss_distilled(tmat, imat, tm.value, im.value,
                                      tcfg.itc_temperature, tcfg.distill_weight)
    else:
        loss_itc = itc_loss(tmat, imat, tcfg.itc_temperature)

    # one fusion pass over 3B rows, each image thrice: the B matched pairs and
    # the deranged captions (ITM), then the corrupted captions (MLM)
    order = np.concatenate([np.arange(b), perm, np.arange(b, 2 * b)])
    wl, vl = fuse(params, mcfg, ops.gather_rows(texts, order), ops.concat_rows([v, v, v]), [],
                  dctx, text_masks=[key_mask([len(seq) for seq in ids])[order % b]])
    loss_itm = itm_loss(itm_head(params, *(ops.slice_rows(cls_rows(x), 0, 2 * b)
                                           for x in (wl, vl))), [1] * b + [0] * b)

    # each caption's masked positions share its 1/B of the MLM loss
    n = wl.value.shape[-2]
    rows = [(2 * b + i) * n + p for i, (_, positions, _) in enumerate(masked) for p in positions]
    targets = [t for _, _, tgts in masked for t in tgts]
    weights = [1.0 / (b * len(positions)) for _, positions, _ in masked for _ in positions]
    loss_mlm = mlm_loss(ops.reshape(wl, (-1, mcfg.d)), params, rows, targets, weights)
    return loss_itc, loss_itm, loss_mlm


def pretrain(data_dir, out_dir, mcfg: ModelConfig, tcfg: TrainConfig, steps: int) -> Path:
    """Train ITC + ITM + MLM (unweighted sum) with momentum distillation."""
    if steps < 1:
        raise ConfigError("steps must be at least 1")
    if tcfg.batch_size < 2:   # ITC and ITM contrast each pair with the batch's others
        raise ConfigError(f"pretrain needs batch_size of at least 2, got {tcfg.batch_size}")
    if mcfg.max_text_len < 2:   # MLM masks a token after CLS
        raise ConfigError(f"pretrain needs max_text_len of at least 2, got {mcfg.max_text_len}")
    data_dir = Path(data_dir)
    vocab = Vocab.load(data_dir / "vocab.txt")
    pairs, load_patches = load_corpus(data_dir)
    if len(pairs) < tcfg.batch_size:
        raise ConfigError("corpus smaller than batch size")
    token_ids = [tokenize(p.caption, vocab, mcfg.max_text_len) for p in pairs]
    if bare := [p for p, seq in zip(pairs, token_ids) if len(seq) < 2]:
        raise FormatError(f"{data_dir / 'corpus' / 'pairs.jsonl'}: pair_id {bare[0].pair_id} "
                          f"has no token for MLM to mask in caption {bare[0].caption!r}")
    patches = np.stack([check_patches(load_patches(p.image_ref), mcfg,
                                      f"pair_id {p.pair_id} ({data_dir / 'corpus' / p.image_ref})")
                        for p in pairs])

    params = init_params(mcfg, tcfg.seed)
    opt = AdamW(params, lr=tcfg.lr, weight_decay=tcfg.weight_decay,
                total_steps=steps)
    # the momentum teacher: a copy of the optimizer's buffer, viewed per tensor
    momentum_flat = ops.param(opt.buffer.value.copy())
    momentum = {n: ops.param(v) for n, v in opt.views(momentum_flat.value).items()}
    rng = np.random.default_rng(_sub_seed(tcfg.seed, "pretrain"))
    base_plan = DropoutPlan(_sub_seed(tcfg.seed, "dropout"), mcfg.dropout_rate)
    log_lines = []
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)   # an unusable --out fails before any step

    # a diverging step surfaces as AdamW's DivergenceError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            batch = rng.choice(len(pairs), size=tcfg.batch_size, replace=False)
            perm = _derangement(len(batch), rng)
            masked = [mask_tokens(token_ids[bi], tcfg.mask_rate,
                                  _sub_seed(tcfg.seed, step, int(bi)), vocab)
                      for bi in batch]
            loss_itc, loss_itm, loss_mlm = pretrain_losses(
                params, momentum, mcfg, tcfg, [token_ids[bi] for bi in batch],
                patches[batch], perm, masked, base_plan.at(step))
            total = pretrain_loss(loss_itc, loss_itm, loss_mlm)
            ops.zero_grads(params.values())
            ops.backward(total)
            lr = opt.step()
            ema_update({"": momentum_flat}, {"": opt.buffer}, tcfg.momentum)
            log_lines.append(
                f"{step}\t{float(loss_itc.value):.6f}\t{float(loss_itm.value):.6f}"
                f"\t{float(loss_mlm.value):.6f}\t{float(total.value):.6f}\t{lr:.6g}")

    save_checkpoint(out_dir, params, mcfg,
                    extra={"stage": "pretrain", "seed": tcfg.seed, "steps": steps})
    (out_dir / "train_log.tsv").write_text("\n".join(log_lines) + "\n",
                                           encoding="utf-8")
    return out_dir


def build_index_cmd(checkpoint_dir, data_dir, out_path) -> BuildReport:
    """Encode the corpus of `data_dir` into an index at `out_path`; the report
    counts the pairs encoded and those skipped for an unreadable image."""
    params, mcfg = load_checkpoint(checkpoint_dir)
    data_dir = Path(data_dir)
    vocab = Vocab.load(data_dir / "vocab.txt")
    pairs, load_patches = load_corpus(data_dir)
    index, report = build_store(pairs, params, mcfg, vocab, load_patches)
    save_index(index, out_path)
    return report


# ---------------------------------------------------------------------------
# Fine-tuning


class Stage:
    """The checkpoint, verified index, answer vocabulary, split items and
    corpus (holding every pair of the index) that fine-tuning and evaluation
    start from, plus the frozen-encoder states (inference mode) of all a run
    reads, each encoded once before any fusion graph is built: the items'
    images at construction, which give `query_vecs`, then, in `encode`, the
    questions and the retrieved pairs' captions and images."""

    def __init__(self, checkpoint_dir, index_path, data_dir, split: str,
                 weights: str = "weights"):
        self.params, self.mcfg = load_checkpoint(checkpoint_dir, weights)
        self.index = load_index(index_path)
        verify_fingerprint(self.index, self.params, self.mcfg.d_proj)
        self.data_dir = Path(data_dir)
        self.vocab = Vocab.load(self.data_dir / "vocab.txt")
        self.answers = load_answers(self.data_dir)
        if self.mcfg.n_answers != len(self.answers):
            raise ConfigError(f"checkpoint expects {self.mcfg.n_answers} answers, "
                              f"data has {len(self.answers)}")
        self.split_path = self.data_dir / f"vqa_{split}.jsonl"
        self.items = load_vqa_items(self.split_path)
        if not self.items:
            raise MissingArtifactError(f"no items in {self.split_path}")
        pairs, self.load_patches = load_corpus(self.data_dir)
        self.pair_by_id = {p.pair_id: p for p in pairs}
        corpus = self.data_dir / "corpus" / "pairs.jsonl"
        for pid, caption in zip(self.index.pair_ids.tolist(), self.index.captions):
            if pid not in self.pair_by_id:
                raise MissingArtifactError(f"index pair_id {pid} is not in the corpus {corpus}")
            # the index keeps a caption up to its first newline
            if self.pair_by_id[pid].caption.partition("\n")[0] != caption:
                raise FingerprintMismatchError(
                    f"index pair_id {pid} holds another caption than the corpus {corpus}; "
                    "rebuild the index")
        self._item_states = frozen_images(self.params, self.mcfg, [
            check_patches(load_tensor(self.data_dir / it.image_ref).array, self.mcfg,
                          f"item_id {it.item_id} ({self.data_dir / it.image_ref})")
            for it in self.items])
        # (len(items), d_proj): each item's image CLS state through the
        # frozen ITC image projection
        self.query_vecs = project_itc(ops.constant(np.stack([v[0] for v in self._item_states])),
                                      self.params, "image").value

    def encode(self, pair_ids) -> None:
        """Build the state tables `streams` gathers from: the caption and
        image of each pair in `pair_ids`, by ascending pair_id, then each
        item's question and image. Texts are encoded once each, captions
        first, then the distinct questions."""
        pids = sorted(set(pair_ids))
        pairs = [self.pair_by_id[pid] for pid in pids]
        questions = list(dict.fromkeys(it.question for it in self.items))
        texts = frozen_texts(self.params, self.mcfg, self.vocab,
                             [p.caption for p in pairs] + questions)
        question = dict(zip(questions, texts[len(pairs):]))
        self.text_rows = StateRows(texts[: len(pairs)]
                                   + [question[it.question] for it in self.items])
        self.image_rows = StateRows(frozen_images(self.params, self.mcfg, [
            check_patches(self.load_patches(p.image_ref), self.mcfg,
                          f"pair_id {p.pair_id} ({self.data_dir / 'corpus' / p.image_ref})")
            for p in pairs]) + self._item_states)
        self._row_of_pair = {pid: row for row, pid in enumerate(pids)}

    def streams(self, indices, selected: list[list[int]]) -> StreamBatch:
        """The fusion streams of the split's items at `indices`; selected[b]
        lists the pair ids that item b retrieved, each one passed to
        `encode`."""
        first = len(self._row_of_pair)
        return gather_streams(self.text_rows, self.image_rows, [first + i for i in indices],
                              [[self._row_of_pair[pid] for pid in pids] for pids in selected])


def answer_logits(params, mcfg: ModelConfig, streams: StreamBatch,
                  dctx: DropoutPlan | None = None) -> ops.Node:
    """(B, n_answers) VQA logits of a batch, fusing the stack of `streams`.
    The head reads only CLS rows, so fuse computes only those in its last
    layer."""
    wl, vl = fuse(params, mcfg, ops.constant(streams.text), ops.constant(streams.image), [],
                  dctx, [streams.text_mask], cls_only=True)
    return vqa_head(params, cls_rows(wl), cls_rows(vl))


def finetune(checkpoint_dir, index_path, data_dir, r: int, tcfg: TrainConfig,
             out_dir, epochs: int = 10, feature_noise: float = 0.0) -> Path:
    """Fine-tune VQA classification with r retrieved pairs per instance.

    Only the fusion stack and the VQA head train. The uni-modal encoders and
    ITC projections stay frozen, bit for bit in both the weights and their
    EMA, so the index, which holds their features, stays valid for the
    fine-tuned checkpoint (`evaluate` checks its fingerprint), and the
    encoder states of every stream are computed once, before the first
    step, for the items and the union of their pools. feature_noise
    adds fresh Gaussian noise, cast to the states' dtype, to the instance's
    image states every step, a cheap augmentation that discourages
    memorizing individual images.
    Each item's retrieval pool is computed once per run, and before step 0
    one select_training call draws from it for every step the item is in;
    a step gathers its batch's streams and builds one graph for the batch.
    """
    if r < 0:
        raise ConfigError("r must be non-negative")
    if epochs < 1 or not 0.0 <= feature_noise < math.inf:
        raise ConfigError("epochs must be at least 1, feature_noise finite and >= 0")
    stage = Stage(checkpoint_dir, index_path, data_dir, "train")
    params, mcfg, index, items = stage.params, stage.mcfg, stage.index, stage.items
    answer_id = {a: i for i, a in enumerate(stage.answers)}
    if unknown := [it for it in items if it.answer not in answer_id]:
        raise FormatError(f"{stage.split_path}: item_id {unknown[0].item_id} has answer "
                          f"{unknown[0].answer!r}, which answers.txt lacks")
    targets = np.array([answer_id[it.answer] for it in items])

    reinit_group(params, "vqa.", _sub_seed(tcfg.seed, "vqa-head"))
    # the frozen query vectors and index fix each item's pool; only the
    # training draw from it changes from step to step
    pools = [candidate_pool(q, index, r) for q in stage.query_vecs] if r > 0 else []
    stage.encode(c.pair_id for pool in pools for c in pool)

    # before step 0: each step's items, from one ft-order permutation per
    # epoch, and their retrieval draws, one select_training call per item
    b, rng = tcfg.batch_size, np.random.default_rng(_sub_seed(tcfg.seed, "ft-order"))
    orders = [rng.permutation(len(items)) for _ in range(epochs)]
    batches = np.array([order[b0 : b0 + b] for order in orders
                        for b0 in range(0, max(1, len(items) // b) * b, b)])
    selected: list[list[list[int]]] = [[[] for _ in idx] for idx in batches]
    for i, pool in enumerate(pools):
        steps, cols = (a.tolist() for a in np.nonzero(batches == i))
        draws = select_training(pool, r, [_sub_seed(tcfg.seed, "select", step, items[i].item_id)
                                          for step in steps])
        for step, col, res in zip(steps, cols, draws):
            selected[step][col] = [pid for pid, _ in res.selected]

    opt = AdamW(params, lr=tcfg.lr, weight_decay=tcfg.weight_decay,
                total_steps=len(batches), trainable_prefixes=("fuse.", "vqa."))
    ema_flat = ops.param(opt.buffer.value.copy())  # the EMA of the trainable tensors
    ema_init = opt.buffer.value.astype(np.float64)
    base_plan = DropoutPlan(_sub_seed(tcfg.seed, "ft-dropout"), mcfg.dropout_rate)
    use_rdrop = tcfg.rdrop_alpha > 0.0 and mcfg.dropout_rate > 0.0
    log_lines = []
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)   # an unusable --out fails before any step
    # a diverging step surfaces as AdamW's DivergenceError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step, idx in enumerate(batches):
            streams = stage.streams(idx, selected[step])
            if feature_noise > 0.0:   # stream 0's image states, slot 0 of the stack
                streams.image[:, 0] += np.stack([feature_noise * np.random.default_rng(
                    _sub_seed(tcfg.seed, "aug", step, items[i].item_id)
                ).normal(size=streams.image.shape[2:]) for i in idx]).astype(streams.image.dtype)

            def forward(pass_idx: int) -> ops.Node:
                return answer_logits(params, mcfg, streams, base_plan.at(step, pass_idx))

            if use_rdrop:
                total = rdrop_loss(forward(0), forward(1), targets[idx], tcfg.rdrop_alpha)
            else:
                total = ops.cross_entropy(forward(0), targets[idx])
            ops.zero_grads(params.values())
            ops.backward(total)
            lr = opt.step()
            ema_update({"": ema_flat}, {"": opt.buffer}, tcfg.ema_decay)
            log_lines.append(f"{step}\t{float(total.value):.6f}\t{lr:.6g}")

    save_checkpoint(out_dir, params, mcfg, extra={
        "stage": "finetune", "seed": tcfg.seed, "r": r, "epochs": epochs,
        "index_fingerprint": index.fingerprint,
    })
    # Adam-style bias correction: the EMA starts cold at the initial weights,
    # which dominates short runs unless the decay^T leakage is divided out
    leak = tcfg.ema_decay ** len(batches)
    if leak < 1.0:
        ema_flat.value[...] = (ema_flat.value.astype(np.float64)
                               - leak * ema_init) / (1.0 - leak)
    # frozen tensors stay bitwise the checkpoint's, so the index fingerprint holds
    save_params({**params, **{n: ops.param(v) for n, v in opt.views(ema_flat.value).items()}},
                out_dir / "weights_ema.ten")
    (out_dir / "train_log.tsv").write_text("\n".join(log_lines) + "\n",
                                           encoding="utf-8")
    return out_dir


# ---------------------------------------------------------------------------
# Evaluation


@dataclass
class EvalReport:
    overall: float
    closed: float
    open: float
    required: float
    not_required: float
    n_total: int
    n_closed: int
    n_open: int
    n_required: int
    r: int
    seed: int

    def as_text(self) -> str:
        return (
            f"r={self.r} seed={self.seed} n={self.n_total}\n"
            f"overall       {self.overall:.4f}\n"
            f"closed-ended  {self.closed:.4f} (n={self.n_closed})\n"
            f"open-ended    {self.open:.4f} (n={self.n_open})\n"
            f"retrieval-required      {self.required:.4f} (n={self.n_required})\n"
            f"not retrieval-required  {self.not_required:.4f}\n"
        )


def evaluate(checkpoint_dir, index_path, data_dir, r: int, split: str = "test",
             use_ema: bool = True, out_dir=None, seed: int = 0):
    """Deterministic inference-mode evaluation; returns report and details.
    Every item retrieves first, then items are scored EVAL_BATCH at a time,
    one graph per batch."""
    use_ema = use_ema and (Path(checkpoint_dir) / "weights_ema.ten").exists()
    stage = Stage(checkpoint_dir, index_path, data_dir, split,
                  "weights_ema" if use_ema else "weights")
    params, mcfg, index, items = stage.params, stage.mcfg, stage.index, stage.items

    selected: list[list[tuple[int, float]]] = [[] for _ in items]
    if r > 0:
        selected = [retrieve_by_vector(q, index, r, Mode.INFER).selected
                    for q in stage.query_vecs]
    stage.encode(pid for sel in selected for pid, _ in sel)
    details = []
    for b0 in range(0, len(items), EVAL_BATCH):
        batch = range(b0, min(b0 + EVAL_BATCH, len(items)))
        streams = stage.streams(batch, [[pid for pid, _ in selected[i]] for i in batch])
        logits = answer_logits(params, mcfg, streams)
        for i, row in zip(batch, logits.value):
            it = items[i]
            pred = stage.answers[int(np.argmax(row))]
            details.append({
                "item_id": it.item_id, "gold": it.answer, "pred": pred,
                "correct": pred == it.answer, "closed": it.closed, "required": it.required,
                "retrieved": [{
                    "pair_id": pid,
                    "source": TAG_NAMES[int(index.source_tags[index.row_of(pid)])],
                    "caption": stage.pair_by_id[pid].caption,
                    "s": s,
                } for pid, s in selected[i]],
            })

    def acc(keep) -> tuple[float, int]:
        flags = [d["correct"] for d in details if keep(d)]
        return (float(np.mean(flags)) if flags else 0.0), len(flags)

    overall, n_total = acc(lambda d: True)
    closed, n_closed = acc(lambda d: d["closed"])
    open_, n_open = acc(lambda d: not d["closed"])
    required, n_required = acc(lambda d: d["required"])
    not_required, _ = acc(lambda d: not d["required"])
    report = EvalReport(overall, closed, open_, required, not_required, n_total,
                        n_closed, n_open, n_required, r, seed)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "eval_report.txt").write_text(report.as_text(), encoding="utf-8")
        write_jsonl(out_dir / "eval_details.jsonl", [{"report": report.__dict__}, *details])
    return report, details


# ---------------------------------------------------------------------------
# Retrieval statistics


@dataclass
class RetrievalStats:
    source_share: dict[str, float]      # percent of retrieved slots per source
    answer_containment: float           # percent of items with gold in a caption
    n_items: int

    def as_text(self) -> str:
        lines = [f"items evaluated  {self.n_items}"]
        for src, share in sorted(self.source_share.items()):
            lines.append(f"retrieve% {src:<10} {share:.1f}%")
        lines.append(f"have-answer%     {self.answer_containment:.1f}%")
        return "\n".join(lines) + "\n"


def caption_contains_answer(caption: str, answer: str) -> bool:
    """Case-insensitive whole-token match of the gold answer string."""
    want, words = _TOKEN_RE.findall(answer.lower()), _TOKEN_RE.findall(caption.lower())
    return bool(want) and any(words[i : i + len(want)] == want
                              for i in range(len(words) - len(want) + 1))


def retrieval_stats(details: list[dict]) -> RetrievalStats:
    hits = n = 0
    sources: Counter[str] = Counter()
    for d in details:
        if retrieved := d.get("retrieved", []):
            n += 1
            sources.update(slot["source"] for slot in retrieved)
            hits += any(caption_contains_answer(slot["caption"], d["gold"])
                        for slot in retrieved)
    total = sum(sources.values())
    return RetrievalStats({src: 100.0 * c / total for src, c in sources.items()},
                          100.0 * hits / n if n else 0.0, n)


def load_details(path) -> list[dict]:
    """The item records of an eval_details.jsonl, after its report; a line that
    is not a JSON object, or that retrieval_stats cannot read, is a FormatError."""
    return read_jsonl(path, check=lambda d: retrieval_stats([d]))[1:]


# ---------------------------------------------------------------------------
# r-sweep


def sweep_r(checkpoint_dir, index_path, data_dir, rs, tcfg: TrainConfig,
            out_dir, epochs: int = 10) -> list[dict]:
    """Fine-tune and evaluate once per r on identical splits; one row per r."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for r in rs:
        ft_dir = out_dir / f"finetune_r{r}"
        finetune(checkpoint_dir, index_path, data_dir, r, tcfg, ft_dir, epochs)
        report, _ = evaluate(ft_dir, index_path, data_dir, r, seed=tcfg.seed)
        rows.append({
            "r": r, "overall": report.overall, "open": report.open,
            "closed": report.closed, "required": report.required,
            "seed": tcfg.seed,
        })
    (out_dir / "sweep_report.txt").write_text(
        f"# seed={tcfg.seed} epochs={epochs}\n" + sweep_table(rows), encoding="utf-8")
    write_jsonl(out_dir / "sweep_report.jsonl", rows)
    return rows


def sweep_table(rows: list[dict]) -> str:
    """`sweep_r`'s rows as a tab-separated table with a header line."""
    return "r\toverall\topen\tclosed\trequired\n" + "".join(
        f"{row['r']}\t{row['overall']:.4f}\t{row['open']:.4f}"
        f"\t{row['closed']:.4f}\t{row['required']:.4f}\n"
        for row in rows)
