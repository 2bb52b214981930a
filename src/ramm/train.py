"""End-to-end harness: pretraining, index building, retrieval-augmented
fine-tuning, evaluation, retrieval statistics, and the r-sweep.

Stages communicate through on-disk artifacts (checkpoint directories, the
RAMMIDX1 index, JSONL data files) and are reproducible bit-for-bit given the
same configs and seeds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ops
from .errors import ConfigError, MissingArtifactError
from .model import (
    _TOKEN_RE, DropoutPlan, ModelConfig, StreamBatch, Vocab, batch_streams,
    cls_rows, encode_image, encode_text, fuse, init_params, itm_head,
    key_mask, load_params, project_itc, reinit_group, save_params, tokenize,
    vqa_head,
)
from .objectives import (
    AdamW, TrainConfig, ema_update, itc_loss, itc_loss_distilled, itm_loss,
    mask_tokens, mlm_loss, pretrain_loss, rdrop_loss,
)
from .retrieval import Mode, retrieve_by_vector
from .store import (
    TAG_NAMES, build_store, load_index, save_index, verify_fingerprint,
)
from .synthetic import VQAItem, load_corpus, load_vqa_items
from .tensor import load_tensor


def _sub_seed(*parts) -> int:
    digest = hashlib.blake2b("|".join(str(p) for p in parts).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "little") & 0x7FFFFFFFFFFFFFFF


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(directory, params, mcfg: ModelConfig, extra: dict | None = None):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_params(params, directory / "weights")
    (directory / "config.json").write_text(mcfg.to_json(), encoding="utf-8")
    if extra:
        (directory / "meta.json").write_text(
            json.dumps(extra, sort_keys=True), encoding="utf-8")


def load_checkpoint(directory, weights: str = "weights", dtype=np.float32):
    """Model config and the parameters in the `weights` subdirectory."""
    directory = Path(directory)
    cfg_path = directory / "config.json"
    if not cfg_path.exists():
        raise MissingArtifactError(f"no checkpoint at {directory}")
    mcfg = ModelConfig.from_json(cfg_path.read_text(encoding="utf-8"))
    params = load_params(directory / weights, dtype=dtype)
    return params, mcfg


def clone_params(params: dict[str, ops.Node]) -> dict[str, ops.Node]:
    return {n: ops.param(p.value.copy()) for n, p in params.items()}


# ---------------------------------------------------------------------------
# Pretraining


def _derangement(n: int, rng: np.random.Generator) -> np.ndarray:
    """Permutation with no fixed point (mismatched caption assignment)."""
    if n < 2:
        raise ConfigError("need at least 2 samples to build mismatches")
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
    w = encode_text(params, mcfg, ids, dctx)
    v = encode_image(params, mcfg, patches, dctx)
    tmat = project_itc(cls_rows(w), params, "text")
    imat = project_itc(cls_rows(v), params, "image")
    if tcfg.distill_weight > 0.0:
        tm = project_itc(cls_rows(encode_text(momentum, mcfg, ids)), momentum, "text")
        im = project_itc(cls_rows(encode_image(momentum, mcfg, patches)), momentum, "image")
        loss_itc = itc_loss_distilled(tmat, imat, tm.value, im.value,
                                      tcfg.itc_temperature, tcfg.distill_weight)
    else:
        loss_itc = itc_loss(tmat, imat, tcfg.itc_temperature)

    # ITM: the B matched pairs, then the same images with deranged captions
    b = len(ids)
    mask = key_mask([len(seq) for seq in ids])
    wl, vl = fuse(params, mcfg, ops.concat_rows([w, ops.gather_rows(w, perm)]),
                  ops.concat_rows([v, v]), [], dctx,
                  text_masks=[np.concatenate([mask, mask[perm]])])
    loss_itm = itm_loss(itm_head(params, cls_rows(wl), cls_rows(vl)), [1] * b + [0] * b)

    # MLM over corrupted captions fused with their images; each caption's
    # masked positions share its 1/B of the loss
    wc = encode_text(params, mcfg, [corrupted for corrupted, _, _ in masked], dctx)
    wl, _ = fuse(params, mcfg, wc, v, [], dctx, text_masks=[mask])
    n = wl.value.shape[-2]
    rows = [i * n + p for i, (_, positions, _) in enumerate(masked) for p in positions]
    targets = [t for _, _, tgts in masked for t in tgts]
    weights = [1.0 / (b * len(positions)) for _, positions, _ in masked for _ in positions]
    loss_mlm = mlm_loss(ops.reshape(wl, (-1, mcfg.d)), params, rows, targets, weights)
    return loss_itc, loss_itm, loss_mlm


def pretrain(data_dir, out_dir, mcfg: ModelConfig, tcfg: TrainConfig,
             steps: int, log_path=None) -> Path:
    """Train ITC + ITM + MLM (unweighted sum) with momentum distillation."""
    data_dir = Path(data_dir)
    vocab = Vocab.load(data_dir / "vocab.txt")
    pairs, load_patches = load_corpus(data_dir)
    if len(pairs) < tcfg.batch_size:
        raise ConfigError("corpus smaller than batch size")
    token_ids = [tokenize(p.caption, vocab, mcfg.max_text_len) for p in pairs]
    patches = np.stack([load_patches(p.image_ref) for p in pairs])

    params = init_params(mcfg, tcfg.seed)
    momentum = clone_params(params)
    opt = AdamW(params, lr=tcfg.lr, weight_decay=tcfg.weight_decay,
                total_steps=steps)
    rng = np.random.default_rng(_sub_seed(tcfg.seed, "pretrain"))
    base_plan = DropoutPlan(_sub_seed(tcfg.seed, "dropout"), mcfg.dropout_rate)
    log_lines = []

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
        ema_update(momentum, params, tcfg.momentum)
        log_lines.append(
            f"{step}\t{float(loss_itc.value):.6f}\t{float(loss_itm.value):.6f}"
            f"\t{float(loss_mlm.value):.6f}\t{float(total.value):.6f}\t{lr:.6g}")

    out_dir = Path(out_dir)
    save_checkpoint(out_dir, params, mcfg,
                    extra={"stage": "pretrain", "seed": tcfg.seed, "steps": steps})
    log_text = "\n".join(log_lines) + "\n"
    (out_dir / "train_log.tsv").write_text(log_text, encoding="utf-8")
    if log_path:
        Path(log_path).write_text(log_text, encoding="utf-8")
    return out_dir


def build_index_cmd(checkpoint_dir, data_dir, out_path) -> Path:
    params, mcfg = load_checkpoint(checkpoint_dir)
    data_dir = Path(data_dir)
    vocab = Vocab.load(data_dir / "vocab.txt")
    pairs, load_patches = load_corpus(data_dir)
    index, report = build_store(pairs, params, mcfg, vocab, load_patches)
    save_index(index, out_path)
    return Path(out_path)


# ---------------------------------------------------------------------------
# Fine-tuning


class UnimodalCache:
    """Frozen-encoder states (inference mode), computed once per payload and
    a batch of payloads at a time. An image is read from disk only when its
    states are not cached yet."""

    def __init__(self, params, mcfg: ModelConfig, vocab: Vocab, data_dir):
        self.params = params
        self.mcfg = mcfg
        self.vocab = vocab
        self.data_dir = Path(data_dir)
        pairs, self.load_patches = load_corpus(self.data_dir)
        self.pair_by_id = {p.pair_id: p for p in pairs}
        self._texts: dict[str, np.ndarray] = {}
        self._images: dict[str, np.ndarray] = {}

    def texts(self, raws: list[str]) -> list[np.ndarray]:
        """(n, d) states of each text, keyed by the text itself."""
        missing = [t for t in dict.fromkeys(raws) if t not in self._texts]
        if missing:
            ids = [tokenize(t, self.vocab, self.mcfg.max_text_len) for t in missing]
            states = encode_text(self.params, self.mcfg, ids).value
            for t, seq, w in zip(missing, ids, states):
                self._texts[t] = w[: len(seq)]
        return [self._texts[t] for t in raws]

    def images(self, refs: list[str], load) -> list[np.ndarray]:
        """(n_patches + 1, d) states of each image; `load(ref)` reads the
        patches of an image not cached yet."""
        missing = [ref for ref in dict.fromkeys(refs) if ref not in self._images]
        if missing:
            patches = np.stack([load(ref) for ref in missing])
            for ref, v in zip(missing, encode_image(self.params, self.mcfg, patches).value):
                self._images[ref] = v
        return [self._images[ref] for ref in refs]

    def item_images(self, items: list[VQAItem]) -> list[np.ndarray]:
        return self.images([it.image_ref for it in items],
                           lambda ref: load_tensor(self.data_dir / ref).array)

    def streams(self, items: list[VQAItem], selected: list[list[int]]) -> StreamBatch:
        """The fusion streams of a batch of items; selected[b] lists the
        pair ids that item b retrieved."""
        originals = list(zip(self.texts([it.question for it in items]),
                             self.item_images(items)))
        pairs = [self.pair_by_id[pid] for pids in selected for pid in pids]
        states = list(zip(self.texts([p.caption for p in pairs]),
                          self.images([p.image_ref for p in pairs], self.load_patches)))
        retrieved, at = [], 0
        for pids in selected:
            retrieved.append(states[at : at + len(pids)])
            at += len(pids)
        return batch_streams(originals, retrieved)


def answer_logits(params, mcfg: ModelConfig, text0: ops.Node, image0: ops.Node,
                  streams: StreamBatch, dctx: DropoutPlan | None = None) -> ops.Node:
    """(B, n_answers) VQA logits of a batch: stream 0 is (text0, image0),
    the retrieved streams and every mask come from `streams`."""
    wl, vl = fuse(params, mcfg, text0, image0, streams.retrieved, dctx,
                  streams.text_masks, streams.stream_mask)
    return vqa_head(params, cls_rows(wl), cls_rows(vl))


def _load_answers(data_dir) -> list[str]:
    path = Path(data_dir) / "answers.txt"
    if not path.exists():
        raise MissingArtifactError(f"no answer vocabulary at {path}")
    return path.read_text(encoding="utf-8").splitlines()


def finetune(checkpoint_dir, index_path, data_dir, r: int, tcfg: TrainConfig,
             out_dir, epochs: int = 10, train_unimodal: bool = False,
             feature_noise: float = 0.0) -> Path:
    """Fine-tune VQA classification with r retrieved pairs per instance.

    Retrieval scores come from the frozen pretraining-time encoders via the
    precomputed index. By default the uni-modal encoders are also frozen as
    feature extractors (their states are cached), which keeps desk-scale
    runs fast; pass train_unimodal=True to update them too. feature_noise
    adds fresh Gaussian noise to the instance's image states every step, a
    cheap augmentation that discourages memorizing individual images.
    Each step builds one graph for its whole batch.
    """
    if r < 0:
        raise ConfigError("r must be non-negative")
    data_dir = Path(data_dir)
    params, mcfg = load_checkpoint(checkpoint_dir)
    index = load_index(index_path)
    verify_fingerprint(index, params, mcfg.d_proj)
    vocab = Vocab.load(data_dir / "vocab.txt")
    answers = _load_answers(data_dir)
    if mcfg.n_answers != len(answers):
        raise ConfigError(
            f"checkpoint expects {mcfg.n_answers} answers, data has {len(answers)}")
    answer_id = {a: i for i, a in enumerate(answers)}
    items = load_vqa_items(data_dir / "vqa_train.jsonl")

    reinit_group(params, "vqa.", _sub_seed(tcfg.seed, "vqa-head"))
    cache = UnimodalCache(params, mcfg, vocab, data_dir)
    # frozen retrieval query vector of every item
    item_cls = np.stack([v[0] for v in cache.item_images(items)])
    item_qvec = project_itc(ops.constant(item_cls), params, "image").value
    if train_unimodal:
        item_tokens = [tokenize(it.question, vocab, mcfg.max_text_len) for it in items]
        item_patches = np.stack([load_tensor(data_dir / it.image_ref).array
                                 for it in items])

    trainable = None if train_unimodal else ("fuse.", "vqa.")
    steps_per_epoch = max(1, len(items) // tcfg.batch_size)
    total_steps = epochs * steps_per_epoch
    opt = AdamW(params, lr=tcfg.lr, weight_decay=tcfg.weight_decay,
                total_steps=total_steps, trainable_prefixes=trainable)
    ema = clone_params(params)
    ema_init = {n: params[n].value.astype(np.float64).copy() for n in opt.names}
    base_plan = DropoutPlan(_sub_seed(tcfg.seed, "ft-dropout"), mcfg.dropout_rate)
    rng = np.random.default_rng(_sub_seed(tcfg.seed, "ft-order"))
    use_rdrop = tcfg.rdrop_alpha > 0.0 and mcfg.dropout_rate > 0.0
    log_lines = []
    step = 0
    for epoch in range(epochs):
        order = rng.permutation(len(items))
        for b0 in range(0, steps_per_epoch * tcfg.batch_size, tcfg.batch_size):
            idx = order[b0 : b0 + tcfg.batch_size]
            batch = [items[int(i)] for i in idx]
            selected: list[list[int]] = [[] for _ in batch]
            if r > 0:
                selected = [
                    [pid for pid, _ in retrieve_by_vector(
                        q, index, r, Mode.TRAIN,
                        seed=_sub_seed(tcfg.seed, "select", step, it.item_id)).selected]
                    for it, q in zip(batch, item_qvec[idx])]
            streams = cache.streams(batch, selected)
            if train_unimodal:
                # live encoder forward so gradients reach the encoders
                text_in = encode_text(params, mcfg, [item_tokens[i] for i in idx])
                image_in = encode_image(params, mcfg, item_patches[idx])
            else:
                text_in = ops.constant(streams.texts[0])
                image_in = ops.constant(streams.images[0])
            if feature_noise > 0.0:
                noise = np.stack([
                    feature_noise * np.random.default_rng(
                        _sub_seed(tcfg.seed, "aug", step, it.item_id)
                    ).normal(size=image_in.value.shape[1:])
                    for it in batch])
                image_in = ops.add(image_in, ops.constant(noise))

            def forward(pass_idx: int) -> ops.Node:
                return answer_logits(params, mcfg, text_in, image_in, streams,
                                     base_plan.at(step, pass_idx))

            targets = [answer_id[it.answer] for it in batch]
            if use_rdrop:
                total = rdrop_loss(forward(0), forward(1), targets, tcfg.rdrop_alpha)
            else:
                total = ops.cross_entropy(forward(0), targets)
            ops.zero_grads(params.values())
            ops.backward(total)
            lr = opt.step()
            # restrict EMA to the optimized subset; frozen tensors must stay
            # bitwise identical so the index fingerprint remains valid
            ema_update({n: ema[n] for n in opt.names},
                       {n: params[n] for n in opt.names}, tcfg.ema_decay)
            log_lines.append(f"{step}\t{float(total.value):.6f}\t{lr:.6g}")
            step += 1

    out_dir = Path(out_dir)
    save_checkpoint(out_dir, params, mcfg, extra={
        "stage": "finetune", "seed": tcfg.seed, "r": r, "epochs": epochs,
        "index_fingerprint": index.fingerprint,
    })
    # Adam-style bias correction: the EMA starts cold at the initial weights,
    # which dominates short runs unless the decay^T leakage is divided out
    leak = tcfg.ema_decay ** max(step, 1)
    if leak < 1.0:
        for n in opt.names:
            corrected = (ema[n].value.astype(np.float64)
                         - leak * ema_init[n]) / (1.0 - leak)
            ema[n].value = corrected.astype(ema[n].value.dtype)
    save_params(ema, out_dir / "weights_ema")
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


# items per evaluation graph; bounds the memory of a pass over a large split
EVAL_BATCH = 64


def _acc(flags: list[bool]) -> float:
    return float(np.mean(flags)) if flags else 0.0


def evaluate(checkpoint_dir, index_path, data_dir, r: int, split: str = "test",
             use_ema: bool = True, out_dir=None, seed: int = 0):
    """Deterministic inference-mode evaluation; returns report and details.
    Items are scored EVAL_BATCH at a time, one graph per batch."""
    data_dir = Path(data_dir)
    use_ema = use_ema and (Path(checkpoint_dir) / "weights_ema").exists()
    params, mcfg = load_checkpoint(checkpoint_dir, "weights_ema" if use_ema else "weights")
    index = load_index(index_path)
    verify_fingerprint(index, params, mcfg.d_proj)
    vocab = Vocab.load(data_dir / "vocab.txt")
    answers = _load_answers(data_dir)
    items = load_vqa_items(data_dir / f"vqa_{split}.jsonl")
    cache = UnimodalCache(params, mcfg, vocab, data_dir)

    details = []
    correct_flags, closed_flags, open_flags, req_flags, notreq_flags = [], [], [], [], []
    for b0 in range(0, len(items), EVAL_BATCH):
        batch = items[b0 : b0 + EVAL_BATCH]
        selected: list[list[tuple[int, float]]] = [[] for _ in batch]
        if r > 0:
            item_cls = np.stack([v[0] for v in cache.item_images(batch)])
            qvecs = project_itc(ops.constant(item_cls), params, "image").value
            selected = [retrieve_by_vector(q, index, r, Mode.INFER).selected
                        for q in qvecs]
        streams = cache.streams(batch, [[pid for pid, _ in sel] for sel in selected])
        logits = answer_logits(params, mcfg, ops.constant(streams.texts[0]),
                               ops.constant(streams.images[0]), streams)
        for it, sel, row in zip(batch, selected, logits.value):
            retrieved = []
            for pid, s in sel:
                retrieved.append({
                    "pair_id": pid,
                    "source": TAG_NAMES[int(index.source_tags[index.row_of(pid)])],
                    "caption": cache.pair_by_id[pid].caption,
                    "s": s,
                })
            pred = answers[int(np.argmax(row))]
            ok = pred == it.answer
            correct_flags.append(ok)
            (closed_flags if it.closed else open_flags).append(ok)
            (req_flags if it.required else notreq_flags).append(ok)
            details.append({
                "item_id": it.item_id, "gold": it.answer, "pred": pred,
                "correct": ok, "closed": it.closed, "required": it.required,
                "retrieved": retrieved,
            })

    report = EvalReport(
        overall=_acc(correct_flags), closed=_acc(closed_flags),
        open=_acc(open_flags), required=_acc(req_flags),
        not_required=_acc(notreq_flags), n_total=len(items),
        n_closed=len(closed_flags), n_open=len(open_flags),
        n_required=len(req_flags), r=r, seed=seed,
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "eval_report.txt").write_text(report.as_text(), encoding="utf-8")
        with open(out_dir / "eval_details.jsonl", "w", encoding="utf-8") as f:
            f.write(json.dumps({"report": report.__dict__}, sort_keys=True) + "\n")
            for d in details:
                f.write(json.dumps(d, sort_keys=True) + "\n")
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
    answer_tokens = _TOKEN_RE.findall(answer.lower())
    caption_tokens = _TOKEN_RE.findall(caption.lower())
    if not answer_tokens:
        return False
    for start in range(len(caption_tokens) - len(answer_tokens) + 1):
        if caption_tokens[start : start + len(answer_tokens)] == answer_tokens:
            return True
    return False


def retrieval_stats(details: list[dict]) -> RetrievalStats:
    source_counts: dict[str, int] = {}
    total_slots = 0
    hits = 0
    n = 0
    for d in details:
        retrieved = d.get("retrieved", [])
        if not retrieved:
            continue
        n += 1
        for slot in retrieved:
            source_counts[slot["source"]] = source_counts.get(slot["source"], 0) + 1
            total_slots += 1
        if any(caption_contains_answer(slot["caption"], d["gold"])
               for slot in retrieved):
            hits += 1
    shares = {src: 100.0 * c / total_slots for src, c in source_counts.items()} \
        if total_slots else {}
    return RetrievalStats(shares, 100.0 * hits / n if n else 0.0, n)


def load_details(path) -> list[dict]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [json.loads(l) for l in lines[1:] if l.strip()]


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
    header = f"# seed={tcfg.seed} epochs={epochs}\nr\toverall\topen\tclosed\trequired\n"
    body = "".join(
        f"{row['r']}\t{row['overall']:.4f}\t{row['open']:.4f}"
        f"\t{row['closed']:.4f}\t{row['required']:.4f}\n"
        for row in rows)
    (out_dir / "sweep_report.txt").write_text(header + body, encoding="utf-8")
    with open(out_dir / "sweep_report.jsonl", "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")
    return rows
