"""Traced run: spans around the public functions of each `ramm` module.

Wrappers are installed from outside, in every module namespace that holds a
reference to the wrapped function (``train.py`` binds ``fuse``, ``store.py``
binds ``encode_text`` and so on at import time), plus the methods
``AdamW.step``, ``EmbeddingIndex.row_of`` and ``EmbeddingIndex.caption_of``
on their classes. ``ops.Node.__init__`` is wrapped to count graph nodes.

A span is (name, start, end, parent, run id). Spans are kept in memory and
written out once, when the run ends. A layer's self time is the duration of
its spans minus the part covered by their direct child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (module, attribute); "Class.method" names wrap a method
SPAN_TARGETS = {
    "ops.backward": ("ramm.ops", "backward"),
    "model.encode_text": ("ramm.model", "encode_text"),
    "model.encode_image": ("ramm.model", "encode_image"),
    "model.fuse": ("ramm.model", "fuse"),
    "model.retrieval_attention": ("ramm.model", "retrieval_attention"),
    "model.project_itc": ("ramm.model", "project_itc"),
    "model.vqa_head": ("ramm.model", "vqa_head"),
    "model.itm_head": ("ramm.model", "itm_head"),
    "model.mlm_head": ("ramm.model", "mlm_head"),
    "model.load_params": ("ramm.model", "load_params"),
    "model.save_params": ("ramm.model", "save_params"),
    "objectives.itc_loss": ("ramm.objectives", "itc_loss"),
    "objectives.itc_loss_distilled": ("ramm.objectives", "itc_loss_distilled"),
    "objectives.itm_loss": ("ramm.objectives", "itm_loss"),
    "objectives.mlm_loss": ("ramm.objectives", "mlm_loss"),
    "objectives.pretrain_loss": ("ramm.objectives", "pretrain_loss"),
    "objectives.rdrop_loss": ("ramm.objectives", "rdrop_loss"),
    "objectives.mask_tokens": ("ramm.objectives", "mask_tokens"),
    "objectives.ema_update": ("ramm.objectives", "ema_update"),
    "objectives.AdamW.step": ("ramm.objectives", "AdamW.step"),
    "retrieval.retrieve_by_vector": ("ramm.retrieval", "retrieve_by_vector"),
    "retrieval.search_topr": ("ramm.retrieval", "search_topr"),
    "retrieval.merge_candidates": ("ramm.retrieval", "merge_candidates"),
    "retrieval.complete_scores": ("ramm.retrieval", "complete_scores"),
    "retrieval.select_training": ("ramm.retrieval", "select_training"),
    "retrieval.select_inference": ("ramm.retrieval", "select_inference"),
    "store.build_store": ("ramm.store", "build_store"),
    "store.save_index": ("ramm.store", "save_index"),
    "store.load_index": ("ramm.store", "load_index"),
    "store.verify_fingerprint": ("ramm.store", "verify_fingerprint"),
    "store.EmbeddingIndex.row_of": ("ramm.store", "EmbeddingIndex.row_of"),
    "store.EmbeddingIndex.caption_of": ("ramm.store", "EmbeddingIndex.caption_of"),
    "tensor.load_tensor": ("ramm.tensor", "load_tensor"),
    "synthetic.generate": ("ramm.synthetic", "generate"),
    "synthetic.load_corpus": ("ramm.synthetic", "load_corpus"),
    "synthetic.load_vqa_items": ("ramm.synthetic", "load_vqa_items"),
    "train.pretrain": ("ramm.train", "pretrain"),
    "train.build_index_cmd": ("ramm.train", "build_index_cmd"),
    "train.finetune": ("ramm.train", "finetune"),
    "train.evaluate": ("ramm.train", "evaluate"),
}

# per-layer self-time metric -> the spans it sums
SELF_TIME = {
    "ops.backward_s": ["ops.backward"],
    "model.encode_s": ["model.encode_text", "model.encode_image"],
    "model.fuse_s": ["model.fuse"],
    "model.retrieval_attention_s": ["model.retrieval_attention"],
    "model.head_s": ["model.project_itc", "model.vqa_head", "model.itm_head",
                     "model.mlm_head"],
    "model.params_io_s": ["model.load_params", "model.save_params"],
    "objectives.loss_s": ["objectives.itc_loss", "objectives.itc_loss_distilled",
                          "objectives.itm_loss", "objectives.mlm_loss",
                          "objectives.pretrain_loss", "objectives.rdrop_loss",
                          "objectives.mask_tokens"],
    "objectives.adamw_s": ["objectives.AdamW.step"],
    "objectives.ema_s": ["objectives.ema_update"],
    "retrieval.search_s": ["retrieval.search_topr"],
    "retrieval.merge_s": ["retrieval.merge_candidates", "retrieval.complete_scores"],
    "retrieval.select_s": ["retrieval.select_training", "retrieval.select_inference"],
    "store.load_index_s": ["store.load_index"],
    "store.save_index_s": ["store.save_index"],
    "store.build_store_s": ["store.build_store"],
    "store.verify_fingerprint_s": ["store.verify_fingerprint"],
    "store.row_of_s": ["store.EmbeddingIndex.row_of"],
    "store.caption_of_s": ["store.EmbeddingIndex.caption_of"],
    "tensor.load_tensor_s": ["tensor.load_tensor"],
    "synthetic.generate_s": ["synthetic.generate"],
    "synthetic.load_corpus_s": ["synthetic.load_corpus", "synthetic.load_vqa_items"],
    "train.self_s": ["train.pretrain", "train.build_index_cmd", "train.finetune",
                     "train.evaluate"],
}

# per-layer count metric -> the span whose calls it counts
CALL_COUNTS = {
    "model.fuse_calls": "model.fuse",
    "store.row_of_calls": "store.EmbeddingIndex.row_of",
    "tensor.load_tensor_calls": "tensor.load_tensor",
    "retrieval.queries": "retrieval.retrieve_by_vector",
}

TRAIN_STAGES = ("train.pretrain", "train.finetune")

# counts that must repeat exactly across two traced runs with one seed
EXACT_COUNTS = ("ops.nodes_per_step", "model.fuse_calls", "tensor.load_tensor_calls",
                "store.row_of_calls", "retrieval.queries", "retrieval.pool_per_query",
                "retrieval.selected_per_pool", "retrieval.flagged", "trace.spans")


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans while `run_id` is set; wrappers are no-ops otherwise."""

    def __init__(self):
        self.spans: list = []          # [name, start, end, parent, run_id]
        self.stack: list[int] = []
        self.run_id: str | None = None
        self.nodes = 0
        self.nodes_at_mark = 0
        self.step_nodes: list[int] = []
        self.pools: list[int] = []
        self.selected = 0
        self.flagged = 0
        self.pool_violations = 0

    # -- installation ------------------------------------------------------

    def install(self, *callers) -> None:
        """Wrap every target in the ramm modules and in `callers`, the
        benchmark's own modules that bound names at import."""
        namespaces = [module for name, module in sys.modules.items()
                      if name == "ramm" or name.startswith("ramm.")]
        namespaces += callers
        for span_name, (module_name, attr) in SPAN_TARGETS.items():
            owner, name = _resolve(module_name, attr)
            original = getattr(owner, name)
            wrapper = self._wrap(span_name, original)
            if isinstance(owner, type):
                setattr(owner, name, wrapper)
                continue
            for module in namespaces:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        node_cls = sys.modules["ramm.ops"].Node
        node_init = node_cls.__init__
        tracer = self

        @functools.wraps(node_init)
        def counting_init(node, *args, **kwargs):
            if tracer.run_id is not None:
                tracer.nodes += 1
            node_init(node, *args, **kwargs)

        node_cls.__init__ = counting_init

    def _wrap(self, span_name: str, fn):
        tracer = self
        before = {name: tracer._mark_nodes for name in TRAIN_STAGES}.get(span_name)
        after = {
            "objectives.AdamW.step": tracer._count_step,
            "retrieval.retrieve_by_vector": tracer._count_query,
        }.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.run_id is None:
                return fn(*args, **kwargs)
            if before:
                before(args, kwargs)
            span_id = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            record = [span_name, 0.0, 0.0, parent, tracer.run_id]
            tracer.spans.append(record)
            tracer.stack.append(span_id)
            record[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer.stack.pop()
            if after:
                after(out, args, kwargs)
            return out

        return wrapper

    # -- counters ----------------------------------------------------------

    def _mark_nodes(self, args, kwargs) -> None:
        self.nodes_at_mark = self.nodes

    def _count_step(self, out, args, kwargs) -> None:
        # only steps of the timed round: set-up may train a different model
        if self.run_id == "round":
            self.step_nodes.append(self.nodes - self.nodes_at_mark)
        self.nodes_at_mark = self.nodes

    def _count_query(self, result, args, kwargs) -> None:
        r = kwargs["r"] if "r" in kwargs else args[2]
        index = kwargs["index"] if "index" in kwargs else args[1]
        if r == 0:
            return
        self.pools.append(result.candidate_pool_size)
        self.selected += len(result.selected)
        self.flagged += int(result.flagged)
        if len(index) >= r and not r <= result.candidate_pool_size <= 2 * r:
            self.pool_violations += 1

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out

    def fired(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def metrics(self, overhead_share: float) -> dict[str, float]:
        self_s = self.self_times()
        fired = self.fired()
        values = {metric: sum(self_s.get(s, 0.0) for s in spans)
                  for metric, spans in SELF_TIME.items()}
        values.update({metric: fired[span] for metric, span in CALL_COUNTS.items()})
        values["ops.nodes_per_step"] = (
            statistics.median(self.step_nodes) if self.step_nodes else 0)
        values["retrieval.pool_per_query"] = (
            sum(self.pools) / len(self.pools) if self.pools else 0)
        values["retrieval.selected_per_pool"] = (
            self.selected / sum(self.pools) if self.pools else 0)
        values["retrieval.flagged"] = self.flagged
        values["trace.spans"] = len(self.spans)
        values["trace.overhead_share"] = overhead_share
        return values

    def write(self, path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"header": header}, sort_keys=True) + "\n")
            for span_id, (name, start, end, parent, run_id) in enumerate(self.spans):
                f.write(json.dumps({"id": span_id, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "run_id": run_id}) + "\n")
