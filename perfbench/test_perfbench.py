"""Checks on the benchmark itself. They start it as a separate process, the
way it is meant to be run, and take a few minutes:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import EXACT_COUNTS, SPAN_TARGETS  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

_RETRIEVAL = {"retrieval.retrieve_by_vector", "retrieval.search_topr",
              "retrieval.merge_candidates", "retrieval.complete_scores",
              "retrieval.select_training", "retrieval.select_inference"}
# spans of the pretrain and build-index stages in finetune-r4's set-up
_PRETRAIN = {
    "ops.backward", "model.encode_text", "model.encode_image", "model.fuse",
    "model.project_itc", "model.itm_head", "model.mlm_head", "model.load_params",
    "model.save_params", "objectives.itc_loss_distilled", "objectives.itm_loss",
    "objectives.mlm_loss", "objectives.pretrain_loss", "objectives.mask_tokens",
    "objectives.ema_update", "objectives.AdamW.step", "store.build_store",
    "store.save_index", "tensor.load_tensor", "synthetic.generate",
    "synthetic.load_corpus", "train.pretrain", "train.build_index_cmd",
}
# spans each workload's traced run must record at least once
EXPECTED_SPANS = {
    "finetune-r4": _PRETRAIN | _RETRIEVAL | {
        "model.retrieval_attention", "model.vqa_head", "store.load_index",
        "store.verify_fingerprint", "store.EmbeddingIndex.row_of",
        "synthetic.load_vqa_items", "train.finetune", "train.evaluate"},
    "retrieval-index": _RETRIEVAL | {
        "store.save_index", "store.load_index", "store.EmbeddingIndex.row_of",
        "store.EmbeddingIndex.caption_of"},
}


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_config_matches_the_code():
    assert {w["name"] for w in CONFIG["workloads"]} == set(EXPECTED_SPANS)
    assert set(SPAN_TARGETS) >= set().union(*EXPECTED_SPANS.values())


def test_untraced_run_reports_every_end_to_end_metric():
    result = _result(_run("retrieval-index", 3, trace=0))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in CONFIG["end_to_end"]]
    for spec in CONFIG["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0


@pytest.mark.parametrize("workload", sorted(EXPECTED_SPANS))
def test_traced_spans_fire_and_counts_repeat(workload):
    results, fired = [], []
    for _ in range(2):
        results.append(_result(_run(workload, 5, trace=1)))
        spans = ROOT / ".perfbench_work" / "spans" / f"{workload}-s5.jsonl"
        lines = spans.read_text(encoding="utf-8").splitlines()[1:]
        fired.append({json.loads(line)["name"] for line in lines})
    first, second = results
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in CONFIG["per_layer"]]
    assert not EXPECTED_SPANS[workload] - fired[0]
    assert fired[0] == fired[1]
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("retrieval-index", 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
