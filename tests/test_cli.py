"""End-to-end CLI tests over a miniature pipeline."""

import json

import numpy as np
import pytest

from ramm.cli import (
    EXIT_BAD_R, EXIT_CONFIG, EXIT_ERROR, EXIT_FINGERPRINT, EXIT_FORMAT,
    EXIT_MISSING, EXIT_OK, main,
)
from ramm.tensor import Tensor, save_tensor

MODEL_FLAGS = ["--d", "16", "--n-head", "2", "--l-fuse", "1", "--l-text", "1",
               "--l-image", "1", "--d-proj", "8", "--d-ff", "32",
               "--max-text-len", "12", "--dropout", "0.0"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-synth -> pretrain -> build-index -> finetune, all tiny."""
    root = tmp_path_factory.mktemp("cli")
    data, ckpt, index = root / "data", root / "ckpt", root / "index.idx"
    assert main(["gen-synth", "--out", str(data), "--n-train", "16",
                 "--n-test", "8", "--pairs-per-cluster", "2",
                 "--seed", "0"]) == EXIT_OK
    assert main(["pretrain", "--data", str(data), "--out", str(ckpt),
                 "--steps", "4", "--batch-size", "4", "--seed", "0",
                 *MODEL_FLAGS]) == EXIT_OK
    assert main(["build-index", "--checkpoint", str(ckpt), "--data",
                 str(data), "--out", str(index)]) == EXIT_OK
    ft = root / "ft"
    assert main(["finetune", "--checkpoint", str(ckpt), "--index", str(index),
                 "--data", str(data), "--r", "2", "--out", str(ft),
                 "--epochs", "1", "--batch-size", "4", "--seed", "0"]) == EXIT_OK
    return {"root": root, "data": data, "ckpt": ckpt, "index": index, "ft": ft}


def test_eval_writes_report(pipeline, capsys):
    out = pipeline["root"] / "eval"
    assert main(["eval", "--checkpoint", str(pipeline["ft"]), "--index",
                 str(pipeline["index"]), "--data", str(pipeline["data"]),
                 "--r", "2", "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "overall" in text and "retrieval-required" in text
    assert (out / "eval_report.txt").exists()
    lines = (out / "eval_details.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["report"]["r"] == 2
    assert all("pred" in json.loads(l) for l in lines[1:])


def test_retrieve_tsv_format(pipeline, capsys):
    query = sorted((pipeline["data"] / "vqa_images").glob("test_*.ten"))[0]
    assert main(["retrieve", "--index", str(pipeline["index"]),
                 "--query-tensor", str(query), "--r", "3", "--mode", "infer",
                 "--checkpoint", str(pipeline["ckpt"])]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for rank, line in enumerate(lines, 1):
        cols = line.split("\t")
        assert len(cols) == 6
        assert int(cols[0]) == rank
        int(cols[1])  # pair_id
        s_w, s_v, s = map(float, cols[2:5])
        assert s == pytest.approx(max(s_w, s_v))


def test_retrieve_accepts_projected_vector(pipeline, tmp_path, capsys):
    vec = np.random.default_rng(0).normal(size=8)
    vec /= np.linalg.norm(vec)
    save_tensor(Tensor(vec.astype(np.float32)), tmp_path / "q.ten")
    assert main(["retrieve", "--index", str(pipeline["index"]),
                 "--query-tensor", str(tmp_path / "q.ten"), "--r", "2",
                 "--mode", "infer"]) == EXIT_OK
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


def test_stats_subcommand(pipeline, capsys):
    out = pipeline["root"] / "eval_stats"
    main(["eval", "--checkpoint", str(pipeline["ft"]), "--index",
          str(pipeline["index"]), "--data", str(pipeline["data"]),
          "--r", "2", "--out", str(out)])
    capsys.readouterr()
    assert main(["stats", "--details", str(out / "eval_details.jsonl")]) == EXIT_OK
    text = capsys.readouterr().out
    assert "items evaluated" in text and "have-answer" in text


def test_exit_missing_artifact(pipeline):
    assert main(["eval", "--checkpoint", "/nonexistent", "--index",
                 str(pipeline["index"]), "--data", str(pipeline["data"]),
                 "--r", "2"]) == EXIT_MISSING


def test_exit_bad_r(pipeline):
    assert main(["eval", "--checkpoint", str(pipeline["ft"]), "--index",
                 str(pipeline["index"]), "--data", str(pipeline["data"]),
                 "--r", "-1"]) == EXIT_BAD_R


def test_exit_fingerprint(pipeline, tmp_path):
    other = tmp_path / "ckpt2"
    assert main(["pretrain", "--data", str(pipeline["data"]), "--out",
                 str(other), "--steps", "2", "--batch-size", "4",
                 "--seed", "9", *MODEL_FLAGS]) == EXIT_OK
    assert main(["build-index", "--checkpoint", str(other), "--data",
                 str(pipeline["data"]), "--out", str(tmp_path / "i2.idx")]) == EXIT_OK
    assert main(["eval", "--checkpoint", str(pipeline["ft"]), "--index",
                 str(tmp_path / "i2.idx"), "--data", str(pipeline["data"]),
                 "--r", "2"]) == EXIT_FINGERPRINT


def test_exit_format_error(pipeline, tmp_path):
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    assert main(["retrieve", "--index", str(bad), "--query-tensor",
                 str(tmp_path / "q.ten"), "--r", "1",
                 "--mode", "infer"]) == EXIT_FORMAT


def test_exit_config_error(pipeline):
    assert main(["pretrain", "--data", str(pipeline["data"]), "--out",
                 "/tmp/never", "--steps", "2", "--d", "10", "--n-head", "4",
                 "--seed", "0"]) == EXIT_CONFIG


@pytest.mark.parametrize("content, message", [
    (None, "--config needs a file path"),          # flag given last, no path
    ("missing", "cannot read config file"),
    ("r = 2\nno equals sign\n", "without '='"),
    ("r = two\n", "config value r"),
])
def test_exit_config_file_errors(tmp_path, capsys, content, message):
    argv = ["eval", "--config"]
    if content is not None:
        cfg = tmp_path / "ramm.cfg"
        if content != "missing":
            cfg.write_text(content)
        argv.append(str(cfg))
    assert main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_exit_unmapped_error_is_a_message(pipeline, tmp_path, capsys):
    # patches whose width does not fit the checkpoint raise ShapeError,
    # which has no exit code of its own
    save_tensor(Tensor(np.ones((4, 5), dtype=np.float32)), tmp_path / "p.ten")
    assert main(["retrieve", "--index", str(pipeline["index"]), "--query-tensor",
                 str(tmp_path / "p.ten"), "--r", "2", "--mode", "infer",
                 "--checkpoint", str(pipeline["ckpt"])]) == EXIT_ERROR
    assert "patch dim" in capsys.readouterr().err


def test_config_file_defaults(pipeline, tmp_path, capsys):
    cfg = tmp_path / "ramm.cfg"
    cfg.write_text("# comment\nr = 2\nmode = infer\n")
    query = sorted((pipeline["data"] / "vqa_images").glob("test_*.ten"))[0]
    assert main(["--config", str(cfg), "retrieve", "--index",
                 str(pipeline["index"]), "--query-tensor", str(query),
                 "--checkpoint", str(pipeline["ckpt"])]) == EXIT_OK
    assert len(capsys.readouterr().out.strip().splitlines()) == 2
