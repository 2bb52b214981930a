"""End-to-end CLI tests over a miniature pipeline."""

import json
import warnings
from collections import Counter
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from ramm.cli import (
    EXIT_BAD_R, EXIT_CONFIG, EXIT_ERROR, EXIT_FINGERPRINT, EXIT_FORMAT,
    EXIT_MISSING, EXIT_OK, _config_defaults, build_parser, main,
)
from ramm.errors import ConfigError
from ramm.model import ModelConfig, Vocab
from ramm.objectives import TrainConfig
from ramm.synthetic import SyntheticSpec
from ramm.tensor import Tensor, load_tensor, save_tensor

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


def test_retrieve_prints_pool_components(pipeline, tmp_path, capsys):
    """The s_w and s_v columns are each pair's exact similarities to the
    query, as the retrieval pool scored them, and the caption is the pair's."""
    from ramm.store import load_index

    vec = np.random.default_rng(3).normal(size=8)
    vec /= np.linalg.norm(vec)
    save_tensor(Tensor(vec.astype(np.float32)), tmp_path / "q.ten")
    assert main(["retrieve", "--index", str(pipeline["index"]),
                 "--query-tensor", str(tmp_path / "q.ten"), "--r", "3",
                 "--mode", "train", "--seed", "4"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    index = load_index(pipeline["index"])
    q = vec.astype(np.float32).astype(np.float64)
    for line in lines:
        _, pid, s_w, s_v, s, caption = line.split("\t")
        row = index.row_of(int(pid))
        assert float(s_w) == pytest.approx(index.text_vecs[row].astype(np.float64) @ q, abs=1e-6)
        assert float(s_v) == pytest.approx(index.image_vecs[row].astype(np.float64) @ q, abs=1e-6)
        assert float(s) == max(float(s_w), float(s_v))
        assert caption == index.captions[row]


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


def test_exit_config_file_unknown_key(pipeline, tmp_path, capsys):
    """A key that names no flag is refused, not dropped; a key that names a
    flag of another subcommand is still accepted."""
    cfg = tmp_path / "ramm.cfg"
    query = sorted((pipeline["data"] / "vqa_images").glob("test_*.ten"))[0]
    argv = ["--config", str(cfg), "retrieve", "--index", str(pipeline["index"]),
            "--query-tensor", str(query), "--r", "3",
            "--checkpoint", str(pipeline["ckpt"])]
    cfg.write_text("rr = 2\nmode = infer\n")
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config key names no flag: rr" in captured.err and captured.out == ""
    cfg.write_text("epochs = 2\nmode = infer\n")
    assert main(argv) == EXIT_OK
    assert len(capsys.readouterr().out.strip().splitlines()) == 3


def test_exit_diverged_finetune(pipeline, tmp_path, capsys):
    """A step size that overflows the weights stops fine-tuning at the first
    non-finite gradient, with a message and no saved weights."""
    out = tmp_path / "ft"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["finetune", "--checkpoint", str(pipeline["ckpt"]), "--index",
                     str(pipeline["index"]), "--data", str(pipeline["data"]), "--r", "2",
                     "--out", str(out), "--epochs", "2", "--batch-size", "4",
                     "--seed", "0", "--lr", "1e30"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite gradient at optimizer step ")
    assert "fuse." in err and "Traceback" not in err
    assert out.is_dir() and not (out / "weights.ten").exists()
    assert not (out / "weights_ema.ten").exists()


def test_eval_answer_vocabulary_mismatch(pipeline, tmp_path, capsys):
    """A checkpoint sized for more answers than answers.txt holds is a
    configuration error in evaluate, as in finetune."""
    import shutil

    from ramm.errors import ConfigError
    from ramm.train import evaluate

    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    answers = (data / "answers.txt").read_text().splitlines()
    (data / "answers.txt").write_text("\n".join(answers[:-1]) + "\n")
    with pytest.raises(ConfigError, match="answers"):
        evaluate(pipeline["ft"], pipeline["index"], data, 2)
    assert main(["eval", "--checkpoint", str(pipeline["ft"]), "--index",
                 str(pipeline["index"]), "--data", str(data),
                 "--r", "2"]) == EXIT_CONFIG
    assert "answers" in capsys.readouterr().err


def test_build_index_reports_skipped_pairs(pipeline, tmp_path, capsys):
    """A corpus image that cannot be read is skipped, and build-index says
    which pair it skipped."""
    import shutil

    from ramm.store import load_index

    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    pairs = [json.loads(l) for l in (data / "corpus" / "pairs.jsonl").read_text().splitlines()]
    gone = pairs[1]
    (data / "corpus" / gone["image_ref"]).unlink()
    out = tmp_path / "i.idx"
    assert main(["build-index", "--checkpoint", str(pipeline["ckpt"]), "--data",
                 str(data), "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert f"{len(pairs) - 1} pairs encoded, 1 skipped" in text
    assert f"skipped (image unreadable): {gone['pair_id']}\n" in text
    assert len(load_index(out)) == len(pairs) - 1


def test_retrieve_rejects_query_with_extra_patch(pipeline, tmp_path, capsys):
    query = sorted((pipeline["data"] / "vqa_images").glob("test_*.ten"))[0]
    from ramm.tensor import load_tensor

    patches = load_tensor(query).array
    extra = np.concatenate([patches, patches[:1]])
    save_tensor(Tensor(extra), tmp_path / "q.ten")
    assert main(["retrieve", "--index", str(pipeline["index"]), "--query-tensor",
                 str(tmp_path / "q.ten"), "--r", "2", "--mode", "infer",
                 "--checkpoint", str(pipeline["ckpt"])]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert str(tmp_path / "q.ten") in err
    assert f"need {patches.shape}" in err and str(extra.shape) in err


@pytest.mark.parametrize("stage", ["pretrain", "finetune"])
def test_diverged_run_prints_one_line(pipeline, tmp_path, capsys, stage):
    """A diverging run ends in its one error line, with no numpy warning
    ahead of it, though the caller leaves floating-point errors at numpy's
    defaults."""
    data = str(pipeline["data"])
    argv = {
        "pretrain": ["pretrain", "--data", data, "--steps", "4", *MODEL_FLAGS],
        "finetune": ["finetune", "--checkpoint", str(pipeline["ckpt"]), "--index",
                     str(pipeline["index"]), "--data", data, "--r", "2", "--epochs", "2"],
    }[stage]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--out", str(tmp_path / "out"), "--batch-size", "4",
                     "--seed", "0", "--lr", "1e30"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite ") and err.count("\n") == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_retrieve_refuses_nonfinite_index(pipeline, tmp_path, capsys):
    from ramm.store import load_index, save_index

    index = load_index(pipeline["index"])
    vecs = index.image_vecs.copy()
    vecs[2, 0] = np.nan
    index = replace(index, image_vecs=vecs)
    save_index(index, tmp_path / "nan.idx")
    save_tensor(Tensor(vecs[0]), tmp_path / "q.ten")
    assert main(["retrieve", "--index", str(tmp_path / "nan.idx"), "--query-tensor",
                 str(tmp_path / "q.ten"), "--r", "2", "--mode", "infer"]) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert f"pair_id {int(index.pair_ids[2])} has a non-finite image vector" in err


def test_gen_synth_defaults_are_the_spec_defaults(tmp_path):
    out = tmp_path / "data"
    assert main(["gen-synth", "--out", str(out), "--n-train", "8", "--n-test", "4",
                 "--pairs-per-cluster", "1"]) == EXIT_OK
    spec = json.loads((out / "meta.json").read_text())["spec"]
    assert spec == {**asdict(SyntheticSpec()), "n_train": 8, "n_test": 4,
                    "pairs_per_cluster": 1}


def test_pretrain_defaults_are_the_model_config_defaults(pipeline, tmp_path):
    data, out = pipeline["data"], tmp_path / "ckpt"
    assert main(["pretrain", "--data", str(data), "--out", str(out),
                 "--steps", "1"]) == EXIT_OK
    answers = (data / "answers.txt").read_text().splitlines()
    mcfg = ModelConfig(vocab_size=len(Vocab.load(data / "vocab.txt")),
                       n_answers=len(answers))
    assert (out / "config.json").read_text() == mcfg.to_json()


_REQUIRED_FLAGS = {
    "gen-synth": ["--out", "o"],
    "harvest": ["--in", "i", "--out", "o"],
    "pretrain": ["--data", "d", "--out", "o"],
    "build-index": ["--checkpoint", "c", "--data", "d", "--out", "o"],
    "finetune": ["--checkpoint", "c", "--index", "i", "--data", "d", "--out", "o"],
    "eval": ["--checkpoint", "c", "--index", "i", "--data", "d"],
    "retrieve": ["--index", "i", "--query-tensor", "q", "--r", "1", "--mode", "infer"],
    "stats": ["--details", "d"],
    "sweep-r": ["--checkpoint", "c", "--index", "i", "--data", "d", "--out", "o"],
}


# the TrainConfig fields each training stage reads
_PRETRAIN = {"seed", "batch_size", "lr", "itc_temperature", "momentum", "mask_rate",
             "distill_weight", "weight_decay"}
_FINETUNE = {"seed", "batch_size", "lr", "ema_decay", "rdrop_alpha", "weight_decay"}
_STAGE_FIELDS = {"pretrain": _PRETRAIN, "finetune": _FINETUNE, "sweep-r": _FINETUNE}


@pytest.mark.parametrize("command", sorted(_REQUIRED_FLAGS))
def test_train_flags_default_to_train_config(command):
    """Every TrainConfig field a subcommand parses defaults to the field's
    default; each training subcommand parses exactly the fields its stage
    reads."""
    args = build_parser().parse_args([command, *_REQUIRED_FLAGS[command]])
    names = [f.name for f in fields(TrainConfig) if hasattr(args, f.name)]
    assert {n: getattr(args, n) for n in names} == {
        n: getattr(TrainConfig(), n) for n in names}
    if command in _STAGE_FIELDS:
        assert set(names) == _STAGE_FIELDS[command]
    else:
        assert set(names) <= {"seed"}


_OTHER_STAGE_FLAGS = [
    (command, name) for command, own in _STAGE_FIELDS.items()
    for name in sorted((_PRETRAIN | _FINETUNE) - own)]


@pytest.mark.parametrize("command, name", _OTHER_STAGE_FLAGS)
def test_other_stage_train_flags_are_refused(tmp_path, capsys, command, name):
    """A TrainConfig flag that only the other stage reads exits 2 as an
    unrecognized argument; its config-file key still parses, since it names
    a flag of another subcommand."""
    argv = [command, *_REQUIRED_FLAGS[command]]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*argv, "--" + name.replace("_", "-"), "0.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    cfg = tmp_path / "ramm.cfg"
    cfg.write_text(f"{name} = 0.5\n")
    argv = ["--config", str(cfg), *argv]
    assert not hasattr(build_parser(_config_defaults(argv)).parse_args(argv), name)


def test_dropout_is_the_flag_and_key_of_dropout_rate():
    """The one flag named apart from its field: --dropout, config key
    dropout, sets ModelConfig.dropout_rate, and dropout_rate is no key."""
    argv = ["pretrain", *_REQUIRED_FLAGS["pretrain"]]
    assert build_parser({"dropout": "0.25"}).parse_args(argv).dropout == 0.25
    with pytest.raises(ConfigError, match="config key names no flag: dropout_rate"):
        build_parser({"dropout_rate": "0.25"})


@pytest.mark.parametrize("flag, value", [("--epoch", "3"), ("--feat", "0.5")])
def test_subcommand_flags_are_not_abbreviated(flag, value):
    """A prefix of a subcommand flag is refused, as at the top level, so a
    new flag cannot silently change what an abbreviation means."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["finetune", *_REQUIRED_FLAGS["finetune"], flag, value])
    assert exc.value.code == 2


def test_finetune_has_one_training_path(tmp_path, capsys):
    """Fine-tuning always keeps the encoders frozen: --train-unimodal is no
    flag and train_unimodal no config key."""
    argv = ["finetune", *_REQUIRED_FLAGS["finetune"]]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*argv, "--train-unimodal"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --train-unimodal" in capsys.readouterr().err
    cfg = tmp_path / "ramm.cfg"
    cfg.write_text("train_unimodal = true\n")
    assert main(["--config", str(cfg), *argv]) == EXIT_CONFIG
    assert "config key names no flag: train_unimodal" in capsys.readouterr().err


def test_finetune_leaves_frozen_tensors_alone(pipeline):
    """Every tensor outside the fusion stack and the VQA head, in the
    weights and in their EMA, keeps the pretrain checkpoint's bits; the
    trained ones moved."""
    from ramm.model import load_params

    shapes = _checkpoint_shapes(pipeline["ckpt"])
    pretrained = load_params(pipeline["ckpt"] / "weights.ten", shapes)
    trained = [n for n in shapes if n.startswith(("fuse.", "vqa."))]
    assert trained and len(trained) < len(shapes)
    for weights in ("weights.ten", "weights_ema.ten"):
        tuned = load_params(pipeline["ft"] / weights, shapes)
        for name in shapes:
            same = tuned[name].value.tobytes() == pretrained[name].value.tobytes()
            assert same == (name not in trained), (weights, name)


def test_retrieve_zero_query_is_an_error(pipeline, tmp_path, capsys):
    save_tensor(Tensor(np.zeros(8, dtype=np.float32)), tmp_path / "q.ten")
    assert main(["retrieve", "--index", str(pipeline["index"]), "--query-tensor",
                 str(tmp_path / "q.ten"), "--r", "2", "--mode", "infer"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == "error: query vector is zero\n" and captured.out == ""


@pytest.mark.parametrize("command,r", [("eval", "2"), ("finetune", "4")])
def test_index_pair_missing_from_corpus(pipeline, tmp_path, capsys, command, r):
    """An index pair that the corpus no longer holds is a missing artifact
    naming the pair and the corpus file, found before any training."""
    import re
    import shutil

    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    corpus = data / "corpus" / "pairs.jsonl"
    lines = corpus.read_text().splitlines()
    dropped = {json.loads(l)["pair_id"] for l in lines[::3]}
    corpus.write_text("\n".join(lines[1::3] + lines[2::3]) + "\n")
    out = tmp_path / "out"
    args = [command, "--checkpoint", str(pipeline["ft" if command == "eval" else "ckpt"]),
            "--index", str(pipeline["index"]), "--data", str(data), "--r", r,
            "--out", str(out)]
    if command == "finetune":
        args += ["--epochs", "1", "--batch-size", "4"]
    assert main(args) == EXIT_MISSING
    err = capsys.readouterr().err
    assert str(corpus) in err
    assert int(re.search(r"pair_id (\d+)", err).group(1)) in dropped
    assert not out.exists()


@pytest.mark.parametrize("stage, flags, message", [
    ("finetune", ["--batch-size", "0"], "batch_size"),
    ("finetune", ["--batch-size", "-2"], "batch_size"),
    ("pretrain", ["--batch-size", "0"], "batch_size"),
    ("finetune", ["--epochs", "-1"], "epochs"),
    ("finetune", ["--epochs", "0"], "epochs"),
    ("pretrain", ["--steps", "-3"], "steps"),
    ("pretrain", ["--steps", "0"], "steps"),
    ("finetune", ["--feature-noise", "-1"], "feature_noise"),
    ("finetune", ["--feature-noise", "nan"], "feature_noise"),
    ("finetune", ["--feature-noise", "inf"], "feature_noise"),
    ("finetune", ["--lr", "nan"], "lr"),
    ("pretrain", ["--lr", "inf"], "lr"),
    ("finetune", ["--lr", "-0.001"], "lr"),
    ("finetune", ["--weight-decay", "nan"], "weight_decay"),
    ("pretrain", ["--weight-decay", "-0.01"], "weight_decay"),
])
def test_settings_that_cannot_train_exit_config(pipeline, tmp_path, capsys, stage, flags,
                                               message):
    """A setting that cannot train is a config error (exit 6) before any
    work: one line, no traceback, no checkpoint."""
    data = str(pipeline["data"])
    argv = {
        "pretrain": ["pretrain", "--data", data, "--steps", "2", *MODEL_FLAGS],
        "finetune": ["finetune", "--checkpoint", str(pipeline["ckpt"]), "--index",
                     str(pipeline["index"]), "--data", data, "--r", "2", "--epochs", "1"],
    }[stage]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out), "--batch-size", "4", "--seed", "0",
                 *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


_NEGATIVE_SEED = "seed must be non-negative, got -1"


@pytest.mark.parametrize("command, flags, message", [
    *((command, ["--seed", "-1"], _NEGATIVE_SEED)
      for command in ("gen-synth", "pretrain", "retrieve", "finetune", "eval", "sweep-r")),
    ("pretrain", "seed = -1", _NEGATIVE_SEED),
    ("finetune", ["--rdrop-alpha", "nan"], "rdrop_alpha"),
    ("finetune", ["--rdrop-alpha", "-3"], "rdrop_alpha"),
    ("gen-synth", ["--n-clusters", "0"], "n_clusters = 0 is not an integer >= 1"),
    ("gen-synth", ["--n-train", "-3"], "n_train = -3 is not an integer >= 1"),
    ("gen-synth", ["--pairs-per-cluster", "-1"], "pairs_per_cluster = -1 is not an integer >= 0"),
])
def test_out_of_range_flags_exit_config(pipeline, tmp_path, capsys, command, flags, message):
    """A negative seed, an R-Drop weight that is not finite and non-negative,
    or a synthetic count below its least value is a config error (exit 6)
    with one stderr line, before anything is written."""
    data, index, out = str(pipeline["data"]), str(pipeline["index"]), tmp_path / "out"
    query = sorted((pipeline["data"] / "vqa_images").glob("test_*.ten"))[0]
    common = ["--checkpoint", str(pipeline["ckpt"]), "--index", index, "--data", data]
    argv = {
        "gen-synth": ["--out", str(out)],
        "pretrain": ["--data", data, "--out", str(out), "--steps", "2", *MODEL_FLAGS],
        "retrieve": ["--index", index, "--query-tensor", str(query), "--r", "2",
                     "--mode", "train"],
        "finetune": [*common, "--r", "2", "--epochs", "1", "--out", str(out)],
        "eval": [*common, "--r", "2", "--out", str(out)],
        "sweep-r": [*common, "--rs", "0", "--epochs", "1", "--out", str(out)],
    }[command]
    pre = []
    if isinstance(flags, str):   # a config-file line instead of flags
        (tmp_path / "ramm.cfg").write_text(flags + "\n")
        pre, flags = ["--config", str(tmp_path / "ramm.cfg")], []
    assert main([*pre, command, *argv, *flags]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and message in captured.err
    assert captured.err.count("\n") == 1, captured.err
    assert captured.out == "" and not out.exists()


_NESTED_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("target", ["pairs.jsonl", "vqa_test.jsonl", "eval_details.jsonl",
                                    "config.json"])
def test_deeply_nested_json_exits_format(pipeline, tmp_path, capsys, target):
    """A JSON line nested past the parser's recursion limit, as a corpus,
    split, details or checkpoint config line, exits 5 with one stderr line
    naming the file, not with a RecursionError traceback."""
    import shutil

    data, ckpt = tmp_path / "data", tmp_path / "ckpt"
    shutil.copytree(pipeline["data"], data)
    shutil.copytree(pipeline["ft"], ckpt)
    index = str(pipeline["index"])
    path, argv = {
        "pairs.jsonl": (data / "corpus" / "pairs.jsonl",
                        ["build-index", "--checkpoint", str(ckpt), "--data", str(data),
                         "--out", str(tmp_path / "index.idx")]),
        "vqa_test.jsonl": (data / "vqa_test.jsonl",
                           ["eval", "--checkpoint", str(ckpt), "--index", index,
                            "--data", str(data), "--r", "2"]),
        "eval_details.jsonl": (tmp_path / "eval_details.jsonl",
                               ["stats", "--details", str(tmp_path / "eval_details.jsonl")]),
        "config.json": (ckpt / "config.json",
                        ["build-index", "--checkpoint", str(ckpt), "--data", str(data),
                         "--out", str(tmp_path / "index.idx")]),
    }[target]
    path.write_text(_NESTED_JSON + ("" if target == "config.json" else "\n"))
    assert main(argv) == EXIT_FORMAT
    captured = capsys.readouterr()
    line = "" if target == "config.json" else " line 1"
    assert captured.err.startswith(f"format error: {path}{line}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == "" and not (tmp_path / "index.idx").exists()


@pytest.mark.parametrize("command, split", [("finetune", "train"), ("eval", "test")])
def test_empty_split_is_a_missing_artifact(pipeline, tmp_path, capsys, command, split):
    """A split file without items exits 2 and names the file, instead of a
    traceback (finetune) or an all-zero report (eval)."""
    import shutil

    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    (data / f"vqa_{split}.jsonl").write_text("\n")
    checkpoint = pipeline["ckpt" if command == "finetune" else "ft"]
    out = tmp_path / "out"
    assert main([command, "--checkpoint", str(checkpoint), "--index", str(pipeline["index"]),
                 "--data", str(data), "--r", "2", "--out", str(out)]) == EXIT_MISSING
    captured = capsys.readouterr()
    assert captured.err == f"missing artifact: no items in {data / f'vqa_{split}.jsonl'}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("kind", ["inf", "nan"])
def test_eval_checkpoint_with_nonfinite_tensor_exits_format(pipeline, tmp_path, capsys, kind):
    """A weights file whose payload holds an infinity or a NaN (every
    exponent bit of one entry set) is a format error, exit 5, naming it."""
    import shutil

    ckpt = tmp_path / "ft"
    shutil.copytree(pipeline["ft"], ckpt)
    path = ckpt / "weights.ten"
    raw = bytearray(path.read_bytes())
    bits = np.frombuffer(raw, dtype="<u4", offset=10 + 8 * raw[9])   # the float32 payload
    entry = int(bits[-1]) | 0x7F800000
    bits[-1] = entry & ~0x007FFFFF if kind == "inf" else entry | 1
    path.write_bytes(bytes(raw))
    assert main(["eval", "--checkpoint", str(ckpt), "--index", str(pipeline["index"]),
                 "--data", str(pipeline["data"]), "--r", "2", "--no-ema"]) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert err.startswith("format error: ") and str(path) in err and "non-finite" in err


def _count_load_tensor(monkeypatch) -> list:
    """Count the RAMMTEN1 reads of every module that binds load_tensor."""
    import ramm.model
    import ramm.synthetic
    import ramm.tensor
    import ramm.train

    calls = []

    def counting(path, _read=ramm.tensor.load_tensor):
        calls.append(path)
        return _read(path)

    for module in (ramm.model, ramm.synthetic, ramm.tensor, ramm.train):
        monkeypatch.setattr(module, "load_tensor", counting)
    return calls


def test_pretrain_batch_of_one_exits_config_before_reading(pipeline, tmp_path, capsys,
                                                          monkeypatch):
    """ITC and ITM need a second pair in the batch: pretrain refuses
    --batch-size 1 by name (exit 6) before it reads any corpus image."""
    calls = _count_load_tensor(monkeypatch)
    out = tmp_path / "out"
    assert main(["pretrain", "--data", str(pipeline["data"]), "--out", str(out),
                 "--steps", "2", "--batch-size", "1", *MODEL_FLAGS]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "batch_size" in err and err.count("\n") == 1
    assert calls == [] and not out.exists()


def _checkpoint_shapes(ckpt) -> dict:
    from ramm.model import param_shapes

    return param_shapes(ModelConfig(**json.loads((ckpt / "config.json").read_text())))


def _length_error(path, have: int, shapes: dict) -> str:
    """The one stderr line for a weights file of `have` values that is not
    the `shapes` of its config."""
    need = sum(int(np.prod(shape)) for shape in shapes.values())
    return (f"format error: {path}: float32 of shape ({have},), the config needs "
            f"{len(shapes)} float32 tensors of {need} values\n")


def _append_values(path, n: int) -> int:
    """Append n zeros to the float32 vector of a weights file; its new length."""
    flat = np.concatenate([load_tensor(path).array, np.zeros(n, dtype=np.float32)])
    save_tensor(flat, path)
    return flat.size


@pytest.mark.parametrize("command", ["build-index", "finetune", "eval", "retrieve"])
def test_checkpoint_with_key_bias_exits_format(pipeline, tmp_path, capsys, monkeypatch,
                                               command):
    """A weights file that also holds a (d,) key bias for each attention, as
    one written while attention had a key bias did, exits 5 naming the file
    and both lengths; the weights file is the only file of it read."""
    import shutil

    ckpt = tmp_path / "ckpt"
    shutil.copytree(pipeline["ft" if command == "eval" else "ckpt"], ckpt)
    shapes = _checkpoint_shapes(ckpt)
    biases = [n for n in shapes if n.endswith(".bq")]
    assert len(biases) == 8
    have = {path.name: _append_values(path, len(biases) * shapes[biases[0]][0])
            for path in ckpt.glob("weights*.ten")}
    data, index, out = str(pipeline["data"]), str(pipeline["index"]), tmp_path / "out"
    query = sorted((pipeline["data"] / "vqa_images").glob("test_*.ten"))[0]
    argv = {
        "build-index": ["--data", data, "--out", str(out)],
        "finetune": ["--index", index, "--data", data, "--r", "2", "--out", str(out),
                     "--epochs", "1", "--batch-size", "4"],
        "eval": ["--index", index, "--data", data, "--r", "2", "--out", str(out)],
        "retrieve": ["--index", index, "--query-tensor", str(query), "--r", "2",
                     "--mode", "infer"],
    }[command]
    calls = _count_load_tensor(monkeypatch)
    assert main([command, "--checkpoint", str(ckpt), *argv]) == EXIT_FORMAT
    weights = ckpt / ("weights_ema.ten" if command == "eval" else "weights.ten")
    assert capsys.readouterr().err == _length_error(weights, have[weights.name], shapes)
    assert [p for p in calls if str(ckpt) in str(p)] == [weights] and not out.exists()


@pytest.mark.parametrize("edit", ["short", "long", "config"])
def test_checkpoint_tensors_not_the_config_exit_format(pipeline, tmp_path, capsys,
                                                       monkeypatch, edit):
    """A weights file short by one tensor or long by one, or a config.json
    whose d_ff was edited, exits 5 with one line naming the weights file
    and both lengths; that file is the only one read."""
    import shutil

    ckpt = tmp_path / "ckpt"
    shutil.copytree(pipeline["ckpt"], ckpt)
    weights, shapes = ckpt / "weights.ten", _checkpoint_shapes(ckpt)
    if edit == "short":   # without vqa.w2, the last tensor in name order
        assert max(shapes) == "vqa.w2"
        save_tensor(load_tensor(weights).array[: -int(np.prod(shapes["vqa.w2"]))], weights)
    elif edit == "long":   # with a (3,) tensor more
        _append_values(weights, 3)
    else:
        config = json.loads((ckpt / "config.json").read_text())
        (ckpt / "config.json").write_text(json.dumps({**config, "d_ff": config["d_ff"] + 1}))
    calls = _count_load_tensor(monkeypatch)
    out = tmp_path / "index.idx"
    assert main(["build-index", "--checkpoint", str(ckpt), "--data", str(pipeline["data"]),
                 "--out", str(out)]) == EXIT_FORMAT
    assert capsys.readouterr().err == _length_error(
        weights, load_tensor(weights).array.size, _checkpoint_shapes(ckpt))
    assert calls == [weights] and not out.exists()


@pytest.mark.parametrize("content, message", [
    ("{", "Expecting property name"),
    ("unknown key", "unexpected keyword argument 'rr'"),
    ("d a float", "model dimension d = 8.0 is not a positive integer"),
    ("d zero", "model dimension d = 0 is not a positive integer"),
])
def test_checkpoint_config_not_a_model_config_exits_format(pipeline, tmp_path, capsys,
                                                           monkeypatch, content, message):
    """A config.json that is not JSON, holds a key ModelConfig does not
    have, or a dimension that is not a positive integer exits 5 with one
    line naming it, before any tensor is read."""
    import shutil

    ckpt = tmp_path / "ckpt"
    shutil.copytree(pipeline["ckpt"], ckpt)
    edits = {"unknown key": {"rr": 2}, "d a float": {"d": 8.0}, "d zero": {"d": 0}}
    if content in edits:   # the checkpoint's config with these keys set
        content = json.dumps({**json.loads((ckpt / "config.json").read_text()),
                              **edits[content]})
    (ckpt / "config.json").write_text(content)
    calls = _count_load_tensor(monkeypatch)
    out = tmp_path / "index.idx"
    assert main(["build-index", "--checkpoint", str(ckpt), "--data", str(pipeline["data"]),
                 "--out", str(out)]) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert err.startswith(f"format error: {ckpt / 'config.json'}: ") and message in err
    assert err.count("\n") == 1 and calls == [] and not out.exists()



@pytest.mark.parametrize("key, size", [("d_ff", 2**40), ("n_answers", 2**70)])
def test_checkpoint_config_with_huge_dimension_exits_format(pipeline, tmp_path, capsys,
                                                            monkeypatch, key, size):
    """A config.json dimension far past what the weights file holds exits 5
    with one line naming that file, the only one read, before anything the
    config sizes is allocated."""
    import shutil

    ckpt = tmp_path / "ft"
    shutil.copytree(pipeline["ft"], ckpt)
    config = json.loads((ckpt / "config.json").read_text())
    (ckpt / "config.json").write_text(json.dumps({**config, key: size}))
    calls = _count_load_tensor(monkeypatch)
    assert main(["eval", "--checkpoint", str(ckpt), "--index", str(pipeline["index"]),
                 "--data", str(pipeline["data"]), "--r", "2",
                 "--out", str(tmp_path / "eval")]) == EXIT_FORMAT
    err = capsys.readouterr().err
    weights = ckpt / "weights_ema.ten"
    assert err == _length_error(weights, load_tensor(weights).array.size,
                                _checkpoint_shapes(ckpt))
    assert calls == [weights]


def test_caption_edited_after_build_index_exits_fingerprint(pipeline, tmp_path, capsys):
    """An index whose stored caption of a pair is not the corpus caption
    any more is stale: finetune and eval exit 3 naming the pair."""
    import shutil

    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    pairs_path = data / "corpus" / "pairs.jsonl"
    records = [json.loads(line) for line in pairs_path.read_text().splitlines()]
    records[1]["caption"] += " edited"
    pairs_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    common = ["--checkpoint", str(pipeline["ckpt"]), "--index", str(pipeline["index"]),
              "--data", str(data), "--r", "2"]
    for command, extra in (("finetune", ["--epochs", "1", "--batch-size", "4"]),
                           ("eval", [])):
        out = tmp_path / command
        assert main([command, *common, "--out", str(out), *extra]) == EXIT_FINGERPRINT
        err = capsys.readouterr().err
        assert err.startswith(f"fingerprint mismatch: index pair_id {records[1]['pair_id']} ")
        assert "rebuild the index" in err and err.count("\n") == 1
        assert not out.exists()


def test_multiline_corpus_caption_is_not_stale(pipeline, tmp_path):
    """The index keeps a caption up to its first newline, so a fresh index
    of a corpus whose caption spans lines is not refused as stale."""
    import shutil

    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    pairs_path = data / "corpus" / "pairs.jsonl"
    records = [json.loads(line) for line in pairs_path.read_text().splitlines()]
    records[1]["caption"] += "\nsecond line"
    pairs_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    index = tmp_path / "index.idx"
    assert main(["build-index", "--checkpoint", str(pipeline["ckpt"]), "--data", str(data),
                 "--out", str(index)]) == EXIT_OK
    assert main(["eval", "--checkpoint", str(pipeline["ft"]), "--index", str(index),
                 "--data", str(data), "--r", "2", "--out", str(tmp_path / "eval")]) == EXIT_OK

@pytest.mark.parametrize("record, message", [
    ("{not json", "JSONDecodeError"),
    ('{"gold": "a", "retrieved": [{"pair_id": 1, "source": "SYNTH", "s": 0.5}]}',
     "KeyError: 'caption'"),
])
def test_stats_on_malformed_details_exits_format(tmp_path, capsys, record, message):
    """A details record that is not JSON, or a retrieved slot without its
    caption, exits 5 with one line naming the file and the line."""
    details = tmp_path / "eval_details.jsonl"
    good = {"gold": "a", "retrieved": [{"pair_id": 2, "source": "SYNTH", "s": 0.5,
                                        "caption": "a b"}]}
    details.write_text("\n".join([json.dumps({"report": {}}), json.dumps(good), record]) + "\n")
    assert main(["stats", "--details", str(details)]) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert err.startswith(f"format error: {details} line 3: ") and message in err
    assert err.count("\n") == 1


def test_frozen_states_are_encoded_before_any_step_or_scoring(pipeline, tmp_path,
                                                              monkeypatch):
    """finetune calls no encoder after its first AdamW.step, and evaluate
    none once it scores its first batch: every frozen state is encoded
    before."""
    from ramm import objectives, store, train

    calls = []
    late = [False]

    def watched(fn):
        def encode(*args, **kwargs):
            calls.append(late[0])
            return fn(*args, **kwargs)
        return encode

    for module in (train, store):
        for name in ("encode_text", "encode_image"):
            monkeypatch.setattr(module, name, watched(getattr(module, name)))

    def after(fn):
        def call(*args, **kwargs):
            late[0] = True
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(objectives.AdamW, "step", after(objectives.AdamW.step))
    tcfg = TrainConfig(seed=0, batch_size=4)
    train.finetune(pipeline["ckpt"], pipeline["index"], pipeline["data"], 2, tcfg,
                   tmp_path / "ft", epochs=2)
    assert calls and not any(calls)

    calls.clear()
    late[0] = False
    monkeypatch.setattr(train, "answer_logits", after(train.answer_logits))
    monkeypatch.setattr(train, "EVAL_BATCH", 2)
    report, _ = train.evaluate(tmp_path / "ft", pipeline["index"], pipeline["data"], 2)
    assert report.n_total > 2 and calls and not any(calls)


def test_feature_noise_changes_only_slot_0_of_the_image_stack(pipeline, tmp_path,
                                                              monkeypatch):
    """finetune adds its feature noise to stream 0's image states, slot 0 of
    the gathered image stack of every item, and fuses every other array of
    the batch as gathered."""
    import copy

    from ramm import train

    gathered, fused = {}, []

    def gather(*args):
        streams = gather_streams(*args)
        gathered[id(streams)] = (streams, copy.deepcopy(streams))   # kept, so ids stay unique
        return streams

    def logits(params, mcfg, streams, dctx=None):
        fused.append((gathered[id(streams)][1], copy.deepcopy(streams)))
        return answer_logits(params, mcfg, streams, dctx)

    gather_streams, answer_logits = train.gather_streams, train.answer_logits
    monkeypatch.setattr(train, "gather_streams", gather)
    monkeypatch.setattr(train, "answer_logits", logits)
    train.finetune(pipeline["ckpt"], pipeline["index"], pipeline["data"], 2,
                   TrainConfig(seed=0, batch_size=4), tmp_path / "ft", epochs=1,
                   feature_noise=1.0)
    assert fused
    for before, after in fused:
        for name in ("text", "text_mask"):
            assert np.array_equal(getattr(after, name), getattr(before, name)), name
        assert np.array_equal(after.image[:, 1:], before.image[:, 1:])
        noised = after.image[:, 0] != before.image[:, 0]
        assert noised.reshape(len(noised), -1).any(axis=1).all()


def test_stage_tables_do_not_depend_on_pair_order(pipeline, monkeypatch):
    """Stage.encode builds the same state tables, bit for bit, from the same
    pair ids in another order and with repeats, across graph boundaries."""
    from ramm import store
    from ramm.train import Stage

    monkeypatch.setattr(store, "EVAL_BATCH", 3)
    stage = Stage(pipeline["ckpt"], pipeline["index"], pipeline["data"], "train")
    pids = stage.index.pair_ids.tolist()[:9]
    tables = []
    for order in (pids, pids[::-1] + pids[:4]):
        stage.encode(order)
        tables.append((stage.text_rows, stage.image_rows))
    for a, b in zip(*tables):
        assert a.values.dtype == b.values.dtype
        assert np.array_equal(a.values, b.values) and np.array_equal(a.lengths, b.lengths)


def _set_line(path, text):
    """Replace line 2 of a text file, the line every corruption hits."""
    lines = path.read_text().splitlines()
    lines[1] = text
    path.write_text("\n".join(lines) + "\n")


def _edit_record(path, **fields):
    """Update (None: drop) fields of the second record of a JSONL file."""
    record = json.loads(path.read_text().splitlines()[1])
    record.update(fields)
    _set_line(path, json.dumps({k: v for k, v in record.items() if v is not None}))


def _wrong_shape(path):
    save_tensor(Tensor(np.ones((5, 16), dtype=np.float32)), path)


_TRAIN, _TEST, _PAIRS = "vqa_train.jsonl", "vqa_test.jsonl", "corpus/pairs.jsonl"
_NOT_UTF8 = b"[pad]\n\xff\xfe\n"


def _repeat_line(path, number):
    """Insert a copy of line `number` of a text file right after it."""
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:number] + lines[number - 1:]) + "\n")


def _null_caption(path):
    record = json.loads(path.read_text().splitlines()[1])
    _set_line(path, json.dumps({**record, "caption": None}))


# row: (command, corruption of the copied data directory `d` or the test's
# directory `t`, flags it overrides ({t} is `t`), exit code, a fragment of
# the one stderr line)
_CORRUPTIONS = {
    "train line not JSON": ("finetune", lambda d, t: _set_line(d / _TRAIN, "{oops"), {},
                            EXIT_FORMAT, f"{_TRAIN} line 2: JSONDecodeError"),
    "train line without answer": ("finetune", lambda d, t: _edit_record(d / _TRAIN, answer=None),
                                  {}, EXIT_FORMAT, "line 2: TypeError: "),
    "train answer not in answers.txt": (
        "finetune", lambda d, t: _edit_record(d / _TRAIN, answer="zebra"), {},
        EXIT_FORMAT, f"{_TRAIN}: item_id 1 has answer 'zebra'"),
    "train question an int": ("finetune", lambda d, t: _edit_record(d / _TRAIN, question=7), {},
                              EXIT_FORMAT, "line 2: TypeError: question is 7, not str"),
    "train line a list": ("finetune", lambda d, t: _set_line(d / _TRAIN, "[1,2]"), {},
                          EXIT_FORMAT, "line 2: TypeError: a JSON list"),
    "train item_id a string": ("finetune", lambda d, t: _edit_record(d / _TRAIN, item_id="x"),
                               {}, EXIT_FORMAT, "item_id is 'x', not int"),
    "train item_id a bool": ("finetune", lambda d, t: _edit_record(d / _TRAIN, item_id=True),
                             {}, EXIT_FORMAT, "item_id is True, not int"),
    "test required a string": ("eval", lambda d, t: _edit_record(d / _TEST, required="yes"),
                               {}, EXIT_FORMAT, f"{_TEST} line 2: TypeError: required is 'yes'"),
    "pairs line not JSON, build-index": (
        "build-index", lambda d, t: _set_line(d / _PAIRS, "{oops"), {},
        EXIT_FORMAT, "pairs.jsonl line 2: JSONDecodeError"),
    "pairs line not JSON, pretrain": ("pretrain", lambda d, t: _set_line(d / _PAIRS, "{oops"),
                                      {}, EXIT_FORMAT, "pairs.jsonl line 2: JSONDecodeError"),
    "pairs caption missing": ("build-index",
                              lambda d, t: _edit_record(d / _PAIRS, caption=None), {},
                              EXIT_FORMAT, "'caption'"),
    "pairs caption null": ("build-index", lambda d, t: _null_caption(d / _PAIRS), {},
                           EXIT_FORMAT, "caption is None, not str"),
    "pairs pair_id a string": ("build-index", lambda d, t: _edit_record(d / _PAIRS, pair_id="a"),
                               {}, EXIT_FORMAT, "pair_id is 'a', not int"),
    "pairs pair_id negative": ("build-index", lambda d, t: _edit_record(d / _PAIRS, pair_id=-1),
                               {}, EXIT_FORMAT, "pairs.jsonl line 2: ValueError: pair_id -1 is "),
    "pairs pair_id 2**64": ("build-index", lambda d, t: _edit_record(d / _PAIRS, pair_id=2**64),
                            {}, EXIT_FORMAT, f"pairs.jsonl line 2: ValueError: pair_id {2**64} "),
    "vocab.txt not UTF-8": ("build-index", lambda d, t: (d / "vocab.txt").write_bytes(_NOT_UTF8),
                            {}, EXIT_FORMAT, "vocab.txt: UnicodeDecodeError"),
    "vocab.txt without the special tokens": (
        "pretrain", lambda d, t: _set_line(d / "vocab.txt", "zebra"), {}, EXIT_FORMAT,
        "vocab.txt: the first lines are not the special tokens"),
    "vocab.txt token listed twice": ("pretrain", lambda d, t: _repeat_line(d / "vocab.txt", 5),
                                     {}, EXIT_FORMAT, "vocab.txt line 6: "),
    "answers.txt answer listed twice": (
        "pretrain", lambda d, t: _repeat_line(d / "answers.txt", 1), {}, EXIT_FORMAT,
        "answers.txt line 2: "),
    "pairs caption with no token": (
        "pretrain", lambda d, t: _edit_record(d / _PAIRS, caption="!!! ..."), {}, EXIT_FORMAT,
        "pairs.jsonl: pair_id 2 has no token for MLM to mask"),
    "pretrain max-text-len 1": ("pretrain", lambda d, t: None, {"--max-text-len": "1"},
                                EXIT_CONFIG, "pretrain needs max_text_len of at least 2"),
    "answers.txt not UTF-8": ("eval", lambda d, t: (d / "answers.txt").write_bytes(_NOT_UTF8),
                              {}, EXIT_FORMAT, "answers.txt: UnicodeDecodeError"),
    "config file not UTF-8": ("finetune", lambda d, t: (t / "c.cfg").write_bytes(_NOT_UTF8),
                              {"--config": "{t}/c.cfg"}, EXIT_CONFIG,
                              "c.cfg: UnicodeDecodeError"),
    "item image of the wrong shape": (
        "finetune", lambda d, t: _wrong_shape(d / "vqa_images" / "train_000000.ten"), {},
        EXIT_ERROR, "item_id 0 ("),
    "corpus image of the wrong shape": (
        "pretrain", lambda d, t: _wrong_shape(d / "corpus" / "images" / "00000001.ten"), {},
        EXIT_ERROR, "pair_id 1 ("),
    "index a directory": ("finetune", lambda d, t: None, {"--index": "{t}"}, EXIT_ERROR,
                          "Is a directory"),
    "out an existing file": ("finetune", lambda d, t: (t / "f").write_text(""),
                             {"--out": "{t}/f"}, EXIT_ERROR, "File exists"),
    "pretrain out an existing file": ("pretrain", lambda d, t: (t / "f").write_text(""),
                                      {"--out": "{t}/f"}, EXIT_ERROR, "File exists"),
    "harvest pattern not a regex": ("harvest", lambda d, t: (t / "p.txt").write_text("(\n"),
                                    {}, EXIT_CONFIG, "pattern '(' is not a regex"),
    "sweep-r r not an integer": ("sweep-r", lambda d, t: None, {"--rs": "0,a"}, EXIT_BAD_R,
                                 "invalid r a: sweep grid is"),
}


@pytest.mark.parametrize("row", list(_CORRUPTIONS))
def test_malformed_input_exits_with_one_named_line(pipeline, tmp_path, capsys, monkeypatch,
                                                   row):
    """One corruption of one input ends in its documented exit code and one
    stderr line that names it, never a traceback, and before any optimizer
    step."""
    import shutil

    from ramm.objectives import AdamW

    steps = []
    step = AdamW.step
    monkeypatch.setattr(AdamW, "step", lambda self: steps.append(1) or step(self))
    command, corrupt, overrides, code, fragment = _CORRUPTIONS[row]
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    corrupt(data, tmp_path)
    ckpt, index, out = str(pipeline["ckpt"]), str(pipeline["index"]), str(tmp_path / "out")
    flags = {
        "pretrain": {"--data": str(data), "--out": out, "--batch-size": "4", "--steps": "1"},
        "build-index": {"--checkpoint": ckpt, "--data": str(data), "--out": out},
        "finetune": {"--checkpoint": ckpt, "--index": index, "--data": str(data), "--r": "2",
                     "--out": out, "--epochs": "1", "--batch-size": "4"},
        "eval": {"--checkpoint": str(pipeline["ft"]), "--index": index, "--data": str(data),
                 "--r": "2"},
        "harvest": {"--in": str(data), "--out": out, "--patterns": str(tmp_path / "p.txt")},
        "sweep-r": {"--checkpoint": ckpt, "--index": index, "--data": str(data), "--out": out,
                    "--epochs": "1", "--batch-size": "4"},
    }[command]
    flags.update({k: v.format(t=tmp_path) for k, v in overrides.items()})
    config = ["--config", flags.pop("--config")] if "--config" in flags else []
    argv = [*config, command, *(MODEL_FLAGS if command == "pretrain" else []),
            *(x for kv in flags.items() for x in kv)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    prefix = {EXIT_FORMAT: "format error: ", EXIT_CONFIG: "config error: ",
              EXIT_ERROR: "error: ", EXIT_BAD_R: "invalid r "}[code]
    assert err.startswith(prefix) and fragment in err, err
    assert not steps, f"{len(steps)} optimizer steps ran before the refusal"


def test_checkpoint_tensor_of_another_shape_exits_format_naming_it(pipeline, tmp_path, capsys):
    """A weights file of the right length that is rank 2, or float64, ends
    in one stderr line that names the file and its shape."""
    import shutil

    ckpt = tmp_path / "ckpt"
    shutil.copytree(pipeline["ckpt"], ckpt)
    weights = ckpt / "weights.ten"
    flat = load_tensor(weights).array
    for bad, found in ((flat.reshape(1, -1), f"float32 of shape (1, {flat.size})"),
                       (flat.astype(np.float64), f"float64 of shape ({flat.size},)")):
        save_tensor(bad, weights)
        assert main(["build-index", "--checkpoint", str(ckpt), "--data",
                     str(pipeline["data"]), "--out", str(tmp_path / "index.idx")]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"format error: {weights}: {found},"), err


def test_pretrain_with_dropout_is_reproducible(pipeline, tmp_path):
    """Two pretrain runs at dropout 0.1 with one seed write the same bytes,
    weights included; the masks are live, since a run without dropout
    writes other weights."""
    runs = {}
    for name, dropout in (("a", "0.1"), ("b", "0.1"), ("off", "0.0")):
        out = tmp_path / name
        assert main(["pretrain", "--data", str(pipeline["data"]), "--out", str(out),
                     "--steps", "3", "--batch-size", "4", "--seed", "5", *MODEL_FLAGS,
                     "--dropout", dropout]) == EXIT_OK
        runs[name] = {str(p.relative_to(out)): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()}
    assert "weights.ten" in runs["a"] and runs["a"] == runs["b"]
    assert runs["off"]["weights.ten"] != runs["a"]["weights.ten"]


def test_finetune_and_eval_build_only_float32_nodes(pipeline, tmp_path, monkeypatch):
    """A float32 checkpoint fine-tunes at r = 4 with feature noise, and
    evaluates, on float32 graphs only: the noise is cast to the states'
    dtype before it is added."""
    from ramm import ops, train

    dtypes = []
    init = ops.Node.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        dtypes.append(self.value.dtype)

    monkeypatch.setattr(ops.Node, "__init__", recording)
    tcfg = TrainConfig(seed=0, batch_size=8)
    train.finetune(pipeline["ckpt"], pipeline["index"], pipeline["data"], 4, tcfg,
                   tmp_path / "ft", epochs=1, feature_noise=1.0)
    train.evaluate(tmp_path / "ft", pipeline["index"], pipeline["data"], 4)
    assert dtypes and set(dtypes) == {np.dtype(np.float32)}, Counter(map(str, dtypes))
