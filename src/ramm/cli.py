"""Command-line harness driving the end-to-end experiment.

Subcommands: gen-synth, harvest, pretrain, build-index, finetune, eval,
retrieve, stats, sweep-r. A flat key=value config file can supply any flag
default; explicit flags win.

Exit codes: 0 ok, 2 missing artifact, 3 index fingerprint mismatch,
4 invalid r, 5 serialization format error, 6 config error, 1 other failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError, FingerprintMismatchError, FormatError, MissingArtifactError,
    RammError, TruncatedFileError,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING = 2
EXIT_FINGERPRINT = 3
EXIT_BAD_R = 4
EXIT_FORMAT = 5
EXIT_CONFIG = 6

VALID_SWEEP_R = (0, 1, 2, 4, 8)


def _load_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    values = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line without '=': {line!r}")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--n-head", type=int, default=4)
    p.add_argument("--l-fuse", type=int, default=2)
    p.add_argument("--l-text", type=int, default=2)
    p.add_argument("--l-image", type=int, default=2)
    p.add_argument("--d-proj", type=int, default=32)
    p.add_argument("--d-ff", type=int, default=None)
    p.add_argument("--d-patch", type=int, default=16)
    p.add_argument("--patch-grid", type=int, default=2)
    p.add_argument("--max-text-len", type=int, default=32)
    p.add_argument("--dropout", type=float, default=0.1)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--itc-temperature", type=float, default=0.07)
    p.add_argument("--momentum", type=float, default=0.995)
    p.add_argument("--ema-decay", type=float, default=0.999)
    p.add_argument("--rdrop-alpha", type=float, default=0.6)
    p.add_argument("--mask-rate", type=float, default=0.15)
    p.add_argument("--distill-weight", type=float, default=0.4)
    p.add_argument("--weight-decay", type=float, default=0.01)


def _train_config(args):
    from .objectives import TrainConfig

    return TrainConfig(
        itc_temperature=args.itc_temperature, momentum=args.momentum,
        ema_decay=args.ema_decay, rdrop_alpha=args.rdrop_alpha,
        mask_rate=args.mask_rate, distill_weight=args.distill_weight,
        batch_size=args.batch_size, lr=args.lr,
        weight_decay=args.weight_decay, seed=args.seed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ramm")
    parser.add_argument("--config", help="flat key=value file; flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic corpus and VQA splits")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-clusters", type=int, default=4)
    p.add_argument("--pairs-per-cluster", type=int, default=5)
    p.add_argument("--n-train", type=int, default=240)
    p.add_argument("--n-test", type=int, default=120)
    p.add_argument("--patch-grid", type=int, default=2)
    p.add_argument("--d-patch", type=int, default=16)
    p.add_argument("--required-fraction", type=float, default=0.5)
    p.add_argument("--closed-fraction", type=float, default=0.2)

    p = sub.add_parser("harvest", help="extract image-text pairs from case reports")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--patterns", help="file with one regex per line")
    p.add_argument("--min-chars", type=int, default=200)

    p = sub.add_parser("pretrain", help="run ITC+ITM+MLM pretraining")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=150)
    _add_model_flags(p)
    _add_train_flags(p)

    p = sub.add_parser("build-index", help="encode the corpus into a RAMMIDX1 index")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("finetune", help="retrieval-augmented VQA fine-tuning")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--train-unimodal", action="store_true")
    p.add_argument("--feature-noise", type=float, default=0.0)
    _add_train_flags(p)

    p = sub.add_parser("eval", help="evaluate a fine-tuned checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--split", default="test")
    p.add_argument("--no-ema", action="store_true")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("retrieve", help="query the index with an image tensor")
    p.add_argument("--index", required=True)
    p.add_argument("--query-tensor", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--mode", choices=["train", "infer"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint",
                   help="needed when the query tensor is raw patches")

    p = sub.add_parser("stats", help="retrieval source/answer-containment stats")
    p.add_argument("--details", required=True, help="eval_details.jsonl from eval")
    p.add_argument("--out")

    p = sub.add_parser("sweep-r", help="fine-tune and evaluate across r values")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rs", default="0,1,2,4,8")
    p.add_argument("--epochs", type=int, default=10)
    _add_train_flags(p)

    return parser


def _cmd_gen_synth(args) -> int:
    from .synthetic import SyntheticSpec, generate

    spec = SyntheticSpec(
        n_clusters=args.n_clusters, pairs_per_cluster=args.pairs_per_cluster,
        n_train=args.n_train, n_test=args.n_test, patch_grid=args.patch_grid,
        d_patch=args.d_patch, required_fraction=args.required_fraction,
        closed_fraction=args.closed_fraction, seed=args.seed,
    )
    meta = generate(spec, args.out)
    print(f"wrote {meta['n_corpus_pairs']} corpus pairs to {args.out} "
          f"(fingerprint {meta['fingerprint']})")
    return EXIT_OK


def _cmd_harvest(args) -> int:
    from .corpus import run_harvest

    patterns = None
    if args.patterns:
        patterns = [l for l in Path(args.patterns).read_text().splitlines() if l.strip()]
    report = run_harvest(args.in_dir, args.out, patterns, args.min_chars)
    print(report.as_text(), end="")
    return EXIT_OK


def _cmd_pretrain(args) -> int:
    from .model import ModelConfig, Vocab
    from .train import pretrain

    data = Path(args.data)
    vocab = Vocab.load(data / "vocab.txt")
    answers = (data / "answers.txt").read_text(encoding="utf-8").splitlines()
    mcfg = ModelConfig(
        vocab_size=len(vocab), n_answers=len(answers), d=args.d,
        n_head=args.n_head, l_fuse=args.l_fuse, l_text=args.l_text,
        l_image=args.l_image, d_proj=args.d_proj, d_ff=args.d_ff,
        max_text_len=args.max_text_len, patch_grid=args.patch_grid,
        d_patch=args.d_patch, dropout_rate=args.dropout,
    )
    tcfg = _train_config(args)
    out = pretrain(args.data, args.out, mcfg, tcfg, steps=args.steps)
    print(f"checkpoint written to {out}")
    return EXIT_OK


def _cmd_build_index(args) -> int:
    from .train import build_index_cmd

    out = build_index_cmd(args.checkpoint, args.data, args.out)
    print(f"index written to {out}")
    return EXIT_OK


def _cmd_finetune(args) -> int:
    if args.r < 0:
        print("invalid r: must be non-negative", file=sys.stderr)
        return EXIT_BAD_R
    from .train import finetune

    out = finetune(args.checkpoint, args.index, args.data, args.r,
                   _train_config(args), args.out, epochs=args.epochs,
                   train_unimodal=args.train_unimodal,
                   feature_noise=args.feature_noise)
    print(f"fine-tuned checkpoint written to {out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.r < 0:
        print("invalid r: must be non-negative", file=sys.stderr)
        return EXIT_BAD_R
    from .train import evaluate

    report, _ = evaluate(args.checkpoint, args.index, args.data, args.r,
                         split=args.split, use_ema=not args.no_ema,
                         out_dir=args.out, seed=args.seed)
    print(report.as_text(), end="")
    return EXIT_OK


def _cmd_retrieve(args) -> int:
    if args.r < 0:
        print("invalid r: must be non-negative", file=sys.stderr)
        return EXIT_BAD_R
    from . import ops
    from .model import project_itc, encode_image
    from .retrieval import Mode, retrieve_by_vector
    from .store import load_index
    from .tensor import load_tensor

    index = load_index(args.index)
    query = load_tensor(args.query_tensor).array
    if query.ndim == 1 and query.shape[0] == index.d_proj:
        qvec = query
    else:
        if not args.checkpoint:
            raise ConfigError(
                "query tensor is not a d_proj vector; pass --checkpoint to encode it")
        from .train import load_checkpoint

        params, mcfg = load_checkpoint(args.checkpoint)
        from .store import verify_fingerprint

        verify_fingerprint(index, params, mcfg.d_proj)
        v = encode_image(params, mcfg, query)
        qvec = project_itc(ops.slice_rows(v, 0, 1), params, "image").value[0]
    mode = Mode.TRAIN if args.mode == "train" else Mode.INFER
    result = retrieve_by_vector(qvec, index, args.r, mode, seed=args.seed)
    q64 = np.asarray(qvec, dtype=np.float64)
    q64 = q64 / max(np.linalg.norm(q64), 1e-12)
    for rank, (pid, s) in enumerate(result.selected, start=1):
        row = index.row_of(pid)
        s_w = float(index.text_vecs[row].astype(np.float64) @ q64)
        s_v = float(index.image_vecs[row].astype(np.float64) @ q64)
        print(f"{rank}\t{pid}\t{s_w:.6f}\t{s_v:.6f}\t{s:.6f}\t{index.captions[row]}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    from .train import load_details, retrieval_stats

    stats = retrieval_stats(load_details(args.details))
    text = stats.as_text()
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return EXIT_OK


def _cmd_sweep_r(args) -> int:
    rs = []
    for part in args.rs.split(","):
        r = int(part)
        if r not in VALID_SWEEP_R:
            print(f"invalid r {r}: sweep grid is {VALID_SWEEP_R}", file=sys.stderr)
            return EXIT_BAD_R
        rs.append(r)
    from .train import sweep_r

    rows = sweep_r(args.checkpoint, args.index, args.data, rs,
                   _train_config(args), args.out, epochs=args.epochs)
    print("r\toverall\topen\tclosed\trequired")
    for row in rows:
        print(f"{row['r']}\t{row['overall']:.4f}\t{row['open']:.4f}"
              f"\t{row['closed']:.4f}\t{row['required']:.4f}")
    return EXIT_OK


_COMMANDS = {
    "gen-synth": _cmd_gen_synth,
    "harvest": _cmd_harvest,
    "pretrain": _cmd_pretrain,
    "build-index": _cmd_build_index,
    "finetune": _cmd_finetune,
    "eval": _cmd_eval,
    "retrieve": _cmd_retrieve,
    "stats": _cmd_stats,
    "sweep-r": _cmd_sweep_r,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # pre-scan for a config file so its values become flag defaults
        if "--config" in argv:
            at = argv.index("--config") + 1
            if at == len(argv):
                raise ConfigError("--config needs a file path")
            defaults = _load_config_file(argv[at])
            parser.set_defaults(**defaults)
            for action in parser._subparsers._group_actions[0].choices.values():
                known = {a.dest for a in action._actions}
                action.set_defaults(**{k: _coerce(action, k, v)
                                       for k, v in defaults.items() if k in known})
                for sub_action in action._actions:
                    if sub_action.dest in defaults:
                        sub_action.required = False
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except MissingArtifactError as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except FingerprintMismatchError as exc:
        print(f"fingerprint mismatch: {exc}", file=sys.stderr)
        return EXIT_FINGERPRINT
    except (FormatError, TruncatedFileError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except RammError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _coerce(subparser, dest: str, raw: str):
    for action in subparser._actions:
        if action.dest == dest and action.type is not None:
            try:
                return action.type(raw)
            except ValueError as exc:
                raise ConfigError(f"config value {dest} = {raw!r}: {exc}") from exc
        if action.dest == dest and isinstance(action.const, bool):
            return raw.lower() in ("1", "true", "yes")
    return raw


if __name__ == "__main__":
    sys.exit(main())
