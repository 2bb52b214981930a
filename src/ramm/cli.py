"""Command-line harness driving the end-to-end experiment.

Subcommands: gen-synth, harvest, pretrain, build-index, finetune, eval,
retrieve, stats, sweep-r. A flat key=value config file can supply any flag
default; explicit flags win, and a key that names no flag is a config error.

Exit codes: 0 ok, 2 missing artifact, 3 index fingerprint mismatch,
4 invalid r, 5 malformed input artifact, 6 config error, 1 other failure (a
wrong-shaped image, a path of the wrong kind, a diverged run).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields
from pathlib import Path

from .corpus import MIN_CHARS, run_harvest
from .errors import (
    ConfigError, FingerprintMismatchError, FormatError, MissingArtifactError,
    RammError, TruncatedFileError,
)
from .model import ModelConfig, Vocab, cls_rows, encode_image, project_itc
from .objectives import TrainConfig
from .synthetic import SyntheticSpec, generate, load_answers
from .textio import read_text

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING = 2
EXIT_FINGERPRINT = 3
EXIT_BAD_R = 4
EXIT_FORMAT = 5
EXIT_CONFIG = 6

VALID_SWEEP_R = (0, 1, 2, 4, 8)


def _config_defaults(argv: list[str]) -> dict[str, str]:
    """The values of the config file that --config names in argv, or {}."""
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        known, _ = pre.parse_known_args(argv)
    except argparse.ArgumentError as exc:
        raise ConfigError("--config needs a file path") from exc
    return {} if known.config is None else _load_config_file(known.config)


def _load_config_file(path: str) -> dict[str, str]:
    try:
        text = read_text(path, ConfigError)
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


# the fields of each config that are flags, in --help order (a training stage's: those it reads)
MODEL_FIELDS = ("d", "n_head", "l_fuse", "l_text", "l_image", "d_proj", "d_ff",
                "d_patch", "patch_grid", "max_text_len", "dropout_rate")
PRETRAIN_FIELDS = ("seed", "batch_size", "lr", "itc_temperature", "momentum",
                   "mask_rate", "distill_weight", "weight_decay")
FINETUNE_FIELDS = ("seed", "batch_size", "lr", "ema_decay", "rdrop_alpha", "weight_decay")
SYNTH_FIELDS = ("seed", "n_clusters", "pairs_per_cluster", "n_train", "n_test",
                "patch_grid", "d_patch", "required_fraction", "closed_fraction")
_FLAG_DEST = {"dropout_rate": "dropout"}    # field -> flag dest, where they differ


def _add_fields(p: argparse.ArgumentParser, cls, names: tuple[str, ...]) -> None:
    """One flag per named field of dataclass `cls`, defaulting to the field's
    default and typed by it; a field that defaults to None takes an int."""
    defaults = {f.name: f.default for f in fields(cls)}
    for name in names:
        default = defaults[name]
        p.add_argument("--" + _FLAG_DEST.get(name, name).replace("_", "-"),
                       type=int if default is None else type(default), default=default)


def _from_fields(cls, names: tuple[str, ...], args, **extra):
    """`cls` built from the parsed flags of `names` plus `extra`."""
    return cls(**{n: getattr(args, _FLAG_DEST.get(n, n)) for n in names}, **extra)


def _coerce(action: argparse.Action, raw: str):
    if action.type is not None:
        try:
            return action.type(raw)
        except ValueError as exc:
            raise ConfigError(f"config value {action.dest} = {raw!r}: {exc}") from exc
    if isinstance(action.const, bool):
        return raw.lower() in ("1", "true", "yes")
    return raw


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose flags named in `config` (dest -> raw value)
    take the coerced value as their default and are no longer required.
    The dest of every flag it adds goes into `dests`."""

    def __init__(self, *args, config: dict[str, str], dests: set[str], **kwargs):
        self.config = config        # before __init__, which adds -h
        self.dests = dests
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.dests.add(action.dest)
        if action.dest in self.config:
            action.default = _coerce(action, self.config[action.dest])
            action.required = False
        return action


def build_parser(defaults: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The CLI parser; `defaults` (flag dest -> raw value, as in a config
    file) replace the built-in flag defaults. A key that names no flag of
    any subcommand raises ConfigError."""
    defaults = defaults or {}
    dests: set[str] = set()
    parser = _Parser(prog="ramm", config=defaults, dests=dests, allow_abbrev=False)
    parser.add_argument("--config", help="flat key=value file; flags override")
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(_Parser, config=defaults, dests=dests,
                                       allow_abbrev=False))

    p = sub.add_parser("gen-synth", help="generate a synthetic corpus and VQA splits")
    p.add_argument("--out", required=True)
    _add_fields(p, SyntheticSpec, SYNTH_FIELDS)

    p = sub.add_parser("harvest", help="extract image-text pairs from case reports")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--patterns", help="file with one regex per line")
    p.add_argument("--min-chars", type=int, default=MIN_CHARS)

    p = sub.add_parser("pretrain", help="run ITC+ITM+MLM pretraining")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=150)
    _add_fields(p, ModelConfig, MODEL_FIELDS)
    _add_fields(p, TrainConfig, PRETRAIN_FIELDS)

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
    p.add_argument("--feature-noise", type=float, default=0.0)
    _add_fields(p, TrainConfig, FINETUNE_FIELDS)

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
    _add_fields(p, TrainConfig, FINETUNE_FIELDS)

    unknown = sorted(set(defaults) - dests)
    if unknown:
        raise ConfigError(f"config key names no flag: {', '.join(unknown)}")
    return parser


def _cmd_gen_synth(args) -> int:
    meta = generate(_from_fields(SyntheticSpec, SYNTH_FIELDS, args), args.out)
    print(f"wrote {meta['n_corpus_pairs']} corpus pairs to {args.out} "
          f"(fingerprint {meta['fingerprint']})")
    return EXIT_OK


def _cmd_harvest(args) -> int:
    patterns = args.patterns and [
        l for l in read_text(args.patterns, ConfigError).splitlines() if l.strip()]
    report = run_harvest(args.in_dir, args.out, patterns, args.min_chars)
    print(report.as_text(), end="")
    return EXIT_OK


def _cmd_pretrain(args) -> int:
    from .train import pretrain

    data = Path(args.data)
    mcfg = _from_fields(ModelConfig, MODEL_FIELDS, args,
                        vocab_size=len(Vocab.load(data / "vocab.txt")),
                        n_answers=len(load_answers(data)))
    out = pretrain(args.data, args.out, mcfg,
                   _from_fields(TrainConfig, PRETRAIN_FIELDS, args), steps=args.steps)
    print(f"checkpoint written to {out}")
    return EXIT_OK


def _cmd_build_index(args) -> int:
    from .train import build_index_cmd

    report = build_index_cmd(args.checkpoint, args.data, args.out)
    print(f"index written to {args.out}: {report.encoded} pairs encoded, "
          f"{report.skipped} skipped")
    if report.skipped_ids:
        print("skipped (image unreadable): " + " ".join(map(str, report.skipped_ids)))
    return EXIT_OK


def _cmd_finetune(args) -> int:
    from .train import finetune

    out = finetune(args.checkpoint, args.index, args.data, args.r,
                   _from_fields(TrainConfig, FINETUNE_FIELDS, args), args.out,
                   epochs=args.epochs, feature_noise=args.feature_noise)
    print(f"fine-tuned checkpoint written to {out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    from .train import evaluate

    report, _ = evaluate(args.checkpoint, args.index, args.data, args.r,
                         split=args.split, use_ema=not args.no_ema,
                         out_dir=args.out, seed=args.seed)
    print(report.as_text(), end="")
    return EXIT_OK


def _cmd_retrieve(args) -> int:
    from .retrieval import Mode, retrieve_by_vector
    from .store import check_patches, load_index, verify_fingerprint
    from .tensor import load_tensor
    from .train import load_checkpoint

    index = load_index(args.index)
    query = load_tensor(args.query_tensor).array
    if query.ndim == 1 and query.shape[0] == index.d_proj:
        qvec = query
    else:
        if not args.checkpoint:
            raise ConfigError(
                "query tensor is not a d_proj vector; pass --checkpoint to encode it")
        params, mcfg = load_checkpoint(args.checkpoint)
        verify_fingerprint(index, params, mcfg.d_proj)
        check_patches(query, mcfg, f"query tensor {args.query_tensor}")
        qvec = project_itc(cls_rows(encode_image(params, mcfg, query)),
                           params, "image").value[0]
    mode = Mode.TRAIN if args.mode == "train" else Mode.INFER
    result = retrieve_by_vector(qvec, index, args.r, mode, seed=args.seed)
    for rank, ((pid, s), (s_w, s_v)) in enumerate(
            zip(result.selected, result.components), start=1):
        print(f"{rank}\t{pid}\t{s_w:.6f}\t{s_v:.6f}\t{s:.6f}\t{index.caption_of(pid)}")
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
        try:
            r = int(part)
        except ValueError:
            r = part.strip()
        if r not in VALID_SWEEP_R:
            print(f"invalid r {r}: sweep grid is {VALID_SWEEP_R}", file=sys.stderr)
            return EXIT_BAD_R
        rs.append(r)
    from .train import sweep_r, sweep_table

    rows = sweep_r(args.checkpoint, args.index, args.data, rs,
                   _from_fields(TrainConfig, FINETUNE_FIELDS, args), args.out,
                   epochs=args.epochs)
    print(sweep_table(rows), end="")
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
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # a first pass finds the config file, whose values become flag defaults
        args = build_parser(_config_defaults(argv)).parse_args(argv)
        if getattr(args, "r", 0) < 0:
            print("invalid r: must be non-negative", file=sys.stderr)
            return EXIT_BAD_R
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"seed must be non-negative, got {args.seed}")
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
    except (RammError, OSError) as exc:   # OSError: a path of the wrong kind
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
