"""Command-line entry point: analyze | pretrain | probe | report.

Exit codes: 0 success, 2 input/config error, 3 domain precondition
failure (running out of memory included), 4 numeric failure. All outputs
are written atomically.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import charts
from . import evaluation as E
from . import model as M
from . import trainer as TR
from .datasets import label_histogram, resolve_dataset
from .errors import AmimvError, ContractError, FormatError, NumericError, ValidationError
from .fsutil import atomic_write_text
from .imbalance import categorize, imbalance_metrics

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_NUMERIC = 4


def _env_seed(explicit: int | None) -> int:
    seed = explicit
    if seed is None:
        raw = os.environ.get("AMIMV_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise ValidationError(f"AMIMV_SEED must be an integer, got {raw!r}") from None
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return seed


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _dataset_name(spec: str) -> str:
    if spec.startswith("synthetic:"):
        return "synthetic"
    base = os.path.basename(spec)
    return base.removesuffix(".npz")


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        dataset = resolve_dataset(args.dataset, seed=_env_seed(args.seed))
    except (AmimvError, OSError) as exc:
        return _fail(EXIT_INPUT, str(exc))
    name = _dataset_name(args.dataset)
    try:
        report = imbalance_metrics(label_histogram(dataset, "train"))
        report.category = categorize(report, dataset_name=name)
    except (ValidationError, ContractError) as exc:
        return _fail(EXIT_PRECONDITION, str(exc))
    os.makedirs(args.out, exist_ok=True)
    atomic_write_text(os.path.join(args.out, "imbalance.csv"), report.to_csv_row(name))
    atomic_write_text(os.path.join(args.out, "imbalance.json"), report.to_json())
    print(report.to_csv_row(name).splitlines()[1])
    return EXIT_OK


def _parse_overrides(extra: list[str]) -> dict[str, str]:
    """Turn trailing `--key value` / `--key=value` tokens into an override map."""
    overrides: dict[str, str] = {}
    i = 0
    while i < len(extra):
        token = extra[i]
        if not token.startswith("--"):
            raise ValidationError(f"expected --key value, got {token!r}")
        key = token[2:]
        if "=" in key:
            key, value = key.split("=", 1)
        else:
            i += 1
            if i >= len(extra):
                raise ValidationError(f"missing value for --{key}")
            value = extra[i]
        overrides[key.replace("-", "_")] = value
        i += 1
    return overrides


def cmd_pretrain(args: argparse.Namespace, extra: list[str]) -> int:
    try:
        data = {}
        if args.config:
            with open(args.config) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValidationError(f"config: expected a JSON object, got {type(data).__name__}")
        overrides = _parse_overrides(extra)
        if args.out:
            overrides["out_dir"] = args.out
        if "seed" not in data and "seed" not in overrides and "AMIMV_SEED" in os.environ:
            overrides["seed"] = os.environ["AMIMV_SEED"]
        config = TR.config_from_dict(data, overrides)
    except (json.JSONDecodeError, OSError) as exc:
        return _fail(EXIT_INPUT, f"config: {exc}")
    except (ValidationError, ValueError) as exc:
        return _fail(EXIT_INPUT, str(exc))
    try:
        result = TR.pretrain(config)
    except NumericError as exc:
        return _fail(EXIT_NUMERIC, str(exc))
    except (ValidationError, FormatError, OSError) as exc:
        return _fail(EXIT_INPUT, str(exc))
    except ContractError as exc:
        return _fail(EXIT_PRECONDITION, str(exc))
    print(f"pretrained {config.epochs} epochs; final loss {result.epoch_losses[-1]:.4f}")
    print(f"artifacts in {config.out_dir}")
    return EXIT_OK


def cmd_probe(args: argparse.Namespace) -> int:
    try:
        seed = _env_seed(args.seed)
        probe_cfg = E.ProbeConfig(epochs=args.epochs, seed=seed)
        pair = M.load_checkpoint(args.run_dir)
        dataset = resolve_dataset(args.dataset, seed=seed)
    except (AmimvError, OSError, json.JSONDecodeError, KeyError) as exc:
        return _fail(EXIT_INPUT, str(exc))
    if pair.config.input_channels != dataset.channels:
        return _fail(
            EXIT_INPUT,
            f"checkpoint expects {pair.config.input_channels} channel(s), "
            f"dataset has {dataset.channels}",
        )
    try:
        train_x, train_y = E.extract_features(pair, dataset, "train")
        test_x, test_y = E.extract_features(pair, dataset, "test")
        probe = E.linear_probe(train_x, train_y, probe_cfg, num_classes=dataset.num_classes)
        report = E.classification_metrics(probe.scores(test_x), test_y)
    except NumericError as exc:
        return _fail(EXIT_NUMERIC, str(exc))
    except (ValidationError, ContractError) as exc:
        return _fail(EXIT_PRECONDITION, str(exc))
    out = args.out or args.run_dir
    os.makedirs(out, exist_ok=True)
    atomic_write_text(os.path.join(out, "eval.csv"), report.to_csv())
    atomic_write_text(os.path.join(out, "eval.json"), report.to_json())
    atomic_write_text(os.path.join(out, "confusion.csv"), report.confusion_csv())
    print(f"accuracy {report.accuracy:.4f}  macro_auc {report.macro_auc:.4f}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    eval_path = os.path.join(args.run_dir, "eval.json")
    confusion_path = os.path.join(args.run_dir, "confusion.csv")
    try:
        with open(eval_path) as fh:
            eval_data = json.load(fh)
        accs = eval_data.get("per_class_accuracy") if isinstance(eval_data, dict) else None
        if not isinstance(accs, list) or not all(
            a is None or (isinstance(a, (int, float)) and not isinstance(a, bool)) for a in accs
        ):
            raise ValidationError(f"{eval_path}: per_class_accuracy must be a list of numbers or nulls")
        with open(confusion_path) as fh:
            confusion = np.array([[int(v) for v in row] for row in csv.reader(fh)])
        pair = M.load_checkpoint(args.run_dir)
        dataset = resolve_dataset(args.dataset, seed=_env_seed(args.seed))
    except (AmimvError, OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        return _fail(EXIT_INPUT, str(exc))
    try:
        feats, labels = E.extract_features(pair, dataset, "test")
        coords, _, _ = E.pca_project(feats, k=2)
    except (ValidationError, ContractError) as exc:
        return _fail(EXIT_PRECONDITION, str(exc))
    accs = [0.0 if a is None else float(a) for a in accs]
    out = args.out or args.run_dir
    os.makedirs(out, exist_ok=True)
    atomic_write_text(
        os.path.join(out, "per_class.svg"),
        charts.bar_chart(accs, [str(c) for c in range(len(accs))], "Per-class accuracy"),
    )
    atomic_write_text(
        os.path.join(out, "confusion.svg"), charts.heatmap(confusion, "Confusion matrix")
    )
    atomic_write_text(
        os.path.join(out, "embedding.svg"),
        charts.scatter(coords, labels, "Test features (PCA)"),
    )
    print(f"wrote per_class.svg, confusion.svg, embedding.svg to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amimv",
        description="Asymmetric multi-image multi-view contrastive pretraining toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="compute class-imbalance metrics for a dataset")
    p.add_argument("dataset", help="NPZ path or synthetic:C=...,counts=...,size=... spec")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("pretrain", help="run contrastive pretraining")
    p.add_argument("--config", default=None, help="JSON run configuration")
    p.add_argument("--out", default=None, help="run output directory")

    p = sub.add_parser("probe", help="linear-probe a checkpointed encoder")
    p.add_argument("run_dir", help="directory holding checkpoint.bin + manifest.json")
    p.add_argument("dataset", help="NPZ path or synthetic spec")
    p.add_argument("--out", default=None, help="output directory (default: run_dir)")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("report", help="emit SVG charts from probe outputs")
    p.add_argument("run_dir", help="directory holding eval.json, confusion.csv, checkpoint")
    p.add_argument("dataset", help="NPZ path or synthetic spec (for the embedding scatter)")
    p.add_argument("--out", default=None, help="output directory (default: run_dir)")
    p.add_argument("--seed", type=int, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra and args.command != "pretrain":
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "pretrain":
            return cmd_pretrain(args, extra)
        if args.command == "probe":
            return cmd_probe(args)
        return cmd_report(args)
    except MemoryError as exc:  # e.g. a synthetic spec whose images do not fit in memory
        return _fail(EXIT_PRECONDITION, (str(exc) or "out of memory").splitlines()[0])


if __name__ == "__main__":
    sys.exit(main())
