"""Command-line entry point: analyze | pretrain | probe | report.

Each subcommand reads its inputs, computes and writes; `main` alone maps
an error to an exit code: 0 success, 2 input/config error (an output
directory that cannot be created or written included), 3 domain
precondition failure (running out of memory included), 4 numeric
failure. All outputs are written atomically.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import charts
from . import evaluation as E
from . import model as M
from . import trainer as TR
from .datasets import ImageDataset, label_histogram, resolve_dataset
from .errors import AmimvError, ContractError, NumericError, ValidationError
from .fsutil import atomic_write_text
from .imbalance import categorize, imbalance_metrics

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_NUMERIC = 4


class _InputError(Exception):
    """A subcommand's input (a file, a value, the environment) is at fault."""


@contextlib.contextmanager
def _input(prefix: str = ""):
    """Read inputs: any error but a numeric or contract one is the input's fault."""
    try:
        yield
    except (NumericError, ContractError):
        raise
    except (AmimvError, OSError, ValueError, KeyError) as exc:
        raise _InputError(prefix + str(exc)) from exc


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


def _dataset_name(spec: str) -> str:
    if spec.startswith("synthetic:"):
        return "synthetic"
    base = os.path.basename(spec)
    return base.removesuffix(".npz")


def _load_run(run_dir: str, spec: str, seed: int) -> tuple[M.EncoderPair, ImageDataset]:
    pair = M.load_checkpoint(run_dir)
    dataset = resolve_dataset(spec, seed=seed)
    if pair.config.input_channels != dataset.channels:
        raise ValidationError(
            f"checkpoint expects {pair.config.input_channels} channel(s), "
            f"dataset has {dataset.channels}"
        )
    return pair, dataset


def _check_out(out: str) -> None:
    """Fail before any compute where _write could not make or write the directory `out`."""
    path = os.path.abspath(out)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise NotADirectoryError(f"--out {out}: {path} is not a directory")
    if not os.access(path, os.W_OK | os.X_OK):
        raise PermissionError(f"--out {out}: {path} is not writable")


def _write(out: str, files: dict[str, str]) -> None:
    for name, text in files.items():
        atomic_write_text(os.path.join(out, name), text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args: argparse.Namespace) -> None:
    with _input():
        _check_out(args.out)
        dataset = resolve_dataset(args.dataset, seed=_env_seed(args.seed))
    name = _dataset_name(args.dataset)
    report = imbalance_metrics(label_histogram(dataset, "train"))
    report.category = categorize(report, dataset_name=name)
    row = report.to_csv_row(name)
    _write(args.out, {"imbalance.csv": row, "imbalance.json": report.to_json()})
    print(row.splitlines()[1])


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


def cmd_pretrain(args: argparse.Namespace) -> None:
    data = {}
    if args.config:
        with _input("config: "):
            with open(args.config) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValidationError(f"expected a JSON object, got {type(data).__name__}")
    with _input():
        overrides = _parse_overrides(args.extra)
        if args.out:
            overrides["out_dir"] = args.out
        if "seed" not in data and "seed" not in overrides:
            overrides["seed"] = str(_env_seed(None))
        config = TR.config_from_dict(data, overrides)
        _check_out(config.out_dir)
        result = TR.pretrain(config)
    print(f"pretrained {config.epochs} epochs; final loss {result.epoch_losses[-1]:.4f}")
    print(f"artifacts in {config.out_dir}")


def cmd_probe(args: argparse.Namespace) -> None:
    out = args.out or args.run_dir
    with _input():
        _check_out(out)
        seed = _env_seed(args.seed)
        probe_cfg = E.ProbeConfig(epochs=args.epochs, seed=seed)
        pair, dataset = _load_run(args.run_dir, args.dataset, seed)
    train_x, train_y = E.extract_features(pair, dataset, "train")
    test_x, test_y = E.extract_features(pair, dataset, "test")
    probe = E.linear_probe(train_x, train_y, probe_cfg, num_classes=dataset.num_classes)
    report = E.classification_metrics(probe.scores(test_x), test_y)
    _write(
        out,
        {"eval.csv": report.to_csv(), "eval.json": report.to_json(), "confusion.csv": report.confusion_csv()},
    )
    print(f"accuracy {report.accuracy:.4f}  macro_auc {report.macro_auc:.4f}")


def _is_accuracy(value) -> bool:
    """A number in [0, 1], or NaN or null: probe writes NaN for a class with no test images, which the
    bar chart draws as 0; a value outside [0, 1] would draw a bar of negative height or off the chart."""
    return value is None or isinstance(value, float) and (math.isnan(value) or 0.0 <= value <= 1.0)


def cmd_report(args: argparse.Namespace) -> None:
    out = args.out or args.run_dir
    with _input():
        _check_out(out)
    with _input("eval.json: "):
        # integers parse as floats, so one too large for a float reads as inf, not an overflow
        with open(os.path.join(args.run_dir, "eval.json")) as fh:
            eval_data = json.load(fh, parse_int=float)
        accs = eval_data.get("per_class_accuracy") if isinstance(eval_data, dict) else None
        if not (isinstance(accs, list) and accs and all(map(_is_accuracy, accs))):
            raise ValidationError("per_class_accuracy must be a non-empty list of [0, 1] values, NaN or null")
    with _input("confusion.csv: "):
        with open(os.path.join(args.run_dir, "confusion.csv")) as fh:
            rows = [[int(v) for v in line.split(",")] for line in fh]
        c = len(accs)
        if not (len(rows) == c and all(len(r) == c and all(0 <= v < 2**63 for v in r) for r in rows)):
            raise ValidationError(f"expected a {c}x{c} table of integers in [0, 2**63)")
    with _input():
        pair, dataset = _load_run(args.run_dir, args.dataset, _env_seed(args.seed))
    feats, labels = E.extract_features(pair, dataset, "test")
    coords, _, _ = E.pca_project(feats, k=2)
    accs = [0.0 if a is None else a for a in accs]
    _write(
        out,
        {
            "per_class.svg": charts.bar_chart(accs, [str(i) for i in range(len(accs))], "Per-class accuracy"),
            "confusion.svg": charts.heatmap(np.array(rows), "Confusion matrix"),
            "embedding.svg": charts.scatter(coords, labels, "Test features (PCA)"),
        },
    )
    print(f"wrote per_class.svg, confusion.svg, embedding.svg to {out}")


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


_COMMANDS = {"analyze": cmd_analyze, "pretrain": cmd_pretrain, "probe": cmd_probe, "report": cmd_report}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra and args.command != "pretrain":
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.extra = extra
    try:
        _COMMANDS[args.command](args)
        return EXIT_OK
    except (_InputError, OSError) as exc:
        code, message = EXIT_INPUT, str(exc)
    except NumericError as exc:
        code, message = EXIT_NUMERIC, str(exc)
    except AmimvError as exc:
        code, message = EXIT_PRECONDITION, str(exc)
    except MemoryError as exc:  # e.g. a synthetic spec whose images do not fit in memory
        code, message = EXIT_PRECONDITION, (str(exc) or "out of memory").splitlines()[0]
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
