"""SGD with momentum, learning-rate schedules, and the pretraining loop.

Every training step runs one path; the mode picks only the query views,
the key views and the objective. AMIMV encodes the normalized anchor and
augmented counterpart views with the query encoder, EMA-updates the key
encoder and encodes the other two views under no-grad, and takes the
fused contrastive loss. The single-image two-augmentation baseline
encodes its two views with the query encoder, has no key views (so no
EMA), and takes the plain contrastive loss. Both then backpropagate and
step SGD under a warmup-then-cosine schedule.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from . import loss as losses
from . import model as M
from . import tensor as T
from .datasets import ImageDataset, resolve_dataset
from .errors import ContractError, NumericError, ValidationError
from .fsutil import atomic_write_text, csv_text
from .views import AugmentConfig, RngStream, augment_view, build_amimv_batch
from .tensor import Tensor

REFERENCE_BATCH = 256
REFERENCE_BASE_LR = 0.75


# ---------------------------------------------------------------------------
# learning-rate schedule


@dataclass
class Schedule:
    base_lr: float
    total_steps: int
    warmup_fraction: float = 0.1
    warmup_start: float = 1e-4

    @property
    def warmup_steps(self) -> int:
        return math.ceil(self.warmup_fraction * self.total_steps)


def base_lr_for_batch(batch_size: int) -> float:
    return REFERENCE_BASE_LR * batch_size / REFERENCE_BATCH


def lr_at(step: int, schedule: Schedule) -> float:
    """Linear warmup from warmup_start to base_lr, then cosine to zero."""
    if not 0 <= step <= schedule.total_steps:
        raise ContractError(f"step {step} outside [0, {schedule.total_steps}]")
    w = schedule.warmup_steps
    if step < w:
        frac = step / w
        return schedule.warmup_start + (schedule.base_lr - schedule.warmup_start) * frac
    span = schedule.total_steps - w
    u = (step - w) / span if span > 0 else 1.0
    return schedule.base_lr * 0.5 * (1.0 + math.cos(math.pi * u))


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptimState:
    momentum: float = 0.9
    weight_decay: float = 0.0
    velocity: dict[str, np.ndarray] = field(default_factory=dict)  # one buffer per parameter name


def sgd_step(params: dict[str, Tensor], state: OptimState, lr: float) -> None:
    """v <- mu*v + g; p <- p - lr*(v + wd*p), decoupled weight decay."""
    for name, p in params.items():
        if p.grad is None:
            continue
        if name not in state.velocity:
            state.velocity[name] = np.zeros_like(p.data)
        v = state.velocity[name]
        v *= state.momentum
        v += p.grad
        p.data = (p.data - lr * (v + state.weight_decay * p.data)).astype(p.dtype, copy=False)
        p.grad = None


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    dataset: str = "synthetic:C=4,counts=700:70:70:70,size=28"
    out_dir: str = "run"
    mode: str = "amimv"  # amimv | simclr_baseline
    epochs: int = 2
    batch_size: int = 64
    seed: int = 0
    arch: str = "tiny"
    ema_momentum: float = 0.99
    ema_placement: str = "before"  # relative to the query optimizer step
    tau: float = 0.2
    fusion: str = "mean_norm"
    view_size: int = 0  # 0: use the dataset's native size
    base_lr: float = 0.0  # 0: scale the reference rate by batch size
    warmup_fraction: float = 0.1
    warmup_start: float = 1e-4
    sgd_momentum: float = 0.9
    weight_decay: float = 1e-4
    standardize_augmented: bool = True
    crop_scale: tuple[float, float] = (0.2, 1.0)
    blur_probability: float = 1.0
    snapshot_epochs: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.out_dir:  # run.json would land in the working directory
            raise ValidationError("out_dir must name a directory, got ''")
        if self.mode not in ("amimv", "simclr_baseline"):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.arch not in M.INPUT_DIVISOR:
            raise ValidationError(f"unknown arch {self.arch!r}")
        if self.ema_placement not in ("before", "after"):
            raise ValidationError(f"ema_placement must be before/after, got {self.ema_placement!r}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        outside = [e for e in self.snapshot_epochs if not 1 <= e <= self.epochs]
        if outside:
            raise ValidationError(f"snapshot_epochs must lie in [1, epochs={self.epochs}], got {outside}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.mode == "amimv" and self.batch_size < 2:
            raise ValidationError("amimv mode needs batch_size >= 2")
        if self.view_size < 0:
            raise ValidationError(f"view_size must be >= 0 (0: the dataset's size), got {self.view_size}")
        # int64, like the seed: far past it the schedule's step count or a layer's size overflows a float
        for key in ("epochs", "view_size"):
            if getattr(self, key) >= 2**63:
                raise ValidationError(f"{key} must be < 2**63, got {getattr(self, key)}")
        divisor = M.INPUT_DIVISOR[self.arch]
        if self.view_size % divisor:
            raise ValidationError(
                f"view_size must be divisible by {divisor} for arch {self.arch}, got {self.view_size}"
            )
        if not 0.0 <= self.ema_momentum <= 1.0:
            raise ValidationError(f"ema_momentum {self.ema_momentum} outside [0,1]")
        if not 0 <= self.seed < 2**63:  # the CLI's seed range; the draws hash the seed mod 2**64
            raise ValidationError(f"seed must be >= 0 and < 2**63, got {self.seed}")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ValidationError(f"warmup_fraction {self.warmup_fraction} outside [0,1]")
        losses.LossConfig(self.tau, self.fusion)  # rejects a bad tau or fusion by name
        scale = self.crop_scale
        if not (isinstance(scale, (tuple, list)) and len(scale) == 2):
            raise ValidationError(f"crop_scale must be lo:hi with 0 < lo <= hi <= 1, got {scale}")
        # rejects a crop_scale range or blur_probability outside its bounds by name
        AugmentConfig(crop_scale=tuple(scale), blur_probability=self.blur_probability)
        for key in ("base_lr", "weight_decay", "warmup_start"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(f"{key} must be finite and >= 0, got {value}")
        if not 0.0 <= self.sgd_momentum < 1.0:  # at 1 or more the velocity v <- mu*v + g grows without bound
            raise ValidationError(f"sgd_momentum {self.sgd_momentum} outside [0,1)")


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _to_float(value) -> float:
    """A number as a float; an int past the float range reads as +-inf, as its decimal string does."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# Per type of a field's default: which JSON values it takes, how a string (a CLI override, or a JSON string
# for a field that is not one) parses, how a taken value is stored, and what a message calls the type.
_KINDS = {
    bool: (lambda v: isinstance(v, bool), lambda s: _BOOLEANS[s.lower()], bool, "true or false"),
    int: (_is_int, int, int, "an integer"),
    float: (_is_number, float, _to_float, "a number"),
    str: (lambda v: isinstance(v, str), str, str, "a string"),
    tuple: (
        lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v)),
        lambda s: tuple(map(float, s.split(":"))),
        lambda v: tuple(map(_to_float, v)),
        "two numbers",
    ),
    list: (
        lambda v: isinstance(v, list) and all(map(_is_int, v)),
        lambda s: list(map(int, s.split(":"))) if s else [],
        list,
        "a list of integers",
    ),
}


def config_from_dict(data: dict, overrides: dict[str, str] | None = None) -> RunConfig:
    """Build a RunConfig from JSON data plus CLI overrides (field name to string), the overrides winning."""
    merged = dict(data) | (overrides or {})
    unknown = sorted(set(merged) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ValidationError(f"unknown config key(s): {', '.join(unknown)}")
    defaults = RunConfig()
    typed = {}
    for key, value in merged.items():
        kind = type(getattr(defaults, key))
        accepts, parse, store, expected = _KINDS[kind]
        if isinstance(value, str):
            try:
                value = parse(value)
            except (ValueError, KeyError):
                problem = "expected true/false/yes/no/1/0, got" if kind is bool else "cannot parse"
                raise ValidationError(f"{key}: {problem} {value!r}") from None
        if not accepts(value):
            raise ValidationError(f"{key}: expected {expected}, got {value!r}")
        typed[key] = store(value)
    return RunConfig(**typed)


def resolve_view_size(config: RunConfig, dataset: ImageDataset) -> int:
    if config.view_size:
        return config.view_size
    size = dataset.image_size
    if size % M.INPUT_DIVISOR[config.arch] == 0:
        return size
    return 64  # the published recipe's resize target


def augment_config_for(config: RunConfig, view_size: int) -> AugmentConfig:
    return AugmentConfig(
        crop_output=view_size,
        crop_scale=tuple(config.crop_scale),
        blur_probability=config.blur_probability,
        standardize_augmented=config.standardize_augmented,
    )


# ---------------------------------------------------------------------------
# pretraining loop


@dataclass
class TrainResult:
    epoch_losses: list[float]
    pair: M.EncoderPair


def _write_log(out_dir: str, rows: list[tuple[int, float, float]]) -> None:
    text = csv_text([["epoch", "mean_loss", "lr"]] + [[e, f"{m:.8f}", f"{lr:.8f}"] for e, m, lr in rows])
    atomic_write_text(os.path.join(out_dir, "log.csv"), text)


def pretrain(config: RunConfig, dataset: ImageDataset | None = None) -> TrainResult:
    """Run the full pretraining loop; writes the checkpoint, log.csv and, last, run.json, so a run that
    stops early leaves no run.json describing a checkpoint it never wrote.

    An out_dir holding an ``epoch_<n>/`` snapshot that this run's snapshot_epochs would not rewrite is
    refused before the dataset is resolved: beside this run's checkpoint it would pass for one of its own.
    Nothing is deleted."""
    root, ours = config.out_dir, {f"epoch_{e}" for e in config.snapshot_epochs}
    stale = sorted(
        n for n in (os.listdir(root) if os.path.isdir(root) else [])
        if re.fullmatch(r"epoch_[0-9]+", n) and n not in ours and os.path.isdir(os.path.join(root, n))
    )
    if stale:
        raise ValidationError(
            f"{root} holds snapshot(s) {', '.join(n + '/' for n in stale)} that this run's snapshot_epochs "
            "would not rewrite; move them or choose another out_dir"
        )
    if dataset is None:
        dataset = resolve_dataset(config.dataset, seed=config.seed)
    view_size = resolve_view_size(config, dataset)
    aug_cfg = augment_config_for(config, view_size)
    enc_cfg = M.EncoderConfig(
        arch=config.arch, input_channels=dataset.channels, input_size=view_size
    )
    pair = M.init_pair(enc_cfg, seed=config.seed, momentum=config.ema_momentum)
    loss_cfg = losses.LossConfig(tau=config.tau, fusion=config.fusion)
    opt = OptimState(momentum=config.sgd_momentum, weight_decay=config.weight_decay)
    stream = RngStream(config.seed)
    stats = dataset.channel_stats
    images, _ = dataset.splits["train"]
    steps_per_epoch = images.shape[0] // config.batch_size
    if steps_per_epoch == 0:
        raise ValidationError(
            f"train split of {images.shape[0]} images is smaller than batch_size {config.batch_size}"
        )
    schedule = Schedule(
        base_lr=config.base_lr or base_lr_for_batch(config.batch_size),
        total_steps=config.epochs * steps_per_epoch,
        warmup_fraction=config.warmup_fraction,
        warmup_start=config.warmup_start,
    )

    # the mode picks the query views, the key views and the objective; the step below is one path
    if config.mode == "amimv":
        objective = partial(losses.amimv_loss, config=loss_cfg)
    else:
        objective = partial(losses.nt_xent, tau=loss_cfg.tau)

    log_rows: list[tuple[int, float, float]] = []
    # an overflow shows as the non-finite loss or parameter checked below, not as warning lines on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            # batch -2 keeps the shuffle keys apart from the view keys (batch >= 0)
            order = stream.permutation(images.shape[0], epoch, -2, 0)
            batch_losses = []
            # drop-last: the len(order) % batch_size images at the tail of the shuffle are not a batch
            for batch_index in range(steps_per_epoch):
                lr = lr_at(pair.step, schedule)
                start = batch_index * config.batch_size
                batch_images = images[order[start : start + config.batch_size]]
                if config.mode == "amimv":
                    batch = build_amimv_batch(batch_images, stats, aug_cfg, stream, epoch, batch_index)
                    queries, keys = (batch.v1n, batch.v2a), (batch.v1a, batch.v2n)
                else:
                    n = batch_images.shape[0]
                    queries = tuple(
                        augment_view(batch_images, stats, aug_cfg, stream.items(n, epoch, batch_index, branch))
                        for branch in (1, 2)
                    )
                    keys = ()
                with T.Tape() as tape:
                    zq = [M.encode(pair.q_params, v, pair.config)[1] for v in queries]
                    with T.no_grad():
                        if keys and config.ema_placement == "before":
                            M.ema_update(pair)
                        zk = [M.encode(pair.k_params, v, pair.config)[1] for v in keys]
                    loss = objective(*zq, *zk)
                T.backward(loss, tape)
                sgd_step(pair.q_params, opt, lr)
                if keys and config.ema_placement == "after":
                    M.ema_update(pair)
                loss_value = loss.item()
                if not math.isfinite(loss_value):
                    raise NumericError(f"non-finite loss {loss_value} at epoch {epoch}, step {pair.step}")
                batch_losses.append(loss_value)
                pair.step += 1
            log_rows.append((epoch, float(np.mean(batch_losses)), lr))
            # the epoch's last step may have overflowed a parameter after its loss was checked: no checkpoint
            # is written then, as load_checkpoint would reject it
            for encoder, params in (("query", pair.q_params), ("key", pair.k_params)):
                bad = [name for name, p in params.items() if not np.isfinite(p.data).all()]
                if bad:
                    raise NumericError(f"{encoder} parameter {bad[0]!r} is not finite after step {pair.step}")
            if epoch in config.snapshot_epochs:
                M.save_checkpoint(pair, os.path.join(config.out_dir, f"epoch_{epoch}"))

    M.save_checkpoint(pair, config.out_dir)
    _write_log(config.out_dir, log_rows)
    atomic_write_text(
        os.path.join(config.out_dir, "run.json"),
        json.dumps(asdict(config) | {"view_size": view_size}, indent=2),
    )
    return TrainResult(epoch_losses=[row[1] for row in log_rows], pair=pair)
