"""Desk-scale convolutional encoder with a momentum-paired twin.

Each architecture is one table, ``ARCHS[arch]``, of its layers in forward
order: ``tiny`` (two conv layers) for tests and the standard desk
experiments, ``small_residual`` (a stem and four residual blocks) for larger
runs. ``layer_shapes`` walks a table on shapes alone; ``param_specs``,
``EncoderConfig.feature_dim`` and ``INPUT_DIVISOR`` derive from it, and
``encode`` runs it. Both end in a three-layer MLP projection head (hidden
512, output 128, L2-normalized). The key encoder is a gradient-free copy of
the query encoder, updated by EMA.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .errors import DimensionError, ValidationError
from .fsutil import atomic_write_bytes, atomic_write_text
from .tensor import Tensor

GN_EPS = 1e-5
GN_GROUPS = 8

# Rows: ("conv_gn", conv, gn, c) is a 3x3 conv to c channels, then group norm and ReLU; ("block", name, c)
# a residual block to c channels; ("pool",) a 2x2 average pool; ("feat", d) flatten, then linear to d.
ARCHS = {
    "tiny": (
        ("conv_gn", "conv1", "gn1", 8), ("pool",),
        ("conv_gn", "conv2", "gn2", 16), ("pool",),
        ("feat", 64),
    ),
    "small_residual": (
        ("conv_gn", "stem", "stem_gn", 32),
        ("block", "block0", 32), ("pool",),
        ("block", "block1", 64), ("pool",),
        ("block", "block2", 128), ("pool",),
        ("block", "block3", 256), ("pool",),
        ("feat", 256),
    ),
}
INPUT_DIVISOR = {arch: 2 ** rows.count(("pool",)) for arch, rows in ARCHS.items()}  # total downsampling


@dataclass
class EncoderConfig:
    arch: str = "tiny"
    input_channels: int = 1
    input_size: int = 28
    projector_hidden: int = 512
    projector_out: int = 128

    def __post_init__(self):
        if not isinstance(self.arch, str) or self.arch not in ARCHS:
            raise ValidationError(f"unknown arch {self.arch!r}")
        for name in ("input_channels", "input_size", "projector_hidden", "projector_out"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        divisor = INPUT_DIVISOR[self.arch]
        if self.input_size % divisor:
            raise ValidationError(
                f"{self.arch} needs input_size divisible by {divisor}, got {self.input_size}"
            )

    @property
    def feature_dim(self) -> int:
        return ARCHS[self.arch][-1][1]


@dataclass
class EncoderPair:
    """Query/key parameter sets with EMA linkage."""

    config: EncoderConfig
    q_params: dict[str, Tensor]
    k_params: dict[str, Tensor]
    momentum: float = 0.99
    step: int = 0


# ---------------------------------------------------------------------------
# layer walk and initialization


def _he_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def _conv_gn_specs(conv: str, gn: str, c: int, cin: int) -> list:
    return [(f"{conv}.w", (c, cin, 3, 3)), (f"{conv}.b", (c,)), (f"{gn}.gamma", (c,)), (f"{gn}.beta", (c,))]


def layer_shapes(cfg: EncoderConfig):
    """Walk cfg's layer table on shapes alone, allocating no array. Yield, per layer in forward order, its
    row, its per-image input and output shapes ((C, H, W), or (D,) after "feat") and its parameter specs."""
    shape = (cfg.input_channels, cfg.input_size, cfg.input_size)
    for row in ARCHS[cfg.arch]:
        kind, cin = row[0], shape[0]
        if kind == "pool":
            out, specs = (cin, shape[1] // 2, shape[2] // 2), []
        elif kind == "feat":
            out = (row[1],)
            specs = [("feat.w", (math.prod(shape), row[1])), ("feat.b", out)]
        elif kind == "conv_gn":
            out, specs = (row[3],) + shape[1:], _conv_gn_specs(row[1], row[2], row[3], cin)
        else:  # a residual block, with a skip conv where the channel count changes
            p, c = row[1:]
            out = (c,) + shape[1:]
            specs = _conv_gn_specs(f"{p}.conv1", f"{p}.gn1", c, cin)
            specs += _conv_gn_specs(f"{p}.conv2", f"{p}.gn2", c, c)
            if cin != c:
                specs.append((f"{p}.skip.w", (c, cin, 1, 1)))
        yield row, shape, out, specs
        shape = out


def param_specs(cfg: EncoderConfig):
    d, h, o = cfg.feature_dim, cfg.projector_hidden, cfg.projector_out
    return [spec for *_, specs in layer_shapes(cfg) for spec in specs] + [
        ("proj1.w", (d, h)), ("proj1.b", (h,)),
        ("proj2.w", (h, h)), ("proj2.b", (h,)),
        ("proj3.w", (h, o)), ("proj3.b", (o,)),
    ]


def _init_value(rng: np.random.Generator, name: str, shape) -> np.ndarray:
    if name.endswith(".gamma"):
        return np.ones(shape, dtype=np.float32)
    if name.endswith((".beta", ".b")):
        return np.zeros(shape, dtype=np.float32)
    fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else int(shape[0])
    return _he_uniform(rng, shape, fan_in)


def init_pair(config: EncoderConfig, seed: int, momentum: float = 0.99) -> EncoderPair:
    """He-uniform weights, zero biases; k starts as an exact copy of q."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    q = {}
    k = {}
    for name, shape in param_specs(config):
        value = _init_value(rng, name, shape)
        q[name] = Tensor(value, requires_grad=True)
        k[name] = Tensor(value.copy(), requires_grad=False)
    return EncoderPair(config=config, q_params=q, k_params=k, momentum=momentum)


# ---------------------------------------------------------------------------
# forward pass


def _group_norm(x: Tensor, p: dict, prefix: str, relu: bool = False) -> Tensor:
    return T.group_norm(x, p[f"{prefix}.gamma"], p[f"{prefix}.beta"], GN_GROUPS, GN_EPS, relu=relu)


def _conv_block(x: Tensor, p: dict, prefix: str) -> Tensor:
    return T.conv2d(x, p[f"{prefix}.w"], stride=1, padding=1, bias=p[f"{prefix}.b"])


# one op per statement: rebinding h frees each activation of a no-tape pass as soon as the next op returns
def _residual_block(p: dict, x: Tensor, prefix: str) -> Tensor:
    h = _conv_block(x, p, f"{prefix}.conv1")
    h = _group_norm(h, p, f"{prefix}.gn1", relu=True)
    h = _conv_block(h, p, f"{prefix}.conv2")
    h = _group_norm(h, p, f"{prefix}.gn2")
    skip = x
    if f"{prefix}.skip.w" in p:
        skip = T.conv2d(x, p[f"{prefix}.skip.w"], stride=1, padding=0)
    return T.relu(T.add(h, skip))


def encode(
    pair_params: dict[str, Tensor], batch: Tensor, config: EncoderConfig, project: bool = True
) -> tuple[Tensor, Tensor | None]:
    """Return (pre-projector features [N,D], L2-normalized projections [N,128]); with ``project=False``
    the projection head does not run and the second item is None (feature extraction reads only the
    features)."""
    expected = (config.input_channels, config.input_size, config.input_size)
    if batch.data.ndim != 4 or batch.shape[1:] != expected:
        raise DimensionError(f"batch shape {batch.shape} does not match {('N',) + expected}")
    features = batch
    for row in ARCHS[config.arch]:  # ops and helpers are looked up at call time, so tracing can wrap them
        if row[0] == "conv_gn":
            features = _conv_block(features, pair_params, row[1])
            features = _group_norm(features, pair_params, row[2], relu=True)
        elif row[0] == "block":
            features = _residual_block(pair_params, features, row[1])
        elif row[0] == "pool":
            features = T.avg_pool2d(features, 2)
        else:  # linear reads the pooled map [N, C, H, W] as [N, C*H*W]
            features = T.linear(features, pair_params["feat.w"], pair_params["feat.b"])
    if not project:
        return features, None
    h = T.relu(T.linear(features, pair_params["proj1.w"], pair_params["proj1.b"]))
    h = T.relu(T.linear(h, pair_params["proj2.w"], pair_params["proj2.b"]))
    h = T.linear(h, pair_params["proj3.w"], pair_params["proj3.b"])
    return features, T.l2_normalize(h)


# ---------------------------------------------------------------------------
# EMA and checkpoints


def ema_update(pair: EncoderPair) -> None:
    """k <- m*k + (1-m)*q for every parameter; q untouched."""
    m = pair.momentum
    for name, q in pair.q_params.items():
        k = pair.k_params[name]
        k.data = (m * k.data + (1.0 - m) * q.data).astype(np.float32, copy=False)


def save_checkpoint(pair: EncoderPair, directory: str) -> None:
    """Write manifest.json plus a little-endian float32 parameter blob."""
    names = [name for name, _ in param_specs(pair.config)]
    # one copy of the parameters, hashed and written through the buffer protocol
    blob = np.concatenate(
        [params[n].data.ravel() for params in (pair.q_params, pair.k_params) for n in names]
    ).astype("<f4", copy=False)
    manifest = {
        **asdict(pair.config),
        "momentum": pair.momentum,
        "step": pair.step,
        "dtype": "float32",
        "params": [
            {"name": n, "shape": list(pair.q_params[n].shape)} for n in names
        ],
        "blob_blake2b": hashlib.blake2b(blob).hexdigest(),
    }
    atomic_write_text(os.path.join(directory, "manifest.json"), json.dumps(manifest, indent=2))
    atomic_write_bytes(os.path.join(directory, "checkpoint.bin"), blob)


# the int fields of EncoderConfig, in order, then the EMA step count
_MANIFEST_INTS = tuple(f.name for f in fields(EncoderConfig) if isinstance(f.default, int)) + ("step",)


def load_checkpoint(directory: str) -> EncoderPair:
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValidationError(f"manifest.json must hold a JSON object, got {type(manifest).__name__}")
    for key in ("arch", "dtype", "params"):
        if key not in manifest:
            raise ValidationError(f"manifest.json has no {key!r} entry")
    for key in _MANIFEST_INTS:
        value = manifest.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValidationError(f"manifest {key} must be a non-negative integer, got {value!r}")
    momentum = manifest.get("momentum")
    if isinstance(momentum, bool) or not isinstance(momentum, (int, float)) or not 0.0 <= momentum <= 1.0:
        raise ValidationError(f"manifest momentum must be a number in [0,1], got {momentum!r}")
    config = EncoderConfig(**{f.name: manifest[f.name] for f in fields(EncoderConfig)})
    entries = [{"name": n, "shape": list(shape)} for n, shape in param_specs(config)]
    if manifest["dtype"] != "float32":
        raise ValidationError(f"checkpoint dtype {manifest['dtype']!r} is not float32")
    if manifest["params"] != entries:
        raise ValidationError(
            f"checkpoint params do not match the names and shapes of a {config.arch} encoder"
        )
    with open(os.path.join(directory, "checkpoint.bin"), "rb") as fh:
        blob = fh.read()
    if manifest.get("blob_blake2b") != hashlib.blake2b(blob).hexdigest():
        raise ValidationError("checkpoint.bin does not match the blob_blake2b digest in manifest.json")
    sizes = [int(np.prod(e["shape"])) for e in entries]
    expected = 2 * 4 * sum(sizes)
    if len(blob) != expected:
        raise ValidationError(f"checkpoint blob is {len(blob)} bytes, expected {expected}")
    flat = np.frombuffer(blob, dtype="<f4")
    q = {}
    k = {}
    offset = 0
    for target, grad in ((q, True), (k, False)):
        for e, size in zip(entries, sizes):
            arr = flat[offset : offset + size].reshape(e["shape"]).copy()
            if not np.isfinite(arr).all():
                encoder = "query" if grad else "key"
                raise ValidationError(f"checkpoint {encoder} parameter {e['name']!r} is not finite")
            target[e["name"]] = Tensor(arr, requires_grad=grad)
            offset += size
    return EncoderPair(
        config=config, q_params=q, k_params=k,
        momentum=manifest["momentum"], step=manifest["step"],
    )
