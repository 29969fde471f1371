"""Desk-scale convolutional encoder with a momentum-paired twin.

Two architectures: ``tiny`` (two conv blocks, 64-d features) for tests
and the standard desk experiments, and ``small_residual`` (four residual
blocks, 256-d features) for larger runs. Both end in a three-layer MLP
projection head (hidden 512, output 128, L2-normalized). The key encoder
is a gradient-free copy of the query encoder, updated by EMA.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .errors import DimensionError, ValidationError
from .fsutil import atomic_write_bytes, atomic_write_text
from .tensor import Tensor

GN_EPS = 1e-5
GN_GROUPS = 8
INPUT_DIVISOR = {"tiny": 4, "small_residual": 16}  # the encoder's total downsampling


@dataclass
class EncoderConfig:
    arch: str = "tiny"
    input_channels: int = 1
    input_size: int = 28
    projector_hidden: int = 512
    projector_out: int = 128

    def __post_init__(self):
        if self.arch not in INPUT_DIVISOR:
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
        return 64 if self.arch == "tiny" else 256


@dataclass
class EncoderPair:
    """Query/key parameter sets with EMA linkage."""

    config: EncoderConfig
    q_params: dict[str, Tensor]
    k_params: dict[str, Tensor]
    momentum: float = 0.99
    step: int = 0


# ---------------------------------------------------------------------------
# initialization


def _he_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def _tiny_param_specs(cfg: EncoderConfig):
    s = cfg.input_size
    flat = 16 * (s // 4) * (s // 4)
    return [
        ("conv1.w", (8, cfg.input_channels, 3, 3)),
        ("conv1.b", (8,)),
        ("gn1.gamma", (8,)),
        ("gn1.beta", (8,)),
        ("conv2.w", (16, 8, 3, 3)),
        ("conv2.b", (16,)),
        ("gn2.gamma", (16,)),
        ("gn2.beta", (16,)),
        ("feat.w", (flat, 64)),
        ("feat.b", (64,)),
    ]


_SR_CHANNELS = [32, 64, 128, 256]


def _small_residual_param_specs(cfg: EncoderConfig):
    specs = [
        ("stem.w", (_SR_CHANNELS[0], cfg.input_channels, 3, 3)),
        ("stem.b", (_SR_CHANNELS[0],)),
        ("stem_gn.gamma", (_SR_CHANNELS[0],)),
        ("stem_gn.beta", (_SR_CHANNELS[0],)),
    ]
    cin = _SR_CHANNELS[0]
    for i, cout in enumerate(_SR_CHANNELS):
        p = f"block{i}"
        specs += [
            (f"{p}.conv1.w", (cout, cin, 3, 3)),
            (f"{p}.conv1.b", (cout,)),
            (f"{p}.gn1.gamma", (cout,)),
            (f"{p}.gn1.beta", (cout,)),
            (f"{p}.conv2.w", (cout, cout, 3, 3)),
            (f"{p}.conv2.b", (cout,)),
            (f"{p}.gn2.gamma", (cout,)),
            (f"{p}.gn2.beta", (cout,)),
        ]
        if cin != cout:
            specs.append((f"{p}.skip.w", (cout, cin, 1, 1)))
        cin = cout
    s = cfg.input_size // 16
    specs += [("feat.w", (_SR_CHANNELS[-1] * s * s, 256)), ("feat.b", (256,))]
    return specs


def _projector_param_specs(cfg: EncoderConfig):
    d, h, o = cfg.feature_dim, cfg.projector_hidden, cfg.projector_out
    return [
        ("proj1.w", (d, h)), ("proj1.b", (h,)),
        ("proj2.w", (h, h)), ("proj2.b", (h,)),
        ("proj3.w", (h, o)), ("proj3.b", (o,)),
    ]


def param_specs(cfg: EncoderConfig):
    enc = _tiny_param_specs(cfg) if cfg.arch == "tiny" else _small_residual_param_specs(cfg)
    return enc + _projector_param_specs(cfg)


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


def _encode_tiny(p: dict, x: Tensor) -> Tensor:
    h = _conv_block(x, p, "conv1")
    h = T.avg_pool2d(_group_norm(h, p, "gn1", relu=True), 2)
    h = _conv_block(h, p, "conv2")
    h = T.avg_pool2d(_group_norm(h, p, "gn2", relu=True), 2)
    flat = T.reshape(h, (h.shape[0], h.shape[1] * h.shape[2] * h.shape[3]))
    return T.linear(flat, p["feat.w"], p["feat.b"])


def _residual_block(p: dict, x: Tensor, prefix: str) -> Tensor:
    h = _conv_block(x, p, f"{prefix}.conv1")
    h = _group_norm(h, p, f"{prefix}.gn1", relu=True)
    h = _conv_block(h, p, f"{prefix}.conv2")
    h = _group_norm(h, p, f"{prefix}.gn2")
    skip = x
    if f"{prefix}.skip.w" in p:
        skip = T.conv2d(x, p[f"{prefix}.skip.w"], stride=1, padding=0)
    return T.relu(T.add(h, skip))


def _encode_small_residual(p: dict, x: Tensor) -> Tensor:
    h = _conv_block(x, p, "stem")
    h = _group_norm(h, p, "stem_gn", relu=True)
    for i in range(4):
        h = _residual_block(p, h, f"block{i}")
        h = T.avg_pool2d(h, 2)
    flat = T.reshape(h, (h.shape[0], h.shape[1] * h.shape[2] * h.shape[3]))
    return T.linear(flat, p["feat.w"], p["feat.b"])


def encode(
    pair_params: dict[str, Tensor], batch: Tensor, config: EncoderConfig, project: bool = True
) -> tuple[Tensor, Tensor | None]:
    """Return (pre-projector features [N,D], L2-normalized projections [N,128]); with ``project=False``
    the projection head does not run and the second item is None (feature extraction reads only the
    features)."""
    expected = (config.input_channels, config.input_size, config.input_size)
    if batch.data.ndim != 4 or batch.shape[1:] != expected:
        raise DimensionError(f"batch shape {batch.shape} does not match {('N',) + expected}")
    if config.arch == "tiny":
        features = _encode_tiny(pair_params, batch)
    else:
        features = _encode_small_residual(pair_params, batch)
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
    os.makedirs(directory, exist_ok=True)
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
