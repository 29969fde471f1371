"""View construction for pretraining batches.

Every image contributes two views: a deterministic z-score-normalized
view, and a stochastically augmented view (color jitter, random resized
crop, horizontal flip, Gaussian blur). Views are built per batch: both
pipelines take `[N,H,W]` or `[N,H,W,C]` uint8 images and return one
`[N,C,S,S]` tensor. Only the per-image parameter draws run in a loop;
the pixel work runs on the whole batch. Batches pair each anchor with a
distinct counterpart image through a random derangement.

All randomness flows through counter-based substreams keyed by
(epoch, batch, item, transform), so results are independent of
evaluation order and of how images are grouped into batches.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ValidationError
from .tensor import Tensor

LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])


@dataclass
class AugmentConfig:
    """Augmentation recipe; defaults follow the pretraining setup."""

    jitter_brightness: float = 0.1
    jitter_contrast: float = 0.1
    jitter_saturation: float = 0.1
    jitter_hue: float = 0.01
    jitter_probability: float = 0.8
    crop_output: int = 64
    crop_scale: tuple[float, float] = (0.2, 1.0)
    crop_aspect: tuple[float, float] = (3 / 4, 4 / 3)
    flip_probability: float = 0.5
    blur_kernel: int = 3
    blur_sigma: tuple[float, float] = (0.1, 1.0)
    blur_probability: float = 1.0
    standardize_augmented: bool = True

    def __post_init__(self):
        for p in (self.jitter_probability, self.flip_probability, self.blur_probability):
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"probability {p} outside [0,1]")
        for name in ("crop_scale", "crop_aspect", "blur_sigma"):
            lo, hi = getattr(self, name)
            if not 0.0 < lo <= hi:
                raise ValidationError(f"{name} range ({lo}, {hi}) must be ordered and start above 0")
        if not self.crop_scale[1] <= 1.0:
            raise ValidationError(f"crop_scale range {self.crop_scale} must end at or below 1")
        if self.crop_output < 1:
            raise ValidationError("crop_output must be >= 1")
        if self.blur_kernel < 1 or self.blur_kernel % 2 == 0:
            raise ValidationError(f"blur_kernel must be odd and >= 1, got {self.blur_kernel}")


@dataclass
class AMIMVBatch:
    """Four view tensors plus the anchor-to-counterpart permutation."""

    v1n: Tensor
    v1a: Tensor
    v2n: Tensor
    v2a: Tensor
    pairing: np.ndarray


class RngStream:
    """Counter-based substreams: same key, same draws, any order."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def generator(self, *key: int) -> np.random.Generator:
        payload = struct.pack(f"<{len(key) + 1}q", self.seed, *[int(k) for k in key])
        digest = hashlib.blake2b(payload, digest_size=16).digest()
        words = struct.unpack("<2Q", digest)
        return np.random.Generator(np.random.Philox(key=words))

    def items(self, n: int, epoch: int, batch: int, branch: int) -> list[np.random.Generator]:
        """One generator per batch item, keyed (epoch, batch, item, branch)."""
        return [self.generator(epoch, batch, i, branch) for i in range(n)]


# ---------------------------------------------------------------------------
# primitive transforms on batches of float images in [0,1], shape [N,H,W,C];
# a factor is one scalar for all images or one per image, shaped [N,1,1,1]


def bilinear_resize(x: np.ndarray, boxes: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resample box ``(top, left, height, width)`` of each image to
    ``out_h x out_w`` with half-pixel-center bilinear weights; a whole-image
    box at the same size is the identity."""

    def taps(start, extent, out):
        pos = (np.arange(out) + 0.5) * extent / out - 0.5
        i0 = np.clip(np.floor(pos).astype(int), 0, extent - 1)
        i1 = np.minimum(i0 + 1, extent - 1)
        return start + i0, start + i1, np.clip(pos - i0, 0.0, 1.0)

    top, left, h, w = np.asarray(boxes).T[:, :, None]
    y0, y1, wy = taps(top, h, out_h)
    x0, x1, wx = taps(left, w, out_w)
    n = np.arange(x.shape[0])[:, None, None]
    y0, y1, x0, x1 = y0[:, :, None], y1[:, :, None], x0[:, None], x1[:, None]
    wy, wx = wy[:, :, None, None], wx[:, None, :, None]
    upper = x[n, y0, x0] * (1 - wx) + x[n, y0, x1] * wx
    lower = x[n, y1, x0] * (1 - wx) + x[n, y1, x1] * wx
    return upper * (1 - wy) + lower * wy


def gaussian_weights(sigma: float, k: int) -> np.ndarray:
    """Normalized 1-D Gaussian weights over the k integer offsets around 0.
    ``sigma`` is one Python float: its ``sigma**2`` (libm ``pow``) and a NumPy
    array square round differently for about 1 value in 1000."""
    r = k // 2
    ax = np.arange(-r, r + 1, dtype=np.float64)
    w = np.exp(-(ax**2) / (2.0 * sigma**2))
    return w / w.sum()


def gaussian_blur(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Separable blur of each image with its own row of 1-D ``weights``
    [N,k] from ``gaussian_weights``, with reflect padding."""
    k = weights.shape[1]
    r = k // 2
    w = weights[:, :, None, None, None]
    padded = np.pad(x, ((0, 0), (r, r), (0, 0), (0, 0)), mode="reflect")
    out = sum(w[:, i] * padded[:, i : i + x.shape[1]] for i in range(k))
    padded = np.pad(out, ((0, 0), (0, 0), (r, r), (0, 0)), mode="reflect")
    return sum(w[:, i] * padded[:, :, i : i + x.shape[2]] for i in range(k))


def _rgb_to_hsv(rgb: np.ndarray) -> np.ndarray:
    mx = rgb.max(axis=-1)
    mn = rgb.min(axis=-1)
    diff = mx - mn
    safe = np.where(diff > 0, diff, 1.0)
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    h = np.zeros_like(mx)
    h = np.where(mx == r, ((g - b) / safe) % 6.0, h)
    h = np.where(mx == g, (b - r) / safe + 2.0, h)
    h = np.where(mx == b, (r - g) / safe + 4.0, h)
    h = np.where(diff > 0, h / 6.0, 0.0)
    s = np.where(mx > 0, diff / np.where(mx > 0, mx, 1.0), 0.0)
    return np.stack([h, s, mx], axis=-1)


def _hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    h, s, v = hsv[..., 0] % 1.0, hsv[..., 1], hsv[..., 2]
    i = np.floor(h * 6.0).astype(int) % 6
    f = h * 6.0 - np.floor(h * 6.0)
    p = v * (1 - s)
    q = v * (1 - f * s)
    t = v * (1 - (1 - f) * s)
    choices = np.stack(
        [
            np.stack([v, t, p], -1), np.stack([q, v, p], -1), np.stack([p, v, t], -1),
            np.stack([p, q, v], -1), np.stack([t, p, v], -1), np.stack([v, p, q], -1),
        ],
        axis=0,
    )
    return np.take_along_axis(choices, i[None, ..., None], axis=0)[0]


def adjust_brightness(img: np.ndarray, factor) -> np.ndarray:
    return np.clip(img * factor, 0.0, 1.0)


def adjust_contrast(img: np.ndarray, factor) -> np.ndarray:
    gray = img @ LUMA_WEIGHTS if img.shape[-1] == 3 else img
    mean = gray.reshape(len(img), -1).mean(axis=1)[:, None, None, None]
    return np.clip(mean + factor * (img - mean), 0.0, 1.0)


def adjust_saturation(img: np.ndarray, factor) -> np.ndarray:
    if img.shape[-1] != 3:
        return img
    gray = (img @ LUMA_WEIGHTS)[..., None]
    return np.clip(gray + factor * (img - gray), 0.0, 1.0)


def adjust_hue(img: np.ndarray, delta_turns) -> np.ndarray:
    if img.shape[-1] != 3:
        return img
    hsv = _rgb_to_hsv(img)
    hsv[..., :1] = (hsv[..., :1] + delta_turns) % 1.0
    return np.clip(_hsv_to_rgb(hsv), 0.0, 1.0)


# ---------------------------------------------------------------------------
# view pipelines


def _to_float_nhwc(images: np.ndarray) -> np.ndarray:
    x = images.astype(np.float64) / 255.0
    return x[..., None] if x.ndim == 3 else x


def _to_tensor(x: np.ndarray, stats) -> Tensor:
    """[N,H,W,C] floats -> float32 [N,C,H,W], z-scored unless stats is None."""
    if stats is not None:
        mean, std = stats
        x = (x - np.asarray(mean)) / np.asarray(std)
    return Tensor(x.transpose(0, 3, 1, 2), dtype=np.float32)


def normalize_view(images: np.ndarray, stats, size: int) -> Tensor:
    """Rescale to [0,1], resize, and z-score with train statistics."""
    x = _to_float_nhwc(images)
    n, h, w, _ = x.shape
    if (h, w) != (size, size):
        x = bilinear_resize(x, np.tile([0, 0, h, w], (n, 1)), size, size)
    return _to_tensor(x, stats)


def _sample_crop(rng: np.random.Generator, h: int, w: int, config: AugmentConfig):
    area = h * w
    for _ in range(10):
        frac = rng.uniform(*config.crop_scale)
        log_lo, log_hi = np.log(config.crop_aspect[0]), np.log(config.crop_aspect[1])
        aspect = np.exp(rng.uniform(log_lo, log_hi))
        target = frac * area
        cw = int(round(np.sqrt(target * aspect)))
        ch = int(round(np.sqrt(target / aspect)))
        if 0 < cw <= w and 0 < ch <= h:
            top = int(rng.integers(0, h - ch + 1))
            left = int(rng.integers(0, w - cw + 1))
            return top, left, ch, cw
    # fallback: center crop of the largest in-range square
    side = min(h, w)
    return (h - side) // 2, (w - side) // 2, side, side


def augment_view(images: np.ndarray, stats, config: AugmentConfig, rngs) -> Tensor:
    """Apply jitter, random resized crop, flip, and blur, then standardize.

    ``rngs`` holds one generator per image. Each image draws its parameters
    from its own generator in a fixed order regardless of which transforms
    fire, so its view does not depend on the rest of the batch.
    """
    x = _to_float_nhwc(images)
    n, h, w, _ = x.shape
    if len(rngs) != n:
        raise ContractError(f"augment_view got {len(rngs)} generators for {n} images")

    def draw(rng):
        jitter = rng.uniform() < config.jitter_probability
        factors = (
            rng.uniform(1 - config.jitter_brightness, 1 + config.jitter_brightness),
            rng.uniform(1 - config.jitter_contrast, 1 + config.jitter_contrast),
            rng.uniform(1 - config.jitter_saturation, 1 + config.jitter_saturation),
            rng.uniform(-config.jitter_hue, config.jitter_hue),
        )
        order = rng.permutation(4)
        box = _sample_crop(rng, h, w, config)
        flip = rng.uniform() < config.flip_probability
        weights = gaussian_weights(rng.uniform(*config.blur_sigma), config.blur_kernel)
        return jitter, factors, order, box, flip, weights, rng.uniform() < config.blur_probability

    jitter, factors, order, boxes, flip, weights, blur = map(np.array, zip(*map(draw, rngs)))

    # 1. color jitter: the four sub-transforms in each image's own order
    steps = (adjust_brightness, adjust_contrast, adjust_saturation, adjust_hue)
    for position in range(4):
        for j, step in enumerate(steps):
            sel = jitter & (order[:, position] == j)
            if sel.any():
                x[sel] = step(x[sel], factors[sel, j][:, None, None, None])

    # 2. random resized crop, 3. horizontal flip, 4. Gaussian blur
    x = bilinear_resize(x, boxes, config.crop_output, config.crop_output)
    x[flip] = x[flip, :, ::-1]
    if blur.any():
        x[blur] = gaussian_blur(x[blur], weights[blur])
    return _to_tensor(x, stats if config.standardize_augmented else None)


def random_derangement(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random fixed-point-free permutation, by rejection."""
    if n < 2:
        raise ValidationError(f"derangement needs n >= 2, got {n}")
    while True:
        perm = rng.permutation(n)
        if not np.any(perm == np.arange(n)):
            return perm


def build_amimv_batch(
    images: np.ndarray,
    stats,
    config: AugmentConfig,
    rng: RngStream,
    epoch: int = 0,
    batch: int = 0,
) -> AMIMVBatch:
    """Emit the four per-image view tensors and the pairing permutation."""
    n = images.shape[0]
    if n < 2:
        raise ValidationError(f"an AMIMV batch needs >= 2 images, got {n}")
    pairing = random_derangement(n, rng.generator(epoch, batch, -1, 0))
    v1n = normalize_view(images, stats, config.crop_output)
    v1a = augment_view(images, stats, config, rng.items(n, epoch, batch, 1))
    v2a = augment_view(images[pairing], stats, config, rng.items(n, epoch, batch, 2))
    return AMIMVBatch(v1n=v1n, v1a=v1a, v2n=Tensor(v1n.data[pairing]), v2a=v2a, pairing=pairing)
