"""View construction for pretraining batches.

Every image contributes two views: a deterministic z-score-normalized
view, and a stochastically augmented view (color jitter, random resized
crop, horizontal flip, Gaussian blur). Views are built per batch: both
pipelines take `[N,H,W]` or `[N,H,W,C]` uint8 images and return one
`[N,C,S,S]` tensor, and neither loops over images: a batch's augmentation
parameters are one array of draws and the pixel work runs on the whole
batch. Batches pair each anchor with a distinct counterpart image through
a random derangement.

Augmentation draws come from a counter-based hash (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11) built on the
SplitMix64 finalizer (Steele et al., OOPSLA'14) and keyed by (seed, epoch,
batch, item, branch, slot). The epoch shuffle and the pairing are the
argsort of the same hash's item keys, so every draw of a run is a pure
function of its key. Results are independent of evaluation order and
of how images are grouped into batches.
"""

from __future__ import annotations

import itertools
import math
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
        for name in ("jitter_brightness", "jitter_contrast", "jitter_saturation", "jitter_hue"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(f"{name} must be finite and >= 0, got {value}")
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


_MASK = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _mix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer on a uint64 array (wrapping arithmetic)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _absorb(state: np.ndarray, word) -> np.ndarray:
    """XOR one key word (an int taken mod 2**64, or a uint64 array) into the
    state, then take one SplitMix64 step: add the gamma and finalize."""
    if not isinstance(word, np.ndarray):
        word = np.uint64(int(word) & _MASK)
    return _mix64((state ^ word) + _GAMMA)


def uniforms(keys: np.ndarray, slots: int) -> np.ndarray:
    """``[N, slots]`` float64 draws in [0, 1): slot j of key k is the top 53
    bits of SplitMix64's (j+1)-th output from state k."""
    steps = _GAMMA * np.arange(1, slots + 1, dtype=np.uint64)
    bits = _mix64(np.asarray(keys, dtype=np.uint64)[:, None] + steps) >> np.uint64(11)
    return bits * 2.0**-53


class RngStream:
    """Counter-based substreams: same key, same draws, any order."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def items(self, n: int, epoch: int, batch: int, branch: int) -> np.ndarray:
        """``[n]`` uint64 keys, one per batch item, hashed from
        (seed, epoch, batch, item, branch) in that order; feed them to
        `uniforms`. Slicing the keys selects items."""
        state = np.zeros(n, dtype=np.uint64)
        for word in (self.seed, epoch, batch, np.arange(n, dtype=np.uint64), branch):
            state = _absorb(state, word)
        return state

    def permutation(self, n: int, epoch: int, batch: int, branch: int) -> np.ndarray:
        """A uniform random permutation of ``range(n)``: the argsort of the
        item keys, which are distinct because each SplitMix64 step is a
        bijection of the 64-bit state."""
        return np.argsort(self.items(n, epoch, batch, branch))


# ---------------------------------------------------------------------------
# primitive transforms on batches of float images in [0,1], shape [N,H,W,C];
# a factor is one scalar for all images or one per image, shaped [N,1,1,1]


def _interpolation_matrix(start, extent, out: int, size: int) -> np.ndarray:
    """``[N, out, size]`` half-pixel-center bilinear weights that resample
    ``extent`` pixels from ``start`` (both ``[N, 1]``) of an axis of
    ``size`` pixels to ``out``; each row holds the two taps of one output."""
    pos = (np.arange(out) + 0.5) * extent / out - 0.5
    i0 = np.clip(np.floor(pos).astype(int), 0, extent - 1)
    i1 = np.minimum(i0 + 1, extent - 1)
    wt = np.clip(pos - i0, 0.0, 1.0)
    near = np.zeros(i0.shape + (size,))
    far = np.zeros(i0.shape + (size,))
    np.put_along_axis(near, (start + i0)[..., None], (1 - wt)[..., None], axis=-1)
    np.put_along_axis(far, (start + i1)[..., None], wt[..., None], axis=-1)
    return near + far


def crop_matrices(boxes, out_h: int, out_w: int, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Row ``[N, out_h, h]`` and column ``[N, out_w, w]`` matrices that
    resample box ``(top, left, height, width)`` of each ``h x w`` image to
    ``out_h x out_w`` with half-pixel-center bilinear weights."""
    top, left, box_h, box_w = np.asarray(boxes).T[:, :, None]
    return _interpolation_matrix(top, box_h, out_h, h), _interpolation_matrix(left, box_w, out_w, w)


def apply_separable(x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``rows[n] @ x[n, :, :, c] @ cols[n].T`` for each image n and channel c
    of ``[N,H,W,C]`` images, as two batched matmuls."""
    n, h, w, c = x.shape
    out_w = cols.shape[1]
    x = x.transpose(0, 1, 3, 2).reshape(n, h * c, w) @ cols.transpose(0, 2, 1)
    x = rows @ x.reshape(n, h, c * out_w)
    return x.reshape(n, -1, c, out_w).transpose(0, 1, 3, 2)


def bilinear_resize(x: np.ndarray, boxes: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resample box ``(top, left, height, width)`` of each image to
    ``out_h x out_w``; a whole-image box at the same size is the identity."""
    return apply_separable(x, *crop_matrices(boxes, out_h, out_w, x.shape[1], x.shape[2]))


def gaussian_weights(sigma, k: int) -> np.ndarray:
    """Normalized 1-D Gaussian weights over the k integer offsets around 0,
    one row ``[..., k]`` per entry of ``sigma``."""
    r = k // 2
    ax = np.arange(-r, r + 1, dtype=np.float64)
    w = np.exp(-(ax**2) / (2.0 * np.square(np.asarray(sigma, dtype=np.float64))[..., None]))
    return w / w.sum(axis=-1, keepdims=True)


def blur_matrix(weights: np.ndarray, size: int) -> np.ndarray:
    """``[N, size, size]``: each image's 1-D blur with its row of ``weights``
    [N,k] under reflect padding (edge pixel not repeated), as a matrix; the
    separable 2-D blur applies it along rows and along columns."""
    r = weights.shape[1] // 2
    period = max(2 * (size - 1), 1)
    src = np.abs(np.arange(size)[:, None] + np.arange(-r, r + 1)) % period
    src = np.where(src >= size, period - src, src)  # [size, k]: the pixel each tap reads
    taps = (src.T[:, :, None] == np.arange(size)).astype(np.float64)  # [k, size, size]
    return (weights @ taps.reshape(len(taps), -1)).reshape(-1, size, size)


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


# one row of uniforms per image: jitter gate, four jitter factors, four
# order keys, flip gate, blur sigma, blur gate, then the crop: scale and
# aspect for each try, and one top and one left for the try that is kept
_CROP_TRIES = 10
_JITTER, _FACTORS, _ORDER, _FLIP, _SIGMA, _BLUR, _SCALE = 0, 1, 5, 9, 10, 11, 12
_ASPECT = _SCALE + _CROP_TRIES
_TOP = _ASPECT + _CROP_TRIES
_LEFT = _TOP + 1
_SLOTS = _LEFT + 1


def _span(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return lo + (hi - lo) * u


def _crop_boxes(u: np.ndarray, h: int, w: int, config: AugmentConfig) -> np.ndarray:
    """``[N, 4]`` (top, left, height, width): the first of the tries whose
    scale and aspect fit the image, else the centre crop of the largest
    square."""
    target = _span(u[:, _SCALE:_ASPECT], *config.crop_scale) * (h * w)
    aspect = np.exp(_span(u[:, _ASPECT:_TOP], *np.log(config.crop_aspect)))
    cw = np.rint(np.sqrt(target * aspect)).astype(int)
    ch = np.rint(np.sqrt(target / aspect)).astype(int)
    fits = (cw > 0) & (cw <= w) & (ch > 0) & (ch <= h)
    first = fits.argmax(axis=1)[:, None]
    side = min(h, w)
    found = fits.any(axis=1)
    ch = np.where(found, np.take_along_axis(ch, first, 1)[:, 0], side)
    cw = np.where(found, np.take_along_axis(cw, first, 1)[:, 0], side)
    # u * m rounds up to m for u just below 1, hence the minimum
    top = np.minimum(np.floor(u[:, _TOP] * (h - ch + 1)).astype(int), h - ch)
    left = np.minimum(np.floor(u[:, _LEFT] * (w - cw + 1)).astype(int), w - cw)
    top = np.where(found, top, (h - side) // 2)
    left = np.where(found, left, (w - side) // 2)
    return np.stack([top, left, ch, cw], axis=1)


def augment_view(images: np.ndarray, stats, config: AugmentConfig, keys: np.ndarray) -> Tensor:
    """Apply jitter, random resized crop, flip, and blur, then standardize.

    ``keys`` holds one uint64 key per image, from `RngStream.items`. All
    parameters come from one ``[N, slots]`` array of `uniforms`, each row
    from its image's own key and each slot drawn whether or not its
    transform fires, so a view does not depend on the rest of the batch.
    """
    x = _to_float_nhwc(images)
    n, h, w, _ = x.shape
    if len(keys) != n:
        raise ContractError(f"augment_view got {len(keys)} keys for {n} images")
    u = uniforms(keys, _SLOTS)
    jitter = u[:, _JITTER] < config.jitter_probability
    # brightness, contrast and saturation factors around 1, a hue shift around 0
    magnitude = np.array(
        [config.jitter_brightness, config.jitter_contrast, config.jitter_saturation, config.jitter_hue]
    )
    factors = np.array([1.0, 1.0, 1.0, 0.0]) + magnitude * (2.0 * u[:, _FACTORS:_ORDER] - 1.0)
    order = np.argsort(u[:, _ORDER:_FLIP], axis=1)
    flip = u[:, _FLIP] < config.flip_probability
    blur = u[:, _BLUR] < config.blur_probability

    # 1. color jitter: the four sub-transforms in each image's own order
    steps = (adjust_brightness, adjust_contrast, adjust_saturation, adjust_hue)
    for position in range(4):
        for j, step in enumerate(steps):
            sel = jitter & (order[:, position] == j)
            if sel.any():
                x[sel] = step(x[sel], factors[sel, j][:, None, None, None])

    # 2. random resized crop, 3. horizontal flip, 4. Gaussian blur: each is
    # linear along rows and along columns, so together they are one row and
    # one column matrix per image
    size = config.crop_output
    rows, cols = crop_matrices(_crop_boxes(u, h, w, config), size, size, h, w)
    cols[flip] = cols[flip, ::-1]
    sigma = _span(u[blur, _SIGMA], *config.blur_sigma)
    kernel = blur_matrix(gaussian_weights(sigma, config.blur_kernel), size)
    rows[blur] = kernel @ rows[blur]
    cols[blur] = kernel @ cols[blur]
    return _to_tensor(apply_separable(x, rows, cols), stats if config.standardize_augmented else None)


def random_derangement(n: int, stream: RngStream, epoch: int, batch: int) -> np.ndarray:
    """Uniform random fixed-point-free permutation, by rejection: attempt t
    is the permutation keyed (epoch, batch, branch -1 - t)."""
    if n < 2:
        raise ValidationError(f"derangement needs n >= 2, got {n}")
    for attempt in itertools.count():
        perm = stream.permutation(n, epoch, batch, -1 - attempt)
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
    pairing = random_derangement(n, rng, epoch, batch)
    v1n = normalize_view(images, stats, config.crop_output)
    v1a = augment_view(images, stats, config, rng.items(n, epoch, batch, 1))
    v2a = augment_view(images[pairing], stats, config, rng.items(n, epoch, batch, 2))
    return AMIMVBatch(v1n=v1n, v1a=v1a, v2n=Tensor(v1n.data[pairing]), v2a=v2a, pairing=pairing)
