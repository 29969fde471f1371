"""Dataset ingestion and generation.

Reads MedMNIST-style ``.npz`` archives (a ZIP of six NPY members), writes
the same format back for fixtures, renders synthetic long-tailed image
datasets, and computes label histograms and train-split channel
statistics.
"""

from __future__ import annotations

import io
import math
import tokenize
import warnings
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ValidationError

SPLIT_NAMES = ("train", "val", "test")
_MEMBERS = [f"{s}_{kind}" for s in SPLIT_NAMES for kind in ("images", "labels")]

# dtypes accepted for images / labels; MedMNIST ships u1 + i8
_NPY_DTYPES = (np.dtype(np.uint8), np.dtype("<i8"))


@dataclass
class LabelHistogram:
    """Per-class label counts for one split."""

    counts: list[int]
    total: int = field(init=False)

    def __post_init__(self):
        self.counts = [int(c) for c in self.counts]
        self.total = sum(self.counts)


@dataclass
class ImageDataset:
    """Images, integer labels, named splits, and channel statistics."""

    name: str
    splits: dict[str, tuple[np.ndarray, np.ndarray]]
    num_classes: int
    channel_stats: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def channels(self) -> int:
        images, _ = next(iter(self.splits.values()))
        return 1 if images.ndim == 3 else images.shape[-1]

    @property
    def image_size(self) -> int:
        images, _ = next(iter(self.splits.values()))
        return images.shape[1]


# ---------------------------------------------------------------------------
# NPY / NPZ format


def read_npy(buf: bytes, member: str = "<buffer>") -> np.ndarray:
    """Parse a version-1.0, C-order NPY payload of uint8 or little-endian int64."""
    fp = io.BytesIO(buf)
    # NumPy reports most bad headers as ValueError; a few literals and
    # unbalanced brackets escape its parser as TypeError, SyntaxError or TokenError
    try:
        version = np.lib.format.read_magic(fp)
        if version != (1, 0):
            raise FormatError(f"{member}: unsupported NPY version {version[0]}.{version[1]}")
        with warnings.catch_warnings():
            # NumPy loads a Python-2 header such as 'shape': (2L, 8L) with only a warning
            warnings.simplefilter("error", UserWarning)
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fp)
    except UserWarning as exc:
        raise FormatError(f"{member}: malformed NPY header: Python 2 literals") from exc
    except (ValueError, TypeError, SyntaxError, tokenize.TokenError) as exc:
        reason = (str(exc) or type(exc).__name__).splitlines()[0]
        raise FormatError(f"{member}: malformed NPY header: {reason}") from exc
    if fortran:
        raise FormatError(f"{member}: fortran-order arrays are not supported")
    if dtype not in _NPY_DTYPES:
        raise FormatError(f"{member}: unsupported dtype {dtype.str!r}")
    if any(d < 0 for d in shape):
        raise FormatError(f"{member}: negative dimension in shape {shape}")
    count = math.prod(shape)
    if len(buf) - fp.tell() < count * dtype.itemsize:
        raise FormatError(f"{member}: truncated payload")
    return np.frombuffer(buf, dtype, count, fp.tell()).reshape(shape).copy()


def write_npy(arr: np.ndarray) -> bytes:
    """Serialize an array as a version-1.0 NPY payload (C order)."""
    if arr.dtype not in _NPY_DTYPES:
        raise FormatError(f"cannot write dtype {arr.dtype}")
    out = io.BytesIO()
    np.lib.format.write_array(out, np.ascontiguousarray(arr), version=(1, 0), allow_pickle=False)
    return out.getvalue()


def load_npz(path: str, name: str | None = None) -> ImageDataset:
    """Load a six-member NPZ archive into an ImageDataset."""
    try:
        zf = zipfile.ZipFile(path)
    except (OSError, zipfile.BadZipFile) as exc:
        raise FormatError(f"{path}: cannot open archive: {exc}") from exc
    with zf:
        names = {n.removesuffix(".npy"): n for n in zf.namelist()}
        arrays = {}
        for member in _MEMBERS:
            if member not in names:
                raise FormatError(f"missing member {member}")
            try:
                payload = zf.read(names[member])
            except (zipfile.BadZipFile, zlib.error, EOFError) as exc:
                reason = str(exc) or type(exc).__name__
                raise FormatError(f"{member}: damaged archive member: {reason}") from exc
            arrays[member] = read_npy(payload, member)

    splits: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for split in SPLIT_NAMES:
        images = arrays[f"{split}_images"]
        labels = arrays[f"{split}_labels"]
        if images.ndim not in (3, 4) or (images.ndim == 4 and images.shape[-1] != 3):
            raise FormatError(f"{split}_images: expected [N,H,W] or [N,H,W,3], got {images.shape}")
        if min(images.shape[1:3]) < 1:
            raise FormatError(f"{split}_images: H and W must be >= 1, got {images.shape}")
        if labels.ndim == 2 and labels.shape[1] == 1:
            labels = labels.reshape(-1)
        if labels.ndim != 1 or labels.shape[0] != images.shape[0]:
            raise FormatError(
                f"{split}_labels: shape {labels.shape} does not match {images.shape[0]} images"
            )
        splits[split] = (images.astype(np.uint8, copy=False), labels.astype(np.int64, copy=False))

    shapes = {(im.shape[1], im.shape[2], 1 if im.ndim == 3 else im.shape[3]) for im, _ in splits.values()}
    if len(shapes) != 1:
        raise FormatError(f"splits disagree on image geometry: {sorted(shapes)}")

    all_labels = np.concatenate([lb for _, lb in splits.values()])
    if all_labels.size == 0:
        raise ValidationError(f"{path}: the archive holds no labelled images")
    if all_labels.min() < 0:
        raise ValidationError("negative label found")
    # a class needs an image, so more classes than labelled images means a bad label (and a bincount
    # over every label up to it would ask for as many counters)
    if all_labels.max() >= all_labels.size:
        raise ValidationError(
            f"label {all_labels.max()} is not below the archive's {all_labels.size} labelled images"
        )
    num_classes = int(all_labels.max()) + 1
    if num_classes < 2:
        raise ValidationError(f"need at least 2 classes for imbalance analysis, found {num_classes}")
    ds = ImageDataset(name=name or str(path), splits=splits, num_classes=num_classes)
    ds.channel_stats = compute_channel_stats(ds)
    return ds


def save_npz(dataset: ImageDataset, path: str) -> None:
    """Write the archive format read by `load_npz` (deterministic bytes)."""
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        for split in SPLIT_NAMES:
            images, labels = dataset.splits[split]
            for member, arr in ((f"{split}_images", images), (f"{split}_labels", labels.astype(np.int64))):
                info = zipfile.ZipInfo(f"{member}.npy", date_time=(1980, 1, 1, 0, 0, 0))
                zf.writestr(info, write_npy(arr))


def resolve_dataset(spec: str, seed: int = 0) -> ImageDataset:
    """Load an NPZ path, or parse `synthetic:C=4,counts=700:70:70:70,size=28`."""
    if not spec.startswith("synthetic:"):
        return load_npz(spec)
    fields = {}
    for part in spec.removeprefix("synthetic:").split(","):
        if "=" not in part:
            raise ValidationError(f"bad synthetic spec field {part!r}")
        key, value = part.split("=", 1)
        fields[key.strip()] = value.strip()
    unknown = set(fields) - {"C", "counts", "size", "seed"}
    if unknown:
        raise ValidationError(f"unknown synthetic spec keys: {sorted(unknown)}")
    try:
        num_classes = int(fields["C"])
        counts = [int(c) for c in fields["counts"].split(":")]
        size = int(fields.get("size", 28))
        seed = int(fields.get("seed", seed))
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"bad synthetic spec {spec!r}: {exc}") from exc
    if seed < 0:
        raise ValidationError(f"synthetic spec seed must be >= 0, got {seed}")
    return make_synthetic_longtail(num_classes, counts, image_size=size, seed=seed)


# ---------------------------------------------------------------------------
# statistics and histograms


def compute_channel_stats(dataset: ImageDataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and population std of train pixels in [0,1] scale."""
    images, _ = dataset.splits["train"]
    if images.shape[0] == 0:
        raise ValidationError("train split is empty")
    x = images.astype(np.float64) / 255.0
    if x.ndim == 3:
        x = x[..., None]
    mean = x.mean(axis=(0, 1, 2))
    std = np.maximum(x.std(axis=(0, 1, 2)), 1e-6)
    return mean, std


def label_histogram(dataset: ImageDataset, split: str) -> LabelHistogram:
    if split not in dataset.splits:
        raise ValidationError(f"unknown split {split!r}; have {sorted(dataset.splits)}")
    _, labels = dataset.splits[split]
    counts = np.bincount(labels, minlength=dataset.num_classes)
    return LabelHistogram(counts=list(counts))


# ---------------------------------------------------------------------------
# synthetic long-tailed data


def split_counts(n: int) -> tuple[int, int, int]:
    """Per-class 70/10/20 split: floor(0.7n), floor(0.1n), remainder."""
    tr = int(np.floor(0.7 * n))
    va = int(np.floor(0.1 * n))
    return tr, va, n - tr - va


def make_synthetic_longtail(
    num_classes: int, counts: list[int], image_size: int, seed: int
) -> ImageDataset:
    """Render a deterministic long-tailed grayscale dataset.

    Each class is a Gaussian blob at a class-specific position and scale.
    Per-image nuisance factors -- gain/offset jitter, a random polarity
    flip (the blob is equally often darker or brighter than the
    background), a random illumination ramp, and pixel noise -- keep the
    classes only partially linearly separable in raw pixel space.
    """
    if num_classes != len(counts):
        raise ValidationError(f"num_classes {num_classes} != len(counts) {len(counts)}")
    if any(c < 1 for c in counts):
        raise ValidationError("every class count must be >= 1")
    if image_size < 8:
        raise ValidationError(f"image_size must be >= 8, got {image_size}")

    rng = np.random.default_rng(np.random.PCG64(seed))
    s = image_size
    yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)
    per_split: dict[str, tuple[list, list]] = {k: ([], []) for k in SPLIT_NAMES}

    for c, n in enumerate(counts):
        angle = 2.0 * np.pi * c / num_classes
        cx0 = s / 2 + 0.22 * s * np.cos(angle)
        cy0 = s / 2 + 0.22 * s * np.sin(angle)
        sigma0 = s * (0.08 + 0.05 * (c % 3))
        images = np.empty((n, s, s), dtype=np.uint8)
        for i in range(n):
            cx = cx0 + rng.normal(0, 0.04 * s)
            cy = cy0 + rng.normal(0, 0.04 * s)
            sigma = sigma0 * rng.uniform(0.7, 1.3)
            blob = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma**2))
            gain = rng.uniform(0.25, 0.55)
            if rng.random() < 0.5:
                gain = -gain
            img = rng.uniform(0.35, 0.65) + gain * blob
            theta = rng.uniform(0, 2 * np.pi)
            amp = rng.uniform(-0.5, 0.5)
            img += amp * ((xx - s / 2) * np.cos(theta) + (yy - s / 2) * np.sin(theta)) / s
            img += rng.normal(0, 0.3, size=(s, s))
            images[i] = np.clip(img * 255.0, 0, 255).astype(np.uint8)
        tr, va, te = split_counts(n)
        bounds = [(0, tr, "train"), (tr, tr + va, "val"), (tr + va, n, "test")]
        for lo, hi, split in bounds:
            per_split[split][0].append(images[lo:hi])
            per_split[split][1].append(np.full(hi - lo, c, dtype=np.int64))

    splits = {
        k: (np.concatenate(imgs), np.concatenate(lbls))
        for k, (imgs, lbls) in per_split.items()
    }
    ds = ImageDataset(
        name=f"synthetic-{num_classes}c-{seed}", splits=splits, num_classes=num_classes
    )
    ds.channel_stats = compute_channel_stats(ds)
    return ds
