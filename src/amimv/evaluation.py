"""Frozen-feature evaluation: a linear probe (AdamW on a softmax cross-entropy
gradient computed in closed form, without the tape), classification metrics,
alignment/uniformity, and PCA projection for reports."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import model as M
from . import tensor as T
from .datasets import ImageDataset
from .errors import NumericError, ValidationError
from .fsutil import csv_text
from .views import normalize_view

ADAMW_BETAS = (0.9, 0.999)
ADAMW_EPS = 1e-8


@dataclass
class ProbeConfig:
    lr: float = 0.005
    epochs: int = 100
    batch_size: int = 128
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValidationError(f"probe epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValidationError(f"probe batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValidationError(f"probe lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValidationError(f"probe weight_decay must be finite and >= 0, got {self.weight_decay}")


@dataclass
class EvalReport:
    accuracy: float
    per_class_accuracy: list[float]
    macro_auc: float
    confusion: np.ndarray  # rows: truth, columns: prediction

    def to_json(self) -> str:
        return json.dumps(asdict(self) | {"confusion": self.confusion.tolist()}, indent=2)

    def to_csv(self) -> str:
        rows = [["metric", "class", "value"], ["accuracy", "", f"{self.accuracy:.6f}"],
                ["macro_auc", "", f"{self.macro_auc:.6f}"]]
        for c, acc in enumerate(self.per_class_accuracy):
            rows.append(["per_class_accuracy", c, f"{acc:.6f}" if not math.isnan(acc) else "nan"])
        return csv_text(rows)

    def confusion_csv(self) -> str:
        return csv_text([int(v) for v in row] for row in self.confusion)


# ---------------------------------------------------------------------------
# feature extraction


def extract_features(
    pair: M.EncoderPair, dataset: ImageDataset, split: str, batch_size: int = 128
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-projector query-encoder features on normalized views only, encoded
    in ceil(n / batch_size) chunks of near-equal size. No chunk is left with
    a few rows (unless the split is that small), so every chunk's dense
    layers run the same BLAS kernel and an image's features do not depend
    on where it falls in the split. The projection head does not run.
    Non-finite features (weights that overflow the encoder) raise
    NumericError."""
    if split not in dataset.splits:
        raise ValidationError(f"unknown split {split!r}; have {sorted(dataset.splits)}")
    images, labels = dataset.splits[split]
    n = images.shape[0]
    if n == 0:
        raise ValidationError(f"split {split!r} of {dataset.name} has no images")
    k = -(-n // batch_size)
    bounds = [i * n // k for i in range(k + 1)]
    chunks = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        views = normalize_view(images[start:stop], dataset.channel_stats, pair.config.input_size)
        # an overflow shows as non-finite features, checked below, not as warning lines on stderr
        with T.no_grad(), np.errstate(over="ignore", invalid="ignore"):
            feats, _ = M.encode(pair.q_params, views, pair.config, project=False)
        chunks.append(feats.data)
    features = np.concatenate(chunks)
    if not np.isfinite(features).all():
        raise NumericError(f"the encoder's features on split {split!r} are not finite")
    return features, labels.copy()


# ---------------------------------------------------------------------------
# linear probe


@dataclass
class ProbeResult:
    weights: np.ndarray  # [D, C]
    bias: np.ndarray  # [C]
    missing_classes: list[int] = field(default_factory=list)

    def scores(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weights + self.bias


def _probe_lr(epoch: int, total: int, base: float) -> float:
    # cosine without warmup, per the linear-evaluation protocol
    return base * 0.5 * (1.0 + math.cos(math.pi * epoch / total))


def _adamw_step(
    p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, t: int, lr: float, weight_decay: float
) -> np.ndarray:
    """Step t >= 1 of AdamW (arXiv:1711.05101): bias-corrected moments and decoupled weight decay.
    Updates the moments m and v in place and returns the new p."""
    b1, b2 = ADAMW_BETAS
    m *= b1
    m += (1 - b1) * g
    v *= b2
    v += (1 - b2) * g * g
    mhat = m / (1 - b1**t)
    vhat = v / (1 - b2**t)
    return p - lr * mhat / (np.sqrt(vhat) + ADAMW_EPS) - lr * weight_decay * p


def linear_probe(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    config: ProbeConfig | None = None,
    num_classes: int | None = None,
) -> ProbeResult:
    """Train one linear layer with softmax cross-entropy over frozen features."""
    config = config or ProbeConfig()
    n, d = train_features.shape
    c = num_classes or int(train_labels.max()) + 1
    outside = train_labels[(train_labels < 0) | (train_labels >= c)]
    if outside.size:
        raise ValidationError(f"label {int(outside[0])} outside [0, {c})")
    missing = sorted(set(range(c)) - set(int(x) for x in np.unique(train_labels)))
    x = train_features.astype(np.float32)

    # w's d rows, then b, in one array: its gradient, AdamW's first and second moments and one step cover both
    wb = np.zeros((d + 1, c), dtype=np.float32)
    grad, wb_m, wb_v = (np.zeros_like(wb) for _ in range(3))
    onehot_all = np.eye(c, dtype=np.float32)[train_labels]
    t = 0
    rng = np.random.default_rng(np.random.PCG64(config.seed))

    for epoch in range(config.epochs):
        lr = _probe_lr(epoch, config.epochs, config.lr)
        order = rng.permutation(n)
        # huge finite features overflow the squared gradient; that shows as the NumericError below, not as
        # warning lines on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                xb = x[idx]
                logits = xb @ wb[:d] + wb[d]
                shifted = np.exp(logits - logits.max(axis=-1, keepdims=True))
                # (softmax - onehot) / B, rounded as the tape's backward of mean(lse - <logits, onehot>)
                inv = np.float32(1) / np.float32(len(idx))
                dl = (-inv) * onehot_all[idx]
                dl += inv * (shifted / shifted.sum(axis=-1, keepdims=True))
                t += 1
                # AdamW is elementwise, so one step over [w; b] gives the bytes of one step on each
                np.matmul(xb.T, dl, out=grad[:d])
                np.sum(dl, axis=0, out=grad[d])
                wb = _adamw_step(wb, grad, wb_m, wb_v, t, lr, config.weight_decay)
        # inf and nan absorb every later AdamW update, so once an epoch has made a value non-finite it stays so
        if not all(np.isfinite(a).all() for a in (wb, wb_m, wb_v)):
            raise NumericError(
                f"the linear probe's weights or AdamW moments are not finite after epoch {epoch + 1}"
                " (features too large for float32 gradients)"
            )

    return ProbeResult(wb[:d].astype(np.float64), wb[d].astype(np.float64), missing)


# ---------------------------------------------------------------------------
# classification metrics


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks; a run of ties at sorted positions [start, end) shares (start + end + 1) / 2."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    end = np.cumsum(counts)
    return ((end - counts + end + 1) / 2.0)[inverse]


def _binary_auc(scores: np.ndarray, positives: np.ndarray) -> float:
    """Mann-Whitney rank statistic with half-credit ties."""
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return math.nan
    ranks = _average_ranks(scores)
    return float((ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def classification_metrics(scores: np.ndarray, labels: np.ndarray) -> EvalReport:
    """Argmax predictions (ties to the lowest index), one-vs-rest macro AUC."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.ndim == 1:  # binary positive-class scores
        scores = np.column_stack([-scores, scores])
    n, c = scores.shape
    if n < 1:
        raise ValidationError("need at least one sample")
    if not np.all(np.isfinite(scores)):
        raise ValidationError("scores must be finite")

    predictions = np.argmax(scores, axis=1)
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (labels, predictions), 1)
    accuracy = float(np.trace(confusion) / n)
    per_class = []
    for k in range(c):
        row = confusion[k].sum()
        per_class.append(float(confusion[k, k] / row) if row > 0 else math.nan)
    aucs = [_binary_auc(scores[:, k], labels == k) for k in range(c)]
    present = [a for a in aucs if not math.isnan(a)]
    macro = float(np.mean(present)) if present else math.nan
    return EvalReport(
        accuracy=accuracy, per_class_accuracy=per_class, macro_auc=macro, confusion=confusion
    )


# ---------------------------------------------------------------------------
# representation quality


def alignment_uniformity(z_left: np.ndarray, z_right: np.ndarray) -> tuple[float, float]:
    """Positive-pair squared distance, and the log-mean Gaussian potential
    over distinct pairs of the pooled, L2-normalized embeddings."""
    z_left = np.asarray(z_left, dtype=np.float64)
    z_right = np.asarray(z_right, dtype=np.float64)
    if z_left.shape != z_right.shape:
        raise ValidationError(f"pair shapes disagree: {z_left.shape} vs {z_right.shape}")

    def unit(z):
        return z / np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-12)

    zl, zr = unit(z_left), unit(z_right)
    align = float(((zl - zr) ** 2).sum(axis=1).mean())

    pool = np.concatenate([zl, zr])
    m = pool.shape[0]
    if m < 2:
        raise ValidationError("uniformity needs at least 2 pooled points")
    sq = ((pool[:, None, :] - pool[None, :, :]) ** 2).sum(axis=-1)
    iu = np.triu_indices(m, k=1)
    uniform = float(np.log(np.mean(np.exp(-2.0 * sq[iu]))))
    return align, uniform


def pca_project(features: np.ndarray, k: int = 2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean-centered projection onto the top-k right singular directions.

    Returns (coords [N,k], explained variance per component, components [k,D])."""
    x = np.asarray(features, dtype=np.float64)
    n, d = x.shape
    if n < 2:
        raise ValidationError("PCA needs at least 2 samples")
    if d < k:
        raise ValidationError(f"feature dim {d} < requested components {k}")
    centered = x - x.mean(axis=0)
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    coords = u[:, :k] * s[:k]
    explained = (s**2) / (n - 1)
    return coords, explained[:k], vt[:k]
