"""Contrastive objectives: fusion operator, NT-Xent, and the asymmetric
cross-image loss with a stop-gradient key branch."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError, ValidationError
from .tensor import Tensor

FUSION_KINDS = ("mean_norm", "hadamard_norm", "concat")


@dataclass
class LossConfig:
    tau: float = 0.2
    fusion: str = "mean_norm"

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValidationError(f"tau (temperature) must be finite and positive, got {self.tau}")
        if self.fusion not in FUSION_KINDS:
            raise ValidationError(f"unknown fusion {self.fusion!r}; choose from {FUSION_KINDS}")


def fuse(za: Tensor, zb: Tensor, kind: str = "mean_norm") -> Tensor:
    """Combine two embedding batches into one, L2-normalized per row. mean_norm normalizes za + zb: the
    mean's 1/2 cancels exactly in l2_normalize, output and gradient, except below its guard, ||za + zb|| <=
    2e-12; float32 unit projections sit there only at 0, where the gradient is twice the mean's."""
    if za.shape != zb.shape:
        raise DimensionError(f"fuse shapes disagree: {za.shape} vs {zb.shape}")
    if kind == "mean_norm":
        return T.l2_normalize(T.add(za, zb))
    if kind == "hadamard_norm":
        return T.l2_normalize(T.mul(za, zb))
    if kind == "concat":
        return T.l2_normalize(T.concat([za, zb], axis=1))
    raise ValidationError(f"unknown fusion {kind!r}")


def nt_xent(z_left: Tensor, z_right: Tensor, tau: float = 0.2) -> Tensor:
    """Temperature-scaled contrastive loss over the pooled 2N embeddings.

    Positives are (z_left[i], z_right[i]); for each of the 2N anchors the
    denominator runs over the other 2N-1 pool members, computed through a
    max-shifted logsumexp. Returns the mean over anchors.
    """
    if z_left.shape != z_right.shape:
        raise DimensionError(f"nt_xent shapes disagree: {z_left.shape} vs {z_right.shape}")
    n = z_left.shape[0]
    if n == 0:
        raise ValidationError("nt_xent needs at least one instance")

    pool = T.l2_normalize(T.concat([z_left, z_right], axis=0))  # [2N, d]
    sim = T.scale(T.matmul(pool, T.transpose(pool)), 1.0 / tau)

    two_n = 2 * n
    # exclude self-similarity from every anchor's denominator
    mask = np.where(np.eye(two_n, dtype=bool), -np.inf, 0.0).astype(pool.dtype)
    denom = T.logsumexp(T.add(sim, Tensor(mask, dtype=pool.dtype)))  # [2N]
    pos_idx = np.concatenate([np.arange(n) + n, np.arange(n)])
    flat = T.reshape(sim, (two_n * two_n,))
    pos = T.gather_rows(flat, np.arange(two_n) * two_n + pos_idx)
    return T.mean(T.sub(denom, pos))


def amimv_loss(
    z1n: Tensor, z2a: Tensor, z1a: Tensor, z2n: Tensor, config: LossConfig | None = None
) -> Tensor:
    """Fused asymmetric objective: nt_xent(fuse(z1n, z2a), fuse(z1a, z2n)).

    z1n and z2a come from the query encoder and carry gradients; z1a and
    z2n come from the key encoder and must sit behind the stop-gradient
    barrier.
    """
    config = config or LossConfig()
    if z1a.requires_grad or z2n.requires_grad:
        raise ContractError(
            "key-branch projections (z1a, z2n) must be detached; "
            "did the query and key branches get swapped?"
        )
    fused_query = fuse(z1n, z2a, config.fusion)
    fused_key = fuse(z1a, z2n, config.fusion)
    return nt_xent(fused_query, fused_key, config.tau)
