"""Dense tensors with reverse-mode automatic differentiation.

The op set is the minimal closed family needed by the encoder, projection
head, contrastive losses, and optimizers: elementwise arithmetic, matmul,
linear (``x @ w + b``), 2D cross-correlation with an optional bias, group
normalization, 2x2 average pooling, reductions, concat, gather, L2
normalization, and a max-shifted logsumexp; each encoder layer is one tape
record. All three conv2d products are im2col GEMMs. The tape keeps a conv's
input, not its im2col matrix (kh*kw times larger): the forward drops the
matrix after its GEMM, and the kernel gradient gathers it again from the
input (activation recomputation, arXiv:1604.06174). The input gradient
(skipped for an input that does not require one) correlates the dilated,
padded g with the flipped kernel through the same im2col. conv2d takes and
returns NCHW, but its im2col gathers a channels-last [N,H,W,C] copy with
columns in (kh, kw, c) order, one window-view copy that moves each kernel
row's (kw, c) block as one run. Group norm's input gradient is its closed
form, two reductions per group. Gradients are replayed in reverse recording
order; every differentiable op is covered by finite-difference checks in the
test suite.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, DimensionError

FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """A dense n-dimensional array with optional gradient tracking.

    `data` is immutable by convention after construction; only `grad` is
    mutated, and only during a single backward pass.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a view of this tensor that blocks gradient flow."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"


class _Record:
    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output: Tensor, inputs: Sequence[Tensor], backward_fn: Callable):
        self.output = output
        self.inputs = tuple(inputs)
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of operations for one logical training step."""

    def __init__(self):
        self.records: list[_Record] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False


_TAPE_STACK: list[Tape] = []
_NO_GRAD_DEPTH = 0


@contextlib.contextmanager
def no_grad():
    """Suspend tape recording (the key-encoder branch runs under this)."""
    global _NO_GRAD_DEPTH
    _NO_GRAD_DEPTH += 1
    try:
        yield
    finally:
        _NO_GRAD_DEPTH -= 1


def _active_tape() -> Tape | None:
    if _NO_GRAD_DEPTH > 0 or not _TAPE_STACK:
        return None
    return _TAPE_STACK[-1]


def _make(out_data: np.ndarray, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    tape = _active_tape()
    tracked = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=tracked)
    if tracked:
        tape.records.append(_Record(out, inputs, backward_fn))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate `.grad` on every requires_grad tensor reachable from `loss`.

    Replays the tape in reverse recording order exactly once. Gradients of
    tensors behind a `detach`/`no_grad` barrier stay absent.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
    leaves: dict[int, Tensor] = {}
    for rec in reversed(tape.records):
        # consumers sit later on the tape, so by now grads[output] is complete
        g_out = grads.pop(id(rec.output), None)
        if g_out is None:
            continue
        for t, g in zip(rec.inputs, rec.backward_fn(g_out)):
            if g is None or not t.requires_grad:
                continue
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g
            leaves[key] = t
    for key, t in leaves.items():
        if key in grads:  # anything still present was never an op output: a leaf
            t.grad = np.asarray(grads[key], dtype=t.dtype).reshape(t.shape)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    return _make(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    return _make(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    return _make(
        out,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data
    return _make(
        out,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        ),
    )


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _make(a.data * s, (a,), lambda g: (g * s,))


def add_scalar(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _make(a.data + s, (a,), lambda g: (g,))


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _make(a.data * mask, (a,), lambda g: (g * mask,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _make(out, (a,), lambda g: (g * (0.5 / out),))


# ---------------------------------------------------------------------------
# reductions and shape ops


def sum_(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).astype(a.dtype, copy=False),)

    return _make(out, (a,), bwd)


def mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.shape[axis]

    def bwd(g):
        g = np.asarray(g) / count
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).astype(a.dtype, copy=False),)

    return _make(out, (a,), bwd)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return _make(out, tensors, lambda g: tuple(np.split(g, splits, axis=axis)))


def gather_rows(a: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)
    out = a.data[idx]

    def bwd(g):
        acc = np.zeros(a.shape, dtype=a.dtype)
        np.add.at(acc, idx, g)
        return (acc,)

    return _make(out, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError(f"transpose expects a 2D tensor, got shape {a.shape}")
    return _make(np.ascontiguousarray(a.data.T), (a,), lambda g: (g.T,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    out = a.data @ b.data
    return _make(out, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for x [N,D], w [D,O], b [O]."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise DimensionError(f"linear shapes incompatible: {x.shape} x {w.shape} + {b.shape}")
    return _make(x.data @ w.data + b.data, (x, w, b), lambda g: (g @ w.data.T, x.data.T @ g, g.sum(axis=0)))


def l2_normalize(a: Tensor, epsilon: float = 1e-12) -> Tensor:
    """Normalize trailing-dimension slices to unit norm, epsilon-guarded near zero."""
    norm = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True))
    denom = np.maximum(norm, epsilon)
    out = a.data / denom

    def bwd(g):
        inner = (out * g).sum(axis=-1, keepdims=True)
        # below the guard the denominator is the constant epsilon
        grad = np.where(norm > epsilon, (g - out * inner) / denom, g / denom)
        return (grad.astype(a.dtype, copy=False),)

    return _make(out, (a,), bwd)


def logsumexp(a: Tensor) -> Tensor:
    """log-sum-exp over the last axis, computed with a max shift."""
    if a.data.ndim == 0 or a.shape[-1] == 0:
        raise DimensionError(f"logsumexp needs a non-empty trailing axis, got shape {a.shape}")
    m = a.data.max(axis=-1, keepdims=True)
    shifted = np.exp(a.data - m)
    total = shifted.sum(axis=-1, keepdims=True)
    out = (m + np.log(total)).squeeze(-1)

    def bwd(g):
        soft = shifted / total
        return ((np.expand_dims(g, -1) * soft).astype(a.dtype, copy=False),)

    return _make(out, (a,), bwd)


def group_norm(x: Tensor, gamma: Tensor, beta: Tensor, groups: int, eps: float) -> Tensor:
    """Per-group z-score of x [N,C,H,W], then per-channel scale and shift (arXiv:1803.08494)."""
    n, c, h, w = x.shape
    if c % groups:
        raise DimensionError(f"group_norm: {c} channels do not split into {groups} groups")
    xg = x.data.reshape(n, groups, (c // groups) * h * w)
    # x^ and y overwrite their first temporaries, two fewer group-sized arrays in a batch-256 eval pass
    normed = xg - xg.mean(axis=2, keepdims=True)
    sd = np.sqrt((normed * normed).mean(axis=2, keepdims=True) + float(eps))
    normed = np.divide(normed, sd, out=normed).reshape(x.shape)
    gamma4 = gamma.data.reshape(1, c, 1, 1)
    out = normed * gamma4
    out += beta.data.reshape(1, c, 1, 1)

    def bwd(g):
        # per group, dx = (gn - mean(gn) - x^ * mean(gn * x^)) / sd for gn = g * gamma and x^ = normed
        gn = (g * gamma4).reshape(xg.shape)
        xhat = normed.reshape(xg.shape)
        dx = gn - gn.mean(axis=2, keepdims=True)
        dx -= xhat * (gn * xhat).mean(axis=2, keepdims=True)
        dx /= sd
        return dx.reshape(x.shape), (g * normed).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))

    return _make(out, (x, gamma, beta), bwd)


# ---------------------------------------------------------------------------
# convolution and pooling


def _conv_out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    n, h, w, c = x.shape
    ho = _conv_out_size(h, kh, stride, pad)
    wo = _conv_out_size(w, kw, stride, pad)
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    # x is [N,H,W,C]; rows (n, ho, wo), columns (kh, kw, c). The window view is copied once; where x's
    # rows are contiguous, each kernel row's (kw, c) block is one run, so the copy moves kw*c values at a time
    win = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(n * ho * wo, kh * kw * c)


def conv2d(
    x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0, *, bias: Tensor | None = None
) -> Tensor:
    """2D cross-correlation with zero padding (no kernel flip) and an optional bias [F]."""
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise DimensionError(f"conv2d expects 4D input and kernel, got {x.shape} and {kernel.shape}")
    n, c, h, w = x.shape
    f, ck, kh, kw = kernel.shape
    if ck != c:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape} vs kernel {kernel.shape}")
    if not isinstance(stride, (int, np.integer)) or stride < 1:
        raise DimensionError(f"conv2d stride must be an int >= 1, got {stride!r}")
    if not isinstance(padding, (int, np.integer)) or padding < 0:
        raise DimensionError(f"conv2d padding must be an int >= 0, got {padding!r}")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise DimensionError(
            f"kernel {kernel.shape} larger than padded input {x.shape} (padding={padding})"
        )
    ho = _conv_out_size(h, kh, stride, padding)
    wo = _conv_out_size(w, kw, stride, padding)
    # _im2col works channels-last, the layout a view tensor's memory already has
    cols = _im2col(x.data.transpose(0, 2, 3, 1), kh, kw, stride, padding)
    out = cols @ kernel.data.transpose(0, 2, 3, 1).reshape(f, -1).T
    # the tape keeps x, not cols (kh*kw times the size of x): bwd gathers cols again (arXiv:1604.06174)
    del cols
    if bias is not None:
        out += bias.data
    out = np.ascontiguousarray(out.reshape(n, ho, wo, f).transpose(0, 3, 1, 2))

    def bwd(g):
        # g: (n,f,ho,wo)
        g_nhwc = np.ascontiguousarray(g.transpose(0, 2, 3, 1))  # one copy serves dk and the dx scatter
        cols = _im2col(x.data.transpose(0, 2, 3, 1), kh, kw, stride, padding)
        dk = (g_nhwc.reshape(-1, f).T @ cols).reshape(f, kh, kw, c).transpose(0, 3, 1, 2)
        del cols  # not alive beside dx's gather
        dx = None  # backward() drops the gradient of an input that does not require one
        if x.requires_grad:
            # dx correlates g, zero-dilated by the stride and padded by k-1-padding, with the flipped
            # kernel (arXiv:1603.07285); where padding > k-1 that pad is negative, and a margin of
            # eh, ew zeros lets the crop drop the rows of g that lie over the padding
            eh, ew = max(padding + 1 - kh, 0), max(padding + 1 - kw, 0)
            gp = np.zeros((n, h + kh - 1 + 2 * eh, w + kw - 1 + 2 * ew, f), dtype=g.dtype)
            th, tw = kh - 1 - padding + eh, kw - 1 - padding + ew
            gp[:, th : th + stride * ho : stride, tw : tw + stride * wo : stride] = g_nhwc
            gcols = _im2col(gp[:, eh : eh + h + kh - 1, ew : ew + w + kw - 1], kh, kw, 1, 0)
            kflip = kernel.data[:, :, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(c, -1)
            dx = (gcols @ kflip.T).reshape(n, h, w, c).transpose(0, 3, 1, 2).astype(x.dtype, copy=False)
        grads = (dx, dk.astype(kernel.dtype, copy=False))
        return grads if bias is None else grads + (g.sum(axis=(0, 2, 3)),)

    return _make(out, (x, kernel) if bias is None else (x, kernel, bias), bwd)


def avg_pool2d(x: Tensor, k: int) -> Tensor:
    """Non-overlapping 2 x 2 average pooling; k must be 2 and H, W even."""
    if x.data.ndim != 4 or k != 2 or x.shape[2] % 2 or x.shape[3] % 2:
        raise DimensionError(f"avg_pool2d takes k=2 over 4D input with even H and W, got k={k}, {x.shape}")
    a = x.data
    # summed into `out` in place: one expression would keep more pooled-size temporaries alive at once
    out = a[..., 0::2, 0::2] + a[..., 0::2, 1::2]
    out += a[..., 1::2, 0::2] + a[..., 1::2, 1::2]
    out /= 4
    return _make(out, (x,), lambda g: (np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) / 4,))
