"""Dense tensors with reverse-mode automatic differentiation.

The op set is the minimal closed family needed by the encoder, projection
head, contrastive losses, and optimizers: elementwise arithmetic, matmul,
linear (``x @ w + b``, reading an x [N, ...] as its [N, D] view, so the
encoder's pooled map needs no reshape record), 2D cross-correlation with an
optional bias, group normalization with an optional fused ReLU, 2x2 average
pooling, reductions, concat, gather, L2 normalization, and a max-shifted
logsumexp; each encoder layer is one tape record. The open tapes and
no_grad blocks sit on one list, _TAPE_STACK, a no_grad block as None: an op
records on the innermost tape unless a no_grad block is open.

The tape keeps only what the backward pass reads. A tracked output points
to its record; a record holds its backward closure and, per input, the
record that produced it on the same tape, the leaf tensor, or None for an
input that needs no gradient. It holds no output or input tensor, and the
closures capture shapes, dtypes and the arrays their gradients read, so an
activation no gradient reads (a conv, group-norm or add output) is freed
once the next layer has run (activation lifetimes, arXiv:1604.06174); a
recorded relu keeps its mask packed at one bit per element, and an
unrecorded one packs none. An op output from another tape is a leaf on this
one. Gradients are keyed by record or leaf and replayed in reverse
recording order. The tape is released as it is replayed: backward takes
each record's closure off it before running it, so the arrays a layer saved
are freed once its gradient is computed, not when the step ends, and a
replayed tape cannot be replayed again.

All three conv2d products are im2col GEMMs, with one lowering. conv2d runs at
stride 1 with zero padding 0 <= p < kernel size, the only convs the encoders
use. It takes and returns NCHW, but its im2col works channels-last, with
columns in (kh, kw, c) order, in two copies: x goes into an [N, H*W+1, C]
buffer whose last pixel of each image is zero, and one np.take gathers each
tap's c values from it along a flat pixel index that depends on shapes
alone and is cached; every tap on the padding reads the zero pixel
(arXiv:1410.0759). A 1x1 kernel without padding reads each pixel in order,
so there x's channels-last rows are the matrix, copied only where x's
memory is NCHW. At stride 1 the input gradient is the correlation of g,
padded by k-1-p, with the flipped kernel (arXiv:1603.07285), so the forward
and the input gradient (skipped for an input that does not require one) run
one helper on x and on g. Every im2col gather, the kernel gradient's too,
takes a chunk of whole images at a time (Caffe's column buffer,
arXiv:1408.5093): as many as fit in _IM2COL_BYTES (2 MiB) together with
their GEMM result and the kernel matrix it multiplies, or one image. The
forward and the input gradient write each chunk's product straight into its
images of their NCHW result, so no whole-batch GEMM result is held; conv2d
then adds the bias to the forward's result once. The tape keeps a conv's
input, not its im2col matrix (kh*kw times larger); the kernel gradient
gathers the matrix again from the input in chunks sized by the matrix
alone, its product being kernel-sized, and sums their GEMMs in chunk order,
so at most one chunk's matrix is alive (arXiv:1604.06174).
Group norm's forward takes its variance from at most 256 KiB of squares at
a time, and an unrecorded call (the key passes, feature extraction) writes
its output over x^: it holds one x-sized array, with a recorded call's bytes.
Group norm's input gradient is its closed form in per-(n, c) coefficients,
dx = k1*g + k2*x^ + k3, from the sums over H, W of g and of g*x^: it holds
at most two x-sized arrays at once and writes only into a masked g of its own.
``group_norm(..., relu=True)`` runs a ReLU in place on the norm's output,
with the bytes of relu(group_norm(...)). A conv keeps x, except a recorded
GN-ReLU output: it keeps that output's ``rebuild`` function, over arrays the
norm's record keeps anyway, and rebuilds x in backward (arXiv:1712.02616).
Every differentiable op is covered by finite-difference checks in the test
suite.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError

FLOAT_DTYPES = (np.float32, np.float64)
# the most bytes of im2col matrix, and of its GEMM result, conv2d holds at once
_IM2COL_BYTES = 2 << 20
# the most bytes of squares group_norm's forward holds at once
_GN_SQUARES_BYTES = 256 << 10
# the most im2col tap maps kept; a training step uses one per padded conv input size, four at most
_TAP_MAPS = 32


class Tensor:
    """A dense n-dimensional array with optional gradient tracking.

    `data` is immutable by convention after construction; only `grad` is
    mutated, and only during a single backward pass.
    """

    __slots__ = ("data", "requires_grad", "grad", "record", "rebuild")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.record: _Record | None = None  # the tape record that produced this tensor, if any
        # recomputes `data` from arrays its record keeps anyway (a recorded GN-ReLU output), if set
        self.rebuild: Callable[[], np.ndarray] | None = None

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
    """One recorded op. It holds no tensors: each input is the record that produced it on the same
    tape, the leaf tensor itself, or None when it needs no gradient."""

    __slots__ = ("inputs", "backward_fn", "tape_key")

    def __init__(self, inputs: tuple, backward_fn: Callable, tape_key: object):
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.tape_key = tape_key


class Tape:
    """Ordered record of operations for one logical training step."""

    def __init__(self):
        self.records: list[_Record] = []
        # names this tape in its records; the tape itself there would make a reference cycle
        self.key = object()

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False


_TAPE_STACK: list[Tape | None] = []  # the open tapes and, as None, the open no_grad blocks; innermost last


@contextlib.contextmanager
def no_grad():
    """Suspend tape recording (the key-encoder branch runs under this), even on a tape opened inside."""
    _TAPE_STACK.append(None)
    try:
        yield
    finally:
        _TAPE_STACK.pop()


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK and None not in _TAPE_STACK else None


def _source(t: Tensor, tape_key: object) -> "_Record | Tensor | None":
    if not t.requires_grad:
        return None
    # an op output from another (finished or outer) tape acts as a leaf here, and gets .grad
    return t.record if t.record is not None and t.record.tape_key is tape_key else t


def _recording_tape(inputs: Sequence[Tensor]) -> Tape | None:
    """The tape an op on `inputs` is recorded on: the active one, if any input requires a gradient."""
    tape = _active_tape()
    return tape if tape is not None and any(t.requires_grad for t in inputs) else None


def _make(out_data: np.ndarray, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    tape = _recording_tape(inputs)
    out = Tensor(out_data)
    if tape is not None:
        out.requires_grad = True
        out.record = _Record(tuple(_source(t, tape.key) for t in inputs), backward_fn, tape.key)
        tape.records.append(out.record)
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate `.grad` on every requires_grad tensor reachable from `loss`.

    Replays the tape in reverse recording order and releases it as it goes:
    each record's backward closure, with the arrays it saved, is taken off the
    record before it runs (or dropped unrun for a record off the gradient
    path), so a second call on the same tape raises ContractError. Gradients
    of tensors behind a `detach`/`no_grad` barrier stay absent.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if tape.records and tape.records[-1].backward_fn is None:
        raise ContractError("backward: this tape was already replayed; record the step on a new tape")
    # keyed by record (an op output on this tape) or by leaf tensor
    grads: dict = {} if loss.record is None else {loss.record: np.ones((), dtype=loss.dtype)}
    for rec in reversed(tape.records):
        # taken off the record, the closure and the arrays it saved are freed once it has run,
        # and a record off the gradient path frees them without running
        fn, rec.backward_fn = rec.backward_fn, None
        # consumers sit later on the tape, so by now grads[rec] is complete
        g_out = grads.pop(rec, None)
        if g_out is None:
            continue
        for src, g in zip(rec.inputs, fn(g_out)):
            if g is None or src is None:
                continue
            grads[src] = grads[src] + g if src in grads else g
    for src, g in grads.items():
        if isinstance(src, Tensor):  # records still present belong to another tape
            src.grad = np.asarray(g, dtype=src.dtype).reshape(src.shape)


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
    sa, sb = a.shape, b.shape
    return _make(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    sa, sb = a.shape, b.shape
    return _make(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    return _make(
        ad * bd,
        (a, b),
        lambda g: (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    return _make(
        ad / bd,
        (a, b),
        lambda g: (_unbroadcast(g / bd, ad.shape), _unbroadcast(-g * ad / (bd * bd), bd.shape)),
    )


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _make(a.data * s, (a,), lambda g: (g * s,))


def add_scalar(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _make(a.data + s, (a,), lambda g: (g,))


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def _unpack_mask(bits: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return np.unpackbits(bits, count=int(np.prod(shape))).reshape(shape).view(bool)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out = a.data * mask
    if _recording_tape((a,)) is None:  # nothing will read the mask
        return Tensor(out)
    # the tape keeps the mask at one bit per element
    bits, shape = np.packbits(mask), mask.shape
    return _make(out, (a,), lambda g: (g * _unpack_mask(bits, shape),))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    ad = a.data
    return _make(np.log(ad), (a,), lambda g: (g / ad,))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _make(out, (a,), lambda g: (g * (0.5 / out),))


# ---------------------------------------------------------------------------
# reductions and shape ops


def sum_(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape, dtype = a.shape, a.dtype

    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).astype(dtype, copy=False),)

    return _make(out, (a,), bwd)


def mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.shape[axis]
    shape, dtype = a.shape, a.dtype

    def bwd(g):
        g = np.asarray(g) / count
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).astype(dtype, copy=False),)

    return _make(out, (a,), bwd)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    in_shape = a.shape
    return _make(a.data.reshape(tuple(shape)), (a,), lambda g: (g.reshape(in_shape),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return _make(out, tensors, lambda g: tuple(np.split(g, splits, axis=axis)))


def gather_rows(a: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)
    out = a.data[idx]
    shape, dtype = a.shape, a.dtype

    def bwd(g):
        acc = np.zeros(shape, dtype=dtype)
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
    ad, bd = a.data, b.data
    return _make(ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for x [N,D], w [D,O], b [O]; an x [N, ...] is read as its [N,D] view."""
    if x.data.ndim < 2 or w.data.ndim != 2 or np.prod(x.shape[1:]) != w.shape[0] or b.shape != w.shape[1:]:
        raise DimensionError(f"linear shapes incompatible: {x.shape} x {w.shape} + {b.shape}")
    xd, wd, shape = x.data.reshape(x.shape[0], w.shape[0]), w.data, x.shape
    return _make(xd @ wd + b.data, (x, w, b), lambda g: ((g @ wd.T).reshape(shape), xd.T @ g, g.sum(axis=0)))


def l2_normalize(a: Tensor, epsilon: float = 1e-12) -> Tensor:
    """Normalize trailing-dimension slices to unit norm, epsilon-guarded near zero."""
    norm = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True))
    denom = np.maximum(norm, epsilon)
    out = a.data / denom
    dtype = a.dtype

    def bwd(g):
        inner = (out * g).sum(axis=-1, keepdims=True)
        # below the guard the denominator is the constant epsilon
        grad = np.where(norm > epsilon, (g - out * inner) / denom, g / denom)
        return (grad.astype(dtype, copy=False),)

    return _make(out, (a,), bwd)


def logsumexp(a: Tensor) -> Tensor:
    """log-sum-exp over the last axis, computed with a max shift."""
    if a.data.ndim == 0 or a.shape[-1] == 0:
        raise DimensionError(f"logsumexp needs a non-empty trailing axis, got shape {a.shape}")
    m = a.data.max(axis=-1, keepdims=True)
    shifted = np.exp(a.data - m)
    total = shifted.sum(axis=-1, keepdims=True)
    out = (m + np.log(total)).squeeze(-1)
    dtype = a.dtype

    def bwd(g):
        soft = shifted / total
        return ((np.expand_dims(g, -1) * soft).astype(dtype, copy=False),)

    return _make(out, (a,), bwd)


def group_norm(
    x: Tensor, gamma: Tensor, beta: Tensor, groups: int, eps: float, relu: bool = False
) -> Tensor:
    """Per-group z-score of x [N,C,H,W], then per-channel scale and shift (arXiv:1803.08494).

    With ``relu``, a ReLU runs in place on the output, and forward and backward give the bytes of
    ``relu(group_norm(...))`` in one record. A recorded call keeps the mask at one bit per element, as relu
    does; an unrecorded one packs none.
    A recorded relu output carries a ``rebuild`` function that recomputes it from the arrays this record
    keeps anyway (normed, gamma, beta), so a conv2d reading it keeps that function instead of the
    activation (arXiv:1604.06174; in-place activated norm layers, arXiv:1712.02616).
    An unrecorded call writes its output, and the ReLU, over x^, so it holds one x-sized array; a recorded
    one keeps x^ and allocates its output. The ops, their order and the bytes are the same either way."""
    n, c, h, w = x.shape
    if c % groups:
        raise DimensionError(f"group_norm: {c} channels do not split into {groups} groups")
    xg = x.data.reshape(n, groups, (c // groups) * h * w)
    normed = xg - xg.mean(axis=2, keepdims=True)
    # the variance from the squares of a few groups at a time: a row's pairwise mean does not depend on how
    # many rows come with it, so the bytes are those of one x-sized squares array
    rows, var = normed.reshape(n * groups, -1), np.empty((n * groups, 1), dtype=normed.dtype)
    step = max(1, _GN_SQUARES_BYTES // rows[0].nbytes)
    for i in range(0, n * groups, step):
        np.mean(np.square(rows[i : i + step]), axis=1, keepdims=True, out=var[i : i + step])
    sd = np.sqrt(var.reshape(n, groups, 1) + float(eps))
    normed = np.divide(normed, sd, out=normed).reshape(x.shape)
    gamma4, beta4 = gamma.data.reshape(1, c, 1, 1), beta.data.reshape(1, c, 1, 1)
    recorded = _recording_tape((x, gamma, beta)) is not None
    # nothing reads x^ after an unrecorded call, so y overwrites it there: one x-sized array, not two
    out = np.multiply(normed, gamma4, out=np.empty_like(normed) if recorded else normed)
    out += beta4
    bits = None
    if relu:
        mask = out > 0
        out *= mask  # relu's own product, in place
        if recorded:  # nothing reads the mask of an unrecorded call
            bits = np.packbits(mask)
        del mask

    cg, m = c // groups, xg.shape[2]
    del xg  # a view of x: the tape must not keep x alive

    def bwd(g):
        # at most two x-sized arrays at once: the masked g (then dx) and one product
        if bits is not None:
            g = g * _unpack_mask(bits, (n, c, h, w))
        gx = g * normed
        dgamma, s2 = gx.sum(axis=(0, 2, 3)), gx.sum(axis=(2, 3))
        del gx
        dbeta, s1 = g.sum(axis=(0, 2, 3)), g.sum(axis=(2, 3))
        # per group, dx = (g*gamma - mean(g*gamma) - x^ * mean(g*gamma*x^)) / sd, which per (n, c) is
        # k1*g + k2*x^ + k3 with k1 = gamma/sd and, over the group's channels, k2 = -sum(k1*s2)/m and
        # k3 = -sum(k1*s1)/m for s1 = sum_hw g and s2 = sum_hw g*x^; in a one-element group k3 = -k1*g
        k1 = gamma4.reshape(1, groups, cg) / sd
        k2 = (k1 * s2.reshape(n, groups, cg)).sum(axis=2, keepdims=True) / -m
        k3 = (k1 * s1.reshape(n, groups, cg)).sum(axis=2, keepdims=True) / -m
        k1, k2, k3 = (np.broadcast_to(k, (n, groups, cg)).reshape(n, c, 1, 1) for k in (k1, k2, k3))
        # only the masked g is this closure's own: the incoming g may be the one array add's backward
        # hands to both its inputs, so it is never written
        dx = np.multiply(g, k1, out=g if bits is not None else None)
        dx += normed * k2
        dx += k3
        return dx, dgamma, dbeta

    result = _make(out, (x, gamma, beta), bwd)
    if relu and recorded:

        def rebuild():
            # the forward's own ops, so the bytes are the output's
            y = normed * gamma4
            y += beta4
            y *= y > 0
            return y

        result.rebuild = rebuild
    return result


# ---------------------------------------------------------------------------
# convolution and pooling


@functools.lru_cache(maxsize=_TAP_MAPS)
def _tap_map(h: int, w: int, kh: int, kw: int, ph: int, pw: int) -> np.ndarray:
    """The pixel each (ho, wo, kh, kw) tap of a stride-1 correlation, zero-padded by ph rows and pw
    columns, reads from an image of h*w pixels followed by one zero pixel: its flat index, or h*w for every
    tap on the padding. Shapes alone set it (ho*wo*kh*kw indices, one image's worth), so it is cached and
    read-only."""
    ho, wo = h + 2 * ph - kh + 1, w + 2 * pw - kw + 1
    r = (np.arange(ho)[:, None] + np.arange(kh) - ph)[:, None, :, None]  # (ho, 1, kh, 1)
    s = (np.arange(wo)[:, None] + np.arange(kw) - pw)[None, :, None, :]  # (1, wo, 1, kw)
    taps = np.where((r >= 0) & (r < h) & (s >= 0) & (s < w), r * w + s, h * w).astype(np.intp).ravel()
    taps.flags.writeable = False
    return taps


def _im2col(x: np.ndarray, kh: int, kw: int, ph: int, pw: int) -> np.ndarray:
    """x [N,H,W,C] as its im2col matrix: rows (n, ho, wo), columns (kh, kw, c). x is copied once into
    [N, H*W+1, C], each image's pixels then one zero pixel, and np.take gathers every tap's pixel from it,
    a run of c values, along _tap_map (an index-driven lowering, arXiv:1410.0759)."""
    n, h, w, c = x.shape
    if (kh, kw, ph, pw) == (1, 1, 0, 0):  # each tap reads its own pixel, in order: x's rows are the matrix
        return np.ascontiguousarray(x).reshape(n * h * w, c)
    buf = np.empty((n, h * w + 1, c), dtype=x.dtype)
    np.copyto(buf[:, : h * w].reshape(n, h, w, c), x)
    buf[:, h * w] = 0
    return np.take(buf, _tap_map(h, w, kh, kw, ph, pw), axis=1).reshape(-1, kh * kw * c)


def _chunks(src: np.ndarray, kh: int, kw: int, ph: int, pw: int, f: int):
    """Yield (i, j, rows) for consecutive chunks src[i:j] of whole images, in image order; rows is one
    image's im2col row count. A chunk's im2col matrix and its GEMM result with f columns fit in what
    _IM2COL_BYTES leaves beside the [kh*kw*c, f] matrix they are multiplied by, but in no less than a
    quarter of it: the 2.25 MiB kernel matrix of a 256-to-256 3x3 conv would otherwise leave room for one
    image, whose GEMM has 16 rows at 4x4 and runs ~3x slower per image. A chunk is at least one image. f
    is 0 for the kernel gradient, whose product is kernel-sized. The caller gathers
    ``_im2col(src[i:j], kh, kw, ph, pw)`` inside one expression, so the matrix is freed before the next
    chunk's gather (a yielded matrix would stay bound to the loop variable during it)."""
    n, h, w, c = src.shape
    rows = (h + 2 * ph - kh + 1) * (w + 2 * pw - kw + 1)
    room = max(_IM2COL_BYTES - kh * kw * c * f * src.itemsize, _IM2COL_BYTES // 4)
    step = max(1, room // (rows * (kh * kw * c + f) * src.itemsize))
    for i in range(0, n, step):
        yield i, min(i + step, n), rows


def _correlate(src: np.ndarray, kh: int, kw: int, ph: int, pw: int, wmat: np.ndarray) -> np.ndarray:
    """Stride-1 cross-correlation of channels-last src [N,H,W,C], zero-padded by ph rows and pw columns
    on each side, as ``_im2col(src, kh, kw, ph, pw) @ wmat`` for wmat [kh*kw*C, F]; returns NCHW
    [N,F,OH,OW]. The im2col matrix is gathered in _chunks; each chunk's GEMM result is written straight
    into its images of the NCHW output (Caffe's column buffer, arXiv:1408.5093), so no whole-batch GEMM
    result is ever held. A GEMM row's sums do not depend on the other rows, so the bytes are those of one
    whole-batch GEMM; the one exception is a piece small enough (a few hundred rows by a few columns) for
    OpenBLAS's small-matrix kernel, which no encoder conv splits into. The kernel gradient gathers in chunks
    too but sums over rows, so its chunk GEMMs are added in chunk order and its bytes are one whole-batch
    GEMM's only where the batch is one chunk."""
    n, h, w, _ = src.shape
    ho, wo = h + 2 * ph - kh + 1, w + 2 * pw - kw + 1
    f = wmat.shape[1]
    out = np.empty((n, f, ho, wo), dtype=np.result_type(src.dtype, wmat.dtype))
    for i, j, _ in _chunks(src, kh, kw, ph, pw, f):
        # one expression, so the product is freed before the next chunk's is made
        out[i:j] = (_im2col(src[i:j], kh, kw, ph, pw) @ wmat).reshape(j - i, ho, wo, f).transpose(0, 3, 1, 2)
    return out


def conv2d(
    x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0, *, bias: Tensor | None = None
) -> Tensor:
    """2D cross-correlation at stride 1 with zero padding 0 <= padding < min(kh, kw) (no kernel flip) and
    an optional bias [F]. ``stride`` must be 1; it stays in the signature for callers that spell it out.

    The record keeps x for the kernel gradient. Where x carries a ``rebuild`` function (a recorded
    ``group_norm(..., relu=True)`` output), it keeps that function instead: backward rebuilds x for the
    kernel gradient and drops it before the input gradient's gather, so x is never kept on the tape."""
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise DimensionError(f"conv2d expects 4D input and kernel, got {x.shape} and {kernel.shape}")
    _, c, h, w = x.shape
    f, ck, kh, kw = kernel.shape
    if ck != c:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape} vs kernel {kernel.shape}")
    if not isinstance(stride, (int, np.integer)) or stride != 1:
        raise DimensionError(f"conv2d stride must be 1, got {stride!r}")
    if not isinstance(padding, (int, np.integer)) or not 0 <= padding < min(kh, kw):
        raise DimensionError(f"conv2d padding must be an int in [0, {min(kh, kw) - 1}], got {padding!r}")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise DimensionError(
            f"kernel {kernel.shape} larger than padded input {x.shape} (padding={padding})"
        )
    kdata = kernel.data
    need_dx, has_bias, x_dtype = x.requires_grad, bias is not None, x.dtype
    rebuild = x.rebuild
    x_kept = x.data if rebuild is None else None

    # _im2col works channels-last, the layout a view tensor's memory already has
    wmat = kdata.transpose(0, 2, 3, 1).reshape(f, -1).T
    out = _correlate(x.data.transpose(0, 2, 3, 1), kh, kw, padding, padding, wmat)
    if has_bias:  # once, to the NCHW output: per chunk it cost more than the GEMM at a small F (conv1)
        out += bias.data.reshape(f, 1, 1)

    def bwd(g):
        # g: (n,f,ho,wo)
        g_nhwc = np.ascontiguousarray(g.transpose(0, 2, 3, 1))  # one copy serves dk and dx
        # the tape keeps x, not its im2col matrix (kh*kw times the size of x): the kernel gradient
        # gathers it again, in chunks, and sums their products in chunk order (arXiv:1604.06174)
        x_nhwc = (x_kept if rebuild is None else rebuild()).transpose(0, 2, 3, 1)
        gmat = g_nhwc.reshape(-1, f)
        for i, j, rows in _chunks(x_nhwc, kh, kw, padding, padding, 0):
            part = gmat[i * rows : j * rows].T @ _im2col(x_nhwc[i:j], kh, kw, padding, padding)
            if i:
                dk += part
            else:
                dk = part
        del x_nhwc  # a rebuilt x is freed before the input gradient's gather
        dk = dk.reshape(f, kh, kw, c).transpose(0, 3, 1, 2)
        dx = None  # backward() drops the gradient of an input that does not require one
        if need_dx:
            # at stride 1, dx is the full correlation of g, padded by k-1-padding, with the flipped
            # kernel (arXiv:1603.07285): the forward's lowering run on g
            kflip = kdata[:, :, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(c, -1)
            dx = _correlate(g_nhwc, kh, kw, kh - 1 - padding, kw - 1 - padding, kflip.T)
            dx = dx.astype(x_dtype, copy=False)
        grads = (dx, dk.astype(kdata.dtype, copy=False))
        return grads + (g.sum(axis=(0, 2, 3)),) if has_bias else grads

    return _make(out, (x, kernel, bias) if has_bias else (x, kernel), bwd)


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
