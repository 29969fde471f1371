"""Spans and timing wrappers for the traced benchmark run.

Nothing under ``src/`` knows about tracing. ``Tracer.installed()`` swaps
timing wrappers into the module attributes of the ``amimv`` package and
restores the originals on exit, so untraced code runs unchanged:

- every target in ``TARGETS``, under each module binding of the same
  function object (``trainer`` imports ``build_amimv_batch`` and
  ``augment_view`` by name, ``evaluation`` imports ``normalize_view``);
- every public function of ``amimv.tensor``, discovered at install time,
  so an op added later is timed with no change here;
- ``tensor.backward``, and the backward function of each tape record an
  op appends, so each op's backward time is attributed to that op;
- ``tensor.Tape`` and ``tensor.no_grad``, only to know which tape is
  active and whether the key encoder is running.

A name that is missing is reported in ``absent`` instead of failing.

A span is ``[name, start_ns, end_ns, parent, run, info]``: ``parent`` is
the index of the enclosing span (-1 for none) and ``run`` names the
operation the span belongs to (``setup-0``, ``train-<k>``, ``probe-<k>``).
``info`` is the flop count of a conv2d or matmul forward, the record count
of a backward pass, or ``[owner, flops]`` for one record's backward replay,
where ``owner`` is the innermost non-tensor span that made the record (so
``model._group_norm`` gets the backward time of its ops). Spans stay in
memory until ``write`` and self times are computed from them, never from
separate wall clocks.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import sys
import time

_now = time.perf_counter_ns

# (module, attribute) pairs on the pretrain and probe paths
TARGETS = (
    ("datasets", "resolve_dataset"),
    ("views", "augment_view"),
    ("views", "normalize_view"),
    ("views", "build_amimv_batch"),
    ("model", "encode"),
    ("model", "ema_update"),
    ("model", "save_checkpoint"),
    ("model", "_group_norm"),
    ("loss", "amimv_loss"),
    ("loss", "nt_xent"),
    ("trainer", "pretrain"),
    ("trainer", "sgd_step"),
    ("evaluation", "extract_features"),
    ("evaluation", "linear_probe"),
    ("evaluation", "classification_metrics"),
)

# public tensor functions that are not ops
_TENSOR_NON_OPS = ("backward", "no_grad")


def public_ops(tensor_module) -> list[str]:
    """Names of the public op functions defined in ``amimv.tensor``."""
    return sorted(
        name
        for name, fn in vars(tensor_module).items()
        if inspect.isfunction(fn)
        and not name.startswith("_")
        and fn.__module__ == tensor_module.__name__
        and name not in _TENSOR_NON_OPS
    )


def _conv2d_flops(args, out) -> int:
    # out (n, f, ho, wo), kernel (f, c, kh, kw): one multiply-add per tap
    n, f, ho, wo = out.shape
    _, c, kh, kw = args[1].shape
    return 2 * n * f * ho * wo * c * kh * kw


def _matmul_flops(args, out) -> int:
    m, n = out.shape
    return 2 * m * n * args[0].shape[1]


_FLOPS = {"conv2d": _conv2d_flops, "matmul": _matmul_flops}


class Tracer:
    """Span store plus the wrappers that fill it; ``run`` is set by the caller."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = "setup-0"
        self.ops: list[str] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._tapes: list = []
        self._no_grad_depth = 0
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str, info=None) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0, 0, parent, self.run, info])
        self._stack.append(i)
        self.spans[i][1] = _now()
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = _now()
        self._stack.pop()

    def _owner(self) -> str:
        """Innermost open span that is not a tensor op: who made a record."""
        for i in reversed(self._stack):
            name = self.spans[i][0]
            if not name.startswith("tensor."):
                return name
        return ""

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, run, info in self.spans:
                row = {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "run": run}
                if info is not None:
                    row["info"] = info
                fh.write(json.dumps(row) + "\n")

    # -- wrappers ------------------------------------------------------------

    def _timed(self, fn, name, info=None):
        """Wrap ``fn`` in a span; ``name`` and ``info`` may be callables of
        the call's arguments, evaluated when the span opens."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(
                name(*args) if callable(name) else name,
                info(*args) if callable(info) else info,
            )
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return wrapper

    def _encode_phase(self, *args) -> str:
        if self.run.startswith("probe"):
            return "model.encode.eval"
        return "model.encode.k" if self._no_grad_depth else "model.encode.q"

    def _timed_op(self, fn, op):
        name = "tensor." + op
        bwd_name = name + ".bwd"
        flops_of = _FLOPS.get(op)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tape = self._tapes[-1] if self._tapes else None
            n0 = len(tape.records) if tape is not None else 0
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            flops = flops_of(args, out) if flops_of else 0
            if flops:
                self.spans[i][5] = flops
            if tape is not None and len(tape.records) > n0:
                owner = self._owner()
                for rec in tape.records[n0:]:
                    # a nested op already wrapped the records it made
                    if not getattr(rec.backward_fn, "timed_backward", False):
                        # both gradients (input and weight) cost one forward each
                        rec.backward_fn = self._timed(rec.backward_fn, bwd_name, [owner, 2 * flops])
                        rec.backward_fn.timed_backward = True
            return out

        return wrapper

    def _timed_backward(self, fn):
        def records(*args):
            return next((len(a.records) for a in args if hasattr(a, "records")), 0)

        return self._timed(fn, "tensor.backward", records)

    def _tape_class(self, base):
        tracer = self

        class TracedTape(base):
            def __enter__(self):
                entered = super().__enter__()
                tracer._tapes.append(self)
                return entered

            def __exit__(self, *exc):
                tracer._tapes.pop()
                return super().__exit__(*exc)

        return TracedTape

    def _no_grad(self, base):
        @contextlib.contextmanager
        def traced_no_grad(*args, **kwargs):
            self._no_grad_depth += 1
            try:
                with base(*args, **kwargs):
                    yield
            finally:
                self._no_grad_depth -= 1

        return traced_no_grad

    # -- installation ------------------------------------------------------------

    def _rebind(self, modules, original, replacement) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "amimv" or n.startswith("amimv.")]
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        absent = []
        for mod_name, attr in TARGETS:
            original = getattr(by_name.get(mod_name), attr, None)
            if original is None:
                absent.append(f"{mod_name}.{attr}")
                continue
            name = self._encode_phase if (mod_name, attr) == ("model", "encode") else f"{mod_name}.{attr}"
            self._rebind(modules, original, self._timed(original, name))

        tensor = by_name["tensor"]
        self.ops = public_ops(tensor)
        for op in self.ops:
            original = getattr(tensor, op)
            self._rebind(modules, original, self._timed_op(original, op))
        for attr, make in (
            ("backward", self._timed_backward),
            ("Tape", self._tape_class),
            ("no_grad", self._no_grad),
        ):
            original = getattr(tensor, attr, None)
            if original is None:
                absent.append(f"tensor.{attr}")
                continue
            self._rebind(modules, original, make(original))
        self.absent = absent

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# ---------------------------------------------------------------------------
# summary


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it its children cover (ns)."""
    covered = [0] * len(spans)
    last_end = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent < 0:
            continue
        # siblings are appended in start order, so a running end merges them
        lo = max(start, last_end[parent])
        if end > lo:
            covered[parent] += end - lo
        last_end[parent] = max(last_end[parent], end)
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


class Totals:
    """Totals over the spans of one name."""

    __slots__ = ("calls", "total_ns", "self_ns", "work")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.work = 0  # flops for conv2d/matmul, tape records for backward


def aggregate(spans: list[list], selfs: list[int], kind: str) -> dict[str, Totals]:
    """Per-name totals over the spans of runs named ``<kind>-<k>``."""
    prefix = kind + "-"
    out: dict[str, Totals] = {}
    for span, self_ns in zip(spans, selfs):
        name, start, end, _, run, info = span
        if not run.startswith(prefix):
            continue
        agg = out.get(name)
        if agg is None:
            agg = out[name] = Totals()
        agg.calls += 1
        agg.total_ns += end - start
        agg.self_ns += self_ns
        if isinstance(info, list):  # backward replay: [owner, flops]
            agg.work += info[1]
            owned = out.setdefault(f"{info[0]}@{name}", Totals())
            owned.calls += 1
            owned.total_ns += end - start
        elif isinstance(info, int):  # forward flops, or record count
            agg.work += info
    return out

