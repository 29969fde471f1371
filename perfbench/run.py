"""Outside-in benchmark of amimv pretraining and linear-probe evaluation.

Usage (from the repository root):

    python3 perfbench/run.py --workload tiny28_amimv --seed 0 --seconds 35 --trace 0

The benchmark drives the library only through the calls a user makes with
``amimv pretrain`` followed by ``amimv probe``: ``datasets.resolve_dataset``,
``trainer.pretrain``, ``evaluation.extract_features`` on the train and test
splits, ``evaluation.linear_probe`` and ``evaluation.classification_metrics``.
One process runs one workload as a closed loop, one training run and then
its probe at a time, until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics from the
spans of the traced ones (see spans.py); the two kinds of iteration give
the tracing overhead. README.md in this directory explains the workloads
and which layer metric should move which end-to-end metric.

The last line of standard output is the result, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The line
before it is a JSON detail record (environment, checkpoint digest, probe
AUC, fail rate, raw samples); it is also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS thread: on a small shared machine a second thread competes with
# other tenants and widens the run-to-run spread more than it speeds the
# small matrices up.
BLAS_THREADS = 1
# set-up samples per untraced run, taken at an even pace over the run
SETUP_SAMPLES = 24
EPOCHS = 1
# the criterion-7 desk-scale knobs of the acceptance suite
KNOBS = dict(ema_momentum=0.9, blur_probability=0.5, crop_scale=(0.5, 1.0))


@dataclass(frozen=True)
class Workload:
    counts: str
    size: int
    arch: str
    batch: int
    mode: str

    def spec(self, seed: int) -> str:
        return f"synthetic:C=4,counts={self.counts},size={self.size},seed={seed}"


WORKLOADS = {
    "tiny28_amimv": Workload("700:70:70:70", 28, "tiny", 64, "amimv"),
    "tiny28_simclr": Workload("700:70:70:70", 28, "tiny", 64, "simclr_baseline"),
    # one 5 s step per training run: the step is what matters, and a full
    # 350:35:35:35 epoch (9 steps) would not fit a run
    "sr32_amimv": Workload("70:7:7:7", 32, "small_residual", 32, "amimv"),
}

def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# environment


def _src_files() -> list[Path]:
    return sorted((SRC / "amimv").rglob("*.py"))


def _src_digest() -> str:
    h = hashlib.blake2b(digest_size=16)
    for path in _src_files():
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _git_sha() -> str | None:
    # only this checkout's own repository: never search the directories above it
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": min(BLAS_THREADS, nproc),
        "nproc": nproc,
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in _src_files()),
    }


# ---------------------------------------------------------------------------
# set-up time


def setup_sample(spec: str, seed: int) -> float:
    """Imports plus dataset resolution in one fresh process (see setup_probe.py)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), spec, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        _fail(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


# ---------------------------------------------------------------------------
# one iteration: a training run, then its probe


def file_digest(run_dir: Path) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in ("checkpoint.bin", "log.csv"):
        h.update((run_dir / name).read_bytes())
        h.update(b"\0")
    return h.hexdigest()


@dataclass
class Iteration:
    train_s: float | None = None
    eval_s: float | None = None
    digest: str | None = None
    auc: float | None = None
    failed_steps: int = 0
    failed_probes: int = 0
    probes: int = 0


def iterate(amimv, ds, config, seed: int, steps: int, tracer=None, index: int = 0) -> Iteration:
    trainer, evaluation = amimv.trainer, amimv.evaluation
    it = Iteration()
    if tracer is not None:
        tracer.run = f"train-{index}"
    start = _clock()
    try:
        result = trainer.pretrain(config, dataset=ds)
    except Exception:  # the loop keeps running; the failure is counted
        traceback.print_exc()
        it.failed_steps = steps
        return it
    it.train_s = _clock() - start
    it.digest = file_digest(Path(config.out_dir))
    if not all(math.isfinite(v) for v in result.epoch_losses):
        print(f"perfbench: non-finite epoch loss {result.epoch_losses}", file=sys.stderr)
        it.failed_steps = steps

    if tracer is not None:
        tracer.run = f"probe-{index}"
    it.probes = 1
    start = _clock()
    try:
        train_x, train_y = evaluation.extract_features(result.pair, ds, "train")
        test_x, test_y = evaluation.extract_features(result.pair, ds, "test")
        probe = evaluation.linear_probe(
            train_x, train_y, evaluation.ProbeConfig(seed=seed), num_classes=ds.num_classes
        )
        report = evaluation.classification_metrics(probe.scores(test_x), test_y)
    except Exception:  # the loop keeps running; the failure is counted
        traceback.print_exc()
        it.failed_probes = 1
        return it
    it.eval_s = _clock() - start
    it.auc = report.macro_auc
    if not (math.isfinite(it.auc) and 0.0 <= it.auc <= 1.0):
        print(f"perfbench: macro AUC {it.auc} outside [0, 1]", file=sys.stderr)
        it.failed_probes = 1
    return it


def check_digests(iterations: list[Iteration], steps: int, key: str) -> str | None:
    """Every training run of one source tree and config must write the same files.

    The first digest seen for ``key`` is kept in .perfbench_out/digests.json,
    so runs in later processes (traced or not) are checked against it too.
    """
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    reference = known.get(key)
    for it in iterations:
        if it.digest is None:
            continue
        if reference is None:
            reference = it.digest
        if it.digest != reference:
            print(f"perfbench: checkpoint digest {it.digest} != {reference}", file=sys.stderr)
            it.failed_steps = steps
    if reference is not None and key not in known:
        known[key] = reference
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)
    return reference


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of traced iterations


def layer_metrics(tracer, selfs: list[int], steps: int, train_runs: int, probes: int) -> dict:
    """Every per-layer metric as name -> (value, unit); see README.md."""
    train = spans.aggregate(tracer.spans, selfs, "train")
    probe = spans.aggregate(tracer.spans, selfs, "probe")
    setup = spans.aggregate(tracer.spans, selfs, "setup")
    empty = spans.Totals()
    n_steps = steps * train_runs

    def t(name):
        return train.get(name, empty)

    def ms_per_step(ns):
        return ns * 1e-6 / n_steps

    def s_per_probe(name):
        return probe.get(name, empty).total_ns * 1e-9 / probes

    m = {"datasets.resolve_dataset.s": (setup.get("datasets.resolve_dataset", empty).total_ns * 1e-9, "s")}
    for fn in ("augment_view", "normalize_view"):
        a = t(f"views.{fn}")
        m[f"views.{fn}.calls"] = (a.calls / n_steps, "count")
        m[f"views.{fn}.ms"] = (ms_per_step(a.total_ns), "ms")
    m["views.build_amimv_batch.ms"] = (ms_per_step(t("views.build_amimv_batch").total_ns), "ms")
    m["views.build_amimv_batch.self_ms"] = (ms_per_step(t("views.build_amimv_batch").self_ns), "ms")

    q, k = t("model.encode.q"), t("model.encode.k")
    m["model.encode.calls"] = ((q.calls + k.calls) / n_steps, "count")
    m["model.encode.q_ms"] = (ms_per_step(q.total_ns), "ms")
    m["model.encode.k_ms"] = (ms_per_step(k.total_ns), "ms")
    m["model.encode.self_ms"] = (ms_per_step(q.self_ns + k.self_ns), "ms")
    m["model.encode.eval_ms"] = (probe.get("model.encode.eval", empty).total_ns * 1e-6 / probes, "ms")
    gn_bwd = sum(a.total_ns for key, a in train.items() if key.startswith("model._group_norm@"))
    m["model.group_norm.fwd_ms"] = (ms_per_step(t("model._group_norm").total_ns), "ms")
    m["model.group_norm.bwd_ms"] = (ms_per_step(gn_bwd), "ms")
    m["model.group_norm.self_ms"] = (ms_per_step(t("model._group_norm").self_ns), "ms")
    m["model.ema_update.ms"] = (ms_per_step(t("model.ema_update").total_ns), "ms")
    save = t("model.save_checkpoint")
    m["model.save_checkpoint.ms"] = (save.total_ns * 1e-6 / save.calls if save.calls else 0.0, "ms")
    m["model.save_checkpoint.calls"] = (save.calls / n_steps, "count")

    m["loss.amimv_loss.ms"] = (ms_per_step(t("loss.amimv_loss").total_ns), "ms")
    m["loss.nt_xent.ms"] = (ms_per_step(t("loss.nt_xent").total_ns), "ms")
    m["loss.self_ms"] = (ms_per_step(t("loss.amimv_loss").self_ns + t("loss.nt_xent").self_ns), "ms")

    bwd = t("tensor.backward")
    m["tensor.tape.records"] = (bwd.work / n_steps, "count")
    m["tensor.backward.ms"] = (ms_per_step(bwd.total_ns), "ms")
    m["tensor.backward.self_ms"] = (ms_per_step(bwd.self_ns), "ms")
    for op in tracer.ops:
        fwd = t(f"tensor.{op}")
        m[f"tensor.{op}.calls"] = (fwd.calls / n_steps, "count")
        m[f"tensor.{op}.fwd_ms"] = (ms_per_step(fwd.self_ns), "ms")
        m[f"tensor.{op}.bwd_ms"] = (ms_per_step(t(f"tensor.{op}.bwd").total_ns), "ms")
    conv, conv_bwd = t("tensor.conv2d"), t("tensor.conv2d.bwd")
    m["tensor.conv2d.gflop"] = (conv.work * 1e-9 / n_steps, "GFLOP")
    m["tensor.matmul.gflop"] = (t("tensor.matmul").work * 1e-9 / n_steps, "GFLOP")
    m["tensor.conv2d.fwd_gflops"] = (conv.work / conv.self_ns if conv.self_ns else 0.0, "GFLOP/s")
    m["tensor.conv2d.bwd_gflops"] = (
        conv_bwd.work / conv_bwd.total_ns if conv_bwd.total_ns else 0.0, "GFLOP/s"
    )

    m["trainer.steps"] = (steps, "count")
    m["trainer.sgd_step.ms"] = (ms_per_step(t("trainer.sgd_step").total_ns), "ms")
    m["trainer.pretrain.self_ms"] = (ms_per_step(t("trainer.pretrain").self_ns), "ms")

    m["evaluation.extract_features.s"] = (s_per_probe("evaluation.extract_features"), "s")
    m["evaluation.linear_probe.s"] = (s_per_probe("evaluation.linear_probe"), "s")
    m["evaluation.classification_metrics.s"] = (s_per_probe("evaluation.classification_metrics"), "s")
    return m


# Reported per-step metrics that do not overlap: together they should cover
# every traced trainer.pretrain. Inclusive times are listed only for
# functions that call nothing traced, and composites by their self time.
DISJOINT = (
    "trainer.pretrain.self_ms", "trainer.sgd_step.ms",
    "views.augment_view.ms", "views.normalize_view.ms", "views.build_amimv_batch.self_ms",
    "model.encode.self_ms", "model.group_norm.self_ms", "model.ema_update.ms",
    "loss.self_ms", "tensor.backward.self_ms",
)


def unattributed_frac(layers: dict, ops: list[str], traced_s: list[float]) -> float:
    """Share of traced pretrain wall time that no disjoint metric reports.

    ``traced_s`` is the wall time of each traced ``trainer.pretrain`` call as
    the caller's clock saw it, independent of the spans.
    """
    names = list(DISJOINT) + [f"tensor.{op}.{part}" for op in ops for part in ("fwd_ms", "bwd_ms")]
    per_step_ms = sum(layers[n][0] for n in names if n in layers)
    save_ms = layers["model.save_checkpoint.ms"][0] * layers["model.save_checkpoint.calls"][0]
    reported_s = (per_step_ms + save_ms) * 1e-3 * layers["trainer.steps"][0] * len(traced_s)
    return 1.0 - reported_s / sum(traced_s)


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    return args


def traced_result(tracer, per_layer, steps, traced_its, train_s, detail) -> tuple[dict, bool]:
    """Per-layer metrics of the traced iterations, and whether they cover the
    traced pretrain wall time to within the tracing overhead."""
    traced_s = [it.train_s for it in traced_its]
    overhead = statistics.median(traced_s) / statistics.median(train_s) - 1.0
    selfs = spans.self_times(tracer.spans)
    layers = layer_metrics(tracer, selfs, steps, len(traced_s), sum(it.probes for it in traced_its))
    layers["trace.overhead_frac"] = (overhead, "fraction")
    residual = unattributed_frac(layers, tracer.ops, traced_s)
    covered = abs(residual) <= abs(overhead)
    if not covered:
        print(
            f"perfbench: reported layer times miss {residual:.2%} of traced pretrain wall time,"
            f" more than the tracing overhead {overhead:.2%}",
            file=sys.stderr,
        )
    detail["trace_unattributed_frac"] = residual
    # an op that a later commit removed reads 0 and is listed as absent
    detail["absent"] = tracer.absent + [m["name"] for m in per_layer if m["name"] not in layers]
    detail["layers"] = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    result = {}
    for m in per_layer:
        value, unit = layers.get(m["name"], (0.0, m["unit"]))
        result[m["name"]] = {"value": value, "unit": unit}
    return result, covered


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "amimv" / "__init__.py").is_file():
        _fail(f"no amimv sources under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import amimv
    import amimv.datasets
    import amimv.evaluation
    import amimv.trainer

    if Path(amimv.__file__).resolve().parent != (SRC / "amimv").resolve():
        _fail(f"imported amimv from {amimv.__file__}, not from {SRC}")

    # the metric names and units the result line carries
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    spec = workload.spec(args.seed)
    OUT.mkdir(exist_ok=True)
    env = environment()

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        with tracer.installed():
            ds = amimv.datasets.resolve_dataset(spec, seed=args.seed)
    else:
        ds = amimv.datasets.resolve_dataset(spec, seed=args.seed)

    run_dir = OUT / "work" / args.workload
    config = amimv.trainer.RunConfig(
        dataset=spec, out_dir=str(run_dir), mode=workload.mode, epochs=EPOCHS,
        batch_size=workload.batch, seed=args.seed, arch=workload.arch, **KNOBS,
    )
    steps = EPOCHS * (ds.splits["train"][0].shape[0] // workload.batch)

    # Closed loop: start another iteration while it is expected to end in
    # time. Untraced runs take set-up samples between iterations, at least
    # one each time and otherwise at the pace that spreads SETUP_SAMPLES
    # over the run, like the training samples.
    min_iterations = 2 if args.trace else 1
    iterations: list[Iteration] = []
    traced: list[bool] = []
    durations: list[float] = []
    setup: list[float] = []
    begin = _clock()
    deadline = begin + args.seconds
    while len(iterations) < min_iterations or _clock() + statistics.median(durations) <= deadline:
        k = len(iterations)
        use_trace = tracer is not None and k % 2 == 1
        start = _clock()
        if use_trace:
            with tracer.installed():
                it = iterate(amimv, ds, config, args.seed, steps, tracer, k)
        else:
            it = iterate(amimv, ds, config, args.seed, steps)
        if tracer is None:
            elapsed = (_clock() - begin) / args.seconds if args.seconds else 1.0
            due = SETUP_SAMPLES * min(elapsed, 1.0)
            while len(setup) < max(due, len(iterations) + 1):
                setup.append(setup_sample(spec, args.seed))
        durations.append(_clock() - start)
        if len(durations) == 1:
            # Peak memory of one pretrain + probe session, as a user has it.
            # Later iterations only add allocator fragmentation from reruns
            # in one process, which varies from run to run.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        iterations.append(it)
        traced.append(use_trace)
    while tracer is None and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(spec, args.seed))
    shutil.rmtree(run_dir, ignore_errors=True)

    config_key = hashlib.blake2b(repr(config).encode(), digest_size=8).hexdigest()
    digest = check_digests(iterations, steps, f"{env['src_digest']}:{config_key}")
    attempted = sum(steps + it.probes for it in iterations)
    failed = sum(it.failed_steps + it.failed_probes for it in iterations)
    plain = [it for it, tr in zip(iterations, traced) if not tr]
    train_s = [it.train_s for it in plain if it.train_s is not None]
    eval_s = [it.eval_s for it in plain if it.eval_s is not None]
    traced_done = [it for it, tr in zip(iterations, traced) if tr and it.train_s is not None]
    if not train_s or not eval_s or (tracer is not None and not traced_done):
        print("perfbench: no iteration completed; no result", file=sys.stderr)
        return 1

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "dataset": spec,
        "steps_per_training_run": steps,
        "batch_size": workload.batch,
        "environment": env,
        "iterations": len(iterations),
        "fail_rate": {"value": failed / attempted, "unit": "fraction"},
        "checkpoint_digest": digest,
        "macro_auc": sorted({it.auc for it in iterations if it.auc is not None}),
        "samples": {"setup_s": setup, "train_s": train_s, "eval_s": eval_s},
    }
    correct = failed == 0
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup),
            "train_images_per_s": statistics.median(steps * workload.batch / s for s in train_s),
            "eval_s": statistics.median(eval_s),
            "peak_rss_mb": peak_rss_mb,
        }
        result = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}
        for name, entry in result.items():
            print(f"{name:20s} {entry['value']:.6g} {entry['unit']}")
        print(f"{'fail_rate':20s} {failed / attempted:.6g} fraction ({failed}/{attempted})")
    else:
        result, covered = traced_result(
            tracer, bench["per_layer"], steps, traced_done, train_s, detail
        )
        correct = correct and covered
        tracer.write(str(OUT / f"spans-{args.workload}.jsonl.gz"))

    detail_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
