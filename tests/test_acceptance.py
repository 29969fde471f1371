"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v` for a per-criterion
pass/fail line. Criterion 7 trains six 50-epoch encoders and dominates
the runtime (several minutes); everything else finishes in seconds.
"""

import math
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from amimv import charts
from amimv import evaluation as E
from amimv import loss as L
from amimv import model as M
from amimv import tensor as T
from amimv import trainer as TR
from amimv.datasets import (
    LabelHistogram,
    load_npz,
    resolve_dataset,
    save_npz,
)
from amimv.imbalance import imbalance_metrics
from amimv.tensor import Tensor
from amimv.views import RngStream, augment_view

from _gradcheck import check_gradients

DERMA_TRAIN_COUNTS = [228, 359, 769, 80, 779, 4693, 99]


# ---------------------------------------------------------------------------
# criterion 1: published imbalance-table row


def test_criterion_1_imbalance_table_row():
    start = time.perf_counter()
    report = imbalance_metrics(LabelHistogram(counts=DERMA_TRAIN_COUNTS))
    elapsed = time.perf_counter() - start
    assert report.ir == pytest.approx(58.66, abs=0.01)
    assert report.cv == pytest.approx(1.65, abs=0.01)
    assert report.ne == pytest.approx(0.58, abs=0.01)
    assert report.gi == pytest.approx(0.64, abs=0.01)
    assert report.rcr == pytest.approx(1.14, abs=0.01)
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# criterion 2: finite-difference gradient checks, >= 20 instances per op


def _gradcheck_cases(rng):
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(2, 3))
    pos = np.abs(rng.normal(size=(2, 3))) + 0.5
    m1 = rng.normal(size=(2, 3))
    m2 = rng.normal(size=(3, 2))
    img = rng.normal(size=(1, 1, 4, 4))
    ker = rng.normal(size=(2, 1, 2, 2)) * 0.5
    idx = np.array([0, 1, 1])
    return [
        (lambda x, y: T.sum_(T.mul(T.add(x, y), T.sub(x, y))), (a, b)),
        (lambda x, y: T.sum_(T.div(x, y)), (a, pos)),
        (lambda x: T.sum_(T.scale(T.neg(x), 1.7)), (a,)),
        (lambda x: T.sum_(T.relu(T.add_scalar(x, 0.05))), (pos,)),
        (lambda x: T.sum_(T.exp(T.scale(x, 0.3))), (a,)),
        (lambda x: T.sum_(T.log(x)), (pos,)),
        (lambda x: T.sum_(T.sqrt(x)), (pos,)),
        (lambda x: T.sum_(T.mean(x, axis=1)), (a,)),
        (lambda x: T.sum_(T.reshape(x, (3, 2))), (a,)),
        (lambda x, y: T.sum_(T.mul(T.concat([x, y], axis=0), T.concat([x, y], axis=0))), (a, b)),
        (lambda x: T.sum_(T.exp(T.gather_rows(x, idx))), (a,)),
        (lambda x: T.sum_(T.mul(T.transpose(x), T.transpose(x))), (a,)),
        (lambda x, y: T.sum_(T.matmul(x, y)), (m1, m2)),
        (lambda x: T.sum_(T.exp(T.l2_normalize(x))), (a,)),
        (lambda x: T.sum_(T.logsumexp(x)), (a,)),
        (lambda x, k: T.sum_(T.conv2d(x, k, stride=1, padding=1)), (img, ker)),
        (lambda x: T.sum_(T.mul(T.avg_pool2d(x, 2), T.avg_pool2d(x, 2))), (img,)),
    ]


def test_criterion_2_gradient_checks():
    start = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for build, arrays in _gradcheck_cases(rng):
            check_gradients(build, arrays, rtol=1e-4)
        # composed objective; the key branch is a constant by construction
        k1 = Tensor(rng.normal(size=(3, 4)).astype(np.float64))
        k2 = Tensor(rng.normal(size=(3, 4)).astype(np.float64))

        def composed(z1n, z2a):
            return L.amimv_loss(z1n, z2a, k1, k2, L.LossConfig(tau=0.3))

        check_gradients(
            composed, [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))], rtol=1e-4
        )
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# criterion 3: contrastive-loss closed forms


def test_criterion_3_loss_closed_forms():
    one = Tensor(np.array([[0.6, 0.8]], dtype=np.float32))
    assert L.nt_xent(one, one, tau=0.2).item() == pytest.approx(0.0, abs=1e-12)

    for n in (2, 4, 8):
        z = T.l2_normalize(Tensor(np.random.default_rng(n).normal(size=(1, 6)).astype(np.float32)))
        tiled = Tensor(np.tile(z.data, (n, 1)))
        value = L.nt_xent(tiled, tiled, tau=0.2).item()
        assert value == pytest.approx(math.log(2 * n - 1), abs=1e-6)

    eye = np.eye(2, dtype=np.float32)
    value = L.nt_xent(Tensor(eye), Tensor(eye.copy()), tau=1.0).item()
    assert value == pytest.approx(math.log(1 + 2 * math.e**-1), abs=1e-4)
    assert value == pytest.approx(0.5514, abs=1e-4)

    rng = np.random.default_rng(0)
    za, zb = Tensor(rng.normal(size=(5, 8)).astype(np.float32)), Tensor(
        rng.normal(size=(5, 8)).astype(np.float32)
    )
    ka, kb = Tensor(rng.normal(size=(5, 8)).astype(np.float32)), Tensor(
        rng.normal(size=(5, 8)).astype(np.float32)
    )
    cfg = L.LossConfig(tau=0.2, fusion="mean_norm")
    fused = L.nt_xent(L.fuse(za, zb, cfg.fusion), L.fuse(ka, kb, cfg.fusion), cfg.tau)
    assert L.amimv_loss(za, zb, ka, kb, cfg).item() == fused.item()


# ---------------------------------------------------------------------------
# criterion 4: stop-gradient and EMA contracts


def test_criterion_4_stop_gradient_and_ema(tmp_path):
    config = TR.RunConfig(
        dataset="synthetic:C=2,counts=20:12,size=16",
        out_dir=str(tmp_path / "run"),
        epochs=1,
        batch_size=8,
        seed=0,
    )
    result = TR.pretrain(config)
    for tensor in result.pair.k_params.values():
        assert tensor.grad is None
        assert not tensor.requires_grad

    enc = M.EncoderConfig(arch="tiny", input_channels=1, input_size=16)
    for m in (0.37, 1.0, 0.0):
        pair = M.init_pair(enc, seed=1, momentum=m)
        rng = np.random.default_rng(2)
        for t in pair.q_params.values():
            t.data = rng.normal(size=t.data.shape).astype(np.float32)
        k_before = {n: t.data.copy() for n, t in pair.k_params.items()}
        M.ema_update(pair)
        for name, t in pair.k_params.items():
            expected = m * k_before[name] + (1 - m) * pair.q_params[name].data
            if m in (0.0, 1.0):
                np.testing.assert_array_equal(t.data, expected.astype(np.float32))
            else:
                np.testing.assert_allclose(t.data, expected, atol=1e-7)


# ---------------------------------------------------------------------------
# criterion 5: warmup-then-cosine schedule


def test_criterion_5_schedule_values():
    schedule = TR.Schedule(base_lr=TR.base_lr_for_batch(128), total_steps=1000)
    assert TR.lr_at(0, schedule) == 1e-4
    assert schedule.base_lr == pytest.approx(0.375, abs=1e-12)
    assert TR.lr_at(schedule.warmup_steps, schedule) == pytest.approx(0.375, abs=1e-12)
    w = schedule.warmup_steps
    mid = w + (schedule.total_steps - w) // 2
    assert TR.lr_at(mid, schedule) == pytest.approx(schedule.base_lr / 2, abs=1e-12)
    assert TR.lr_at(schedule.total_steps, schedule) == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# criterion 6: bitwise run determinism


def test_criterion_6_bitwise_determinism(tmp_path):
    def run(tag):
        config = TR.RunConfig(
            dataset="synthetic:C=2,counts=40:24,size=16",
            out_dir=str(tmp_path / tag),
            epochs=2,
            batch_size=8,
            seed=11,
        )
        return TR.pretrain(config)

    run("a")
    run("b")
    for name in ("log.csv", "checkpoint.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# ---------------------------------------------------------------------------
# criterion 7: desk-scale imbalance experiment


BENCHMARK_DATASET = "synthetic:C=4,counts=700:70:70:70,size=28"
BENCHMARK_SEEDS = (0, 1, 2)
# 50-epoch desk budget: gentler crops, stochastic blur, faster-tracking EMA
BENCHMARK_KNOBS = dict(ema_momentum=0.9, blur_probability=0.5, crop_scale=(0.5, 1.0))


def _probe_report(pair, dataset):
    train_x, train_y = E.extract_features(pair, dataset, "train")
    test_x, test_y = E.extract_features(pair, dataset, "test")
    probe = E.linear_probe(train_x, train_y, E.ProbeConfig(seed=0), num_classes=4)
    return E.classification_metrics(probe.scores(test_x), test_y)


def _representation_quality(pair, dataset):
    """Alignment/uniformity of encoder features over two augmented views."""
    stream = RngStream(12345)
    images = dataset.splits["test"][0][:96]
    stats = dataset.channel_stats
    config = TR.RunConfig(out_dir="unused", **BENCHMARK_KNOBS)
    aug = TR.augment_config_for(config, 28)

    def view_batch(branch):
        return augment_view(images, stats, aug, stream.items(images.shape[0], 0, 0, branch))

    with T.no_grad():
        fa, _ = M.encode(pair.q_params, view_batch(1), pair.config)
        fb, _ = M.encode(pair.q_params, view_batch(2), pair.config)
    return E.alignment_uniformity(fa.data, fb.data)


@pytest.fixture(scope="module")
def benchmark_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("benchmark")
    runs = {}
    start = time.perf_counter()
    for seed in BENCHMARK_SEEDS:
        dataset = resolve_dataset(BENCHMARK_DATASET, seed=seed)
        amimv_cfg = TR.RunConfig(
            dataset=BENCHMARK_DATASET,
            out_dir=str(root / f"amimv_{seed}"),
            mode="amimv",
            epochs=50,
            batch_size=64,
            seed=seed,
            snapshot_epochs=[1],
            **BENCHMARK_KNOBS,
        )
        amimv = TR.pretrain(amimv_cfg, dataset=dataset)
        baseline_cfg = TR.RunConfig(
            dataset=BENCHMARK_DATASET,
            out_dir=str(root / f"baseline_{seed}"),
            mode="simclr_baseline",
            epochs=50,
            batch_size=64,
            seed=seed,
            **BENCHMARK_KNOBS,
        )
        baseline = TR.pretrain(baseline_cfg, dataset=dataset)
        random_pair = M.init_pair(amimv.pair.config, seed=seed)
        runs[seed] = {
            "dataset": dataset,
            "amimv": amimv,
            "baseline": baseline,
            "random_pair": random_pair,
            "epoch1_pair": M.load_checkpoint(str(root / f"amimv_{seed}" / "epoch_1")),
        }
    runs["elapsed"] = time.perf_counter() - start
    return runs


def test_criterion_7_desk_scale_experiment(benchmark_runs):
    for seed in BENCHMARK_SEEDS:
        run = benchmark_runs[seed]
        dataset = run["dataset"]
        amimv_report = _probe_report(run["amimv"].pair, dataset)
        random_report = _probe_report(run["random_pair"], dataset)
        baseline_report = _probe_report(run["baseline"].pair, dataset)

        # (a) pretrained probe beats a random-init probe by >= 10 points
        assert amimv_report.accuracy >= random_report.accuracy + 0.10, (
            f"seed {seed}: amimv {amimv_report.accuracy:.3f} vs "
            f"random {random_report.accuracy:.3f}"
        )

        # (c) training reduced the objective
        losses = run["amimv"].epoch_losses
        assert losses[-1] < losses[0]

        # (d) both representation-quality metrics improve over training
        a1, u1 = _representation_quality(run["epoch1_pair"], dataset)
        a50, u50 = _representation_quality(run["amimv"].pair, dataset)
        assert a50 < a1, f"seed {seed}: alignment {a1:.3f} -> {a50:.3f}"
        assert u50 < u1, f"seed {seed}: uniformity {u1:.3f} -> {u50:.3f}"

        run["minority_amimv"] = float(np.nanmean(amimv_report.per_class_accuracy[1:]))
        run["minority_baseline"] = float(np.nanmean(baseline_report.per_class_accuracy[1:]))

    # (b) minority accuracy at least matches the baseline on >= 2 of 3 seeds
    wins = sum(
        benchmark_runs[s]["minority_amimv"] >= benchmark_runs[s]["minority_baseline"]
        for s in BENCHMARK_SEEDS
    )
    assert wins >= 2, f"minority-class wins: {wins}/3"

    assert benchmark_runs["elapsed"] < 15 * 60


# ---------------------------------------------------------------------------
# criterion 8: ranking and confusion-matrix identities


def test_criterion_8_metric_identities():
    report = E.classification_metrics(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1]))
    assert report.macro_auc == 0.75

    tied = E.classification_metrics(np.zeros((6, 3)), np.array([0, 1, 2, 0, 1, 2]))
    assert tied.macro_auc == pytest.approx(0.5, abs=1e-12)

    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        c = int(rng.integers(2, 6))
        scores = rng.normal(size=(n, c))
        labels = rng.integers(0, c, size=n)
        report = E.classification_metrics(scores, labels)
        assert report.confusion.sum() == n
        assert report.confusion.shape == (c, c)
        assert np.trace(report.confusion) == round(report.accuracy * n)
        row_sums = report.confusion.sum(axis=1)
        for k in range(c):
            assert row_sums[k] == np.sum(labels == k)
            if row_sums[k] == 0:
                assert math.isnan(report.per_class_accuracy[k])


# ---------------------------------------------------------------------------
# criterion 9: format round-trips and chart well-formedness


def test_criterion_9_format_round_trips(tmp_path):
    dataset = resolve_dataset("synthetic:C=2,counts=20:12,size=16", seed=3)
    path = str(tmp_path / "data.npz")
    save_npz(dataset, path)
    loaded = load_npz(path)
    for split in ("train", "val", "test"):
        np.testing.assert_array_equal(loaded.splits[split][0], dataset.splits[split][0])
        np.testing.assert_array_equal(loaded.splits[split][1], dataset.splits[split][1])

    enc = M.EncoderConfig(arch="tiny", input_channels=1, input_size=16)
    pair = M.init_pair(enc, seed=4)
    M.save_checkpoint(pair, str(tmp_path / "ckpt"))
    reloaded = M.load_checkpoint(str(tmp_path / "ckpt"))
    for name in pair.q_params:
        np.testing.assert_array_equal(reloaded.q_params[name].data, pair.q_params[name].data)
        np.testing.assert_array_equal(reloaded.k_params[name].data, pair.k_params[name].data)

    rng = np.random.default_rng(5)
    documents = [
        charts.bar_chart([0.5, 0.9, 0.1], ["0", "1", "2"], "per-class"),
        charts.heatmap(np.array([[5, 1], [2, 9]]), "confusion"),
        charts.scatter(rng.normal(size=(30, 2)), rng.integers(0, 3, size=30), "embedding"),
    ]
    for doc in documents:
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
