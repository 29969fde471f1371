"""Linear probe, classification metrics, alignment/uniformity, PCA."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amimv import evaluation as E
from amimv import model as M
from amimv import tensor as T
from amimv.datasets import make_synthetic_longtail
from amimv.errors import NumericError, ValidationError
from amimv.views import normalize_view


@pytest.fixture(scope="module")
def setup():
    ds = make_synthetic_longtail(2, [20, 12], image_size=16, seed=0)
    cfg = M.EncoderConfig(arch="tiny", input_channels=1, input_size=16)
    pair = M.init_pair(cfg, seed=0)
    return ds, pair


class TestExtractFeatures:
    def test_row_count_matches_split(self, setup):
        ds, pair = setup
        feats, labels = E.extract_features(pair, ds, "test")
        assert feats.shape[0] == labels.shape[0] == ds.splits["test"][0].shape[0]
        assert feats.shape[1] == 64

    def test_deterministic(self, setup):
        ds, pair = setup
        a, _ = E.extract_features(pair, ds, "val")
        b, _ = E.extract_features(pair, ds, "val")
        np.testing.assert_array_equal(a, b)

    def test_uses_query_not_key(self, setup):
        ds, pair = setup
        before, _ = E.extract_features(pair, ds, "val")
        for t in pair.k_params.values():
            t.data = t.data + 1.0  # perturbation oracle
        after, _ = E.extract_features(pair, ds, "val")
        np.testing.assert_array_equal(before, after)

    def test_overflowing_weights_raise_numeric_error(self, setup):
        ds, pair = setup
        pair = dataclasses.replace(pair, q_params=dict(pair.q_params))
        weight = pair.q_params["conv1.w"].data.copy()
        weight[0, 0, 1, 1] = 1e38  # finite, but the conv sums overflow float32
        pair.q_params["conv1.w"] = T.Tensor(weight)
        with pytest.raises(NumericError, match="'val' are not finite"):
            E.extract_features(pair, ds, "val")

    def test_missing_split(self, setup):
        ds, pair = setup
        with pytest.raises(ValidationError):
            E.extract_features(pair, ds, "dev")

    @pytest.mark.parametrize("arch,size", [("tiny", 16), ("small_residual", 32)])
    def test_features_are_encode_features_without_the_head(self, monkeypatch, arch, size):
        """The features are byte-equal to those of a full encode pass (head included), and the projection
        head's layers and L2 norm do not run."""
        config = M.EncoderConfig(arch=arch, input_channels=1, input_size=size)
        pair = M.init_pair(config, seed=0)
        ds = make_synthetic_longtail(2, [20, 12], image_size=size, seed=0)
        views = normalize_view(ds.splits["test"][0], ds.channel_stats, size)
        with T.no_grad():
            want, _ = M.encode(pair.q_params, views, config)
        linears = []

        def spy(x, w, b, _op=T.linear):
            linears.append(w)
            return _op(x, w, b)

        monkeypatch.setattr(T, "linear", spy)
        monkeypatch.setattr(T, "l2_normalize", None)  # a call would fail
        got, _ = E.extract_features(pair, ds, "test")
        assert got.tobytes() == want.data.tobytes()
        assert linears == [pair.q_params["feat.w"]]

    @pytest.mark.parametrize("arch", ["tiny", "small_residual"])
    def test_chunks_of_128_and_256_agree(self, arch):
        # BLAS takes another kernel for a dense layer of a few rows (tiny at 28 px:
        # fewer than 20), so no chunk may be a short tail: 389 = 3 * 128 + 5 images
        # go in 4 chunks of 97 or 98 and in 2 of 194 or 195, not in [128, 128, 128, 5]
        # and [256, 133]
        for counts, size, n in (([220, 200], 16, 294), ([356, 200], 28 if arch == "tiny" else 32, 389)):
            config = M.EncoderConfig(arch=arch, input_channels=1, input_size=size)
            pair = M.init_pair(config, seed=0)
            ds = make_synthetic_longtail(2, counts, image_size=size, seed=1)
            assert ds.splits["train"][0].shape[0] == n
            a, _ = E.extract_features(pair, ds, "train", batch_size=128)
            b, _ = E.extract_features(pair, ds, "train", batch_size=256)
            assert a.tobytes() == b.tobytes()


def _tape_probe(features, labels, config, num_classes=None):
    """The probe as a tape-recorded chain: linear, logsumexp - sum(mul), mean, backward."""
    n, d = features.shape
    c = num_classes or int(labels.max()) + 1
    x = features.astype(np.float32)
    w = T.Tensor(np.zeros((d, c), dtype=np.float32), requires_grad=True)
    b = T.Tensor(np.zeros(c, dtype=np.float32), requires_grad=True)
    onehot = np.eye(c, dtype=np.float32)[labels]
    w_m, w_v, b_m, b_v = (np.zeros_like(p.data) for p in (w, w, b, b))
    t = 0
    rng = np.random.default_rng(np.random.PCG64(config.seed))
    for epoch in range(config.epochs):
        lr = E._probe_lr(epoch, config.epochs, config.lr)
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            with T.Tape() as tape:
                logits = T.linear(T.Tensor(x[idx]), w, b)
                nll = T.sub(T.logsumexp(logits), T.sum_(T.mul(logits, T.Tensor(onehot[idx])), axis=1))
                loss = T.mean(nll)
            T.backward(loss, tape)
            t += 1
            w.data = E._adamw_step(w.data, w.grad, w_m, w_v, t, lr, config.weight_decay)
            b.data = E._adamw_step(b.data, b.grad, b_m, b_v, t, lr, config.weight_decay)
    return w.data.astype(np.float64), b.data.astype(np.float64)


def test_importing_evaluation_leaves_trainer_out():
    """The training loop may import evaluation (for health signals) without an import cycle."""
    src = str(Path(E.__file__).resolve().parent.parent)
    code = "import sys, amimv.evaluation; print(*sorted(m for m in sys.modules if m.startswith('amimv')))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src}
    )
    modules = done.stdout.split()
    assert "amimv.evaluation" in modules and "amimv.trainer" not in modules


class TestAdamwStep:
    def test_first_step_close_to_lr(self):
        p = np.array([1.0], dtype=np.float32)
        m, v = np.zeros_like(p), np.zeros_like(p)
        p = E._adamw_step(p, np.array([1.0], dtype=np.float32), m, v, 1, lr=0.01, weight_decay=0.0)
        # bias-corrected ratio is ~1 on the first step
        assert p[0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_decoupled_decay_only(self):
        p = np.array([1.0], dtype=np.float32)
        m, v = np.zeros_like(p), np.zeros_like(p)
        p = E._adamw_step(p, np.array([0.0], dtype=np.float32), m, v, 1, lr=0.5, weight_decay=0.1)
        assert p[0] == pytest.approx(1.0 * (1 - 0.5 * 0.1), abs=1e-6)


class TestLinearProbe:
    @pytest.mark.parametrize(
        "n,d,labels_c,num_classes,config",
        [
            (256, 16, 4, 4, E.ProbeConfig(epochs=6, batch_size=64, seed=1)),  # n % batch == 0
            (129, 8, 3, 3, E.ProbeConfig(epochs=8, batch_size=32, seed=2)),  # partial last batch
            (300, 16, 7, 7, E.ProbeConfig(epochs=5, weight_decay=1e-3, seed=3)),
            (90, 12, 3, 5, E.ProbeConfig(epochs=6, batch_size=40, seed=4)),  # classes 3, 4 absent
            (61, 32, 4, None, E.ProbeConfig(epochs=10, batch_size=16, seed=5)),
        ],
        ids=["full-batches", "partial-batch", "weight-decay", "missing-class", "inferred-classes"],
    )
    def test_bitwise_equal_to_tape_reference(self, n, d, labels_c, num_classes, config):
        rng = np.random.default_rng(n)
        labels = rng.integers(0, labels_c, size=n)
        feats = rng.normal(size=(n, d)) + labels[:, None]
        got = E.linear_probe(feats, labels, config, num_classes=num_classes)
        weights, bias = _tape_probe(feats, labels, config, num_classes=num_classes)
        assert got.weights.shape == (d, num_classes or labels.max() + 1)
        assert np.array_equal(got.weights, weights)
        assert np.array_equal(got.bias, bias)

    @pytest.mark.parametrize("bad,num_classes", [(-1, 3), (3, 3), (-2, None)], ids=["negative", "num-classes", "inferred"])
    def test_label_outside_classes_rejected(self, bad, num_classes):
        labels = np.array([0, 1, 2, 1, 0, bad])
        with pytest.raises(ValidationError, match=f"label {bad} outside"):
            E.linear_probe(np.ones((6, 2)), labels, E.ProbeConfig(epochs=1), num_classes=num_classes)

    def test_separable_features_reach_full_accuracy(self):
        rng = np.random.default_rng(0)
        n = 80
        labels = np.repeat([0, 1], n // 2)
        feats = 0.3 * rng.normal(size=(n, 4))
        feats[:, 0] += np.where(labels == 0, -2.0, 2.0)
        probe = E.linear_probe(feats, labels, E.ProbeConfig(epochs=100))
        preds = np.argmax(probe.scores(feats), axis=1)
        assert (preds == labels).mean() == 1.0

    def test_degenerate_features_predict_majority(self):
        labels = np.array([0] * 7 + [1] * 3)
        feats = np.ones((10, 5))
        probe = E.linear_probe(feats, labels, E.ProbeConfig(epochs=30))
        preds = np.argmax(probe.scores(feats), axis=1)
        assert np.all(preds == 0)
        assert (preds == labels).mean() == pytest.approx(0.7)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(30, 6))
        labels = rng.integers(0, 3, size=30)
        a = E.linear_probe(feats, labels, E.ProbeConfig(epochs=10, seed=5), num_classes=3)
        b = E.linear_probe(feats, labels, E.ProbeConfig(epochs=10, seed=5), num_classes=3)
        np.testing.assert_array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("column", [0, 3])
    def test_huge_features_raise_numeric_error(self, recwarn, column):
        """Finite features of 1e30 overflow the squared gradient of AdamW's second moment in float32: the
        probe stops with a NumericError, and the overflow raises no warning."""
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(40, 4))
        feats[:, column] = 1e30
        labels = rng.integers(0, 2, size=40)
        with pytest.raises(NumericError, match="not finite after epoch 1"):
            E.linear_probe(feats, labels, E.ProbeConfig(epochs=3))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_missing_class_recorded(self):
        feats = np.random.default_rng(2).normal(size=(20, 4))
        labels = np.zeros(20, dtype=np.int64)
        labels[10:] = 2
        probe = E.linear_probe(feats, labels, E.ProbeConfig(epochs=5), num_classes=3)
        assert probe.missing_classes == [1]

    @pytest.mark.parametrize(
        "key,value",
        [
            ("epochs", 0), ("epochs", -3), ("batch_size", 0), ("lr", 0.0), ("lr", -1.0),
            ("lr", float("nan")), ("lr", float("inf")), ("weight_decay", -0.1),
            ("weight_decay", float("nan")), ("weight_decay", float("inf")),
        ],
    )
    def test_bad_config_rejected(self, key, value):
        with pytest.raises(ValidationError, match=key):
            E.ProbeConfig(**{key: value})


class TestClassificationMetrics:
    def test_auc_rank_example(self):
        # pairwise rank oracle over (neg, pos) pairs: 3 of 4 correctly ordered
        report = E.classification_metrics(
            np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1])
        )
        assert report.macro_auc == pytest.approx(0.75)

    def test_perfect_ranking(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.2, 0.8]])
        labels = np.array([0, 0, 1, 1])
        report = E.classification_metrics(scores, labels)
        assert report.accuracy == 1.0
        assert report.macro_auc == 1.0

    def test_all_ties_half(self):
        report = E.classification_metrics(np.zeros((6, 3)), np.array([0, 1, 2, 0, 1, 2]))
        assert report.macro_auc == pytest.approx(0.5)

    def test_argmax_tie_lowest_index(self):
        report = E.classification_metrics(np.array([[0.5, 0.5]]), np.array([1]))
        assert report.confusion[1, 0] == 1

    @given(scores=st.lists(st.integers(-3, 3), min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_average_ranks_match_pairwise_definition(self, scores):
        # tie-heavy scores: the average rank is 1 + #below + (#tied others) / 2
        s = np.array(scores, dtype=np.float64)
        expected = [1 + np.sum(s < v) + (np.sum(s == v) - 1) / 2 for v in s]
        np.testing.assert_array_equal(E._average_ranks(s), expected)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(40, 4))
        labels = rng.integers(0, 4, size=40)
        a = E.classification_metrics(scores, labels).macro_auc
        b = E.classification_metrics(np.exp(scores) * 3 + 1, labels).macro_auc
        assert a == pytest.approx(b, abs=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=250, deadline=None)
    def test_confusion_identities(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        c = int(rng.integers(2, 6))
        scores = rng.normal(size=(n, c))
        labels = rng.integers(0, c, size=n)
        report = E.classification_metrics(scores, labels)
        assert report.confusion.sum() == n
        assert report.accuracy == pytest.approx(np.trace(report.confusion) / n)
        for k in range(c):
            row = report.confusion[k].sum()
            if row > 0:
                assert report.per_class_accuracy[k] == pytest.approx(
                    report.confusion[k, k] / row
                )
            else:
                assert math.isnan(report.per_class_accuracy[k])


class TestAlignmentUniformity:
    def test_identical_pairs_align_zero(self):
        z = np.random.default_rng(0).normal(size=(5, 4))
        align, _ = E.alignment_uniformity(z, z.copy())
        assert align == pytest.approx(0.0, abs=1e-12)

    def test_two_identical_points_uniform_zero(self):
        z = np.array([[1.0, 0.0]])
        _, uniform = E.alignment_uniformity(z, z.copy())
        assert uniform == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_pair(self):
        # distance 2 on the line: exp(-2*4) -> log = -8
        zl = np.array([[1.0, 0.0]])
        zr = np.array([[-1.0, 0.0]])
        _, uniform = E.alignment_uniformity(zl, zr)
        assert uniform == pytest.approx(-8.0, abs=1e-12)

    def test_internally_normalized(self):
        rng = np.random.default_rng(1)
        zl, zr = rng.normal(size=(6, 8)), rng.normal(size=(6, 8))
        a = E.alignment_uniformity(zl, zr)
        b = E.alignment_uniformity(5 * zl, 0.3 * zr)
        assert a == pytest.approx(b)


class TestPca:
    def test_line_captures_all_variance(self):
        t = np.linspace(-1, 1, 50)
        data = np.outer(t, [1.0, 2.0, -1.0])
        _, explained, _ = E.pca_project(data, k=2)
        assert explained[0] > 0
        assert explained[1] == pytest.approx(0.0, abs=1e-20)

    def test_components_orthonormal(self):
        data = np.random.default_rng(2).normal(size=(40, 6))
        _, _, comps = E.pca_project(data, k=3)
        np.testing.assert_allclose(comps @ comps.T, np.eye(3), atol=1e-6)

    def test_gaussian_variance_ratio(self):
        # sampling oracle: diag(4,1) covariance -> ratio ~ 0.8 / 0.2
        rng = np.random.default_rng(3)
        data = rng.normal(size=(10_000, 2)) * np.array([2.0, 1.0])
        _, explained, _ = E.pca_project(data, k=2)
        ratio = explained / explained.sum()
        assert ratio[0] == pytest.approx(0.8, abs=0.03)
        assert ratio[1] == pytest.approx(0.2, abs=0.03)

    def test_too_few_dims(self):
        with pytest.raises(ValidationError):
            E.pca_project(np.zeros((5, 1)), k=2)


class TestReportSerialization:
    def test_confusion_csv_grid(self):
        report = E.classification_metrics(
            np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]]), np.array([0, 1, 1])
        )
        rows = report.confusion_csv().strip().splitlines()
        grid = [[int(v) for v in row.split(",")] for row in rows]
        np.testing.assert_array_equal(grid, report.confusion)

    def test_json_round_trip(self):
        import json

        report = E.classification_metrics(np.eye(3), np.array([0, 1, 2]))
        data = json.loads(report.to_json())
        assert data["accuracy"] == 1.0
        assert len(data["per_class_accuracy"]) == 3
