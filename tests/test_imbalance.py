"""Imbalance measures against hand-computed and published values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amimv import imbalance
from amimv.datasets import LabelHistogram
from amimv.errors import ValidationError
from amimv.imbalance import ImbalanceReport, categorize, imbalance_metrics

# MedMNIST DermaMNIST train-split label counts (7 classes, total 7007)
DERMA_TRAIN_COUNTS = [228, 359, 769, 80, 779, 4693, 99]


class TestMetrics:
    def test_uniform_two_classes(self):
        r = imbalance_metrics(LabelHistogram([2, 2]))
        assert r.ir == 1.0
        assert r.cv == 0.0
        assert r.ne == pytest.approx(1.0)
        assert r.gi == pytest.approx(0.0, abs=1e-12)
        assert r.rcr == pytest.approx(50.0)

    def test_three_one_hand_case(self):
        # sample std sqrt(2), mean 2 -> CV ~ 0.7071; entropy of (3/4,1/4)
        r = imbalance_metrics(LabelHistogram([3, 1]))
        assert r.ir == 3.0
        assert r.cv == pytest.approx(np.sqrt(2) / 2)
        assert r.ne == pytest.approx(0.8112781, abs=1e-6)
        assert r.gi == pytest.approx(0.25)
        assert r.rcr == pytest.approx(25.0)

    def test_derma_train_row(self):
        r = imbalance_metrics(LabelHistogram(DERMA_TRAIN_COUNTS))
        assert r.ir == pytest.approx(58.66, abs=0.01)
        assert r.cv == pytest.approx(1.65, abs=0.01)
        assert r.ne == pytest.approx(0.58, abs=0.01)
        assert r.gi == pytest.approx(0.64, abs=0.01)
        assert r.rcr == pytest.approx(1.14, abs=0.01)

    def test_too_few_nonzero_classes(self):
        with pytest.raises(ValidationError):
            imbalance_metrics(LabelHistogram([5, 0, 0]))


class TestProperties:
    @given(
        counts=st.lists(st.integers(1, 500), min_size=2, max_size=12),
        k=st.integers(2, 9),
    )
    @settings(max_examples=80, deadline=None)
    def test_scale_invariance(self, counts, k):
        a = imbalance_metrics(LabelHistogram(counts))
        b = imbalance_metrics(LabelHistogram([k * c for c in counts]))
        for fieldname in ("ir", "cv", "ne", "gi", "rcr"):
            assert getattr(a, fieldname) == pytest.approx(getattr(b, fieldname), rel=1e-9)

    @given(counts=st.lists(st.integers(1, 500), min_size=2, max_size=12), seed=st.integers(0, 999))
    @settings(max_examples=80, deadline=None)
    def test_permutation_invariance(self, counts, seed):
        rng = np.random.default_rng(seed)
        shuffled = list(rng.permutation(counts))
        a = imbalance_metrics(LabelHistogram(counts))
        b = imbalance_metrics(LabelHistogram(shuffled))
        for fieldname in ("ir", "cv", "ne", "gi", "rcr"):
            assert getattr(a, fieldname) == pytest.approx(getattr(b, fieldname), rel=1e-9)

    @given(counts=st.lists(st.integers(3, 500), min_size=2, max_size=10))
    @settings(max_examples=80, deadline=None)
    def test_head_to_tail_transfer_never_raises_gini(self, counts):
        counts = list(counts)
        hi = counts.index(max(counts))
        lo = counts.index(min(counts))
        if hi == lo or counts[hi] - counts[lo] < 2:
            return
        before = imbalance_metrics(LabelHistogram(counts)).gi
        counts[hi] -= 1
        counts[lo] += 1
        after = imbalance_metrics(LabelHistogram(counts)).gi
        assert after <= before + 1e-12


class TestCategorize:
    def test_derma_is_imbalanced_by_rule(self):
        r = imbalance_metrics(LabelHistogram(DERMA_TRAIN_COUNTS))
        assert categorize(r) == "I"

    def test_balanced_large_is_fb(self):
        r = ImbalanceReport(ir=1.0, cv=0.0, ne=1.0, gi=0.0, rcr=25.0, total=40000)
        assert categorize(r) == "FB"

    def test_retina_ir_crosses_imbalanced(self):
        r = ImbalanceReport(ir=7.36, cv=0.74, ne=0.87, gi=0.34, rcr=6.11, total=1080)
        assert categorize(r) == "I"

    def test_override_map_wins(self):
        # OCTMNIST's published label disagrees with the heuristic rule
        r = ImbalanceReport(ir=5.93, cv=0.75, ne=0.83, gi=0.35, rcr=7.95, total=97477)
        assert categorize(r, dataset_name="octmnist") == "FB"
        assert categorize(r) == "PI"


def _reference_category(report, min_count):
    """The rule as first written, with its redundant clauses, on the exact rarest-class count."""
    if report.ir >= imbalance.IR_IMBALANCED:
        return "I"
    if (
        (report.rcr >= 20.0 and min_count < imbalance.MIN_COUNT_SMALL)
        or imbalance.IR_PARTIAL <= report.ir < imbalance.IR_IMBALANCED
        or min_count < imbalance.MIN_COUNT_SMALL
    ):
        return "PI"
    return "FB"


class TestCategorizeRule:
    @given(counts=st.lists(st.integers(1, 4000), min_size=2, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_rule(self, counts):
        report = imbalance_metrics(LabelHistogram(counts))
        assert categorize(report) == _reference_category(report, min(counts))

    def test_rarest_count_at_the_small_threshold_is_exact(self):
        # rcr / 100 * total reads 1999.9999999999998 here, which would make it PI
        report = imbalance_metrics(LabelHistogram([2000, 2012]))
        assert categorize(report) == "FB"


class TestSerialization:
    def test_csv_row_column_order(self):
        r = imbalance_metrics(LabelHistogram(DERMA_TRAIN_COUNTS))
        r.category = "I"
        text = r.to_csv_row("dermamnist")
        header, row = text.strip().splitlines()
        assert header == "dataset,IR,CV,NE,GI,RCR,category"
        assert row == "dermamnist,58.66,1.65,0.58,0.64,1.14,I"

    def test_json_fields(self):
        import json

        r = imbalance_metrics(LabelHistogram([3, 1]))
        d = json.loads(r.to_json())
        assert set(d) == {"ir", "cv", "ne", "gi", "rcr", "total", "category"}
