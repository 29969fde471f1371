"""Class-imbalance characterization of a label histogram.

Five measures over per-class counts: imbalance ratio (max/min),
coefficient of variation (sample std / mean), normalized Shannon entropy,
Gini index, and rare-class ratio (min/total, percent), plus a heuristic
three-way category label with a per-dataset override map.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .datasets import LabelHistogram
from .errors import ValidationError
from .fsutil import csv_text

CATEGORIES = ("FB", "PI", "I")

# The heuristic rule: "I" from an imbalance ratio of IR_IMBALANCED on; "PI" from IR_PARTIAL on, or when the
# rarest class has fewer than MIN_COUNT_SMALL images; "FB" otherwise.
IR_IMBALANCED = 7.0
IR_PARTIAL = 4.0
MIN_COUNT_SMALL = 2000

# Published categories for the MedMNIST 2D benchmark; no single monotone
# rule in the five metrics reproduces all of them, so they ship as
# explicit overrides of the heuristic rule.
MEDMNIST_CATEGORY_OVERRIDES = {
    "pathmnist": "FB",
    "bloodmnist": "FB",
    "octmnist": "FB",
    "breastmnist": "PI",
    "pneumoniamnist": "PI",
    "organamnist": "PI",
    "organcmnist": "PI",
    "organsmnist": "PI",
    "retinamnist": "I",
    "tissuemnist": "I",
    "dermamnist": "I",
}


@dataclass
class ImbalanceReport:
    """The five imbalance measures for one label histogram."""

    ir: float
    cv: float
    ne: float
    gi: float
    rcr: float
    total: int
    category: str | None = None

    def to_json(self) -> str:
        """Every field; the five measures rounded to 4 decimals."""
        d = {k: round(v, 4) if isinstance(v, float) else v for k, v in asdict(self).items()}
        return json.dumps(d, indent=2)

    def to_csv_row(self, name: str = "") -> str:
        values = (self.ir, self.cv, self.ne, self.gi, self.rcr)
        row = [name, *(f"{v:.2f}" for v in values), self.category or ""]
        return csv_text([["dataset", "IR", "CV", "NE", "GI", "RCR", "category"], row])


def imbalance_metrics(hist: LabelHistogram) -> ImbalanceReport:
    """Compute IR, CV, NE, GI, and RCR from per-class counts.

    Zero-count classes are excluded from the min for IR, contribute zero
    entropy terms, and still count toward C in the CV/NE/GI denominators.
    """
    counts = np.asarray(hist.counts, dtype=np.float64)
    nonzero = counts[counts > 0]
    if nonzero.size < 2:
        raise ValidationError(
            f"imbalance metrics need >= 2 classes with samples, got {nonzero.size}"
        )
    c = counts.size
    total = counts.sum()
    p = counts / total

    ir = float(nonzero.max() / nonzero.min())
    cv = float(counts.std(ddof=1) / counts.mean())
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    ne = float(-terms.sum() / np.log(c))
    sorted_counts = np.sort(counts)
    gi = float(2.0 * np.sum(np.arange(1, c + 1) * sorted_counts) / (c * total) - (c + 1) / c)
    rcr = float(100.0 * nonzero.min() / total)
    return ImbalanceReport(ir=ir, cv=cv, ne=ne, gi=gi, rcr=rcr, total=int(total))


def categorize(report: ImbalanceReport, dataset_name: str | None = None) -> str:
    """Heuristic FB/PI/I label; the published MedMNIST label wins for a dataset it names."""
    if dataset_name:
        key = dataset_name.lower().removesuffix(".npz")
        if key in MEDMNIST_CATEGORY_OVERRIDES:
            return MEDMNIST_CATEGORY_OVERRIDES[key]
    if report.ir >= IR_IMBALANCED:
        return "I"
    min_count = round(report.rcr * report.total / 100.0)  # the rarest class's count, exactly
    if report.ir >= IR_PARTIAL or min_count < MIN_COUNT_SMALL:
        return "PI"
    return "FB"
