"""Categorical encodings: one count table read as conditional probabilities
(core) or as target encoding, and one-hot and label encoding baselines.

The count table stores exact integer co-occurrence counts and computes
probabilities on read, so incremental updates and refits agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import TabularDataset


class EncodingError(ValueError):
    pass


@dataclass(frozen=True)
class CountTable:
    """Per categorical column: a (cardinality, C) matrix of exact (value, class)
    counts, read as one probability row per value.

    With ``smoothing=None`` the read is Laplace: value v encodes as
    (counts[v] + alpha) / (total[v] + C*alpha), and a value with zero total
    and alpha=0 falls back to the uniform 1/C vector. With a positive
    ``smoothing`` s the read is target encoding (Micci-Barreca, 2001): a value
    with n observations encodes as n/(n+s) * counts[v]/n + s/(n+s) * prior,
    where the prior is the class share of all counted rows.
    """

    counts: dict[str, np.ndarray]  # column name -> (K_m, C) int64
    num_classes: int
    laplace_alpha: float = 1.0
    smoothing: float | None = None

    def __post_init__(self):
        if self.laplace_alpha < 0:
            raise EncodingError("laplace_alpha must be >= 0")
        if self.smoothing is not None and not self.smoothing > 0:
            raise EncodingError("smoothing must be > 0")
        for name, c in self.counts.items():
            if c.ndim != 2 or c.shape[1] != self.num_classes:
                raise EncodingError(f"column {name!r}: count matrix must be (K, C)")
            if (c < 0).any():
                raise EncodingError(f"column {name!r}: negative count")

    def probabilities(self, column: str) -> np.ndarray:
        """(K_m, C) encoded rows; each sums to 1."""
        counts = self.counts[column]
        c = counts.astype(np.float64)
        if self.smoothing is None:
            denom = c.sum(axis=1, keepdims=True) + self.num_classes * self.laplace_alpha
            p = (c + self.laplace_alpha) / np.where(denom > 0, denom, 1.0)
            zero = denom[:, 0] <= 0
            if zero.any():
                p[zero] = 1.0 / self.num_classes
            return p
        # every counted row adds one count per column, so any column's class
        # sums are the label histogram
        prior = counts.sum(axis=0) / max(1, int(counts.sum()))
        n = c.sum(axis=1, keepdims=True)
        weight = n / (n + self.smoothing)
        with np.errstate(invalid="ignore"):
            estimate = np.where(n > 0, c / np.where(n > 0, n, 1.0), 0.0)
        return weight * estimate + (1.0 - weight) * prior

    def block_widths(self) -> dict[str, int]:
        return {name: self.num_classes for name in self.counts}

    def write_block(self, column: str, cells: np.ndarray, out: np.ndarray) -> None:
        out[:] = self.probabilities(column)[cells]


@dataclass(frozen=True)
class OneHotEncoding:
    cardinalities: dict[str, int]

    def block_widths(self) -> dict[str, int]:
        return dict(self.cardinalities)

    def write_block(self, column: str, cells: np.ndarray, out: np.ndarray) -> None:
        out[np.arange(cells.size), cells] = 1.0


@dataclass(frozen=True)
class LabelEncoding:
    columns: tuple[str, ...]

    def block_widths(self) -> dict[str, int]:
        return {name: 1 for name in self.columns}

    def write_block(self, column: str, cells: np.ndarray, out: np.ndarray) -> None:
        out[:, 0] = cells


@dataclass(frozen=True)
class EncodedMatrix:
    matrix: np.ndarray  # (N, d)
    blocks: dict[str, tuple[int, int]]  # source column -> [start, stop)

    @property
    def width(self) -> int:
        return self.matrix.shape[1]


def _check_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise EncodingError(f"label outside [0, {num_classes})")
    return labels


def _count(ds: TabularDataset, rows: np.ndarray, labels: np.ndarray) -> dict[str, np.ndarray]:
    """(value, class) co-occurrence counts of every categorical column over
    ``rows``; every domain value gets an entry, possibly all-zero."""
    rows = np.asarray(rows, dtype=np.int64)
    labels = _check_labels(labels, ds.num_classes)
    if labels.shape != rows.shape:
        raise EncodingError("labels must align one-to-one with rows")
    counts: dict[str, np.ndarray] = {}
    for m in ds.categorical_columns():
        col = ds.schema[m]
        c = np.zeros((col.cardinality, ds.num_classes), dtype=np.int64)
        values = ds.rows[rows, m].astype(np.int64)
        np.add.at(c, (values, labels), 1)
        counts[col.name] = c
    return counts


def fit_cpr(
    ds: TabularDataset,
    rows: np.ndarray,
    labels: np.ndarray,
    alpha: float = 1.0,
) -> CountTable:
    """Exact (value, class) counts over the given rows, read with Laplace
    smoothing ``alpha``. ``labels`` is aligned with ``rows``."""
    return CountTable(_count(ds, rows, labels), ds.num_classes, alpha)


def update_counts(
    table: CountTable,
    ds: TabularDataset,
    rows: np.ndarray,
    labels: np.ndarray,
) -> CountTable:
    """New table with counts incremented by the (value, label) pairs in rows.

    Pure: the input table is unmodified. Updating with rows disjoint from the
    already-counted ones equals a fresh fit on the union.
    """
    added = _count(ds, rows, labels)
    return replace(table, counts={name: table.counts[name] + c for name, c in added.items()})


def fit_target_encoding(
    ds: TabularDataset,
    rows: np.ndarray,
    labels: np.ndarray,
    smoothing: float = 10.0,
) -> CountTable:
    """Exact (value, class) counts over the given rows, read as per-class
    estimates shrunk toward the class prior with strength ``smoothing``."""
    return CountTable(_count(ds, rows, labels), ds.num_classes, smoothing=smoothing)


def one_hot_encoding(ds: TabularDataset) -> OneHotEncoding:
    return OneHotEncoding(
        {ds.schema[m].name: ds.schema[m].cardinality for m in ds.categorical_columns()}
    )


def label_encoding(ds: TabularDataset) -> LabelEncoding:
    return LabelEncoding(tuple(ds.schema[m].name for m in ds.categorical_columns()))


def encode(ds: TabularDataset, rows: np.ndarray, tables) -> EncodedMatrix:
    """Assemble the dense design matrix for the given rows.

    Numeric columns pass through (scale beforehand); each categorical cell is
    replaced by its block per the table, written in place into one matrix.
    Column order follows the schema.
    """
    rows = np.asarray(rows, dtype=np.int64)
    widths = tables.block_widths()
    spans = []
    start = 0
    for col in ds.schema:
        if col.kind == "categorical" and col.name not in widths:
            raise EncodingError(f"table has no entry for column {col.name!r}")
        width = widths[col.name] if col.kind == "categorical" else 1
        spans.append((start, start + width))
        start += width
    matrix = np.zeros((rows.size, start))
    for m, (col, (lo, hi)) in enumerate(zip(ds.schema, spans)):
        if col.kind == "categorical":
            cells = ds.rows[rows, m].astype(np.int64)
            if cells.size and (cells.min() < 0 or cells.max() >= col.cardinality):
                raise EncodingError(f"column {col.name!r}: category index out of domain")
            tables.write_block(col.name, cells, matrix[:, lo:hi])
        else:
            matrix[:, lo] = ds.rows[rows, m]
    blocks = {col.name: span for col, span in zip(ds.schema, spans)}
    return EncodedMatrix(matrix, blocks)
