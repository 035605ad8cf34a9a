"""Categorical encodings: one count table read as smoothed class
probabilities, with a uniform prior (conditional probabilities, core) or the
label prior (target encoding), and one-hot and label encoding baselines.

The count table stores exact integer co-occurrence counts and computes
probabilities on read, so incremental updates and refits agree exactly.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, replace

import numpy as np

from .data import TabularDataset


class EncodingError(ValueError):
    pass


# numpy advises transparent huge pages for arrays of this size and larger
HUGE_PAGE_ADVICE_BYTES = 1 << 22


@dataclass(frozen=True)
class CountTable:
    """Per categorical column: a (cardinality, C) matrix of exact (value, class)
    counts, read as one probability row per value.

    One read rule: value v with n > 0 counts reads
    (counts[v] + pseudo) / (n + strength), and a value with no count reads
    the prior. ``smoothing=None`` is Laplace: pseudo alpha, strength C*alpha
    and a uniform prior. A positive ``smoothing`` s is target encoding
    (Micci-Barreca, 2001): pseudo s*prior, strength s, and the prior is the
    class share of all counted rows.
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
        n = c.sum(axis=1, keepdims=True)
        if self.smoothing is None:
            prior = np.full(self.num_classes, 1.0 / self.num_classes)
            pseudo, strength = self.laplace_alpha, self.num_classes * self.laplace_alpha
        else:
            # any column's class sums are the histogram of the counted labels
            prior = counts.sum(axis=0) / max(1, int(counts.sum()))
            pseudo, strength = self.smoothing * prior, self.smoothing
        with np.errstate(invalid="ignore"):  # 0/0 where n = strength = 0
            return np.where(n > 0, (c + pseudo) / (n + strength), prior)

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


def _count(ds: TabularDataset, rows: np.ndarray, labels: np.ndarray) -> dict[str, np.ndarray]:
    """(value, class) co-occurrence counts of every categorical column over
    ``rows``, one flat bincount each; every domain value gets a row."""
    rows = np.asarray(rows, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    C = ds.num_classes
    if labels.size and (labels.min() < 0 or labels.max() >= C):
        raise EncodingError(f"label outside [0, {C})")
    if labels.shape != rows.shape:
        raise EncodingError("labels must align one-to-one with rows")
    counts = {}
    for m in ds.categorical_columns():
        k = ds.schema[m].cardinality
        flat = ds.rows[rows, m].astype(np.int64) * C + labels
        counts[ds.schema[m].name] = np.bincount(flat, minlength=k * C).reshape(k, C)
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


def _zeros(shape: tuple[int, int]) -> np.ndarray:
    """A zero float64 matrix, allocated as ``encode`` documents."""
    nbytes = 8 * shape[0] * shape[1]
    if nbytes < HUGE_PAGE_ADVICE_BYTES:
        # a mapping here would only add its own overhead to small matrices
        return np.zeros(shape)
    buffer = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buffer.madvise(mmap.MADV_NOHUGEPAGE)
    return np.ndarray(shape, np.float64, buffer=buffer)


def encode(ds: TabularDataset, rows: np.ndarray, tables) -> EncodedMatrix:
    """Assemble the dense design matrix for the given rows.

    Numeric columns pass through (scale beforehand); each categorical cell is
    replaced by its block per the table, written in place into one matrix.
    Column order follows the schema.

    The matrix is a writable, C-contiguous float64 array, and its values do
    not depend on how it is allocated. Below ``HUGE_PAGE_ADVICE_BYTES``
    (4 MiB) it comes from ``np.zeros``. From there on numpy would advise
    transparent huge pages, and one write per 2 MiB region would make the
    whole region resident: a one-hot matrix, with one 1.0 per block and row,
    would cost its full nominal size. So a larger matrix is a private
    anonymous mapping advised against huge pages; a page that no block
    writes reads as the kernel's shared zero page and occupies no memory.
    The mapping is freed with the last view of the matrix.
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
    matrix = _zeros((rows.size, start))
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
