"""Tabular dataset model: CSV ingestion, scaling, splitting, synthesis.

Categorical cells are stored as domain indices (floats in the row matrix,
exact for any realistic cardinality), numerical and date cells as reals.
Dates are converted to days since 1970-01-01. All containers are immutable
by convention: operations return new objects.
"""

from __future__ import annotations

import csv
import datetime as _dt
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

MISSING_CATEGORY = "__missing__"

_EPOCH = _dt.date(1970, 1, 1)
_DATE_FORMATS = ("%Y-%m-%d", "%Y/%m/%d", "%m/%d/%Y")


class DataError(ValueError):
    """Raised for malformed input files or inconsistent dataset state."""


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str  # categorical | numerical | date
    cardinality: int | None = None
    domain: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("categorical", "numerical", "date"):
            raise DataError(f"unknown column kind {self.kind!r}")
        if self.kind == "categorical":
            if self.domain is None or self.cardinality != len(self.domain):
                raise DataError(f"column {self.name!r}: cardinality must equal |domain|")
            if len(set(self.domain)) != len(self.domain):
                raise DataError(f"column {self.name!r}: duplicate domain values")
        elif self.cardinality is not None or self.domain is not None:
            raise DataError(f"column {self.name!r}: only categorical columns carry a domain")


@dataclass(frozen=True)
class TabularDataset:
    schema: tuple[ColumnSchema, ...]
    rows: np.ndarray  # (N, M) float64
    labels: np.ndarray | None  # (N,) int64, values in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "schema", tuple(self.schema))
        if rows.ndim != 2 or rows.shape[1] != len(self.schema):
            raise DataError("row matrix shape does not match schema")
        # count tables and encoded blocks are keyed by column name
        repeated = _repeated([c.name for c in self.schema])
        if repeated:
            raise DataError(f"repeated column names {repeated}")
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            object.__setattr__(self, "labels", labels)
            if labels.shape != (rows.shape[0],):
                raise DataError("labels length does not match row count")
            if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
                raise DataError("label outside [0, num_classes)")
        for m, col in enumerate(self.schema):
            if col.kind == "categorical" and rows.shape[0]:
                cells = rows[:, m]
                # NaN compares False with every bound, so test it first
                if not (np.isfinite(cells) & (cells == np.trunc(cells))).all():
                    raise DataError(f"column {col.name!r}: non-finite or fractional cell; "
                                    "categorical cells are category indices")
                if cells.min() < 0 or cells.max() >= col.cardinality:
                    raise DataError(f"column {col.name!r}: cell index outside domain")

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_cols(self) -> int:
        return self.rows.shape[1]

    def categorical_columns(self) -> list[int]:
        return [m for m, c in enumerate(self.schema) if c.kind == "categorical"]

    def numeric_columns(self) -> list[int]:
        """Numerical and date columns (dates are reals after conversion)."""
        return [m for m, c in enumerate(self.schema) if c.kind != "categorical"]

@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    labeled_fraction_of_train: float
    seed: int

    def __post_init__(self):
        for name in ("train_fraction", "labeled_fraction_of_train"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise DataError(f"{name} must be strictly between 0 and 1, got {v}")


@dataclass(frozen=True)
class DataSplit:
    labeled_idx: np.ndarray
    unlabeled_idx: np.ndarray
    test_idx: np.ndarray
    stratified: bool = True  # False when the labeled pick fell back to plain random

    def __post_init__(self):
        for name in ("labeled_idx", "unlabeled_idx", "test_idx"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))

    @property
    def train_idx(self) -> np.ndarray:
        return np.concatenate([self.labeled_idx, self.unlabeled_idx])


@dataclass(frozen=True)
class ScalerState:
    columns: tuple[int, ...]  # indices of numeric-like columns
    means: np.ndarray
    stddevs: np.ndarray  # constant columns recorded as 1 so transform maps to 0


@dataclass(frozen=True)
class SyntheticSpec:
    n_rows: int
    n_cat_cols: int
    cardinality: int
    n_num_cols: int
    n_classes: int
    signal_strength: float
    seed: int

    def __post_init__(self):
        if self.n_rows <= 0 or self.n_classes < 2:
            raise DataError("need n_rows > 0 and n_classes >= 2")
        if self.n_cat_cols < 0 or self.n_num_cols < 0 or self.n_cat_cols + self.n_num_cols == 0:
            raise DataError("need at least one feature column")
        if self.n_cat_cols > 0 and self.cardinality < self.n_classes:
            raise DataError("cardinality must be >= n_classes")
        if not 0 <= self.signal_strength < np.inf:  # NaN fails too
            raise DataError("signal_strength must be >= 0 and finite")


def _repeated(names: list[str]) -> list[str]:
    """The names that occur more than once, sorted."""
    return sorted(n for n, count in Counter(names).items() if count > 1)


def _parse_date(text: str) -> float | None:
    for fmt in _DATE_FORMATS:
        try:
            d = _dt.datetime.strptime(text, fmt).date()
        except ValueError:
            continue
        return float((d - _EPOCH).days)
    return None


def _infer_kind(values: list[str]) -> str:
    """Column kind from non-missing raw cells: numerical if every one parses
    as a number, else date if every one parses as a date, else categorical."""
    present = [v for v in values if v != ""]
    if not present:
        return "categorical"
    try:
        for v in present:
            float(v)
        return "numerical"
    except ValueError:
        pass
    return "date" if all(_parse_date(v) is not None for v in present) else "categorical"


def load_csv(
    path,
    *,
    label_column: str | None = None,
    kind_overrides: dict[str, str] | None = None,
    drop_columns: list[str] | None = None,
    num_classes: int | None = None,
) -> TabularDataset:
    """Load an RFC-4180 CSV (UTF-8, header row required) into a dataset.

    Categorical domains are built in first-occurrence order; missing cells map
    to the reserved ``__missing__`` category (categorical) or the column mean
    (numerical/date). The label column, when named, must hold non-negative
    integer class ids. drop_columns removes features entirely (e.g. datetime
    columns a given dataset excludes).
    """
    for name, kind in (kind_overrides or {}).items():
        if kind not in ("categorical", "numerical", "date"):
            raise DataError(f"kind_overrides: unknown column kind {kind!r} for {name!r}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        repeated = _repeated(header)
        if repeated:
            raise DataError(f"{path}: repeated column names {repeated}")
        raw_rows = []
        for i, row in enumerate(reader):
            if not row:  # blank line
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: row {i + 2} has {len(row)} cells, expected {len(header)}")
            raw_rows.append(row)
    if not raw_rows:
        raise DataError(f"{path}: no data rows")

    overrides = dict(kind_overrides or {})
    columns = list(zip(*raw_rows))

    if drop_columns:
        missing = set(drop_columns) - set(header)
        if missing:
            raise DataError(f"drop_columns not in header: {sorted(missing)}")
        keep = [j for j, h in enumerate(header) if h not in set(drop_columns)]
        header = [header[j] for j in keep]
        columns = [columns[j] for j in keep]

    labels = None
    feature_names = list(header)
    if label_column is not None:
        if label_column not in header:
            raise DataError(f"label column {label_column!r} not in header")
        li = header.index(label_column)
        labels = np.empty(len(raw_rows), dtype=np.int64)
        for i, v in enumerate(columns[li]):
            try:
                labels[i] = int(v)
                if labels[i] < 0:
                    raise ValueError
            except ValueError:
                raise DataError(
                    f"{path}: row {i + 2}: label {v!r} not parseable as class id"
                ) from None
        feature_names = [h for h in header if h != label_column]
        columns = [c for j, c in enumerate(columns) if j != li]

    unknown = set(overrides) - set(feature_names)
    if unknown:
        raise DataError(f"kind_overrides names no feature column: {sorted(unknown)}")

    schema: list[ColumnSchema] = []
    cells = np.empty((len(raw_rows), len(feature_names)), dtype=np.float64)
    for m, name in enumerate(feature_names):
        col = list(columns[m])
        kind = overrides.get(name) or _infer_kind(col)
        if kind == "categorical":
            index: dict[str, int] = {}  # insertion order is the domain order
            for i, v in enumerate(col):
                key = MISSING_CATEGORY if v == "" else v
                cells[i, m] = index.setdefault(key, len(index))
            schema.append(ColumnSchema(name, "categorical", len(index), tuple(index)))
        else:
            vals = np.full(len(col), np.nan)
            for i, v in enumerate(col):
                if v == "":
                    continue
                if kind == "date":
                    parsed = _parse_date(v)
                    if parsed is None:
                        raise DataError(f"{path}: row {i + 2}: unparseable date {v!r} in {name!r}")
                    vals[i] = parsed
                else:
                    try:
                        vals[i] = float(v)
                    except ValueError:
                        raise DataError(
                            f"{path}: row {i + 2}: unparseable number {v!r} in {name!r}"
                        ) from None
            present = ~np.isnan(vals)
            fill = float(vals[present].mean()) if present.any() else 0.0
            vals[~present] = fill
            cells[:, m] = vals
            schema.append(ColumnSchema(name, kind))

    if labels is not None:
        n_classes = num_classes if num_classes is not None else int(labels.max()) + 1
    else:
        n_classes = num_classes or 0
    return TabularDataset(tuple(schema), cells, labels, n_classes)


def fit_scaler(ds: TabularDataset, rows: np.ndarray) -> ScalerState:
    """Population mean/stddev of numeric-like columns over the given rows.

    Constant columns are recorded with stddev 1 so the transform maps them to 0.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise DataError("fit_scaler: empty row list")
    cols = tuple(ds.numeric_columns())
    sub = ds.rows[np.ix_(rows, np.array(cols, dtype=np.int64))]
    means = sub.mean(axis=0)
    stds = sub.std(axis=0)
    stds = np.where(stds == 0.0, 1.0, stds)
    return ScalerState(cols, means, stds)


def apply_scaler(ds: TabularDataset, scaler: ScalerState) -> TabularDataset:
    """Replace numeric cells by (x - mean)/stddev."""
    for m in scaler.columns:
        if m >= ds.n_cols or ds.schema[m].kind == "categorical":
            raise DataError("scaler does not match dataset schema")
    rows = ds.rows.copy()
    cols = np.array(scaler.columns, dtype=np.int64)
    rows[:, cols] = (rows[:, cols] - scaler.means) / scaler.stddevs
    return replace(ds, rows=rows)


def _stratified_pick(train_idx, labels, n_lab, num_classes, rng):
    """Proportional per-class allocation (largest remainder), or None when infeasible."""
    by_class = [train_idx[labels[train_idx] == c] for c in range(num_classes)]
    if any(len(g) == 0 for g in by_class):
        return None
    sizes = np.array([len(g) for g in by_class], dtype=np.float64)
    share = sizes / sizes.sum() * n_lab
    alloc = np.floor(share).astype(np.int64)
    remainder = n_lab - alloc.sum()
    order = np.argsort(-(share - alloc), kind="stable")
    for c in order[:remainder]:
        alloc[c] += 1
    if n_lab >= num_classes:
        # keep every class represented by borrowing from the largest allocations
        while (alloc == 0).any():
            donor = int(np.argmax(alloc))
            if alloc[donor] <= 1:
                return None
            alloc[donor] -= 1
            alloc[int(np.argmin(alloc))] += 1
    if (alloc > sizes).any():
        return None
    picked = []
    for c, g in enumerate(by_class):
        chosen = rng.choice(len(g), size=alloc[c], replace=False)
        picked.append(g[np.sort(chosen)])
    return np.sort(np.concatenate(picked))


def make_split(ds: TabularDataset, spec: SplitSpec) -> DataSplit:
    """Seeded train/test split, then a labeled subset of the train rows.

    |test| = round((1-train_fraction)*N) and |labeled| = round(labeled_fraction*|train|).
    The labeled subset is stratified by class when feasible, else plain random.
    """
    if ds.labels is None:
        raise DataError("make_split requires labels on every row")
    n = ds.n_rows
    n_test = int(round((1.0 - spec.train_fraction) * n))
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    n_lab = int(round(spec.labeled_fraction_of_train * train_idx.size))
    if n_test == 0 or train_idx.size == 0 or n_lab == 0 or n_lab == train_idx.size:
        raise DataError(f"split produces an empty partition (N={n}, spec={spec})")
    labeled = _stratified_pick(train_idx, ds.labels, n_lab, ds.num_classes, rng)
    stratified = labeled is not None
    if labeled is None:
        chosen = rng.choice(train_idx.size, size=n_lab, replace=False)
        labeled = np.sort(train_idx[chosen])
    unlabeled = np.setdiff1d(train_idx, labeled, assume_unique=True)
    return DataSplit(labeled, unlabeled, test_idx, stratified)


def synthesize_dataset(gen: SyntheticSpec) -> TabularDataset:
    """Class-conditional synthetic dataset, deterministic per seed.

    Each category value carries a latent class-probability vector
    softmax(signal_strength * N(0, I)); row labels are drawn from the
    renormalized product of the row's per-column vectors, so signal_strength=0
    makes labels independent of the features. Numerical columns are Gaussians
    whose class-conditional means scale with signal_strength.
    """
    rng = np.random.default_rng(gen.seed)
    C = gen.n_classes
    n, s = gen.n_rows, gen.signal_strength

    value_probs = []  # per cat column: (cardinality, C)
    for _ in range(gen.n_cat_cols):
        logits = s * rng.standard_normal((gen.cardinality, C))
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        value_probs.append(p)

    cat_cells = np.column_stack(
        [rng.integers(0, gen.cardinality, size=n) for _ in range(gen.n_cat_cols)]
    ) if gen.n_cat_cols else np.empty((n, 0), dtype=np.int64)

    class_p = np.ones((n, C))
    for j in range(gen.n_cat_cols):
        class_p *= value_probs[j][cat_cells[:, j]]
    class_p /= class_p.sum(axis=1, keepdims=True)
    cdf = np.cumsum(class_p, axis=1)
    u = rng.random((n, 1))
    labels = (u > cdf).sum(axis=1).astype(np.int64)

    num_cells = np.empty((n, 0))
    if gen.n_num_cols:
        class_means = s * rng.standard_normal((C, gen.n_num_cols))
        num_cells = class_means[labels] + rng.standard_normal((n, gen.n_num_cols))

    schema = [
        ColumnSchema(f"cat{j}", "categorical", gen.cardinality,
                     tuple(f"v{i}" for i in range(gen.cardinality)))
        for j in range(gen.n_cat_cols)
    ] + [ColumnSchema(f"num{j}", "numerical") for j in range(gen.n_num_cols)]
    cells = np.column_stack([cat_cells.astype(np.float64), num_cells])
    return TabularDataset(tuple(schema), cells, labels, C)


def dataset_to_csv(ds: TabularDataset, path) -> None:
    """Write the dataset back to CSV (raw category values, repr'd numerics,
    labels in a last column named ``label``)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = [c.name for c in ds.schema]
        if ds.labels is not None:
            header.append("label")
        writer.writerow(header)
        for i in range(ds.n_rows):
            row = []
            for m, col in enumerate(ds.schema):
                if col.kind == "categorical":
                    row.append(col.domain[int(ds.rows[i, m])])
                else:
                    row.append(repr(float(ds.rows[i, m])))
            if ds.labels is not None:
                row.append(int(ds.labels[i]))
            writer.writerow(row)
