"""Correctness checks on the workloads' outputs.

Each check is computed apart from progtab (plain numpy on the raw cells and
labels) or is a property the method must have. Every check returns a list of
problems; an empty list means it passed. No check compares against stored
accuracies.
"""

from __future__ import annotations

import numpy as np

ATOL = 1e-12


def independent_counts(cells: np.ndarray, labels: np.ndarray, cardinality: int,
                       num_classes: int) -> np.ndarray:
    """(cardinality, C) co-occurrence counts from one flat bincount."""
    flat = cells.astype(np.int64) * num_classes + np.asarray(labels, dtype=np.int64)
    return np.bincount(flat, minlength=cardinality * num_classes).reshape(
        cardinality, num_classes)


def _categorical(ds):
    return [(m, col) for m, col in enumerate(ds.schema) if col.kind == "categorical"]


def count_table_problems(table, ds, rows: np.ndarray, labels: np.ndarray) -> list[str]:
    """The table's integer counts equal a bincount over (value, label)."""
    problems = []
    for m, col in _categorical(ds):
        expected = independent_counts(ds.rows[rows, m], labels, col.cardinality,
                                      ds.num_classes)
        if not np.array_equal(table.counts[col.name], expected):
            problems.append(f"count table of {col.name} differs from bincount")
    return problems


def cpr_block_problems(encoded, ds, rows: np.ndarray, counted_rows: np.ndarray,
                       counted_labels: np.ndarray, alpha: float) -> list[str]:
    """Every CPR block equals (n + alpha) / (total + C * alpha) of its cell,
    with counts taken over ``counted_rows``; numeric columns pass through."""
    problems = []
    c = ds.num_classes
    for m, col in enumerate(ds.schema):
        start, stop = encoded.blocks[col.name]
        block = encoded.matrix[:, start:stop]
        if col.kind != "categorical":
            if not np.array_equal(block[:, 0], ds.rows[rows, m]):
                problems.append(f"numeric column {col.name} does not pass through")
            continue
        n = independent_counts(ds.rows[counted_rows, m], counted_labels,
                               col.cardinality, c).astype(np.float64)
        denom = n.sum(axis=1, keepdims=True) + c * alpha
        expected = np.where(denom > 0, (n + alpha) / np.where(denom > 0, denom, 1.0), 1.0 / c)
        cells = ds.rows[rows, m].astype(np.int64)
        err = np.abs(block - expected[cells]).max(initial=0.0)
        if block.shape[1] != c or err > ATOL:
            problems.append(f"CPR block of {col.name} off by {err:.3e}")
    return problems


def one_hot_problems(encoded, ds, rows: np.ndarray) -> list[str]:
    """Every one-hot row has exactly one 1, at its cell's index."""
    problems = []
    for m, col in _categorical(ds):
        start, stop = encoded.blocks[col.name]
        block = encoded.matrix[:, start:stop]
        cells = ds.rows[rows, m].astype(np.int64)
        hot = block[np.arange(rows.size), cells]
        if (block.shape[1] != col.cardinality or not np.all(hot == 1.0)
                or np.count_nonzero(block) != rows.size):
            problems.append(f"one-hot block of {col.name} is not one 1 per row at its cell")
    return problems


def majority_share(labels: np.ndarray) -> float:
    return float(np.bincount(labels).max() / labels.size)


def accuracy_problems(leg: str, accuracy: float, test_labels: np.ndarray) -> list[str]:
    share = majority_share(test_labels)
    if not accuracy > share:
        return [f"{leg}: accuracy {accuracy:.4f} does not beat the majority share {share:.4f}"]
    return []


def report_problems(report, n_runs: int, n_unlabeled: int) -> list[str]:
    """An experiment report agrees with itself and with its config."""
    problems = []
    if len(report.runs) != n_runs or report.config.get("n_runs") != n_runs:
        problems.append(f"{len(report.runs)} runs reported, {n_runs} configured")
    for i, run in enumerate(report.runs, 1):
        if not 0 <= run.n_kept <= n_unlabeled:
            problems.append(f"run {i}: n_kept {run.n_kept} outside [0, {n_unlabeled}]")
        if run.kept_fraction != run.n_kept / n_unlabeled:
            problems.append(f"run {i}: kept_fraction disagrees with n_kept")
        if (run.pseudo_precision is None) != (run.n_kept == 0):
            problems.append(f"run {i}: precision missing or present without kept rows")
        if run.pseudo_precision is not None and not 0.0 <= run.pseudo_precision <= 1.0:
            problems.append(f"run {i}: precision {run.pseudo_precision} outside [0, 1]")
    if report.runs and report.final_test_accuracy != report.runs[-1].test_accuracy:
        problems.append("final accuracy is not the last run's accuracy")
    return problems


def dense_propagation(latents: np.ndarray, labeled_idx: np.ndarray, labels: np.ndarray,
                      num_classes: int, k: int, alpha: float):
    """Label propagation by a dense solve of (I - alpha S) Z = Y.

    The graph is rebuilt here from its definition: cosine similarity, each
    row's k most similar other rows, negative similarities clipped to 0,
    symmetrised by the elementwise maximum and normalised as
    D^-1/2 W D^-1/2. Returns (probabilities, weights, pseudo-labels)."""
    n = latents.shape[0]
    z = latents / np.linalg.norm(latents, axis=1, keepdims=True)
    sims = z @ z.T
    np.fill_diagonal(sims, -np.inf)
    w = np.zeros((n, n))
    for i in range(n):
        nearest = np.argsort(-sims[i], kind="stable")[:k]
        w[i, nearest] = np.maximum(sims[i, nearest], 0.0)
    w = np.maximum(w, w.T)
    deg = w.sum(axis=1)
    inv = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    s = inv[:, None] * w * inv[None, :]
    y = np.zeros((n, num_classes))
    y[labeled_idx, labels] = 1.0
    zsol = np.maximum(np.linalg.solve(np.eye(n) - alpha * s, y), 0.0)
    total = zsol.sum(axis=1, keepdims=True)
    probs = np.where(total > 0, zsol / np.where(total > 0, total, 1.0), 1.0 / num_classes)
    logp = np.log(np.where(probs > 0, probs, 1.0))
    weights = np.clip(1.0 + (probs * logp).sum(axis=1) / np.log(num_classes), 0.0, 1.0)
    pseudo = probs.argmax(axis=1)
    weights[labeled_idx] = 1.0
    pseudo[labeled_idx] = labels
    return probs, weights, pseudo


def propagation_fixture(seed: int, n: int = 120, dim: int = 8, num_classes: int = 3,
                        per_class: int = 4):
    """Small latent set with ``per_class`` labeled rows of each class."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, dim))
    truth = rng.integers(0, num_classes, n)
    latents = centers[truth] + 0.8 * rng.standard_normal((n, dim))
    labeled = np.sort(np.concatenate(
        [np.flatnonzero(truth == c)[:per_class] for c in range(num_classes)]))
    return latents, labeled, truth[labeled], num_classes


def propagation_problems(propagate_labels, seed: int, k: int = 10,
                         alpha: float = 0.99) -> list[str]:
    """``propagate_labels`` agrees with the dense solve on a small fixture."""
    latents, labeled, labels, c = propagation_fixture(seed)
    result = propagate_labels(latents, labeled, labels, c, k=k, alpha_diff=alpha)
    probs, weights, pseudo = dense_propagation(latents, labeled, labels, c, k, alpha)
    top2 = np.sort(probs, axis=1)[:, -2:]
    clear = (top2[:, 1] - top2[:, 0]) > 1e-6
    problems = []
    if not np.array_equal(result.pseudo_label[clear], pseudo[clear]):
        problems.append("propagated labels differ from the dense solve")
    err = np.abs(result.weight - weights).max()
    if err > 1e-4:
        problems.append(f"propagation weights differ from the dense solve by {err:.3e}")
    return problems
