"""Contrastive-mixup pipeline: an ``nn.HeadedEncoder`` whose decoder,
projection and classifier heads are column blocks of its one heads layer,
trained in place by a batch body for ``nn.train``; same-label mixup of
projected rows (the projection is affine, so projecting a mixed latent gives
the same mix of the projections); supervised contrastive training; and
graph-based label propagation for pseudo-labels.

Propagation builds a symmetric kNN graph over latents (cosine similarity,
deterministic for a given input), normalizes it symmetrically, and solves
(I - alpha * S) Z = Y one class at a time with conjugate gradients. The
graph's row blocks and the class solves run on a thread pool made per call,
with one worker per CPU in the process's affinity set; the graph and the
pseudo-labels do not depend on the number of workers. Each
row's k neighbours are found without sorting the whole row: the k-th largest
of its maxima over 256 column groups bounds its k-th largest similarity from
below, and only the entries above that bound are sorted. Ties at the k-th
similarity go to the lowest column index. A row's pseudo-label weight is one
minus the normalized entropy of its diffused class distribution, so confident
rows score near 1 and untouched rows score 0.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from . import nn
from .nn import HeadedEncoder, derive_seed, seeded_rng
from .nn import step  # noqa: F401  perfbench's tracer wraps the name here too

if TYPE_CHECKING:
    import scipy.sparse as sp


class PropagationError(RuntimeError):
    pass


# the reference setup's fixed hyperparameters
PROJECTION_DIM = 32
MIXUP_BETA_ALPHA = 0.2  # lambda ~ Beta(a, a)
SUPCON_TEMPERATURE = 0.1
W_CLF = 0.5  # classifier CE weight; reconstruction and supcon weigh 1


@dataclass(frozen=True)
class PropagationResult:
    pseudo_label: np.ndarray  # (N',) int64; labeled rows keep their own label
    weight: np.ndarray  # (N',) in [0, 1]; labeled rows have weight 1
    is_labeled: np.ndarray  # (N',) bool


def build_cmixup_model(
    input_dim: int,
    num_classes: int,
    latent_dim: int = 32,
    flags: tuple[str, ...] = ("decoder", "projection", "classifier"),
    seed: int = 0,
) -> HeadedEncoder:
    """A fresh float32 headed encoder: a one-layer relu encoder from the
    "cm-encoder" stream and one head per flag, in the order decoder (input
    width), projection (PROJECTION_DIM), classifier (one logit per class),
    each drawn from its own "cm-<head>" stream."""
    widths = {"decoder": input_dim, "projection": PROJECTION_DIM, "classifier": num_classes}
    unknown = set(flags) - set(widths)
    if unknown:
        raise ValueError(f"unknown component flags {sorted(unknown)}")
    return HeadedEncoder.build(input_dim, latent_dim, derive_seed(seed, "cm-encoder"), {
        name: (width, derive_seed(seed, f"cm-{name}"))
        for name, width in widths.items() if name in flags})


def mix_latents(z_i: np.ndarray, z_j: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Convex combination lam * z_i + (1 - lam) * z_j, lam per row."""
    lam = np.asarray(lam)[:, None]
    return lam * z_i + (1.0 - lam) * z_j


@dataclass
class MixupBatch:
    mixed: np.ndarray  # (P, h)
    labels: np.ndarray  # (P,)
    anchor_idx: np.ndarray  # (P,) index into the source latents
    partner_idx: np.ndarray  # (P,)
    lam: np.ndarray  # (P,) in the latents' dtype
    n_skipped: int = 0


def latent_mixup(
    latents: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator,
) -> MixupBatch:
    """Same-label pairs: each anchor with >= 2 members of its label draws
    one partner and a weight from Beta(MIXUP_BETA_ALPHA, MIXUP_BETA_ALPHA);
    anchors without a same-label partner are skipped (counted).

    With the rows of each label in index order, an anchor's partner is the
    member rng.integers(1, size) places after it, cyclically: uniform over
    the label's other members, never the anchor itself. Anchors ascend."""
    labels = np.asarray(labels, dtype=np.int64)
    _, group, size = np.unique(labels, return_inverse=True, return_counts=True)
    # order lists the rows label by label; a row's rank is its place in its label
    order = np.argsort(group, kind="stable")
    first = np.cumsum(size) - size
    rank = np.empty(labels.size, dtype=np.int64)
    rank[order] = np.arange(labels.size) - np.repeat(first, size)
    anchor_idx = np.flatnonzero(size[group] >= 2)
    g = group[anchor_idx]
    shift = rng.integers(1, size[g])
    partner_idx = order[first[g] + (rank[anchor_idx] + shift) % size[g]]
    # in the latents' dtype, so that the mix and its gradient stay in it
    lam = rng.beta(MIXUP_BETA_ALPHA, MIXUP_BETA_ALPHA, size=anchor_idx.size).astype(
        latents.dtype, copy=False)
    mixed = mix_latents(latents[anchor_idx], latents[partner_idx], lam)
    return MixupBatch(mixed, labels[anchor_idx], anchor_idx, partner_idx, lam,
                      labels.size - anchor_idx.size)


# similarities held at once while building the kNN graph, over all workers:
# 4M values, 16 MB in float32 (the training pipelines' latents) and 32 MB in
# float64
_SIM_BLOCK_VALUES = 1 << 22
# column groups whose maxima bound each row's k-th largest similarity
_KNN_GROUPS = 256


def _cpus() -> int:
    """The CPUs this process may run on: the worker count of each thread pool."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _knn_affinity(latents: np.ndarray, k: int) -> sp.csr_matrix:
    """Symmetric kNN graph on cosine similarity; negative similarities are
    clipped to zero and carry no edge.

    Rows are processed in blocks, on a thread pool with one worker per CPU
    that the process may run on: worker w of W takes blocks w, w + W, ...,
    each block at most _SIM_BLOCK_VALUES // W similarities, in a buffer made
    on the calling thread. A row's columns fall into G groups by index
    modulo G (G = _KNN_GROUPS, raised to k and capped at n). Let tau be the
    k-th largest group maximum: k groups each hold an entry >= tau, so tau
    is a lower bound on the row's k-th largest similarity, and only entries
    above max(tau, 0) are sorted. They lie in at most k - 1 groups, about 54
    per row at n = 16,000 and k = 50. When fewer than k lie above tau, the
    k-th similarity equals tau and the rest are filled from the entries
    equal to tau. Ties at the k-th similarity go to the lowest column index.
    Each row's edges depend on that row alone, so the graph does not depend
    on the number of workers or the block size. A block writes its rows'
    edges, at most k per row, into (n, k) column and weight arrays, which
    are compacted only when some row has fewer than k.

    Similarities are computed and compared in the latents' dtype, so float32
    latents give a float32 graph search; the edge weights are float64."""
    import scipy.sparse as sp
    from concurrent.futures.thread import ThreadPoolExecutor

    n = latents.shape[0]
    z = nn.l2_normalize_rows(np.asarray(latents))
    cpus = _cpus()
    block = max(1, min(n, _SIM_BLOCK_VALUES // cpus // n))
    n_blocks = -(-n // block)
    workers = min(cpus, n_blocks)
    groups = min(n, max(_KNN_GROUPS, k))

    counts = np.empty(n, dtype=np.int64)
    cols = np.empty((n, k), dtype=np.int32)
    vals = np.empty((n, k), dtype=np.float64)

    def worker_blocks(first: int, buf: np.ndarray) -> None:
        for start in range(first * block, n, workers * block):
            _knn_block(z, start, buf[:min(block, n - start)], k, groups, counts, cols, vals)

    bufs = [np.empty((block, n), dtype=z.dtype) for _ in range(workers)]
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(worker_blocks, range(workers), bufs))  # re-raises a worker's error
    del bufs
    if counts.min(initial=k) < k:  # keep only the filled slots
        filled = np.arange(k) < counts[:, None]
        cols, vals = cols[filled], vals[filled]
    w = sp.csr_matrix((vals.ravel(), cols.ravel(), np.concatenate(([0], np.cumsum(counts)))),
                      shape=(n, n))
    return w.maximum(w.T)


def _knn_block(z: np.ndarray, start: int, sims: np.ndarray, k: int, groups: int,
               counts: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
    """The edges of rows start:start + b of _knn_affinity's graph before it
    is symmetrized, for the unit rows z, with sims (b, n) as the block's
    similarity buffer. Each row's edge count goes into ``counts`` and its
    edges, in column order, into the front of its row of ``cols`` (column)
    and ``vals`` (weight)."""
    n = z.shape[0]
    b = sims.shape[0]
    span = n // groups * groups  # columns past span fold into the first groups
    np.matmul(z[start:start + b], z.T, out=sims)
    sims[np.arange(b), np.arange(start, start + b)] = -np.inf
    # sims[:, :span] as (b, span // groups, groups) without copying it
    row, col = sims.strides
    folded = np.lib.stride_tricks.as_strided(sims, (b, span // groups, groups),
                                             (row, groups * col, col), writeable=False)
    gmax = np.maximum.reduce(folded, axis=1)
    np.maximum(gmax[:, :n - span], sims[:, span:], out=gmax[:, :n - span])
    tau = np.partition(gmax, groups - k, axis=1)[:, groups - k]

    # candidates, packed per row in column order and sorted stably by
    # descending similarity; padding (+inf) sorts last. An edge is kept as
    # its flat position row * n + column in sims.
    flat = np.flatnonzero(sims > np.maximum(tau, 0.0)[:, None])
    r = flat // n
    above = np.bincount(r, minlength=b)
    starts = np.cumsum(above) - above
    neg = np.full((b, int(above.max(initial=0))), np.inf, dtype=z.dtype)
    neg[r, np.arange(flat.size) - np.repeat(starts, above)] = -sims.ravel()[flat]
    best = np.argsort(neg, axis=1, kind="stable")[:, :k]
    top = np.take_along_axis(neg, best, axis=1)
    kept = top < np.inf
    at = [flat[(starts[:, None] + best)[kept]]]
    weights = [-top[kept]]

    # rows with fewer than k entries above a positive tau take the
    # lowest-index entries equal to tau; every group whose maximum is tau
    # holds one, so there are enough. They are scanned in column windows
    # that start at [0, 4k) and double in width while a row is short.
    need = np.where(tau > 0, k - above, 0)
    short = np.flatnonzero(need > 0)
    lo, hi = 0, 4 * k
    while short.size:
        ties = sims[short, lo:hi] == tau[short, None]
        ties &= np.cumsum(ties, axis=1, dtype=np.int32) <= need[short, None]
        tr, tc = np.nonzero(ties)
        at.append(short[tr] * n + lo + tc)
        weights.append(tau[short[tr]])
        need[short] -= np.count_nonzero(ties, axis=1)
        short = short[need[short] > 0]
        lo, hi = hi, hi + 2 * (hi - lo)
    at = np.concatenate(at)
    order = np.argsort(at)
    at = at[order]
    r = at // n
    count = np.bincount(r, minlength=b)
    counts[start:start + b] = count
    slot = np.arange(at.size) - (np.cumsum(count) - count)[r]
    cols[start + r, slot] = at % n
    vals[start + r, slot] = np.concatenate(weights)[order]


def _normalize(w: sp.csr_matrix) -> sp.csr_matrix:
    """D^-1/2 W D^-1/2 for the graph w and its degrees D, computed in w's
    data: each edge is scaled by its row's factor and then by its column's,
    as in the product diags(f) @ w @ diags(f). A row without edges has
    factor 0."""
    deg = np.asarray(w.sum(axis=1)).ravel()
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    w.data *= np.repeat(inv_sqrt, np.diff(w.indptr))
    w.data *= inv_sqrt[w.indices]
    return w


CG_TOL = 1e-6  # absolute residual norm that ends a class's conjugate-gradient solve
CG_MAX_ITER = 2000  # iterations after which a class's solve fails


# scipy.sparse.linalg.cg gives the same solution, but importing that module
# costs about 10 MB of resident memory
def _conjugate_gradient(matvec, b: np.ndarray) -> np.ndarray:
    x = np.zeros_like(b)
    r = b.copy()  # the residual of the zero start
    p = r.copy()
    rs = float(r @ r)
    if np.sqrt(rs) < CG_TOL:
        return x
    for _ in range(CG_MAX_ITER):
        ap = matvec(p)
        alpha = rs / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) < CG_TOL:
            return x
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise PropagationError(
        f"conjugate gradient did not reach residual {CG_TOL} in {CG_MAX_ITER} iterations "
        f"(residual {np.sqrt(rs):.3e})"
    )


def propagate_labels(
    latents: np.ndarray,
    labeled_idx: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    k: int = 50,
    alpha_diff: float = 0.99,
) -> PropagationResult:
    """Diffuse labels over the kNN graph: solve (I - alpha * S) Z = Y per class.

    labels align with labeled_idx, which names distinct rows in [0, n); each
    label lies in [0, num_classes), and every class needs a labeled row.
    The graph search runs in the latents' dtype, the solve in float64; each
    class's solve stops once its residual norm is below CG_TOL and fails after
    CG_MAX_ITER iterations. The classes are solved on a thread pool with one
    worker per CPU that the process may run on; each solve is the same
    whichever thread runs it.
    """
    from concurrent.futures.thread import ThreadPoolExecutor

    n = latents.shape[0]
    labeled_idx = np.asarray(labeled_idx, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if k >= n:
        raise PropagationError(f"k={k} must be smaller than the number of rows {n}")
    bad = np.flatnonzero(~np.isfinite(latents).all(axis=1))
    if bad.size:
        raise PropagationError(
            f"{bad.size} of {n} latent rows are not finite (first: row {bad[0]})")
    if not 0.0 <= alpha_diff < 1.0:
        raise PropagationError("alpha_diff must lie in [0, 1)")
    if labeled_idx.ndim != 1 or labels.shape != labeled_idx.shape:
        raise PropagationError(f"labeled_idx and labels must be 1-D of one length, "
                               f"got shapes {labeled_idx.shape} and {labels.shape}")
    for name, v, top in (("labeled_idx", labeled_idx, n), ("labels", labels, num_classes)):
        if v.size and not 0 <= v.min() <= v.max() < top:
            raise PropagationError(f"{name} must lie in [0, {top}), got [{v.min()}, {v.max()}]")
    rows, counts = np.unique(labeled_idx, return_counts=True)
    if (counts > 1).any():
        raise PropagationError(f"labeled_idx repeats row(s) {rows[counts > 1].tolist()}")
    present = np.unique(labels)
    if present.size < num_classes:
        missing = sorted(set(range(num_classes)) - set(present.tolist()))
        raise PropagationError(f"no labeled row for class(es) {missing}")

    y = np.zeros((n, num_classes))
    y[labeled_idx, labels] = 1.0

    s = _normalize(_knn_affinity(latents, k))

    def matvec(v):
        return v - alpha_diff * (s @ v)

    def solve(c: int) -> np.ndarray:
        try:
            return _conjugate_gradient(matvec, y[:, c])
        except PropagationError as exc:
            raise PropagationError(
                f"propagation over {n} rows, class {c} of {num_classes}: {exc}") from None

    # the first failing class in class order is the one that raises
    with ThreadPoolExecutor(_cpus()) as pool:
        z = np.stack(list(pool.map(solve, range(num_classes))), axis=1)
    z = np.maximum(z, 0.0)
    row_sum = z.sum(axis=1, keepdims=True)
    probs = np.where(row_sum > 0, z / np.where(row_sum > 0, row_sum, 1.0),
                     1.0 / num_classes)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(probs > 0, np.log(np.where(probs > 0, probs, 1.0)), 0.0)
    entropy = -(probs * logp).sum(axis=1)
    weight = 1.0 - entropy / np.log(num_classes)
    weight = np.clip(weight, 0.0, 1.0)
    pseudo = probs.argmax(axis=1).astype(np.int64)

    is_labeled = np.zeros(n, dtype=bool)
    is_labeled[labeled_idx] = True
    pseudo[labeled_idx] = labels
    weight[labeled_idx] = 1.0
    return PropagationResult(pseudo, weight, is_labeled)


def _batch_losses(blocks: dict[str, slice], xb: np.ndarray, yb: np.ndarray,
                  labeled: np.ndarray, rng_mix: np.random.Generator, out: np.ndarray):
    """The losses of one batch xb, each on its column block of the graph
    output ``out``. yb is -1 where a row's label is not known yet; the
    classifier reads only the labeled rows. Returns (reconstruction, supcon,
    classifier CE) and dL/d(out) of reconstruction + supcon + W_CLF * CE."""
    g = np.zeros_like(out)
    recon = supcon = clf = 0.0
    if "decoder" in blocks:
        cols = blocks["decoder"]
        recon, g[:, cols] = nn.loss_reconstruction(out[:, cols], xb)
    if "classifier" in blocks and labeled.any():
        cols = blocks["classifier"]
        probs = nn.softmax(out[labeled, cols])
        clf, g_ce = nn.loss_crossentropy(probs, yb[labeled])
        g[labeled, cols] = nn.softmax_backward(probs, W_CLF * g_ce)
    use = np.flatnonzero(yb >= 0)
    if "projection" in blocks and use.size >= 2:
        cols = blocks["projection"]
        u_use = out[use, cols]
        mix = latent_mixup(u_use, yb[use], rng_mix)
        u = np.concatenate([u_use, mix.mixed])
        supcon, g_zn = nn.loss_supcon(nn.l2_normalize_rows(u),
                                      np.concatenate([yb[use], mix.labels]), SUPCON_TEMPERATURE)
        g_u = nn.l2_normalize_rows_backward(u, g_zn)
        # a mixed row mixes two projected rows; anchors are distinct, partners may repeat
        g_use, g_mix = g_u[:use.size], g_u[use.size:]
        g_use[mix.anchor_idx] += mix.lam[:, None] * g_mix
        np.add.at(g_use, mix.partner_idx, (1.0 - mix.lam)[:, None] * g_mix)
        g[use, cols] = g_use
    return (recon, supcon, clf), g


def encoder_train(
    model: HeadedEncoder,
    x_lab: np.ndarray,
    y_lab: np.ndarray,
    x_unlab: np.ndarray,
    num_classes: int,
    warmup_epochs: int = 10,
    epochs: int = 20,
    knn_k: int = 50,
    batch_size: int = 256,
    seed: int = 0,
) -> tuple[PropagationResult, dict[str, list[float]]]:
    """First training step: reconstruction + same-label mixup supervised
    contrastive (temperature SUPCON_TEMPERATURE) + W_CLF * classifier CE, each
    term only when its head exists. Label propagation, with propagate_labels'
    alpha, refreshes pseudo-labels once per epoch after warmup; before warmup
    only true-labeled rows feed the contrastive and classifier terms.

    A batch body for nn.train: the model's graph trains in place, each loss
    on its head's block of the output. A head with no rows in a batch (no
    true-labeled row for the classifier, under two known labels for the
    projection) gets a zero gradient, and Adam still moves its block.

    Propagation runs on the encoder output. Returns the propagation result
    on the final latents and each loss's per-epoch means.
    """
    rng_shuffle = seeded_rng(seed, "cm-shuffle")
    rng_mix = seeded_rng(seed, "cm-mixup")
    n_lab = x_lab.shape[0]
    x_all = np.concatenate([x_lab, x_unlab])
    n = x_all.shape[0]
    # labeled rows come first (idx < n_lab); unlabeled ones read -1 until
    # propagation's pseudo-labels replace the vector after warmup
    y_known = np.full(n, -1, dtype=np.int64)
    y_known[:n_lab] = y_lab
    k_eff = min(knn_k, max(1, n // 2))

    def run_propagation() -> PropagationResult:
        return propagate_labels(model.encoder.infer(x_all), np.arange(n_lab), y_lab,
                                num_classes, k=k_eff)

    def batches(epoch):
        y = y_known if epoch < warmup_epochs else run_propagation().pseudo_label
        order = rng_shuffle.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            xb = x_all[idx]
            yield xb, partial(_batch_losses, model.blocks, xb, y[idx], idx < n_lab, rng_mix)
            del xb  # before the next batch is gathered

    curve = nn.train(model.graph, epochs, batches, ("reconstruction", "supcon", "classifier_ce"),
                     "cmixup-encoder")
    return run_propagation(), curve


def classify(model: HeadedEncoder, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classifier-head predictions: argmax label (ties to the lowest index)
    and max-softmax confidence."""
    if "classifier" not in model.blocks:
        raise ValueError("classifier head is disabled on this model")
    probs = nn.softmax(model.graph.infer(x)[:, model.blocks["classifier"]])
    return probs.argmax(axis=1).astype(np.int64), probs.max(axis=1)
