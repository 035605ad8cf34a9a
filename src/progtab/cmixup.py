"""Contrastive-mixup pipeline: encoder with projection/decoder/classifier
heads, same-label mixup in latent space, supervised contrastive training, and
graph-based label propagation for pseudo-labels.

Propagation builds a symmetric kNN graph over latents (cosine similarity,
deterministic for a given input), normalizes it symmetrically, and solves
(I - alpha * S) Z = Y one class at a time with conjugate gradients. A row's
pseudo-label weight is one minus the normalized entropy of its diffused class
distribution, so confident rows score near 1 and untouched rows score 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import nn
from .nn import ModelGraph, make_optimizer, seeded_rng, step
from .vime import TrainingDiverged, derive_seed


class PropagationError(RuntimeError):
    pass


@dataclass(frozen=True)
class MixupSpec:
    beta_alpha: float = 0.2  # lambda ~ Beta(a, a)

    def __post_init__(self):
        if self.beta_alpha <= 0:
            raise ValueError("beta_alpha must be > 0")


@dataclass
class CmixupModel:
    encoder: ModelGraph
    projection: ModelGraph | None
    decoder: ModelGraph | None
    classifier: ModelGraph | None
    component_flags: frozenset[str]

    def __post_init__(self):
        self.component_flags = frozenset(self.component_flags)
        unknown = self.component_flags - {"projection", "decoder", "classifier"}
        if unknown:
            raise ValueError(f"unknown component flags {sorted(unknown)}")
        if not self.component_flags:
            raise ValueError("at least one of decoder/projection/classifier must be enabled")
        for flag, head in (("projection", self.projection), ("decoder", self.decoder),
                           ("classifier", self.classifier)):
            if flag in self.component_flags and head is None:
                raise ValueError(f"flag {flag!r} enabled but head missing")

    def latent(self, x: np.ndarray) -> np.ndarray:
        return self.encoder.forward(x).output


@dataclass(frozen=True)
class PropagationResult:
    pseudo_label: np.ndarray  # (N',) int64; labeled rows keep their own label
    weight: np.ndarray  # (N',) in [0, 1]; labeled rows have weight 1
    is_labeled: np.ndarray  # (N',) bool


def build_cmixup_model(
    input_dim: int,
    num_classes: int,
    latent_dim: int = 32,
    projection_dim: int = 32,
    flags: tuple[str, ...] = ("decoder", "projection", "classifier"),
    encoder_hidden: tuple[int, ...] = (),
    seed: int = 0,
) -> CmixupModel:
    encoder = ModelGraph.mlp(input_dim, encoder_hidden, latent_dim, "relu",
                             seed=derive_seed(seed, "cm-encoder"))
    projection = decoder = classifier = None
    if "projection" in flags:
        projection = ModelGraph.mlp(latent_dim, (), projection_dim, "identity",
                                    seed=derive_seed(seed, "cm-projection"))
    if "decoder" in flags:
        decoder = ModelGraph.mlp(latent_dim, (), input_dim, "identity",
                                 seed=derive_seed(seed, "cm-decoder"))
    if "classifier" in flags:
        classifier = ModelGraph.mlp(latent_dim, (), num_classes, "softmax",
                                    seed=derive_seed(seed, "cm-classifier"))
    return CmixupModel(encoder, projection, decoder, classifier, frozenset(flags))


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
    lam: np.ndarray  # (P,)
    n_skipped: int = 0


def latent_mixup(
    latents: np.ndarray,
    labels: np.ndarray,
    spec: MixupSpec,
    rng: np.random.Generator,
) -> MixupBatch:
    """Same-label pairs: each anchor with >= 2 members of its label draws
    one partner; anchors without a same-label partner are silently skipped
    (counted)."""
    labels = np.asarray(labels, dtype=np.int64)
    n = latents.shape[0]
    members: dict[int, np.ndarray] = {}
    for lbl in np.unique(labels):
        members[int(lbl)] = np.flatnonzero(labels == lbl)
    anchors, partners = [], []
    n_skipped = 0
    for i in range(n):
        group = members[int(labels[i])]
        if group.size < 2:
            n_skipped += 1
            continue
        j = i
        while j == i:
            j = int(group[rng.integers(0, group.size)])
        anchors.append(i)
        partners.append(j)
    if not anchors:
        empty = np.empty(0, dtype=np.int64)
        return MixupBatch(np.empty((0, latents.shape[1])), empty, empty, empty,
                          np.empty(0), n_skipped)
    anchor_idx = np.array(anchors, dtype=np.int64)
    partner_idx = np.array(partners, dtype=np.int64)
    lam = rng.beta(spec.beta_alpha, spec.beta_alpha, size=anchor_idx.size)
    mixed = mix_latents(latents[anchor_idx], latents[partner_idx], lam)
    return MixupBatch(mixed, labels[anchor_idx], anchor_idx, partner_idx, lam, n_skipped)


# similarities held at once while building the kNN graph: 4M float64 (32 MB)
_SIM_BLOCK_VALUES = 1 << 22


def _knn_affinity(latents: np.ndarray, k: int) -> sp.csr_matrix:
    """Symmetric kNN graph on cosine similarity; negative similarities are
    clipped to zero and carry no edge.

    Rows are processed in blocks of at most _SIM_BLOCK_VALUES similarities.
    The graph is deterministic for a given input; exact ties at a row's k-th
    positive similarity are resolved by argpartition's selection, not by
    index."""
    n = latents.shape[0]
    z = nn.l2_normalize_rows(np.asarray(latents, dtype=np.float64))
    block = max(1, min(n, _SIM_BLOCK_VALUES // n))
    buf = np.empty((block, n))
    cols = np.empty((n, k), dtype=np.int64)
    vals = np.empty((n, k))
    for start in range(0, n, block):
        stop = min(start + block, n)
        sims = np.matmul(z[start:stop], z.T, out=buf[:stop - start])
        sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        top = np.argpartition(sims, n - k, axis=1)[:, n - k:]
        cols[start:stop] = top
        vals[start:stop] = np.take_along_axis(sims, top, axis=1)
    np.maximum(vals, 0.0, out=vals)
    rows = np.repeat(np.arange(n, dtype=np.int64), k)
    w = sp.csr_matrix((vals.ravel(), (rows, cols.ravel())), shape=(n, n))
    return w.maximum(w.T)


def _conjugate_gradient(matvec, b: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    x = np.zeros_like(b)
    r = b - matvec(x)
    p = r.copy()
    rs = float(r @ r)
    if np.sqrt(rs) < tol:
        return x
    for _ in range(max_iter):
        ap = matvec(p)
        alpha = rs / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) < tol:
            return x
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise PropagationError(
        f"conjugate gradient did not reach residual {tol} in {max_iter} iterations "
        f"(residual {np.sqrt(rs):.3e})"
    )


def propagate_labels(
    latents: np.ndarray,
    labeled_idx: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    k: int = 50,
    alpha_diff: float = 0.99,
    tol: float = 1e-6,
    max_iter: int = 2000,
) -> PropagationResult:
    """Diffuse labels over the kNN graph: solve (I - alpha * S) Z = Y per class.

    labels align with labeled_idx. Every class needs at least one labeled row.
    """
    n = latents.shape[0]
    labeled_idx = np.asarray(labeled_idx, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if k >= n:
        raise PropagationError(f"k={k} must be smaller than the number of rows {n}")
    if not 0.0 <= alpha_diff < 1.0:
        raise PropagationError("alpha_diff must lie in [0, 1)")
    present = np.unique(labels)
    if present.size < num_classes:
        missing = sorted(set(range(num_classes)) - set(present.tolist()))
        raise PropagationError(f"no labeled row for class(es) {missing}")

    y = np.zeros((n, num_classes))
    y[labeled_idx, labels] = 1.0

    if alpha_diff == 0.0:
        z = y.copy()
    else:
        w = _knn_affinity(latents, k)
        deg = np.asarray(w.sum(axis=1)).ravel()
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
        d_inv = sp.diags(inv_sqrt)
        s = d_inv @ w @ d_inv

        def matvec(v):
            return v - alpha_diff * (s @ v)

        z = np.empty_like(y)
        for c in range(num_classes):
            try:
                z[:, c] = _conjugate_gradient(matvec, y[:, c], tol, max_iter)
            except PropagationError as exc:
                raise PropagationError(
                    f"propagation over {n} rows, class {c} of {num_classes}: {exc}") from None

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


def encoder_train(
    model: CmixupModel,
    x_lab: np.ndarray,
    y_lab: np.ndarray,
    x_unlab: np.ndarray,
    num_classes: int,
    mixup: MixupSpec = MixupSpec(),
    w_recon: float = 1.0,
    w_supcon: float = 1.0,
    w_clf: float = 0.5,
    temperature: float = 0.1,
    warmup_epochs: int = 10,
    epochs: int = 20,
    knn_k: int = 50,
    alpha_diff: float = 0.99,
    batch_size: int = 256,
    learning_rate: float = 1e-3,
    seed: int = 0,
) -> tuple[CmixupModel, PropagationResult, list[dict]]:
    """First training step: reconstruction + same-label mixup contrastive
    + classifier CE, with label propagation refreshing pseudo-labels once per
    epoch after warmup. Before warmup only true-labeled rows feed the
    contrastive and classifier terms.

    Propagation runs on the encoder output. Returns the trained model, the
    propagation result on the final latents, and per-epoch mean losses.
    """
    rng_shuffle = seeded_rng(seed, "cm-shuffle")
    rng_mix = seeded_rng(seed, "cm-mixup")
    n_lab, n_unlab = x_lab.shape[0], x_unlab.shape[0]
    x_all = np.concatenate([x_lab, x_unlab]) if n_unlab else x_lab.copy()
    n = x_all.shape[0]
    is_lab = np.zeros(n, dtype=bool)
    is_lab[:n_lab] = True
    y_known = np.full(n, -1, dtype=np.int64)
    y_known[:n_lab] = y_lab
    k_eff = min(knn_k, max(1, n // 2))

    opts = {"encoder": make_optimizer(model.encoder, learning_rate)}
    for name in ("projection", "decoder", "classifier"):
        head = getattr(model, name)
        if name in model.component_flags:
            opts[name] = make_optimizer(head, learning_rate)

    def run_propagation() -> PropagationResult:
        return propagate_labels(model.latent(x_all), np.arange(n_lab), y_lab, num_classes,
                                k=k_eff, alpha_diff=alpha_diff)

    curve = []
    y_round = y_known.copy()  # labels available for mixup/supcon this epoch
    for epoch in range(epochs):
        if epoch >= warmup_epochs:
            prop = run_propagation()
            y_round = prop.pseudo_label.copy()
        order = rng_shuffle.permutation(n)
        sums = np.zeros(3)
        n_batches = 0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            xb = x_all[idx]
            enc_fwd = model.encoder.forward(xb)
            z = enc_fwd.output
            g_z = np.zeros_like(z)
            recon = supcon = clf = 0.0

            if "decoder" in model.component_flags and w_recon > 0:
                dec_fwd = model.decoder.forward(z)
                recon, g_rec = nn.loss_reconstruction(dec_fwd.output, xb)
                g_dec, gz = model.decoder.backward(dec_fwd, w_recon * g_rec)
                step(opts["decoder"], model.decoder, g_dec)
                g_z += gz

            if "classifier" in model.component_flags and w_clf > 0:
                lab_rows = np.flatnonzero(is_lab[idx])
                if lab_rows.size:
                    clf_fwd = model.classifier.forward(z[lab_rows])
                    clf, g_ce = nn.loss_crossentropy(clf_fwd.output, y_known[idx[lab_rows]])
                    g_clf, gz_lab = model.classifier.backward(clf_fwd, w_clf * g_ce)
                    step(opts["classifier"], model.classifier, g_clf)
                    g_z[lab_rows] += gz_lab

            if "projection" in model.component_flags and w_supcon > 0:
                use = np.flatnonzero(y_round[idx] >= 0)
                if use.size >= 2:
                    zb = z[use]
                    yb = y_round[idx[use]]
                    mix = latent_mixup(zb, yb, mixup, rng_mix)
                    stacked = np.concatenate([zb, mix.mixed]) if mix.mixed.size else zb
                    sc_labels = np.concatenate([yb, mix.labels]) if mix.mixed.size else yb
                    proj_fwd = model.projection.forward(stacked)
                    u = proj_fwd.output
                    zn = nn.l2_normalize_rows(u)
                    supcon, g_zn = nn.loss_supcon(zn, sc_labels, temperature)
                    g_u = nn.l2_normalize_rows_backward(u, w_supcon * g_zn)
                    g_proj, g_stack = model.projection.backward(proj_fwd, g_u)
                    step(opts["projection"], model.projection, g_proj)
                    gz_use = g_stack[: use.size].copy()
                    if mix.mixed.size:
                        g_mix = g_stack[use.size:]
                        np.add.at(gz_use, mix.anchor_idx, mix.lam[:, None] * g_mix)
                        np.add.at(gz_use, mix.partner_idx, (1.0 - mix.lam)[:, None] * g_mix)
                    g_z[use] += gz_use

            total = w_recon * recon + w_supcon * supcon + w_clf * clf
            if not np.isfinite(total):
                raise TrainingDiverged("cmixup-encoder", epoch,
                                       f"recon={recon} supcon={supcon} clf={clf}")
            g_enc, _ = model.encoder.backward(enc_fwd, g_z)
            step(opts["encoder"], model.encoder, g_enc)
            sums += (recon, supcon, clf)
            n_batches += 1
        curve.append({"reconstruction": sums[0] / n_batches,
                      "supcon": sums[1] / n_batches,
                      "classifier_ce": sums[2] / n_batches})

    final_prop = run_propagation()
    return model, final_prop, curve


def classify(model: CmixupModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classifier-head predictions: argmax label (ties to the lowest index)
    and max-softmax confidence."""
    if "classifier" not in model.component_flags:
        raise ValueError("classifier head is disabled on this model")
    probs = model.classifier.forward(model.latent(x)).output
    return probs.argmax(axis=1).astype(np.int64), probs.max(axis=1)
