"""Two-step self-/semi-supervised pipeline on encoded tabular features.

Step 1 pretrains an encoder with a denoising pretext task (reconstruct the
uncorrupted features, predict the corruption mask). Encoder and heads are an
``nn.HeadedEncoder``: the ``reconstruction`` and ``mask`` heads are
input-wide column blocks of its one identity heads layer, and the graph
trains in place. Step 2 trains a softmax predictor on the frozen latent with
cross-entropy on labeled rows plus a consistency penalty across corrupted
copies of unlabeled rows. Both steps are batch bodies for ``nn.train``: each
draws its batches and takes its losses on the output, and the loop makes one
forward, one backward and one Adam step per batch. Corruption operates on the
encoded matrix, resampling masked entries from the empirical column marginal
of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .nn import HeadedEncoder, ModelGraph, derive_seed, seeded_rng
from .nn import step  # noqa: F401  perfbench's tracer wraps the name here too


@dataclass(frozen=True)
class CorruptionSpec:
    p_mask: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_mask <= 1.0:
            raise ValueError("p_mask must lie in [0, 1]")


@dataclass
class VimeModel:
    """A headed encoder and a predictor on its latent.

    Step 1 trains ``net`` and step 2 the predictor on its frozen encoder.
    net=None means the predictor consumes the encoded features directly (the
    supervised baseline and the no-pretext ablation).
    """

    net: HeadedEncoder | None
    predictor: ModelGraph

    def __post_init__(self):
        if self.net is not None and self.predictor.input_dim != self.net.encoder.output_dim:
            raise nn.NnError(f"predictor input width {self.predictor.input_dim} must match "
                             f"the encoder's output width {self.net.encoder.output_dim}")

    def latent(self, x: np.ndarray) -> np.ndarray:
        if self.net is None:
            return x
        return self.net.encoder.forward(x).output


def build_vime_model(
    input_dim: int,
    num_classes: int,
    latent_dim: int = 32,
    predictor_hidden: tuple[int, ...] = (256, 128),
    seed: int = 0,
    with_encoder: bool = True,
) -> VimeModel:
    """Fresh float32 model; each component draws from its own seed stream so
    the predictor initialization is identical with or without the encoder.
    The net's encoder is one dense relu layer, and its two input_dim-wide
    heads, ``reconstruction`` and ``mask``, are drawn from the
    "feature-decoder" and "mask-decoder" streams."""
    net = None
    if with_encoder:
        net = HeadedEncoder.build(input_dim, latent_dim, derive_seed(seed, "encoder"), {
            "reconstruction": (input_dim, derive_seed(seed, "feature-decoder")),
            "mask": (input_dim, derive_seed(seed, "mask-decoder"))})
    predictor = ModelGraph.mlp(latent_dim if with_encoder else input_dim, predictor_hidden,
                               num_classes, "softmax", seed=derive_seed(seed, "predictor"),
                               dtype=np.float32)
    return VimeModel(net, predictor)


def corrupt(
    inputs: np.ndarray,
    p_mask: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Mask entries i.i.d. with probability p_mask and replace each masked
    entry by the same column's value from a uniformly random other row of the
    batch. Unmasked entries are preserved."""
    x = np.asarray(inputs)
    b, d = x.shape
    if p_mask == 0.0:
        return x.copy(), np.zeros((b, d), dtype=bool)
    if b < 2:
        raise ValueError("corruption needs a batch of at least 2 rows")
    mask = rng.random((b, d)) < p_mask
    # entry (i, j) takes row (i + offset) mod b of its column: as a flat
    # index, i * d + j + offset * d, less b * d where that passes the end
    at = rng.integers(1, b, size=(b, d))
    at *= d
    at += np.arange(b * d).reshape(b, d)
    at -= (b * d) * (at >= b * d)
    return np.where(mask, x.take(at), x), mask


def pretext_train(
    model: VimeModel,
    x_unlab: np.ndarray,
    spec: CorruptionSpec,
    epochs: int = 10,
    batch_size: int = 256,
) -> dict[str, list[float]]:
    """Denoising pretext training, a batch body for nn.train: reconstruction
    MSE + mask BCE, each on its head's block of ``model.net``'s output. The
    net's graph trains in place. Returns each loss's per-epoch means."""
    n, d = x_unlab.shape
    if min(n, batch_size) < 2:
        raise ValueError(f"pretext_train: {n} rows in batches of "
                         f"{batch_size} leave no batch of at least 2 rows")
    blocks = model.net.blocks if model.net is not None else {}
    rec, msk = blocks.get("reconstruction", slice(0, 0)), blocks.get("mask", slice(0, 0))
    if rec.stop - rec.start != d or msk.stop - msk.start != d:
        raise ValueError(f"pretext_train: the model needs reconstruction and mask heads "
                         f"of the input width {d}")
    rng_shuffle = seeded_rng(spec.seed, "pretext-shuffle")
    rng_corrupt = seeded_rng(spec.seed, "pretext-corrupt")

    def batches(epoch):
        order = rng_shuffle.permutation(n)
        for start in range(0, n, batch_size):
            x = x_unlab[order[start:start + batch_size]]
            if x.shape[0] < 2:
                continue
            x_tilde, mask = corrupt(x, spec.p_mask, rng_corrupt)

            def losses(out):
                g = np.zeros_like(out)
                recon, g[:, rec] = nn.loss_reconstruction(out[:, rec], x)
                bce, g[:, msk] = nn.loss_mask_bce(out[:, msk], mask)
                return (recon, bce), g

            yield x_tilde, losses

    return nn.train(model.net.graph, epochs, batches, ("reconstruction", "mask_bce"), "pretext")


def semisup_train(
    model: VimeModel,
    x_lab: np.ndarray,
    y_lab: np.ndarray,
    x_unlab: np.ndarray,
    spec: CorruptionSpec,
    beta: float = 1.0,
    k_corruptions: int = 3,
    epochs: int = 20,
    batch_size: int = 256,
) -> dict[str, list[float]]:
    """Predictor training, a batch body for nn.train: CE on corrupted labeled
    batches + beta * consistency across k_corruptions corrupted copies of
    unlabeled batches, stacked into one batch. The predictor trains in place
    and the encoder stays frozen. Returns each loss's per-epoch means.

    Corruption is applied before the encoder in this step too (identity when
    p_mask=0), so scarce labeled rows are augmented the same way unlabeled
    ones are. With beta=0 or no unlabeled rows the unlabeled path is skipped
    entirely, which makes this the supervised baseline; its rng streams are
    independent of the unlabeled ones, so enabling the consistency term never
    changes which rows or corruptions the labeled path draws.
    """
    n_lab, n_unlab = x_lab.shape[0], x_unlab.shape[0]
    rng_lab = seeded_rng(spec.seed, "semisup-lab")
    rng_lab_corrupt = seeded_rng(spec.seed, "semisup-lab-corrupt")
    rng_unlab = seeded_rng(spec.seed, "semisup-unlab")
    rng_corrupt = seeded_rng(spec.seed, "semisup-corrupt")
    use_unlab = beta > 0.0 and k_corruptions >= 2 and n_unlab >= 2

    def batches(epoch):
        order = rng_lab.permutation(n_lab)
        u_order = rng_unlab.permutation(n_unlab) if use_unlab else None
        for start in range(0, n_lab, batch_size):
            rows = order[start:start + batch_size]
            xb, yb = x_lab[rows], y_lab[rows]
            if spec.p_mask > 0.0 and xb.shape[0] >= 2:
                xb, _ = corrupt(xb, spec.p_mask, rng_lab_corrupt)
            nb = xb.shape[0]  # the batch holds nb labeled rows, then the copies
            if use_unlab:
                xu = x_unlab[u_order[np.arange(start, start + batch_size) % n_unlab]]
                xb = np.concatenate([xb] + [corrupt(xu, spec.p_mask, rng_corrupt)[0]
                                            for _ in range(k_corruptions)])

            def losses(out):
                ce, g = nn.loss_crossentropy(out[:nb], yb)
                if not use_unlab:
                    return (ce, 0.0), g
                cons, g_cons = nn.loss_consistency(
                    out[nb:].reshape(k_corruptions, batch_size, -1))
                return (ce, cons), np.concatenate([g, beta * g_cons.reshape(-1, g.shape[1])])

            yield model.latent(xb), losses

    return nn.train(model.predictor, epochs, batches, ("ce", "consistency"), "semisup")


def predict(model: VimeModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argmax labels (ties to the lowest class index) and max-softmax confidence."""
    h = model.latent(x)
    probs = model.predictor.forward(h).output
    labels = probs.argmax(axis=1).astype(np.int64)
    return labels, probs.max(axis=1)


def accuracy(model: VimeModel, x: np.ndarray, y: np.ndarray) -> float:
    labels, _ = predict(model, x)
    return float((labels == np.asarray(y)).mean())
