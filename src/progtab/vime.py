"""Two-step self-/semi-supervised pipeline on encoded tabular features.

Step 1 pretrains an encoder with a denoising pretext task (reconstruct the
uncorrupted features, predict the corruption mask). Both pretext heads read
the same latent, so they are one dense identity decoder layer of twice the
input width: its first half reconstructs the features, its second half gives
the mask logits. Step 2 trains a softmax predictor on the frozen latent with
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
from .nn import DenseLayer, ModelGraph, derive_seed, seeded_rng
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
    """Encoder plus pretext decoder and predictor.

    The decoder maps the latent to ``[reconstruction | mask logits]``, twice
    the encoder's input width. encoder=None means the predictor consumes the
    encoded features directly (the supervised baseline and the no-pretext
    ablation); decoder=None means the model does no pretext training.
    """

    encoder: ModelGraph | None
    decoder: ModelGraph | None
    predictor: ModelGraph

    def __post_init__(self):
        if self.decoder is not None:
            if self.encoder is None:
                raise nn.NnError("a decoder needs an encoder")
            if self.decoder.output_dim != 2 * self.encoder.input_dim:
                raise nn.NnError(
                    f"decoder width {self.decoder.output_dim} must be twice the input width "
                    f"{self.encoder.input_dim}: [reconstruction | mask logits]")
        if self.encoder is not None:
            h = self.encoder.output_dim
            for part in (self.decoder, self.predictor):
                if part is not None and part.input_dim != h:
                    raise nn.NnError("encoder output dim must match decoder/predictor input")

    def latent(self, x: np.ndarray) -> np.ndarray:
        if self.encoder is None:
            return x
        return self.encoder.forward(x).output


def build_vime_model(
    input_dim: int,
    num_classes: int,
    latent_dim: int = 32,
    predictor_hidden: tuple[int, ...] = (256, 128),
    seed: int = 0,
    with_encoder: bool = True,
) -> VimeModel:
    """Fresh model; each component draws from its own seed stream so the
    predictor initialization is identical with or without the encoder. The
    encoder is one dense relu layer. The decoder's two halves are drawn as
    two separate input_dim-wide Glorot layers, from the "feature-decoder" and
    "mask-decoder" streams, and stacked side by side. Every component is
    float32."""
    if with_encoder:
        encoder = ModelGraph.mlp(input_dim, (), latent_dim, "relu",
                                 seed=derive_seed(seed, "encoder"), dtype=np.float32)
        halves = [ModelGraph.mlp(latent_dim, (), input_dim, "identity",
                                 seed=derive_seed(seed, tag), dtype=np.float32).layers[0]
                  for tag in ("feature-decoder", "mask-decoder")]
        decoder = ModelGraph([DenseLayer(np.hstack([h.weight for h in halves]),
                                         np.zeros(2 * input_dim, np.float32), "identity")])
        pred_in = latent_dim
    else:
        encoder = decoder = None
        pred_in = input_dim
    predictor = ModelGraph.mlp(pred_in, predictor_hidden, num_classes, "softmax",
                               seed=derive_seed(seed, "predictor"), dtype=np.float32)
    return VimeModel(encoder, decoder, predictor)


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
    offsets = rng.integers(1, b, size=(b, d))
    donors = np.take_along_axis(x, (np.arange(b)[:, None] + offsets) % b, axis=0)
    return np.where(mask, donors, x), mask


def pretext_train(
    model: VimeModel,
    x_unlab: np.ndarray,
    spec: CorruptionSpec,
    epochs: int = 10,
    batch_size: int = 256,
) -> tuple[VimeModel, list[dict]]:
    """Denoising pretext training, a batch body for nn.train: reconstruction
    MSE + mask BCE on the two column halves of the output of the encoder and
    decoder, trained as one graph. The trained layers replace ``model.encoder``
    and ``model.decoder`` after the last epoch. Returns the model and
    per-epoch mean losses."""
    if min(x_unlab.shape[0], batch_size) < 2:
        raise ValueError(f"pretext_train: {x_unlab.shape[0]} rows in batches of "
                         f"{batch_size} leave no batch of at least 2 rows")
    if model.decoder is None:
        raise ValueError("pretext_train: model has no decoder")
    rng_shuffle = seeded_rng(spec.seed, "pretext-shuffle")
    rng_corrupt = seeded_rng(spec.seed, "pretext-corrupt")
    n, d = x_unlab.shape

    def batches(epoch):
        order = rng_shuffle.permutation(n)
        for start in range(0, n, batch_size):
            x = x_unlab[order[start:start + batch_size]]
            if x.shape[0] < 2:
                continue
            x_tilde, mask = corrupt(x, spec.p_mask, rng_corrupt)

            def losses(out):
                recon, g_rec = nn.loss_reconstruction(out[:, :d], x)
                bce, g_bce = nn.loss_mask_bce(out[:, d:], mask)
                return (recon, bce), np.hstack([g_rec, g_bce])

            yield x_tilde, losses

    n_enc = len(model.encoder.layers)
    graph = ModelGraph(model.encoder.layers + model.decoder.layers)
    curve = nn.train(graph, epochs, batches, ("reconstruction", "mask_bce"), "pretext")
    model.encoder = ModelGraph(graph.layers[:n_enc])
    model.decoder = ModelGraph(graph.layers[n_enc:])
    return model, curve


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
) -> tuple[VimeModel, list[dict]]:
    """Predictor training, a batch body for nn.train: CE on corrupted labeled
    batches + beta * consistency across k_corruptions corrupted copies of
    unlabeled batches, stacked into one batch. The encoder stays frozen.

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

    return model, nn.train(model.predictor, epochs, batches, ("ce", "consistency"), "semisup")


def predict(model: VimeModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argmax labels (ties to the lowest class index) and max-softmax confidence."""
    h = model.latent(x)
    probs = model.predictor.forward(h).output
    labels = probs.argmax(axis=1).astype(np.int64)
    return labels, probs.max(axis=1)


def accuracy(model: VimeModel, x: np.ndarray, y: np.ndarray) -> float:
    labels, _ = predict(model, x)
    return float((labels == np.asarray(y)).mean())
