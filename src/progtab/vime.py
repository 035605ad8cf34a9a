"""Two-step self-/semi-supervised pipeline on encoded tabular features.

Step 1 pretrains an encoder with a denoising pretext task (reconstruct the
uncorrupted features, predict the corruption mask). Step 2 trains a softmax
predictor on the frozen latent with cross-entropy on labeled rows plus a
consistency penalty across corrupted copies of unlabeled rows. Corruption
operates on the encoded matrix, resampling masked entries from the empirical
column marginal of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .nn import ModelGraph, make_optimizer, seeded_rng, step


class TrainingDiverged(RuntimeError):
    def __init__(self, phase: str, epoch: int, detail: str):
        super().__init__(f"{phase}: non-finite loss at epoch {epoch} ({detail})")
        self.phase = phase
        self.epoch = epoch


@dataclass(frozen=True)
class CorruptionSpec:
    p_mask: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_mask <= 1.0:
            raise ValueError("p_mask must lie in [0, 1]")


@dataclass
class VimeModel:
    """Encoder plus pretext decoders and predictor.

    encoder=None means the predictor consumes the encoded features directly
    (the supervised baseline and the no-pretext ablation).
    """

    encoder: ModelGraph | None
    feature_decoder: ModelGraph | None
    mask_decoder: ModelGraph | None
    predictor: ModelGraph

    def __post_init__(self):
        if self.encoder is not None:
            h = self.encoder.output_dim
            for part in (self.feature_decoder, self.mask_decoder, self.predictor):
                if part is not None and part.input_dim != h:
                    raise nn.NnError("encoder output dim must match decoder/predictor input")

    def latent(self, x: np.ndarray) -> np.ndarray:
        if self.encoder is None:
            return x
        return self.encoder.forward(x).output


def derive_seed(seed: int, *tags) -> int:
    return int(seeded_rng(seed, *tags).integers(0, 2**63))


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
    encoder is one dense relu layer. Every component is float32."""
    if with_encoder:
        encoder = ModelGraph.mlp(input_dim, (), latent_dim, "relu",
                                 seed=derive_seed(seed, "encoder"), dtype=np.float32)
        feature_decoder = ModelGraph.mlp(latent_dim, (), input_dim, "identity",
                                         seed=derive_seed(seed, "feature-decoder"),
                                         dtype=np.float32)
        mask_decoder = ModelGraph.mlp(latent_dim, (), input_dim, "identity",
                                      seed=derive_seed(seed, "mask-decoder"), dtype=np.float32)
        pred_in = latent_dim
    else:
        encoder = feature_decoder = mask_decoder = None
        pred_in = input_dim
    predictor = ModelGraph.mlp(pred_in, predictor_hidden, num_classes, "softmax",
                               seed=derive_seed(seed, "predictor"), dtype=np.float32)
    return VimeModel(encoder, feature_decoder, mask_decoder, predictor)


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
        return x.copy(), np.zeros((b, d))
    if b < 2:
        raise ValueError("corruption needs a batch of at least 2 rows")
    mask = (rng.random((b, d)) < p_mask).astype(np.float64)
    cols = np.broadcast_to(np.arange(d), (b, d))
    offsets = rng.integers(1, b, size=(b, d))
    donor_rows = (np.arange(b)[:, None] + offsets) % b
    donors = x[donor_rows, cols]
    x_tilde = np.where(mask > 0, donors, x)
    return x_tilde, mask


def _batch_slices(n: int, batch_size: int):
    for start in range(0, n, batch_size):
        yield slice(start, min(start + batch_size, n))


def pretext_train(
    model: VimeModel,
    x_unlab: np.ndarray,
    spec: CorruptionSpec,
    epochs: int = 10,
    batch_size: int = 256,
    learning_rate: float = nn.ADAM_LEARNING_RATE,
) -> tuple[VimeModel, list[dict]]:
    """Denoising pretext training: reconstruction MSE + mask BCE.

    Returns the trained model and per-epoch mean losses.
    """
    if min(x_unlab.shape[0], batch_size) < 2:
        raise ValueError(f"pretext_train: {x_unlab.shape[0]} rows in batches of "
                         f"{batch_size} leave no batch of at least 2 rows")
    if model.encoder is None:
        raise ValueError("pretext_train: model has no encoder")
    rng_shuffle = seeded_rng(spec.seed, "pretext-shuffle")
    rng_corrupt = seeded_rng(spec.seed, "pretext-corrupt")
    opts = {
        "encoder": make_optimizer(model.encoder, learning_rate),
        "feature": make_optimizer(model.feature_decoder, learning_rate),
        "mask": make_optimizer(model.mask_decoder, learning_rate),
    }
    curve = []
    n = x_unlab.shape[0]
    for epoch in range(epochs):
        order = rng_shuffle.permutation(n)
        sums = np.zeros(2)
        n_batches = 0
        for sl in _batch_slices(n, batch_size):
            x = x_unlab[order[sl]]
            if x.shape[0] < 2:
                continue
            x_tilde, mask = corrupt(x, spec.p_mask, rng_corrupt)
            enc_fwd = model.encoder.forward(x_tilde)
            h = enc_fwd.output
            fd_fwd = model.feature_decoder.forward(h)
            recon, g_rec = nn.loss_reconstruction(fd_fwd.output, x)
            md_fwd = model.mask_decoder.forward(h)
            bce, g_bce = nn.loss_mask_bce(md_fwd.output, mask)
            total = recon + bce
            if not np.isfinite(total):
                raise TrainingDiverged("pretext", epoch, f"recon={recon} mask_bce={bce}")
            g_fd, gh_rec = model.feature_decoder.backward(fd_fwd, g_rec)
            g_md, gh_bce = model.mask_decoder.backward(md_fwd, g_bce)
            g_enc, _ = model.encoder.backward(enc_fwd, gh_rec + gh_bce, input_grad=False)
            step(opts["feature"], model.feature_decoder, g_fd)
            step(opts["mask"], model.mask_decoder, g_md)
            step(opts["encoder"], model.encoder, g_enc)
            sums += (recon, bce)
            n_batches += 1
        curve.append({"reconstruction": sums[0] / n_batches, "mask_bce": sums[1] / n_batches})
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
    """Predictor training: CE on corrupted labeled batches + beta * consistency
    across k_corruptions corrupted copies of unlabeled batches.

    Corruption is applied before the encoder in this step too (identity when
    p_mask=0), so scarce labeled rows are augmented the same way unlabeled
    ones are. The encoder stays frozen. With beta=0 or no unlabeled rows the
    unlabeled path is skipped entirely, which makes this the supervised
    baseline; its rng streams are independent of the unlabeled ones, so
    enabling the consistency term never perturbs the labeled path.
    """
    rng_lab = seeded_rng(spec.seed, "semisup-lab")
    rng_lab_corrupt = seeded_rng(spec.seed, "semisup-lab-corrupt")
    rng_unlab = seeded_rng(spec.seed, "semisup-unlab")
    rng_corrupt = seeded_rng(spec.seed, "semisup-corrupt")
    use_unlab = beta > 0.0 and k_corruptions >= 2 and x_unlab.shape[0] >= 2
    opt_pred = make_optimizer(model.predictor, nn.ADAM_LEARNING_RATE)
    n_lab = x_lab.shape[0]
    n_unlab = x_unlab.shape[0]
    curve = []
    for epoch in range(epochs):
        order = rng_lab.permutation(n_lab)
        u_order = rng_unlab.permutation(n_unlab) if use_unlab else None
        sums = np.zeros(2)
        n_batches = 0
        for bi, sl in enumerate(_batch_slices(n_lab, batch_size)):
            xb = x_lab[order[sl]]
            yb = y_lab[order[sl]]
            if spec.p_mask > 0.0 and xb.shape[0] >= 2:
                xb, _ = corrupt(xb, spec.p_mask, rng_lab_corrupt)
            pred_fwd = model.predictor.forward(model.latent(xb))
            ce, g = nn.loss_crossentropy(pred_fwd.output, yb)
            g_pred, _ = model.predictor.backward(pred_fwd, g, input_grad=False)

            cons = 0.0
            if use_unlab:
                pick = np.arange(bi * batch_size, bi * batch_size + batch_size) % n_unlab
                xu = x_unlab[u_order[pick]]
                pred_fwds = []
                for _ in range(k_corruptions):
                    xt, _mask = corrupt(xu, spec.p_mask, rng_corrupt)
                    pred_fwds.append(model.predictor.forward(model.latent(xt)))
                stack = np.stack([f.output for f in pred_fwds])
                cons, g_stack = nn.loss_consistency(stack)
                for kf, pf in enumerate(pred_fwds):
                    gk, _ = model.predictor.backward(pf, beta * g_stack[kf], input_grad=False)
                    g_pred += gk

            total = ce + beta * cons
            if not np.isfinite(total):
                raise TrainingDiverged("semisup", epoch, f"ce={ce} consistency={cons}")
            step(opt_pred, model.predictor, g_pred)
            sums += (ce, cons)
            n_batches += 1
        curve.append({"ce": sums[0] / n_batches, "consistency": sums[1] / n_batches})
    return model, curve


def predict(model: VimeModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argmax labels (ties to the lowest class index) and max-softmax confidence."""
    h = model.latent(x)
    probs = model.predictor.forward(h).output
    labels = probs.argmax(axis=1).astype(np.int64)
    return labels, probs.max(axis=1)


def accuracy(model: VimeModel, x: np.ndarray, y: np.ndarray) -> float:
    labels, _ = predict(model, x)
    return float((labels == np.asarray(y)).mean())
