"""Minimal deterministic neural-network core.

Dense layers with {relu, identity, softmax, sigmoid} activations, exact
reverse-mode gradients, Adam, and a central-finite-difference gradient
checker. Every loss returns (value, gradient w.r.t. its input) so training
loops can compose heads and chain gradients through shared encoders.

Determinism: parameters are initialized from a seeded generator; forward and
backward are pure ndarray arithmetic with fixed reduction order.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

LOG_CLAMP = 1e-12


class NnError(ValueError):
    pass


class GradientError(RuntimeError):
    """Raised when a gradient turns non-finite; carries the offending layer."""

    def __init__(self, layer_index: int, message: str):
        super().__init__(f"layer {layer_index}: {message}")
        self.layer_index = layer_index


def seeded_rng(seed: int, *tags) -> np.random.Generator:
    """Independent child stream per (seed, tags); stable across runs."""
    key = tuple(zlib.crc32(str(t).encode("utf-8")) for t in tags)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@dataclass
class DenseLayer:
    weight: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str  # relu | identity | softmax | sigmoid

    def __post_init__(self):
        if self.activation not in ("relu", "identity", "softmax", "sigmoid"):
            raise NnError(f"unknown activation {self.activation!r}")


@dataclass
class ModelGraph:
    layers: list[DenseLayer]
    seed: int = 0

    def __post_init__(self):
        for a, b in zip(self.layers, self.layers[1:]):
            if a.weight.shape[1] != b.weight.shape[0]:
                raise NnError("consecutive layer dims incompatible")

    @classmethod
    def build(cls, dims: list[int], activations: list[str], seed: int) -> "ModelGraph":
        """MLP with layer sizes dims[0] -> dims[1] -> ... -> dims[-1].

        He-scaled init for relu layers, Glorot for the rest; biases zero.
        """
        if len(activations) != len(dims) - 1:
            raise NnError("need one activation per layer")
        rng = np.random.default_rng(seed)
        layers = []
        for i, act in enumerate(activations):
            fan_in, fan_out = dims[i], dims[i + 1]
            if act == "relu":
                scale = np.sqrt(2.0 / fan_in)
            else:
                scale = np.sqrt(2.0 / (fan_in + fan_out))
            w = scale * rng.standard_normal((fan_in, fan_out))
            layers.append(DenseLayer(w, np.zeros(fan_out), act))
        return cls(layers, seed)

    @classmethod
    def mlp(cls, input_dim: int, hidden: tuple[int, ...], output_dim: int,
            output_activation: str, seed: int) -> "ModelGraph":
        dims = [input_dim, *hidden, output_dim]
        acts = ["relu"] * len(hidden) + [output_activation]
        return cls.build(dims, acts, seed)

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[1]

    def copy(self) -> "ModelGraph":
        return ModelGraph(
            [DenseLayer(l.weight.copy(), l.bias.copy(), l.activation) for l in self.layers],
            self.seed,
        )

    def forward(self, inputs: np.ndarray) -> "Forward":
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise NnError(f"input width {x.shape} does not match first layer {self.input_dim}")
        acts = [x]
        pres = []
        for layer in self.layers:
            z = acts[-1] @ layer.weight + layer.bias
            pres.append(z)
            acts.append(_activate(layer.activation, z))
        return Forward(acts, pres)

    def backward(self, fwd: "Forward", grad_output: np.ndarray) -> tuple["Gradients", np.ndarray]:
        """Exact gradients of a scalar loss given dL/d(output).

        Returns (parameter gradients, dL/d(input)) so callers can chain
        through upstream models.
        """
        g = np.asarray(grad_output, dtype=np.float64)
        weight_grads = [None] * len(self.layers)
        bias_grads = [None] * len(self.layers)
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            gz = _activate_backward(layer.activation, fwd.pres[i], fwd.acts[i + 1], g)
            weight_grads[i] = fwd.acts[i].T @ gz
            bias_grads[i] = gz.sum(axis=0)
            if not (np.isfinite(weight_grads[i]).all() and np.isfinite(bias_grads[i]).all()):
                raise GradientError(i, "non-finite gradient")
            g = gz @ layer.weight.T
        return Gradients(weight_grads, bias_grads), g


@dataclass
class Forward:
    acts: list[np.ndarray]  # acts[0] is the input, acts[-1] the output
    pres: list[np.ndarray]

    @property
    def output(self) -> np.ndarray:
        return self.acts[-1]


@dataclass
class Gradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def add_scaled(self, other: "Gradients", scale: float) -> "Gradients":
        return Gradients(
            [a + scale * b for a, b in zip(self.weights, other.weights)],
            [a + scale * b for a, b in zip(self.biases, other.biases)],
        )

    @classmethod
    def zeros_like(cls, model: ModelGraph) -> "Gradients":
        return cls(
            [np.zeros_like(l.weight) for l in model.layers],
            [np.zeros_like(l.bias) for l in model.layers],
        )


def _activate(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "identity":
        return z
    if kind == "sigmoid":
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        e = np.exp(z[~pos])
        out[~pos] = e / (1.0 + e)
        return out
    # softmax, row-wise
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _activate_backward(kind: str, z: np.ndarray, a: np.ndarray, grad: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return grad * (z > 0)
    if kind == "identity":
        return grad
    if kind == "sigmoid":
        return grad * a * (1.0 - a)
    # softmax Jacobian: dz = a * (g - <g, a>)
    dot = (grad * a).sum(axis=1, keepdims=True)
    return a * (grad - dot)


# --------------------------------------------------------------------------
# Losses. Each returns (scalar value, gradient w.r.t. the first argument).
# --------------------------------------------------------------------------

def loss_crossentropy(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-probability of the true class, p clamped at 1e-12."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and labels.max() >= probs.shape[1]:
        raise NnError("label >= number of classes")
    b = probs.shape[0]
    picked = probs[np.arange(b), labels]
    clamped = np.maximum(picked, LOG_CLAMP)
    loss = float(-np.log(clamped).mean())
    grad = np.zeros_like(probs)
    live = picked > LOG_CLAMP  # the clamp zeroes the gradient below it
    grad[np.arange(b)[live], labels[live]] = -1.0 / (b * picked[live])
    return loss, grad


def loss_reconstruction(x_hat: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all entries."""
    if x_hat.shape != x.shape:
        raise NnError("reconstruction shape mismatch")
    diff = x_hat - x
    loss = float((diff**2).mean())
    return loss, 2.0 * diff / diff.size


def loss_mask_bce(mask_logits: np.ndarray, true_mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Binary cross-entropy on logits, mean over all mask bits."""
    if mask_logits.shape != true_mask.shape:
        raise NnError("mask shape mismatch")
    z, m = mask_logits, true_mask
    # log(1 + exp(z)) - m*z, computed stably
    loss = float((np.maximum(z, 0.0) - m * z + np.log1p(np.exp(-np.abs(z)))).mean())
    grad = (_activate("sigmoid", z) - m) / z.size
    return loss, grad


def loss_consistency(pred_sets: np.ndarray) -> tuple[float, np.ndarray]:
    """Disagreement across K prediction sets of the same batch.

    pred_sets is (K, B, C); the loss is the mean over samples of the summed
    per-class population variance across the K sets.
    """
    p = np.asarray(pred_sets, dtype=np.float64)
    if p.ndim != 3 or p.shape[0] < 2:
        raise NnError("need K >= 2 prediction sets")
    k, b, _ = p.shape
    mean = p.mean(axis=0, keepdims=True)
    centered = p - mean
    loss = float((centered**2).sum(axis=(0, 2)).mean() / k)
    grad = 2.0 * centered / (k * b)
    return loss, grad


def l2_normalize_rows(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Unit-normalize rows; rows with norm <= eps map to the zero vector."""
    norms = np.sqrt((x**2).sum(axis=1, keepdims=True))
    return np.where(norms > eps, x / np.maximum(norms, eps), 0.0)


def l2_normalize_rows_backward(x: np.ndarray, grad: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Chain rule through row normalization; degenerate rows get zero gradient."""
    norms = np.sqrt((x**2).sum(axis=1, keepdims=True))
    live = norms > eps
    safe = np.maximum(norms, eps)
    y = x / safe
    out = (grad - (grad * y).sum(axis=1, keepdims=True) * y) / safe
    return np.where(live, out, 0.0)


def loss_supcon(
    projections: np.ndarray, labels: np.ndarray, temperature: float
) -> tuple[float, np.ndarray]:
    """Supervised contrastive loss on L2-normalized projection rows.

    For each anchor with at least one same-label positive, averages
    -log(exp(s_ip/t) / sum_{a != i} exp(s_ia/t)) over its positives; anchors
    without positives are skipped. Returns the mean over anchors.
    """
    if temperature <= 0:
        raise NnError("temperature must be > 0")
    z = np.asarray(projections, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = z.shape[0]
    if n == 0:
        return 0.0, np.zeros_like(z)
    sims = (z @ z.T) / temperature
    same = labels[:, None] == labels[None, :]
    off_diag = ~np.eye(n, dtype=bool)
    pos_mask = same & off_diag
    n_pos = pos_mask.sum(axis=1)
    anchors = n_pos > 0
    n_anchors = int(anchors.sum())
    if n_anchors == 0:
        return 0.0, np.zeros_like(z)

    neg_inf = -np.inf
    masked = np.where(off_diag, sims, neg_inf)
    row_max = masked.max(axis=1, keepdims=True)
    exp = np.where(off_diag, np.exp(masked - row_max), 0.0)
    log_denom = np.log(exp.sum(axis=1, keepdims=True)) + row_max
    log_prob = sims - log_denom  # valid off-diagonal

    per_anchor = np.zeros(n)
    per_anchor[anchors] = -(
        (log_prob * pos_mask).sum(axis=1)[anchors] / n_pos[anchors]
    )
    loss = float(per_anchor[anchors].mean())

    # dL/ds_ij for anchor rows: softmax over non-self minus the positive mass
    softmax = exp / exp.sum(axis=1, keepdims=True)
    g = np.zeros((n, n))
    g[anchors] = softmax[anchors] - pos_mask[anchors] / n_pos[anchors, None]
    g /= n_anchors
    grad = (g + g.T) @ z / temperature
    return loss, grad


# --------------------------------------------------------------------------
# Optimizer
# --------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """Adam moments for one model."""

    learning_rate: float
    m: Gradients
    v: Gradients
    step_count: int = 0


def make_optimizer(model: ModelGraph, learning_rate: float) -> OptimizerState:
    return OptimizerState(learning_rate, Gradients.zeros_like(model),
                          Gradients.zeros_like(model))


def step(optimizer: OptimizerState, model: ModelGraph, grads: Gradients) -> ModelGraph:
    """Apply one Adam update in place; returns the model for convenience."""
    optimizer.step_count += 1
    t = optimizer.step_count
    correct1 = 1.0 - ADAM_BETA1**t
    correct2 = 1.0 - ADAM_BETA2**t
    for i, layer in enumerate(model.layers):
        for attr, g, m, v in (
            ("weight", grads.weights[i], optimizer.m.weights[i], optimizer.v.weights[i]),
            ("bias", grads.biases[i], optimizer.m.biases[i], optimizer.v.biases[i]),
        ):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g**2
            update = optimizer.learning_rate * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)
            param = getattr(layer, attr)
            param -= update
    return model


# --------------------------------------------------------------------------
# Gradient checking
# --------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_layer: int
    worst_param: str  # weight | bias
    worst_index: tuple
    n_params: int


def gradcheck(model: ModelGraph, loss_fn, epsilon: float = 1e-5) -> GradCheckReport:
    """Central finite differences on every parameter of the model.

    ``loss_fn(model)`` must return (scalar loss, Gradients). The analytic
    gradient is compared entry-by-entry against (L(p+eps) - L(p-eps)) / 2eps
    using the symmetric relative error |a - n| / max(1e-8, |a| + |n|).
    """
    _, analytic = loss_fn(model)
    worst = (0.0, -1, "", ())
    n_params = 0
    for i, layer in enumerate(model.layers):
        for attr, grad in (("weight", analytic.weights[i]), ("bias", analytic.biases[i])):
            param = getattr(layer, attr)
            it = np.nditer(param, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + epsilon
                up, _ = loss_fn(model)
                param[idx] = orig - epsilon
                down, _ = loss_fn(model)
                param[idx] = orig
                numeric = (up - down) / (2.0 * epsilon)
                a = grad[idx]
                rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
                if rel > worst[0]:
                    worst = (rel, i, attr, idx)
                n_params += 1
                it.iternext()
    return GradCheckReport(worst[0], worst[1], worst[2], worst[3], n_params)


def gradcheck_cases(batch: int = 6, dim: int = 5):
    """One (name, model, loss_fn) case per loss in the module, on fixed small
    models whose relu pre-activations sit away from kinks at the default FD
    step. loss_fn(model) -> (loss, Gradients); suitable for gradcheck()."""
    rng = np.random.default_rng(42)
    cases = []

    x = rng.normal(size=(batch, dim))
    y = rng.integers(0, 3, size=batch)
    ce_model = ModelGraph.mlp(dim, (7,), 3, "softmax", seed=3)

    def ce_fn(m):
        fwd = m.forward(x)
        loss, g = loss_crossentropy(fwd.output, y)
        grads, _ = m.backward(fwd, g)
        return loss, grads

    cases.append(("crossentropy", ce_model, ce_fn))

    target = rng.normal(size=(batch, dim))
    mse_model = ModelGraph.mlp(dim, (4,), dim, "identity", seed=4)

    def mse_fn(m):
        fwd = m.forward(x)
        loss, g = loss_reconstruction(fwd.output, target)
        grads, _ = m.backward(fwd, g)
        return loss, grads

    cases.append(("reconstruction", mse_model, mse_fn))

    mask = (rng.random((batch, dim)) < 0.4).astype(float)
    bce_model = ModelGraph.mlp(dim, (4,), dim, "identity", seed=5)

    def bce_fn(m):
        fwd = m.forward(x)
        loss, g = loss_mask_bce(fwd.output, mask)
        grads, _ = m.backward(fwd, g)
        return loss, grads

    cases.append(("mask_bce", bce_model, bce_fn))

    xk = rng.normal(size=(3, batch, dim))
    cons_model = ModelGraph.mlp(dim, (6,), 3, "softmax", seed=6)

    def cons_fn(m):
        fwds = [m.forward(xk[k]) for k in range(3)]
        stack = np.stack([f.output for f in fwds])
        loss, g = loss_consistency(stack)
        total = Gradients.zeros_like(m)
        for k, f in enumerate(fwds):
            gk, _ = m.backward(f, g[k])
            total = total.add_scaled(gk, 1.0)
        return loss, total

    cases.append(("consistency", cons_model, cons_fn))

    labels = np.array([0, 0, 1, 1, 0, 1])[:batch]
    sup_model = ModelGraph.mlp(dim, (8,), 4, "identity", seed=17)

    def sup_fn(m):
        fwd = m.forward(x)
        z = l2_normalize_rows(fwd.output)
        loss, gz = loss_supcon(z, labels, temperature=0.4)
        g = l2_normalize_rows_backward(fwd.output, gz)
        grads, _ = m.backward(fwd, g)
        return loss, grads

    cases.append(("supcon", sup_model, sup_fn))
    return cases
