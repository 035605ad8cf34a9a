"""Minimal deterministic neural-network core.

Dense layers with {relu, identity, softmax} activations, exact reverse-mode
gradients, Adam, one training loop, the headed encoder both pipelines
pretrain, and a central-finite-difference gradient checker. A model's
parameters are one flat vector with the layers as views into it; gradients
and Adam moments are vectors in the same layout, so an optimizer step is a
few vector operations. Every loss returns (value, gradient w.r.t. its
input). A trainer is a batch body for ``train``: it yields batches and takes
their losses on the output, and the loop runs the forward, the divergence
check, the backward and the Adam step.

Precision: a model computes in the dtype of its parameters. ``forward``,
``infer`` and ``backward`` cast each batch they are given to it, so
activations, gradients and Adam moments share it. The training pipelines
build float32 models; ``ModelGraph.mlp`` defaults to float64, which the
gradient checker needs. Each loss computes in its first argument's dtype and
reduces its value in float64.

Determinism: parameters are initialized from a seeded generator; forward and
backward are pure ndarray arithmetic with fixed reduction order.

Active columns: ``forward`` finds the input's active columns, those with any
nonzero entry, unless its first row alone has more than half its entries
nonzero. When at most half are active, as in a batch of one-hot rows,
the first layer casts only those columns to the model's dtype and multiplies
them by their weight rows, and the ``Forward`` records them in ``cols``;
``backward`` then writes the first layer's weight gradient for those rows and
exact zeros elsewhere. That weight gradient, the bias and input gradients and
every later layer's arithmetic keep the dense product's bits; only the
forward's rounding moves, because the shorter sums split into blocks
elsewhere. An input with more than half its columns active, such as any CPR,
target-encoded or latent matrix, computes as a dense product, bit for bit.

Inference: ``infer`` returns the bits of ``forward(x).output`` and keeps no
``Forward``. Every layer but the last runs over row blocks of BLOCK_ROWS,
the remainder joining the last block so that no block is shorter; the last
layer runs once over the whole matrix of the last hidden layer's outputs.
So it holds that matrix and one block of the others, not every layer's
activations. The last layer stays whole because its products are narrow
(4 classes, 54 head columns): with OpenBLAS they round differently in
blocks of up to 2,048 rows than over the whole matrix, while the hidden
layers' wider products, the one-hot first layer included, kept their bits
at every block size from 256 rows up that was tried. A block of one row
would go through a matrix-vector kernel and change them. The active-column
decision is made once over the whole input, through the same helper as
``forward``; each block then casts or gathers those same columns.

In place: ``forward`` adds each bias into its layer's matmul result and
applies the activation in that array. ``backward`` copies ``grad_output``
once, into the model's dtype, and multiplies each relu mask into the
gradient in place. Each writes only to arrays it allocated: never to the
caller's input, ``grad_output``, or the activations of a ``Forward``.
``step`` runs Adam over blocks of the flat vectors, so its temporaries are
block-sized, not parameter-sized. ``train`` drops its references to a batch,
its ``Forward``, its gradients and its losses before it draws the next batch,
and each batch body drops its own before it gathers the next, so one batch
and one gradient are alive at a time. ``ModelGraph.mlp`` draws each weight
BLOCK_ROWS rows at a time straight into ``params``, the same stream bit for
bit, so no float64 copy of a weight matrix is made.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

LOG_CLAMP = 1e-12
# rows whose L2 norm is at most this normalize to the zero vector
NORM_EPS = 1e-12


class NnError(ValueError):
    pass


class GradientError(RuntimeError):
    """Raised when a gradient turns non-finite; carries the offending layer."""

    def __init__(self, layer_index: int, message: str):
        super().__init__(f"layer {layer_index}: {message}")
        self.layer_index = layer_index


class TrainingDiverged(RuntimeError):
    def __init__(self, phase: str, epoch: int, detail: str):
        super().__init__(f"{phase}: non-finite loss at epoch {epoch} ({detail})")
        self.phase = phase
        self.epoch = epoch


def seeded_rng(seed: int, *tags) -> np.random.Generator:
    """Independent child stream per (seed, tags); stable across runs."""
    key = tuple(zlib.crc32(str(t).encode("utf-8")) for t in tags)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def derive_seed(seed: int, *tags) -> int:
    return int(seeded_rng(seed, *tags).integers(0, 2**63))


@dataclass
class DenseLayer:
    weight: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str  # relu | identity | softmax

    def __post_init__(self):
        if self.activation not in ("relu", "identity", "softmax"):
            raise NnError(f"unknown activation {self.activation!r}")


class ModelGraph:
    """A stack of dense layers whose parameters live in one flat vector
    ``params``: layer by layer, each weight (row-major) then its bias.
    Every layer's weight and bias are views into it. The constructor copies
    the given layers' arrays into a new vector of the narrowest float dtype,
    float32 at least, that holds them all."""

    def __init__(self, layers: list[DenseLayer]):
        for a, b in zip(layers, layers[1:]):
            if a.weight.shape[1] != b.weight.shape[0]:
                raise NnError("consecutive layer dims incompatible")
        arrays = [a for l in layers for a in (l.weight, l.bias)]
        dtype = np.result_type(np.float32, *{a.dtype for a in arrays})
        self.params = np.concatenate(arrays, axis=None, dtype=dtype)
        self.layers = [DenseLayer(w, b, l.activation) for l, (w, b)
                       in zip(layers, self._views(self.params, [l.weight.shape for l in layers]))]

    @staticmethod
    def _views(flat: np.ndarray, shapes) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weight, bias) views into a vector laid out like ``params``, for
        layers whose weights have the (in, out) ``shapes``."""
        views, at = [], 0
        for n_in, n_out in shapes:
            w = flat[at:at + n_in * n_out].reshape(n_in, n_out)
            at += n_in * n_out
            views.append((w, flat[at:at + n_out]))
            at += n_out
        return views

    @classmethod
    def _adopt(cls, flat: np.ndarray, shapes, activations) -> "ModelGraph":
        """A graph whose ``params`` is ``flat`` itself, not a copy: its layers
        have the (in, out) weight ``shapes`` and the ``activations``, and are
        views into it."""
        graph = cls.__new__(cls)
        graph.params = flat
        graph.layers = [DenseLayer(w, b, act)
                        for (w, b), act in zip(cls._views(flat, shapes), activations)]
        return graph

    @classmethod
    def mlp(cls, input_dim: int, hidden: tuple[int, ...], output_dim: int,
            output_activation: str, seed: int, dtype=np.float64) -> "ModelGraph":
        """MLP input_dim -> *hidden -> output_dim with relu hidden layers.

        He-scaled init for relu layers, Glorot for the rest; biases zero.
        The weights are drawn in float64 and then cast to ``dtype``, so a
        float32 model starts from the rounded float64 one. Each weight is
        drawn BLOCK_ROWS rows at a time straight into ``params``: the same
        stream, bit for bit, as drawing the whole matrix, with no float64
        temporary larger than one block of rows.
        """
        dims = [input_dim, *hidden, output_dim]
        shapes = list(zip(dims, dims[1:]))
        params = np.zeros(sum(n_in * n_out + n_out for n_in, n_out in shapes),
                          dtype=np.result_type(np.float32, dtype))
        graph = cls._adopt(params, shapes, ["relu"] * len(hidden) + [output_activation])
        rng = np.random.default_rng(seed)
        for layer in graph.layers:
            fan_in, fan_out = layer.weight.shape
            scale = np.sqrt(2.0 / (fan_in if layer.activation == "relu" else fan_in + fan_out))
            for lo in range(0, fan_in, BLOCK_ROWS):
                block = rng.standard_normal((min(BLOCK_ROWS, fan_in - lo), fan_out))
                block *= scale
                layer.weight[lo:lo + BLOCK_ROWS] = block
        return graph

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[1]

    def _input(self, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The checked input and its active columns, or None where the first
        layer takes the dense product. ``forward`` and ``infer`` both decide
        here, once over the whole input."""
        x = np.asarray(inputs)
        if x.ndim != 2:
            raise NnError(f"input has ndim {x.ndim}, not 2")
        if x.shape[1] != self.input_dim:
            raise NnError(f"input width {x.shape[1]} does not match first layer {self.input_dim}")
        # a first row with more than half its entries nonzero already rules
        # the path out, and spares a dense batch the column scan
        half = x.shape[1] / 2
        cols = np.flatnonzero(x.any(axis=0)) if np.count_nonzero(x[:1]) <= half else None
        return x, (None if cols is None or cols.size > half else cols)

    def _first_input(self, x: np.ndarray, cols: np.ndarray | None) -> np.ndarray:
        """x in the model's dtype, only its columns ``cols`` when given."""
        if cols is None:
            return np.asarray(x, dtype=self.params.dtype)
        return _gather_columns(x, cols, self.params.dtype)

    def _weights(self, cols: np.ndarray | None) -> list[np.ndarray]:
        """Each layer's weight, the first one's rows ``cols`` only when given."""
        weights = [layer.weight for layer in self.layers]
        if cols is not None:
            weights[0] = weights[0][cols]
        return weights

    def forward(self, inputs: np.ndarray) -> "Forward":
        x, cols = self._input(inputs)
        acts = [self._first_input(x, cols)]
        for layer, w in zip(self.layers, self._weights(cols)):
            acts.append(_dense(layer, acts[-1], w))
        return Forward(acts, cols)

    def infer(self, inputs: np.ndarray) -> np.ndarray:
        """``forward(inputs).output``, bit for bit, without keeping a
        ``Forward``: every layer but the last runs over blocks of BLOCK_ROWS
        rows, the remainder joining the last block, and the last layer once
        over the whole matrix of their outputs. A one-layer graph, or an
        input shorter than two blocks, is one whole pass."""
        x, cols = self._input(inputs)
        *hidden, (last, w_last) = zip(self.layers, self._weights(cols))

        def through_hidden(rows: slice) -> np.ndarray:
            a = self._first_input(x[rows], cols)
            for layer, w in hidden:
                a = _dense(layer, a, w)
            return a

        n = x.shape[0]
        if not hidden or n < 2 * BLOCK_ROWS:
            h = through_hidden(slice(None))
        else:
            h = np.empty((n, w_last.shape[0]), dtype=self.params.dtype)
            starts = range(0, n - BLOCK_ROWS + 1, BLOCK_ROWS)
            for lo, hi in zip(starts, [*starts[1:], n]):
                h[lo:hi] = through_hidden(slice(lo, hi))
        return _dense(last, h, w_last)

    def backward(self, fwd: "Forward", grad_output: np.ndarray,
                 input_grad: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
        """Exact gradients of a scalar loss given dL/d(output).

        Returns (dL/d(params), laid out like ``params``; dL/d(input)) so
        callers can chain through upstream models. With ``input_grad=False``
        the input gradient, one more matrix product at the first layer, is
        not computed and None takes its place.
        """
        g = np.array(grad_output, dtype=self.params.dtype)
        grads = np.empty_like(self.params)
        views = self._views(grads, [layer.weight.shape for layer in self.layers])
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            gw, gb = views[i]
            gz = _activate_backward(layer.activation, fwd.acts[i + 1], g)
            if i or fwd.cols is None:
                live = np.matmul(fwd.acts[i].T, gz, out=gw)
            else:  # the rows of inactive columns are exact zeros
                gw.fill(0.0)
                live = gw[fwd.cols] = fwd.acts[0].T @ gz
            gz.sum(axis=0, out=gb)
            if not (np.isfinite(live).all() and np.isfinite(gb).all()):
                raise GradientError(i, "non-finite gradient")
            g = gz @ layer.weight.T if i or input_grad else None
        return grads, g


@dataclass
class HeadedEncoder:
    """An encoder and its self-supervised heads as one graph: the last layer
    of ``graph`` is one identity heads layer, and ``blocks`` maps each head to
    its output columns. The heads train together with the encoder, each loss
    on its block of the output."""

    graph: ModelGraph
    blocks: dict[str, slice]

    @classmethod
    def build(cls, input_dim: int, latent_dim: int, encoder_seed: int,
              heads: dict[str, tuple[int, int]]) -> "HeadedEncoder":
        """A float32 one-layer relu encoder drawn from ``encoder_seed``, and
        one block per (width, seed) of ``heads``, in its order: a Glorot
        layer of that width drawn from that seed. The biases are zero."""
        if not heads:
            raise NnError("a headed encoder needs at least one head")
        encoder = ModelGraph.mlp(input_dim, (), latent_dim, "relu", seed=encoder_seed,
                                 dtype=np.float32)
        blocks, weights, width = {}, [], 0
        for name, (w, seed) in heads.items():
            blocks[name] = slice(width, width + w)
            width += w
            weights.append(ModelGraph.mlp(latent_dim, (), w, "identity", seed=seed,
                                          dtype=np.float32).layers[0].weight)
        head = DenseLayer(np.hstack(weights), np.zeros(width, np.float32), "identity")
        return cls(ModelGraph(encoder.layers + [head]), blocks)

    @property
    def encoder(self) -> ModelGraph:
        """Every layer but the heads, as a graph whose ``params`` is a view
        of the front of the graph's: training the graph moves it too."""
        layers = self.graph.layers[:-1]
        size = sum(l.weight.size + l.bias.size for l in layers)
        return ModelGraph._adopt(self.graph.params[:size], [l.weight.shape for l in layers],
                                 [l.activation for l in layers])


@dataclass
class Forward:
    acts: list[np.ndarray]  # acts[0] is the input, acts[-1] the output
    # the input's active columns when acts[0] holds only those, else None
    cols: np.ndarray | None = None

    @property
    def output(self) -> np.ndarray:
        return self.acts[-1]


# rows per block: of the input rows that _gather_columns casts at a time, of
# the rows that infer sends through the hidden layers at a time, and of the
# weight rows that mlp draws at a time
BLOCK_ROWS = 256


def _gather_columns(x: np.ndarray, cols: np.ndarray, dtype) -> np.ndarray:
    """x[:, cols] in ``dtype``, gathered BLOCK_ROWS rows at a time, so no
    temporary in x's dtype is larger than one block of rows."""
    out = np.empty((x.shape[0], cols.size), dtype=dtype)
    for lo in range(0, x.shape[0], BLOCK_ROWS):
        out[lo:lo + BLOCK_ROWS] = x[lo:lo + BLOCK_ROWS, cols]
    return out


def _dense(layer: DenseLayer, a: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """The layer's activation of a @ weight + bias, computed in one new array."""
    z = a @ weight
    z += layer.bias
    return _activate(layer.activation, z)


def softmax(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax, written into ``out`` (which may be z itself) or
    into a new array."""
    out = np.subtract(z, z.max(axis=1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def softmax_backward(a: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """dL/dz from dL/da and the softmax output a: dz = a * (g - <g, a>)."""
    return a * (grad - (grad * a).sum(axis=1, keepdims=True))


def _activate(kind: str, z: np.ndarray) -> np.ndarray:
    """The activation of the pre-activation z, computed in z."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    return z if kind == "identity" else softmax(z, out=z)


def _activate_backward(kind: str, a: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """dL/dz from dL/da and the activation a; relu's a > 0 is exactly z > 0.
    grad is an array backward made, and relu's dL/dz is written into it."""
    if kind == "relu":
        return np.multiply(grad, a > 0, out=grad)
    return grad if kind == "identity" else softmax_backward(a, grad)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # exp(-z) where z >= 0, exp(z) elsewhere: never overflows
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# --------------------------------------------------------------------------
# Losses. Each returns (scalar value, gradient w.r.t. the first argument).
# --------------------------------------------------------------------------

def loss_crossentropy(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-probability of the true class, p clamped at 1e-12."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and not 0 <= labels.min() <= labels.max() < probs.shape[1]:
        raise NnError(f"labels must lie in [0, {probs.shape[1]}), "
                      f"got [{labels.min()}, {labels.max()}]")
    b = probs.shape[0]
    picked = probs[np.arange(b), labels]
    clamped = np.maximum(picked, LOG_CLAMP)
    loss = float(-np.log(clamped).mean(dtype=np.float64))
    grad = np.zeros_like(probs)
    live = picked > LOG_CLAMP  # the clamp zeroes the gradient below it
    grad[np.arange(b)[live], labels[live]] = -1.0 / (b * picked[live])
    return loss, grad


def loss_reconstruction(x_hat: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all entries."""
    if x_hat.shape != x.shape:
        raise NnError("reconstruction shape mismatch")
    diff = x_hat - np.asarray(x, dtype=x_hat.dtype)
    loss = float((diff**2).mean(dtype=np.float64))
    return loss, 2.0 * diff / diff.size


def loss_mask_bce(mask_logits: np.ndarray, true_mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Binary cross-entropy on logits, mean over all mask bits."""
    if mask_logits.shape != true_mask.shape:
        raise NnError("mask shape mismatch")
    z, m = mask_logits, np.asarray(true_mask, dtype=mask_logits.dtype)
    # log(1 + exp(z)) - m*z, computed stably
    loss = float((np.maximum(z, 0.0) - m * z + np.log1p(np.exp(-np.abs(z))))
                 .mean(dtype=np.float64))
    grad = (_sigmoid(z) - m) / z.size
    return loss, grad


def loss_consistency(pred_sets: np.ndarray) -> tuple[float, np.ndarray]:
    """Disagreement across K prediction sets of the same batch.

    pred_sets is (K, B, C); the loss is the mean over samples of the summed
    per-class population variance across the K sets.
    """
    p = np.asarray(pred_sets)
    if p.ndim != 3 or p.shape[0] < 2:
        raise NnError("need K >= 2 prediction sets")
    k, b, _ = p.shape
    mean = p.mean(axis=0, keepdims=True)
    centered = p - mean
    loss = float((centered**2).sum(axis=(0, 2), dtype=np.float64).mean() / k)
    grad = 2.0 * centered / (k * b)
    return loss, grad


def l2_normalize_rows(x: np.ndarray) -> np.ndarray:
    """Unit-normalize rows; rows with norm <= NORM_EPS map to the zero vector."""
    norms = np.sqrt((x**2).sum(axis=1, keepdims=True))
    return np.where(norms > NORM_EPS, x / np.maximum(norms, NORM_EPS), 0.0)


def l2_normalize_rows_backward(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Chain rule through row normalization; degenerate rows get zero gradient."""
    norms = np.sqrt((x**2).sum(axis=1, keepdims=True))
    live = norms > NORM_EPS
    safe = np.maximum(norms, NORM_EPS)
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
    z = np.asarray(projections)
    labels = np.asarray(labels, dtype=np.int64)
    sims = (z @ z.T) / temperature
    np.fill_diagonal(sims, -np.inf)  # an anchor is not its own candidate
    pos_mask = labels[:, None] == labels[None, :]
    np.fill_diagonal(pos_mask, False)
    n_pos = pos_mask.sum(axis=1)
    anchors = n_pos > 0
    n_anchors = int(anchors.sum())
    if n_anchors == 0:
        return 0.0, np.zeros_like(z)

    row_max = sims.max(axis=1, keepdims=True)
    exp = np.exp(sims - row_max)
    denom = exp.sum(axis=1, keepdims=True)
    log_denom = np.log(denom) + row_max
    log_prob = sims - log_denom
    np.fill_diagonal(log_prob, 0.0)  # -inf there, and never a positive

    per_anchor = (-(log_prob * pos_mask).sum(axis=1, dtype=np.float64)[anchors]
                  / n_pos[anchors])
    loss = float(per_anchor.mean())

    # dL/ds_ij for anchor rows: softmax over non-self minus the positive mass
    softmax = exp / denom
    g = np.zeros_like(sims)
    g[anchors] = softmax[anchors] - pos_mask[anchors] / n_pos[anchors, None].astype(z.dtype)
    g /= n_anchors
    grad = (g + g.T) @ z / temperature
    return loss, grad


# --------------------------------------------------------------------------
# Optimizer and training loop
# --------------------------------------------------------------------------

ADAM_LEARNING_RATE = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """Adam moments for one model, laid out like its ``params``."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0


def make_optimizer(model: ModelGraph) -> OptimizerState:
    return OptimizerState(np.zeros_like(model.params), np.zeros_like(model.params))


# entries of the flat vectors that one pass of step's Adam update covers
ADAM_BLOCK = 1 << 15


def step(optimizer: OptimizerState, model: ModelGraph, grads: np.ndarray) -> None:
    """Apply one Adam update in place. ``grads`` is laid out like the
    model's ``params`` and in their dtype.

    The vectors are updated ADAM_BLOCK entries at a time through two
    block-sized buffers; each entry goes through the same operations as in
    the whole-vector update m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    p -= lr (m / c1) / (sqrt(v / c2) + eps)."""
    optimizer.step_count += 1
    t = optimizer.step_count
    correct1 = 1.0 - ADAM_BETA1**t
    correct2 = 1.0 - ADAM_BETA2**t
    n = model.params.size
    bufs = np.empty((2, min(n, ADAM_BLOCK)), dtype=model.params.dtype)
    for lo in range(0, n, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, n)
        g, m, v = grads[lo:hi], optimizer.m[lo:hi], optimizer.v[lo:hi]
        a, b = bufs[0, :hi - lo], bufs[1, :hi - lo]
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        v *= ADAM_BETA2
        np.square(g, out=a)
        a *= 1.0 - ADAM_BETA2
        v += a
        np.divide(v, correct2, out=a)
        np.sqrt(a, out=a)
        a += ADAM_EPS
        np.divide(m, correct1, out=b)
        b *= ADAM_LEARNING_RATE
        b /= a
        model.params[lo:hi] -= b


def train(graph: ModelGraph, epochs: int, batches, loss_names: tuple[str, ...],
          phase: str) -> dict[str, list[float]]:
    """Train ``graph`` in place with Adam; return each loss's per-epoch
    means, ``{loss name: [mean over the epoch's batches, per epoch]}``, the
    shape reports store (``{}`` for zero epochs).

    ``batches(epoch)`` yields (input, losses) pairs, and ``losses(output)``
    returns (the batch's loss values, named by ``loss_names``; dL/d(output) of
    their weighted sum). It is called before the next pair is drawn, and the
    loop drops its references to the pair, its ``Forward`` and its gradients
    before it draws the next, so a batch body that drops its own holds one
    batch at a time. A loss that is not finite raises TrainingDiverged for
    ``phase`` before backward; an epoch that yields no batch raises
    ValueError.
    """
    opt = make_optimizer(graph)
    curve = {}
    for epoch in range(epochs):
        values = []
        for inputs, losses in batches(epoch):
            fwd = graph.forward(inputs)
            batch_values, grad = losses(fwd.output)
            if not np.isfinite(batch_values).all():
                raise TrainingDiverged(phase, epoch, " ".join(
                    f"{name}={v}" for name, v in zip(loss_names, batch_values)))
            grads, _ = graph.backward(fwd, grad, input_grad=False)
            step(opt, graph, grads)
            values.append(batch_values)
            # the next pair is drawn with none of this batch's arrays alive
            del inputs, losses, fwd, grad, grads
        if not values:
            raise ValueError(f"{phase}: epoch {epoch} has no batch to train on")
        for name, v in zip(loss_names, np.mean(values, axis=0)):
            curve.setdefault(name, []).append(float(v))
    return curve


# --------------------------------------------------------------------------
# Gradient checking
# --------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_index: int  # into model.params
    n_params: int


def gradcheck(model: ModelGraph, loss_fn, epsilon: float = 1e-5) -> GradCheckReport:
    """Central finite differences on every parameter of the model.

    ``loss_fn(model)`` must return (scalar loss, flat parameter gradient). The
    analytic gradient is compared entry-by-entry against
    (L(p+eps) - L(p-eps)) / 2eps using the symmetric relative error
    |a - n| / max(1e-8, |a| + |n|).
    """
    _, analytic = loss_fn(model)
    params = model.params
    worst, worst_index = 0.0, -1
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + epsilon
        up, _ = loss_fn(model)
        params[i] = orig - epsilon
        down, _ = loss_fn(model)
        params[i] = orig
        numeric = (up - down) / (2.0 * epsilon)
        a = analytic[i]
        rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
        if rel > worst:
            worst, worst_index = rel, i
    return GradCheckReport(worst, worst_index, params.size)


def gradcheck_cases():
    """One (name, model, loss_fn) case per loss in the module, and a
    ``sparse_input`` case whose input has two one-hot blocks and two numeric
    columns, so forward takes its active-column path. The models are fixed
    and small, and their relu pre-activations sit away from kinks at the
    default FD step. loss_fn(model) -> (loss, flat gradient); suitable for
    gradcheck()."""
    batch, dim = 6, 5
    rng = np.random.default_rng(42)
    x = rng.normal(size=(batch, dim))
    y = rng.integers(0, 3, size=batch)
    target = rng.normal(size=(batch, dim))
    mask = (rng.random((batch, dim)) < 0.4).astype(float)
    xk = rng.normal(size=(3, batch, dim))
    labels = np.array([0, 0, 1, 1, 0, 1])
    # 34 columns, at most 6 + 6 + 2 of them active: under half
    sparse = np.zeros((batch, 34))
    sparse[np.arange(batch)[:, None], [0, 16] + rng.integers(0, 16, size=(batch, 2))] = 1.0
    sparse[:, 32:] = rng.normal(size=(batch, 2))

    def cons_fn(m):
        """The K copies share one forward and one backward, as in training."""
        fwd = m.forward(xk.reshape(-1, dim))
        loss, g = loss_consistency(fwd.output.reshape(3, batch, -1))
        grads, _ = m.backward(fwd, g.reshape(fwd.output.shape))
        return loss, grads

    def chained(loss, inputs=x):
        """loss_fn(model) on inputs for loss(output) -> (value, dL/d(output))."""
        def fn(m):
            fwd = m.forward(inputs)
            value, g = loss(fwd.output)
            grads, _ = m.backward(fwd, g)
            return value, grads
        return fn

    def supcon(u):
        loss, gz = loss_supcon(l2_normalize_rows(u), labels, temperature=0.4)
        return loss, l2_normalize_rows_backward(u, gz)

    return [
        ("crossentropy", ModelGraph.mlp(dim, (7,), 3, "softmax", seed=3),
         chained(lambda p: loss_crossentropy(p, y))),
        ("reconstruction", ModelGraph.mlp(dim, (4,), dim, "identity", seed=4),
         chained(lambda out: loss_reconstruction(out, target))),
        ("mask_bce", ModelGraph.mlp(dim, (4,), dim, "identity", seed=5),
         chained(lambda logits: loss_mask_bce(logits, mask))),
        ("consistency", ModelGraph.mlp(dim, (6,), 3, "softmax", seed=6), cons_fn),
        ("supcon", ModelGraph.mlp(dim, (8,), 4, "identity", seed=17), chained(supcon)),
        ("sparse_input", ModelGraph.mlp(34, (7,), 3, "softmax", seed=21),
         chained(lambda p: loss_crossentropy(p, y), sparse)),
    ]
