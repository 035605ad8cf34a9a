import tracemalloc

import numpy as np
import pytest

from progtab import cmixup, vime
from progtab.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    ADAM_LEARNING_RATE,
    DenseLayer,
    gradcheck_cases,
    GradientError,
    HeadedEncoder,
    ModelGraph,
    NnError,
    TrainingDiverged,
    gradcheck,
    l2_normalize_rows,
    loss_consistency,
    loss_crossentropy,
    loss_mask_bce,
    loss_reconstruction,
    loss_supcon,
    make_optimizer,
    seeded_rng,
    step,
    train,
)


class TestForward:
    def test_identity_layer_passthrough(self):
        model = ModelGraph([DenseLayer(np.eye(3), np.zeros(3), "identity")])
        x = np.random.default_rng(0).normal(size=(4, 3))
        assert np.array_equal(model.forward(x).output, x)

    def test_softmax_on_zeros_uniform(self):
        model = ModelGraph([DenseLayer(np.zeros((2, 5)), np.zeros(5), "softmax")])
        out = model.forward(np.ones((3, 2))).output
        assert np.allclose(out, 0.2)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        model = ModelGraph.mlp(4, (8,), 6, "softmax", seed=2)
        out = model.forward(rng.normal(size=(32, 4))).output
        assert np.all(np.abs(out.sum(axis=1) - 1.0) < 1e-6)

    def test_deterministic_per_seed(self):
        x = np.random.default_rng(3).normal(size=(5, 4))
        a = ModelGraph.mlp(4, (7,), 3, "softmax", seed=11).forward(x).output
        b = ModelGraph.mlp(4, (7,), 3, "softmax", seed=11).forward(x).output
        assert np.array_equal(a, b)

    def test_shape_mismatch(self):
        model = ModelGraph.mlp(4, (), 2, "identity", seed=0)
        with pytest.raises(NnError, match=r"^input width 5 does not match first layer 4$"):
            model.forward(np.zeros((3, 5)))
        with pytest.raises(NnError, match=r"^input has ndim 1, not 2$"):
            model.forward(np.zeros(4))

    def test_sigmoid_is_not_a_layer_activation(self):
        with pytest.raises(NnError):
            DenseLayer(np.zeros((2, 2)), np.zeros(2), "sigmoid")


class TestFlatParameters:
    def test_layer_views_alias_params(self):
        model = ModelGraph.mlp(3, (4,), 2, "softmax", seed=0)
        assert model.params.size == 3 * 4 + 4 + 4 * 2 + 2
        for layer in model.layers:
            assert np.shares_memory(layer.weight, model.params)
            assert np.shares_memory(layer.bias, model.params)
        model.params[:] = np.arange(model.params.size)
        assert model.layers[0].weight[0, 1] == 1.0
        assert model.layers[0].bias[0] == 12.0
        assert model.layers[1].weight[0, 0] == 16.0
        model.layers[1].bias[1] = -5.0
        assert model.params[-1] == -5.0

    def test_copy_is_independent(self):
        model = ModelGraph.mlp(3, (4,), 2, "softmax", seed=0)
        clone = model.copy()
        assert np.array_equal(clone.params, model.params)
        assert not np.shares_memory(clone.params, model.params)
        before = model.params.copy()
        clone.params += 1.0
        clone.layers[0].weight[0, 0] = 9.0
        assert np.array_equal(model.params, before)

    def test_constructor_packs_given_arrays(self):
        w = np.arange(6.0).reshape(2, 3)
        model = ModelGraph([DenseLayer(w, np.ones(3), "identity")])
        assert np.array_equal(model.params, [0, 1, 2, 3, 4, 5, 1, 1, 1])
        model.params[0] = 7.0
        assert w[0, 0] == 0.0

    def test_backward_gradient_matches_params_layout(self):
        model = ModelGraph.mlp(3, (4,), 2, "identity", seed=1)
        x = np.random.default_rng(2).normal(size=(5, 3))
        fwd = model.forward(x)
        grads, _ = model.backward(fwd, np.ones((5, 2)))
        assert grads.shape == model.params.shape
        bias_at = 3 * 4 + 4 + 4 * 2
        assert np.array_equal(grads[bias_at:], [5.0, 5.0])  # d(sum of outputs)/d(bias)

    def test_backward_can_skip_the_input_gradient(self):
        model = ModelGraph.mlp(3, (4,), 2, "softmax", seed=1)
        fwd = model.forward(np.random.default_rng(2).normal(size=(5, 3)))
        g = np.random.default_rng(3).normal(size=(5, 2))
        grads, grad_in = model.backward(fwd, g)
        grads_only, none = model.backward(fwd, g, input_grad=False)
        assert grad_in.shape == (5, 3) and none is None
        assert np.array_equal(grads_only, grads)


class TestLossValues:
    def test_ce_perfect_prediction(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = loss_crossentropy(probs, np.array([0, 1]))
        assert loss == 0.0

    def test_ce_uniform_is_log_c(self):
        probs = np.full((4, 5), 0.2)
        loss, _ = loss_crossentropy(probs, np.array([0, 1, 2, 3]))
        assert loss == pytest.approx(np.log(5))

    @pytest.mark.parametrize("label", [-1, 2])
    def test_ce_rejects_labels_outside_the_classes(self, label):
        with pytest.raises(NnError, match=r"labels must lie in \[0, 2\)"):
            loss_crossentropy(np.full((2, 2), 0.5), np.array([0, label]))

    def test_ce_frozen_value(self):
        # oracle: -ln 0.7 = 0.35667494...
        loss, _ = loss_crossentropy(np.array([[0.7, 0.3]]), np.array([0]))
        assert loss == pytest.approx(0.3566749439387324, abs=1e-12)

    def test_consistency_identical_sets_zero(self):
        one = np.random.default_rng(0).dirichlet(np.ones(3), size=4)
        loss, grad = loss_consistency(np.stack([one, one]))  # K=2: mean is exact
        assert loss == 0.0
        assert np.all(grad == 0.0)
        loss3, _ = loss_consistency(np.stack([one, one, one]))
        assert loss3 < 1e-30  # K=3 mean picks up one ulp of roundoff

    def test_consistency_opposite_onehots(self):
        # per-class variance 0.25 each, summed -> 0.5
        p = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        loss, _ = loss_consistency(p)
        assert loss == pytest.approx(0.5)

    def test_consistency_permutation_invariant(self):
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(3), size=(4, 6)).transpose(0, 1, 2)
        a, _ = loss_consistency(p)
        b, _ = loss_consistency(p[::-1].copy())
        assert a == pytest.approx(b, abs=1e-15)

    def test_consistency_needs_two_sets(self):
        with pytest.raises(NnError):
            loss_consistency(np.zeros((1, 2, 3)))

    def test_mse_zero_at_match(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        loss, grad = loss_reconstruction(x.copy(), x)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_bce_zero_logits_is_ln2(self):
        loss, _ = loss_mask_bce(np.zeros((4, 6)), np.zeros((4, 6)))
        assert loss == pytest.approx(np.log(2))

    def test_bce_perfect_prediction(self):
        mask = np.array([[1.0, 0.0]])
        loss, _ = loss_mask_bce(np.array([[50.0, -50.0]]), mask)
        assert loss < 1e-15

    def test_supcon_all_identical_embeddings(self):
        # closed form with all pairwise similarities equal: log(B - 1)
        b = 8
        z = l2_normalize_rows(np.ones((b, 4)))
        labels = np.array([0, 1] * (b // 2))
        loss, _ = loss_supcon(z, labels, temperature=0.5)
        assert loss == pytest.approx(np.log(b - 1), abs=1e-10)

    def test_supcon_singleton_label_skipped(self):
        rng = np.random.default_rng(7)
        z = l2_normalize_rows(rng.normal(size=(5, 3)))
        labels = np.array([0, 0, 1, 1, 2])  # label 2 appears once
        loss, grad = loss_supcon(z, labels, temperature=0.2)
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_supcon_no_positives_at_all(self):
        z = l2_normalize_rows(np.random.default_rng(0).normal(size=(3, 2)))
        loss, grad = loss_supcon(z, np.array([0, 1, 2]), temperature=0.3)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_supcon_temperature_preserves_most_attractive_positive(self):
        rng = np.random.default_rng(11)
        z = l2_normalize_rows(rng.normal(size=(8, 4)))
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        sims = z @ z.T

        def per_positive_terms(tau, anchor):
            pos = [j for j in range(8) if labels[j] == labels[anchor] and j != anchor]
            denom = np.log(sum(np.exp(sims[anchor, a] / tau) for a in range(8) if a != anchor))
            return pos, [sims[anchor, p] / tau - denom for p in pos]

        for anchor in range(8):
            pos, t1 = per_positive_terms(0.1, anchor)
            _, t2 = per_positive_terms(1.7, anchor)
            assert pos[int(np.argmax(t1))] == pos[int(np.argmax(t2))]

    def test_supcon_rejects_bad_temperature(self):
        with pytest.raises(NnError):
            loss_supcon(np.ones((2, 2)), np.array([0, 0]), temperature=0.0)


class TestBackward:
    def test_ce_softmax_gradient_identity(self):
        # dCE/dlogits through the softmax Jacobian must equal (p - onehot)/B
        c = 4
        model = ModelGraph([DenseLayer(np.eye(c), np.zeros(c), "softmax")])
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(6, c))
        labels = rng.integers(0, c, size=6)
        fwd = model.forward(logits)
        probs = fwd.output
        loss, g = loss_crossentropy(probs, labels)
        _, grad_in = model.backward(fwd, g)
        onehot = np.zeros_like(probs)
        onehot[np.arange(6), labels] = 1.0
        assert np.allclose(grad_in, (probs - onehot) / 6, atol=1e-12)

    def test_nan_gradient_raises_with_layer(self):
        model = ModelGraph.mlp(2, (3,), 2, "identity", seed=0)
        x = np.array([[1e308, 1e308]])
        fwd = model.forward(x)
        bad = np.array([[1e308, 1e308]])
        with np.errstate(over="ignore"), pytest.raises(GradientError):
            model.backward(fwd, bad)


class TestGradcheck:
    @pytest.mark.parametrize("case", gradcheck_cases(), ids=lambda c: c[0])
    def test_every_loss_passes_finite_differences(self, case):
        _, model, fn = case
        report = gradcheck(model.copy(), fn, epsilon=1e-5)
        assert report.max_rel_err < 1e-4

    def test_sparse_input_case_takes_the_active_column_path(self, monkeypatch):
        [(_, model, fn)] = [c for c in gradcheck_cases() if c[0] == "sparse_input"]
        seen, forward = [], ModelGraph.forward

        def spy(self, inputs):
            fwd = forward(self, inputs)
            seen.append(fwd.cols)
            return fwd

        monkeypatch.setattr(ModelGraph, "forward", spy)
        fn(model)
        assert seen[0] is not None and 2 * seen[0].size <= model.input_dim

    def test_linear_mse_is_exact(self):
        # quadratic loss: central differences are exact up to roundoff
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 3))
        target = rng.normal(size=(5, 2))
        model = ModelGraph.mlp(3, (), 2, "identity", seed=9)

        def fn(m):
            fwd = m.forward(x)
            loss, g = loss_reconstruction(fwd.output, target)
            grads, _ = m.backward(fwd, g)
            return loss, grads

        report = gradcheck(model, fn, epsilon=1e-4)
        assert report.max_rel_err < 1e-8

    def test_report_deterministic(self):
        case = gradcheck_cases()[0]
        a = gradcheck(case[1].copy(), case[2], epsilon=1e-5)
        b = gradcheck(case[1].copy(), case[2], epsilon=1e-5)
        assert a == b


class TestOptimizer:
    def test_adam_first_step_size(self):
        # with constant gradient g, the first Adam step is lr * g / (|g| + eps)
        model = ModelGraph.mlp(2, (), 1, "identity", seed=1)
        w0 = model.layers[0].weight.copy()
        g = np.zeros_like(model.params)
        g[:w0.size] = 3.0  # the weight entries; the bias gradient stays 0
        opt = make_optimizer(model)
        step(opt, model, g)
        expected = w0 - ADAM_LEARNING_RATE * 3.0 / (3.0 + 1e-8)
        assert np.allclose(model.layers[0].weight, expected, atol=1e-10)

    def test_step_moves_only_entries_with_gradient(self):
        model = ModelGraph.mlp(3, (4,), 2, "softmax", seed=5)
        before = model.params.copy()
        g = np.zeros_like(model.params)
        g[7] = -0.5
        step(make_optimizer(model), model, g)
        moved = np.flatnonzero(model.params != before)
        assert moved.tolist() == [7]
        assert model.params[7] > before[7]

    def test_training_reproducible(self):
        def run():
            rng = seeded_rng(77, "data")
            x = rng.normal(size=(32, 4))
            y = rng.integers(0, 3, size=32)
            model = ModelGraph.mlp(4, (8,), 3, "softmax", seed=77)
            opt = make_optimizer(model)
            for _ in range(20):
                fwd = model.forward(x)
                _, g = loss_crossentropy(fwd.output, y)
                grads, _ = model.backward(fwd, g)
                step(opt, model, grads)
            return [l.weight.copy() for l in model.layers]

        a, b = run(), run()
        for wa, wb in zip(a, b):
            assert np.array_equal(wa, wb)


class TestTrain:
    def test_steps_and_curve_match_a_hand_written_loop(self):
        x = seeded_rng(3, "data").normal(size=(12, 4))
        y = np.arange(12) % 3
        model = ModelGraph.mlp(4, (5,), 3, "softmax", seed=3)
        want = model.copy()
        opt = make_optimizer(want)
        want_curve = {"ce": []}
        for _ in range(2):
            values = []
            for rows in (slice(0, 8), slice(8, 12)):
                fwd = want.forward(x[rows])
                ce, g = loss_crossentropy(fwd.output, y[rows])
                step(opt, want, want.backward(fwd, g)[0])
                values.append(ce)
            want_curve["ce"].append(float(np.mean(values)))

        def batches(epoch):
            for rows in (slice(0, 8), slice(8, 12)):
                def losses(out):
                    ce, g = loss_crossentropy(out, y[rows])
                    return (ce,), g
                yield x[rows], losses

        assert train(model, 2, batches, ("ce",), "toy") == want_curve
        assert np.array_equal(model.params, want.params)

    def test_zero_epochs_return_an_empty_curve(self):
        model = ModelGraph.mlp(4, (5,), 3, "softmax", seed=3)
        before = model.params.copy()

        def batches(epoch):
            raise AssertionError("no epoch runs")

        assert train(model, 0, batches, ("ce", "consistency"), "toy") == {}
        assert np.array_equal(model.params, before)

    def test_non_finite_loss_raises_before_backward(self, monkeypatch):
        backward_calls = []
        monkeypatch.setattr(ModelGraph, "backward", lambda *args: backward_calls.append(args))
        model = ModelGraph.mlp(2, (), 1, "identity", seed=0)

        def batches(epoch):
            yield np.ones((3, 2)), lambda out: ((1.0, np.nan), np.zeros_like(out))

        with pytest.raises(TrainingDiverged,
                           match=r"^toy: non-finite loss at epoch 0 \(a=1.0 b=nan\)$"):
            train(model, 1, batches, ("a", "b"), "toy")
        assert not backward_calls

    @pytest.mark.parametrize("phase", ["pretext", "semisup", "cmixup-encoder"])
    def test_every_trainer_names_its_phase_and_epoch(self, phase):
        # 40 rows with one inf cell; every trainer must stop at the loss
        # check, before a backward meets the non-finite values
        rng = np.random.default_rng(0)
        x, x_finite = rng.normal(size=(40, 6)), rng.normal(size=(40, 6))
        x[17, 3] = np.inf
        y = np.arange(40) % 2
        # no labeled corruption, so that the inf cell is not masked away
        spec = vime.CorruptionSpec(0.0, seed=1)
        trainers = {
            "pretext": lambda: vime.pretext_train(
                vime.build_vime_model(6, 2, latent_dim=8, seed=0), x,
                vime.CorruptionSpec(0.3, seed=1), epochs=2),
            "semisup": lambda: vime.semisup_train(
                vime.build_vime_model(6, 2, latent_dim=8, seed=0), x, y, x_finite, spec,
                epochs=2),
            "cmixup-encoder": lambda: cmixup.encoder_train(
                cmixup.build_cmixup_model(6, 2, latent_dim=8, seed=0), x, y, x_finite, 2,
                epochs=2, knn_k=10),
        }
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as exc:
            trainers[phase]()
        assert (exc.value.phase, exc.value.epoch) == (phase, 0)
        assert str(exc.value).startswith(f"{phase}: non-finite loss at epoch 0 (")


class TestHeadedEncoder:
    def test_encoder_is_a_view_that_one_train_step_moves(self):
        net = HeadedEncoder.build(5, 4, 0, {"a": (3, 1), "b": (2, 2)})
        encoder = net.encoder
        assert len(encoder.layers) == len(net.graph.layers) - 1
        assert np.shares_memory(encoder.params, net.graph.params)
        assert encoder.params.size == 5 * 4 + 4
        before = net.graph.params.copy()
        x = np.random.default_rng(0).normal(size=(6, 5))

        def batches(epoch):
            yield x, lambda out: ((float((out**2).sum()),), 2 * out)

        train(net.graph, 1, batches, ("l2",), "toy")
        assert np.array_equal(encoder.params, net.graph.params[:encoder.params.size])
        assert not np.array_equal(encoder.params, before[:encoder.params.size])
        assert not np.array_equal(net.graph.params[encoder.params.size:],
                                  before[encoder.params.size:])

    def test_empty_heads_rejected(self):
        with pytest.raises(NnError, match="at least one head"):
            HeadedEncoder.build(5, 4, 0, {})


class TestSeededRng:
    def test_streams_independent_of_call_order(self):
        a1 = seeded_rng(5, "x").normal()
        b1 = seeded_rng(5, "y").normal()
        b2 = seeded_rng(5, "y").normal()
        a2 = seeded_rng(5, "x").normal()
        assert a1 == a2
        assert b1 == b2
        assert a1 != b1


class TestSupconReference:
    @staticmethod
    def reference(z, labels, t):
        """The docstring's formula, one anchor at a time."""
        n = len(labels)
        terms = []
        for i in range(n):
            pos = [p for p in range(n) if p != i and labels[p] == labels[i]]
            if not pos:
                continue
            others = [a for a in range(n) if a != i]
            log_denom = np.log(sum(np.exp(z[i] @ z[a] / t) for a in others))
            terms.append(-np.mean([z[i] @ z[p] / t - log_denom for p in pos]))
        return float(np.mean(terms)) if terms else 0.0

    def test_value_matches_per_anchor_loop(self):
        rng = np.random.default_rng(21)
        for trial in range(40):
            n = int(rng.integers(2, 14))
            z = l2_normalize_rows(rng.normal(size=(n, 4)))
            z[int(rng.integers(0, n))] = 0.0  # an all-zero row
            labels = rng.integers(0, 4, size=n)  # some anchors lack positives
            t = float(rng.uniform(0.1, 1.5))
            loss, _ = loss_supcon(z, labels, temperature=t)
            assert loss == pytest.approx(self.reference(z, labels, t), rel=1e-12, abs=1e-12)


class TestSupconNonNegative:
    def test_nonnegative_on_random_batches(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 16))
            z = l2_normalize_rows(rng.normal(size=(n, 5)))
            labels = rng.integers(0, 3, size=n)
            loss, _ = loss_supcon(z, labels, temperature=float(rng.uniform(0.05, 2.0)))
            assert loss >= 0.0


class TestPrecision:
    # float32 against float64 arithmetic on the same float32-representable
    # weights and inputs: errors are relative to each array's largest entry
    TOL = 64 * np.finfo(np.float32).eps

    @staticmethod
    def close(a32, a64):
        assert a32.dtype == np.float32
        return np.abs(a32 - a64).max() <= TestPrecision.TOL * np.abs(a64).max()

    def test_float32_forward_and_backward_match_float64(self):
        m32 = ModelGraph.mlp(32, (64, 32), 4, "softmax", seed=3, dtype=np.float32)
        m64 = ModelGraph([DenseLayer(l.weight.astype(np.float64), l.bias.astype(np.float64),
                                     l.activation) for l in m32.layers])
        assert m64.params.dtype == np.float64
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 32)).astype(np.float32).astype(np.float64)
        y = rng.integers(0, 4, size=50)
        f32, f64 = m32.forward(x), m64.forward(x)
        for a32, a64 in zip(f32.acts, f64.acts):
            assert self.close(a32, a64)
        ce32, g32 = loss_crossentropy(f32.output, y)
        ce64, g64 = loss_crossentropy(f64.output, y)
        assert isinstance(ce32, float) and abs(ce32 - ce64) <= self.TOL * ce64
        assert self.close(g32, g64)
        (p32, x32), (p64, x64) = m32.backward(f32, g32), m64.backward(f64, g64)
        assert self.close(p32, p64) and self.close(x32, x64)

    @pytest.mark.parametrize("loss", [
        lambda u: loss_reconstruction(u, np.ones(u.shape)),
        lambda u: loss_mask_bce(u, np.ones(u.shape)),
        lambda u: loss_consistency(np.stack([u, u[::-1]])),
        lambda u: loss_supcon(l2_normalize_rows(u), np.arange(len(u)) % 3, 0.1),
    ], ids=["reconstruction", "mask_bce", "consistency", "supcon"])
    def test_losses_follow_their_input_dtype(self, loss):
        u = np.random.default_rng(5).normal(size=(12, 6))
        v32, g32 = loss(u.astype(np.float32))
        v64, g64 = loss(u)
        assert isinstance(v32, float) and abs(v32 - v64) <= self.TOL * abs(v64)
        grad32 = g32[0] if g32.ndim == 3 else g32
        assert self.close(grad32, g64[0] if g64.ndim == 3 else g64)

    def test_adam_keeps_a_float32_model_float32(self):
        model = ModelGraph.mlp(5, (8,), 3, "softmax", seed=6, dtype=np.float32)
        opt = make_optimizer(model)
        x = np.random.default_rng(7).normal(size=(9, 5))  # float64 batches
        for _ in range(3):
            fwd = model.forward(x)
            assert all(a.dtype == np.float32 for a in fwd.acts)
            _, g = loss_crossentropy(fwd.output, np.arange(9) % 3)
            grads, grad_in = model.backward(fwd, g.astype(np.float64))
            assert grads.dtype == grad_in.dtype == np.float32
            step(opt, model, grads)
            assert model.params.dtype == opt.m.dtype == opt.v.dtype == np.float32
        for layer in model.layers:
            assert layer.weight.dtype == layer.bias.dtype == np.float32
            assert np.shares_memory(layer.weight, model.params)
        assert model.copy().params.dtype == np.float32

    def test_gradcheck_models_are_float64(self):
        assert ModelGraph.mlp(3, (4,), 2, "softmax", seed=0).params.dtype == np.float64
        for name, model, _ in gradcheck_cases():
            assert model.params.dtype == np.float64, name


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_forward(model, x):
    """Every layer as one whole expression, each step a new array."""
    acts = [np.asarray(x, dtype=model.params.dtype)]
    for layer in model.layers:
        z = acts[-1] @ layer.weight + layer.bias
        if layer.activation == "relu":
            z = np.maximum(z, 0.0)
        elif layer.activation == "softmax":
            e = np.exp(z - z.max(axis=1, keepdims=True))
            z = e / e.sum(axis=1, keepdims=True)
        acts.append(z)
    return acts


def reference_backward(model, acts, grad_output, input_grad):
    g = np.asarray(grad_output, dtype=model.params.dtype)
    grads = []
    for i in range(len(model.layers) - 1, -1, -1):
        layer, a = model.layers[i], acts[i + 1]
        if layer.activation == "relu":
            gz = g * (a > 0)
        elif layer.activation == "softmax":
            gz = a * (g - (g * a).sum(axis=1, keepdims=True))
        else:
            gz = g
        grads = [(acts[i].T @ gz).ravel(), gz.sum(axis=0)] + grads
        g = gz @ layer.weight.T if i or input_grad else None
    return np.concatenate(grads), g


def reference_adam(params, m, v, grads, t):
    """One whole-vector Adam step in place."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grads
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grads**2
    denom = np.sqrt(v / (1.0 - ADAM_BETA2**t)) + ADAM_EPS
    params -= ADAM_LEARNING_RATE * (m / (1.0 - ADAM_BETA1**t)) / denom


class TestInPlace:
    """forward, backward and step compute in place, with the bits of the
    whole-expression arithmetic."""

    @staticmethod
    def model(dtype, output_activation):
        """6 -> 9 (relu) -> 7 (identity) -> 4 (output_activation)."""
        first, second, last = ModelGraph.mlp(6, (9, 7), 4, output_activation, seed=8,
                                             dtype=dtype).layers
        return ModelGraph([first, DenseLayer(second.weight, second.bias, "identity"), last])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("activation", ["relu", "identity", "softmax"])
    @pytest.mark.parametrize("input_grad", [True, False])
    @pytest.mark.parametrize("grad_dtype", ["model", "float64"])
    def test_forward_and_backward_match_whole_expressions(self, dtype, activation,
                                                          input_grad, grad_dtype):
        model = self.model(dtype, activation)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 6)).astype(dtype)
        x[:, 2] = 0.0  # a dead input column
        g = rng.normal(size=(40, 4)).astype(dtype if grad_dtype == "model" else np.float64)
        x_before, g_before = x.copy(), g.copy()

        fwd = model.forward(x)
        want_acts = reference_forward(model, x)
        assert all(same_bits(a, b) for a, b in zip(fwd.acts, want_acts))
        acts_before = [a.copy() for a in fwd.acts]
        grads, grad_in = model.backward(fwd, g, input_grad=input_grad)
        want_grads, want_in = reference_backward(model, want_acts, g, input_grad)
        assert same_bits(grads, want_grads)
        assert same_bits(grad_in, want_in) if input_grad else grad_in is None

        # neither call wrote to the caller's arrays or to the activations
        assert same_bits(x, x_before) and same_bits(g, g_before)
        assert all(same_bits(a, b) for a, b in zip(fwd.acts, acts_before))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocked_step_matches_whole_vector_adam(self, dtype):
        model = ModelGraph.mlp(300, (), 200, "identity", seed=2, dtype=dtype)
        assert model.params.size > ADAM_BLOCK and model.params.size % ADAM_BLOCK
        params = model.params.copy()
        m, v = np.zeros_like(params), np.zeros_like(params)
        opt = make_optimizer(model)
        rng = np.random.default_rng(5)
        for t in range(1, 6):
            g = (rng.normal(size=params.size) * 10.0 ** rng.integers(-6, 3)).astype(dtype)
            g[rng.random(params.size) < 0.2] = 0.0
            step(opt, model, g)
            reference_adam(params, m, v, g, t)
            assert same_bits(model.params, params)
            assert same_bits(opt.m, m) and same_bits(opt.v, v)

    def test_forward_allocates_only_its_activations(self):
        model = ModelGraph.mlp(32, (256, 128), 4, "softmax", seed=1, dtype=np.float32)
        x = np.random.default_rng(2).normal(size=(4096, 32)).astype(np.float32)
        tracemalloc.start()
        try:
            fwd = model.forward(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        activations = sum(a.nbytes for a in fwd.acts[1:])
        assert peak <= 1.1 * activations


def one_hot_like(rng, rows, widths):
    """float64 rows of one one-hot block per width, then two numeric columns."""
    x = np.zeros((rows, sum(widths) + 2))
    starts = np.cumsum([0, *widths[:-1]])
    x[np.arange(rows)[:, None], starts + rng.integers(0, widths, size=(rows, len(widths)))] = 1.0
    x[:, -2:] = rng.normal(size=(rows, 2))
    return x


class TestActiveColumns:
    """A first layer whose input has at most half its columns active reads
    only those columns: its weight gradient keeps the dense product's bits,
    and only the forward's rounding moves."""

    @staticmethod
    def model(dtype, width):
        return ModelGraph.mlp(width, (9,), 4, "softmax", seed=8, dtype=dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_keep_the_bits_and_the_forward_its_tolerance(self, dtype):
        rng = np.random.default_rng(3)
        x = one_hot_like(rng, 20, (60, 40))
        model = self.model(dtype, x.shape[1])
        g = rng.normal(size=(20, 4)).astype(dtype)
        x_before, g_before = x.copy(), g.copy()

        fwd = model.forward(x)
        active = np.flatnonzero(x.any(axis=0))
        assert fwd.cols is not None and np.array_equal(fwd.cols, active)
        want_acts = reference_forward(model, x)
        assert same_bits(fwd.acts[0], want_acts[0][:, active])
        for a, b in zip(fwd.acts[1:], want_acts[1:]):
            assert np.abs(a - b).max() <= TestPrecision.TOL * np.abs(b).max()

        acts_before = [a.copy() for a in fwd.acts]
        grads, grad_in = model.backward(fwd, g)
        # the reference on the same activations, with the input at full width
        want_grads, want_in = reference_backward(model, [want_acts[0], *fwd.acts[1:]], g, True)
        assert same_bits(grads, want_grads) and same_bits(grad_in, want_in)
        inactive = np.setdiff1d(np.arange(x.shape[1]), active)
        assert not model._views(grads, model.layers)[0][0][inactive].any()

        assert same_bits(x, x_before) and same_bits(g, g_before)
        assert all(same_bits(a, b) for a, b in zip(fwd.acts, acts_before))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_more_than_half_active_keeps_the_dense_bits(self, dtype):
        rng = np.random.default_rng(4)
        x = one_hot_like(rng, 20, (60, 40))
        model = self.model(dtype, x.shape[1])
        g = rng.normal(size=(20, 4))
        inactive = np.flatnonzero(~x.any(axis=0))
        half = x.shape[1] // 2
        x[0, inactive[:half - (x.shape[1] - inactive.size)]] = 0.5
        assert model.forward(x).cols.size == half  # at most half: still gathered
        x[1, inactive[-1]] = 0.5

        fwd = model.forward(x)
        assert fwd.cols is None
        want_acts = reference_forward(model, x)
        assert all(same_bits(a, b) for a, b in zip(fwd.acts, want_acts))
        grads, grad_in = model.backward(fwd, g)
        want_grads, want_in = reference_backward(model, want_acts, g, True)
        assert same_bits(grads, want_grads) and same_bits(grad_in, want_in)

    def test_forward_makes_no_full_width_copy(self):
        x = one_hot_like(np.random.default_rng(5), 1200, (2000, 2000))
        model = self.model(np.float32, x.shape[1])
        tracemalloc.start()
        try:
            fwd = model.forward(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fwd.cols is not None
        assert peak < x.size * np.dtype(np.float32).itemsize
