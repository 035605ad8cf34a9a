import numpy as np
import pytest

from progtab.nn import (
    DenseLayer,
    gradcheck_cases,
    GradientError,
    Gradients,
    ModelGraph,
    NnError,
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
        with pytest.raises(NnError):
            model.forward(np.zeros((3, 5)))


class TestLossValues:
    def test_ce_perfect_prediction(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = loss_crossentropy(probs, np.array([0, 1]))
        assert loss == 0.0

    def test_ce_uniform_is_log_c(self):
        probs = np.full((4, 5), 0.2)
        loss, _ = loss_crossentropy(probs, np.array([0, 1, 2, 3]))
        assert loss == pytest.approx(np.log(5))

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

    def test_zero_learning_rate_keeps_parameters(self):
        model = ModelGraph.mlp(3, (5,), 2, "softmax", seed=1)
        before = [l.weight.copy() for l in model.layers]
        x = np.random.default_rng(0).normal(size=(4, 3))
        fwd = model.forward(x)
        loss, g = loss_crossentropy(fwd.output, np.array([0, 1, 0, 1]))
        grads, _ = model.backward(fwd, g)
        opt = make_optimizer(model, learning_rate=0.0)
        step(opt, model, grads)
        for w, l in zip(before, model.layers):
            assert np.array_equal(w, l.weight)

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
        g = np.full_like(w0, 3.0)
        opt = make_optimizer(model, learning_rate=0.01)
        step(opt, model, Gradients([g], [np.zeros(1)]))
        expected = w0 - 0.01 * 3.0 / (3.0 + 1e-8)
        assert np.allclose(model.layers[0].weight, expected, atol=1e-10)

    def test_training_reproducible(self):
        def run():
            rng = seeded_rng(77, "data")
            x = rng.normal(size=(32, 4))
            y = rng.integers(0, 3, size=32)
            model = ModelGraph.mlp(4, (8,), 3, "softmax", seed=77)
            opt = make_optimizer(model, 1e-3)
            for _ in range(20):
                fwd = model.forward(x)
                _, g = loss_crossentropy(fwd.output, y)
                grads, _ = model.backward(fwd, g)
                step(opt, model, grads)
            return [l.weight.copy() for l in model.layers]

        a, b = run(), run()
        for wa, wb in zip(a, b):
            assert np.array_equal(wa, wb)


class TestSeededRng:
    def test_streams_independent_of_call_order(self):
        a1 = seeded_rng(5, "x").normal()
        b1 = seeded_rng(5, "y").normal()
        b2 = seeded_rng(5, "y").normal()
        a2 = seeded_rng(5, "x").normal()
        assert a1 == a2
        assert b1 == b2
        assert a1 != b1


class TestSupconNonNegative:
    def test_nonnegative_on_random_batches(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 16))
            z = l2_normalize_rows(rng.normal(size=(n, 5)))
            labels = rng.integers(0, 3, size=n)
            loss, _ = loss_supcon(z, labels, temperature=float(rng.uniform(0.05, 2.0)))
            assert loss >= 0.0
