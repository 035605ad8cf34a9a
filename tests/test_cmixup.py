import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from progtab.cmixup import (
    MixupSpec,
    PropagationError,
    _knn_affinity,
    build_cmixup_model,
    classify,
    encoder_train,
    latent_mixup,
    mix_latents,
    propagate_labels,
)


class TestMixLatents:
    def test_lambda_one_returns_anchor(self):
        rng = np.random.default_rng(0)
        zi, zj = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        mixed = mix_latents(zi, zj, np.ones(4))
        assert np.array_equal(mixed, zi)

    def test_identical_points_fixed(self):
        z = np.random.default_rng(1).normal(size=(5, 2))
        mixed = mix_latents(z, z.copy(), np.random.default_rng(2).random(5))
        assert np.allclose(mixed, z)

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_collinearity(self, seed):
        rng = np.random.default_rng(seed)
        zi, zj = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        lam = rng.random(6)
        mixed = mix_latents(zi, zj, lam)
        a = np.linalg.norm(mixed - zi, axis=1)
        b = np.linalg.norm(mixed - zj, axis=1)
        c = np.linalg.norm(zi - zj, axis=1)
        assert np.all(np.abs(a + b - c) < 1e-9)


class TestLatentMixup:
    def test_pairs_share_labels(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(20, 4))
        labels = rng.integers(0, 3, size=20)
        mix = latent_mixup(z, labels, MixupSpec(), rng)
        assert np.array_equal(mix.labels, labels[mix.anchor_idx])
        assert np.array_equal(labels[mix.anchor_idx], labels[mix.partner_idx])
        assert np.all(mix.anchor_idx != mix.partner_idx)

    def test_singleton_labels_skipped(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(4, 2))
        labels = np.array([0, 0, 1, 2])  # labels 1 and 2 are singletons
        mix = latent_mixup(z, labels, MixupSpec(), rng)
        assert mix.n_skipped == 2
        assert set(mix.anchor_idx.tolist()) <= {0, 1}

    def test_all_singletons(self):
        rng = np.random.default_rng(5)
        mix = latent_mixup(rng.normal(size=(3, 2)), np.array([0, 1, 2]), MixupSpec(), rng)
        assert mix.mixed.shape == (0, 2)
        assert mix.n_skipped == 3


def two_clusters(n=500, sigma=0.1, dim=8, seed=0):
    """Unit-norm centers 60 degrees apart: distance exactly 1.0 = 10 sigma."""
    rng = np.random.default_rng(seed)
    c1 = np.zeros(dim)
    c1[0] = 1.0
    c2 = np.zeros(dim)
    c2[0], c2[1] = 0.5, np.sqrt(3) / 2
    half = n // 2
    pts = np.concatenate([
        c1 + sigma * rng.standard_normal((half, dim)),
        c2 + sigma * rng.standard_normal((n - half, dim)),
    ])
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    return pts, y


def dense_knn_reference(latents, k):
    """The kNN graph from the full cosine matrix, each row fully sorted."""
    z = latents / np.linalg.norm(latents, axis=1, keepdims=True)
    sims = z @ z.T
    np.fill_diagonal(sims, -np.inf)
    top = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    w = np.zeros_like(sims)
    rows = np.arange(latents.shape[0])[:, None]
    w[rows, top] = np.maximum(sims[rows, top], 0.0)
    return sp.csr_matrix(np.maximum(w, w.T))


class TestKnnAffinity:
    # 3,000 rows take 1,398 rows per block: two full blocks and a short tail
    @pytest.mark.parametrize("n,k", [(3000, 10), (40, 5)])
    def test_matches_dense_reference(self, n, k):
        latents = np.random.default_rng(n).normal(size=(n, 6))
        got = _knn_affinity(latents, k)
        want = dense_knn_reference(latents, k)
        got.sort_indices()
        want.sort_indices()
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
        assert (got != got.T).nnz == 0
        assert np.all(got.diagonal() == 0.0)


class TestPropagation:
    def test_two_separated_clusters(self):
        pts, y = two_clusters()
        seeds = np.array([0, 250])  # one labeled point per cluster
        res = propagate_labels(pts, seeds, y[seeds], 2, k=50, alpha_diff=0.99)
        unlabeled = ~res.is_labeled
        acc = (res.pseudo_label[unlabeled] == y[unlabeled]).mean()
        assert acc >= 0.95
        assert np.all((res.weight >= 0) & (res.weight <= 1))
        assert res.weight[unlabeled].mean() > 0.5  # confident inside clusters

    def test_labeled_rows_keep_truth_with_weight_one(self):
        pts, y = two_clusters(seed=1)
        seeds = np.array([3, 400])
        res = propagate_labels(pts, seeds, y[seeds], 2, k=20)
        assert np.array_equal(res.pseudo_label[seeds], y[seeds])
        assert np.all(res.weight[seeds] == 1.0)

    def test_alpha_zero_identity(self):
        rng = np.random.default_rng(7)
        latents = rng.normal(size=(30, 4))
        seeds = np.array([0, 1])
        res = propagate_labels(latents, seeds, np.array([0, 1]), 2, k=5, alpha_diff=0.0)
        unlabeled = ~res.is_labeled
        assert np.all(res.weight[unlabeled] == 0.0)
        assert np.all(res.weight[seeds] == 1.0)

    def test_k_too_large_rejected(self):
        with pytest.raises(PropagationError):
            propagate_labels(np.zeros((10, 2)), np.array([0, 1]), np.array([0, 1]), 2, k=10)

    def test_missing_class_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(PropagationError, match="class"):
            propagate_labels(rng.normal(size=(20, 3)), np.array([0, 1]),
                             np.array([0, 0]), 2, k=4)

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=15, deadline=None)
    def test_weights_bounded(self, seed):
        rng = np.random.default_rng(seed)
        latents = rng.normal(size=(60, 5))
        labels = rng.integers(0, 3, size=60)
        seeds = np.array([int(np.flatnonzero(labels == c)[0]) for c in range(3)])
        res = propagate_labels(latents, seeds, labels[seeds], 3, k=8)
        assert np.all((res.weight >= 0.0) & (res.weight <= 1.0))

    def test_cg_failure_names_the_class(self):
        pts, y = two_clusters()
        seeds = np.array([0, 250])
        with pytest.raises(PropagationError, match="class 0 of 2"):
            propagate_labels(pts, seeds, y[seeds], 2, k=50, max_iter=1)

    def test_deterministic(self):
        pts, y = two_clusters(seed=2)
        seeds = np.array([0, 300])
        a = propagate_labels(pts, seeds, y[seeds], 2, k=30)
        b = propagate_labels(pts, seeds, y[seeds], 2, k=30)
        assert np.array_equal(a.pseudo_label, b.pseudo_label)
        assert np.array_equal(a.weight, b.weight)


def cluster_training_data(seed=0, n=400):
    pts, y = two_clusters(n=n, sigma=0.15, seed=seed)
    n_lab = 20
    rng = np.random.default_rng(seed + 100)
    lab = np.sort(rng.choice(n, size=n_lab, replace=False))
    unlab = np.setdiff1d(np.arange(n), lab)
    return pts[lab], y[lab], pts[unlab], y[unlab]


class TestEncoderTrain:
    def test_original_architecture_flags(self):
        # decoder+projection is the unmodified contrastive-mixup architecture
        xl, yl, xu, _ = cluster_training_data()
        model = build_cmixup_model(8, 2, latent_dim=16, flags=("decoder", "projection"), seed=0)
        model, prop, curve = encoder_train(
            model, xl, yl, xu, 2, warmup_epochs=2, epochs=4, knn_k=20, seed=0)
        assert prop.pseudo_label.shape == (xl.shape[0] + xu.shape[0],)
        assert {"reconstruction", "supcon", "classifier_ce"} <= set(curve[0])
        assert all(e["classifier_ce"] == 0.0 for e in curve)  # no classifier head

    def test_pure_autoencoder_path(self):
        xl, yl, xu, _ = cluster_training_data(seed=1)
        model = build_cmixup_model(8, 2, latent_dim=16, flags=("decoder",), seed=1)
        model, _, curve = encoder_train(
            model, xl, yl, xu, 2, w_supcon=0.0, warmup_epochs=2, epochs=6, knn_k=20, seed=1)
        assert curve[-1]["reconstruction"] < curve[0]["reconstruction"]
        assert all(e["supcon"] == 0.0 for e in curve)

    def test_fixed_seed_reproducible_propagation(self):
        xl, yl, xu, _ = cluster_training_data(seed=2)

        def run():
            model = build_cmixup_model(8, 2, latent_dim=16, seed=3)
            _, prop, _ = encoder_train(model, xl, yl, xu, 2,
                                       warmup_epochs=2, epochs=4, knn_k=20, seed=3)
            return prop

        a, b = run(), run()
        assert np.array_equal(a.pseudo_label, b.pseudo_label)
        assert np.array_equal(a.weight, b.weight)

    def test_propagation_recovers_clusters_after_training(self):
        xl, yl, xu, yu = cluster_training_data(seed=4)
        model = build_cmixup_model(8, 2, latent_dim=16, seed=4)
        _, prop, _ = encoder_train(model, xl, yl, xu, 2,
                                   warmup_epochs=3, epochs=6, knn_k=20, seed=4)
        pseudo_unlab = prop.pseudo_label[~prop.is_labeled]
        assert (pseudo_unlab == yu).mean() > 0.9


class TestClassify:
    def test_zero_logits_uniform_confidence(self):
        model = build_cmixup_model(4, 5, latent_dim=8, seed=0)
        model.classifier.layers[0].weight[:] = 0.0
        model.classifier.layers[0].bias[:] = 0.0
        labels, conf = classify(model, np.random.default_rng(0).normal(size=(6, 4)))
        assert np.all(labels == 0)
        assert np.allclose(conf, 0.2)

    def test_shape_matches_propagation_contract(self):
        xl, yl, xu, _ = cluster_training_data(seed=5)
        model = build_cmixup_model(8, 2, latent_dim=16, seed=5)
        x_all = np.concatenate([xl, xu])
        labels, conf = classify(model, x_all)
        assert labels.shape == conf.shape == (x_all.shape[0],)

    def test_disabled_classifier_rejected(self):
        model = build_cmixup_model(4, 3, flags=("decoder", "projection"), seed=1)
        with pytest.raises(ValueError):
            classify(model, np.zeros((2, 4)))

    def test_deterministic(self):
        model = build_cmixup_model(4, 3, seed=9)
        x = np.random.default_rng(1).normal(size=(10, 4))
        a = classify(model, x)
        b = classify(model, x)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


class TestModelFlags:
    def test_unknown_flag_rejected(self):
        with pytest.raises(ValueError):
            build_cmixup_model(4, 2, flags=("decoder", "bogus"))

    def test_empty_flags_rejected(self):
        with pytest.raises(ValueError):
            build_cmixup_model(4, 2, flags=())
