import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from progtab import cmixup, nn
from progtab.cli import ABLATION_COMPONENTS
from progtab.cmixup import (
    PROJECTION_DIM,
    SUPCON_TEMPERATURE,
    W_CLF,
    PropagationError,
    _batch_losses,
    _knn_affinity,
    _normalize,
    build_cmixup_model,
    classify,
    encoder_train,
    latent_mixup,
    mix_latents,
    propagate_labels,
)
from progtab.nn import DenseLayer, HeadedEncoder, ModelGraph, derive_seed, seeded_rng


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
        mix = latent_mixup(z, labels, rng)
        assert np.array_equal(mix.labels, labels[mix.anchor_idx])
        assert np.array_equal(labels[mix.anchor_idx], labels[mix.partner_idx])
        assert np.all(mix.anchor_idx != mix.partner_idx)

    def test_singleton_labels_skipped(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(4, 2))
        labels = np.array([0, 0, 1, 2])  # labels 1 and 2 are singletons
        mix = latent_mixup(z, labels, rng)
        assert mix.n_skipped == 2
        assert set(mix.anchor_idx.tolist()) <= {0, 1}

    def test_all_singletons(self):
        rng = np.random.default_rng(5)
        mix = latent_mixup(rng.normal(size=(3, 2)), np.array([0, 1, 2]), rng)
        assert mix.mixed.shape == (0, 2)
        assert mix.n_skipped == 3

    # a 5-group, a pair and a singleton, interleaved
    GROUPS = np.array([7, 2, 7, 9, 7, 2, 7, 7])

    def test_groups_of_one_two_and_five(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(8, 3))
        for _ in range(50):
            mix = latent_mixup(z, self.GROUPS, rng)
            assert np.array_equal(mix.anchor_idx, [0, 1, 2, 4, 5, 6, 7])
            assert mix.n_skipped == 1
            assert np.all(mix.partner_idx != mix.anchor_idx)
            assert np.array_equal(self.GROUPS[mix.partner_idx], self.GROUPS[mix.anchor_idx])
            assert np.array_equal(mix.labels, self.GROUPS[mix.anchor_idx])
            pairs = dict(zip(mix.anchor_idx.tolist(), mix.partner_idx.tolist()))
            assert pairs[1] == 5 and pairs[5] == 1
            assert np.allclose(mix.mixed, mix_latents(z[mix.anchor_idx], z[mix.partner_idx],
                                                      mix.lam))

    def test_partner_uniform_over_other_members(self):
        rng = np.random.default_rng(8)
        z = np.zeros((8, 1))
        five = np.flatnonzero(self.GROUPS == 7)
        draws = 20_000
        partners = np.stack([latent_mixup(z, self.GROUPS, rng).partner_idx
                             for _ in range(draws)])
        anchors = latent_mixup(z, self.GROUPS, rng).anchor_idx
        for col, anchor in enumerate(anchors):
            if anchor not in five:
                continue
            counts = np.bincount(partners[:, col], minlength=8)
            for other in five[five != anchor]:
                assert abs(counts[other] / draws - 0.25) < 0.02


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
    z = nn.l2_normalize_rows(latents)
    sims = z @ z.T
    np.fill_diagonal(sims, -np.inf)
    top = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    w = np.zeros_like(sims)
    rows = np.arange(latents.shape[0])[:, None]
    w[rows, top] = np.maximum(sims[rows, top], 0.0)
    return sp.csr_matrix(np.maximum(w, w.T))


def assert_matches_dense_reference(latents, k):
    got = _knn_affinity(latents, k)
    want = dense_knn_reference(latents, k)
    got.sort_indices()
    want.sort_indices()
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)
    assert (got != got.T).nnz == 0
    assert np.all(got.diagonal() == 0.0)


class TestKnnAffinity:
    # 3,000 rows take 1,398 rows per block on one worker and 699 on two: full
    # blocks and a short tail; k = 300 exceeds the 256 column groups, k = 39
    # takes all other rows, and identical rows take all k neighbours from the
    # tie fill
    @pytest.mark.parametrize("n,k,identical", [
        pytest.param(3000, 10, False, id="3000-10"),
        pytest.param(40, 5, False, id="40-5"),
        pytest.param(700, 300, False, id="700-300"),
        pytest.param(40, 39, False, id="40-39"),
        pytest.param(600, 50, True, id="identical-600-50"),
    ])
    def test_matches_dense_reference(self, n, k, identical):
        latents = np.random.default_rng(n).normal(size=(n, 6))
        if identical:
            latents[:] = latents[0]
        assert_matches_dense_reference(latents, k)

    # copies of one row tie at a positive similarity: 40 copies spread over
    # 40 column groups tie at the bound itself, 20 copies in 2 groups tie
    # above it; the zero row ties with every row at 0 and gets no edge
    @pytest.mark.parametrize("stride,n_copies", [(73, 40), (128, 20)])
    def test_ties_go_to_the_lowest_index(self, stride, n_copies):
        latents = np.random.default_rng(1).normal(size=(3000, 6))
        copies = 100 + stride * np.arange(n_copies)
        latents[copies] = latents[copies[0]]
        latents[7] = 0.0
        assert_matches_dense_reference(latents, 10)
        got = _knn_affinity(latents, 10)
        assert got[7].nnz == 0
        assert set(got[copies[-1]].indices) == set(copies[:10].tolist())

    def test_float32_latents_give_the_edges_of_their_float64_upcast(self):
        # clustered rows, so that many similarities sit close to one another
        rng = np.random.default_rng(9)
        centers = rng.normal(size=(4, 8))
        latents = (centers[rng.integers(0, 4, 3000)]
                   + 0.3 * rng.normal(size=(3000, 8))).astype(np.float32)
        k, tol = 20, 16 * np.finfo(np.float32).eps  # cosines lie in [-1, 1]
        got = _knn_affinity(latents, k)
        want = _knn_affinity(latents.astype(np.float64), k)
        assert got.dtype == want.dtype == np.float64
        shared = got.multiply(want != 0)
        assert np.abs(shared - want.multiply(got != 0)).max() <= tol
        # an edge may differ only where float32 rounding can reorder a row's
        # k-th and (k+1)-th neighbours: within tol of either end's k-th similarity
        z = nn.l2_normalize_rows(latents.astype(np.float64))
        sims = z @ z.T
        np.fill_diagonal(sims, -np.inf)
        kth = -np.partition(-sims, k - 1, axis=1)[:, k - 1]
        i, j = ((got != 0) != (want != 0)).nonzero()
        near_tie = (np.abs(sims[i, j] - kth[i]) <= tol) | (np.abs(sims[i, j] - kth[j]) <= tol)
        assert near_tie.all()
        assert i.size <= 1e-4 * want.nnz


class TestWorkerCount:
    """The graph and the propagation are the same on any number of workers."""

    @pytest.fixture
    def workers(self, monkeypatch):
        """Sets the worker count; 8,400 similarities make blocks of 14, 7
        and 4 rows on one, two and three workers, so 600 rows span 43, 86
        and 150 blocks, the last of them short on one and two workers."""
        monkeypatch.setattr(cmixup, "_SIM_BLOCK_VALUES", 8400)
        return lambda count: monkeypatch.setattr(cmixup, "_cpus", lambda: count)

    @staticmethod
    def latents(dtype):
        # copies of one row tie at a positive similarity across blocks
        latents = np.random.default_rng(4).normal(size=(600, 6))
        copies = 50 + 37 * np.arange(12)
        latents[copies] = latents[copies[0]]
        return latents.astype(dtype)

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_graph_matches_dense_reference(self, workers, count):
        workers(count)
        assert_matches_dense_reference(self.latents(np.float64), 10)

    # ten rows in the negative orthant have a positive similarity only with
    # one another, 9 < k, and the zero row with none, so the (n, k) edge
    # arrays are compacted
    @pytest.mark.parametrize("count", [1, 2])
    def test_rows_with_fewer_than_k_edges_match_dense_reference(self, workers, count):
        workers(count)
        latents = np.abs(np.random.default_rng(5).normal(size=(600, 6)))
        latents[-10:] *= -1.0
        latents[7] = 0.0
        assert_matches_dense_reference(latents, 10)
        got = _knn_affinity(latents, 10)
        assert got[7].nnz == 0
        assert (np.diff(got.indptr)[-10:] == 9).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_graph_is_bit_identical(self, workers, dtype):
        graphs = []
        for count in (1, 2):
            workers(count)
            graphs.append(_knn_affinity(self.latents(dtype), 10))
        one, two = graphs
        assert np.array_equal(one.indptr, two.indptr)
        assert np.array_equal(one.indices, two.indices)
        assert np.array_equal(one.data, two.data)

    def test_propagation_is_bit_identical(self, workers):
        pts, y = two_clusters(n=600, seed=3)
        pts = pts.astype(np.float32)
        seeds = np.array([0, 300])
        results = []
        for count in (1, 2):
            workers(count)
            results.append(propagate_labels(pts, seeds, y[seeds], 2, k=20))
        one, two = results
        assert np.array_equal(one.pseudo_label, two.pseudo_label)
        assert np.array_equal(one.weight, two.weight)


class TestNormalize:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_diagonal_product(self, dtype):
        latents = np.random.default_rng(6).normal(size=(900, 5)).astype(dtype)
        latents[[3, 500]] = 0.0  # rows without edges: degree 0, factor 0
        w = _knn_affinity(latents, 12)
        deg = np.asarray(w.sum(axis=1)).ravel()
        assert (deg == 0).sum() == 2
        d = sp.diags(np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0))
        want = d @ w @ d
        got = _normalize(w)
        for a in ("indptr", "indices", "data"):
            g, e = getattr(got, a), getattr(want, a)
            assert g.dtype == e.dtype and np.array_equal(g, e), a


class TestPropagation:
    def test_float32_latents_give_the_pseudo_labels_of_their_float64_upcast(self):
        pts, y = two_clusters(seed=2)
        seeds = np.array([5, 300])
        got = propagate_labels(pts.astype(np.float32), seeds, y[seeds], 2, k=20)
        want = propagate_labels(pts, seeds, y[seeds], 2, k=20)
        assert np.array_equal(got.pseudo_label, want.pseudo_label)
        assert np.abs(got.weight - want.weight).max() <= 1e-5

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_latents_rejected(self, bad):
        latents = np.random.default_rng(9).normal(size=(300, 4))
        latents[[17, 250], 2] = bad
        with pytest.raises(PropagationError, match=r"2 of 300 latent rows .* row 17"):
            propagate_labels(latents, np.array([0, 1]), np.array([0, 1]), 2, k=10)

    def test_missing_class_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(PropagationError, match="class"):
            propagate_labels(rng.normal(size=(20, 3)), np.array([0, 1]),
                             np.array([0, 0]), 2, k=4)

    @pytest.mark.parametrize("labeled_idx, labels, message", [
        ([0, 1, 2], [0, 1, -1], r"labels must lie in \[0, 2\), got \[-1, 1\]"),
        ([0, 1, 2], [0, 1, 2], r"labels must lie in \[0, 2\), got \[0, 2\]"),
        ([0, 1, -1], [0, 1, 1], r"labeled_idx must lie in \[0, 20\), got \[-1, 1\]"),
        ([0, 1, 20], [0, 1, 1], r"labeled_idx must lie in \[0, 20\), got \[0, 20\]"),
        ([0, 1, 2], [0, 1], r"1-D of one length, got shapes \(3,\) and \(2,\)"),
        ([0, 1], [0, 1, 1], r"1-D of one length, got shapes \(2,\) and \(3,\)"),
        ([0, 5, 1, 5], [0, 1, 1, 1], r"labeled_idx repeats row\(s\) \[5\]"),
    ], ids=["label-1", "label-C", "index-1", "index-n", "more-idx", "more-labels",
            "repeated-idx"])
    def test_out_of_range_or_mismatched_labels_rejected(self, labeled_idx, labels, message):
        # a label or index of -1 used to wrap around to the last
        # class or row, and the others raised a bare IndexError
        latents = np.random.default_rng(8).normal(size=(20, 3))
        with pytest.raises(PropagationError, match=message):
            propagate_labels(latents, np.array(labeled_idx), np.array(labels), 2, k=4)

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=15, deadline=None)
    def test_weights_bounded(self, seed):
        rng = np.random.default_rng(seed)
        latents = rng.normal(size=(60, 5))
        labels = rng.integers(0, 3, size=60)
        seeds = np.array([int(np.flatnonzero(labels == c)[0]) for c in range(3)])
        res = propagate_labels(latents, seeds, labels[seeds], 3, k=8)
        assert np.all((res.weight >= 0.0) & (res.weight <= 1.0))

    def test_cg_failure_names_the_class(self, monkeypatch):
        pts, y = two_clusters()
        seeds = np.array([0, 250])
        monkeypatch.setattr(cmixup, "CG_MAX_ITER", 1)
        with pytest.raises(PropagationError, match="class 0 of 2"):
            propagate_labels(pts, seeds, y[seeds], 2, k=50)

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


def float64_model(input_dim, num_classes, latent_dim, seed):
    """A full model cast to float64, with random biases so that bias
    gradients are checked too."""
    model = build_cmixup_model(input_dim, num_classes, latent_dim=latent_dim, seed=seed)
    rng = np.random.default_rng(seed)

    return HeadedEncoder(ModelGraph([DenseLayer(l.weight.astype(np.float64),
                                                0.1 * rng.standard_normal(l.bias.shape),
                                                l.activation)
                                     for l in model.graph.layers]), model.blocks)


def four_model_gradient(model, xb, yb, labeled, mix):
    """One batch's gradient as the former encoder plus three separate heads
    computed it, laid out like the joint graph's params."""
    layer = model.graph.layers[-1]
    heads = {head: ModelGraph([DenseLayer(layer.weight[:, cols], layer.bias[cols],
                                          "softmax" if head == "classifier" else "identity")])
             for head, cols in model.blocks.items()}
    enc_fwd = model.encoder.forward(xb)
    z = enc_fwd.output
    g_z = np.zeros_like(z)
    head_grads = {}

    fwd = heads["decoder"].forward(z)
    head_grads["decoder"], gz = heads["decoder"].backward(
        fwd, nn.loss_reconstruction(fwd.output, xb)[1])
    g_z += gz

    lab = np.flatnonzero(labeled)
    fwd = heads["classifier"].forward(z[lab])
    head_grads["classifier"], gz = heads["classifier"].backward(
        fwd, W_CLF * nn.loss_crossentropy(fwd.output, yb[lab])[1])
    g_z[lab] += gz

    use = np.flatnonzero(yb >= 0)
    zb = z[use]
    mixed = mix_latents(zb[mix.anchor_idx], zb[mix.partner_idx], mix.lam)
    fwd = heads["projection"].forward(np.concatenate([zb, mixed]))
    u = fwd.output
    g_zn = nn.loss_supcon(nn.l2_normalize_rows(u), np.concatenate([yb[use], mix.labels]),
                          SUPCON_TEMPERATURE)[1]
    head_grads["projection"], g_stack = heads["projection"].backward(
        fwd, nn.l2_normalize_rows_backward(u, g_zn))
    gz_use, g_mix = g_stack[:use.size], g_stack[use.size:]
    gz_use[mix.anchor_idx] += mix.lam[:, None] * g_mix
    np.add.at(gz_use, mix.partner_idx, (1.0 - mix.lam)[:, None] * g_mix)
    g_z[use] += gz_use

    g_enc, _ = model.encoder.backward(enc_fwd, g_z, input_grad=False)
    g_w, g_b = np.zeros_like(layer.weight), np.zeros_like(layer.bias)
    for head, cols in model.blocks.items():
        n_w = layer.weight.shape[0] * (cols.stop - cols.start)
        g_w[:, cols] = head_grads[head][:n_w].reshape(layer.weight.shape[0], -1)
        g_b[cols] = head_grads[head][n_w:]
    return np.concatenate([g_enc, g_w.ravel(), g_b])


def counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


class TestEncoderTrain:
    # warmup 1: the batch sees only the labeled rows' labels; warmup 0:
    # propagation labels every row before the batch
    @pytest.mark.parametrize("warmup", [1, 0], ids=["before-warmup", "after-warmup"])
    def test_one_pass_gradient_equals_four_model_sum(self, monkeypatch, warmup):
        xl, yl, xu, _ = cluster_training_data(seed=6, n=60)
        x_all = np.concatenate([xl, xu])
        model = float64_model(8, 2, latent_dim=6, seed=7)
        initial = HeadedEncoder(ModelGraph(model.graph.layers), model.blocks)
        mixes, props, grads = [], [], []

        def recording(fn, out):
            def wrapper(*args, **kwargs):
                out.append(fn(*args, **kwargs))
                return out[-1]
            return wrapper

        real_step = nn.step

        def recording_step(opt, graph, g):
            grads.append(g.copy())
            real_step(opt, graph, g)

        monkeypatch.setattr(cmixup, "latent_mixup", recording(cmixup.latent_mixup, mixes))
        monkeypatch.setattr(cmixup, "propagate_labels",
                            recording(cmixup.propagate_labels, props))
        monkeypatch.setattr(nn, "step", recording_step)
        encoder_train(model, xl, yl, xu, 2, warmup_epochs=warmup, epochs=1, knn_k=10,
                      batch_size=60, seed=8)

        assert len(grads) == len(mixes) == 1
        order = seeded_rng(8, "cm-shuffle").permutation(60)
        y_known = np.concatenate([yl, np.full(40, -1)]) if warmup else props[0].pseudo_label
        labeled = order < 20
        assert (y_known[order] >= 0).sum() == (20 if warmup else 60)
        want = four_model_gradient(initial, x_all[order], y_known[order], labeled, mixes[0])
        assert np.allclose(grads[0], want, rtol=1e-10, atol=0.0)
        # the model holds the initial weights moved by one Adam step on it
        stepped = initial.graph
        real_step(nn.make_optimizer(stepped), stepped, want)
        assert np.allclose(model.graph.params, stepped.params, rtol=1e-10, atol=1e-12)

    def test_one_forward_backward_and_step_per_batch(self, monkeypatch):
        calls = {"infer": 0, "forward": 0, "backward": 0, "step": 0}
        stepped = []
        real_step = nn.step

        def recording_step(opt, graph, g):
            stepped.append(graph)
            real_step(opt, graph, g)

        monkeypatch.setattr(ModelGraph, "infer", counting(calls, "infer", ModelGraph.infer))
        monkeypatch.setattr(ModelGraph, "forward", counting(calls, "forward", ModelGraph.forward))
        monkeypatch.setattr(ModelGraph, "backward",
                            counting(calls, "backward", ModelGraph.backward))
        monkeypatch.setattr(nn, "step", counting(calls, "step", recording_step))
        xl, yl, xu, _ = cluster_training_data(seed=3, n=100)
        model = build_cmixup_model(8, 2, latent_dim=6, seed=2)
        before = model.graph.params.copy()
        # 100 rows in batches of 32: four batches per epoch, two epochs of
        # warmup, then one propagation inference on the final encoder
        encoder_train(model, xl, yl, xu, 2, warmup_epochs=2, epochs=2, knn_k=10,
                      batch_size=32, seed=1)
        assert calls == {"infer": 1, "forward": 8, "backward": 8, "step": 8}
        # the model's graph trained in place: its encoder and its heads moved
        assert all(graph is model.graph for graph in stepped)
        assert model.graph.params.dtype == np.float32
        n_enc = model.encoder.params.size
        assert not np.array_equal(before[:n_enc], model.graph.params[:n_enc])
        assert not np.array_equal(before[n_enc:], model.graph.params[n_enc:])

    def test_joint_loss_gradcheck(self):
        # 16 rows: 6 true-labeled, 6 with pseudo-labels, 4 unknown, three
        # classes, so that the classifier, supcon and mixup all take part
        rng = np.random.default_rng(11)
        xb = rng.normal(size=(16, 5))
        yb = np.array([0, 1, 2, 0, 1, 2, 0, 0, 1, 1, 2, 2, -1, -1, -1, -1])
        labeled = np.arange(16) < 6
        model = float64_model(5, 3, latent_dim=4, seed=12)
        graph = model.graph

        def loss_fn(m):
            fwd = m.forward(xb)
            (recon, supcon, clf), g = _batch_losses(
                model.blocks, xb, yb, labeled, np.random.default_rng(13), fwd.output)
            assert recon > 0 and supcon > 0 and clf > 0
            grads, _ = m.backward(fwd, g)
            return recon + supcon + W_CLF * clf, grads

        report = nn.gradcheck(graph, loss_fn)
        assert report.n_params == graph.params.size
        assert report.max_rel_err < 1e-6

    @pytest.mark.parametrize("case, n_labels, unlab_width", [
        ("more labels", 22, 8), ("fewer labels", 18, 8), ("unlabeled width", 20, 7)])
    def test_mismatched_inputs_rejected_before_training(self, monkeypatch, case, n_labels,
                                                        unlab_width):
        monkeypatch.setattr(nn, "train", lambda *a, **k: pytest.fail("training started"))
        xl, yl, xu, _ = cluster_training_data(seed=6, n=60)
        labels = np.resize(yl, n_labels)
        xu = xu[:, :unlab_width]
        model = build_cmixup_model(8, 2, latent_dim=6, seed=7)
        with pytest.raises(ValueError, match=r"^encoder_train: .*shape \(") as exc:
            encoder_train(model, xl, labels, xu, 2, epochs=1, knn_k=10)
        assert "(20, 8)" in str(exc.value)
        assert (f"({n_labels},)" if case != "unlabeled width" else "(40, 7)") in str(exc.value)

    def test_original_architecture_flags(self):
        # decoder+projection is the unmodified contrastive-mixup architecture
        xl, yl, xu, _ = cluster_training_data()
        model = build_cmixup_model(8, 2, latent_dim=16, flags=("decoder", "projection"), seed=0)
        prop, curve = encoder_train(
            model, xl, yl, xu, 2, warmup_epochs=2, epochs=4, knn_k=20, seed=0)
        assert prop.pseudo_label.shape == (xl.shape[0] + xu.shape[0],)
        assert {"reconstruction", "supcon", "classifier_ce"} <= set(curve)
        assert all(v == 0.0 for v in curve["classifier_ce"])  # no classifier head

    def test_pure_autoencoder_path(self):
        xl, yl, xu, _ = cluster_training_data(seed=1)
        model = build_cmixup_model(8, 2, latent_dim=16, flags=("decoder",), seed=1)
        _, curve = encoder_train(
            model, xl, yl, xu, 2, warmup_epochs=2, epochs=6, knn_k=20, seed=1)
        assert curve["reconstruction"][-1] < curve["reconstruction"][0]
        assert all(v == 0.0 for v in curve["supcon"])

    def test_fixed_seed_reproducible_propagation(self):
        xl, yl, xu, _ = cluster_training_data(seed=2)

        def run():
            model = build_cmixup_model(8, 2, latent_dim=16, seed=3)
            prop, _ = encoder_train(model, xl, yl, xu, 2,
                                    warmup_epochs=2, epochs=4, knn_k=20, seed=3)
            return prop

        a, b = run(), run()
        assert np.array_equal(a.pseudo_label, b.pseudo_label)
        assert np.array_equal(a.weight, b.weight)

    def test_propagation_recovers_clusters_after_training(self):
        xl, yl, xu, yu = cluster_training_data(seed=4)
        model = build_cmixup_model(8, 2, latent_dim=16, seed=4)
        prop, _ = encoder_train(model, xl, yl, xu, 2,
                                warmup_epochs=3, epochs=6, knn_k=20, seed=4)
        pseudo_unlab = prop.pseudo_label[~prop.is_labeled]
        assert (pseudo_unlab == yu).mean() > 0.9


class TestClassify:
    def test_zero_logits_uniform_confidence(self):
        # the decoder and projection blocks keep their weights
        model = build_cmixup_model(4, 5, latent_dim=8, seed=0)
        heads = model.graph.layers[-1]
        heads.weight[:, model.blocks["classifier"]] = 0.0
        heads.bias[model.blocks["classifier"]] = 0.0
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

    @pytest.mark.parametrize("flags", ABLATION_COMPONENTS)
    def test_heads_follow_flags(self, flags):
        model = build_cmixup_model(4, 2, flags=flags)
        widths = {"decoder": 4, "projection": PROJECTION_DIM, "classifier": 2}
        names = [head for head in widths if head in flags]
        assert list(model.blocks) == names
        at = 0
        for head in names:
            assert model.blocks[head] == slice(at, at + widths[head])
            at += widths[head]
        assert model.graph.output_dim == at
        assert model.graph.layers[-1].activation == "identity"
        assert model.graph.params.dtype == np.float32

    def test_repeated_flags_make_one_block(self):
        model = build_cmixup_model(4, 2, flags=("classifier", "decoder", "classifier"))
        assert model.blocks == {"decoder": slice(0, 4), "classifier": slice(4, 6)}
        assert model.graph.output_dim == 6

    @pytest.mark.parametrize("flags", ABLATION_COMPONENTS)
    def test_blocks_are_the_separate_head_draws(self, flags):
        # each block equals the head drawn as a model of its own, with the
        # activation it had then
        widths = {"decoder": (6, "identity"), "projection": (PROJECTION_DIM, "identity"),
                  "classifier": (3, "softmax")}
        for seed in range(5):
            model = build_cmixup_model(6, 3, latent_dim=8, flags=flags, seed=seed)
            heads = model.graph.layers[-1]
            for head, cols in model.blocks.items():
                width, act = widths[head]
                (want,) = ModelGraph.mlp(8, (), width, act, seed=derive_seed(seed, f"cm-{head}"),
                                         dtype=np.float32).layers
                assert np.array_equal(heads.weight[:, cols], want.weight)
                assert np.array_equal(heads.bias[cols], want.bias)
