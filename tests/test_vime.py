import hashlib

import numpy as np
import pytest

from progtab import nn, vime
from progtab.data import SplitSpec, SyntheticSpec, make_split, synthesize_dataset
from progtab.encoding import encode, fit_cpr
from progtab.nn import DenseLayer, HeadedEncoder, ModelGraph
from progtab.vime import (
    CorruptionSpec,
    VimeModel,
    accuracy,
    build_vime_model,
    corrupt,
    predict,
    pretext_train,
    semisup_train,
)


def model_weights(model: VimeModel):
    parts = [model.predictor]
    if model.net is not None:
        parts = [model.net.graph, model.predictor]
    return [l.weight.copy() for part in parts for l in part.layers]


class TestCorrupt:
    def test_zero_probability_is_identity(self):
        x = np.random.default_rng(0).normal(size=(8, 5))
        xt, mask = corrupt(x, 0.0, np.random.default_rng(1))
        assert np.array_equal(xt, x)
        assert mask.dtype == bool and not mask.any()

    def test_identical_rows_degenerate_marginal(self):
        x = np.ones((6, 4)) * 3.5
        xt, mask = corrupt(x, 1.0, np.random.default_rng(2))
        assert np.array_equal(xt, x)
        assert mask.dtype == bool and mask.all()

    def test_unmasked_entries_preserved(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(32, 7))
        xt, mask = corrupt(x, 0.4, rng)
        keep = mask == 0
        assert np.array_equal(xt[keep], x[keep])

    def test_donors_come_from_same_column(self):
        rng = np.random.default_rng(4)
        # column j carries the constant j: corrupted values must stay in-column
        x = np.tile(np.arange(5.0), (10, 1)) + rng.normal(scale=1e-3, size=(10, 5))
        xt, _ = corrupt(x, 1.0, rng)
        assert np.all(np.abs(xt - np.arange(5.0)) < 0.01)

    def test_empirical_mask_rate(self):
        # Monte-Carlo: per-entry rate within 3 sigma of p over 10^5 draws
        rng = np.random.default_rng(5)
        p = 0.3
        n = 100_000
        x = rng.normal(size=(n, 2))
        _, mask = corrupt(x, p, rng)
        rate = mask.mean(axis=0)
        sigma = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(rate - p) < 3 * sigma)

    def test_small_batch_rejected(self):
        with pytest.raises(ValueError):
            corrupt(np.ones((1, 3)), 0.5, np.random.default_rng(0))


def rank1_dataset(n=512, d=6, seed=0):
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=d)
    coeff = rng.normal(size=(n, 1))
    return coeff * direction + 0.01 * rng.normal(size=(n, d))


def counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def eval_recon(model: VimeModel, x, spec: CorruptionSpec) -> float:
    xt, _ = corrupt(x, spec.p_mask, nn.seeded_rng(spec.seed, "eval"))
    recon = model.net.graph.forward(xt).output[:, model.net.blocks["reconstruction"]]
    loss, _ = nn.loss_reconstruction(recon, x)
    return loss


class TestBuild:
    @pytest.mark.parametrize("with_encoder", [True, False])
    def test_every_component_is_float32(self, with_encoder):
        model = build_vime_model(6, 2, latent_dim=8, seed=0, with_encoder=with_encoder)
        assert (model.net is not None) == with_encoder
        for part in [model.predictor] + ([model.net.graph] if with_encoder else []):
            assert part.params.dtype == np.float32

    def test_decoder_halves_are_the_two_head_draws(self):
        # the reconstruction and mask halves start from the draws of two
        # separate input_dim-wide heads, one seed stream each
        model = build_vime_model(6, 2, latent_dim=8, seed=4)
        heads = [ModelGraph.mlp(8, (), 6, "identity", seed=nn.derive_seed(4, tag),
                                dtype=np.float32).layers[0]
                 for tag in ("feature-decoder", "mask-decoder")]
        assert model.net.blocks == {"reconstruction": slice(0, 6), "mask": slice(6, 12)}
        layer = model.net.graph.layers[-1]
        assert layer.activation == "identity"
        assert np.array_equal(layer.weight, np.hstack([h.weight for h in heads]))
        assert np.array_equal(layer.bias, np.zeros(12, np.float32))

    @pytest.mark.parametrize("width", [6, 13])
    def test_predictor_of_other_width_rejected(self, width):
        model = build_vime_model(6, 2, latent_dim=8, seed=0)
        predictor = ModelGraph.mlp(width, (), 2, "softmax", seed=1)
        with pytest.raises(nn.NnError, match=f"predictor input width {width} must match"):
            VimeModel(model.net, predictor)


class TestPretext:
    def test_rank1_reconstruction_improves_10x(self):
        x = rank1_dataset()
        spec = CorruptionSpec(0.3, seed=2)
        model = build_vime_model(6, 2, latent_dim=8, seed=3)
        before = eval_recon(model, x, spec)
        curve = pretext_train(model, x, spec, epochs=180, batch_size=64)
        after = eval_recon(model, x, spec)
        assert after < 0.1 * before
        assert curve["reconstruction"][-1] < curve["reconstruction"][0]

    def test_fixed_seed_reproducible(self):
        x = rank1_dataset()
        spec = CorruptionSpec(0.3, seed=4)
        a = build_vime_model(6, 2, latent_dim=8, seed=5)
        b = build_vime_model(6, 2, latent_dim=8, seed=5)
        pretext_train(a, x, spec, epochs=3)
        pretext_train(b, x, spec, epochs=3)
        for wa, wb in zip(model_weights(a), model_weights(b)):
            assert np.array_equal(wa, wb)

    def test_one_pass_gradient_equals_three_model_sum(self, monkeypatch):
        # one batch of 12 rows through a float64 encoder and decoder; the
        # former pass ran the two heads as separate models and summed their
        # gradients into the encoder
        d, latent = 5, 4
        x_unlab = np.random.default_rng(0).normal(size=(12, d))
        encoder = ModelGraph.mlp(d, (), latent, "relu", seed=1)
        decoder = ModelGraph.mlp(latent, (), 2 * d, "identity", seed=2)
        predictor = ModelGraph.mlp(latent, (), 2, "softmax", seed=3)
        net = HeadedEncoder(ModelGraph(encoder.layers + decoder.layers),
                            {"reconstruction": slice(0, d), "mask": slice(d, 2 * d)})
        model = VimeModel(net, predictor)
        corrupted, grads = [], []
        real_corrupt = vime.corrupt

        def recording_corrupt(*args):
            out = real_corrupt(*args)
            corrupted.append((args[0], *out))
            return out

        real_step = nn.step

        def recording_step(opt, graph, g):
            grads.append(g.copy())
            real_step(opt, graph, g)

        monkeypatch.setattr(vime, "corrupt", recording_corrupt)
        monkeypatch.setattr(nn, "step", recording_step)
        pretext_train(model, x_unlab, CorruptionSpec(0.4, seed=5), epochs=1, batch_size=12)

        assert len(corrupted) == 1 and len(grads) == 1
        ((x, x_tilde, mask),) = corrupted
        (dec,) = decoder.layers
        heads = [ModelGraph([DenseLayer(dec.weight[:, cols], dec.bias[cols], "identity")])
                 for cols in (slice(0, d), slice(d, 2 * d))]
        enc_fwd = encoder.forward(x_tilde)
        head_fwds = [head.forward(enc_fwd.output) for head in heads]
        g_rec = nn.loss_reconstruction(head_fwds[0].output, x)[1]
        g_bce = nn.loss_mask_bce(head_fwds[1].output, mask)[1]
        (g_fd, gh_rec), (g_md, gh_bce) = (head.backward(f, g) for head, f, g
                                          in zip(heads, head_fwds, (g_rec, g_bce)))
        g_enc, _ = encoder.backward(enc_fwd, gh_rec + gh_bce, input_grad=False)
        n_w = latent * d
        want = np.concatenate([
            g_enc,
            np.hstack([g_fd[:n_w].reshape(latent, d), g_md[:n_w].reshape(latent, d)]).ravel(),
            g_fd[n_w:], g_md[n_w:],
        ])
        assert np.allclose(grads[0], want, rtol=1e-10, atol=0.0)

    def test_one_forward_backward_and_step_per_batch(self, monkeypatch):
        calls = {"forward": 0, "backward": 0, "step": 0}
        monkeypatch.setattr(ModelGraph, "forward", counting(calls, "forward", ModelGraph.forward))
        monkeypatch.setattr(ModelGraph, "backward",
                            counting(calls, "backward", ModelGraph.backward))
        monkeypatch.setattr(nn, "step", counting(calls, "step", nn.step))
        model = build_vime_model(6, 2, latent_dim=8, seed=0)
        graph = model.net.graph
        before = graph.params.copy()
        # 40 rows in batches of 16: three batches per epoch
        pretext_train(model, rank1_dataset()[:40], CorruptionSpec(0.3, seed=1),
                      epochs=2, batch_size=16)
        assert calls == {"forward": 6, "backward": 6, "step": 6}
        # the net's graph trained in place: its encoder and its heads moved
        assert model.net.graph is graph and graph.params.dtype == np.float32
        n_enc = model.net.encoder.params.size
        assert not np.array_equal(before[:n_enc], graph.params[:n_enc])
        assert not np.array_equal(before[n_enc:], graph.params[n_enc:])

    @pytest.mark.parametrize("heads", [None, {"decoder": 6, "projection": 32},
                                       {"reconstruction": 6}, {"reconstruction": 6, "mask": 13},
                                       {"reconstruction": 12, "mask": 6}],
                             ids=["no-net", "cmixup-heads", "no-mask", "wide-mask",
                                  "wide-reconstruction"])
    def test_net_without_input_wide_pretext_heads_rejected(self, heads):
        if heads is None:
            model = build_vime_model(6, 2, latent_dim=8, seed=0, with_encoder=False)
        else:
            net = HeadedEncoder.build(6, 8, 0, {h: (w, seed)
                                                for seed, (h, w) in enumerate(heads.items())})
            model = VimeModel(net, ModelGraph.mlp(8, (), 2, "softmax", seed=1))
        with pytest.raises(ValueError, match="reconstruction and mask heads of the input width 6"):
            pretext_train(model, rank1_dataset()[:40], CorruptionSpec(0.3, seed=1), epochs=1)

    @pytest.mark.parametrize("n_rows,batch_size", [(0, 256), (1, 256), (50, 1)])
    def test_no_batch_of_two_rows_rejected(self, n_rows, batch_size):
        # every batch would be skipped, leaving NaN epoch losses
        model = build_vime_model(6, 2, latent_dim=8, seed=0)
        with pytest.raises(ValueError, match="no batch of at least 2 rows"):
            pretext_train(model, rank1_dataset()[:n_rows], CorruptionSpec(0.3, seed=1),
                          epochs=1, batch_size=batch_size)

    def test_two_rows_train(self):
        model = build_vime_model(6, 2, latent_dim=8, seed=0)
        curve = pretext_train(model, rank1_dataset()[:2], CorruptionSpec(0.3, seed=1),
                              epochs=2)
        assert all(np.isfinite(v) for values in curve.values() for v in values)


def desk_data(seed, n=1200, signal=1.5):
    ds = synthesize_dataset(SyntheticSpec(n, 2, 15, 2, 3, signal, seed))
    split = make_split(ds, SplitSpec(0.8, 0.12, seed))
    table = fit_cpr(ds, split.labeled_idx, ds.labels[split.labeled_idx])
    x = encode(ds, np.arange(ds.n_rows), table).matrix
    return ds, split, x


class TestSemisup:
    def test_supervised_equivalence(self):
        # corruption/consistency disabled + unlabeled present == supervised run
        # (labeled corruption is identity at p_mask=0, so both arms take the
        # exact same labeled path)
        ds, split, x = desk_data(0)
        y = ds.labels
        a = build_vime_model(x.shape[1], 3, predictor_hidden=(32,), seed=7, with_encoder=False)
        b = build_vime_model(x.shape[1], 3, predictor_hidden=(32,), seed=7, with_encoder=False)
        semisup_train(a, x[split.labeled_idx], y[split.labeled_idx], x[split.unlabeled_idx],
                      CorruptionSpec(0.0, seed=9), beta=0.0, k_corruptions=0, epochs=4)
        semisup_train(b, x[split.labeled_idx], y[split.labeled_idx], np.empty((0, x.shape[1])),
                      CorruptionSpec(0.0, seed=9), beta=1.0, k_corruptions=3, epochs=4)
        for wa, wb in zip(model_weights(a), model_weights(b)):
            assert np.array_equal(wa, wb)

    def test_consistency_zero_without_corruption(self):
        ds, split, x = desk_data(1)
        y = ds.labels
        model = build_vime_model(x.shape[1], 3, predictor_hidden=(16,), seed=1, with_encoder=False)
        curve = semisup_train(
            model, x[split.labeled_idx], y[split.labeled_idx], x[split.unlabeled_idx],
            CorruptionSpec(0.0, seed=2), beta=1.0, k_corruptions=2, epochs=3,
        )
        assert all(v == 0.0 for v in curve["consistency"])

    def test_no_labeled_rows_rejected(self):
        model = build_vime_model(6, 2, latent_dim=8, seed=0)
        with pytest.raises(ValueError, match="^semisup: epoch 0 has no batch to train on$"):
            semisup_train(model, np.empty((0, 6)), np.empty(0, dtype=np.int64),
                          rank1_dataset()[:40], CorruptionSpec(0.3, seed=1), epochs=1)

    @pytest.mark.parametrize("case, n_labels, unlab_width", [
        ("more labels", 12, 6), ("fewer labels", 8, 6), ("unlabeled width", 10, 5)])
    def test_mismatched_inputs_rejected_before_training(self, monkeypatch, case, n_labels,
                                                        unlab_width):
        monkeypatch.setattr(nn, "train", lambda *a, **k: pytest.fail("training started"))
        model = build_vime_model(6, 2, latent_dim=8, seed=0)
        rng = np.random.default_rng(0)
        x_unlab = rng.normal(size=(20, unlab_width))
        with pytest.raises(ValueError, match=r"^semisup_train: .*shape \(") as exc:
            semisup_train(model, rng.normal(size=(10, 6)), np.arange(n_labels) % 2, x_unlab,
                          CorruptionSpec(0.3, seed=1), epochs=1)
        assert "(10, 6)" in str(exc.value)
        assert (f"({n_labels},)" if case != "unlabeled width" else "(20, 5)") in str(exc.value)

    def test_unused_unlabeled_rows_may_have_any_width(self):
        model = build_vime_model(6, 2, with_encoder=False, seed=0)
        x = np.random.default_rng(0).normal(size=(10, 6))
        semisup_train(model, x, np.arange(10) % 2, np.empty((0, 3)),
                      CorruptionSpec(0.0, seed=1), beta=0.0, epochs=1)

    @pytest.mark.parametrize("with_encoder", [False, True])
    def test_one_hot_rows_train_as_their_dense_batches(self, monkeypatch, with_encoder):
        """Batches taken from the row index end with the params, bit for
        bit, of the same model trained on the dense rows."""
        rng = np.random.default_rng(4)
        x = np.zeros((600, 802))
        x[np.arange(600)[:, None], [0, 400] + rng.integers(0, 400, size=(600, 2))] = 1.0
        x[:, -2:] = rng.normal(size=(600, 2))
        y = rng.integers(0, 3, size=600)

        def trained():
            model = build_vime_model(x.shape[1], 3, latent_dim=16, predictor_hidden=(32,),
                                     seed=5, with_encoder=with_encoder)
            semisup_train(model, x, y, np.empty((0, x.shape[1])), CorruptionSpec(0.0, seed=5),
                          beta=0.0, epochs=2, batch_size=128)
            parts = [model.predictor] + ([model.net.graph] if with_encoder else [])
            return [hashlib.sha256(part.params.tobytes()).hexdigest() for part in parts]

        taken, take = [], nn.RowIndex.take
        monkeypatch.setattr(nn.RowIndex, "take",
                            lambda self, rows: taken.append(take(self, rows)) or taken[-1])
        compact = trained()
        assert len(taken) == 10 and all(isinstance(b, nn.CompactBatch) for b in taken)
        monkeypatch.setattr(nn.RowIndex, "take", lambda self, rows: self.x[rows])
        assert trained() == compact

    def test_one_backward_and_step_per_labeled_batch(self, monkeypatch):
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
        model = build_vime_model(6, 2, latent_dim=8, seed=0)
        encoder, predictor = model.net.encoder.params.copy(), model.predictor.params.copy()
        x = rank1_dataset()
        # 40 labeled rows in batches of 16: three batches per epoch, each
        # with three corrupted copies of 16 unlabeled rows
        semisup_train(model, x[:40], np.arange(40) % 2, x[40:100], CorruptionSpec(0.3, seed=1),
                      k_corruptions=3, epochs=2, batch_size=16)
        # each batch is one encoder inference to the latent, then the
        # predictor's forward
        assert calls == {"infer": 6, "forward": 6, "backward": 6, "step": 6}
        assert all(graph is model.predictor for graph in stepped)
        assert np.array_equal(model.net.encoder.params, encoder)
        assert not np.array_equal(model.predictor.params, predictor)

    def test_pipeline_bitwise_reproducible(self):
        ds, split, x = desk_data(2)
        y = ds.labels

        def run():
            model = build_vime_model(x.shape[1], 3, latent_dim=16,
                                     predictor_hidden=(32,), seed=11)
            spec = CorruptionSpec(0.3, seed=11)
            pretext_train(model, x[split.unlabeled_idx], spec, epochs=2)
            semisup_train(model, x[split.labeled_idx], y[split.labeled_idx],
                          x[split.unlabeled_idx], spec, epochs=2)
            return model_weights(model)

        for wa, wb in zip(run(), run()):
            assert np.array_equal(wa, wb)

    def test_one_pass_gradient_equals_per_copy_sum(self, monkeypatch):
        # one batch: 10 labeled rows (one class, so their order is moot) and
        # 3 corrupted copies of 16 unlabeled rows
        rng = np.random.default_rng(0)
        x_lab, x_unlab = rng.normal(size=(10, 5)), rng.normal(size=(20, 5))
        y_lab = np.full(10, 2)
        predictor = ModelGraph.mlp(5, (8,), 3, "softmax", seed=1, dtype=np.float64)
        initial = ModelGraph(predictor.layers)
        corrupted, grads = [], []
        real_corrupt = vime.corrupt

        def recording_corrupt(*args):
            out = real_corrupt(*args)
            corrupted.append(out[0])
            return out

        real_step = nn.step

        def recording_step(opt, model, g):
            grads.append(g.copy())
            real_step(opt, model, g)

        monkeypatch.setattr(vime, "corrupt", recording_corrupt)
        monkeypatch.setattr(nn, "step", recording_step)
        semisup_train(VimeModel(None, predictor), x_lab, y_lab, x_unlab,
                      CorruptionSpec(0.3, seed=4), beta=0.5, k_corruptions=3, epochs=1,
                      batch_size=16)

        (xb,) = [x for x in corrupted if x.shape[0] == 10]
        copies = [x for x in corrupted if x.shape[0] == 16]
        assert len(copies) == 3 and len(grads) == 1
        fwd = initial.forward(xb)
        want, _ = initial.backward(fwd, nn.loss_crossentropy(fwd.output, y_lab)[1])
        fwds = [initial.forward(x) for x in copies]
        _, g_cons = nn.loss_consistency(np.stack([f.output for f in fwds]))
        for f, g in zip(fwds, g_cons):
            want += initial.backward(f, 0.5 * g)[0]
        assert np.allclose(grads[0], want, rtol=1e-10, atol=0.0)

    @pytest.mark.slow
    def test_semisupervised_beats_supervised_on_average(self):
        # direction analog over 5 seeds, margin >= 0 required. Needs a regime
        # where unlabeled data pays: high-cardinality columns make the
        # label-fit encoding noisy. The pretext encoder stays frozen in step 2,
        # as it does in every pipeline.
        sup_accs, semi_accs = [], []
        for seed in range(5):
            ds = synthesize_dataset(SyntheticSpec(2500, 4, 200, 2, 4, 1.5, seed))
            split = make_split(ds, SplitSpec(0.8, 0.1, seed))
            table = fit_cpr(ds, split.labeled_idx, ds.labels[split.labeled_idx])
            x = encode(ds, np.arange(ds.n_rows), table).matrix
            y = ds.labels
            xl, yl = x[split.labeled_idx], y[split.labeled_idx]
            xu = x[split.unlabeled_idx]
            xt, yt = x[split.test_idx], y[split.test_idx]

            sup = build_vime_model(x.shape[1], 4, predictor_hidden=(64,), seed=seed,
                                   with_encoder=False)
            semisup_train(sup, xl, yl, np.empty((0, x.shape[1])),
                          CorruptionSpec(0.0, seed=seed), beta=0.0, epochs=60)
            sup_accs.append(accuracy(sup, xt, yt))

            semi = build_vime_model(x.shape[1], 4, latent_dim=32,
                                    predictor_hidden=(64,), seed=seed)
            spec = CorruptionSpec(0.3, seed=seed)
            pretext_train(semi, xu, spec, epochs=20)
            semisup_train(semi, xl, yl, xu, spec, beta=0.5, k_corruptions=3,
                          epochs=60)
            semi_accs.append(accuracy(semi, xt, yt))
        assert np.mean(semi_accs) >= np.mean(sup_accs)


class TestPredict:
    def test_zero_logits_tie_break(self):
        predictor = ModelGraph([DenseLayer(np.zeros((4, 3)), np.zeros(3), "softmax")])
        model = VimeModel(None, predictor)
        labels, conf = predict(model, np.ones((2, 4)))
        assert np.all(labels == 0)  # ties break to the lowest class index
        assert np.allclose(conf, 1 / 3)

    def test_saturating_logits(self):
        w = np.zeros((2, 3))
        w[0, 2] = 50.0
        predictor = ModelGraph([DenseLayer(w, np.zeros(3), "softmax")])
        model = VimeModel(None, predictor)
        labels, conf = predict(model, np.array([[1.0, 0.0]]))
        assert labels[0] == 2
        assert conf[0] > 1 - 1e-12

    def test_confidence_bounds(self):
        rng = np.random.default_rng(0)
        model = build_vime_model(5, 4, predictor_hidden=(8,), seed=3, with_encoder=False)
        _, conf = predict(model, rng.normal(size=(64, 5)))
        assert np.all(conf >= 1 / 4 - 1e-12)
        assert np.all(conf <= 1.0)
