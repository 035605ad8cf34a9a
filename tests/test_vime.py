import numpy as np
import pytest

from progtab import nn, vime
from progtab.data import SplitSpec, SyntheticSpec, make_split, synthesize_dataset
from progtab.encoding import encode, fit_cpr
from progtab.nn import DenseLayer, ModelGraph
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
    if model.encoder is not None:
        parts = [model.encoder, model.feature_decoder, model.mask_decoder, model.predictor]
    return [l.weight.copy() for part in parts for l in part.layers]


class TestCorrupt:
    def test_zero_probability_is_identity(self):
        x = np.random.default_rng(0).normal(size=(8, 5))
        xt, mask = corrupt(x, 0.0, np.random.default_rng(1))
        assert np.array_equal(xt, x)
        assert np.all(mask == 0)

    def test_identical_rows_degenerate_marginal(self):
        x = np.ones((6, 4)) * 3.5
        xt, mask = corrupt(x, 1.0, np.random.default_rng(2))
        assert np.array_equal(xt, x)
        assert np.all(mask == 1)

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


def eval_recon(model: VimeModel, x, spec: CorruptionSpec) -> float:
    xt, _ = corrupt(x, spec.p_mask, nn.seeded_rng(spec.seed, "eval"))
    h = model.encoder.forward(xt).output
    recon = model.feature_decoder.forward(h).output
    loss, _ = nn.loss_reconstruction(recon, x)
    return loss


class TestBuild:
    @pytest.mark.parametrize("with_encoder", [True, False])
    def test_every_component_is_float32(self, with_encoder):
        model = build_vime_model(6, 2, latent_dim=8, seed=0, with_encoder=with_encoder)
        parts = [model.encoder, model.feature_decoder, model.mask_decoder, model.predictor]
        for part in parts[0 if with_encoder else 3:]:
            assert part.params.dtype == np.float32


class TestPretext:
    def test_rank1_reconstruction_improves_10x(self):
        x = rank1_dataset()
        spec = CorruptionSpec(0.3, seed=2)
        model = build_vime_model(6, 2, latent_dim=8, seed=3)
        before = eval_recon(model, x, spec)
        model, curve = pretext_train(model, x, spec, epochs=60, batch_size=64,
                                     learning_rate=3e-3)
        after = eval_recon(model, x, spec)
        assert after < 0.1 * before
        assert curve[-1]["reconstruction"] < curve[0]["reconstruction"]

    def test_fixed_seed_reproducible(self):
        x = rank1_dataset()
        spec = CorruptionSpec(0.3, seed=4)
        a = build_vime_model(6, 2, latent_dim=8, seed=5)
        b = build_vime_model(6, 2, latent_dim=8, seed=5)
        pretext_train(a, x, spec, epochs=3)
        pretext_train(b, x, spec, epochs=3)
        for wa, wb in zip(model_weights(a), model_weights(b)):
            assert np.array_equal(wa, wb)

    @pytest.mark.parametrize("n_rows,batch_size", [(0, 256), (1, 256), (50, 1)])
    def test_no_batch_of_two_rows_rejected(self, n_rows, batch_size):
        # every batch would be skipped, leaving NaN epoch losses
        model = build_vime_model(6, 2, latent_dim=8, seed=0)
        with pytest.raises(ValueError, match="no batch of at least 2 rows"):
            pretext_train(model, rank1_dataset()[:n_rows], CorruptionSpec(0.3, seed=1),
                          epochs=1, batch_size=batch_size)

    def test_two_rows_train(self):
        model = build_vime_model(6, 2, latent_dim=8, seed=0)
        _, curve = pretext_train(model, rank1_dataset()[:2], CorruptionSpec(0.3, seed=1),
                                 epochs=2)
        assert all(np.isfinite(v) for e in curve for v in e.values())


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
        _, curve = semisup_train(
            model, x[split.labeled_idx], y[split.labeled_idx], x[split.unlabeled_idx],
            CorruptionSpec(0.0, seed=2), beta=1.0, k_corruptions=2, epochs=3,
        )
        assert all(e["consistency"] == 0.0 for e in curve)

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
        initial = predictor.copy()
        corrupted, grads = [], []
        real_corrupt = vime.corrupt

        def recording_corrupt(*args):
            out = real_corrupt(*args)
            corrupted.append(out[0])
            return out

        def recording_step(opt, model, g):
            grads.append(g.copy())
            nn.step(opt, model, g)

        monkeypatch.setattr(vime, "corrupt", recording_corrupt)
        monkeypatch.setattr(vime, "step", recording_step)
        semisup_train(VimeModel(None, None, None, predictor), x_lab, y_lab, x_unlab,
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
        model = VimeModel(None, None, None, predictor)
        labels, conf = predict(model, np.ones((2, 4)))
        assert np.all(labels == 0)  # ties break to the lowest class index
        assert np.allclose(conf, 1 / 3)

    def test_saturating_logits(self):
        w = np.zeros((2, 3))
        w[0, 2] = 50.0
        predictor = ModelGraph([DenseLayer(w, np.zeros(3), "softmax")])
        model = VimeModel(None, None, None, predictor)
        labels, conf = predict(model, np.array([[1.0, 0.0]]))
        assert labels[0] == 2
        assert conf[0] > 1 - 1e-12

    def test_confidence_bounds(self):
        rng = np.random.default_rng(0)
        model = build_vime_model(5, 4, predictor_hidden=(8,), seed=3, with_encoder=False)
        _, conf = predict(model, rng.normal(size=(64, 5)))
        assert np.all(conf >= 1 / 4 - 1e-12)
        assert np.all(conf <= 1.0)
