import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progtab.data import ColumnSchema, DataSplit, SplitSpec, SyntheticSpec, TabularDataset, make_split, synthesize_dataset
from progtab.encoding import encode, fit_cpr, fit_target_encoding, update_counts
from progtab.progressive import (
    DEFAULT_SEEDS,
    ConfigError,
    ExperimentReport,
    PseudoLabelSet,
    RunConfig,
    compare_runs,
    refine_pseudo_labels,
    run_progressive,
    update_representation,
)


class TestRefine:
    def test_two_step_agreement_kept(self):
        pls = PseudoLabelSet(np.array([0]), np.array([2]),
                             classifier_labels=np.array([2]),
                             propagation_weight=np.array([0.95]))
        out = refine_pseudo_labels(pls, "two_step_agreement", propagation_threshold=0.9)
        assert out.kept.tolist() == [True]

    def test_two_step_disagreement_dropped(self):
        pls = PseudoLabelSet(np.array([0]), np.array([1]),
                             classifier_labels=np.array([2]),
                             propagation_weight=np.array([0.99]))
        out = refine_pseudo_labels(pls, "two_step_agreement", propagation_threshold=0.9)
        assert out.kept.tolist() == [False]

    def test_none_keeps_everything(self):
        pls = PseudoLabelSet(np.arange(5), np.zeros(5, dtype=int),
                             kept=np.array([True, False, True, False, True]))
        out = refine_pseudo_labels(pls, "none")
        assert out.kept.all()

    def test_missing_fields_rejected(self):
        pls = PseudoLabelSet(np.array([0]), np.array([1]))
        with pytest.raises(ConfigError):
            refine_pseudo_labels(pls, "classifier_threshold")
        with pytest.raises(ConfigError):
            refine_pseudo_labels(pls, "two_step_agreement")

    def test_pure_function(self):
        pls = PseudoLabelSet(np.array([0, 1]), np.array([1, 0]),
                             classifier_conf=np.array([0.5, 0.99]))
        before = pls.kept.copy()
        refine_pseudo_labels(pls, "classifier_threshold", classifier_threshold=0.9)
        assert np.array_equal(pls.kept, before)

    @given(
        tau_lo=st.floats(0.0, 1.0),
        tau_hi=st.floats(0.0, 1.0),
        seed=st.integers(0, 5000),
    )
    @settings(max_examples=60, deadline=None)
    def test_threshold_monotonicity(self, tau_lo, tau_hi, seed):
        if tau_lo > tau_hi:
            tau_lo, tau_hi = tau_hi, tau_lo
        rng = np.random.default_rng(seed)
        n = 40
        pls = PseudoLabelSet(
            np.arange(n), rng.integers(0, 3, n),
            classifier_conf=rng.random(n),
            classifier_labels=rng.integers(0, 3, n),
            propagation_weight=rng.random(n),
        )
        for mode, kw in (("classifier_threshold", "classifier_threshold"),
                         ("propagation_threshold", "propagation_threshold"),
                         ("two_step_agreement", "propagation_threshold")):
            hi = refine_pseudo_labels(pls, mode, **{kw: tau_hi})
            lo = refine_pseudo_labels(pls, mode, **{kw: tau_lo})
            assert np.all(lo.kept | ~hi.kept)  # kept(hi) subset of kept(lo)

    def test_two_step_nested_in_propagation_threshold(self):
        rng = np.random.default_rng(0)
        n = 100
        pls = PseudoLabelSet(
            np.arange(n), rng.integers(0, 3, n),
            classifier_labels=rng.integers(0, 3, n),
            propagation_weight=rng.random(n),
        )
        two = refine_pseudo_labels(pls, "two_step_agreement", propagation_threshold=0.7)
        prop = refine_pseudo_labels(pls, "propagation_threshold", propagation_threshold=0.7)
        full = refine_pseudo_labels(pls, "none")
        assert np.all(prop.kept | ~two.kept)
        assert np.all(full.kept | ~prop.kept)


def five_row_dataset():
    schema = (ColumnSchema("c", "categorical", 2, ("a", "b")),)
    cells = np.array([[0.0], [0.0], [0.0], [1.0], [1.0]])
    labels = np.array([0, 0, 1, 0, 1])
    return TabularDataset(schema, cells, labels, 2)


class TestUpdateRepresentation:
    def test_empty_kept_is_identity(self):
        ds = five_row_dataset()
        labeled = np.array([0, 3])
        base = fit_cpr(ds, labeled, ds.labels[labeled], alpha=0.0)
        kept = PseudoLabelSet(np.array([], dtype=int), np.array([], dtype=int))
        out = update_representation(ds, base, kept, labeled, ds.labels[labeled])
        assert np.array_equal(out.counts["c"], base.counts["c"])

    def test_truth_for_all_unlabeled_equals_full_fit(self):
        ds = synthesize_dataset(SyntheticSpec(300, 2, 8, 1, 3, 1.0, 0))
        split = make_split(ds, SplitSpec(0.8, 0.2, 0))
        base = fit_cpr(ds, split.labeled_idx, ds.labels[split.labeled_idx])
        kept = PseudoLabelSet(split.unlabeled_idx, ds.labels[split.unlabeled_idx])
        out = update_representation(ds, base, kept, split.labeled_idx,
                                    ds.labels[split.labeled_idx])
        full = fit_cpr(ds, split.train_idx, ds.labels[split.train_idx])
        for name in out.counts:
            assert np.array_equal(out.counts[name], full.counts[name])

    def test_wrong_pseudo_labels_shift_mass_by_count_arithmetic(self):
        # rows 0,3 labeled (both class 0); base: a -> [1,0], b -> [1,0].
        # wrong pseudo-labels: rows 1,2 -> class 1, row 4 -> class 0
        ds = five_row_dataset()
        labeled = np.array([0, 3])
        base = fit_cpr(ds, labeled, ds.labels[labeled], alpha=0.0)
        assert base.counts["c"].tolist() == [[1, 0], [1, 0]]
        kept = PseudoLabelSet(np.array([1, 2, 4]), np.array([1, 1, 0]))
        out = update_representation(ds, base, kept, labeled, ds.labels[labeled])
        assert out.counts["c"].tolist() == [[1, 2], [2, 0]]
        assert np.allclose(out.probabilities("c")[0], [1 / 3, 2 / 3])
        assert np.allclose(out.probabilities("c")[1], [1.0, 0.0])

    def test_rebuild_equals_incremental_update(self):
        ds = synthesize_dataset(SyntheticSpec(400, 2, 10, 0, 3, 1.0, 3))
        split = make_split(ds, SplitSpec(0.8, 0.15, 3))
        base = fit_cpr(ds, split.labeled_idx, ds.labels[split.labeled_idx])
        rng = np.random.default_rng(4)
        pseudo = rng.integers(0, 3, size=split.unlabeled_idx.size)
        keep = rng.random(split.unlabeled_idx.size) < 0.5
        kept = PseudoLabelSet(split.unlabeled_idx, pseudo, kept=keep)
        rebuilt = update_representation(ds, base, kept, split.labeled_idx,
                                        ds.labels[split.labeled_idx])
        incremental = update_counts(base, ds, kept.kept_rows(), kept.kept_labels())
        for name in rebuilt.counts:
            assert np.array_equal(rebuilt.counts[name], incremental.counts[name])

    def test_target_table_rebuild_keeps_its_read_rule(self):
        ds = synthesize_dataset(SyntheticSpec(300, 2, 9, 1, 3, 1.0, 8))
        split = make_split(ds, SplitSpec(0.8, 0.2, 8))
        yl = ds.labels[split.labeled_idx]
        base = fit_target_encoding(ds, split.labeled_idx, yl, smoothing=3.0)
        rng = np.random.default_rng(2)
        pseudo = rng.integers(0, 3, size=split.unlabeled_idx.size)
        kept = PseudoLabelSet(split.unlabeled_idx, pseudo,
                              kept=rng.random(pseudo.size) < 0.5)
        rebuilt = update_representation(ds, base, kept, split.labeled_idx, yl)
        direct = fit_target_encoding(
            ds, np.concatenate([split.labeled_idx, kept.kept_rows()]),
            np.concatenate([yl, kept.kept_labels()]), smoothing=3.0)
        assert rebuilt.smoothing == 3.0
        for name in direct.counts:
            assert np.array_equal(rebuilt.counts[name], direct.counts[name])
            assert np.array_equal(rebuilt.probabilities(name), direct.probabilities(name))

    def test_reencoding_touches_only_changed_blocks(self):
        ds = synthesize_dataset(SyntheticSpec(200, 2, 12, 2, 3, 1.0, 5))
        split = make_split(ds, SplitSpec(0.8, 0.2, 5))
        base = fit_cpr(ds, split.labeled_idx, ds.labels[split.labeled_idx])
        # update with pseudo-labels for rows whose cat0 value is 0 only
        cat0 = ds.rows[:, 0].astype(np.int64)
        rows = split.unlabeled_idx[cat0[split.unlabeled_idx] == 0][:3]
        kept = PseudoLabelSet(rows, np.zeros(rows.size, dtype=int))
        updated = update_representation(ds, base, kept, split.labeled_idx,
                                        ds.labels[split.labeled_idx])
        all_rows = np.arange(ds.n_rows)
        em_a = encode(ds, all_rows, base)
        em_b = encode(ds, all_rows, updated)
        # numeric passthrough identical
        for name in ("num0", "num1"):
            s, e = em_a.blocks[name]
            assert np.array_equal(em_a.matrix[:, s:e], em_b.matrix[:, s:e])
        # cat1 was never part of the update rows' changes? it was: those rows
        # have cat1 values too. Only rows whose cat0 value != 0 AND whose cat1
        # value was untouched keep identical blocks.
        cat1 = ds.rows[:, 1].astype(np.int64)
        touched_cat1 = set(cat1[rows].tolist())
        s, e = em_a.blocks["cat0"]
        untouched_rows = cat0 != 0
        assert np.array_equal(em_a.matrix[untouched_rows, s:e],
                              em_b.matrix[untouched_rows, s:e])
        s, e = em_a.blocks["cat1"]
        safe = ~np.isin(cat1, list(touched_cat1))
        assert np.array_equal(em_a.matrix[safe, s:e], em_b.matrix[safe, s:e])


def tiny_config(**kw):
    defaults = dict(
        pipeline="vime", n_runs=2, seed=1, latent_dim=8,
        predictor_hidden=(16,), pretext_epochs=2, semisup_epochs=2,
        batch_size=64, refinement_mode="classifier_threshold",
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def tiny_problem(seed=0, n=400):
    ds = synthesize_dataset(SyntheticSpec(n, 2, 10, 2, 3, 1.2, seed))
    split = make_split(ds, SplitSpec(0.8, 0.15, seed))
    return ds, split


class TestRunProgressive:
    def test_degenerate_config_matches_baseline(self):
        ds, split = tiny_problem()
        progressive = tiny_config(n_runs=1, update_enabled=False,
                                  refinement_mode="classifier_threshold")
        baseline = tiny_config(n_runs=1, update_enabled=False,
                               refinement_mode="none", name="baseline")
        a = run_progressive(ds, split, progressive)
        b = run_progressive(ds, split, baseline)
        assert a.final_test_accuracy == b.final_test_accuracy
        assert a.runs[0].test_accuracy == b.runs[0].test_accuracy

    def test_deterministic_rerun(self):
        ds, split = tiny_problem(seed=1)
        cfg = tiny_config(seed=7)
        a = run_progressive(ds, split, cfg)
        b = run_progressive(ds, split, cfg)
        assert [r.test_accuracy for r in a.runs] == [r.test_accuracy for r in b.runs]
        assert [r.kept_fraction for r in a.runs] == [r.kept_fraction for r in b.runs]

    def test_report_round_trip(self):
        ds, split = tiny_problem(seed=2)
        report = run_progressive(ds, split, tiny_config(seed=3))
        back = ExperimentReport.from_json(report.to_json())
        assert back.final_test_accuracy == report.final_test_accuracy
        assert back.runs == report.runs
        assert back.config == report.config

    def test_report_with_removed_config_fields_loads(self):
        # reports written before warm_start, optimizer and the other unused
        # switches were removed carry them in their config dict
        ds, split = tiny_problem(seed=2)
        payload = json.loads(run_progressive(ds, split, tiny_config(seed=3)).to_json())
        payload["config"].update(accumulate_pseudo_labels=False, warm_start=False,
                                 optimizer="adam", propagation_source="encoder",
                                 mixup_pairs_per_anchor=1)
        back = ExperimentReport.from_json(json.dumps(payload))
        assert back.config["warm_start"] is False
        assert back.final_test_accuracy == payload["final_test_accuracy"]

    def test_one_unlabeled_row_fails_loudly(self):
        # pretext training would skip its only batch and report NaN losses
        ds, split = tiny_problem(seed=5)
        one = DataSplit(split.labeled_idx, split.unlabeled_idx[:1], split.test_idx)
        with pytest.raises(ValueError, match="no batch of at least 2 rows"):
            run_progressive(ds, one, tiny_config(seed=5))

    def test_cmixup_pipeline_runs(self):
        ds, split = tiny_problem(seed=3)
        cfg = RunConfig(
            pipeline="cmixup", n_runs=2, seed=2, latent_dim=8,
            predictor_hidden=(16,), warmup_epochs=1, encoder_epochs=2,
            semisup_epochs=2, knn_k=10, batch_size=64,
            refinement_mode="two_step_agreement",
        )
        report = run_progressive(ds, split, cfg)
        assert len(report.runs) == 2
        assert all(0.0 <= r.test_accuracy <= 1.0 for r in report.runs)
        assert all(r.pseudo_precision is None or 0.0 <= r.pseudo_precision <= 1.0
                   for r in report.runs)
        # propagation weight histogram: 10 bins covering all unlabeled rows
        for r in report.runs:
            assert sum(r.weight_histogram) == split.unlabeled_idx.size

    def test_invalid_config_rejected(self):
        ds, split = tiny_problem(seed=4)
        with pytest.raises(ConfigError):
            run_progressive(ds, split, tiny_config(refinement_mode="two_step_agreement"))

    def test_n_runs_defaults_per_pipeline(self):
        assert RunConfig(pipeline="vime").resolved_n_runs() == 5
        assert RunConfig(pipeline="cmixup").resolved_n_runs() == 4


class TestRefinementPrecisionSimulation:
    def test_refined_precision_beats_unrefined(self):
        # simulated 70%-accurate pseudo-labeler whose confidence is
        # calibrated-correlated with correctness
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n, c = 2000, 4
            truth = rng.integers(0, c, n)
            correct = rng.random(n) < 0.7
            labels = truth.copy()
            wrong = ~correct
            labels[wrong] = (truth[wrong] + rng.integers(1, c, wrong.sum())) % c
            conf = np.where(correct, rng.beta(8, 2, n), rng.beta(2, 4, n))
            pls = PseudoLabelSet(np.arange(n), labels, classifier_conf=conf)
            refined = refine_pseudo_labels(pls, "classifier_threshold",
                                           classifier_threshold=0.9)
            assert refined.kept.any()
            kept_precision = (refined.kept_labels() == truth[refined.kept]).mean()
            base_precision = (labels == truth).mean()
            if kept_precision > base_precision:
                wins += 1
            # nesting under increasing threshold
            tighter = refine_pseudo_labels(pls, "classifier_threshold",
                                           classifier_threshold=0.95)
            assert np.all(refined.kept | ~tighter.kept)
        assert wins == 20


class TestCompareRuns:
    def make_report(self, method, seed, acc):
        return ExperimentReport(method, seed, {}, [], acc, 0.0)

    def test_identical_reports_zero_std(self):
        reports = [self.make_report("m", s, 0.75) for s in range(3)]
        out = compare_runs(reports)
        assert out["m"]["std"] == 0.0
        assert out["m"]["mean"] == 0.75

    def test_two_values_mean(self):
        reports = [self.make_report("m", 0, 0.6), self.make_report("m", 1, 0.8)]
        out = compare_runs(reports)
        assert out["m"]["mean"] == pytest.approx(0.7)

    def test_default_seed_protocol(self):
        assert DEFAULT_SEEDS == (123, 127, 131, 137)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            compare_runs([])


class TestUpdateDisabledNeverMutates:
    def test_no_table_rebuild_when_update_disabled(self, monkeypatch):
        import progtab.progressive as prog_mod

        calls = []
        original = prog_mod.update_representation

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(prog_mod, "update_representation", spy)
        ds, split = tiny_problem(seed=9)
        run_progressive(ds, split, tiny_config(n_runs=3, update_enabled=False, seed=9))
        assert calls == []
        run_progressive(ds, split, tiny_config(n_runs=3, update_enabled=True, seed=9))
        assert len(calls) == 2  # rebuilt between runs only
