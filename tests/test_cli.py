import json
import os

import numpy as np
import pytest

from progtab.cli import (
    SYNTHETIC_PRESETS,
    ablation_methods,
    emit_ratio_sweep,
    main,
    method_presets,
    parse_experiment_config,
    render_table,
    run_experiment,
)
from progtab.data import load_csv
from progtab.progressive import ExperimentReport


def fast_overrides():
    return dict(latent_dim=8, predictor_hidden=[16], pretext_epochs=1,
                semisup_epochs=2, batch_size=64, encoder_epochs=2,
                warmup_epochs=1, knn_k=10)


def tiny_payload(tmp_path, methods, seeds=(0,), n_rows=400):
    return {
        "dataset": {"kind": "synthetic",
                    "spec": {"n_rows": n_rows, "n_cat_cols": 2, "cardinality": 10,
                             "n_num_cols": 2, "n_classes": 3,
                             "signal_strength": 1.2, "seed": 5}},
        "split": {"train_fraction": 0.8, "labeled_fraction_of_train": 0.15, "seed": 0},
        "methods": methods,
        "seeds": list(seeds),
        "output_dir": str(tmp_path / "out"),
    }


class TestConfigParsing:
    def test_presets_cover_method_matrix(self):
        presets = method_presets()
        assert {"supervised", "vime_self", "vime_semi", "cmixup",
                "progressive_vime_semi_refine",
                "progressive_cmixup_refine_classifier"} <= set(presets)
        for cfg in presets.values():
            assert cfg.validate() == []

    def test_overrides_applied(self, tmp_path):
        payload = tiny_payload(tmp_path, [
            {"preset": "supervised", "overrides": {"semisup_epochs": 7}}])
        cfg = parse_experiment_config(payload)
        assert cfg.methods[0].semisup_epochs == 7

    def test_unknown_field_rejected(self, tmp_path):
        # the last five were RunConfig fields once; old configs must not
        # silently lose them
        for field in ("bogus_field", "accumulate_pseudo_labels", "warm_start",
                      "optimizer", "propagation_source", "mixup_pairs_per_anchor"):
            payload = tiny_payload(tmp_path, [
                {"preset": "supervised", "overrides": {field: 1}}])
            with pytest.raises(Exception, match=field):
                parse_experiment_config(payload)

    def test_env_var_default_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PROGTAB_OUT", str(tmp_path / "envout"))
        payload = tiny_payload(tmp_path, [{"preset": "supervised"}])
        del payload["output_dir"]
        cfg = parse_experiment_config(payload)
        assert cfg.output_dir == str(tmp_path / "envout")


class TestValidate:
    def base(self, tmp_path, methods):
        return parse_experiment_config(tiny_payload(tmp_path, methods))

    def test_vime_two_step_invalid(self, tmp_path):
        cfg = self.base(tmp_path, [
            {"preset": "vime_semi", "overrides": {"refinement_mode": "two_step_agreement"}}])
        problems = cfg.validate()
        assert any("two_step" in p for p in problems)

    def test_cmixup_propagation_without_classifier_valid(self, tmp_path):
        cfg = self.base(tmp_path, [{"preset": "progressive_cmixup_refine"}])
        assert cfg.validate() == []

    def test_empty_seeds_invalid(self, tmp_path):
        payload = tiny_payload(tmp_path, [{"preset": "supervised"}], seeds=())
        cfg = parse_experiment_config(payload)
        assert any("seeds" in p for p in cfg.validate())

    def test_classifier_threshold_needs_classifier_flag(self, tmp_path):
        cfg = self.base(tmp_path, [
            {"preset": "cmixup",
             "overrides": {"refinement_mode": "classifier_threshold"}}])
        assert any("classifier" in p for p in cfg.validate())


class TestRunExperiment:
    def test_supervised_single_seed(self, tmp_path):
        payload = tiny_payload(tmp_path, [
            {"preset": "supervised", "overrides": fast_overrides()}])
        cfg = parse_experiment_config(payload)
        table, reports = run_experiment(cfg)
        assert len(reports) == 1
        assert len(table.cells) == 1
        out = payload["output_dir"]
        assert os.path.exists(os.path.join(out, "results.csv"))
        assert os.path.exists(os.path.join(out, "results.md"))
        report_files = os.listdir(os.path.join(out, "reports"))
        assert len(report_files) == 1

    def test_rerun_identical_raw_values(self, tmp_path):
        payload = tiny_payload(tmp_path, [
            {"preset": "vime_semi", "overrides": fast_overrides()}], seeds=(1, 2))
        cfg = parse_experiment_config(payload)
        t1, _ = run_experiment(cfg)
        t2, _ = run_experiment(cfg)
        assert t1.cells == t2.cells

    def test_table_rerenders_from_stored_reports(self, tmp_path):
        payload = tiny_payload(tmp_path, [
            {"preset": "supervised", "overrides": fast_overrides()}], seeds=(3, 4))
        cfg = parse_experiment_config(payload)
        table, reports = run_experiment(cfg)
        report_dir = os.path.join(payload["output_dir"], "reports")
        loaded = [ExperimentReport.from_json(open(os.path.join(report_dir, f)).read())
                  for f in sorted(os.listdir(report_dir))]
        rebuilt = render_table(loaded, table.methods)
        assert rebuilt.to_json() == table.to_json()
        assert rebuilt.to_csv() == table.to_csv()

    def test_cell_stats_recomputable(self, tmp_path):
        payload = tiny_payload(tmp_path, [
            {"preset": "supervised", "overrides": fast_overrides()}], seeds=(5, 6, 7))
        cfg = parse_experiment_config(payload)
        table, reports = run_experiment(cfg)
        cell = table.cells["supervised"]
        raw = np.array(cell["raw"])
        assert abs(raw.mean() - cell["mean"]) < 1e-12
        assert abs(raw.std() - cell["std"]) < 1e-12


class TestAblationMatrix:
    def test_matrix_shape(self):
        methods = ablation_methods()
        assert len(methods) == 18  # 6 component sets x 3 modes
        names = {m.name for m in methods}
        assert len(names) == 18
        for m in methods:
            assert m.validate() == []


class TestRatioSweep:
    def test_rows_and_format(self, tmp_path):
        payload = tiny_payload(tmp_path, [
            {"preset": "supervised", "overrides": fast_overrides()},
            {"preset": "vime_semi", "overrides": fast_overrides()},
        ], n_rows=300)
        cfg = parse_experiment_config(payload)
        ratios = [0.1, 0.3, 0.5, 0.7, 0.9]
        rows, warnings = emit_ratio_sweep(cfg, ratios)
        assert len(rows) == 10  # 5 ratios x 2 methods
        csv_path = os.path.join(payload["output_dir"], "ratio_sweep.csv")
        lines = open(csv_path).read().strip().split("\n")
        assert lines[0] == "method,ratio,mean_acc,std_acc,n_seeds"
        assert len(lines) == 11

    def test_bad_ratio_rejected(self, tmp_path):
        payload = tiny_payload(tmp_path, [{"preset": "supervised"}])
        cfg = parse_experiment_config(payload)
        with pytest.raises(Exception):
            emit_ratio_sweep(cfg, [1.5])


class TestCliEntry:
    def test_validate_verb(self, tmp_path):
        payload = tiny_payload(tmp_path, [{"preset": "supervised"}])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        assert main(["validate", "--config", str(cfg_path)]) == 0

    def test_validate_verb_bad_config(self, tmp_path):
        payload = tiny_payload(tmp_path, [
            {"preset": "vime_semi", "overrides": {"refinement_mode": "two_step_agreement"}}])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        assert main(["validate", "--config", str(cfg_path)]) == 1

    def test_jobs_only_on_run_verb(self, tmp_path):
        payload = tiny_payload(tmp_path, [{"preset": "supervised"}])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--config", str(cfg_path), "--jobs", "2"])
        assert exc.value.code == 2

    def test_run_verb(self, tmp_path, capsys):
        payload = tiny_payload(tmp_path, [
            {"preset": "supervised", "overrides": fast_overrides()}])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert "supervised" in capsys.readouterr().out

    def test_synth_verb_round_trips(self, tmp_path):
        out = tmp_path / "synth.csv"
        spec = {"n_rows": 50, "n_cat_cols": 2, "cardinality": 5,
                "n_num_cols": 1, "n_classes": 3, "signal_strength": 1.0, "seed": 9}
        assert main(["synth", "--spec", json.dumps(spec), "--out", str(out)]) == 0
        ds = load_csv(out, label_column="label")
        assert ds.n_rows == 50
        assert ds.num_classes == 3

    def test_synth_verb_bad_spec_exits_1(self, tmp_path):
        spec = json.dumps({"n_rows": 50, "bogus": 1})
        assert main(["synth", "--spec", spec, "--out", str(tmp_path / "s.csv")]) == 1

    def test_gradcheck_verb(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "supcon" in out and "worst" in out

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) in (1, 2)

    @pytest.mark.parametrize("argv", [
        ["validate", "--seeds", "a"],
        ["run", "--seeds", "1,,2"],
        ["sweep-ratio", "--ratios", "x"],
    ])
    def test_malformed_number_list_exits_1(self, tmp_path, capsys, argv):
        payload = tiny_payload(tmp_path, [{"preset": "supervised"}])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        assert main([argv[0], "--config", str(cfg_path), *argv[1:]]) == 1
        assert f"{argv[1]} takes comma-separated numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda spec: spec.update(bogus=1),
        lambda spec: spec.pop("n_rows"),
        lambda spec: spec.update(n_classes=1),
    ], ids=["unknown-field", "missing-field", "rejected-value"])
    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_bad_synthetic_spec_exits_1(self, tmp_path, capsys, edit, verb):
        payload = tiny_payload(tmp_path, [{"preset": "supervised"}])
        edit(payload["dataset"]["spec"])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        assert main([verb, "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert "synthetic spec" in captured.out + captured.err
        assert "config ok" not in captured.out


class TestPresetDatasets:
    def test_preset_definitions(self):
        assert SYNTHETIC_PRESETS["small"].n_rows == 2_000
        assert SYNTHETIC_PRESETS["small"].cardinality == 50
        assert SYNTHETIC_PRESETS["medium"].n_rows == 20_000
        assert SYNTHETIC_PRESETS["medium"].cardinality == 500
        assert SYNTHETIC_PRESETS["highcard"].n_rows == 50_000
        assert SYNTHETIC_PRESETS["highcard"].cardinality == 5_000


class TestTimingBudget:
    def test_supervised_small_preset_under_60s(self, tmp_path):
        import time

        payload = {
            "dataset": {"kind": "synthetic", "preset": "small"},
            "split": {"train_fraction": 0.8, "labeled_fraction_of_train": 0.1, "seed": 0},
            "methods": [{"preset": "supervised"}],
            "seeds": [0],
            "output_dir": str(tmp_path / "out"),
        }
        cfg = parse_experiment_config(payload)
        t0 = time.perf_counter()
        table, reports = run_experiment(cfg)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        assert len(table.cells) == 1
