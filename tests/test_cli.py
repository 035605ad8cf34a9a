import csv
import io
import json
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from progtab.cli import (
    ResultsTable,
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
from progtab.progressive import ConfigError, ExperimentReport


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
        # all but the first were RunConfig fields once; old configs must not
        # silently lose them
        for field in ("bogus_field", "accumulate_pseudo_labels", "warm_start",
                      "optimizer", "propagation_source", "mixup_pairs_per_anchor",
                      "fine_tune_encoder", "laplace_alpha", "projection_dim",
                      "alpha_mask", "w_recon", "w_supcon", "w_clf",
                      "supcon_temperature", "mixup_beta_alpha", "alpha_diff",
                      "learning_rate", "encoder_hidden"):
            payload = tiny_payload(tmp_path, [
                {"preset": "supervised", "overrides": {field: 1}}])
            with pytest.raises(Exception, match=field):
                parse_experiment_config(payload)

    @pytest.mark.parametrize("field,value", [
        ("predictor_hidden", "abc"), ("predictor_hidden", [16.5]), ("semisup_epochs", 7.5),
        ("update_enabled", 1), ("knn_k", True), ("p_mask", "0.1"),
        ("refinement_mode", 3), ("n_runs", "2"), ("component_flags", [1]),
    ])
    def test_ill_typed_override_rejected(self, tmp_path, field, value):
        for entry in ({"preset": "supervised", "overrides": {field: value}},
                      {"preset": "cmixup_ablation_matrix", "overrides": {field: value}}):
            with pytest.raises(ConfigError, match=f"RunConfig field '{field}'"):
                parse_experiment_config(tiny_payload(tmp_path, [entry]))

    def test_well_typed_overrides_accepted(self, tmp_path):
        overrides = {"beta_consistency": 2, "n_runs": None, "predictor_hidden": [16],
                     "update_enabled": False, "name": "x",
                     "component_flags": ["decoder"], "classifier_threshold": 0.5}
        cfg = parse_experiment_config(tiny_payload(tmp_path, [
            {"preset": "supervised", "overrides": overrides}]))
        assert cfg.methods[0].beta_consistency == 2
        assert cfg.methods[0].predictor_hidden == (16,)
        assert cfg.methods[0].n_runs is None

    @pytest.mark.parametrize("beta", ["-1", "NaN"])
    def test_negative_or_nan_beta_rejected(self, tmp_path, beta):
        # Python's json reads NaN, which fails no "< 0" test
        text = json.dumps(tiny_payload(tmp_path, [
            {"preset": "vime_semi", "overrides": {"beta_consistency": 0.5}}]))
        payload = json.loads(text.replace('"beta_consistency": 0.5', f'"beta_consistency": {beta}'))
        with pytest.raises(ConfigError, match="beta_consistency must be >= 0"):
            parse_experiment_config(payload)

    @pytest.mark.parametrize("strength", ["-1", "NaN"])
    def test_negative_or_nan_signal_strength_rejected(self, tmp_path, strength):
        text = json.dumps(tiny_payload(tmp_path, [{"preset": "supervised"}]))
        payload = json.loads(text.replace('"signal_strength": 1.2', f'"signal_strength": {strength}'))
        with pytest.raises(ConfigError, match="synthetic spec: signal_strength must be >= 0"):
            parse_experiment_config(payload)

    def test_unknown_split_key_rejected(self, tmp_path):
        payload = tiny_payload(tmp_path, [{"preset": "supervised"}])
        payload["split"]["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            parse_experiment_config(payload)

    def test_env_var_default_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PROGTAB_OUT", str(tmp_path / "envout"))
        payload = tiny_payload(tmp_path, [{"preset": "supervised"}])
        del payload["output_dir"]
        cfg = parse_experiment_config(payload)
        assert cfg.output_dir == str(tmp_path / "envout")


class TestValidate:
    """Parsing runs every check, so a parsed config is a valid one."""

    def test_vime_two_step_invalid(self, tmp_path):
        with pytest.raises(ConfigError, match="two_step"):
            parse_experiment_config(tiny_payload(tmp_path, [
                {"preset": "vime_semi",
                 "overrides": {"refinement_mode": "two_step_agreement"}}]))

    def test_cmixup_propagation_without_classifier_valid(self, tmp_path):
        cfg = parse_experiment_config(tiny_payload(tmp_path, [
            {"preset": "progressive_cmixup_refine"}]))
        assert [m.name for m in cfg.methods] == ["progressive_cmixup_refine"]

    def test_empty_seeds_invalid(self, tmp_path):
        payload = tiny_payload(tmp_path, [{"preset": "supervised"}], seeds=())
        with pytest.raises(ConfigError, match="seeds"):
            parse_experiment_config(payload)

    def test_methods_whose_reports_share_a_file_invalid(self, tmp_path):
        # both names slug to "sup-a", so one report would replace the other
        payload = tiny_payload(tmp_path, [{"preset": "supervised", "name": "sup a"},
                                          {"preset": "supervised", "name": "sup-a"}])
        with pytest.raises(ConfigError, match="'sup a' and 'sup-a'"):
            parse_experiment_config(payload)

    def test_classifier_threshold_needs_classifier_flag(self, tmp_path):
        with pytest.raises(ConfigError, match="classifier"):
            parse_experiment_config(tiny_payload(tmp_path, [
                {"preset": "cmixup",
                 "overrides": {"refinement_mode": "classifier_threshold"}}]))


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
        loaded = [ExperimentReport.from_json(Path(report_dir, f).read_text())
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


class TestCsvOutputs:
    NAME = 'sup,b "quoted"'

    def test_results_csv_round_trips_a_comma_and_a_quote(self, tmp_path):
        payload = tiny_payload(tmp_path, [
            {"preset": "supervised", "overrides": fast_overrides(), "name": self.NAME}])
        table, _ = run_experiment(parse_experiment_config(payload))
        text = Path(payload["output_dir"], "results.csv").read_text()
        header, row = csv.reader(io.StringIO(text))
        assert len(header) == len(row) == 5
        cell = table.cells[self.NAME]
        assert row == [self.NAME, repr(cell["mean"]), repr(cell["std"]),
                       str(cell["n_seeds"]), cell["formatted"]]

    def test_ratio_sweep_csv_round_trips_a_comma_and_a_quote(self, tmp_path):
        payload = tiny_payload(tmp_path, [
            {"preset": "supervised", "overrides": fast_overrides(), "name": self.NAME}],
            n_rows=300)
        rows, _ = emit_ratio_sweep(parse_experiment_config(payload), [0.3])
        text = Path(payload["output_dir"], "ratio_sweep.csv").read_text()
        header, row = csv.reader(io.StringIO(text))
        assert header == ["method", "ratio", "mean_acc", "std_acc", "n_seeds"]
        name, ratio, mean, std, n = rows[0]
        assert row == [name, repr(ratio), repr(mean), repr(std), str(n)]
        assert name == self.NAME


def markdown_cells(row):
    """The cells of a Markdown table row, read as GitHub does: a backslash
    escapes the character after it, and an unescaped `|` ends a cell."""
    cells = re.findall(r"\|((?:\\.|[^\\|])*)", row)[:-1]
    return [re.sub(r"\\([\\|])", r"\1", c).strip() for c in cells]


class TestMarkdownOutput:
    CELL = {"formatted": "50.00% (±0.000)"}

    @pytest.mark.parametrize("name", ["sup|b", "a\\|b", "x\\\\|", "|"])
    def test_a_pipe_in_a_method_name_keeps_two_cells(self, name):
        text = ResultsTable([name], {name: self.CELL}).to_markdown()
        header, rule, row = text.splitlines()
        assert len(markdown_cells(header)) == 2
        assert markdown_cells(row) == [name, self.CELL["formatted"]]

    def test_names_without_a_pipe_are_written_as_they_are(self):
        names = ["sup a", "back\\slash", "sup-b"]
        text = ResultsTable(names, {m: self.CELL for m in names}).to_markdown()
        assert text.splitlines()[2:] == [f"| {m} | 50.00% (±0.000) |" for m in names]


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
        lines = Path(csv_path).read_text().strip().split("\n")
        assert lines[0] == "method,ratio,mean_acc,std_acc,n_seeds"
        assert len(lines) == 11

    def test_one_warning_per_ratio_and_seed(self, tmp_path, monkeypatch):
        import progtab.cli as cli_mod

        real_split = cli_mod.make_split
        monkeypatch.setattr(cli_mod, "make_split",
                            lambda ds, spec: replace(real_split(ds, spec), stratified=False))
        payload = tiny_payload(tmp_path, [
            {"preset": "supervised", "overrides": fast_overrides()},
            {"preset": "vime_semi", "overrides": fast_overrides()},
        ], seeds=(0, 1), n_rows=300)
        rows, warnings = emit_ratio_sweep(parse_experiment_config(payload), [0.3])
        assert len(rows) == 2
        assert warnings == [f"ratio 0.3 seed {seed}: stratification infeasible, "
                            "plain random labeled subset in use" for seed in (0, 1)]

    def test_failed_pair_keeps_other_rows_and_exits_2(self, tmp_path, capsys, monkeypatch):
        import progtab.cli as cli_mod

        real_run = cli_mod.run_progressive

        def run_progressive(ds, split, cfg):
            if cfg.name == "broken":
                raise RuntimeError("boom")
            return real_run(ds, split, cfg)

        monkeypatch.setattr(cli_mod, "run_progressive", run_progressive)
        payload = tiny_payload(tmp_path, [
            {"preset": "supervised", "overrides": fast_overrides()},
            {"preset": "supervised", "name": "broken"},
        ], n_rows=300)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        assert main(["sweep-ratio", "--config", str(cfg_path), "--ratios", "0.3"]) == 2
        assert "ratio 0.3: broken seed 0: boom" in capsys.readouterr().err
        csv_path = os.path.join(payload["output_dir"], "ratio_sweep.csv")
        lines = Path(csv_path).read_text().strip().split("\n")
        assert len(lines) == 2 and lines[1].startswith("supervised,0.3,")

    def test_repeated_ratio_exits_1(self, tmp_path, capsys):
        payload = tiny_payload(tmp_path, [{"preset": "supervised"}])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        assert main(["sweep-ratio", "--config", str(cfg_path), "--ratios", "0.3,0.3"]) == 1
        assert "ratios must be distinct, got [0.3, 0.3]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_jobs_match_serial_run(self, tmp_path):
        outputs = []
        for jobs in (1, 2):
            payload = tiny_payload(tmp_path / f"jobs{jobs}", [
                {"preset": "supervised", "overrides": fast_overrides()},
                {"preset": "vime_semi", "overrides": fast_overrides()},
            ], seeds=(0, 1), n_rows=300)
            cfg_path = tmp_path / f"cfg{jobs}.json"
            cfg_path.write_text(json.dumps(payload))
            assert main(["run", "--config", str(cfg_path), "--jobs", str(jobs)]) == 0
            out = Path(payload["output_dir"])
            reports = {}
            for name in sorted(os.listdir(out / "reports")):
                report = json.loads((out / "reports" / name).read_text())
                del report["wall_clock_s"]
                reports[name] = report
            outputs.append(((out / "results.md").read_text(), reports))
        assert len(outputs[0][1]) == 4
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_1_exits_1(self, tmp_path, capsys, jobs):
        payload = tiny_payload(tmp_path, [{"preset": "supervised"}])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        assert main(["run", "--config", str(cfg_path), f"--jobs={jobs}"]) == 1
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_warns_once_per_unstratified_seed(self, tmp_path, capsys, monkeypatch):
        import progtab.cli as cli_mod

        real_split = cli_mod.make_split
        monkeypatch.setattr(cli_mod, "make_split",
                            lambda ds, spec: replace(real_split(ds, spec), stratified=False))
        payload = tiny_payload(tmp_path, [
            {"preset": "supervised", "overrides": fast_overrides()},
            {"preset": "supervised", "overrides": fast_overrides(), "name": "again"},
        ], seeds=(0, 1), n_rows=300)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        assert main(["run", "--config", str(cfg_path)]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert warnings == [f"warning: seed {seed}: stratification infeasible, "
                            "plain random labeled subset in use" for seed in (0, 1)]

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

    def test_synth_verb_preset_and_spec_exits_1(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        spec = json.dumps({"n_rows": 50, "n_cat_cols": 1, "cardinality": 5, "n_num_cols": 1,
                           "n_classes": 2, "signal_strength": 1.0, "seed": 9})
        assert main(["synth", "--preset", "small", "--spec", spec, "--out", str(out)]) == 1
        assert "config error: synth takes --preset or --spec, not both" in capsys.readouterr().err
        assert not out.exists()

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


    @pytest.mark.parametrize("edit, message", [
        (lambda p: [p], "experiment config must be an object"),
        (lambda p: {**p, "methods": [3]}, "a method must be a preset name or an object"),
        (lambda p: {**p, "split": [0.8, 0.1]}, "split must be an object"),
        (lambda p: {**p, "split": {**p["split"], "train_fraction": "0.8"}},
         'split train_fraction takes a number, got "0.8"'),
        (lambda p: {**p, "dataset": "small"}, "dataset must be an object"),
        (lambda p: {**p, "methods": [{"preset": "supervised", "overrides": [1]}]},
         "overrides must be an object"),
        (lambda p: {**p, "methods": [{"preset": ["supervised"]}]}, "preset must be a string"),
        (lambda p: {**p, "methods": [{"preset": "supervised", "name": 5}]},
         "name must be a string"),
        (lambda p: {**p, "output_dir": 5}, "output_dir must be a string"),
        (lambda p: {**p, "seeds": 0}, "seeds must be a list"),
        (lambda p: {**p, "seeds": [-1]}, "seeds must be distinct non-negative integers"),
        (lambda p: {**p, "seeds": ["a"]}, "seeds must be distinct non-negative integers"),
        (lambda p: {**p, "seeds": [True]}, "seeds must be distinct non-negative integers"),
        (lambda p: {**p, "seeds": [0, 0]}, "seeds must be distinct non-negative integers"),
        (lambda p: {**p, "seed": [1, 2]}, "unknown experiment config keys ['seed']"),
        (lambda p: {**p, "methods": [{"preset": "vime_semi",
                                      "override": {"semisup_epochs": 3}}]},
         "unknown method keys ['override']"),
        (lambda p: {**p, "methods": [{"preset": "supervised",
                                      "config": {"semisup_epochs": 3}}]},
         "unknown method keys ['config']"),
        (lambda p: {**p, "methods": [{"preset": "cmixup_ablation_matrix", "name": "m"}]},
         "unknown cmixup_ablation_matrix keys ['name']"),
        (lambda p: {**p, "methods": [{"preset": "cmixup_ablation_matrix",
                                      "overrides": {"pipeline": "vime", "knn_k": 20}}]},
         "cmixup_ablation_matrix sets ['pipeline'] itself"),
        (lambda p: {**p, "methods": [{"preset": "cmixup_ablation_matrix",
                                      "overrides": {"component_flags": ["decoder"],
                                                    "refinement_mode": "none"}}]},
         "cmixup_ablation_matrix sets ['component_flags', 'refinement_mode'] itself"),
        (lambda p: {**p, "dataset": {**p["dataset"], "presets": "small"}},
         "unknown synthetic dataset keys ['presets']"),
        (lambda p: {**p, "dataset": {"kind": "csv", "path": "d.csv", "label": "y"}},
         "unknown csv dataset keys ['label']"),
        (lambda p: {**p, "dataset": {**p["dataset"], "preset": "small"}},
         "synthetic dataset takes a preset or a spec, not both"),
        (lambda p: {**p, "dataset": {"kind": "synthetic", "preset": ["small"]}},
         'preset must be a string, got ["small"]'),
        (lambda p: {**p, "dataset": {"kind": "csv", "path": "d.csv", "drop_columns": "ab"}},
         'drop_columns must be a list, got "ab"'),
        (lambda p: {**p, "dataset": {"kind": "csv", "path": "d.csv", "kind_overrides": ["a"]}},
         'kind_overrides must be an object, got ["a"]'),
        (lambda p: {**p, "dataset": {"kind": "csv", "path": "d.csv", "num_classes": "3"}},
         'num_classes must be an integer, got "3"'),
        (lambda p: {**p, "dataset": {"kind": "csv", "path": "d.csv", "drop_columns": [1]}},
         "kind_overrides values and drop_columns entries must be strings"),
    ], ids=["top-level-list", "method-number", "split-list", "split-fraction-string",
            "dataset-string", "overrides-list", "preset-list", "name-number",
            "output-dir-number", "seeds-number", "negative-seed", "string-seed", "bool-seed",
            "repeated-seed", "unknown-top-level-key", "unknown-method-key",
            "method-config-key", "ablation-name-key", "ablation-pipeline-override",
            "ablation-cell-overrides", "unknown-synthetic-key",
            "unknown-csv-key", "preset-and-spec", "dataset-preset-list",
            "drop-columns-string", "kind-overrides-list", "num-classes-string",
            "drop-columns-number"])
    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_malformed_config_exits_1(self, tmp_path, capsys, edit, message, verb):
        payload = edit(tiny_payload(tmp_path, [{"preset": "supervised"}]))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        assert main([verb, "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert message in captured.out + captured.err
        assert "config ok" not in captured.out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds", ["0,0", "-1"])
    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_bad_seeds_flag_exits_1(self, tmp_path, capsys, seeds, verb):
        payload = tiny_payload(tmp_path, [{"preset": "supervised"}])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        assert main([verb, "--config", str(cfg_path), f"--seeds={seeds}"]) == 1
        captured = capsys.readouterr()
        assert "seeds must be distinct non-negative integers" in captured.out + captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_missing_csv_exits_1(self, tmp_path, capsys, verb):
        payload = tiny_payload(tmp_path, [{"preset": "supervised"}])
        missing = tmp_path / "no-such.csv"
        payload["dataset"] = {"kind": "csv", "path": str(missing), "label_column": "label"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        assert main([verb, "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert f"csv file not found: {missing}" in captured.out + captured.err
        assert "config ok" not in captured.out

    def test_repeated_csv_column_exits_1(self, tmp_path, capsys):
        # both verbs read the file before any training; so do the other bad files
        csv_path = tmp_path / "d.csv"
        payload = tiny_payload(tmp_path, [{"preset": "supervised"}])
        payload["dataset"] = {"kind": "csv", "path": str(csv_path), "label_column": "label"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        for text, message in [("a,a,label\nx,p,0\ny,q,1\n", "repeated column names ['a']"),
                              ("a,b\nx,p\ny,q\n", "label column 'label' not in header"),
                              ("a,label\nx,0\ny,one\n", "row 3: label 'one' not parseable")]:
            csv_path.write_text(text, encoding="utf-8")
            for verb in ("validate", "run"):
                assert main([verb, "--config", str(cfg_path)]) == 1
                captured = capsys.readouterr()
                assert message in captured.err
                assert "config ok" not in captured.out
                assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_ill_typed_override_exits_1(self, tmp_path, capsys, verb):
        payload = tiny_payload(tmp_path, [
            {"preset": "supervised", "overrides": {"predictor_hidden": "abc"}}])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        assert main([verb, "--config", str(cfg_path)]) == 1
        assert "'predictor_hidden'" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides,problem", [
        ({"knn_k": 0}, "knn_k must be >= 1"),
        ({"batch_size": 1}, "batch_size must be >= 2"),
        ({"batch_size": 0}, "batch_size must be >= 2"),
        ({"encoding": "target", "te_smoothing": 0.0}, "te_smoothing must be > 0"),
        ({"latent_dim": 0}, "latent_dim must be >= 1"),
        ({"semisup_epochs": -1}, "semisup_epochs must be >= 1"),
        ({"predictor_hidden": [0]}, "hidden layer widths must be >= 1"),
        ({"k_corruptions": 1}, "beta_consistency > 0 needs k_corruptions >= 2"),
        ({"encoding": "onehot"}, "unknown encoding 'onehot'"),
        ({"encoding": "label"}, "unknown encoding 'label'"),
    ])
    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_bad_propagation_setting_exits_1(self, tmp_path, capsys, verb, overrides, problem):
        payload = tiny_payload(tmp_path, [
            {"preset": "cmixup", "overrides": {**fast_overrides(), **overrides}}])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        assert main([verb, "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert problem in captured.out + captured.err
        assert "config ok" not in captured.out


class TestReadme:
    def test_example_config_validates(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(example)
        assert main(["validate", "--config", str(cfg_path)]) == 0
        assert "config ok" in capsys.readouterr().out


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
