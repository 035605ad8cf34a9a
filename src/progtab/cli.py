"""Experiment runner: config parsing, method presets, the (method, seed)
matrix, report and table emission.

Config files are JSON. An experiment names a dataset source (csv path or a
synthetic preset/spec), split fractions, a method list, and seeds; every
(method, seed) pair runs independently (optionally in a process pool) and
writes a self-contained JSON report. The results table is re-renderable from
those reports alone.

Exit codes: 0 ok, 1 config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import os
import re
import sys
from dataclasses import dataclass, replace

from . import data as data_mod
from . import nn
from .data import DataError, SplitSpec, SyntheticSpec, TabularDataset, load_csv, make_split, synthesize_dataset
from .progressive import (
    DEFAULT_SEEDS,
    ConfigError,
    ExperimentReport,
    RunConfig,
    compare_runs,
    run_progressive,
)

OUTPUT_DIR_ENV = "PROGTAB_OUT"

SYNTHETIC_PRESETS = {
    "small": SyntheticSpec(2_000, 3, 50, 2, 4, 1.2, 1000),
    "medium": SyntheticSpec(20_000, 4, 500, 2, 4, 1.2, 1001),
    "highcard": SyntheticSpec(50_000, 2, 5_000, 2, 4, 1.5, 1002),
}
SPLIT_DEFAULTS = {"train_fraction": 0.8, "labeled_fraction_of_train": 0.1, "seed": 0}
# the keys each level of an experiment config accepts; any other is an error
EXPERIMENT_KEYS = ("dataset", "split", "methods", "seeds", "output_dir")
METHOD_KEYS = ("preset", "overrides", "name")
DATASET_KEYS = {
    "synthetic": ("kind", "preset", "spec"),
    "csv": ("kind", "path", "label_column", "kind_overrides", "drop_columns", "num_classes"),
}
METRIC = "final_test_accuracy"


def method_presets() -> dict[str, RunConfig]:
    """Named method configurations covering the supervised baseline, both
    pipelines, and their progressive variants; every preset can be overridden
    field by field from the config file."""
    vime = dict(pipeline="vime")
    cmix = dict(pipeline="cmixup")
    no_cls = ("decoder", "projection")
    presets = {
        "supervised": RunConfig(**vime, pretext_enabled=False, p_mask=0.0,
                                beta_consistency=0.0, n_runs=1, update_enabled=False),
        "vime_self": RunConfig(**vime, beta_consistency=0.0, n_runs=1,
                               update_enabled=False),
        "vime_semi": RunConfig(**vime, n_runs=1, update_enabled=False),
        "progressive_vime_self_update": RunConfig(**vime, beta_consistency=0.0,
                                                  refinement_mode="none"),
        "progressive_vime_semi_update": RunConfig(**vime, refinement_mode="none"),
        "progressive_vime_self_refine": RunConfig(**vime, beta_consistency=0.0,
                                                  refinement_mode="classifier_threshold"),
        "progressive_vime_semi_refine": RunConfig(**vime,
                                                  refinement_mode="classifier_threshold"),
        "cmixup": RunConfig(**cmix, component_flags=no_cls, n_runs=1,
                            update_enabled=False),
        "progressive_cmixup_update": RunConfig(**cmix, component_flags=no_cls,
                                               refinement_mode="none"),
        "progressive_cmixup_refine": RunConfig(**cmix, component_flags=no_cls,
                                               refinement_mode="propagation_threshold"),
        "progressive_cmixup_update_classifier": RunConfig(**cmix, refinement_mode="none"),
        "progressive_cmixup_refine_classifier": RunConfig(
            **cmix, refinement_mode="two_step_agreement"),
    }
    for name, cfg in presets.items():
        cfg.name = name
    return presets


ABLATION_COMPONENTS = (
    ("classifier",),
    ("decoder",),
    ("classifier", "decoder"),
    ("classifier", "projection"),
    ("decoder", "projection"),
    ("classifier", "decoder", "projection"),
)
ABLATION_MODES = ("no_update", "update", "refinement")
# set per cell by ablation_methods, so an override of them would be lost
ABLATION_FIELDS = ("name", "pipeline", "component_flags", "update_enabled", "refinement_mode")


def ablation_methods(base: RunConfig | None = None) -> list[RunConfig]:
    """Component x training-mode matrix for the cmixup encoder (6 x 3)."""
    base = base or RunConfig(pipeline="cmixup")
    out = []
    for flags in ABLATION_COMPONENTS:
        for mode in ABLATION_MODES:
            cfg = replace(base, pipeline="cmixup", component_flags=flags)
            if mode == "no_update":
                cfg = replace(cfg, n_runs=1, update_enabled=False, refinement_mode="none")
            elif mode == "update":
                cfg = replace(cfg, update_enabled=True, refinement_mode="none")
            else:
                refinement = ("two_step_agreement" if "classifier" in flags
                              else "propagation_threshold")
                cfg = replace(cfg, update_enabled=True, refinement_mode=refinement)
            cfg.name = f"ablate[{'+'.join(flags)}]/{mode}"
            out.append(cfg)
    return out


@dataclass
class ExperimentConfig:
    dataset: dict  # {"kind": "synthetic", "preset"|"spec": ...} | {"kind": "csv", ...}
    split: SplitSpec
    methods: list[RunConfig]
    seeds: list[int]
    output_dir: str

    def validate(self) -> list[str]:
        problems = []
        if not self.methods:
            problems.append("no methods configured")
        if not self.seeds:
            problems.append("no seeds configured")
        elif not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0
                     for s in self.seeds) or len(set(self.seeds)) != len(self.seeds):
            problems.append(f"seeds must be distinct non-negative integers, got {self.seeds}")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            problems.append("method names must be unique")
        kind = self.dataset.get("kind")
        if kind == "synthetic":
            preset = self.dataset.get("preset")
            if preset is not None and preset not in SYNTHETIC_PRESETS:
                problems.append(f"unknown synthetic preset {preset!r}")
            if preset is not None and "spec" in self.dataset:
                problems.append("synthetic dataset takes a preset or a spec, not both")
            if preset is None and "spec" not in self.dataset:
                problems.append("synthetic dataset needs a preset or a spec")
            elif preset is None:
                try:
                    _synthetic_spec(self.dataset["spec"])
                except ConfigError as exc:
                    problems.append(str(exc))
        elif kind == "csv":
            if "path" not in self.dataset:
                problems.append("csv dataset needs a path")
            elif not os.path.isfile(self.dataset["path"]):
                problems.append(f"csv file not found: {self.dataset['path']}")
        else:
            problems.append(f"unknown dataset kind {kind!r}")
        for m in self.methods:
            for p in m.validate():
                problems.append(f"method {m.name!r}: {p}")
        return problems


def _fits(value, default) -> bool:
    """Whether a JSON value has the type of a RunConfig default: an int is
    accepted for a float, a list for a tuple, and null only where the default
    is None (n_runs, an int or null)."""
    if default is None:
        return value is None or _fits(value, 0)
    if isinstance(value, bool) or isinstance(default, bool):
        return isinstance(value, bool) and isinstance(default, bool)
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_fits(v, default[0]) for v in value)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _check_overrides(overrides: dict) -> dict:
    """An override must name a RunConfig field and have its default's type."""
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    unknown = set(overrides) - set(fields)
    if unknown:
        raise ConfigError(f"unknown RunConfig fields {sorted(unknown)}")
    for name, value in overrides.items():
        if not _fits(value, fields[name].default):
            raise ConfigError(f"RunConfig field {name!r} takes {fields[name].type}, "
                              f"got {value!r}")
    return overrides


def _check_keys(payload: dict, known, where: str) -> None:
    unknown = set(payload) - set(known)
    if unknown:
        raise ConfigError(f"unknown {where} keys {sorted(unknown)}")


def _section(payload: dict, key: str, kind: type, default):
    """payload[key], or default when absent; a wrong JSON type is a config error."""
    if key not in payload:
        return default
    value = payload[key]
    if not isinstance(value, kind):
        expected = {dict: "an object", list: "a list", str: "a string"}[kind]
        raise ConfigError(f"{key} must be {expected}, got {json.dumps(value)}")
    return value


def parse_experiment_config(payload: dict) -> ExperimentConfig:
    if not isinstance(payload, dict):
        raise ConfigError(f"an experiment config must be an object, got {type(payload).__name__}")
    _check_keys(payload, EXPERIMENT_KEYS, "experiment config")
    dataset = _section(payload, "dataset", dict, {})
    kind = dataset.get("kind")
    if isinstance(kind, str) and kind in DATASET_KEYS:  # validate() reports other kinds
        _check_keys(dataset, DATASET_KEYS[kind], f"{kind} dataset")
    split_d = _section(payload, "split", dict, {})
    _check_keys(split_d, SPLIT_DEFAULTS, "split")
    split_d = {**SPLIT_DEFAULTS, **split_d}
    for key, value in split_d.items():
        if not _fits(value, SPLIT_DEFAULTS[key]):
            raise ConfigError(f"split {key} takes a number, got {json.dumps(value)}")
    split = SplitSpec(**split_d)
    presets = method_presets()
    methods = []
    for entry in _section(payload, "methods", list, []):
        if isinstance(entry, str):
            entry = {"preset": entry}
        if not isinstance(entry, dict):
            raise ConfigError(f"a method must be a preset name or an object, got {entry!r}")
        preset = _section(entry, "preset", str, None)
        if preset == "cmixup_ablation_matrix":
            # the matrix names its own methods
            _check_keys(entry, ("preset", "overrides"), preset)
            overrides = _check_overrides(_section(entry, "overrides", dict, {}))
            fixed = set(overrides) & set(ABLATION_FIELDS)
            if fixed:
                raise ConfigError(f"{preset} sets {sorted(fixed)} itself")
            methods.extend(ablation_methods(RunConfig(pipeline="cmixup", **overrides)))
            continue
        _check_keys(entry, METHOD_KEYS, "method")
        if preset is not None:
            if preset not in presets:
                raise ConfigError(f"unknown method preset {preset!r}")
            cfg = replace(presets[preset])
        else:
            cfg = RunConfig()
        cfg = replace(cfg, **_check_overrides(_section(entry, "overrides", dict, {})))
        cfg.name = _section(entry, "name", str, cfg.name) or preset or "custom"
        methods.append(cfg)
    seeds = _section(payload, "seeds", list, list(DEFAULT_SEEDS))
    out = (_section(payload, "output_dir", str, "")
           or os.environ.get(OUTPUT_DIR_ENV, "progtab-out"))
    return ExperimentConfig(dict(dataset), split, methods, seeds, out)


def _synthetic_spec(fields) -> SyntheticSpec:
    """A SyntheticSpec from JSON fields; a wrong field set is a config error."""
    try:
        return SyntheticSpec(**fields)
    except (TypeError, DataError) as exc:
        raise ConfigError(f"synthetic spec: {exc}") from None


def load_dataset(dataset_cfg: dict) -> TabularDataset:
    kind = dataset_cfg.get("kind")
    if kind == "synthetic":
        if "preset" in dataset_cfg and dataset_cfg["preset"] is not None:
            spec = SYNTHETIC_PRESETS[dataset_cfg["preset"]]
        else:
            spec = _synthetic_spec(dataset_cfg["spec"])
        return synthesize_dataset(spec)
    if kind == "csv":
        return load_csv(
            dataset_cfg["path"],
            label_column=dataset_cfg.get("label_column"),
            kind_overrides=dataset_cfg.get("kind_overrides"),
            drop_columns=dataset_cfg.get("drop_columns"),
            num_classes=dataset_cfg.get("num_classes"),
        )
    raise ConfigError(f"unknown dataset kind {kind!r}")


@dataclass
class ResultsTable:
    """Each method's METRIC over its seeds."""

    methods: list[str]
    cells: dict  # method -> {"mean", "std", "formatted", "raw", "seeds", "n_seeds"}

    def to_json(self) -> str:
        return json.dumps({"methods": self.methods, "metric": METRIC,
                           "cells": self.cells}, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        lines = [f"method,{METRIC}_mean,{METRIC}_std,n_seeds,formatted"]
        for m in self.methods:
            c = self.cells[m]
            lines.append(f"{m},{c['mean']!r},{c['std']!r},{c['n_seeds']},{c['formatted']}")
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        lines = [f"| Method | {METRIC} |", "| --- | --- |"]
        for m in self.methods:
            lines.append(f"| {m} | {self.cells[m]['formatted']} |")
        return "\n".join(lines) + "\n"


def format_cell(mean: float, std: float) -> str:
    return f"{mean * 100:.2f}% (±{std * 100:.3f})"


def render_table(reports: list[ExperimentReport], method_order: list[str]) -> ResultsTable:
    summary = compare_runs(reports)
    cells = {m: {**summary[m], "formatted": format_cell(summary[m]["mean"], summary[m]["std"])}
             for m in method_order}
    return ResultsTable(method_order, cells)


def _method_slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", name)


def _run_pair(args):
    ds, split_spec, method, seed = args
    split = make_split(ds, replace(split_spec, seed=seed))
    cfg = replace(method, seed=seed)
    cfg.name = method.name
    return run_progressive(ds, split, cfg)


def run_experiment(config: ExperimentConfig, jobs: int = 1):
    """Execute every (method, seed) pair; write JSON reports and the results
    table (CSV + Markdown + JSON). Partial reports survive failures."""
    problems = config.validate()
    if problems:
        raise ConfigError("; ".join(problems))
    ds = load_dataset(config.dataset)
    os.makedirs(config.output_dir, exist_ok=True)
    report_dir = os.path.join(config.output_dir, "reports")
    os.makedirs(report_dir, exist_ok=True)

    pairs = [(ds, config.split, method, seed)
             for method in config.methods for seed in config.seeds]
    reports: list[ExperimentReport] = []
    failures: list[str] = []
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_pair, args) for args in pairs]
            for args, fut in zip(pairs, futures):  # merge in pair order
                try:
                    reports.append(fut.result())
                except Exception as exc:
                    failures.append(f"{args[2].name} seed {args[3]}: {exc}")
    else:
        for args in pairs:
            try:
                reports.append(_run_pair(args))
            except Exception as exc:  # keep partial results on failure
                failures.append(f"{args[2].name} seed {args[3]}: {exc}")
    for report in reports:
        path = os.path.join(report_dir, f"{_method_slug(report.method)}_seed{report.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    table = None
    if reports:
        table = render_table(reports, [m.name for m in config.methods
                                       if any(r.method == m.name for r in reports)])
        with open(os.path.join(config.output_dir, "results.json"), "w") as fh:
            fh.write(table.to_json())
        with open(os.path.join(config.output_dir, "results.csv"), "w") as fh:
            fh.write(table.to_csv())
        with open(os.path.join(config.output_dir, "results.md"), "w") as fh:
            fh.write(table.to_markdown())
    if failures:
        raise RuntimeError("failed pairs: " + "; ".join(failures))
    return table, reports


def emit_ratio_sweep(config: ExperimentConfig, ratios: list[float]):
    """Run every configured method at each labeled ratio; emit
    (method, ratio, mean, std, n_seeds) rows and plot-ready CSV."""
    for r in ratios:
        if not 0.0 < r < 1.0:
            raise ConfigError(f"ratio {r} outside (0, 1)")
    problems = config.validate()
    if problems:
        raise ConfigError("; ".join(problems))
    ds = load_dataset(config.dataset)
    os.makedirs(config.output_dir, exist_ok=True)
    rows = []
    warnings: list[str] = []
    for ratio in ratios:
        split_spec = replace(config.split, labeled_fraction_of_train=ratio)
        for seed in config.seeds:
            if not make_split(ds, replace(split_spec, seed=seed)).stratified:
                warnings.append(
                    f"ratio {ratio} seed {seed}: stratification infeasible, "
                    "plain random labeled subset in use")
        summary = compare_runs([_run_pair((ds, split_spec, method, seed))
                                for method in config.methods for seed in config.seeds])
        for method in config.methods:
            s = summary[method.name]
            rows.append((method.name, ratio, s["mean"], s["std"], s["n_seeds"]))
    csv_lines = ["method,ratio,mean_acc,std_acc,n_seeds"]
    for name, ratio, mean, std, n in rows:
        csv_lines.append(f"{name},{ratio!r},{mean!r},{std!r},{n}")
    csv_text = "\n".join(csv_lines) + "\n"
    with open(os.path.join(config.output_dir, "ratio_sweep.csv"), "w") as fh:
        fh.write(csv_text)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return rows, warnings


# --------------------------------------------------------------------------
# Command line entry points
# --------------------------------------------------------------------------

def _number_list(text: str, kind, flag: str) -> list:
    try:
        return [kind(s) for s in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated numbers, got {text!r}") from None


def _load_config_file(path: str, args) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    cfg = parse_experiment_config(payload)
    if args.out:
        cfg.output_dir = args.out
    if args.seeds:
        cfg.seeds = _number_list(args.seeds, int, "--seeds")
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="progtab",
        description="progressive conditional-probability experiments on tabular data",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb in ("run", "sweep-ratio", "validate"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seeds", default=None, help="comma separated override")
        if verb == "run":
            p.add_argument("--jobs", type=int, default=1)
        if verb == "sweep-ratio":
            p.add_argument("--ratios", default="0.1,0.3,0.5,0.7,0.9")

    p = sub.add_parser("synth")
    p.add_argument("--preset", choices=sorted(SYNTHETIC_PRESETS), default=None)
    p.add_argument("--spec", default=None, help="JSON SyntheticSpec fields")
    p.add_argument("--out", required=True)

    sub.add_parser("gradcheck")

    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            config = _load_config_file(args.config, args)
            table, _ = run_experiment(config, jobs=args.jobs)
            if table:
                print(table.to_markdown())
            return 0
        if args.verb == "sweep-ratio":
            config = _load_config_file(args.config, args)
            ratios = _number_list(args.ratios, float, "--ratios")
            emit_ratio_sweep(config, ratios)
            return 0
        if args.verb == "validate":
            config = _load_config_file(args.config, args)
            problems = config.validate()
            for pr in problems:
                print(f"invalid: {pr}")
            if problems:
                return 1
            print("config ok")
            return 0
        if args.verb == "synth":
            if args.spec:
                spec = _synthetic_spec(json.loads(args.spec))
            elif args.preset:
                spec = SYNTHETIC_PRESETS[args.preset]
            else:
                print("synth needs --preset or --spec", file=sys.stderr)
                return 1
            ds = synthesize_dataset(spec)
            data_mod.dataset_to_csv(ds, args.out)
            print(f"wrote {ds.n_rows} rows to {args.out}")
            return 0
        if args.verb == "gradcheck":
            worst = 0.0
            for name, model, fn in nn.gradcheck_cases():
                report = nn.gradcheck(model, fn)
                print(f"{name}: max_rel_err {report.max_rel_err:.3e} "
                      f"({report.n_params} params)")
                worst = max(worst, report.max_rel_err)
            print(f"worst: {worst:.3e}")
            return 0 if worst < 1e-4 else 2
    except (ConfigError, DataError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
