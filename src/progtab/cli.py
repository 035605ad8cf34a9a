"""Experiment runner: config parsing, method presets, the (method, seed)
matrix, report and table emission.

Config files are JSON. An experiment names a dataset source (csv path or a
synthetic preset/spec), split fractions, a method list, and seeds. Parsing
checks all of it; `validate` then loads the dataset exactly as `run` does.
`run` and `sweep-ratio` share one pair runner: every (method, seed) pair runs
independently (optionally in a process pool), and a failed pair does not stop
the others. `run` writes a self-contained JSON report per pair, from which
alone the results table re-renders.

Exit codes: 0 ok, 1 config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import io
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
UNSTRATIFIED = "stratification infeasible, plain random labeled subset in use"


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
    """A config as parse_experiment_config returns it, checked in full."""

    dataset: SyntheticSpec | dict  # a SyntheticSpec, or load_csv keyword arguments
    split: SplitSpec
    methods: list[RunConfig]
    seeds: list[int]
    output_dir: str


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
    if not isinstance(value, kind) or isinstance(value, bool):
        expected = {dict: "an object", list: "a list", str: "a string", int: "an integer"}[kind]
        raise ConfigError(f"{key} must be {expected}, got {json.dumps(value)}")
    return value


def _dataset_source(dataset: dict) -> SyntheticSpec | dict:
    """What load_dataset takes for a `dataset` section: a SyntheticSpec, or
    load_csv keyword arguments whose types have been checked."""
    kind = dataset.get("kind")
    if not isinstance(kind, str) or kind not in DATASET_KEYS:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    _check_keys(dataset, DATASET_KEYS[kind], f"{kind} dataset")
    if kind == "synthetic":
        preset = _section(dataset, "preset", str, None)
        spec = _section(dataset, "spec", dict, None)
        if preset is not None and spec is not None:
            raise ConfigError("synthetic dataset takes a preset or a spec, not both")
        if preset is not None:
            if preset not in SYNTHETIC_PRESETS:
                raise ConfigError(f"unknown synthetic preset {preset!r}")
            return SYNTHETIC_PRESETS[preset]
        if spec is None:
            raise ConfigError("synthetic dataset needs a preset or a spec")
        return _synthetic_spec(spec)
    path = _section(dataset, "path", str, None)
    if path is None:
        raise ConfigError("csv dataset needs a path")
    kind_overrides = _section(dataset, "kind_overrides", dict, {})
    drop_columns = _section(dataset, "drop_columns", list, [])
    if not all(isinstance(v, str) for v in [*kind_overrides.values(), *drop_columns]):
        raise ConfigError("kind_overrides values and drop_columns entries must be strings")
    source = dict(path=path, label_column=_section(dataset, "label_column", str, None),
                  kind_overrides=kind_overrides, drop_columns=drop_columns,
                  num_classes=_section(dataset, "num_classes", int, None))
    if not os.path.isfile(path):
        raise ConfigError(f"csv file not found: {path}")
    return source


def parse_experiment_config(payload: dict) -> ExperimentConfig:
    """The ExperimentConfig a JSON payload describes; every problem with the
    config is raised here as a ConfigError."""
    if not isinstance(payload, dict):
        raise ConfigError(f"an experiment config must be an object, got {type(payload).__name__}")
    _check_keys(payload, EXPERIMENT_KEYS, "experiment config")
    dataset = _dataset_source(_section(payload, "dataset", dict, {}))
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
    problems = []
    if not methods:
        problems.append("no methods configured")
    if not seeds:
        problems.append("no seeds configured")
    elif not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0
                 for s in seeds) or len(set(seeds)) != len(seeds):
        problems.append(f"seeds must be distinct non-negative integers, got {seeds}")
    names = [m.name for m in methods]
    if len(set(names)) != len(names):
        problems.append("method names must be unique")
    slugs = {}
    for name in names:  # each report file is named by its method's slug
        other = slugs.setdefault(_method_slug(name), name)
        if other != name:
            problems.append(f"methods {other!r} and {name!r} would both write reports "
                            f"named {_method_slug(name)}_seed<s>.json")
    problems += [f"method {m.name!r}: {p}" for m in methods for p in m.validate()]
    if problems:
        raise ConfigError("; ".join(problems))
    return ExperimentConfig(dataset, split, methods, seeds, out)


def _synthetic_spec(fields) -> SyntheticSpec:
    """A SyntheticSpec from JSON fields; a wrong field set is a config error."""
    try:
        return SyntheticSpec(**fields)
    except (TypeError, DataError) as exc:
        raise ConfigError(f"synthetic spec: {exc}") from None


def load_dataset(source: SyntheticSpec | dict) -> TabularDataset:
    """The dataset of a parsed config's `dataset`."""
    if isinstance(source, SyntheticSpec):
        return synthesize_dataset(source)
    return load_csv(**source)


@dataclass
class ResultsTable:
    """Each method's METRIC over its seeds."""

    methods: list[str]
    cells: dict  # method -> {"mean", "std", "formatted", "raw", "seeds", "n_seeds"}

    def to_json(self) -> str:
        return json.dumps({"methods": self.methods, "metric": METRIC,
                           "cells": self.cells}, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        keys = ("mean", "std", "n_seeds", "formatted")
        return _csv_text(["method", f"{METRIC}_mean", f"{METRIC}_std", "n_seeds", "formatted"],
                         [[m, *(self.cells[m][k] for k in keys)] for m in self.methods])

    def to_markdown(self) -> str:
        """A Markdown table; a `|` in a method name, and each backslash
        before one, is escaped, so every row keeps two cells."""
        lines = [f"| Method | {METRIC} |", "| --- | --- |"]
        for m in self.methods:
            cell = re.sub(r"(\\*)\|", lambda hit: hit[1] * 2 + r"\|", m)
            lines.append(f"| {cell} | {self.cells[m]['formatted']} |")
        return "\n".join(lines) + "\n"


def _csv_text(header: list[str], rows) -> str:
    """The header and rows as CSV; a field with a comma, quote or newline is quoted."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


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
    return run_progressive(ds, split, replace(method, seed=seed)), split.stratified


def _run_pairs(ds: TabularDataset, split_spec: SplitSpec, config: ExperimentConfig,
               jobs: int = 1):
    """Run every (method, seed) pair of config, serially or in a pool of
    `jobs` processes. Returns the reports in pair order, one line per failed
    pair, and the seeds whose labeled subset could not be stratified."""
    pairs = [(ds, split_spec, method, seed)
             for method in config.methods for seed in config.seeds]
    reports, failures, unstratified = [], [], set()
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
    try:
        # one call per pair that returns its outcome; a pool starts them all at once
        calls = ([pool.submit(_run_pair, args).result for args in pairs] if pool
                 else [lambda args=args: _run_pair(args) for args in pairs])
        for args, call in zip(pairs, calls):  # merge in pair order
            try:
                report, stratified = call()
            except Exception as exc:  # keep partial results on failure
                failures.append(f"{args[2].name} seed {args[3]}: {exc}")
                continue
            reports.append(report)
            if not stratified:
                unstratified.add(args[3])
    finally:
        if pool:
            pool.shutdown()
    return reports, failures, [seed for seed in config.seeds if seed in unstratified]


def run_experiment(config: ExperimentConfig, jobs: int = 1):
    """Execute every (method, seed) pair; write JSON reports and the results
    table (CSV + Markdown + JSON). Partial reports survive failures."""
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    ds = load_dataset(config.dataset)
    report_dir = os.path.join(config.output_dir, "reports")
    os.makedirs(report_dir, exist_ok=True)
    reports, failures, unstratified = _run_pairs(ds, config.split, config, jobs)
    for report in reports:
        path = os.path.join(report_dir, f"{_method_slug(report.method)}_seed{report.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    table = None
    if reports:
        table = render_table(reports, [m.name for m in config.methods
                                       if any(r.method == m.name for r in reports)])
        for ext, text in (("json", table.to_json()), ("csv", table.to_csv()),
                          ("md", table.to_markdown())):
            with open(os.path.join(config.output_dir, f"results.{ext}"), "w") as fh:
                fh.write(text)
    for seed in unstratified:
        print(f"warning: seed {seed}: {UNSTRATIFIED}", file=sys.stderr)
    if failures:
        raise RuntimeError("failed pairs: " + "; ".join(failures))
    return table, reports


def emit_ratio_sweep(config: ExperimentConfig, ratios: list[float]):
    """Run every configured method at each labeled ratio; emit
    (method, ratio, mean, std, n_seeds) rows and plot-ready CSV. The rows of
    the pairs that ran are written even when other pairs fail."""
    for r in ratios:
        if not 0.0 < r < 1.0:
            raise ConfigError(f"ratio {r} outside (0, 1)")
    if len(set(ratios)) != len(ratios):
        raise ConfigError(f"ratios must be distinct, got {ratios}")
    ds = load_dataset(config.dataset)
    os.makedirs(config.output_dir, exist_ok=True)
    rows, warnings, failures = [], [], []
    for ratio in ratios:
        split_spec = replace(config.split, labeled_fraction_of_train=ratio)
        reports, failed, unstratified = _run_pairs(ds, split_spec, config)
        failures += [f"ratio {ratio}: {f}" for f in failed]
        warnings += [f"ratio {ratio} seed {seed}: {UNSTRATIFIED}" for seed in unstratified]
        summary = compare_runs(reports) if reports else {}
        rows += [(m.name, ratio, s["mean"], s["std"], s["n_seeds"])
                 for m in config.methods if (s := summary.get(m.name))]
    with open(os.path.join(config.output_dir, "ratio_sweep.csv"), "w") as fh:
        fh.write(_csv_text(["method", "ratio", "mean_acc", "std_acc", "n_seeds"], rows))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if failures:
        raise RuntimeError("failed pairs: " + "; ".join(failures))
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
    """The parsed config file, with --out and --seeds in place of its keys."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    if isinstance(payload, dict):  # parsing rejects any other payload
        if args.out:
            payload["output_dir"] = args.out
        if args.seeds:
            payload["seeds"] = _number_list(args.seeds, int, "--seeds")
    return parse_experiment_config(payload)


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
            table, _ = run_experiment(_load_config_file(args.config, args), jobs=args.jobs)
            if table:
                print(table.to_markdown())
            return 0
        if args.verb == "sweep-ratio":
            config = _load_config_file(args.config, args)
            emit_ratio_sweep(config, _number_list(args.ratios, float, "--ratios"))
            return 0
        if args.verb == "validate":
            load_dataset(_load_config_file(args.config, args).dataset)
            print("config ok")
            return 0
        if args.verb == "synth":
            if args.spec and args.preset:
                raise ConfigError("synth takes --preset or --spec, not both")
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
