"""The benchmark's workloads: inputs made from progtab's synthetic presets
and the workload seed, the legs one round runs, and the checks on their
outputs.

A leg is one (method, seed) operation. A round runs every leg of its
workload once; a run repeats whole rounds. Checks run with the round's clock
paused and call no progtab function, so they show neither in ``wall_s`` nor
in a traced run's spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from progtab import cmixup, data, encoding, progressive, vime
from progtab.cli import SYNTHETIC_PRESETS, method_presets

from . import checks

TRAIN_FRACTION = 0.8
LABELED_FRACTION = 0.1
# criterion 7's cmixup settings; two runs instead of the preset's four keep
# one round under the run length (see README.md)
CMIXUP_OVERRIDES = dict(encoder_epochs=12, warmup_epochs=10, semisup_epochs=15,
                        propagation_threshold=0.1, n_runs=2)
# criterion 5's protocol: full-train supervised MLP, two epochs
SUPERVISED_EPOCHS = 2
# the one-hot leg's rows; a 10,002-wide float64 row takes 78 KiB
ONEHOT_TRAIN_ROWS = 6_000
ONEHOT_TEST_ROWS = 2_000
# pseudo-labeled rows in the check of a rebuilt table
PSEUDO_POOL_ROWS = 2_000


class Stopwatch:
    """Wall time of a round, less the time spent in ``paused()`` blocks."""

    def __init__(self):
        self._start = time.perf_counter()
        self._paused = 0.0

    @contextmanager
    def paused(self):
        t = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t

    def elapsed(self) -> float:
        return time.perf_counter() - self._start - self._paused


@dataclass
class Inputs:
    ds: data.TabularDataset
    split: data.DataSplit
    seed: int


@dataclass
class LegResult:
    name: str
    accuracy: float
    kept_rows: int = 0
    kept_correct: float = 0.0  # sum over runs of n_kept * precision
    problems: list[str] = field(default_factory=list)


def make_inputs(preset: str, seed: int) -> Inputs:
    """The preset's dataset as progtab defines it; the seed picks the split
    (and, in the legs, every training seed)."""
    ds = data.synthesize_dataset(SYNTHETIC_PRESETS[preset])
    split = data.make_split(ds, data.SplitSpec(TRAIN_FRACTION, LABELED_FRACTION, seed))
    return Inputs(ds, split, seed)


def table_problems(inputs: Inputs) -> list[str]:
    """Run 1's table (labeled rows only) and a later run's table (labeled
    rows plus kept pseudo-labels, rebuilt by ``update_representation``)
    against an independent bincount and the CPR formula.

    The pseudo-labels are a fixed pool drawn from the workload seed: up to
    ``PSEUDO_POOL_ROWS`` unlabeled rows with random labels, about a third of
    them not kept, so the check also shows that only kept rows are counted.
    Calls progtab, so it runs outside rounds.
    """
    ds, split = inputs.ds, inputs.split
    rows = split.labeled_idx
    labels = ds.labels[rows]
    table = encoding.fit_cpr(ds, rows, labels)
    rng = np.random.default_rng(inputs.seed)
    size = min(PSEUDO_POOL_ROWS, split.unlabeled_idx.size)
    pool = progressive.PseudoLabelSet(rows=_subset(split.unlabeled_idx, size, rng),
                                      labels=rng.integers(0, ds.num_classes, size),
                                      kept=rng.random(size) < 2 / 3)
    rebuilt = progressive.update_representation(ds, table, pool, rows, labels)
    counted_rows = np.concatenate([rows, pool.kept_rows()])
    counted_labels = np.concatenate([labels, pool.kept_labels()])
    problems = []
    for name, tab, c_rows, c_labels in (("labeled-only", table, rows, labels),
                                        ("rebuilt", rebuilt, counted_rows, counted_labels)):
        encoded = encoding.encode(ds, split.unlabeled_idx, tab)
        problems += [f"{name} table: {p}" for p in
                     checks.count_table_problems(tab, ds, c_rows, c_labels)
                     + checks.cpr_block_problems(encoded, ds, split.unlabeled_idx, c_rows,
                                                 c_labels, tab.laplace_alpha)]
    return problems


def progressive_leg(inputs: Inputs, config: progressive.RunConfig,
                    watch: Stopwatch) -> LegResult:
    report = progressive.run_progressive(inputs.ds, inputs.split, config)
    with watch.paused():
        split = inputs.split
        problems = checks.report_problems(report, config.resolved_n_runs(),
                                          split.unlabeled_idx.size)
        problems += checks.accuracy_problems(config.name, report.final_test_accuracy,
                                             inputs.ds.labels[split.test_idx])
        kept = sum(r.n_kept for r in report.runs)
        correct = sum(r.n_kept * r.pseudo_precision for r in report.runs if r.n_kept)
    return LegResult(config.name, report.final_test_accuracy, kept, correct, problems)


def supervised_leg(inputs: Inputs, kind: str, train_rows: np.ndarray,
                   test_rows: np.ndarray, watch: Stopwatch) -> LegResult:
    """Criterion 5's protocol for one encoding on the given rows."""
    ds, seed = inputs.ds, inputs.seed
    dss = data.apply_scaler(ds, data.fit_scaler(ds, inputs.split.train_idx))
    ytr, yte = ds.labels[train_rows], ds.labels[test_rows]
    if kind == "cpr":
        table = encoding.fit_cpr(dss, train_rows, ytr)
    else:
        table = encoding.one_hot_encoding(dss)
    x_train = encoding.encode(dss, train_rows, table)
    with watch.paused():
        if kind == "cpr":
            problems = checks.count_table_problems(table, dss, train_rows, ytr)
            problems += checks.cpr_block_problems(x_train, dss, train_rows, train_rows,
                                                  ytr, table.laplace_alpha)
        else:
            problems = checks.one_hot_problems(x_train, dss, train_rows)
    width = x_train.width
    model = vime.build_vime_model(width, ds.num_classes, seed=seed, with_encoder=False)
    vime.semisup_train(model, x_train.matrix, ytr, np.empty((0, width)),
                       vime.CorruptionSpec(0.0, seed=seed), beta=0.0,
                       epochs=SUPERVISED_EPOCHS)
    del x_train
    x_test = encoding.encode(dss, test_rows, table)
    acc = vime.accuracy(model, x_test.matrix, yte)
    with watch.paused():
        if kind == "onehot":
            problems += checks.one_hot_problems(x_test, dss, test_rows)
        problems += checks.accuracy_problems(kind, acc, yte)
    return LegResult(kind, acc, problems=problems)


def _subset(rows: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    return np.sort(rng.choice(rows, size=size, replace=False))


def vime_medium_legs(inputs: Inputs):
    cfg = replace(method_presets()["progressive_vime_semi_refine"], seed=inputs.seed)
    return [(cfg.name, partial(progressive_leg, inputs, cfg))]


def cmixup_medium_legs(inputs: Inputs):
    cfg = replace(method_presets()["progressive_cmixup_refine_classifier"],
                  seed=inputs.seed, **CMIXUP_OVERRIDES)
    return [(cfg.name, partial(progressive_leg, inputs, cfg))]


def highcard_encodings_legs(inputs: Inputs):
    split = inputs.split
    rng = np.random.default_rng(inputs.seed)
    oh_train = _subset(split.train_idx, ONEHOT_TRAIN_ROWS, rng)
    oh_test = _subset(split.test_idx, ONEHOT_TEST_ROWS, rng)
    return [("cpr", partial(supervised_leg, inputs, "cpr", split.train_idx, split.test_idx)),
            ("onehot", partial(supervised_leg, inputs, "onehot", oh_train, oh_test))]


def cmixup_input_problems(inputs: Inputs) -> list[str]:
    return (table_problems(inputs)
            + checks.propagation_problems(cmixup.propagate_labels, inputs.seed))


@dataclass(frozen=True)
class Workload:
    """A preset, the legs of one round, and the checks made once per run
    before the rounds. Why each workload was chosen is in README.md."""

    preset: str
    legs: Callable[[Inputs], list]
    input_problems: Callable[[Inputs], list[str]]


WORKLOADS = {
    "vime-medium": Workload("medium", vime_medium_legs, table_problems),
    "cmixup-medium": Workload("medium", cmixup_medium_legs, cmixup_input_problems),
    # its legs check the tables and matrices they build
    "highcard-encodings": Workload("highcard", highcard_encodings_legs, lambda inputs: []),
}
