import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, run, workloads
from progtab import progressive
from progtab.cmixup import propagate_labels
from progtab.data import SplitSpec, SyntheticSpec, make_split, synthesize_dataset
from progtab.encoding import encode, fit_cpr, one_hot_encoding
from progtab.progressive import RunConfig, run_progressive


@pytest.fixture(scope="module")
def small():
    ds = synthesize_dataset(SyntheticSpec(400, 2, 12, 1, 3, 1.0, 11))
    return ds, make_split(ds, SplitSpec(0.8, 0.25, 11))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_propagation_matches_a_dense_solve(seed):
    assert checks.propagation_problems(propagate_labels, seed) == []


def test_dense_solve_satisfies_its_system():
    latents, labeled, labels, c = checks.propagation_fixture(0)
    probs, weights, pseudo = checks.dense_propagation(latents, labeled, labels, c, 10, 0.99)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.all((weights >= 0.0) & (weights <= 1.0))
    assert np.array_equal(pseudo[labeled], labels)


def test_propagation_check_catches_a_wrong_solver():
    def off_by_alpha(latents, labeled_idx, labels, num_classes, k, alpha_diff):
        return propagate_labels(latents, labeled_idx, labels, num_classes, k=k,
                                alpha_diff=alpha_diff / 2)

    assert checks.propagation_problems(off_by_alpha, 0) != []


def test_count_and_cpr_checks_pass_and_catch_a_bad_count(small):
    ds, split = small
    rows = split.labeled_idx
    labels = ds.labels[rows]
    table = fit_cpr(ds, rows, labels)
    encoded = encode(ds, split.test_idx, table)
    assert checks.count_table_problems(table, ds, rows, labels) == []
    assert checks.cpr_block_problems(encoded, ds, split.test_idx, rows, labels, 1.0) == []

    name = ds.schema[0].name
    bumped = {k: v.copy() for k, v in table.counts.items()}
    bumped[name][int(ds.rows[split.test_idx[0], 0]), 0] += 1
    bad = replace(table, counts=bumped)
    assert checks.count_table_problems(bad, ds, rows, labels) != []
    bad_encoded = encode(ds, split.test_idx, bad)
    assert checks.cpr_block_problems(bad_encoded, ds, split.test_idx, rows, labels, 1.0) != []


def test_table_check_catches_a_rebuild_that_counts_rows_not_kept(small, monkeypatch):
    ds, split = small
    inputs = workloads.Inputs(ds, split, 0)
    assert workloads.table_problems(inputs) == []

    original = progressive.update_representation

    def counts_every_row(ds, base, kept, labeled_idx, labeled_labels):
        every = progressive.PseudoLabelSet(kept.rows, kept.labels)
        return original(ds, base, every, labeled_idx, labeled_labels)

    monkeypatch.setattr(progressive, "update_representation", counts_every_row)
    assert workloads.table_problems(inputs) != []


def test_one_hot_check_passes_and_catches_a_moved_one(small):
    ds, split = small
    encoded = encode(ds, split.test_idx, one_hot_encoding(ds))
    assert checks.one_hot_problems(encoded, ds, split.test_idx) == []
    start, stop = encoded.blocks[ds.schema[0].name]
    row = encoded.matrix[0, start:stop]
    hot = int(np.argmax(row))
    row[hot], row[(hot + 1) % row.size] = 0.0, 1.0
    assert checks.one_hot_problems(encoded, ds, split.test_idx) != []


def test_report_check_catches_an_inconsistent_report(small):
    ds, split = small
    config = RunConfig(pipeline="vime", n_runs=2, pretext_epochs=1, semisup_epochs=1,
                       predictor_hidden=(8,), latent_dim=4,
                       refinement_mode="classifier_threshold", seed=3)
    report = run_progressive(ds, split, config)
    n_unlabeled = split.unlabeled_idx.size
    assert checks.report_problems(report, 2, n_unlabeled) == []
    assert checks.report_problems(report, 3, n_unlabeled) != []
    report.runs[0].n_kept = n_unlabeled + 1
    assert checks.report_problems(report, 2, n_unlabeled) != []


def test_accuracy_must_beat_the_majority_share():
    labels = np.array([0, 0, 0, 1])
    assert checks.accuracy_problems("leg", 0.8, labels) == []
    assert checks.accuracy_problems("leg", 0.75, labels) != []


def test_benchmark_json_names_what_run_py_emits():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
